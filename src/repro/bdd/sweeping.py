"""BDD sweeping (Kuehlmann–Krohm style, [6] in the paper).

The original sweeping framework used size-limited BDDs as the prover:
equivalence classes come from random simulation, and a candidate pair is
proved by building both nodes' global BDDs under a node budget —
identical BDD ids prove the pair (canonicity), a non-zero XOR disproves
it with a counter-example, and budget exhaustion leaves it unresolved.

Included as the historical third prover next to SAT sweeping and the
paper's exhaustive-simulation sweeping; the three share the same outer
loop, which makes the provers directly comparable (see
``examples/engine_comparison.py`` and the ablation benchmarks).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.aig.literals import CONST0
from repro.aig.miter import build_miter, miter_is_trivially_unsat
from repro.aig.network import Aig
from repro.aig.transform import cleanup
from repro.bdd.manager import ZERO, BddLimitExceeded, BddManager
from repro.sweep.classes import SimulationState
from repro.sweep.disproof import po_disproof
from repro.sweep.engine import CecResult, CecStatus, structural_verdict
from repro.sweep.reduction import reduce_miter
from repro.sweep.report import EngineReport, PhaseRecord, PhaseTimer


class BddSweepChecker:
    """Sweeping with a size-limited BDD prover.

    Parameters
    ----------
    node_limit:
        Total BDD nodes allowed per sweeping round; once exceeded, the
        remaining pairs of the round stay unresolved (classic
        Kuehlmann-style budget).
    num_random_words, seed:
        Class initialisation, as in the other sweepers.
    time_limit:
        Optional wall-clock budget in seconds.
    max_rounds:
        Sweep/refine iterations.
    """

    def __init__(
        self,
        node_limit: int = 200_000,
        num_random_words: int = 32,
        seed: int = 2025,
        time_limit: Optional[float] = None,
        max_rounds: int = 8,
    ) -> None:
        self.node_limit = node_limit
        self.num_random_words = num_random_words
        self.seed = seed
        self.time_limit = time_limit
        self.max_rounds = max_rounds

    def check(self, aig_a: Aig, aig_b: Aig) -> CecResult:
        """Check two networks for equivalence (builds the miter)."""
        return self.check_miter(build_miter(aig_a, aig_b))

    def check_miter(self, miter: Aig) -> CecResult:
        """Run BDD sweeping on a miter."""
        start = time.perf_counter()
        report = EngineReport(initial_ands=miter.num_ands)
        record = PhaseRecord("BDDSWEEP")
        miter = cleanup(miter)
        deadline = (
            start + self.time_limit if self.time_limit is not None else None
        )
        with PhaseTimer(record):
            result = self._sweep(miter, record, deadline)
        record.miter_ands_after = (
            result.reduced_miter.num_ands if result.reduced_miter else 0
        )
        report.final_ands = record.miter_ands_after
        report.phases.append(record)
        report.total_seconds = time.perf_counter() - start
        result.report = report
        return result

    # ------------------------------------------------------------------

    def _sweep(
        self,
        miter: Aig,
        record: PhaseRecord,
        deadline: Optional[float],
    ) -> CecResult:
        verdict = structural_verdict(miter)
        if verdict is not None:
            return verdict
        state = SimulationState(
            miter.num_pis, self.num_random_words, self.seed
        )
        for _ in range(self.max_rounds):
            if _expired(deadline):
                return CecResult(CecStatus.UNDECIDED, reduced_miter=miter)
            tables = state.tables(miter)
            disproof = po_disproof(miter, state, tables)
            if disproof is not None:
                return disproof
            classes = state.classes(miter, tables)
            pairs = list(classes.all_pairs())
            if not pairs:
                break
            record.candidates += len(pairs)
            outcome = self._prove_round(miter, pairs, record, deadline)
            if isinstance(outcome, CecResult):
                return outcome
            merges, cex_patterns, budget_hit = outcome
            if cex_patterns:
                state.add_cex_patterns(cex_patterns)
            if merges:
                miter, _ = reduce_miter(miter, merges)
            if miter_is_trivially_unsat(miter):
                return CecResult(CecStatus.EQUIVALENT)
            if not merges and not cex_patterns:
                break
            if budget_hit and not merges:
                break
        return self._prove_outputs(miter, record)

    def _prove_round(
        self,
        miter: Aig,
        pairs,
        record: PhaseRecord,
        deadline: Optional[float],
    ):
        manager = BddManager(node_limit=self.node_limit)
        node_bdds: Dict[int, int] = {0: ZERO}
        merges: Dict[int, Tuple[int, int]] = {}
        cex_patterns: List[List[int]] = []
        budget_hit = False
        for repr_node, node, phase in pairs:
            if _expired(deadline):
                budget_hit = True
                break
            try:
                bdd_r = self._node_bdd(miter, manager, node_bdds, repr_node)
                bdd_n = self._node_bdd(miter, manager, node_bdds, node)
                if phase:
                    bdd_n = manager.apply_not(bdd_n)
                if bdd_r == bdd_n:
                    merges[node] = (repr_node, phase)
                    record.proved += 1
                else:
                    diff = manager.apply_xor(bdd_r, bdd_n)
                    assignment = manager.any_sat(diff)
                    assert assignment is not None
                    cex_patterns.append(
                        [assignment.get(i, 0) for i in range(miter.num_pis)]
                    )
                    record.cex += 1
            except BddLimitExceeded:
                budget_hit = True
                break
        return merges, cex_patterns, budget_hit

    def _node_bdd(
        self,
        miter: Aig,
        manager: BddManager,
        node_bdds: Dict[int, int],
        node: int,
    ) -> int:
        return node_bdd(miter, manager, node_bdds, node)

    def _prove_outputs(self, miter: Aig, record: PhaseRecord) -> CecResult:
        manager = BddManager(node_limit=self.node_limit)
        node_bdds: Dict[int, int] = {0: ZERO}
        new_pos = list(miter.pos)
        any_unknown = False
        for i, po in enumerate(miter.pos):
            if po == CONST0:
                continue
            try:
                bdd = self._node_bdd(miter, manager, node_bdds, po >> 1)
            except BddLimitExceeded:
                any_unknown = True
                continue
            if po & 1:
                bdd = manager.apply_not(bdd)
            if bdd != ZERO:
                assignment = manager.any_sat(bdd)
                assert assignment is not None
                return CecResult(
                    CecStatus.NONEQUIVALENT,
                    cex=[assignment.get(j, 0) for j in range(miter.num_pis)],
                )
            new_pos[i] = CONST0
            record.proved += 1
        reduced = cleanup(
            Aig(
                miter.num_pis,
                miter.fanin_literals()[0],
                miter.fanin_literals()[1],
                new_pos,
                name=miter.name,
            )
        )
        if not any_unknown and miter_is_trivially_unsat(reduced):
            return CecResult(CecStatus.EQUIVALENT)
        return CecResult(CecStatus.UNDECIDED, reduced_miter=reduced)


def node_bdd(
    miter: Aig,
    manager: BddManager,
    node_bdds: Dict[int, int],
    node: int,
) -> int:
    """Build (and memoise) a node's global BDD, iteratively.

    Shared between the sweeping checker and the scheduler's BDD lane:
    ``node_bdds`` memoises per manager (seed it with ``{0: ZERO}``), and
    :class:`~repro.bdd.manager.BddLimitExceeded` escapes to the caller
    when the manager's node budget blows.
    """
    stack = [node]
    f0l, f1l = miter.fanin_lists()
    num_pis = miter.num_pis
    while stack:
        current = stack[-1]
        if current in node_bdds:
            stack.pop()
            continue
        if 1 <= current <= num_pis:
            node_bdds[current] = manager.var(current - 1)
            stack.pop()
            continue
        v0 = f0l[current] >> 1
        v1 = f1l[current] >> 1
        pending = [v for v in (v0, v1) if v not in node_bdds]
        if pending:
            stack.extend(pending)
            continue
        b0 = node_bdds[v0]
        if f0l[current] & 1:
            b0 = manager.apply_not(b0)
        b1 = node_bdds[v1]
        if f1l[current] & 1:
            b1 = manager.apply_not(b1)
        node_bdds[current] = manager.apply_and(b0, b1)
        stack.pop()
    return node_bdds[node]


def _expired(deadline: Optional[float]) -> bool:
    return deadline is not None and time.perf_counter() > deadline
