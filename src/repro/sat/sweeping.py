"""FRAIG-style SAT sweeping equivalence checker (ABC ``&cec`` substitute).

The classic SAT sweeping loop ([8], [16] in the paper): random simulation
initialises equivalence classes, candidate pairs are checked by a CDCL
solver with a conflict limit, SAT answers yield counter-examples that
split the classes, UNSAT answers merge the pair.  When classes dry up the
remaining miter POs are proved (or refuted) by final SAT calls.

Differences from the paper's engine are the point of the comparison: the
prover here is SAT, not exhaustive simulation, and there is no cut-based
local checking — a pair either succumbs to SAT within the conflict limit
or stays unresolved.

Proved pairs are additionally asserted as equivalences inside the live
solver (``a ↔ b`` clauses), so later queries in the same round benefit
from earlier merges — the incremental behaviour that makes SAT sweeping
strong in practice.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.aig.literals import CONST0, lit
from repro.aig.miter import build_miter, miter_is_trivially_unsat
from repro.aig.network import Aig
from repro.aig.transform import cleanup
from repro.cache.knowledge import SweepCache
from repro.obs import get_tracer
from repro.sat.cnf import CnfBuilder
from repro.sat.solver import SatSolver, SolveStatus
from repro.sweep.classes import SimulationState
from repro.sweep.disproof import po_disproof
from repro.sweep.engine import CecResult, CecStatus, structural_verdict
from repro.sweep.report import EngineReport, PhaseRecord, PhaseTimer
from repro.sweep.state import SweepState


@dataclass
class SatSweepStats:
    """Solver-level counters of one checking run."""

    rounds: int = 0
    sat_calls: int = 0
    proved_pairs: int = 0
    disproved_pairs: int = 0
    unknown_pairs: int = 0
    po_calls: int = 0


class SatSweepChecker:
    """SAT sweeping CEC baseline.

    Parameters
    ----------
    conflict_limit:
        Per-query conflict budget (the ``-C`` option of ABC ``&cec``; the
        paper uses 100000 when proving residual miters).
    num_random_words:
        Random words for class initialisation (64 patterns per word).
    seed:
        RNG seed for the random patterns.
    time_limit:
        Optional wall-clock budget in seconds; exceeded → UNDECIDED, the
        partially reduced miter is returned.  Models the timeouts of the
        paper's Table II (ABC hit a 122-day timeout on log2_10xd).
    max_rounds:
        Sweep/refine iterations before giving up on internal pairs.
    """

    def __init__(
        self,
        conflict_limit: int = 100_000,
        num_random_words: int = 32,
        seed: int = 2025,
        time_limit: Optional[float] = None,
        max_rounds: int = 16,
        pattern_strategy: str = "random",
        cache: Optional[SweepCache] = None,
    ) -> None:
        self.conflict_limit = conflict_limit
        self.num_random_words = num_random_words
        self.seed = seed
        self.time_limit = time_limit
        self.max_rounds = max_rounds
        self.pattern_strategy = pattern_strategy
        self.cache = cache
        self.stats = SatSweepStats()

    # ------------------------------------------------------------------

    def check(self, aig_a: Aig, aig_b: Aig) -> CecResult:
        """Check two networks for equivalence (builds the miter)."""
        return self.check_miter(build_miter(aig_a, aig_b))

    def check_miter(
        self,
        miter: Aig,
        state: Optional[Union[SimulationState, SweepState]] = None,
    ) -> CecResult:
        """Run SAT sweeping on a miter.

        ``state`` optionally transfers knowledge from a previous engine
        (the EC-transfer extension of §V).  A plain
        :class:`~repro.sweep.classes.SimulationState` contributes its
        pattern pool — counter-examples pre-split the classes, so pairs
        already disproved elsewhere are never re-checked by SAT.  A
        :class:`~repro.sweep.state.SweepState` whose network matches the
        handed-over miter is adopted outright: its carried signature
        matrix, classes and cache fingerprints are consumed in place and
        the initial cleanup/re-simulation is skipped entirely.
        """
        start = time.perf_counter()
        self.stats = SatSweepStats()
        report = EngineReport(initial_ands=miter.num_ands)
        record = PhaseRecord("SAT")
        sweep = self._adopt_state(miter, state)
        cache_snapshot = (
            self.cache.snapshot() if self.cache is not None else None
        )
        tracer = get_tracer()

        def finish(result: CecResult) -> CecResult:
            record.miter_ands_after = (
                result.reduced_miter.num_ands if result.reduced_miter else 0
            )
            report.final_ands = record.miter_ands_after
            report.phases.append(record)
            report.total_seconds = time.perf_counter() - start
            if self.cache is not None:
                self.cache.flush()
                report.cache = self.cache.counters.diff(cache_snapshot)
            if tracer.enabled:
                report.metrics = tracer.metrics.as_dict()
            result.report = report
            return result

        deadline = (
            start + self.time_limit if self.time_limit is not None else None
        )
        with tracer.span(
            "sat.check_miter",
            category="sat",
            initial_ands=sweep.network().num_ands,
        ), PhaseTimer(record):
            result = self._sweep(sweep, record, deadline)
        return finish(result)

    # ------------------------------------------------------------------

    def _adopt_state(
        self,
        miter: Aig,
        state: Optional[Union[SimulationState, SweepState]],
    ) -> SweepState:
        """Build the working :class:`SweepState` for this run.

        A matching ``SweepState`` is reused verbatim (no cleanup — its
        network is already compact, and cleaning would orphan the
        carried knowledge).  Otherwise a fresh state is built from the
        cleaned miter and any transferred pattern pool is adopted.

        Verbatim adoption is the zero-re-simulation hand-off the
        shared-memory data plane enables (the finisher maps another
        process's carried state); it is counted as ``sat.state_adopted``
        with the carried signature words under
        ``sat.adopted_carried_words``.
        """
        if isinstance(state, SweepState) and state.matches(miter):
            metrics = get_tracer().metrics
            metrics.counter_add("sat.state_adopted")
            metrics.counter_add(
                "sat.adopted_carried_words", state.carried_words
            )
            return state
        sweep = SweepState(
            cleanup(miter),
            num_random_words=self.num_random_words,
            seed=self.seed,
            strategy=self.pattern_strategy,
        )
        if state is not None and state.num_pis == sweep.num_pis:
            pool = state.pool() if isinstance(state, SweepState) else state
            sweep.adopt_pool(pool)
        return sweep

    def _sweep(
        self,
        sweep: SweepState,
        record: PhaseRecord,
        deadline: Optional[float],
    ) -> CecResult:
        miter = sweep.network()
        verdict = structural_verdict(miter)
        if verdict is not None:
            return verdict

        for _ in range(self.max_rounds):
            miter = sweep.network()
            if _expired(deadline):
                return CecResult(
                    CecStatus.UNDECIDED, reduced_miter=miter, sim_state=sweep
                )
            tables = sweep.tables()
            disproof = po_disproof(miter, sweep, tables)
            if disproof is not None:
                return disproof
            classes = sweep.classes(tables=tables)
            pairs = [
                (r, n, phase)
                for r, n, phase in classes.all_pairs()
                if miter.is_and(n) or miter.is_pi(n)
            ]
            if not pairs:
                break
            record.candidates += len(pairs)
            bound = sweep.bound_cache(self.cache)
            tracer = get_tracer()
            solver = SatSolver()
            cnf = CnfBuilder(miter, solver)
            merges: Dict[int, Tuple[int, int]] = {}
            cex_patterns: List[List[int]] = []
            timed_out = False
            for repr_node, node, phase in pairs:
                if _expired(deadline):
                    timed_out = True
                    break
                lit_r = lit(repr_node)
                lit_n = lit(node, phase)
                if bound is not None:
                    known = bound.lookup_pair(
                        lit_r, lit_n, want_inconclusive=True
                    )
                    if known is not None:
                        if known.is_equivalent:
                            merges[node] = (repr_node, phase)
                            self.stats.proved_pairs += 1
                            record.proved += 1
                            # Assert the cached equivalence so later SAT
                            # queries in this round benefit from it just
                            # like from a freshly proved one.
                            sol_r = cnf.literal(lit_r)
                            sol_n = cnf.literal(lit_n)
                            solver.add_clause([sol_r, sol_n ^ 1])
                            solver.add_clause([sol_r ^ 1, sol_n])
                            continue
                        if known.is_nonequivalent:
                            cex_patterns.append(known.cex)
                            self.stats.disproved_pairs += 1
                            record.cex += 1
                            continue
                        if known.conflict_limit >= self.conflict_limit:
                            # A budget at least as large already failed
                            # on this pair: re-solving cannot do better.
                            self.stats.unknown_pairs += 1
                            continue
                pair_start = time.perf_counter()
                with tracer.span("sat.pair", category="sat") as pair_span:
                    status = self._check_pair(
                        solver, cnf, lit_r, lit_n, deadline
                    )
                    pair_span.set("status", status.name)
                pair_seconds = time.perf_counter() - pair_start
                self.stats.sat_calls += 1
                tracer.metrics.counter_add("sat.pair_calls")
                tracer.metrics.observe("sat.pair_seconds", pair_seconds)
                if status is SolveStatus.UNSAT:
                    merges[node] = (repr_node, phase)
                    self.stats.proved_pairs += 1
                    record.proved += 1
                    if bound is not None:
                        bound.record_equivalent(
                            lit_r, lit_n, engine="sat", context="SAT",
                            seconds=pair_seconds,
                        )
                elif status is SolveStatus.SAT:
                    pattern = cnf.pi_pattern_from_model()
                    cex_patterns.append(pattern)
                    self.stats.disproved_pairs += 1
                    record.cex += 1
                    if bound is not None:
                        bound.record_nonequivalent(
                            lit_r, lit_n, pattern, engine="sat",
                            context="SAT", seconds=pair_seconds,
                        )
                else:
                    self.stats.unknown_pairs += 1
                    # Only a genuine conflict-budget defeat is worth
                    # memoising; a deadline abort says nothing about
                    # what the full budget could have proved.
                    if bound is not None and not _expired(deadline):
                        bound.record_inconclusive(
                            lit_r, lit_n, engine="sat", context="SAT",
                            conflict_limit=self.conflict_limit,
                            seconds=pair_seconds,
                        )
            self.stats.rounds += 1
            if cex_patterns:
                sweep.add_cex_patterns(cex_patterns)
            if merges:
                sweep.apply_merges(merges)
            if miter_is_trivially_unsat(sweep.network()):
                return CecResult(CecStatus.EQUIVALENT)
            if timed_out:
                return CecResult(
                    CecStatus.UNDECIDED,
                    reduced_miter=sweep.network(),
                    sim_state=sweep,
                )
            if not merges and not cex_patterns:
                break

        return self._prove_outputs(sweep, deadline, record)

    def _check_pair(
        self,
        solver: SatSolver,
        cnf: CnfBuilder,
        lit_a: int,
        lit_b: int,
        deadline: Optional[float] = None,
    ) -> SolveStatus:
        """One equivalence query: SAT ⇔ the pair differs on some pattern."""
        sel, sol_a, sol_b = cnf.open_pair_query(lit_a, lit_b)
        status = solver.solve(
            assumptions=[sel],
            conflict_limit=self.conflict_limit,
            deadline=deadline,
        )
        cnf.retire_query(sel)
        if status is SolveStatus.UNSAT:
            # Assert the proved equivalence so later queries benefit.
            cnf.assert_equal(sol_a, sol_b)
        return status

    def _prove_outputs(
        self,
        sweep: SweepState,
        deadline: Optional[float],
        record: PhaseRecord,
    ) -> CecResult:
        miter = sweep.network()
        bound = sweep.bound_cache(self.cache)
        tracer = get_tracer()
        solver = SatSolver()
        cnf = CnfBuilder(miter, solver)
        new_pos = list(miter.pos)
        any_unknown = False
        for i, po in enumerate(miter.pos):
            if po == CONST0:
                continue
            if _expired(deadline):
                any_unknown = True
                break
            record.candidates += 1
            if bound is not None:
                known = bound.lookup_pair(po, CONST0, want_inconclusive=True)
                if known is not None:
                    if known.is_equivalent:
                        new_pos[i] = CONST0
                        record.proved += 1
                        continue
                    if known.is_nonequivalent:
                        return CecResult(
                            CecStatus.NONEQUIVALENT, cex=known.cex
                        )
                    if known.conflict_limit >= self.conflict_limit:
                        any_unknown = True
                        continue
            po_start = time.perf_counter()
            with tracer.span("sat.po", category="sat", po_index=i):
                sol_po = cnf.literal(po)
                selector = solver.new_var()
                sel = selector << 1
                solver.add_clause([sel ^ 1, sol_po])
                status = solver.solve(
                    assumptions=[sel],
                    conflict_limit=self.conflict_limit,
                    deadline=deadline,
                )
                solver.add_clause([sel ^ 1])
            po_seconds = time.perf_counter() - po_start
            self.stats.po_calls += 1
            tracer.metrics.observe("sat.po_seconds", po_seconds)
            if status is SolveStatus.SAT:
                pattern = cnf.pi_pattern_from_model()
                if bound is not None:
                    bound.record_nonequivalent(
                        po, CONST0, pattern, engine="sat", context="PO",
                        seconds=po_seconds,
                    )
                return CecResult(CecStatus.NONEQUIVALENT, cex=pattern)
            if status is SolveStatus.UNSAT:
                new_pos[i] = CONST0
                solver.add_clause([sol_po ^ 1])
                record.proved += 1
                if bound is not None:
                    bound.record_equivalent(
                        po, CONST0, engine="sat", context="PO",
                        seconds=po_seconds,
                    )
            else:
                any_unknown = True
                if bound is not None and not _expired(deadline):
                    bound.record_inconclusive(
                        po, CONST0, engine="sat", context="PO",
                        conflict_limit=self.conflict_limit,
                        seconds=po_seconds,
                    )
        reduced = sweep.set_pos(new_pos)
        if not any_unknown and miter_is_trivially_unsat(reduced):
            return CecResult(CecStatus.EQUIVALENT)
        return CecResult(
            CecStatus.UNDECIDED, reduced_miter=reduced, sim_state=sweep
        )


def _expired(deadline: Optional[float]) -> bool:
    return deadline is not None and time.perf_counter() > deadline
