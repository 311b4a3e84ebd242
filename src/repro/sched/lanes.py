"""Lane adapters: one engine probe per routed candidate pair.

Each lane wraps one prover (exhaustive-simulation window, cut-based
local check, size-limited BDD, batched incremental SAT) behind the same
shape: take the pairs the dispatcher routed here, settle what it can,
and hand the rest back as ``unresolved`` — the dispatcher reroutes those
to the SAT backstop, so a lane is free to give up without ever costing
correctness.  Every attempted pair reports its observed latency (and
success/failure) back to the :class:`~repro.sched.cost.CostModel`.

The SAT lane is the batched incremental protocol of the issue: all the
pairs of one round share a single solver instance and lazily-encoded
CNF; each pair is an assumption-guarded query with its own conflict
budget, proved equivalences are asserted into the shared solver so later
queries in the batch reuse them, and the ``sat.batch.pairs`` /
``sat.batch.solves`` counters make the batching observable (pairs must
outnumber solver instances).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.aig.literals import CONST0, lit
from repro.aig.miter import miter_is_trivially_unsat
from repro.aig.network import Aig
from repro.aig.traversal import collect_cone
from repro.bdd.manager import ZERO, BddLimitExceeded, BddManager
from repro.bdd.sweeping import node_bdd
from repro.cuts.common import CommonCutBuffer, common_cuts
from repro.cuts.enumeration import CutEnumerator
from repro.cuts.selection import CutSelector
from repro.obs import get_tracer
from repro.sat.cnf import CnfBuilder
from repro.sat.solver import SatSolver, SolveStatus
from repro.sched.cost import CostModel
from repro.sched.features import PairFeatures
from repro.simulation.exhaustive import ExhaustiveSimulator, PairStatus
from repro.simulation.merging import merge_windows
from repro.simulation.window import Pair, Window, build_pair_window
from repro.sweep.config import EngineConfig
from repro.sweep.engine import CecResult, CecStatus
from repro.sweep.report import PhaseRecord
from repro.sweep.state import SweepState


@dataclass
class RoutedPair:
    """One candidate pair en route to a lane."""

    repr_node: int
    node: int
    phase: int
    features: PairFeatures

    @property
    def lit_r(self) -> int:
        return lit(self.repr_node)

    @property
    def lit_n(self) -> int:
        return lit(self.node, self.phase)


@dataclass
class LaneOutcome:
    """What one lane settled out of its routed pairs."""

    merges: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    cex_patterns: List[List[int]] = field(default_factory=list)
    unresolved: List[RoutedPair] = field(default_factory=list)


@dataclass
class RoundContext:
    """Shared per-round resources handed to every lane."""

    state: SweepState
    miter: Aig
    simulator: ExhaustiveSimulator
    bound: Optional[object]
    deadline: Optional[float]


def _expired(deadline: Optional[float]) -> bool:
    return deadline is not None and time.perf_counter() > deadline


class SimLane:
    """Exhaustive simulation over the pair's support union (a real proof:
    the window covers every input the pair depends on, so EQUAL proves
    and MISMATCH yields a genuine counter-example).

    Windows are merged up to ``k_s`` inputs under
    ``config.window_merging`` — the paper's G-phase window merging, so
    one batch shares simulation tables across similar pairs.
    """

    name = "sim"

    def __init__(self, config: EngineConfig) -> None:
        self.config = config

    def run(
        self, ctx: RoundContext, pairs: List[RoutedPair], model: CostModel
    ) -> LaneOutcome:
        cfg = self.config
        out = LaneOutcome()
        miter = ctx.miter
        windows: List[Window] = []
        attempted: Dict[int, RoutedPair] = {}
        for rp in pairs:
            union = rp.features.union_support
            if union is None or len(union) > cfg.k_g:
                # Only reachable under forcing: choose() never routes a
                # capped-support pair here on its own.
                model.mispredict(self.name)
                out.unresolved.append(rp)
                continue
            windows.append(
                build_pair_window(
                    miter, sorted(union), rp.lit_r, rp.lit_n, rp.node
                )
            )
            attempted[rp.node] = rp
        if not attempted:
            return out
        if cfg.window_merging:
            windows = merge_windows(miter, windows, cfg.k_s_for(cfg.k_g))
        start = time.perf_counter()
        outcomes = ctx.simulator.run(
            miter, windows, collect_cex=True, skip_oversized=True
        )
        per_pair = (time.perf_counter() - start) / len(attempted)
        # Settle in the simulator's order: counter-examples enter the
        # pattern pool in that order.
        for outcome in outcomes:
            rp = attempted.pop(outcome.pair.tag)
            model.record(self.name, rp.features, per_pair, resolved=True)
            if outcome.status is PairStatus.EQUAL:
                out.merges[rp.node] = (rp.repr_node, rp.phase)
                if ctx.bound is not None:
                    ctx.bound.record_equivalent(
                        rp.lit_r, rp.lit_n, context="SCHED"
                    )
            else:
                pattern = outcome.cex.to_pi_pattern(miter.num_pis)
                out.cex_patterns.append(pattern)
                if ctx.bound is not None:
                    ctx.bound.record_nonequivalent(
                        rp.lit_r, rp.lit_n, pattern, context="SCHED"
                    )
        for rp in attempted.values():
            # Window skipped on the simulator's memory budget.
            model.record(self.name, rp.features, per_pair, resolved=False)
            out.unresolved.append(rp)
        return out


class CutLane:
    """One priority-cut enumeration pass over the routed pairs' cones.

    Cut-local EQUAL over a common cut proves the pair; a local mismatch
    proves nothing (it may be a satisfiability don't-care), so anything
    not proved comes back unresolved.
    """

    name = "cut"

    def __init__(self, config: EngineConfig, pass_id: int = 0) -> None:
        self.config = config
        # pass_id 0 = rotate through the configured Table I passes, one
        # per invocation, the way the paper order's repeated L rounds
        # diversify the cuts a surviving pair sees.
        self.pass_id = pass_id
        self._calls = 0

    def _next_pass(self) -> int:
        if self.pass_id:
            return self.pass_id
        passes = self.config.passes or (1,)
        chosen = passes[self._calls % len(passes)]
        self._calls += 1
        return chosen

    def run(
        self, ctx: RoundContext, pairs: List[RoutedPair], model: CostModel
    ) -> LaneOutcome:
        cfg = self.config
        out = LaneOutcome()
        miter = ctx.miter
        attempted: List[RoutedPair] = []
        for rp in pairs:
            if rp.features.node_is_and:
                attempted.append(rp)
            else:
                model.mispredict(self.name)  # PI pairs have no cuts
                out.unresolved.append(rp)
        if not attempted:
            return out
        start = time.perf_counter()
        pair_info = {rp.node: (rp.repr_node, rp.phase) for rp in attempted}
        repr_of: Dict[int, int] = {}
        pair_roots = set()
        for rp in attempted:
            repr_of[rp.node] = rp.repr_node
            repr_of.setdefault(rp.repr_node, rp.repr_node)
            pair_roots.add(rp.node)
            if rp.repr_node != 0:
                pair_roots.add(rp.repr_node)
        needed = set(collect_cone(miter, pair_roots))
        pass_id = self._next_pass()
        selector = CutSelector.for_network(
            miter, pass_id, cfg.similarity_selection
        )
        enumerator = CutEnumerator(miter, cfg.k_l, cfg.C, selector)
        merges: Dict[int, Tuple[int, int]] = {}
        bound = ctx.bound

        def flush(windows: List[Window]) -> None:
            outcomes = ctx.simulator.run(
                miter, windows, collect_cex=False, skip_oversized=True
            )
            for outcome in outcomes:
                node = outcome.pair.tag
                if outcome.status is PairStatus.EQUAL:
                    if node not in merges:
                        phase = (outcome.pair.lit_a ^ outcome.pair.lit_b) & 1
                        merges[node] = (outcome.pair.lit_a >> 1, phase)
                    if bound is not None and outcome.window is not None:
                        bound.record_equivalent(
                            outcome.pair.lit_a,
                            outcome.pair.lit_b,
                            context="SCHED",
                            cut_size=len(outcome.window.inputs),
                        )
                elif bound is not None and outcome.window is not None:
                    bound.record_local_mismatch(
                        outcome.pair.lit_a,
                        outcome.pair.lit_b,
                        outcome.window.inputs,
                    )

        buffer = CommonCutBuffer(cfg.buffer_capacity, flush)
        tracer = get_tracer()
        with tracer.span(
            "cuts.pass", category="cuts", pass_id=pass_id
        ) as pass_span:
            for _level, nodes in enumerator.run(repr_of, only=needed):
                batch: List[Window] = []
                for node in nodes:
                    info = pair_info.get(node)
                    if info is None or node in merges:
                        continue
                    repr_node, phase = info
                    priority_r = (
                        enumerator.priority_cuts(repr_node)
                        if repr_node != 0
                        else []
                    )
                    cuts = common_cuts(
                        priority_r,
                        enumerator.priority_cuts(node),
                        cfg.k_l,
                        cfg.max_common_cuts_per_pair,
                    )
                    pair = Pair(lit(repr_node), lit(node, phase), tag=node)
                    for cut in cuts:
                        if bound is not None and bound.local_mismatch_seen(
                            pair.lit_a, pair.lit_b, cut
                        ):
                            continue
                        batch.append(
                            build_pair_window(
                                miter, cut, pair.lit_a, pair.lit_b, node
                            )
                        )
                buffer.insert(batch)
            buffer.drain()
            pass_span.set("expansions", enumerator.expansions)
        tracer.metrics.counter_add("cuts.expansions", enumerator.expansions)
        per_pair = (time.perf_counter() - start) / len(attempted)
        # An unproved pair is NOT a routing mistake here: a local
        # mismatch may be an SDC and the next pass rotation may still
        # prove it (the paper order's L phase needs many rounds too).
        # Record latencies neutrally and penalise once per empty batch,
        # or the per-pair penalty caps out in one chunk and the lane —
        # the scheduler's only way to prove wide-support pairs cheaply —
        # goes dark for the rest of the run.
        for rp in attempted:
            resolved = rp.node in merges
            model.record(
                self.name, rp.features, per_pair,
                resolved=resolved, neutral=not resolved,
            )
            if resolved:
                out.merges[rp.node] = merges[rp.node]
            else:
                out.unresolved.append(rp)
        if not merges:
            model.mispredict(self.name)
        return out


class BddLane:
    """Size-limited global BDDs (Kuehlmann-style): identical ids prove,
    a non-zero XOR disproves with a counter-example, node-budget blowout
    leaves the pair (and the rest of the batch) unresolved."""

    name = "bdd"

    def __init__(self, node_limit: int = 100_000) -> None:
        self.node_limit = node_limit

    def run(
        self, ctx: RoundContext, pairs: List[RoutedPair], model: CostModel
    ) -> LaneOutcome:
        out = LaneOutcome()
        miter = ctx.miter
        manager = BddManager(node_limit=self.node_limit)
        node_bdds: Dict[int, int] = {0: ZERO}
        blown = False
        for rp in pairs:
            if blown:
                # The manager saturated earlier in this batch: these
                # pairs were routed here and never got their answer, so
                # they are mispredictions too — this drives the lane
                # penalty to its cap after one blown batch, which is
                # exactly right for BDD-hostile structures (multipliers).
                model.mispredict(self.name)
                out.unresolved.append(rp)
                continue
            if _expired(ctx.deadline):
                out.unresolved.append(rp)
                continue
            start = time.perf_counter()
            try:
                bdd_r = node_bdd(miter, manager, node_bdds, rp.repr_node)
                bdd_n = node_bdd(miter, manager, node_bdds, rp.node)
                if rp.phase:
                    bdd_n = manager.apply_not(bdd_n)
                if bdd_r == bdd_n:
                    equal, assignment = True, None
                else:
                    diff = manager.apply_xor(bdd_r, bdd_n)
                    assignment = manager.any_sat(diff)
                    equal = False
            except BddLimitExceeded:
                # The shared manager is saturated: this pair failed and
                # the rest of the batch cannot build BDDs either.
                model.record(
                    self.name,
                    rp.features,
                    time.perf_counter() - start,
                    resolved=False,
                )
                out.unresolved.append(rp)
                blown = True
                continue
            seconds = time.perf_counter() - start
            model.record(self.name, rp.features, seconds, resolved=True)
            if equal:
                out.merges[rp.node] = (rp.repr_node, rp.phase)
                if ctx.bound is not None:
                    ctx.bound.record_equivalent(
                        rp.lit_r, rp.lit_n, context="SCHED"
                    )
            else:
                assert assignment is not None
                pattern = [
                    assignment.get(i, 0) for i in range(miter.num_pis)
                ]
                out.cex_patterns.append(pattern)
                if ctx.bound is not None:
                    ctx.bound.record_nonequivalent(
                        rp.lit_r, rp.lit_n, pattern, context="SCHED"
                    )
        return out


class SatBatchLane:
    """Batched incremental SAT: one shared solver per round.

    All routed pairs (including every other lane's rerouted leftovers)
    are assumption-guarded queries against a single lazily-encoded CNF;
    proved equivalences are asserted into the shared instance so later
    queries in the batch solve against an already-reduced search space.
    Each pair gets its own conflict budget, scaled with cone depth.
    """

    name = "sat"

    def __init__(self, conflict_budget: int = 1_000) -> None:
        self.conflict_budget = conflict_budget

    def budget_for(self, f: PairFeatures) -> int:
        """Per-pair conflict budget: deeper cones earn more conflicts.

        Kept small on purpose — a pair this budget cannot settle stays
        in its class for the next refinement round, and the final PO
        proof runs at the full limit regardless, so a generous in-round
        budget only buys stalls (the CDCL solver here is interpreted
        Python: ~1k conflicts is already a noticeable pause).
        """
        return int(self.conflict_budget * (1.0 + min(f.level, 96) / 48.0))

    def run(
        self, ctx: RoundContext, pairs: List[RoutedPair], model: CostModel
    ) -> LaneOutcome:
        out = LaneOutcome()
        if not pairs:
            return out
        metrics = get_tracer().metrics
        metrics.counter_add("sat.batch.pairs", len(pairs))
        metrics.counter_add("sat.batch.solves", 1)
        solver = SatSolver()
        cnf = CnfBuilder(ctx.miter, solver)
        bound = ctx.bound
        for rp in pairs:
            if _expired(ctx.deadline):
                out.unresolved.append(rp)
                continue
            budget = self.budget_for(rp.features)
            start = time.perf_counter()
            sel, sol_a, sol_b = cnf.open_pair_query(rp.lit_r, rp.lit_n)
            status = solver.solve(
                assumptions=[sel],
                conflict_limit=budget,
                deadline=ctx.deadline,
            )
            cnf.retire_query(sel)
            seconds = time.perf_counter() - start
            if status is SolveStatus.UNSAT:
                cnf.assert_equal(sol_a, sol_b)
                out.merges[rp.node] = (rp.repr_node, rp.phase)
                model.record(self.name, rp.features, seconds, resolved=True)
                if bound is not None:
                    bound.record_equivalent(
                        rp.lit_r, rp.lit_n, engine="sat", context="SCHED",
                        seconds=seconds,
                    )
            elif status is SolveStatus.SAT:
                pattern = cnf.pi_pattern_from_model()
                out.cex_patterns.append(pattern)
                model.record(self.name, rp.features, seconds, resolved=True)
                if bound is not None:
                    bound.record_nonequivalent(
                        rp.lit_r, rp.lit_n, pattern, engine="sat",
                        context="SCHED", seconds=seconds,
                    )
            else:
                out.unresolved.append(rp)
                model.record(self.name, rp.features, seconds, resolved=False)
                if bound is not None and not _expired(ctx.deadline):
                    bound.record_inconclusive(
                        rp.lit_r, rp.lit_n, engine="sat", context="SCHED",
                        conflict_limit=budget, seconds=seconds,
                    )
        return out


def prove_pos_batched(
    sweep: SweepState,
    cache,
    conflict_limit: int,
    deadline: Optional[float],
    record: PhaseRecord,
) -> CecResult:
    """Prove (or refute) the remaining miter POs on one shared solver.

    The completeness backstop of the adaptive flow: it always runs at
    the *full* conflict limit, so an adaptive run concludes exactly when
    the fixed pipeline's final SAT stage would — lane choices affect
    speed, never the verdict.  POs share the solver the same way batch
    pairs do (``sat.batch.*`` counters included).
    """
    miter = sweep.network()
    bound = sweep.bound_cache(cache)
    tracer = get_tracer()
    solver = SatSolver()
    cnf = CnfBuilder(miter, solver)
    new_pos = list(miter.pos)
    any_unknown = False
    queried = 0
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
                    return CecResult(CecStatus.NONEQUIVALENT, cex=known.cex)
                if known.conflict_limit >= conflict_limit:
                    any_unknown = True
                    continue
        po_start = time.perf_counter()
        with tracer.span("sat.po", category="sat", po_index=i):
            sol_po = cnf.literal(po)
            sel = solver.new_var() << 1
            solver.add_clause([sel ^ 1, sol_po])
            status = solver.solve(
                assumptions=[sel],
                conflict_limit=conflict_limit,
                deadline=deadline,
            )
            solver.add_clause([sel ^ 1])
        queried += 1
        po_seconds = time.perf_counter() - po_start
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
                    conflict_limit=conflict_limit, seconds=po_seconds,
                )
    if queried:
        metrics = tracer.metrics
        metrics.counter_add("sat.batch.pairs", queried)
        metrics.counter_add("sat.batch.solves", 1)
    reduced = sweep.set_pos(new_pos)
    if not any_unknown and miter_is_trivially_unsat(reduced):
        return CecResult(CecStatus.EQUIVALENT)
    return CecResult(
        CecStatus.UNDECIDED, reduced_miter=reduced, sim_state=sweep
    )
