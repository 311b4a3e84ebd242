"""Per-pair dispatch over the scheduler's lanes: two routing policies.

Both policies run the same refinement round — equivalence classes →
candidate pairs, the knowledge-cache short-circuit, lane calls, then
counter-example refinement and merging — and differ only in where each
pair goes:

- :class:`AdaptiveSweeper` (``--sched auto``) scores every candidate
  pair against five lanes — exhaustive-simulation window, cut-based
  local check, size-limited BDD, cofactor cubes, batched incremental
  SAT — and routes it to the predicted-cheapest one.  Lane latencies
  feed back into the :class:`~repro.sched.cost.CostModel` (ε-greedy,
  misprediction penalties), so the routing adapts to the workload within
  a run, and — in the serve daemon — across the jobs of one tenant.
- :func:`sweep_paper_order` is the paper's Fig. 5 tail as a fixed-order
  policy: G rounds send every pair within ``k_g`` to the sim lane, L
  rounds run one cut lane per Table I pass, and what survives is the
  UNDECIDED residue for an external SAT back end.

Correctness does not depend on the routing: lanes only ever *prove* or
*refute* with sound certificates (full-support windows, cut-local
equality, canonical BDDs, exact SAT).  In the adaptive flow anything a
lane cannot settle reroutes to the batched SAT backstop, and the final
PO proof always runs at the full conflict limit.  A bad cost model costs
time, never the verdict.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.aig.literals import lit
from repro.aig.miter import build_miter, miter_is_trivially_unsat
from repro.aig.network import Aig
from repro.aig.transform import cleanup
from repro.cache.knowledge import SweepCache
from repro.cubes.lane import CubeLane, prove_pos_with_cubes
from repro.obs import get_tracer
from repro.sched.cost import LANES, CostModel
from repro.sched.features import FeatureExtractor
from repro.sched.lanes import (
    BddLane,
    CutLane,
    RoundContext,
    RoutedPair,
    SatBatchLane,
    SimLane,
    _expired,
)
from repro.simulation.exhaustive import ExhaustiveSimulator
from repro.sweep.classes import EquivalenceClasses, SimulationState
from repro.sweep.config import EngineConfig
from repro.sweep.disproof import po_disproof
from repro.sweep.engine import CecResult, CecStatus, structural_verdict
from repro.sweep.report import EngineReport, PhaseRecord, PhaseTimer
from repro.sweep.state import SweepState


def _register_counters(metrics) -> None:
    """Pre-register the per-lane counters so a traced run exports every
    lane (and the misprediction count) even when zero.

    ``sched.dispatch.<lane>`` counts the pairs a policy routed to a
    lane; ``sched.lane.<lane>.settled`` counts the pairs a lane settled
    (routed minus unresolved, reroutes and the SAT drain included).
    """
    for lane in LANES:
        metrics.counter_add(f"sched.dispatch.{lane}", 0)
        metrics.counter_add(f"sched.lane.{lane}.settled", 0)
    metrics.counter_add("sched.mispredict", 0)


class _Round:
    """One check → refine → reduce cycle over the live sweep state.

    Collects what the knowledge cache and the lanes settle, then
    :meth:`close` refines the classes with the counter-examples and
    merges the proved pairs.
    """

    def __init__(
        self,
        state: SweepState,
        cache: Optional[SweepCache],
        simulator: ExhaustiveSimulator,
        classes: EquivalenceClasses,
        cap: int,
        deadline: Optional[float] = None,
    ) -> None:
        self.state = state
        self.classes = classes
        self.extractor = FeatureExtractor(state, cap=cap)
        self.class_sizes = self.extractor.class_sizes(classes)
        self.bound = state.bound_cache(cache)
        self.ctx = RoundContext(
            state=state,
            miter=state.network(),
            simulator=simulator,
            bound=self.bound,
            deadline=deadline,
        )
        self.merges: Dict[int, Tuple[int, int]] = {}
        self.cex_patterns: List[List[int]] = []

    @classmethod
    def open(
        cls,
        state: SweepState,
        cache: Optional[SweepCache],
        simulator: ExhaustiveSimulator,
        cap: int,
        deadline: Optional[float] = None,
    ) -> Union[CecResult, "_Round", None]:
        """The next round: a pool disproof of the miter ends the check,
        ``None`` means no candidate pair is left."""
        tables = state.tables()
        disproof = po_disproof(state.network(), state, tables)
        if disproof is not None:
            return disproof
        classes = state.classes(tables=tables)
        if not classes:
            return None
        return cls(state, cache, simulator, classes, cap, deadline)

    def pair(self, repr_node: int, node: int, phase: int) -> RoutedPair:
        """A candidate pair with its dispatch features."""
        features = self.extractor.pair(
            repr_node, node, self.class_sizes.get(node, 2)
        )
        return RoutedPair(repr_node, node, phase, features)

    def cached(self, repr_node: int, node: int, phase: int) -> bool:
        """Settle a pair from a cached verdict; True when it did.

        A cached verdict is the cheapest lane of all, so it
        short-circuits before any pair is scored or routed.
        """
        if self.bound is None:
            return False
        known = self.bound.lookup_pair(lit(repr_node), lit(node, phase))
        if known is None:
            return False
        if known.is_equivalent:
            self.merges[node] = (repr_node, phase)
        else:  # inconclusive records are not looked up
            self.cex_patterns.append(known.cex)
        return True

    def run_lane(
        self,
        lane,
        pairs: List[RoutedPair],
        model: CostModel,
        ctx: Optional[RoundContext] = None,
        span: Optional[str] = None,
    ) -> List[RoutedPair]:
        """Run one lane over ``pairs``; returns the unresolved ones."""
        if not pairs:
            return []
        tracer = get_tracer()
        with tracer.span(
            span or f"sched.lane.{lane.name}",
            category="sched",
            pairs=len(pairs),
        ):
            outcome = lane.run(ctx or self.ctx, pairs, model)
        tracer.metrics.counter_add(
            f"sched.lane.{lane.name}.settled",
            len(pairs) - len(outcome.unresolved),
        )
        self.merges.update(outcome.merges)
        self.cex_patterns.extend(outcome.cex_patterns)
        return outcome.unresolved

    def close(self, record: PhaseRecord, distance1: bool) -> bool:
        """Account, refine and reduce; True when the round changed
        anything."""
        record.proved += len(self.merges)
        record.cex += len(self.cex_patterns)
        if self.cex_patterns:
            self.state.add_cex_patterns(
                self.cex_patterns, distance1=distance1
            )
        if self.merges:
            self.state.apply_merges(self.merges)
        return bool(self.merges or self.cex_patterns)


class AdaptiveSweeper:
    """Cost-model-dispatched sweeping over a (residual) miter.

    Drop-in peer of :class:`~repro.sat.sweeping.SatSweepChecker`: same
    ``check_miter(miter, state)`` contract, same state-adoption rules,
    same UNDECIDED hand-back shape — but each candidate pair goes to
    whichever engine the cost model predicts is cheapest for it.

    Parameters
    ----------
    config:
        Engine knobs reused by the lanes (``k_g`` caps the sim windows,
        ``k_l``/``C`` drive the cut lane, the memory budget bounds the
        simulator).
    conflict_limit:
        Full SAT budget for the final PO proof; the per-pair batched
        budgets are derived from it (an order of magnitude smaller).
    cost_model:
        Optional externally-owned model; the serve pool passes one per
        tenant so calibration survives across jobs.  A fresh model is
        seeded deterministically otherwise.
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        conflict_limit: int = 100_000,
        time_limit: Optional[float] = None,
        max_rounds: int = 16,
        cache: Optional[SweepCache] = None,
        cost_model: Optional[CostModel] = None,
        bdd_node_limit: int = 50_000,
        chunk_size: int = 64,
        sat_round_seconds: float = 1.0,
    ) -> None:
        self.config = config if config is not None else EngineConfig()
        self.conflict_limit = conflict_limit
        self.time_limit = time_limit
        self.max_rounds = max_rounds
        self.cache = cache
        self.model = (
            cost_model
            if cost_model is not None
            else CostModel(seed=self.config.seed, sim_cap=self.config.k_g)
        )
        self.simulator = ExhaustiveSimulator(
            memory_budget_words=self.config.memory_budget_words
        )
        self.lanes = {
            "sim": SimLane(self.config),
            "cut": CutLane(self.config),
            "bdd": BddLane(node_limit=bdd_node_limit),
            "cube": CubeLane(
                self.config,
                conflict_budget=max(200, conflict_limit // 100),
            ),
            "sat": SatBatchLane(
                conflict_budget=max(200, conflict_limit // 100)
            ),
        }
        self.chunk_size = max(1, chunk_size)
        #: Wall-clock slice the in-round SAT batch may spend per round.
        #: Small on purpose: merges from the cheap lanes shrink supports
        #: between rounds, turning SAT-only pairs into sim/cut/BDD pairs
        #: — solving them *now* at seconds each would buy nothing.
        self.sat_round_seconds = sat_round_seconds
        #: Full-budget drain for stalled rounds (the fixed pipeline's
        #: SAT sweep, paid only when every cheaper avenue is dry).
        self._drain_lane = SatBatchLane(conflict_budget=conflict_limit)
        self.rounds = 0

    # ------------------------------------------------------------------

    def check(self, aig_a: Aig, aig_b: Aig) -> CecResult:
        """Check two networks for equivalence (builds the miter)."""
        return self.check_miter(build_miter(aig_a, aig_b))

    def check_miter(
        self,
        miter: Aig,
        state: Optional[Union[SimulationState, SweepState]] = None,
    ) -> CecResult:
        """Run the adaptive sweep on a miter.

        ``state`` follows the same EC-transfer contract as the SAT
        checker: a matching :class:`SweepState` is adopted verbatim
        (signatures, classes and cache fingerprints carried in place), a
        pattern pool is adopted into a fresh state.
        """
        start = time.perf_counter()
        report = EngineReport(initial_ands=miter.num_ands)
        record = PhaseRecord("SCHED")
        sweep = self._adopt_state(miter, state)
        cache_snapshot = (
            self.cache.snapshot() if self.cache is not None else None
        )
        tracer = get_tracer()
        metrics = tracer.metrics
        _register_counters(metrics)
        metrics.counter_add("sat.batch.pairs", 0)
        metrics.counter_add("sat.batch.solves", 0)

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
            "sched.check_miter",
            category="sched",
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
        if isinstance(state, SweepState) and state.matches(miter):
            metrics = get_tracer().metrics
            metrics.counter_add("sched.state_adopted")
            return state
        sweep = SweepState(
            cleanup(miter),
            num_random_words=self.config.num_random_words,
            seed=self.config.seed,
        )
        if state is not None and state.num_pis == sweep.num_pis:
            pool = state.pool() if isinstance(state, SweepState) else state
            sweep.adopt_pool(pool)
        return sweep

    # ------------------------------------------------------------------

    def _sweep(
        self,
        sweep: SweepState,
        record: PhaseRecord,
        deadline: Optional[float],
    ) -> CecResult:
        verdict = structural_verdict(sweep.network())
        if verdict is not None:
            return verdict
        metrics = get_tracer().metrics
        model = self.model
        distance1 = self.config.distance1_cex
        for _ in range(self.max_rounds):
            if _expired(deadline):
                return CecResult(
                    CecStatus.UNDECIDED,
                    reduced_miter=sweep.network(),
                    sim_state=sweep,
                )
            rnd = _Round.open(
                sweep, self.cache, self.simulator,
                max(self.config.k_g, model.bdd_cap), deadline,
            )
            if isinstance(rnd, CecResult):
                return rnd
            if rnd is None:
                break
            pairs = list(rnd.classes.all_pairs())
            record.candidates += len(pairs)
            # Route in chunks: lane feedback from early chunks steers
            # the routing of later ones, so a cold model recovers from a
            # bad seed *within* the first round instead of after it.
            # SAT reroutes accumulate across chunks and solve as one
            # batch on a single shared solver at the end of the round.
            sat_pending: List[RoutedPair] = []
            for chunk_start in range(0, len(pairs), self.chunk_size):
                chunk = pairs[chunk_start:chunk_start + self.chunk_size]
                routed: Dict[str, List[RoutedPair]] = {
                    lane: [] for lane in LANES
                }
                for repr_node, node, phase in chunk:
                    if rnd.cached(repr_node, node, phase):
                        continue
                    rp = rnd.pair(repr_node, node, phase)
                    lane = model.choose(rp.features)
                    metrics.counter_add(f"sched.dispatch.{lane}")
                    routed[lane].append(rp)
                for lane_name in ("sim", "cut", "bdd", "cube"):
                    # Everything a lane could not settle falls through
                    # to the batched SAT backstop of the same round.
                    sat_pending.extend(
                        rnd.run_lane(
                            self.lanes[lane_name], routed[lane_name], model
                        )
                    )
                sat_pending.extend(routed["sat"])
            sat_unresolved: List[RoutedPair] = []
            if sat_pending:
                # Shallow cones first (they UNSAT in milliseconds), and
                # only a bounded wall-clock slice: anything the slice
                # cannot settle stays in its class — the next round's
                # merges may shrink it into a cheap lane's reach.
                sat_pending.sort(key=lambda rp: rp.features.level)
                slice_deadline = time.perf_counter() + self.sat_round_seconds
                if deadline is not None:
                    slice_deadline = min(slice_deadline, deadline)
                sat_unresolved = rnd.run_lane(
                    self.lanes["sat"], sat_pending, model,
                    ctx=replace(rnd.ctx, deadline=slice_deadline),
                )
            self.rounds += 1
            if not rnd.merges and not rnd.cex_patterns and sat_unresolved:
                # Stalled: the cheap lanes are dry and the SAT slice
                # settled nothing.  Pay the fixed pipeline's price once
                # — a full-budget batched sweep over the survivors —
                # under the overall deadline only.
                rnd.run_lane(
                    self._drain_lane, sat_unresolved, model,
                    span="sched.lane.sat_drain",
                )
            progressed = rnd.close(record, distance1)
            if miter_is_trivially_unsat(sweep.network()):
                return CecResult(CecStatus.EQUIVALENT)
            if _expired(deadline):
                return CecResult(
                    CecStatus.UNDECIDED,
                    reduced_miter=sweep.network(),
                    sim_state=sweep,
                )
            if not progressed:
                break

        # Final PO proof.  With the cube knob on, predicted-hard POs are
        # raced as distributed cofactor fan-outs first (the fifth lane's
        # out-of-process half); the batched backstop always concludes.
        return prove_pos_with_cubes(
            sweep, self.cache, self.conflict_limit, deadline, record
        )


def sweep_paper_order(
    state: SweepState,
    config: EngineConfig,
    simulator: ExhaustiveSimulator,
    cache: Optional[SweepCache],
    run_phase: Callable[..., Union[CecResult, bool]],
    stop_after: Optional[str] = None,
) -> CecResult:
    """The paper's G → L tail (Fig. 5) as a fixed-order lane policy.

    Continues a flow whose P phase has already run on ``state``:

    - **G** — at most ``max_global_iterations`` rounds; every pair whose
      union support is within ``k_g`` goes to the sim lane, the others
      are skipped.  ``stop_after="PG"`` ends the flow here (Fig. 7).
    - **L** — at most ``max_local_phases`` rounds; each runs one cut
      lane per Table I pass of ``config.passes`` over the AND pairs,
      later passes seeing only what earlier ones left unproved, and
      merges once at its end so the next round sees new cuts.

    No BDD, SAT or cube lane runs: whatever survives is returned as the
    UNDECIDED residue, with its state, for the caller's SAT back end.
    ``run_phase(kind, body, **span_args)`` is the engine's phase runner: it
    hands ``body`` a fresh ``"G"``/``"L"``
    :class:`~repro.sweep.report.PhaseRecord` under the ``phase.<kind>``
    span and reports the finished record.
    """
    tracer = get_tracer()
    metrics = tracer.metrics
    _register_counters(metrics)
    # The lanes report latencies to a cost model; this policy never
    # consults it.
    model = CostModel(seed=config.seed, sim_cap=config.k_g)
    distance1 = config.distance1_cex
    sim_lane = SimLane(config)
    cut_lanes = {p: CutLane(config, pass_id=p) for p in config.passes}
    disabled_passes = set()

    def global_round(record: PhaseRecord, span) -> Union[CecResult, bool]:
        rnd = _Round.open(state, cache, simulator, config.k_g)
        if not isinstance(rnd, _Round):
            return rnd or False  # a disproof, or no class left
        span.set("classes", len(rnd.classes))
        routed: List[RoutedPair] = []
        for repr_node, node, phase in rnd.classes.all_pairs():
            if rnd.cached(repr_node, node, phase):
                # Cached knowledge is not bounded by k_g: a pair a cold
                # run proved later (or by SAT) resolves here warm.
                record.candidates += 1
                continue
            rp = rnd.pair(repr_node, node, phase)
            if 0 <= rp.features.union_size <= config.k_g:
                record.candidates += 1
                routed.append(rp)
        if not routed and not rnd.merges and not rnd.cex_patterns:
            return False
        metrics.counter_add("sched.dispatch.sim", len(routed))
        rnd.run_lane(sim_lane, routed, model)
        span.set("proved", len(rnd.merges))
        span.set("cex", len(rnd.cex_patterns))
        progressed = rnd.close(record, distance1)
        return progressed and not miter_is_trivially_unsat(state.network())

    def global_phase(record: PhaseRecord) -> Union[CecResult, bool]:
        for iteration in range(config.max_global_iterations):
            with tracer.span(
                "phase.G.round", category="phase", round=iteration
            ) as span:
                outcome = global_round(record, span)
            if isinstance(outcome, CecResult):
                return outcome
            if not outcome:
                break
        return True

    def local_phase(record: PhaseRecord) -> Union[CecResult, bool]:
        rnd = _Round.open(state, cache, simulator, config.k_g)
        if not isinstance(rnd, _Round):
            return rnd or False  # a disproof, or no class left
        miter = state.network()
        pending: List[RoutedPair] = []
        for repr_node, node, phase in rnd.classes.all_pairs():
            if not miter.is_and(node):
                continue
            record.candidates += 1
            if not rnd.cached(repr_node, node, phase):
                pending.append(rnd.pair(repr_node, node, phase))
        for pass_id, lane in cut_lanes.items():
            if pass_id in disabled_passes:
                continue
            metrics.counter_add("sched.dispatch.cut", len(pending))
            unresolved = rnd.run_lane(lane, pending, model)
            if config.adaptive_passes and len(unresolved) == len(pending):
                disabled_passes.add(pass_id)
            pending = unresolved
        rnd.close(record, distance1)
        return bool(rnd.merges)

    outcome = run_phase("G", global_phase)
    if isinstance(outcome, CecResult):
        return outcome
    if miter_is_trivially_unsat(state.network()):
        return CecResult(CecStatus.EQUIVALENT)
    if stop_after == "PG":
        return CecResult(
            CecStatus.UNDECIDED,
            reduced_miter=state.network(),
            sim_state=state,
        )
    for phase_index in range(config.max_local_phases):
        outcome = run_phase("L", local_phase, round=phase_index)
        if isinstance(outcome, CecResult):
            return outcome
        if miter_is_trivially_unsat(state.network()):
            return CecResult(CecStatus.EQUIVALENT)
        if not outcome:
            break
        if config.interleave_rewriting:
            # §V extension: restructure the reduced miter so the next
            # local phase enumerates genuinely new cuts.
            from repro.synth.rewrite import cut_rewrite

            state.replace_network(cut_rewrite(state.network(), k=4))
    return CecResult(
        CecStatus.UNDECIDED,
        reduced_miter=state.network(),
        sim_state=state,
    )
