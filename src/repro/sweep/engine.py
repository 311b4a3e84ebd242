"""The simulation-based CEC engine (Fig. 5 flow).

The engine proves miters in three kinds of phases:

- **P** (PO checking): exhaustively simulate simulatable miter POs against
  constant zero, bounded by ``k_P``/``k_p``;
- **G** (global function checking): initialise equivalence classes by
  random partial simulation, then exhaustively check candidate pairs
  whose support union is at most ``k_g``, collecting counter-examples to
  refine classes and merging proved pairs;
- **L** (local function checking, repeated): three passes of cut
  generation with the Table I criteria; pairs are checked over common
  cuts of size ≤ ``k_l`` — identical local functions prove equivalence,
  mismatches are inconclusive (SDCs).  Each phase reduces the miter once,
  so later phases see new structure and new cuts.

P runs here.  G and L run as the paper-order policy of the scheduler's
dispatcher (:func:`repro.sched.dispatcher.sweep_paper_order`): G rounds
over the sim lane, L rounds over one cut lane per Table I pass — the
same lanes and round code the adaptive scheduler routes pairs through.

If the flow ends with a non-empty miter the result is UNDECIDED and the
reduced miter is returned for an external checker (the paper hands it to
ABC ``&cec``; this package hands it to
:class:`repro.sat.sweeping.SatSweepChecker` via
:class:`repro.portfolio.checker.CombinedChecker`).
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.aig.literals import CONST0
from repro.aig.miter import build_miter, miter_is_trivially_unsat
from repro.aig.network import Aig
from repro.aig.transform import cleanup
from repro.aig.traversal import supports_capped
from repro.cache.knowledge import SweepCache
from repro.obs import get_tracer
from repro.simulation.exhaustive import (
    ExhaustiveSimulator,
    PairStatus,
)
from repro.simulation.merging import merge_windows
from repro.simulation.window import Pair, Window, build_window
from repro.sweep.classes import SharedPool, SimulationState
from repro.sweep.config import EngineConfig
from repro.sweep.state import SweepState
from repro.sweep.report import (
    EngineReport,
    PhaseRecord,
    PhaseTimer,
    PortfolioReport,
)


class CecStatus(enum.Enum):
    """Verdict of an equivalence check."""

    EQUIVALENT = "equivalent"
    NONEQUIVALENT = "nonequivalent"
    UNDECIDED = "undecided"


@dataclass
class CecResult:
    """Outcome of a CEC engine run.

    ``cex`` is a full PI assignment witnessing nonequivalence (only for
    NONEQUIVALENT).  ``reduced_miter`` carries the residual miter for
    UNDECIDED results so another engine can continue.  ``report`` is an
    :class:`~repro.sweep.report.EngineReport` for single-engine runs and
    a :class:`~repro.sweep.report.PortfolioReport` for portfolio runs.
    """

    status: CecStatus
    cex: Optional[List[int]] = None
    reduced_miter: Optional[Aig] = None
    report: Union[EngineReport, PortfolioReport] = field(
        default_factory=EngineReport
    )
    #: Sweep state of the run (pattern pool, carried signatures and
    #: classes).  Carried so a downstream checker can reuse the refined
    #: equivalence classes — the EC-transfer extension of §V.  A
    #: :class:`~repro.sweep.state.SweepState` for the simulation engine;
    #: plain :class:`SimulationState` producers remain compatible.
    sim_state: Optional[Union["SweepState", "SimulationState"]] = None

    @property
    def is_equivalent(self) -> bool:
        """True when the check proved equivalence."""
        return self.status is CecStatus.EQUIVALENT


def structural_verdict(miter: Aig) -> Optional[CecResult]:
    """Verdicts available before any simulation."""
    if miter_is_trivially_unsat(miter):
        return CecResult(CecStatus.EQUIVALENT)
    if any(po == 1 for po in miter.pos):
        # A constant-true PO is satisfied by every pattern.
        return CecResult(CecStatus.NONEQUIVALENT, cex=[0] * miter.num_pis)
    return None


class SimSweepEngine:
    """Simulation-based parallel sweeping engine.

    Example
    -------
    >>> from repro.aig import AigBuilder
    >>> b = AigBuilder(); x, y = b.add_pis(2)
    >>> _ = b.add_po(b.add_and(x, y))
    >>> b2 = AigBuilder(); x2, y2 = b2.add_pis(2)
    >>> _ = b2.add_po(b2.lit_not(b2.add_or(b2.lit_not(x2), b2.lit_not(y2))))
    >>> SimSweepEngine().check(b.build(), b2.build()).status.value
    'equivalent'
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        on_phase=None,
        cache: Optional[SweepCache] = None,
        initial_pool: Optional["SharedPool"] = None,
    ) -> None:
        """``on_phase`` is an optional callback invoked with each
        completed :class:`~repro.sweep.report.PhaseRecord` — progress
        reporting for long runs (the CLI's ``--verbose``).  ``cache``
        injects an existing :class:`~repro.cache.SweepCache` (so several
        checkers can share one store); by default the engine builds its
        own from ``config.cache``.  ``initial_pool`` injects a
        pre-generated :class:`~repro.sweep.classes.SharedPool` (typically
        mapped out of a shared-memory segment) so the engine skips
        regenerating the random pattern words — adopted only when
        :meth:`SharedPool.compatible` says the parameters match."""
        self.config = config or EngineConfig()
        self.config.validate()
        self.on_phase = on_phase
        self.cache = (
            cache if cache is not None
            else SweepCache.from_config(self.config.cache)
        )
        self.initial_pool = initial_pool

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def check(self, aig_a: Aig, aig_b: Aig) -> CecResult:
        """Check two networks for equivalence (builds the miter)."""
        return self.check_miter(build_miter(aig_a, aig_b))

    def check_miter(
        self, miter: Aig, stop_after: Optional[str] = None
    ) -> CecResult:
        """Run the Fig. 5 flow on a miter.

        ``stop_after`` truncates the flow for the Fig. 7 experiment:
        ``"P"`` stops after PO checking, ``"PG"`` after the global phase;
        ``None`` (and ``"PGL"``) run the full flow.
        """
        if stop_after not in (None, "P", "PG", "PGL"):
            raise ValueError(f"unknown stop point {stop_after!r}")
        tracer = get_tracer()
        with tracer.span(
            "sim.check_miter", category="engine", initial_ands=miter.num_ands
        ):
            return self._run_flow(miter, stop_after, tracer)

    def _run_flow(
        self, miter: Aig, stop_after: Optional[str], tracer
    ) -> CecResult:
        start = time.perf_counter()
        report = EngineReport(initial_ands=miter.num_ands)
        state = SweepState(
            cleanup(miter),
            num_random_words=self.config.num_random_words,
            seed=self.config.seed,
            strategy=self.config.pattern_strategy,
        )
        pool = self.initial_pool
        if pool is not None and pool.compatible(self.config, state.num_pis):
            # Adopt the pre-generated (possibly shm-mapped) pattern pool
            # instead of regenerating identical random words.
            state.adopt_pool(pool.simulation_state())
            tracer.metrics.counter_add("state.pool_adopted")
        simulator = ExhaustiveSimulator(self.config.memory_budget_words)
        cache_snapshot = (
            self.cache.snapshot() if self.cache is not None else None
        )

        def phase(kind: str, body, **span_args):
            """Run ``body(record)`` as one reported flow phase.

            ``body`` fills a fresh :class:`PhaseRecord` under the
            ``phase.<kind>`` span; a :class:`CecResult` it returns is a
            verdict, anything else leaves the reduced miter in ``state``.
            """
            record = PhaseRecord(kind)
            with tracer.span(
                f"phase.{kind}", category="phase", **span_args
            ) as span, PhaseTimer(record):
                outcome = body(record)
                span.set("candidates", record.candidates)
                span.set("proved", record.proved)
            if not isinstance(outcome, CecResult):
                record.miter_ands_after = state.network().num_ands
            report.phases.append(record)
            metrics = tracer.metrics
            metrics.counter_add(f"engine.{kind}.candidates", record.candidates)
            metrics.counter_add(f"engine.{kind}.proved", record.proved)
            metrics.counter_add(f"engine.{kind}.cex", record.cex)
            if self.on_phase is not None:
                self.on_phase(record)
            return outcome

        def finish(result: CecResult) -> CecResult:
            current = state.network()
            # ``final_ands`` is the miter size at verdict time: the
            # residue for UNDECIDED, zero for a full proof, and the
            # still-unproved miter for a disproof (a counter-example is
            # not a reduction, so it must not read as 100 %).
            if result.reduced_miter is not None:
                report.final_ands = result.reduced_miter.num_ands
            elif result.status is CecStatus.EQUIVALENT:
                report.final_ands = 0
            else:
                report.final_ands = current.num_ands
            report.total_seconds = time.perf_counter() - start
            report.exhaustive_pairs = simulator.stats.pairs
            if self.cache is not None:
                self.cache.flush()
                report.cache = self.cache.counters.diff(cache_snapshot)
            if tracer.enabled:
                report.metrics = tracer.metrics.as_dict()
            result.report = report
            return result

        verdict = structural_verdict(state.network())
        if verdict is not None:
            return finish(verdict)

        outcome = phase(
            "P", lambda record: self._po_phase(state, simulator, record)
        )
        if isinstance(outcome, CecResult):
            return finish(outcome)
        if miter_is_trivially_unsat(state.network()):
            return finish(CecResult(CecStatus.EQUIVALENT))
        if stop_after == "P":
            # Carry the state: the adaptive scheduler (and the Fig. 7
            # experiment's downstream engines) resume from the P-phase
            # pool and classes instead of re-simulating.
            return finish(
                CecResult(
                    CecStatus.UNDECIDED,
                    reduced_miter=state.network(),
                    sim_state=state,
                )
            )

        # G and L: the paper's order over the scheduler's lanes.
        from repro.sched.dispatcher import sweep_paper_order

        return finish(
            sweep_paper_order(
                state, self.config, simulator, self.cache, phase, stop_after
            )
        )

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------

    def _po_phase(
        self,
        state: SweepState,
        simulator: ExhaustiveSimulator,
        record: PhaseRecord,
    ) -> Union[CecResult, Aig]:
        cfg = self.config
        miter = state.network()
        bound = state.bound_cache(self.cache)
        support_sets = supports_capped(miter, cfg.k_P)
        nontrivial = [(i, p) for i, p in enumerate(miter.pos) if p != CONST0]
        po_supports = {
            i: support_sets[p >> 1] for i, p in nontrivial
        }
        one_shot = all(s is not None for s in po_supports.values())
        threshold = cfg.k_P if one_shot else cfg.k_p
        new_pos = list(miter.pos)
        windows: List[Window] = []
        for i, p in nontrivial:
            supp = po_supports[i]
            if supp is None or len(supp) > threshold:
                continue
            record.candidates += 1
            if bound is not None:
                known = bound.lookup_pair(p, CONST0)
                if known is not None:
                    if known.is_equivalent:
                        record.proved += 1
                        new_pos[i] = CONST0
                        continue
                    if known.is_nonequivalent:
                        record.cex += 1
                        return CecResult(
                            CecStatus.NONEQUIVALENT, cex=known.cex
                        )
            windows.append(
                build_window(
                    miter,
                    sorted(supp),
                    roots=[p >> 1] if (p >> 1) not in supp else [],
                    pairs=[Pair(p, CONST0, tag=i)],
                )
            )
        if windows:
            if cfg.window_merging:
                windows = merge_windows(
                    miter, windows, cfg.k_s_for(threshold)
                )
            outcomes = simulator.run(
                miter, windows, collect_cex=True, skip_oversized=True
            )
            for outcome in outcomes:
                if outcome.status is PairStatus.MISMATCH:
                    record.cex += 1
                    cex = outcome.cex.to_pi_pattern(miter.num_pis)
                    if bound is not None:
                        bound.record_nonequivalent(
                            outcome.pair.lit_a, CONST0, cex, context="P"
                        )
                    return CecResult(CecStatus.NONEQUIVALENT, cex=cex)
                record.proved += 1
                if bound is not None:
                    bound.record_equivalent(
                        outcome.pair.lit_a, CONST0, context="P"
                    )
                new_pos[outcome.pair.tag] = CONST0
        return state.set_pos(new_pos)
