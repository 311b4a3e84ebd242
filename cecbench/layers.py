"""Per-layer instrumentation of the in-process checking path.

The benchmark records spans around the program's public entry points by
swapping them for timed wrappers during traced passes only; nothing in
the program changes.  The module name is the layer:

==========================  ============================================
span                        entry point
==========================  ============================================
``simulation.exhaustive``   ``ExhaustiveSimulator.run`` outside the lanes
``simulation.partial``      ``simulate_words`` outside the lanes
``sweep.engine``            ``SimSweepEngine.check_miter``
``aig.rebuild``             ``repro.aig.rebuild.rebuild_network``
``sched.residue``           ``AdaptiveSweeper.check_miter``
``sched.lane.<L>``          ``SimLane``/``CutLane``/``BddLane``/``SatBatchLane.run``
``cuts.enumerate``          each resume of ``CutEnumerator.run``
``sat.solve``               ``SatSolver.solve``
==========================  ============================================

The scheduler's sim and cut lanes simulate too.  That time belongs to
the lane's span, so the simulation spans and counters leave out calls
made inside a ``sched.lane.*`` span: ``simulation.*`` is the P phase and
the other simulation outside the lanes, and no second is counted twice.
"""

from __future__ import annotations

from typing import Dict

from spans import Patches, Spans

LANES = ("sim", "cut", "bdd", "sat")
SPANS = (
    "simulation.exhaustive", "simulation.partial", "sweep.engine",
    "aig.rebuild", "sched.residue", "cuts.enumerate", "sat.solve",
) + tuple(f"sched.lane.{lane}" for lane in LANES)


class Layers:
    """Spans and counters of one traced pass; install/uninstall around it."""

    def __init__(self) -> None:
        self.spans = Spans()
        self.counts: Dict[str, float] = {}
        self._patches = Patches()

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def reset(self) -> None:
        self.spans.clear()
        self.counts = {}

    def install(self) -> None:
        from repro.aig import rebuild
        from repro.cuts.enumeration import CutEnumerator
        from repro.sat.solver import SatSolver, SolveStatus
        from repro.sched.cost import CostModel
        from repro.sched.dispatcher import AdaptiveSweeper
        from repro.sched.lanes import BddLane, CutLane, SatBatchLane, SimLane
        from repro.simulation import partial
        from repro.simulation.exhaustive import ExhaustiveSimulator
        from repro.sweep.engine import SimSweepEngine

        spans, patch = self.spans, self._patches

        def outside_lanes(name, run):
            def wrapper(*args, **kwargs):
                if spans.within("sched.lane."):
                    return run(*args, **kwargs)
                with spans.span(name):
                    return run(*args, **kwargs)
            return wrapper

        def exhaustive(run):
            def wrapper(simulator, *args, **kwargs):
                if spans.within("sched.lane."):
                    return run(simulator, *args, **kwargs)
                before = simulator.stats.words_simulated
                try:
                    with spans.span("simulation.exhaustive"):
                        return run(simulator, *args, **kwargs)
                finally:
                    self.add("simulation.exhaustive_calls")
                    self.add(
                        "simulation.words",
                        simulator.stats.words_simulated - before,
                    )
            return wrapper

        def lane(name):
            def wrap(run):
                def wrapper(lane_obj, ctx, pairs, model):
                    with spans.span(f"sched.lane.{name}"):
                        outcome = run(lane_obj, ctx, pairs, model)
                    self.add(f"sched.lane.{name}_routed", len(pairs))
                    self.add(
                        f"sched.lane.{name}_settled",
                        len(pairs) - len(outcome.unresolved),
                    )
                    return outcome
                return wrapper
            return wrap

        def solve(run):
            def wrapper(*args, **kwargs):
                with spans.span("sat.solve"):
                    status = run(*args, **kwargs)
                self.add("sat.solve_calls")
                if status is SolveStatus.UNKNOWN:
                    self.add("sat.unknown")
                return status
            return wrapper

        def mispredict(run):
            def wrapper(*args, **kwargs):
                self.add("sched.mispredicts")
                return run(*args, **kwargs)
            return wrapper

        patch.method(ExhaustiveSimulator, "run", exhaustive)
        patch.function(
            partial, "simulate_words",
            lambda f: outside_lanes("simulation.partial", f),
        )
        patch.method(
            SimSweepEngine, "check_miter",
            lambda f: spans.timed("sweep.engine", f),
        )
        patch.function(
            rebuild, "rebuild_network", lambda f: spans.timed("aig.rebuild", f)
        )
        patch.method(
            AdaptiveSweeper, "check_miter",
            lambda f: spans.timed("sched.residue", f),
        )
        for name, cls in (("sim", SimLane), ("cut", CutLane),
                          ("bdd", BddLane), ("sat", SatBatchLane)):
            patch.method(cls, "run", lane(name))
        patch.method(
            CutEnumerator, "run",
            lambda f: spans.timed_generator("cuts.enumerate", f),
        )
        patch.method(SatSolver, "solve", solve)
        patch.method(CostModel, "mispredict", mispredict)

    def uninstall(self) -> None:
        self._patches.undo()

    def pass_metrics(self) -> Dict[str, float]:
        """Seconds per span, counts, and the scheduler's self time."""
        out = {f"{name}_s": self.spans.total(name) for name in SPANS}
        out["sched.residue_self_s"] = self.spans.self_time("sched.residue")
        out.update(self.counts)
        return out
