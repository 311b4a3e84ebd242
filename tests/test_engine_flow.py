"""Tests for the simulation-based sweeping engine (Fig. 5 flow)."""

import pytest

from repro.aig.builder import AigBuilder
from repro.aig.miter import build_miter
from repro.aig.network import negate_outputs
from repro.bench import generators as gen
from repro.obs import Tracer, use_tracer
from repro.sat.solver import SatSolver
from repro.sweep.config import EngineConfig
from repro.sweep.engine import CecStatus, SimSweepEngine
from repro.synth.resyn import compress2

from conftest import random_aig, sampled_equivalent


FAST = EngineConfig.fast()


def test_equivalent_restructured_pair(xor_pair):
    result = SimSweepEngine(FAST).check(*xor_pair)
    assert result.status is CecStatus.EQUIVALENT


def test_nonequivalent_with_valid_cex(xor_pair):
    a, b = xor_pair
    b_bad = negate_outputs(b, [0])
    result = SimSweepEngine(FAST).check(a, b_bad)
    assert result.status is CecStatus.NONEQUIVALENT
    assert a.evaluate(result.cex) != b_bad.evaluate(result.cex)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: gen.multiplier(4),
        lambda: gen.sqrt(8),
        lambda: gen.log2(6),
        lambda: gen.voter(15),
        lambda: gen.sin_cordic(6, 4),
        lambda: gen.control_circuit(12, 8, seed=5),
    ],
    ids=["multiplier", "sqrt", "log2", "voter", "sin", "control"],
)
def test_engine_proves_resynthesised_benchmarks(factory):
    original = factory()
    optimized = compress2(original)
    assert sampled_equivalent(original, optimized)[0]
    result = SimSweepEngine(FAST).check(original, optimized)
    assert result.status in (CecStatus.EQUIVALENT, CecStatus.UNDECIDED)
    if result.status is CecStatus.UNDECIDED:
        # The engine must at least have reduced the miter.
        assert result.report.reduction_percent > 0


def test_engine_detects_subtle_bug():
    """A single-minterm corruption must be caught, not merged away."""
    original = gen.multiplier(4)
    b = AigBuilder(8)
    mapping = b.import_cone(original, {pi: 2 * pi for pi in original.pis()})
    outs = [mapping[p >> 1] ^ (p & 1) for p in original.pos]
    # Corrupt output 3 on exactly the pattern x=13, y=11.
    from repro.bench.wordlib import equals_const

    trigger = b.add_and(
        equals_const(b, [2 * i for i in range(1, 5)], 13),
        equals_const(b, [2 * i for i in range(5, 9)], 11),
    )
    outs[3] = b.add_xor(outs[3], trigger)
    b.add_pos(outs)
    buggy = b.build()
    result = SimSweepEngine(FAST).check(original, buggy)
    assert result.status is CecStatus.NONEQUIVALENT
    assert original.evaluate(result.cex) != buggy.evaluate(result.cex)


def test_po_phase_proves_small_supports():
    """With k_P large enough the P phase alone proves the miter."""
    original = gen.log2(6)
    optimized = compress2(original)
    config = EngineConfig.fast()
    result = SimSweepEngine(config).check(original, optimized)
    assert result.status is CecStatus.EQUIVALENT
    kinds = [p.kind for p in result.report.phases]
    assert kinds[0] == "P"
    assert result.report.phases[0].proved > 0


def test_stop_after_p_and_pg():
    original = gen.voter(15)
    optimized = compress2(original)
    miter = build_miter(original, optimized)
    # voter PO support (15) exceeds the fast profile's k_P (12): P can't
    # prove it, so intermediate stops yield UNDECIDED residues.
    engine = SimSweepEngine(FAST)
    after_p = engine.check_miter(miter, stop_after="P")
    after_pg = engine.check_miter(miter, stop_after="PG")
    full = engine.check_miter(miter)
    assert after_p.status is CecStatus.UNDECIDED
    assert after_pg.status is CecStatus.UNDECIDED
    assert after_p.reduced_miter.num_ands >= after_pg.reduced_miter.num_ands
    if full.status is CecStatus.UNDECIDED:
        assert full.reduced_miter.num_ands <= after_pg.reduced_miter.num_ands
    assert [p.kind for p in after_p.report.phases] == ["P"]
    assert [p.kind for p in after_pg.report.phases] == ["P", "G"]


def test_full_flow_runs_the_paper_order_on_sim_and_cut_lanes(monkeypatch):
    """P, then G rounds on the sim lane and L rounds on the cut lanes —
    the paper order never reaches the BDD, SAT or cube lanes."""
    solves = []
    solve = SatSolver.solve

    def counting_solve(self, *args, **kwargs):
        solves.append(1)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(SatSolver, "solve", counting_solve)
    original = gen.voter(15)
    optimized = compress2(original)
    tracer = Tracer()
    with use_tracer(tracer):
        result = SimSweepEngine(FAST).check(original, optimized)
    assert result.status is CecStatus.EQUIVALENT
    phases = result.report.phases
    kinds = [p.kind for p in phases]
    assert kinds[:3] == ["P", "G", "L"]
    assert set(kinds[3:]) <= {"L"}
    counters = tracer.metrics.counters
    for lane in ("bdd", "sat", "cube"):
        assert counters[f"sched.dispatch.{lane}"] == 0
        assert counters[f"sched.lane.{lane}.settled"] == 0
    assert solves == []
    # Without a cache every G settle is the sim lane's, every L proof
    # is a cut lane's.
    assert counters["sched.lane.sim.settled"] == sum(
        p.proved + p.cex for p in phases if p.kind == "G"
    )
    assert counters["sched.lane.cut.settled"] == sum(
        p.proved for p in phases if p.kind == "L"
    )
    span_names = {span[0] for span in tracer.spans()}
    assert {"phase.P", "phase.G", "phase.G.round", "phase.L"} <= span_names


def test_stop_after_validation():
    engine = SimSweepEngine(FAST)
    miter = build_miter(*(random_aig(seed=1), random_aig(seed=1)))
    with pytest.raises(ValueError):
        engine.check_miter(miter, stop_after="X")


def test_report_accounts_phases_and_reduction():
    original = gen.multiplier(4)
    optimized = compress2(original)
    result = SimSweepEngine(FAST).check(original, optimized)
    report = result.report
    assert report.initial_ands > 0
    assert 0.0 <= report.reduction_percent <= 100.0
    assert report.total_seconds > 0
    fractions = report.phase_fractions()
    if fractions:
        assert abs(sum(fractions.values()) - 1.0) < 1e-9


def test_undecided_returns_residue_and_state():
    """A hard miter with a tiny budget yields a usable residue."""
    original = gen.voter(31)
    optimized = compress2(original)
    config = EngineConfig(
        k_P=4, k_p=4, k_g=4, k_l=4, C=2,
        num_random_words=4, max_local_phases=1,
        memory_budget_words=1 << 14,
    )
    result = SimSweepEngine(config).check(original, optimized)
    if result.status is CecStatus.UNDECIDED:
        assert result.reduced_miter is not None
        assert result.sim_state is not None
        assert sampled_equivalent(original, optimized)[0]


def test_config_validation():
    with pytest.raises(ValueError):
        SimSweepEngine(EngineConfig(k_P=4, k_p=8))
    with pytest.raises(ValueError):
        SimSweepEngine(EngineConfig(passes=()))
    with pytest.raises(ValueError):
        SimSweepEngine(EngineConfig(passes=(1, 5)))


def test_paper_config_values():
    config = EngineConfig.paper()
    assert (config.k_P, config.k_p, config.k_g) == (32, 16, 16)
    assert (config.k_l, config.C) == (8, 8)
    assert config.k_s_for(config.k_g) == 16
