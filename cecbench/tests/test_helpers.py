"""Tests for the benchmark's own helpers.

    python3 -m pytest cecbench/tests -q
"""

import itertools
import os
import random

import pytest

import hostspeed
import inputs
import oracle
from spans import Patches, Spans, median, quantile


# ----------------------------------------------------------------------
# Quantiles
# ----------------------------------------------------------------------


def test_quantile_interpolates_between_order_statistics():
    assert quantile([4, 1, 3, 2], 0.5) == 2.5
    assert quantile([10, 20, 30, 40, 50], 0.99) == pytest.approx(49.6)
    assert quantile([10, 20, 30, 40, 50], 0.25) == 20
    assert quantile([7], 0.99) == 7
    assert quantile([3, 1, 2], 0.0) == 1 and quantile([3, 1, 2], 1.0) == 3
    assert median([5, 1, 9]) == 5


def test_quantile_matches_numpy_linear_method():
    np = pytest.importorskip("numpy")
    rng = random.Random(7)
    for size in (2, 3, 10, 101, 1000):
        values = [rng.expovariate(1.0) for _ in range(size)]
        for q in (0.01, 0.5, 0.9, 0.99):
            assert quantile(values, q) == pytest.approx(np.quantile(values, q))


def test_quantile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        quantile([], 0.5)
    with pytest.raises(ValueError):
        quantile([1.0], 1.5)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    spans = Spans(clock)
    with spans.span("sched.residue"):
        clock.advance(1.0)
        with spans.span("sched.lane.sat"):
            clock.advance(2.0)
            with spans.span("sat.solve"):
                clock.advance(4.0)
        clock.advance(0.5)
        with spans.span("sched.lane.bdd"):
            clock.advance(3.0)
    assert spans.total("sched.residue") == 10.5
    assert spans.self_time("sched.residue") == 1.5
    assert spans.self_time("sched.lane.sat") == 2.0
    assert spans.self_time("sat.solve") == 4.0


def test_generator_resumes_are_children_of_the_consumer():
    clock = FakeClock()
    spans = Spans(clock)

    def levels():
        for level in range(3):
            clock.advance(2.0)  # work done inside each resume
            yield level
        clock.advance(1.0)  # work after the last item, before StopIteration

    enumerate_levels = spans.timed_generator("cuts.enumerate", levels)
    with spans.span("sched.lane.cut"):
        generator = enumerate_levels()
        clock.advance(5.0)  # creating the generator runs none of its body
        for _ in generator:
            clock.advance(0.25)  # the consumer's own work per level
    assert [r[0] for r in spans.records].count("cuts.enumerate") == 4
    assert spans.total("cuts.enumerate") == 7.0
    assert spans.total("sched.lane.cut") == 12.75
    assert spans.self_time("sched.lane.cut") == 5.75


def test_nested_reentry_counts_once_in_total():
    clock = FakeClock()
    spans = Spans(clock)
    with spans.span("sat.solve"):
        clock.advance(1.0)
        with spans.span("sat.solve"):
            clock.advance(2.0)
    assert spans.total("sat.solve") == 3.0
    assert spans.self_time("sat.solve") == 3.0


def test_within_sees_only_open_spans():
    spans = Spans(FakeClock())
    assert not spans.within("sched.lane.")
    with spans.span("sched.residue"):
        assert not spans.within("sched.lane.")
        with spans.span("sched.lane.sim"):
            with spans.span("sat.solve"):
                assert spans.within("sched.lane.")
        assert not spans.within("sched.lane.")


def test_patches_swap_imported_names_and_restore_them():
    import spans as module

    original = module.median
    calls = []
    patches = Patches()
    patches.function(
        module, "median",
        lambda f: lambda values: calls.append(1) or f(values),
    )
    try:
        assert module.median([1, 2, 3]) == 2 and calls == [1]
    finally:
        patches.undo()
    assert module.median is original


# ----------------------------------------------------------------------
# Host-speed scaling
# ----------------------------------------------------------------------


def test_scaler_divides_by_the_references_around_each_step(monkeypatch):
    nominal = hostspeed.NOMINAL_S
    references = iter([nominal, 3 * nominal, 2 * nominal])
    monkeypatch.setattr(hostspeed, "reference", lambda: next(references))
    scaler = hostspeed.Scaler()
    scaler.mark()
    assert scaler.scale(4.0) == pytest.approx(2.0)  # host twice as slow
    assert scaler.scale(5.0) == pytest.approx(2.0)  # 2.5 times as slow
    assert scaler.references == [nominal, 3 * nominal, 2 * nominal]


def test_reference_kernel_runs_and_takes_time():
    assert hostspeed.reference() > 0


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------


def xor_circuit():
    """x ^ y as !(x & y) & !(!x & !y): ANDs 3, 4, 5 over PIs 1, 2."""
    return oracle.Circuit(2, ((4, 2), (5, 3), (9, 7)), (10,))


#: xor_circuit() in binary AIGER: header, output, then per AND the deltas
#: lhs - rhs0 and rhs0 - rhs1 as varints.
XOR_AIG = b"aig 5 2 0 1 3\n10\n\x02\x02\x03\x02\x01\x02"


def test_oracle_evaluates_a_known_circuit():
    circuit = oracle.parse_aiger(XOR_AIG)
    assert circuit == xor_circuit()
    # Four patterns packed bitwise: x = 0b1010, y = 0b1100.
    assert oracle.evaluate(circuit, [0b1010, 0b1100], 4) == [0b0110]


def test_oracle_reads_the_programs_aiger_and_computes_the_product():
    from repro import multiplier, write_aiger

    path = os.path.join(inputs.HERE, ".cache", "test-mult3.aig")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    write_aiger(multiplier(3), path)
    try:
        with open(path, "rb") as handle:
            circuit = oracle.parse_aiger(handle.read())
    finally:
        os.remove(path)
    for a, b in itertools.product(range(8), repeat=2):
        bits = [(a >> i) & 1 for i in range(3)] + [(b >> i) & 1 for i in range(3)]
        outputs = oracle.evaluate(circuit, bits, 1)
        assert sum(bit << i for i, bit in enumerate(outputs)) == a * b


def test_oracle_confirms_a_known_mutant_and_checks_counterexamples():
    source = xor_circuit()
    mutant = oracle.mutate(source, 2)  # (!x & !y) & !(x & y): x NOR y
    assert oracle.evaluate(mutant, [0b1010, 0b1100], 4) != [0b0110]
    witness = oracle.distinguishing_pattern(source, mutant, random.Random(1))
    assert witness is not None
    assert oracle.is_counterexample(source, mutant, witness)
    agreeing = [p for p in ([0, 0], [0, 1], [1, 0], [1, 1])
                if not oracle.is_counterexample(source, mutant, p)]
    assert agreeing, "a single-gate fault keeps some patterns equal"
    assert not oracle.is_counterexample(source, mutant, [0, 1, 1])
    assert oracle.distinguishing_pattern(source, source, random.Random(1)) is None


def test_permuted_pis_compute_the_permuted_function():
    source = oracle.Circuit(2, ((3, 4),), (6,))  # !x & y
    swapped = oracle.permute_pis(source, [1, 0])  # !y & x
    for x, y in itertools.product((0, 1), repeat=2):
        assert oracle.evaluate(swapped, [x, y], 1) == [x & (1 - y)]


def test_parse_rejects_malformed_input():
    with pytest.raises(ValueError):
        oracle.parse_aiger(b"aig 3 1 1 0 1\n")  # a latch
    with pytest.raises(ValueError):
        oracle.parse_aiger(b"not an aiger file\n")
    with pytest.raises(ValueError):
        oracle.parse_aiger(XOR_AIG[:-1])  # truncated
    with pytest.raises(ValueError):
        oracle.parse_aiger(b"aig 3 2 0 1 1\n6\n\x00\x00")  # AND 3 reads itself


# ----------------------------------------------------------------------
# Seed determinism
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["serve-mixed", "sweep-residue"])
def test_same_seed_writes_the_same_schedule(workload):
    root = os.path.dirname(inputs.HERE)
    first = inputs.write_schedule(root, workload, 11)
    with open(first, "rb") as handle:
        first_bytes = handle.read()
    second = inputs.write_schedule(root, workload, 11)
    with open(second, "rb") as handle:
        assert handle.read() == first_bytes
    other = inputs.write_schedule(root, workload, 12)
    with open(other, "rb") as handle:
        assert handle.read() != first_bytes
