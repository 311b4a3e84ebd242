"""The in-process sweep workloads: ``sweep-sim`` and ``sweep-residue``.

One pass checks every item of the seeded schedule once, each with a
fresh default ``CombinedChecker``.  Host speed drifts by tens of percent
over minutes, so no metric is a single total: every check and set-up
probe is scaled to the nominal host speed (:mod:`hostspeed`), ``pass_s``
sums each item's median scaled latency across the run's passes, and
``setup_s`` is the median of the scaled fresh-interpreter probes taken
between passes.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import Dict, List, Tuple

import inputs
from common import Tally, child_env, clean_heap, hwm_mb, log, reset_hwm, to_aig
from hostspeed import NOMINAL_S, Scaler
from layers import LANES, Layers
from spans import median, quantile

#: Imports the package and builds the default checker in a fresh
#: interpreter; the time is taken inside it, so interpreter start-up
#: (identical for every commit) stays out.  The same interpreter then
#: runs the host-speed reference twice, on the CPU the import ran on.
PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "from repro import CombinedChecker\n"
    "CombinedChecker()\n"
    "elapsed = time.perf_counter() - t\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from hostspeed import reference\n"
    "print(elapsed, reference(), reference())\n"
)
#: Traced runs need two passes each way, hence four.
MIN_PASSES = 4
#: Untraced runs take one set-up probe per this many seconds of pass
#: (at least one per pass), so short and long passes both give a run
#: ten or more probes.
PROBE_SPACING_S = 3.0


def setup_probe(root: str) -> float:
    """Scaled seconds a fresh interpreter takes to import and build."""
    done = subprocess.run(
        [sys.executable, "-c", PROBE, os.path.dirname(os.path.abspath(__file__))],
        env=child_env(root), cwd=root, capture_output=True, text=True,
        timeout=120, check=True,
    )
    elapsed, *references = map(float, done.stdout.split()[-3:])
    return elapsed * NOMINAL_S / (sum(references) / len(references))


class Item:
    def __init__(self, name, left, right, expect) -> None:
        self.name, self.left, self.right, self.expect = name, left, right, expect
        self.aigs = (to_aig(left), to_aig(right))
        self.plain: List[float] = []
        self.traced: List[float] = []
        self.reduction = 0.0


def check(item: Item, tally: Tally) -> Tuple[float, float]:
    """Check one item from a clean heap; return its latency and peak RSS."""
    from repro import CombinedChecker

    clean_heap()
    reset_hwm()
    start = time.perf_counter()
    checker = CombinedChecker()
    result = checker.check(*item.aigs)
    elapsed = time.perf_counter() - start
    peak = hwm_mb()
    tally.verdict(item.name, item.expect, result.status.value, result.cex,
                  item.left, item.right)
    item.reduction = checker.timings.reduction_percent
    return elapsed, peak


def run(root: str, workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    schedule = inputs.prepare(root, workload, seed)
    items = [Item(*spec) for spec in inputs.materialise(schedule)]
    ordered = [items[i] for i in schedule["order"]]
    tally = Tally()
    layers = Layers()
    layer_passes: List[Dict[str, float]] = []
    setup_probe(root)  # writes the bytecode caches; not counted
    scaler = Scaler()
    scaler.mark()
    probes: List[float] = []
    peaks: List[float] = []
    start = time.perf_counter()
    passes = 0
    durations: List[float] = []
    # Traced runs alternate untraced and traced passes, so both medians
    # see the same host drift and their difference is the overhead.
    # A pass starts only if a typical pass still fits in the window.
    while passes < MIN_PASSES or (
        time.perf_counter() - start + median(durations) <= seconds
    ):
        traced = trace and passes % 2 == 1
        began = time.perf_counter()
        peak = checking = 0.0
        if traced:
            layers.reset()
            layers.install()
        try:
            for item in ordered:
                elapsed, item_peak = check(item, tally)
                peak = max(peak, item_peak)
                checking += elapsed
                (item.traced if traced else item.plain).append(
                    scaler.scale(elapsed))
        finally:
            if traced:
                layers.uninstall()
        if traced:
            metrics = layers.pass_metrics()
            metrics["checking_s"] = checking
            metrics["sweep.reduction_pct"] = sum(
                i.reduction for i in items) / len(items)
            layer_passes.append(metrics)
        passes += 1
        durations.append(time.perf_counter() - began)
        peaks.append(peak)
        if not trace:
            for _ in range(max(1, round(durations[-1] / PROBE_SPACING_S))):
                probes.append(setup_probe(root))
            scaler.mark()

    log(f"{passes} passes; reference median {median(scaler.references):.4f} s")
    for item in items:
        log(f"{item.name}: " + " ".join(f"{t:.4f}" for t in item.plain))
    item_medians = [median(item.plain) for item in items]
    pass_s = sum(item_medians)
    if not trace:
        metrics = {
            "setup_s": median(probes),
            "pass_s": pass_s,
            "jobs_per_s": len(items) / pass_s,
            "latency_p50_s": median(item_medians),
            "latency_p99_s": quantile(item_medians, 0.99),
            "peak_rss_mb": median(peaks),
        }
        return {"tally": tally, "metrics": metrics, "shape": []}
    traced_pass_s = sum(median(item.traced) for item in items)
    metrics = per_layer(layer_passes)
    metrics["trace.overhead_s"] = traced_pass_s - pass_s
    metrics["host.reference_s"] = median(scaler.references)
    # Span times are raw seconds, so the shapes compare them with the
    # raw checking time of the traced passes.
    checking_s = metrics.pop("checking_s")
    return {"tally": tally, "metrics": metrics,
            "shape": shape_checks(workload, metrics, checking_s)}


def per_layer(layer_passes: List[Dict[str, float]]) -> Dict[str, float]:
    """Median over traced passes per key; ratios from summed counts."""
    keys = sorted({key for p in layer_passes for key in p})
    out = {key: median([p.get(key, 0.0) for p in layer_passes]) for key in keys}

    def ratio(num: str, den: str) -> float:
        total = sum(p.get(den, 0.0) for p in layer_passes)
        return sum(p.get(num, 0.0) for p in layer_passes) / total if total else 0.0

    for lane in LANES:
        for suffix in ("routed", "settled"):
            out.setdefault(f"sched.lane.{lane}_{suffix}", 0.0)
        out[f"sched.lane.{lane}_settled_ratio"] = ratio(
            f"sched.lane.{lane}_settled", f"sched.lane.{lane}_routed")
    out["sat.unknown_ratio"] = ratio("sat.unknown", "sat.solve_calls")
    for key in ("simulation.exhaustive_calls", "simulation.words",
                "sat.solve_calls", "sched.mispredicts"):
        out.setdefault(key, 0.0)
    out.pop("sat.unknown", None)
    return out


def shape_checks(workload: str, m: Dict[str, float], checking_s: float) -> List:
    """``(description, holds)`` pairs that pin a workload to its layer."""
    if workload == "sweep-sim":
        return [
            ("simulation.exhaustive_s >= 50% of checking time",
             m["simulation.exhaustive_s"] >= 0.5 * checking_s),
            ("sched.residue_s + sat.solve_s < 5% of checking time",
             m["sched.residue_s"] + m["sat.solve_s"] < 0.05 * checking_s),
        ]
    lanes = sum(m[f"sched.lane.{lane}_s"] for lane in LANES)
    simulation = m["simulation.exhaustive_s"] + m["simulation.partial_s"]
    return [
        ("sum of sched.lane.*_s >= 80% of checking time",
         lanes >= 0.8 * checking_s),
        ("simulation.exhaustive_s + simulation.partial_s < 10% of checking time",
         simulation < 0.1 * checking_s),
    ]
