"""Benchmark entry point.

    python3 cecbench/run.py --workload sweep-sim --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Traced runs also print one
``shape <workload>: <check>: ok|DRIFT`` line per workload shape check.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

from common import log
from inputs import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: End-to-end metrics (tracing off) and their units.
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "jobs_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p99_s": "s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics (tracing on) and their units; see README.md for the
#: end-to-end metric and workload each one should move.
PER_LAYER = {
    "simulation.exhaustive_s": "s",
    "simulation.exhaustive_calls": "count",
    "simulation.words": "count",
    "simulation.partial_s": "s",
    "sweep.engine_s": "s",
    "sweep.reduction_pct": "%",
    "aig.rebuild_s": "s",
    "sched.residue_s": "s",
    "sched.residue_self_s": "s",
    "sched.mispredicts": "count",
    **{
        f"sched.lane.{lane}{suffix}": unit
        for lane in ("sim", "cut", "bdd", "sat")
        for suffix, unit in (("_s", "s"), ("_routed", "count"),
                             ("_settled", "count"), ("_settled_ratio", "ratio"))
    },
    "cuts.enumerate_s": "s",
    "sat.solve_s": "s",
    "sat.solve_calls": "count",
    "sat.unknown_ratio": "ratio",
    "serve.wire_s_p50": "s",
    "exec.queue_s_p50": "s",
    "serve.worker_s_p50": "s",
    "cache.fresh_hit_ratio": "ratio",
    "cache.repeat_hit_ratio": "ratio",
    "serve.fresh_worker_s_p50": "s",
    "serve.repeat_worker_s_p50": "s",
    "exec.worker_skew": "ratio",
    "trace.overhead_s": "s",
    "host.reference_s": "s",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        log(f"no program sources under {ROOT}/src/repro; nothing to measure")
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # SIGTERM unwinds like Ctrl-C, so every ``finally`` that stops a
    # daemon or removes a work directory still runs.
    signal.signal(signal.SIGTERM, signal.default_int_handler)

    if args.workload == "serve-mixed":
        import serve as workload
    else:
        import sweep as workload
    outcome = workload.run(ROOT, args.workload, args.seed, args.seconds,
                           bool(args.trace))
    tally = outcome["tally"]
    for description, holds in outcome["shape"]:
        print(f"shape {args.workload}: {description}: "
              f"{'ok' if holds else 'DRIFT'}")
    for reason in tally.failures:
        log(f"FAILED {reason}")
    values = outcome["metrics"]
    if args.trace:
        # Layers a workload never reaches (serve fields on a sweep, lanes
        # on serve) read 0.
        values = {name: values.get(name, 0.0) for name in PER_LAYER}
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in units.items()
    }
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
