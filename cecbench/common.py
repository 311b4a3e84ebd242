"""Helpers shared by the sweep and serve workloads."""

from __future__ import annotations

import ctypes
import gc
import os
import sys
from typing import Dict, List, Optional

import oracle


class Tally:
    """Attempted checks and failures; every failure is kept with a reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def fail(self, reason: str) -> None:
        self.failures.append(reason)

    def verdict(
        self,
        name: str,
        expect: str,
        status: str,
        cex: Optional[List[int]],
        left: oracle.Circuit,
        right: oracle.Circuit,
    ) -> None:
        """Count one check: wrong verdicts and rejected CEXs fail it."""
        self.attempted += 1
        if status != expect:
            self.fail(f"{name}: expected {expect}, got {status}")
        elif status == "nonequivalent" and (
            cex is None or not oracle.is_counterexample(left, right, cex)
        ):
            self.fail(f"{name}: counter-example rejected by the oracle")


def to_aig(circuit: oracle.Circuit):
    """The program's AIG for an oracle circuit (same literals, same order)."""
    from repro.aig import Aig

    return Aig(
        circuit.num_pis,
        [a for a, _ in circuit.ands],
        [b for _, b in circuit.ands],
        circuit.pos,
    )


def child_env(root: str, tmpdir: Optional[str] = None) -> Dict[str, str]:
    """Environment for the program's processes.

    Bytecode caching is switched on whatever the caller's environment
    says, so set-up is timed as an installed package imports: from the
    ``__pycache__`` the first (discarded) launch writes into the checkout.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if tmpdir is not None:
        env["TMPDIR"] = tmpdir
    return env


def hwm_mb(pid: str = "self") -> float:
    """Peak resident set (VmHWM) of a process in MiB; 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def reset_hwm() -> None:
    """Restart this process's VmHWM from its current RSS, where Linux allows."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def clean_heap() -> None:
    """Collect garbage and hand free heap pages back to the OS (glibc only).

    Without this, RSS only ever grows to a plateau whose height depends
    on the order earlier checks fragmented the heap in.
    """
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
