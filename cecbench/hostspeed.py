"""Host-speed reference: scale measured times to a nominal host speed.

The host's speed drifts by a third within minutes, and a whole run can
fall into a slow phase, so no statistic over one run's repeats removes
it.  The benchmark therefore times a fixed reference kernel of its own
(plain Python plus NumPy bitwise operations, the program's mix; nothing
from ``repro``) next to every timed step, outside the step's timer, and
reports each step's time multiplied by ``NOMINAL_S / reference``: the
step's seconds on a host where the reference takes :data:`NOMINAL_S`.
A program change moves the step but not the reference, so it shows in
full; a host slow-down moves both and cancels.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

#: The reference kernel's median time on a 2-vCPU Intel Xeon VM, so that
#: scaled times read close to that host's raw seconds.
NOMINAL_S = 0.015

_WORDS = np.arange(1 << 14, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
_SCRATCH = np.empty_like(_WORDS)


def _interpreted() -> int:
    table = {}
    total = 0
    for i in range(80000):
        total += i * i % 7
        table[i & 255] = total
    return total + len(table)


def _vectorised() -> None:
    for _ in range(140):
        np.bitwise_and(_WORDS, _WORDS >> np.uint64(1), out=_SCRATCH)
        np.bitwise_xor(_SCRATCH, _WORDS, out=_SCRATCH)
        np.invert(_SCRATCH, out=_SCRATCH)


def reference() -> float:
    """Seconds the reference kernel takes now."""
    start = time.perf_counter()
    _interpreted()
    _vectorised()
    return time.perf_counter() - start


class Scaler:
    """Brackets timed steps with reference runs and scales each step.

    Call :meth:`mark` before the first step; :meth:`scale` after each
    step runs the reference again and scales the step by the mean of the
    two references around it, so every reference serves two steps.
    """

    def __init__(self) -> None:
        self.references: List[float] = []
        self._last = 0.0

    def mark(self) -> None:
        self._last = reference()
        self.references.append(self._last)

    def scale(self, seconds: float) -> float:
        before = self._last
        self.mark()
        return seconds * NOMINAL_S / ((before + self._last) / 2)
