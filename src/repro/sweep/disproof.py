"""Random-pattern miter disproof.

Shared by every sweeping-style checker: if the current pattern pool
already sets some miter PO to 1, the circuits are nonequivalent and the
witnessing pattern is extracted directly from the pool — no prover call
needed.  This is the cheapest possible disproof and always runs before
any exhaustive/SAT/BDD work.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.aig.literals import CONST0
from repro.aig.network import Aig
from repro.sweep.engine import CecResult, CecStatus


def find_po_disproof(
    miter: Aig, pi_words: np.ndarray, tables: np.ndarray
) -> Optional[List[int]]:
    """Return a PI pattern satisfying some miter PO, or None.

    ``tables`` must be the simulation of ``miter`` under ``pi_words``
    (same word layout).
    """
    for po in miter.pos:
        if po == CONST0:
            continue
        row = tables[po >> 1]
        if po & 1:
            row = ~row
        nonzero = np.nonzero(row)[0]
        if nonzero.size == 0:
            continue
        word = int(nonzero[0])
        bits = int(row[word])
        bit = (bits & -bits).bit_length() - 1
        return [
            int((int(pi_words[i, word]) >> bit) & 1)
            for i in range(miter.num_pis)
        ]
    return None


def po_disproof(miter: Aig, state, tables: np.ndarray) -> Optional[CecResult]:
    """NONEQUIVALENT with the pool's witness when some miter PO is hit.

    ``state`` is any pattern pool exposing ``pi_words`` (a
    :class:`~repro.sweep.state.SweepState` or a plain
    :class:`~repro.sweep.classes.SimulationState`).
    """
    pattern = find_po_disproof(miter, state.pi_words, tables)
    if pattern is None:
        return None
    return CecResult(CecStatus.NONEQUIVALENT, cex=pattern)
