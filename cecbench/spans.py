"""Span log, self time and quantiles for the benchmark's traced runs.

Spans are kept in memory: each records a name, a start, an end and the
index of the span that was open when it began (its parent).  A layer's
self time is its span's duration minus the part of that interval its
child spans cover; children of one span never overlap because the
benchmark's checking thread runs one call at a time.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from contextlib import contextmanager
from typing import Callable, Iterator, List, Sequence


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (NumPy's default ``linear`` method)."""
    if not values:
        raise ValueError("quantile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    lo = math.floor(position)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (position - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


class Spans:
    """An in-memory span log with parent links."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: ``[name, start, end, parent_index]`` per span, in start order.
        self.records: List[list] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.records)
        parent = self._open[-1] if self._open else None
        record = [name, self.clock(), None, parent]
        self.records.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = self.clock()
            self._open.pop()

    def clear(self) -> None:
        if self._open:
            raise RuntimeError("cannot clear while spans are open")
        self.records.clear()

    def within(self, prefix: str) -> bool:
        """True while a span whose name starts with ``prefix`` is open."""
        return any(self.records[i][0].startswith(prefix) for i in self._open)

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.records[index][3]
        while parent is not None:
            if self.records[parent][0] == name:
                return True
            parent = self.records[parent][3]
        return False

    def total(self, name: str) -> float:
        """Wall time covered by ``name``; nested re-entries count once."""
        return sum(
            end - start
            for i, (n, start, end, _) in enumerate(self.records)
            if n == name and not self._has_ancestor(i, name)
        )

    def self_time(self, name: str) -> float:
        """Duration of ``name`` spans minus the time their children cover."""
        covered = [0.0] * len(self.records)
        for _, start, end, parent in self.records:
            if parent is not None:
                covered[parent] += end - start
        return sum(
            (end - start) - covered[i]
            for i, (n, start, end, _) in enumerate(self.records)
            if n == name
        )

    # ------------------------------------------------------------------
    # Wrappers around the program's public entry points
    # ------------------------------------------------------------------

    def timed(self, name: str, func: Callable) -> Callable:
        """``func`` with every call inside a span."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)

        return wrapper

    def timed_generator(self, name: str, func: Callable) -> Callable:
        """``func`` returns a generator: time each resume, not the call."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            return self.resumes(name, func(*args, **kwargs))

        return wrapper

    def resumes(self, name: str, generator) -> Iterator:
        while True:
            with self.span(name):
                try:
                    item = next(generator)
                except StopIteration:
                    return
            yield item


class Patches:
    """Swap attributes and restore them; module-level functions are swapped
    in every loaded module that imported them by name."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def method(self, cls: type, name: str, wrapper_of: Callable) -> None:
        original = cls.__dict__[name]
        self._undo.append((cls, name, original))
        setattr(cls, name, wrapper_of(original))

    def function(self, module, name: str, wrapper_of: Callable) -> None:
        original = getattr(module, name)
        wrapped = wrapper_of(original)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, name, None) is original:
                self._undo.append((loaded, name, original))
                setattr(loaded, name, wrapped)

    def undo(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

