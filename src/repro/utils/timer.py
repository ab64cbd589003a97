"""Wall-clock timing utilities used by the runtime-breakdown harness."""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator

__all__ = ["Timer"]


class Timer:
    """Named section timer.

    Usage::

        timer = Timer()
        with timer.section("neighbor_finding"):
            ...
        timer.totals()["neighbor_finding"]   # seconds

    The runtime tables of the paper (Fig. 1, Table III) break an epoch into
    named phases; :class:`Timer` is how the harness collects those phases.
    It also supports adding *simulated* time (from the device cost model) on
    top of measured wall-clock time via :meth:`add`.
    """

    def __init__(self) -> None:
        self._totals: Dict[str, float] = defaultdict(float)
        self._counts: Dict[str, int] = defaultdict(int)

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self._totals[name] += time.perf_counter() - start
            self._counts[name] += 1

    def add(self, name: str, seconds: float) -> None:
        """Add simulated/externally-measured seconds to a section."""
        self._totals[name] += seconds
        self._counts[name] += 1

    def totals(self) -> Dict[str, float]:
        return dict(self._totals)

    def counts(self) -> Dict[str, int]:
        return dict(self._counts)

    def total(self) -> float:
        return float(sum(self._totals.values()))

    def reset(self) -> None:
        self._totals.clear()
        self._counts.clear()
