"""Wall-clock timing utilities used by the runtime-breakdown harness."""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Dict

__all__ = ["Timer"]


class _Section:
    """One timed pass through a named section: what :meth:`Timer.section`
    returns.  A plain slotted object, so entering and leaving it costs one
    frame each (no generator, no ``contextlib`` wrapper)."""

    __slots__ = ("timer", "name", "start")

    def __enter__(self) -> None:
        self.start = time.perf_counter()

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self.start
        timer = self.timer
        with timer._lock:
            timer._totals[self.name] += elapsed


class Timer:
    """Named section timer.

    Usage::

        timer = Timer()
        with timer.section("neighbor_finding"):
            ...
        timer.totals()["neighbor_finding"]   # seconds

    The runtime tables of the paper (Fig. 1, Table III) break an epoch into
    named phases; :class:`Timer` is how the harness collects those phases.

    Sections may be recorded from several threads at once (the evaluator's
    scoring threads share one generator's timer): every update holds a lock,
    since ``+=`` on a dict entry is a read-modify-write.  Concurrent sections
    each add their own wall time, so a total can exceed the elapsed time.
    """

    def __init__(self) -> None:
        self._totals: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()

    def section(self, name: str) -> _Section:
        """A context manager adding its wall time to section ``name``; each
        ``with`` gets its own, so sections nest and run on several threads."""
        span = _Section()
        span.timer = self
        span.name = name
        return span

    def totals(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._totals)

    def reset(self) -> None:
        with self._lock:
            self._totals.clear()
