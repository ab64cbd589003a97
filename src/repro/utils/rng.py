"""Deterministic random-number management.

Every stochastic component in the library (dataset generators, neighbor
finders, samplers, weight initialisation, dropout) takes an explicit
``numpy.random.Generator``.  This module centralises how those generators are
created so that experiments are reproducible from a single integer seed.
"""

from __future__ import annotations

import random
from typing import List, Optional

import numpy as np

__all__ = ["new_rng", "spawn_rngs", "seed_everything", "RngMixin"]


def new_rng(seed: Optional[int] = None) -> np.random.Generator:
    """Create a fresh PCG64 generator from ``seed`` (entropy-seeded if None)."""
    return np.random.default_rng(seed)


def spawn_rngs(seed: int, count: int) -> List[np.random.Generator]:
    """Deterministically derive ``count`` independent generators from one seed.

    Uses ``SeedSequence.spawn`` so the derived streams are statistically
    independent — important when e.g. the dataset generator and the model
    initialiser must not share a stream.
    """
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]


def seed_everything(seed: int) -> np.random.Generator:
    """Seed Python's ``random`` and return a numpy Generator for the caller."""
    random.seed(seed)
    np.random.seed(seed % (2 ** 32))
    return new_rng(seed)


class RngMixin:
    """Mixin giving a class a lazily-created, explicitly seedable generator."""

    _rng: Optional[np.random.Generator] = None

    @property
    def rng(self) -> np.random.Generator:
        if self._rng is None:
            self._rng = new_rng()
        return self._rng

    def seed(self, seed: int) -> None:
        """Reset this object's generator to a deterministic state."""
        self._rng = new_rng(seed)
