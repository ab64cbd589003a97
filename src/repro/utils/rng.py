"""Deterministic random-number management.

Every stochastic component in the library (dataset generators, neighbor
finders, samplers, weight initialisation, dropout) takes an explicit
``numpy.random.Generator``.  This module centralises how those generators are
created so that experiments are reproducible from a single integer seed.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

__all__ = ["new_rng", "spawn_rngs"]


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
