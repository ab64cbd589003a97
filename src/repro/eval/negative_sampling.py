"""Negative destination sampling for self-supervised link prediction.

Training forms a negative edge ``(u, v', t)`` for every positive ``(u, v, t)``
by drawing ``v'`` uniformly from the destination pool; evaluation draws 49
negative destinations per positive (the DistTGL protocol).  For bipartite
graphs the pool is restricted to the destination partition so negatives are
type-consistent.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graph.temporal_graph import TemporalGraph
from ..utils.rng import new_rng

__all__ = ["destination_pool", "NegativeSampler"]


def destination_pool(graph: TemporalGraph) -> np.ndarray:
    """Candidate destination node ids for negative sampling.

    Uses the bipartite partition boundary recorded by the synthetic
    generators when available, otherwise the set of observed destinations.
    """
    meta = graph.meta
    if meta.get("bipartite") and "num_src" in meta and "num_dst" in meta:
        return np.arange(meta["num_src"], meta["num_src"] + meta["num_dst"], dtype=np.int64)
    return np.unique(graph.dst)


class NegativeSampler:
    """Draws negative destinations, avoiding the paired positive node."""

    #: rounds of whole-pool redraws of the clashes before the fallback.
    REDRAW_ROUNDS = 10

    def __init__(self, graph: TemporalGraph, seed: int = 0) -> None:
        self.pool = destination_pool(graph)
        if self.pool.size < 2:
            raise ValueError("destination pool too small for negative sampling")
        self.rng = new_rng(seed)

    def sample(self, size: int, exclude: Optional[np.ndarray] = None) -> np.ndarray:
        """Draw ``size`` destinations; ``exclude[i]`` is resampled away if hit.

        A clash is redrawn from the whole pool for up to ``REDRAW_ROUNDS``
        rounds; a clash left after them takes one uniform draw from the pool
        without its positive, so no negative equals its positive.
        """
        draws = self.rng.choice(self.pool, size=size, replace=True)
        if exclude is None:
            return draws
        exclude = np.asarray(exclude, dtype=np.int64)
        for _ in range(self.REDRAW_ROUNDS):
            clash = draws == exclude
            if not clash.any():
                return draws
            draws[clash] = self.rng.choice(self.pool, size=int(clash.sum()), replace=True)
        clash = np.flatnonzero(draws == exclude)
        if clash.size:
            # The pool is sorted: skip the positive's slot in it.
            skip = np.searchsorted(self.pool, exclude[clash])
            offset = self.rng.integers(0, self.pool.size - 1, size=clash.size)
            draws[clash] = self.pool[offset + (offset >= skip)]
        return draws

    def sample_matrix(self, batch: int, per_positive: int,
                      exclude: Optional[np.ndarray] = None) -> np.ndarray:
        """Draw a ``(batch, per_positive)`` matrix of negative destinations."""
        flat_exclude = None
        if exclude is not None:
            flat_exclude = np.repeat(np.asarray(exclude, dtype=np.int64), per_positive)
        return self.sample(batch * per_positive, exclude=flat_exclude).reshape(batch, per_positive)
