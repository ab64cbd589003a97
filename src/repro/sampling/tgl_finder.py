"""TGL-style pointer-array CPU neighbor finder (chronological order only).

TGL (Zhou et al., 2022) accelerates temporal neighbor finding by maintaining a
per-node *pointer array*: because training mini-batches are processed in
chronological order, the time pivot of a node can only move forward, so it is
advanced incrementally instead of re-running a binary search from scratch.

The paper points out the key limitation TASER runs into: the pointer array is
only *efficient* under **chronological training order**, which is incompatible
with TASER's adaptive mini-batch selection (random order from a learned
distribution).  This implementation advances the per-node pointer on forward
(chronological) queries in amortised O(1); a query that looks *backward* in
time (multi-hop expansion, negative destinations, or — crucially — adaptively
selected mini-batches) falls back to a binary search and, in ``strict`` mode,
raises ``ValueError`` so the benchmark harness can demonstrate the
incompatibility the paper describes (Section IV-C).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graph.tcsr import TCSR
from .base import NeighborBatch, NeighborFinder

__all__ = ["TGLNeighborFinder"]


class TGLNeighborFinder(NeighborFinder):
    """Pointer-array temporal neighbor finder (fast, chronological-only)."""

    name = "tgl-cpu"
    requires_chronological = True

    def __init__(self, tcsr: TCSR, policy: str = "uniform", seed: int = 0,
                 strict: bool = False) -> None:
        super().__init__(tcsr, policy=policy, seed=seed)
        #: per-node count of adjacency entries already in the past.
        self._pointer = np.zeros(tcsr.num_nodes, dtype=np.int64)
        #: last query time seen per node (for the chronological check).
        self._last_time = np.full(tcsr.num_nodes, -np.inf)
        #: when True, backward-in-time queries raise instead of falling back
        #: to a binary search (models the original TGL restriction).
        self.strict = strict

    def reset(self) -> None:
        self._pointer[:] = 0
        self._last_time[:] = -np.inf

    def _advance(self, v: int, t: float) -> int:
        """Return the pivot for ``(v, t)``, advancing the pointer when possible."""
        lo, hi = int(self.tcsr.indptr[v]), int(self.tcsr.indptr[v + 1])
        p = int(self._pointer[v])
        ts = self.tcsr.ts
        if t < self._last_time[v]:
            if self.strict:
                raise ValueError(
                    "TGL pointer-array finder only supports chronological training "
                    f"order; node {v} queried at {t} after {self._last_time[v]}"
                )
            # Backward query: the candidate prefix is a subset of the committed
            # one, so binary-search inside it (slow path the paper's adaptive
            # mini-batch selection would hit on every batch).
            return int(np.searchsorted(ts[lo:lo + p], t, side="left"))
        self._last_time[v] = t
        # Amortised O(1): each entry is skipped over at most once per epoch.
        while lo + p < hi and ts[lo + p] < t:
            p += 1
        self._pointer[v] = p
        return p

    def sample(self, nodes: np.ndarray, times: np.ndarray, budget: int,
               rng: Optional[np.random.Generator] = None) -> NeighborBatch:
        rng = self.rng if rng is None else rng
        nodes = np.asarray(nodes, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        b = nodes.shape[0]
        out_nodes = np.zeros((b, budget), dtype=np.int64)
        out_eids = np.zeros((b, budget), dtype=np.int64)
        out_times = np.zeros((b, budget), dtype=np.float64)
        out_mask = np.zeros((b, budget), dtype=bool)

        tcsr = self.tcsr
        for i in range(b):
            v = int(nodes[i])
            t = float(times[i])
            pivot = self._advance(v, t)
            if pivot == 0:
                continue
            lo = int(tcsr.indptr[v])
            if self.policy == "recent":
                take = min(budget, pivot)
                sel = np.arange(pivot - take, pivot)[::-1]
            elif self.policy == "uniform":
                if pivot <= budget:
                    sel = np.arange(pivot)
                else:
                    sel = rng.choice(pivot, size=budget, replace=False)
            else:  # inverse_timespan
                delta = t - tcsr.ts[lo:lo + pivot]
                weights = 1.0 / np.maximum(delta, 1e-9)
                weights /= weights.sum()
                if pivot <= budget:
                    sel = np.arange(pivot)
                else:
                    sel = rng.choice(pivot, size=budget, replace=False, p=weights)
            take = sel.shape[0]
            abs_idx = lo + sel
            out_nodes[i, :take] = tcsr.indices[abs_idx]
            out_eids[i, :take] = tcsr.eid[abs_idx]
            out_times[i, :take] = tcsr.ts[abs_idx]
            out_mask[i, :take] = True

        return NeighborBatch(root_nodes=nodes, root_times=times, nodes=out_nodes,
                             eids=out_eids, times=out_times, mask=out_mask)
