"""TASER's block-centric temporal neighbor finder (Algorithm 2).

On the real system this is a CUDA kernel: one thread block per target node,
one thread per requested neighbor, a single-thread binary search for the time
pivot, and a shared-memory bitmap to resolve collisions in uniform sampling
without replacement.  On this CPU-only reproduction the same algorithm is
expressed as *batched* numpy kernels — every step operates on the whole query
batch at once, which plays the role of the SIMD lanes:

* **pivot search** — a single vectorised ``searchsorted`` over composite
  ``(node, timestamp)`` keys replaces the per-block binary searches;
* **most-recent selection** — a broadcasted index expression;
* **uniform selection without replacement** — batched random draws followed
  by vectorised collision detection and redraw, mirroring the bitmap
  compare-and-update loop of the CUDA kernel.

Unlike TGL's pointer-array finder (a fixture in :mod:`repro.bench.finders`)
it supports **arbitrary query order**, which is what TASER's adaptive
mini-batch selection requires.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..graph.tcsr import TCSR
from .base import NeighborBatch, NeighborFinder, _any

__all__ = ["GPUNeighborFinder"]


class GPUNeighborFinder(NeighborFinder):
    """Vectorised block-centric temporal neighbor finder (arbitrary order)."""

    def __init__(self, tcsr: TCSR, policy: str = "uniform") -> None:
        super().__init__(tcsr, policy=policy)
        self._prepare_keys()

    def _prepare_keys(self) -> None:
        """Precompute the composite search keys (the "T-CSR on device")."""
        tcsr = self.tcsr
        degrees = np.diff(tcsr.indptr)
        #: node id owning each adjacency entry.
        self._entry_node = np.repeat(np.arange(tcsr.num_nodes, dtype=np.int64), degrees)
        if tcsr.num_entries:
            t_min = float(tcsr.ts.min())
            t_max = float(tcsr.ts.max())
        else:
            t_min, t_max = 0.0, 1.0
        self._t_min = t_min
        #: strictly larger than any normalised timestamp, separating node segments.
        self._offset = (t_max - t_min) * 1.000001 + 1.0
        self._keys = self._entry_node.astype(np.float64) * self._offset \
            + (tcsr.ts - t_min)

    # -- pivot ----------------------------------------------------------------------

    def batched_pivots(self, nodes: np.ndarray, times: np.ndarray,
                       lo: np.ndarray) -> np.ndarray:
        """Vectorised pivot search: first adjacency index with ``ts >= t``.

        ``lo`` is each node's segment start ``tcsr.indptr[nodes]``, which
        :meth:`sample` reads once for the search and its offsets.

        Equivalent to one binary search per thread block in Algorithm 2 but
        performed as a single ``searchsorted`` over the composite key array.

        The float key ``node * offset + (ts - t_min)`` rounds: once
        ``node * offset`` is large its ulp swallows real timestamp gaps, and
        the search stops short of strictly earlier entries whose key collides
        with the query's.  The result is therefore clamped into the node's
        segment and walked to the exact pivot by comparing timestamps — zero
        steps unless a key collided, so the answer always equals
        :meth:`TCSR.pivots <repro.graph.tcsr.TCSR.pivots>`.
        """
        query_keys = nodes.astype(np.float64) * self._offset \
            + np.minimum(np.maximum(times - self._t_min, 0.0), self._offset - 1.0)
        pivots = self._keys.searchsorted(query_keys)
        ts = self.tcsr.ts
        if ts.shape[0] == 0:
            return pivots
        hi = self.tcsr.indptr[nodes + 1]
        pivots = np.minimum(np.maximum(pivots, lo), hi)
        last = ts.shape[0] - 1
        while True:
            early = (pivots < hi) & (ts[np.minimum(pivots, last)] < times)
            if not _any(early):
                break
            pivots += early
        while True:
            # pivots - 1 == -1 only where pivots == lo == 0, masked out.
            late = (pivots > lo) & (ts[pivots - 1] >= times)
            if not _any(late):
                break
            pivots -= late
        return pivots

    # -- uniform sampling without replacement (bitmap emulation) ----------------------

    @staticmethod
    def _uniform_without_replacement(counts: np.ndarray, budget: int,
                                     rng: np.random.Generator
                                     ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample ``budget`` distinct offsets in ``[0, counts_i)`` per row.

        Rows with ``counts_i <= budget`` simply take all their candidates.
        Rows with more candidates use a **lane-parallel Floyd sampler**: lane
        ``j`` draws uniformly from ``[0, counts_i - budget + j]`` and, on a
        collision with an already-occupied slot of the same row (the bitmap
        check of Algorithm 2), deterministically takes the boundary value
        ``counts_i - budget + j`` instead.  Floyd's algorithm guarantees the
        result is an exact uniform sample without replacement while needing
        only ``budget`` fully vectorised rounds — the CPU analogue of the
        GPU's per-thread compare-and-update retries.

        Returns ``(offsets, mask)`` of shape ``(B, budget)``.
        """
        b = counts.shape[0]
        offsets = np.tile(np.arange(budget, dtype=np.int64), (b, 1))
        mask = offsets < counts[:, None]

        rows = np.nonzero(counts > budget)[0]
        if rows.size == 0:
            return offsets, mask

        sub_counts = counts[rows]
        selected = np.empty((rows.size, budget), dtype=np.int64)
        uniforms = rng.random((rows.size, budget))
        for step in range(budget):
            upper = sub_counts - budget + step          # inclusive upper bound per row
            draw = (uniforms[:, step] * (upper + 1)).astype(np.int64)
            if step:
                collide = (selected[:, :step] == draw[:, None]).any(axis=1)
                draw = np.where(collide, upper, draw)
            selected[:, step] = draw
        offsets[rows] = selected
        mask[rows] = True
        return offsets, mask

    # -- main entry point -------------------------------------------------------------------

    def sample(self, nodes: np.ndarray, times: np.ndarray, budget: int,
               rng: np.random.Generator) -> NeighborBatch:
        nodes = np.asarray(nodes, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        tcsr = self.tcsr

        if tcsr.num_entries == 0:
            b = nodes.shape[0]
            zeros_i = np.zeros((b, budget), dtype=np.int64)
            return NeighborBatch(root_nodes=nodes, root_times=times, nodes=zeros_i,
                                 eids=zeros_i.copy(), times=np.zeros((b, budget)),
                                 mask=np.zeros((b, budget), dtype=bool))

        starts = tcsr.indptr[nodes]
        counts = self.batched_pivots(nodes, times, starts) - starts

        if self.policy == "recent":
            # offsets counted backwards from the pivot: pivot-1, pivot-2, ...
            rel = counts[:, None] - 1 - np.arange(budget, dtype=np.int64)[None, :]
            mask = rel >= 0
            offsets = np.maximum(rel, 0)
        else:
            offsets, mask = self._uniform_without_replacement(counts, budget, rng)

        # A padded slot reads entry 0, and the integer outputs are zeroed
        # there by the mask (exactly the PAD sentinels).
        abs_idx = starts[:, None] + offsets
        abs_idx *= mask

        out_nodes = tcsr.indices[abs_idx] * mask
        out_eids = tcsr.eid[abs_idx] * mask
        out_times = np.where(mask, tcsr.ts[abs_idx], 0.0)

        return NeighborBatch(root_nodes=nodes, root_times=times, nodes=out_nodes,
                             eids=out_eids, times=out_times, mask=mask)
