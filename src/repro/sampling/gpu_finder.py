"""TASER's block-centric temporal neighbor finder (Algorithm 2).

On the real system this is a CUDA kernel: one thread block per target node,
one thread per requested neighbor, a single-thread binary search for the time
pivot, and a shared-memory bitmap to resolve collisions in uniform sampling
without replacement.  On this CPU-only reproduction the same algorithm is
expressed as *batched* numpy kernels — every step operates on the whole query
batch at once, which plays the role of the SIMD lanes:

* **pivot search** — the T-CSR's own batched probe,
  :meth:`~repro.graph.tcsr.TCSR.pivots`: one vectorised ``searchsorted``
  over composite ``(node, timestamp)`` keys replaces the per-block binary
  searches;
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

from .base import NeighborBatch, NeighborFinder

__all__ = ["GPUNeighborFinder"]


class GPUNeighborFinder(NeighborFinder):
    """Vectorised block-centric temporal neighbor finder (arbitrary order).

    It holds only its T-CSR and its policy: the pivot search keys belong to
    the T-CSR, built once when it was.
    """

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
        counts = tcsr.pivots(nodes, times) - starts

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
