"""Batched T-CSR probing: the neighbor-finding kernel of the fused prep backend.

:class:`BatchedProbeFinder` wraps a concrete :class:`~repro.sampling.base.
NeighborFinder` and answers the same queries with *batch-vectorised* kernels:
one composite-key ``searchsorted`` over the whole query batch
(:meth:`~repro.graph.tcsr.TCSR.pivots`) replaces the per-seed
``np.searchsorted(ts[lo:hi], t)`` loop of the original per-query finder, and
the padded candidate gather runs as a handful of fancy-indexing kernels
instead of one slice-and-write per row.

Bitwise-equivalence contract
----------------------------
The wrapper is an *implementation* swap, never a semantics swap: for every
policy it produces :class:`~repro.sampling.base.NeighborBatch` arrays that
are **bitwise-identical** to the wrapped finder's, and it consumes the
wrapped finder's RNG stream in exactly the same order and count (the two
share one ``rng`` object):

* ``recent`` is deterministic and fully vectorised (the same broadcasted
  index expression the block-centric GPU finder uses);
* ``uniform`` vectorises the no-RNG rows (neighborhood <= budget) and replays
  ``rng.choice`` per oversubscribed row in ascending row order — the exact
  draw sequence of the per-query loop — then gathers all rows in one pass;
* ``inverse_timespan`` has a data-dependent weight vector per row, so the
  oversubscribed rows keep their per-row weighted draws (same order, same
  float ops) while pivots and the gather stay batched.

Finders that are already batched (the block-centric GPU finder) or stateful
(the chronological TGL pointer finder) are delegated to unchanged.
"""

from __future__ import annotations

import numpy as np

from .base import NeighborBatch, NeighborFinder
from .cpu_finder import OriginalNeighborFinder

__all__ = ["BatchedProbeFinder"]

_I64 = np.int64


class BatchedProbeFinder(NeighborFinder):
    """Batch-vectorised adapter around a concrete neighbor finder."""

    requires_chronological = False

    def __init__(self, base: NeighborFinder) -> None:
        # No super().__init__: every piece of finder state is *shared* with
        # the wrapped finder, most importantly the RNG stream (the bitwise
        # contract requires identical draw order across backends).
        self.base = base
        self.name = f"fused-probe[{base.name}]"
        self.tcsr = base.tcsr
        self.policy = base.policy
        self.rng = base.rng
        self.requires_chronological = base.requires_chronological
        # Only the per-query original finder has a Python probe loop worth
        # replacing; the GPU finder is already batched and the TGL pointer
        # finder is stateful/chronological — both delegate.
        self._vectorise = isinstance(base, OriginalNeighborFinder)

    def reset(self) -> None:
        self.base.reset()

    # -- policy kernels ----------------------------------------------------------

    def _recent_offsets(self, counts: np.ndarray, budget: int):
        """Most-recent-first relative offsets: pivot-1, pivot-2, ... per row."""
        rel = counts[:, None] - (1 + np.arange(budget, dtype=_I64))[None, :]
        mask = rel >= 0
        return np.maximum(rel, 0, out=rel), mask

    def _uniform_offsets(self, counts: np.ndarray, budget: int):
        """Uniform-without-replacement offsets, replaying the per-row draws.

        Rows with ``counts <= budget`` take ``arange(counts)`` (no RNG, fully
        vectorised); oversubscribed rows replay ``rng.choice`` in ascending
        row order — exactly the draw sequence of the per-query loop.
        """
        offsets = np.tile(np.arange(budget, dtype=_I64), (counts.shape[0], 1))
        mask = offsets < counts[:, None]
        for i in np.nonzero(counts > budget)[0]:
            offsets[i] = self.rng.choice(int(counts[i]), size=budget,
                                         replace=False)
            mask[i] = True
        return offsets, mask

    def _inverse_timespan_offsets(self, times: np.ndarray, starts: np.ndarray,
                                  counts: np.ndarray, budget: int):
        """1/Δt-weighted offsets; weights are per-row, so oversubscribed rows
        keep their per-row draws (same float ops and RNG order as the wrapped
        finder) while everything else stays batched."""
        offsets = np.tile(np.arange(budget, dtype=_I64), (counts.shape[0], 1))
        mask = offsets < counts[:, None]
        ts = self.tcsr.ts
        for i in np.nonzero(counts > budget)[0]:
            lo, c = int(starts[i]), int(counts[i])
            delta = float(times[i]) - ts[lo:lo + c]
            weights = 1.0 / np.maximum(delta, 1e-9)
            weights = weights / weights.sum()
            offsets[i] = self.rng.choice(c, size=budget, replace=False,
                                         p=weights)
            mask[i] = True
        return offsets, mask

    # -- main entry point --------------------------------------------------------

    def sample(self, nodes: np.ndarray, times: np.ndarray,
               budget: int) -> NeighborBatch:
        if not self._vectorise:
            return self.base.sample(nodes, times, budget)

        nodes = np.asarray(nodes, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        tcsr = self.tcsr
        b = nodes.shape[0]
        if tcsr.num_entries == 0 or b == 0:
            zeros_i = np.zeros((b, budget), dtype=np.int64)
            return NeighborBatch(root_nodes=nodes, root_times=times,
                                 nodes=zeros_i, eids=zeros_i.copy(),
                                 times=np.zeros((b, budget)),
                                 mask=np.zeros((b, budget), dtype=bool))

        # One composite-key searchsorted for the whole batch (the fix for the
        # per-seed segment binary searches).
        starts = tcsr.indptr[nodes]
        counts = tcsr.pivots(nodes, times) - starts

        if self.policy == "recent":
            offsets, mask = self._recent_offsets(counts, budget)
        elif self.policy == "uniform":
            offsets, mask = self._uniform_offsets(counts, budget)
        else:  # inverse_timespan
            offsets, mask = self._inverse_timespan_offsets(
                times, starts, counts, budget)

        abs_idx = starts[:, None] + offsets
        # Padded slots point at entry 0 so the gather stays in bounds; the
        # where() below restores the padding sentinel (0 / 0 / 0.0).
        abs_idx *= mask

        out_nodes = np.where(mask, tcsr.indices[abs_idx], 0)
        out_eids = np.where(mask, tcsr.eid[abs_idx], 0)
        out_times = np.where(mask, tcsr.ts[abs_idx], 0.0)
        return NeighborBatch(root_nodes=nodes, root_times=times,
                             nodes=out_nodes, eids=out_eids, times=out_times,
                             mask=mask)
