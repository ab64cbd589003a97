"""The paper's two baseline neighbor finders, kept as benchmark fixtures.

The runtime has one finder, TASER's block-centric
:class:`~repro.sampling.GPUNeighborFinder`.  The two finders here are what
the paper measures it against, and nothing in the runtime builds them:

* :class:`OriginalNeighborFinder` — the per-query CPU loop, Fig. 1's
  "Baseline" row and the exact-id oracle of the GPU finder's tests;
* :class:`TGLNeighborFinder` — TGL's pointer-array finder, Fig. 3(a)'s
  comparison point.

:func:`use_finder` swaps one of them into a trainer for a breakdown row.
"""

from __future__ import annotations

import numpy as np

from ..graph.tcsr import TCSR
from ..sampling.base import NeighborBatch, NeighborFinder

__all__ = ["OriginalNeighborFinder", "TGLNeighborFinder", "use_finder"]


def use_finder(trainer, finder: type) -> None:
    """Re-point ``trainer``'s mini-batch generator at a fresh ``finder``.

    The new finder reads the T-CSR of the finder it replaces under the
    configured policy, exactly as the trainer built its own; it draws from
    the same per-tile generators, so a swap made before the first epoch
    replays the run that finder would have trained.  Training and
    evaluation both sample through the generator, its only holder.
    """
    generator = trainer.generator
    generator.finder = finder(generator.finder.tcsr,
                              policy=trainer.config.resolved_finder_policy)


def _gather(tcsr: TCSR, nodes: np.ndarray, times: np.ndarray, budget: int,
            rows) -> NeighborBatch:
    """Pad the per-row ``(row, lo, sel)`` selections into a batch."""
    b = nodes.shape[0]
    out_nodes = np.zeros((b, budget), dtype=np.int64)
    out_eids = np.zeros((b, budget), dtype=np.int64)
    out_times = np.zeros((b, budget), dtype=np.float64)
    out_mask = np.zeros((b, budget), dtype=bool)
    for i, lo, sel in rows:
        take = sel.shape[0]
        abs_idx = lo + sel
        out_nodes[i, :take] = tcsr.indices[abs_idx]
        out_eids[i, :take] = tcsr.eid[abs_idx]
        out_times[i, :take] = tcsr.ts[abs_idx]
        out_mask[i, :take] = True
    return NeighborBatch(root_nodes=nodes, root_times=times, nodes=out_nodes,
                         eids=out_eids, times=out_times, mask=out_mask)


def _select(policy: str, pivot: int, budget: int,
            rng: np.random.Generator) -> np.ndarray:
    """Offsets into a node's first ``pivot`` entries, most recent first
    under ``recent``, a uniform draw without replacement otherwise."""
    if policy == "recent":
        return np.arange(pivot - min(budget, pivot), pivot)[::-1]
    if pivot <= budget:
        return np.arange(pivot)
    return rng.choice(pivot, size=budget, replace=False)


class OriginalNeighborFinder(NeighborFinder):
    """Per-query Python-loop temporal neighbor finder (TGAT-reference style).

    One query at a time: look up the node's adjacency, binary-search the time
    pivot, then draw the sample.  Its distribution is the GPU finder's, but
    it pays per-query interpreter overhead, which is what makes mini-batch
    generation dominate TGNN training time in Fig. 1.
    """

    def sample(self, nodes: np.ndarray, times: np.ndarray, budget: int,
               rng: np.random.Generator) -> NeighborBatch:
        nodes = np.asarray(nodes, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        tcsr = self.tcsr
        rows = []
        for i in range(nodes.shape[0]):
            v = int(nodes[i])
            lo = int(tcsr.indptr[v])
            pivot = tcsr.pivot(v, float(times[i])) - lo
            # No past interaction: the row stays fully masked on the padding
            # sentinel (see NeighborBatch.check_padding).
            if pivot:
                rows.append((i, lo, _select(self.policy, pivot, budget, rng)))
        return _gather(tcsr, nodes, times, budget, rows)


class TGLNeighborFinder(NeighborFinder):
    """TGL's pointer-array temporal neighbor finder (Zhou et al., 2022).

    Training batches in chronological order only move a node's time pivot
    forward, so TGL advances a per-node pointer instead of binary-searching
    from scratch.  That is only efficient under chronological order, which
    TASER's adaptive mini-batch selection gives up (Section IV-C): a query
    that looks backward in time falls back to a binary search, or raises
    ``ValueError`` in ``strict`` mode.  Call :meth:`reset` before replaying
    the timeline from its start.
    """

    def __init__(self, tcsr: TCSR, policy: str = "uniform",
                 strict: bool = False) -> None:
        super().__init__(tcsr, policy=policy)
        #: per-node count of adjacency entries already in the past.
        self._pointer = np.zeros(tcsr.num_nodes, dtype=np.int64)
        #: last query time seen per node (for the chronological check).
        self._last_time = np.full(tcsr.num_nodes, -np.inf)
        self.strict = strict

    def reset(self) -> None:
        """Rewind the pointer arrays (the finder holds no other state)."""
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
                    f"order; node {v} queried at {t} after {self._last_time[v]}")
            # Backward query: the candidates are a prefix of the committed ones.
            return int(np.searchsorted(ts[lo:lo + p], t, side="left"))
        self._last_time[v] = t
        # Amortised O(1): each entry is skipped over at most once per epoch.
        while lo + p < hi and ts[lo + p] < t:
            p += 1
        self._pointer[v] = p
        return p

    def sample(self, nodes: np.ndarray, times: np.ndarray, budget: int,
               rng: np.random.Generator) -> NeighborBatch:
        nodes = np.asarray(nodes, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        rows = []
        for i in range(nodes.shape[0]):
            v = int(nodes[i])
            pivot = self._advance(v, float(times[i]))
            if pivot:
                rows.append((i, int(self.tcsr.indptr[v]),
                             _select(self.policy, pivot, budget, rng)))
        return _gather(self.tcsr, nodes, times, budget, rows)
