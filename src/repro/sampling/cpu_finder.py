"""The "original" per-query CPU neighbor finder (TGAT-reference style).

This is the baseline the paper's Figure 1 / Figure 3(a) measure against: a
straightforward Python implementation that processes one query at a time —
look up the node's adjacency, binary-search the time pivot, then draw the
sample.  It produces exactly the same distribution as the other finders but
pays per-query Python interpreter overhead, which is what makes mini-batch
generation dominate TGNN training time.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graph.tcsr import TCSR
from .base import NeighborBatch, NeighborFinder

__all__ = ["OriginalNeighborFinder"]


class OriginalNeighborFinder(NeighborFinder):
    """Per-query Python-loop temporal neighbor finder (slow baseline)."""

    name = "original-cpu"
    requires_chronological = False

    def sample(self, nodes: np.ndarray, times: np.ndarray, budget: int) -> NeighborBatch:
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
            lo, hi = int(tcsr.indptr[v]), int(tcsr.indptr[v + 1])
            seg_ts = tcsr.ts[lo:hi]
            pivot = int(np.searchsorted(seg_ts, t, side="left"))
            if pivot == 0:
                # No past interaction: the row stays fully masked and every
                # slot keeps the sentinel (node 0 / eid 0 / t 0.0).  Sentinel
                # ids are valid feature indices, so downstream consumers MUST
                # honour the mask — the pipeline asserts this contract via
                # NeighborBatch.check_padding().
                continue
            if self.policy == "recent":
                take = min(budget, pivot)
                sel = np.arange(pivot - take, pivot)[::-1]
            elif self.policy == "uniform":
                take = min(budget, pivot)
                if pivot <= budget:
                    sel = np.arange(pivot)
                else:
                    sel = self.rng.choice(pivot, size=budget, replace=False)
            else:  # inverse_timespan
                take = min(budget, pivot)
                delta = t - seg_ts[:pivot]
                weights = 1.0 / np.maximum(delta, 1e-9)
                weights = weights / weights.sum()
                if pivot <= budget:
                    sel = np.arange(pivot)
                else:
                    sel = self.rng.choice(pivot, size=budget, replace=False, p=weights)
            take = sel.shape[0]
            abs_idx = lo + sel
            out_nodes[i, :take] = tcsr.indices[abs_idx]
            out_eids[i, :take] = tcsr.eid[abs_idx]
            out_times[i, :take] = tcsr.ts[abs_idx]
            out_mask[i, :take] = True

        return NeighborBatch(root_nodes=nodes, root_times=times, nodes=out_nodes,
                             eids=out_eids, times=out_times, mask=out_mask)
