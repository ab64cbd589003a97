"""Multi-hop (layer-wise) temporal neighborhood expansion.

An ``L``-layer TGNN needs, for every root node, its sampled neighbors, the
neighbors of those neighbors, and so on (Algorithm 1, lines 3-9).  The query
time of a hop-2 neighbor is the *timestamp of the hop-1 interaction* through
which it was reached — the standard TGAT/TGL convention that preserves
causality along the expansion.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .base import NeighborBatch, NeighborFinder

__all__ = ["sample_multi_hop", "flatten_frontier", "unique_targets"]


def flatten_frontier(batch: NeighborBatch) -> tuple:
    """Turn the sampled neighbors of one hop into the roots of the next hop.

    Padded slots are kept (so array shapes stay rectangular) but their query
    time is 0, which yields an empty neighborhood downstream — their messages
    are masked out by the aggregator anyway.

    Returns ``(nodes, times)`` each of shape ``(B * budget,)``.
    """
    nodes = batch.nodes.reshape(-1)
    times = np.where(batch.mask, batch.times, 0.0).reshape(-1)
    return nodes, times


def unique_targets(nodes: np.ndarray, times: np.ndarray) -> tuple:
    """The distinct ``(node, t)`` queries of one level, and where each row went.

    Returns ``(nodes, times, inverse)``: the distinct pairs in ``(node, t)``
    order and the index of every input pair among them — what
    ``np.unique(axis=1)`` over the stacked pair returns, by one stable
    ``lexsort`` of the two keys.  The padded slots of a flattened frontier
    (:func:`flatten_frontier`) all collapse to one ``(PAD_NODE, 0.0)`` query.
    """
    order = np.lexsort((times, nodes))
    nodes, times = nodes[order], times[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (nodes[1:] != nodes[:-1]) | (times[1:] != times[:-1])
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return nodes[new], times[new], inverse


def sample_multi_hop(finder: NeighborFinder, roots: np.ndarray, times: np.ndarray,
                     budgets: Sequence[int]) -> List[NeighborBatch]:
    """Sample an ``len(budgets)``-hop temporal neighborhood.

    Parameters
    ----------
    finder:
        Any :class:`NeighborFinder`.
    roots, times:
        ``(B,)`` root nodes and their query timestamps.
    budgets:
        Neighbors to sample per hop, outermost (hop 1) first.

    Returns
    -------
    A list of :class:`NeighborBatch`, one per hop.  Hop ``l`` has
    ``B * prod(budgets[:l-1])`` rows, matching the flattened frontier of the
    previous hop.
    """
    batches: List[NeighborBatch] = []
    cur_nodes = np.asarray(roots, dtype=np.int64)
    cur_times = np.asarray(times, dtype=np.float64)
    for budget in budgets:
        batch = finder.sample(cur_nodes, cur_times, budget)
        batches.append(batch)
        cur_nodes, cur_times = flatten_frontier(batch)
    return batches
