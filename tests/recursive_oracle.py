"""The recursive expansion: the oracle of the level-wise embedding.

A per-row batch holds one target per row at every hop: hop ``l + 1`` has one
row per neighbor slot of hop ``l``, repeats and padded slots included.  Its
embedding recurses: a hop-``l`` target's layer-``k`` state is aggregated from
its own layer-``k - 1`` state and its neighbors', which are computed from
hop ``l + 1``, one row per slot.  ``TGNNBackbone.embed`` computes the same
states level by level on each level's distinct ``(node, t)`` queries; this
module keeps the recursion, and :func:`per_row_hops` expands a level-wise
training batch into the per-row batch it stands for.
"""

from typing import List, Optional

import numpy as np

from repro.models import HopData, MiniBatch
from repro.sampling import NeighborBatch
from repro.tensor import Tensor

_BATCH_FIELDS = ("root_nodes", "root_times", "nodes", "eids", "times", "mask")


def embed_recursive(backbone, layer: int, target_feat: Optional[np.ndarray],
                    num_targets: int, hops: List[HopData]) -> Optional[Tensor]:
    """Layer-``layer`` states of the ``num_targets`` targets of ``hops[0]``."""
    if layer == 0:
        return backbone.base_embedding(target_feat, num_targets)
    hop, deeper = hops[0], hops[1:]
    # Previous-layer state of the targets themselves (the "self" query).
    h_target = embed_recursive(backbone, layer - 1, target_feat, num_targets, hops)
    # Previous-layer state of the neighbors (one row per neighbor slot),
    # computed from the next hop.
    count = num_targets * hop.budget
    neigh_feat = None
    if hop.neigh_node_feat is not None:
        neigh_feat = hop.neigh_node_feat.reshape(count, -1)
    h_neighbors = embed_recursive(backbone, layer - 1, neigh_feat, count, deeper)
    if h_neighbors is not None:
        h_neighbors = h_neighbors.reshape(num_targets, hop.budget, backbone.hidden_dim)
    return backbone.aggregate(layer, h_target, h_neighbors, hop)


def embed_per_row(backbone, hops: List[HopData]) -> Tensor:
    """Final-layer states of a per-row batch's roots: ``hops[0]``'s targets,
    with the root features its ``target_node_feat`` holds."""
    first = hops[0]
    return embed_recursive(backbone, backbone.num_layers, first.target_node_feat,
                           first.num_targets, hops)


def per_row_hops(minibatch: MiniBatch):
    """The per-row batch a level-wise training batch stands for.

    Returns ``(hops, rows)``: per level, the hop with one target per row and
    ``rows``, the index of each row's target among the level-wise hop's.
    Every row carries its target's neighbors, features and, with the
    adaptive sampler, a differentiable gather of its ``log_prob``; a gated
    hop gets a fresh per-row gate, so a target's gate gradient is the sum of
    its rows'.
    """
    hops, levels = [], []
    rows = minibatch.hops[0].inverse
    for level, hop in enumerate(minibatch.hops):
        if level:
            budget = minibatch.hops[level - 1].budget
            rows = hop.inverse[(rows[:, None] * budget + np.arange(budget)).ravel()]

        def take(array):
            return None if array is None else array[rows]
        expanded = HopData(
            batch=NeighborBatch(*(getattr(hop.batch, name)[rows]
                                  for name in _BATCH_FIELDS)),
            edge_feat=take(hop.edge_feat), neigh_node_feat=take(hop.neigh_node_feat),
            target_node_feat=take(hop.target_node_feat), log_prob=take(hop.log_prob),
            inverse=np.arange(rows.size), gathered=True)
        if hop.gate is not None:
            expanded.make_gate()
        hops.append(expanded)
        levels.append(rows)
    return hops, levels
