"""Base class shared by the TGNN backbones (TGAT, GraphMixer).

A backbone turns a :class:`~repro.models.minibatch.MiniBatch` into dynamic
node embeddings for its root queries (Eq. 1-2).  The recursive expansion is
shared here; the per-layer COMB function — one graph node per layer, which
forms the messages ``h_u || x_uvt || Phi(dt)`` inside its kernel — is what
each backbone specialises.

Everything a backbone computes is Tensor math, so the whole propagation phase
(the ``PP`` section of Table III) runs on the array runtime
(:mod:`repro.tensor.backend`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..nn import Module
from ..tensor import Tensor
from .minibatch import HopData, MiniBatch

__all__ = ["TGNNBackbone"]


class TGNNBackbone(Module):
    """Common scaffolding of temporal GNN backbones.

    Subclasses must set :attr:`num_layers` and implement
    :meth:`aggregate` — the per-layer COMB function of Eq. (2).
    """

    num_layers: int = 1

    def __init__(self, node_dim: int, edge_dim: int, hidden_dim: int,
                 time_dim: int) -> None:
        super().__init__()
        self.node_dim = node_dim
        self.edge_dim = edge_dim
        self.hidden_dim = hidden_dim
        self.time_dim = time_dim

    # -- layer-0 embeddings -------------------------------------------------------

    def base_embedding(self, node_feat: Optional[np.ndarray], count: int
                       ) -> Optional[Tensor]:
        """Layer-0 node state: projected raw features, or zeros when absent.

        A backbone whose :meth:`aggregate` accepts it may return ``None``
        instead of a zero tensor — the *zero state*.  It is a statement about
        structure (no node features to project), never the result of
        inspecting values, and it lets layer 1 skip the arithmetic on it.
        """
        raise NotImplementedError

    # -- per-layer aggregation ------------------------------------------------------

    def aggregate(self, layer: int, h_target: Optional[Tensor],
                  h_neighbors: Optional[Tensor], hop: HopData) -> Tensor:
        """COMB of layer ``layer`` (1-indexed): combine target and neighbor
        states (whatever :meth:`base_embedding` returns, at layer 1)."""
        raise NotImplementedError

    # -- recursive embedding computation ----------------------------------------------

    def embed(self, minibatch: MiniBatch) -> Tensor:
        """Compute final-layer dynamic embeddings of the mini-batch roots.

        The computation follows the standard recursive expansion: the hop-``l``
        targets' layer-``k`` embeddings are aggregated from their neighbors'
        layer-``k-1`` embeddings, which are themselves computed from hop
        ``l+1``.  The recursion depth equals :attr:`num_layers`, so the cost is
        the usual :math:`O(prod(budgets))` of sampled TGNN training.  A
        deduplicated hop is computed once per distinct target and gathered
        back through its :attr:`~repro.models.HopData.inverse`; the result has
        one row per root either way.
        """
        if minibatch.num_hops < self.num_layers:
            raise ValueError(
                f"minibatch has {minibatch.num_hops} hops but the model needs "
                f"{self.num_layers}")
        first = minibatch.hops[0]
        embeddings = self._embed_recursive(
            layer=self.num_layers,
            target_feat=minibatch.root_node_feat,
            num_targets=first.batch.batch_size,
            hops=minibatch.hops,
        )
        return embeddings if first.inverse is None else embeddings[first.inverse]

    def _embed_recursive(self, layer: int, target_feat: Optional[np.ndarray],
                         num_targets: int, hops: List[HopData]) -> Optional[Tensor]:
        if layer == 0:
            return self.base_embedding(target_feat, num_targets)
        hop, deeper = hops[0], hops[1:]
        # Previous-layer state of the targets themselves (the "self" query).
        h_target = self._embed_recursive(layer - 1, target_feat, num_targets, hops)
        # Previous-layer state of the neighbors, computed from the next hop:
        # one row per neighbor slot, or one per distinct next-hop target.
        n = hop.budget
        inverse = deeper[0].inverse if deeper else None
        if inverse is None:
            count = num_targets * n
            neigh_feat = None
            if hop.neigh_node_feat is not None:
                neigh_feat = hop.neigh_node_feat.reshape(count, -1)
        else:
            count = deeper[0].num_targets
            neigh_feat = deeper[0].target_node_feat
        h_neighbors = self._embed_recursive(layer - 1, neigh_feat, count, deeper)
        if h_neighbors is not None:
            if inverse is not None:
                h_neighbors = h_neighbors[inverse]
            h_neighbors = h_neighbors.reshape(num_targets, n, self.hidden_dim)
        return self.aggregate(layer, h_target, h_neighbors, hop)
