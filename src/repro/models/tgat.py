"""TGAT backbone (Xu et al., ICLR 2020) — Eq. (3)-(7) of the TASER paper.

TGAT aggregates a node's sampled temporal neighborhood with self-attention:
the query is the target's previous-layer state concatenated with the
zero-timespan encoding, keys/values are the neighbor messages
``h_u || x_uvt || Phi(dt)`` with a *learnable* time encoding
``Phi(dt) = cos(dt w + b)``.  The reference configuration is two layers with
uniformly sampled neighbors.

One layer's aggregate is one graph node
(:func:`repro.tensor.functional.temporal_attention`); the modules here own
its parameters and dropout generators.  Without node features the layer-0
state is the *zero state* (``None``, see :mod:`repro.models.base`), and the
node skips the weight columns that would multiply it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..encoders import LearnableTimeEncoder
from ..nn import Linear, Module, ModuleList, TemporalAttention
from ..nn.layers import Dropout
from ..tensor import Tensor
from ..tensor import functional as F
from .base import TGNNBackbone
from .minibatch import HopData

__all__ = ["TGAT"]


class _TGATLayer(Module):
    """One attention layer plus the output feed-forward merge."""

    def __init__(self, hidden_dim: int, edge_dim: int, time_dim: int,
                 num_heads: int, dropout: float,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        query_dim = hidden_dim + time_dim
        message_dim = hidden_dim + edge_dim + time_dim
        self.attention = TemporalAttention(query_dim, message_dim, hidden_dim,
                                           num_heads=num_heads, dropout=dropout, rng=rng)
        self.merge1 = Linear(hidden_dim + hidden_dim, hidden_dim, rng=rng)
        self.merge2 = Linear(hidden_dim, hidden_dim, rng=rng)
        self.drop = Dropout(dropout, rng=rng)
        #: attention weights of the latest forward pass (numpy), used by the
        #: analytic TGAT sample-loss estimator (Eq. 25).
        self.last_attention: Optional[np.ndarray] = None

    def forward(self, time_encoder: LearnableTimeEncoder, h_target: Optional[Tensor],
                h_neighbors: Optional[Tensor], hop: HopData) -> Tensor:
        attention = self.attention
        # The keep-masks of the two dropouts, in the order they apply.
        shape = (hop.num_targets, attention.out_dim)
        dtype = self.merge2.weight.dtype
        keep_attn = attention.drop.keep_mask(shape, dtype)
        keep_merge = self.drop.keep_mask(shape, dtype)
        out, self.last_attention = F.temporal_attention(
            hop.batch.delta_t(), hop.batch.mask, hop.edge_feat, h_target, h_neighbors,
            hop.gate, (*time_encoder.parameters(), *self.parameters()),
            attention.num_heads, keep_attn, keep_merge)
        return out


class TGAT(TGNNBackbone):
    """Two-layer (configurable) attention-based temporal GNN."""

    def __init__(self, node_dim: int, edge_dim: int, hidden_dim: int = 100,
                 time_dim: int = 100, num_layers: int = 2, num_heads: int = 2,
                 dropout: float = 0.1,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__(node_dim, edge_dim, hidden_dim, time_dim)
        rng = rng if rng is not None else np.random.default_rng()
        self.num_layers = num_layers
        self.time_encoder = LearnableTimeEncoder(time_dim, rng=rng)
        self.node_proj = Linear(node_dim, hidden_dim, rng=rng) if node_dim else None
        self.layers = ModuleList([
            _TGATLayer(hidden_dim, edge_dim, time_dim, num_heads, dropout, rng=rng)
            for _ in range(num_layers)
        ])

    # -- TGNNBackbone hooks ----------------------------------------------------------

    def base_embedding(self, node_feat: Optional[np.ndarray], count: int) -> Optional[Tensor]:
        if self.node_proj is not None and node_feat is not None:
            return self.node_proj(Tensor(node_feat))
        return None

    def aggregate(self, layer: int, h_target: Optional[Tensor],
                  h_neighbors: Optional[Tensor], hop: HopData) -> Tensor:
        return self.layers[layer - 1](self.time_encoder, h_target, h_neighbors, hop)

    # -- introspection for the analytic sample loss -------------------------------------

    def last_layer_attention(self) -> Optional[np.ndarray]:
        """Head-averaged attention weights of the outermost layer, one row per
        target of the first hop: shape (B, n) for a training batch."""
        attn = self.layers[self.num_layers - 1].last_attention
        return None if attn is None else attn.mean(axis=1)
