"""GraphMixer backbone (Cong et al., ICLR 2023) — Eq. (8)-(9) of the paper.

GraphMixer is a deliberately simple single-layer model: neighbor messages
(with a *fixed* cosine time encoding) pass through one MLP-Mixer block and are
mean-pooled over the neighborhood.  The reference configuration samples the
*most recent* neighbors rather than uniform ones.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..encoders import FixedTimeEncoder
from ..nn import Linear, MixerBlock, Module
from ..tensor import Tensor, concatenate
from .base import TGNNBackbone, build_messages
from .minibatch import HopData

__all__ = ["GraphMixer"]


class GraphMixer(TGNNBackbone):
    """Single-layer MLP-Mixer temporal aggregator."""

    num_layers = 1

    def __init__(self, node_dim: int, edge_dim: int, hidden_dim: int = 100,
                 time_dim: int = 100, num_neighbors: int = 10,
                 dropout: float = 0.1,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__(node_dim, edge_dim, hidden_dim, time_dim)
        rng = rng if rng is not None else np.random.default_rng()
        self.num_neighbors = num_neighbors
        self.time_encoder = FixedTimeEncoder(time_dim)
        self.node_proj = Linear(node_dim, hidden_dim, rng=rng) if node_dim else None
        message_dim = hidden_dim + edge_dim + time_dim
        self.message_proj = Linear(message_dim, hidden_dim, rng=rng)
        self.mixer = MixerBlock(num_neighbors, hidden_dim, dropout=dropout, rng=rng)
        self.out_proj = Linear(hidden_dim + hidden_dim, hidden_dim, rng=rng)

    # -- TGNNBackbone hooks -------------------------------------------------------------

    def base_embedding(self, node_feat: Optional[np.ndarray], count: int) -> Tensor:
        if self.node_proj is not None and node_feat is not None:
            return self.node_proj(Tensor(node_feat))
        return Tensor.zeros(count, self.hidden_dim)

    def aggregate(self, layer: int, h_target: Tensor, h_neighbors: Tensor,
                  hop: HopData) -> Tensor:
        if hop.budget != self.num_neighbors:
            raise ValueError(
                f"GraphMixer was built for {self.num_neighbors} neighbors per node "
                f"but the mini-batch provides {hop.budget}; the token-mixing MLP "
                "dimension is tied to the neighbor budget")
        delta = hop.batch.delta_t()
        time_enc = self.time_encoder(delta)
        messages = build_messages(h_neighbors, hop.edge_feat, time_enc, gate=hop.gate)
        tokens = self.message_proj(messages)
        mixed = self.mixer(tokens, mask=hop.batch.mask)
        # The block zeroes the masked tokens itself, so the mean over the
        # valid ones is a plain sum over the valid count.
        count = np.maximum(hop.batch.mask.sum(axis=1, keepdims=True), 1)
        pooled = mixed.sum(axis=1) / Tensor(count.astype(mixed.dtype))
        return self.out_proj(concatenate([pooled, h_target], axis=-1))
