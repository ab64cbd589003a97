"""GraphMixer backbone (Cong et al., ICLR 2023) — Eq. (8)-(9) of the paper.

GraphMixer is a deliberately simple single-layer model: neighbor messages
(with a *fixed* cosine time encoding) pass through one MLP-Mixer block and are
mean-pooled over the neighborhood.  The reference configuration samples the
*most recent* neighbors rather than uniform ones.

The layer's aggregate is one graph node
(:func:`repro.tensor.functional.graphmixer_aggregate`); the modules here own
its parameters and the block's dropout generators.  Without node features the
layer-0 state is the *zero state* (``None``, see :mod:`repro.models.base`),
and the node skips the weight columns that would multiply it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..encoders import FixedTimeEncoder
from ..nn import Linear, MixerBlock
from ..tensor import Tensor
from ..tensor import functional as F
from .base import TGNNBackbone
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

    def base_embedding(self, node_feat: Optional[np.ndarray], count: int) -> Optional[Tensor]:
        if self.node_proj is not None and node_feat is not None:
            return self.node_proj(Tensor(node_feat))
        return None

    def aggregate(self, layer: int, h_target: Optional[Tensor],
                  h_neighbors: Optional[Tensor], hop: HopData) -> Tensor:
        batch = hop.batch
        rows, budget = batch.mask.shape
        if budget != self.num_neighbors:
            raise ValueError(
                f"GraphMixer was built for {self.num_neighbors} neighbors per node "
                f"but the mini-batch provides {budget}; the token-mixing MLP "
                "dimension is tied to the neighbor budget")
        mixer, out_proj = self.mixer, self.out_proj
        keep_t, keep_c = mixer.keep_masks(rows, out_proj.weight.data.dtype)
        params = (self.message_proj.weight, self.message_proj.bias,
                  *mixer.block_parameters(), out_proj.weight, out_proj.bias)
        return F.graphmixer_aggregate(
            batch.delta_t(), batch.mask, hop.edge_feat, h_target, h_neighbors,
            hop.gate, params, self.time_encoder.omega, keep_t, keep_c)
