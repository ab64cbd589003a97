"""MLP-Mixer blocks (Tolstikhin et al., 2021) adapted to neighborhood sets.

GraphMixer (Cong et al., 2023) aggregates a node's temporal neighborhood with
a single MLP-Mixer layer followed by a mean over the neighbor ("token") axis.
TASER reuses the same block inside its adaptive neighbor *decoder* (Eq. 16),
mixing first the hidden (channel) dimension and then the neighbor dimension so
that each neighbor's importance score can depend on the rest of the
neighborhood.

Input layout is ``(batch, num_neighbors, channels)``.

The GELU feed-forward sub-blocks and the layer norms run on the model's
largest activations, so each is a handful of passes: ``Linear`` and
``LayerNorm`` are single graph nodes over backend kernels shared by every
backend, and the GELU / mask / residual ops dispatch through the active array
backend (:mod:`repro.tensor.backend`) — reused workspace buffers under
``fused``, bitwise-identical results either way.  Every row of the batch is
mixed independently of the others, which is what lets the adaptive sampler
run the block on its live rows only.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tensor import Tensor
from ..tensor import functional as F
from .layers import Dropout, LayerNorm, Linear
from .module import Module

__all__ = ["FeedForward", "MixerBlock"]


class FeedForward(Module):
    """Two-layer GELU MLP used inside the mixer block."""

    def __init__(self, dim: int, hidden_dim: int, dropout: float = 0.0,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.fc1 = Linear(dim, hidden_dim, rng=rng)
        self.fc2 = Linear(hidden_dim, dim, rng=rng)
        self.drop = Dropout(dropout, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(self.drop(self.fc1(x).gelu()))


class MixerBlock(Module):
    """One MLP-Mixer block with token-mixing and channel-mixing sub-blocks.

    Parameters
    ----------
    num_tokens:
        Number of neighbors per neighborhood (the fixed budget ``n``).
    dim:
        Channel (feature) dimension of each neighbor embedding.
    token_expansion / channel_expansion:
        Hidden-layer expansion ratios of the two feed-forward sub-blocks.
    """

    def __init__(self, num_tokens: int, dim: int,
                 token_expansion: float = 0.5, channel_expansion: float = 2.0,
                 dropout: float = 0.0,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.num_tokens = num_tokens
        self.dim = dim
        self.token_norm = LayerNorm(dim)
        self.token_mlp = FeedForward(num_tokens, max(1, int(num_tokens * token_expansion)),
                                     dropout, rng=rng)
        self.channel_norm = LayerNorm(dim)
        self.channel_mlp = FeedForward(dim, max(1, int(dim * channel_expansion)),
                                       dropout, rng=rng)

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        """Apply the block.

        Parameters
        ----------
        x:
            ``(batch, num_tokens, dim)`` neighbor embeddings.
        mask:
            Optional boolean array ``(batch, num_tokens)`` marking valid
            neighbors; padded entries are zeroed before token mixing so they
            cannot leak information into the valid positions.
        """
        fmask = None
        if mask is not None:
            # One float mask for both gating points: the conversion is mask
            # plumbing, everything downstream dispatches through the array
            # backend via the Tensor ops.
            fmask = Tensor(np.asarray(mask, dtype=np.float64)[..., None])
            x = x * fmask
        # Token mixing: transpose to (batch, dim, tokens), MLP over tokens.
        h = self.token_norm(x).swapaxes(1, 2)
        h = self.token_mlp(h).swapaxes(1, 2)
        x = x + h
        # Channel mixing.
        x = x + self.channel_mlp(self.channel_norm(x))
        if fmask is not None:
            x = x * fmask
        return x
