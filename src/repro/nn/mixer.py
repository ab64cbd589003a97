"""MLP-Mixer blocks (Tolstikhin et al., 2021) adapted to neighborhood sets.

GraphMixer (Cong et al., 2023) aggregates a node's temporal neighborhood with
a single MLP-Mixer layer followed by a mean over the neighbor ("token") axis.
TASER reuses the same block inside its adaptive neighbor *decoder* (Eq. 16),
mixing first the hidden (channel) dimension and then the neighbor dimension so
that each neighbor's importance score can depend on the rest of the
neighborhood.

Input layout is ``(batch, num_neighbors, channels)``; the kernel pair computes
on its channel-major ``(channels, num_neighbors, batch)`` transpose, and
:meth:`MixerBlock.input_buffer` hands a caller an input array already laid out
that way.

The block runs on the model's largest activations, so its forward is one
graph node (:func:`repro.tensor.functional.mixer_block`) with an analytic
backward over a kernel pair of the array runtime; the composition of
``LayerNorm`` / ``FeedForward`` / mask / residual ops it replaces is the
oracle of ``tests/test_tensor_ops.py``.  Every row of the batch is mixed
independently of the others, which is what lets the adaptive sampler run the
block on its live rows only.
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

    def input_buffer(self, rows: int) -> np.ndarray:
        """An uninitialised ``(rows, num_tokens, dim)`` array in the dtype of
        the block's parameters, laid out the way the block's kernel reads its
        input — the transpose of a C-contiguous ``(dim, num_tokens, rows)``
        array — so an input written into it (``F.sampler_encode``,
        ``concatenate(..., out=)``) reaches the kernel without a copy.  Under
        ``no_grad`` the block computes its output in that buffer."""
        return np.empty((self.dim, self.num_tokens, rows),
                        dtype=self.token_norm.weight.dtype).transpose(2, 1, 0)

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None,
                live_channels: Optional[int] = None) -> Tensor:
        """Apply the block.

        Parameters
        ----------
        x:
            ``(batch, num_tokens, dim)`` neighbor embeddings.
        mask:
            Optional boolean array ``(batch, num_tokens)`` marking valid
            neighbors; padded entries are zeroed before token mixing so they
            cannot leak information into the valid positions.
        live_channels:
            How many leading channels of ``x`` want a gradient (``None``:
            all); the others read zero (:func:`~repro.tensor.functional.mixer_block`).
        """
        fmask = None if mask is None else np.asarray(mask, dtype=x.dtype)[..., None]
        keep_t, keep_c = self.keep_masks(x.shape[0], x.dtype)
        return F.mixer_block(x, fmask, self.block_parameters(), keep_t, keep_c,
                             live_channels=live_channels)

    def block_parameters(self) -> tuple:
        """The block's twelve parameters in registration order — the
        ``params`` of :func:`~repro.tensor.functional.mixer_block`."""
        token, channel = self.token_mlp, self.channel_mlp
        return (self.token_norm.weight, self.token_norm.bias,
                token.fc1.weight, token.fc1.bias, token.fc2.weight, token.fc2.bias,
                self.channel_norm.weight, self.channel_norm.bias,
                channel.fc1.weight, channel.fc1.bias, channel.fc2.weight, channel.fc2.bias)

    def keep_masks(self, rows: int, dtype):
        """``(keep_t, keep_c)``: the dropout keep-masks of a ``rows``-row
        input, drawn in the composed block's order and shapes (token mixing
        ran on the ``(rows, dim, tokens)`` transpose); ``None`` each when
        dropout is off."""
        token, channel = self.token_mlp, self.channel_mlp
        keep_t = token.drop.keep_mask((rows, self.dim, token.fc1.out_features), dtype)
        if keep_t is not None:
            keep_t = keep_t.swapaxes(1, 2)
        keep_c = channel.drop.keep_mask((rows, self.num_tokens, channel.fc1.out_features),
                                        dtype)
        return keep_t, keep_c
