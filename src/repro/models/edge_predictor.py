"""Edge predictor head for self-supervised dynamic link prediction."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import Linear, Module
from ..tensor import Tensor, concatenate

__all__ = ["EdgePredictor"]


class EdgePredictor(Module):
    """Two-layer MLP scoring a (source, destination) embedding pair.

    Produces a single logit per pair; the training loss is binary cross
    entropy against positive (observed) and negative (random-destination)
    edges (Eq. 10).
    """

    def __init__(self, embed_dim: int, hidden_dim: Optional[int] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        hidden_dim = hidden_dim if hidden_dim is not None else embed_dim
        self.src_proj = Linear(embed_dim, hidden_dim, rng=rng)
        self.dst_proj = Linear(embed_dim, hidden_dim, rng=rng)
        self.out = Linear(hidden_dim, 1, rng=rng)

    def forward(self, h_src: Tensor, h_dst: Tensor) -> Tensor:
        """Return logits of shape ``(B,)`` for ``B`` embedding pairs."""
        hidden = (self.src_proj(h_src) + self.dst_proj(h_dst)).relu()
        return self.out(hidden).reshape(-1)
