"""Edge predictor head for self-supervised dynamic link prediction."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import Linear, Module
from ..tensor import Tensor
from ..tensor import functional as F

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
        """Return logits of shape ``(B,)`` for ``B`` embedding pairs: one
        graph node (:func:`repro.tensor.functional.edge_predictor`), bitwise
        equal to ``out(relu(src_proj(h_src) + dst_proj(h_dst)))`` composed."""
        src, dst, out = self.src_proj, self.dst_proj, self.out
        return F.edge_predictor(h_src, h_dst, (src.weight, src.bias, dst.weight, dst.bias,
                                               out.weight, out.bias))
