"""Neighbor decoders: turn neighbor embeddings into sampling scores.

The TASER neighbor decoder first mixes the encoded neighborhood with a
1-layer MLP-Mixer (Eq. 16) and then applies one of four predictor families
(Eq. 17-20) to produce an importance distribution ``q(u | v)`` over the
candidate neighbors:

* ``linear``       — a per-neighbor linear read-out of the mixed embedding,
* ``gat``          — GAT-style additive attention against the target embedding,
* ``gatv2``        — GATv2 attention (LeakyReLU applied before the read-out),
* ``transformer``  — scaled dot-product attention between target and neighbors.

The paper observes a strong affinity between decoder and backbone (GATv2
pairs best with TGAT, the plain MLP-Mixer/linear read-out with GraphMixer);
the decoder ablation bench sweeps all four.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import Linear, Module
from ..nn.layers import Activation
from ..tensor import Tensor, concatenate

__all__ = ["NeighborDecoder", "LinearDecoder", "GATDecoder", "GATv2Decoder",
           "TransformerDecoder", "make_decoder"]


class NeighborDecoder(Module):
    """Interface: score candidate neighbors given target context.

    ``forward(z_neighbors, z_target)`` with ``z_neighbors`` of shape
    ``(R, m, d_enc)`` and ``z_target`` of shape ``(R, d_tgt)`` returns raw
    (pre-softmax) scores of shape ``(R, m)``.
    """

    #: whether :meth:`forward` reads ``z_target``; the sampler builds the
    #: target embedding only for decoders that do and passes ``None`` otherwise.
    uses_target = True

    def forward(self, z_neighbors: Tensor, z_target: Optional[Tensor]) -> Tensor:
        raise NotImplementedError


class LinearDecoder(NeighborDecoder):
    """Eq. (17): per-neighbor linear read-out ``w_l Z``."""

    uses_target = False

    def __init__(self, enc_dim: int, target_dim: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.score = Linear(enc_dim, 1, rng=rng)

    def forward(self, z_neighbors: Tensor, z_target: Optional[Tensor]) -> Tensor:
        return self.score(z_neighbors).reshape(z_neighbors.shape[0], z_neighbors.shape[1])


class GATDecoder(NeighborDecoder):
    """Eq. (18): additive GAT attention ``a^T [W z_u || W z_v]`` + LeakyReLU."""

    def __init__(self, enc_dim: int, target_dim: int, hidden_dim: int = 32,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.w_neighbor = Linear(enc_dim, hidden_dim, bias=False, rng=rng)
        self.w_target = Linear(target_dim, hidden_dim, bias=False, rng=rng)
        self.attn = Linear(2 * hidden_dim, 1, bias=False, rng=rng)

    def forward(self, z_neighbors: Tensor, z_target: Tensor) -> Tensor:
        r, m, _ = z_neighbors.shape
        wu = self.w_neighbor(z_neighbors)                       # (R, m, H)
        wv = self.w_target(z_target).reshape(r, 1, -1).broadcast_to((r, m, wu.shape[-1]))
        scores = self.attn(concatenate([wu, wv], axis=-1)).leaky_relu(0.2)
        return scores.reshape(r, m)


class GATv2Decoder(NeighborDecoder):
    """Eq. (19): GATv2 — LeakyReLU inside, read-out vector outside."""

    def __init__(self, enc_dim: int, target_dim: int, hidden_dim: int = 32,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.w = Linear(enc_dim + target_dim, hidden_dim, rng=rng)
        self.attn = Linear(hidden_dim, 1, bias=False, rng=rng)

    def forward(self, z_neighbors: Tensor, z_target: Tensor) -> Tensor:
        r, m, _ = z_neighbors.shape
        zv = z_target.reshape(r, 1, -1).broadcast_to((r, m, z_target.shape[-1]))
        hidden = self.w(concatenate([z_neighbors, zv], axis=-1)).leaky_relu(0.2)
        return self.attn(hidden).reshape(r, m)


class TransformerDecoder(NeighborDecoder):
    """Eq. (20): scaled dot-product attention ``(W_t z_v)(W'_t Z)^T / sqrt(m)``."""

    def __init__(self, enc_dim: int, target_dim: int, hidden_dim: int = 32,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.w_query = Linear(target_dim, hidden_dim, rng=rng)
        self.w_key = Linear(enc_dim, hidden_dim, rng=rng)

    def forward(self, z_neighbors: Tensor, z_target: Tensor) -> Tensor:
        r, m, _ = z_neighbors.shape
        q = self.w_query(z_target).reshape(r, 1, -1)           # (R, 1, H)
        k = self.w_key(z_neighbors)                            # (R, m, H)
        scores = (q @ k.swapaxes(1, 2)) * (1.0 / np.sqrt(m))
        return scores.reshape(r, m)


def make_decoder(kind: str, enc_dim: int, target_dim: int, hidden_dim: int = 32,
                 rng: Optional[np.random.Generator] = None) -> NeighborDecoder:
    """Factory over the four decoder families of Eq. (17)-(20)."""
    kinds = {
        "linear": LinearDecoder,
        "gat": GATDecoder,
        "gatv2": GATv2Decoder,
        "transformer": TransformerDecoder,
    }
    if kind not in kinds:
        raise ValueError(f"unknown decoder {kind!r}; choose from {sorted(kinds)}")
    if kind == "linear":
        return LinearDecoder(enc_dim, target_dim, rng=rng)
    return kinds[kind](enc_dim, target_dim, hidden_dim=hidden_dim, rng=rng)
