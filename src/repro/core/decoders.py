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
from ..tensor import Tensor, concatenate, get_backend

__all__ = ["NeighborDecoder", "LinearDecoder", "GATDecoder", "GATv2Decoder",
           "TransformerDecoder", "make_decoder", "DECODER_HIDDEN"]

#: hidden width of the GAT / GATv2 / transformer decoders.
DECODER_HIDDEN = 16


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
        """One graph node: ``score`` as one ``(1, d) @ (d, m R)`` product on
        the channel-major ``(d, m, R)`` transpose of ``z_neighbors`` — a view
        of the mixer block's output, which is laid out that way — whose
        backward hands the block the channel-major gradient ``w (x) g``.
        Neither direction transposes a full-size array (an input in any other
        layout is copied once).  The ``(R, m)`` scores are the transpose of a
        C-contiguous ``(m, R)`` array."""
        r, m, d = z_neighbors.shape
        w, b = self.score.weight, self.score.bias
        x2d = z_neighbors.data.transpose(2, 1, 0).reshape(d, -1)
        flat = get_backend().matmul(w.data, x2d)
        flat += b.data

        def rule(g):
            B = get_backend()
            g2d = np.ascontiguousarray(g.T).reshape(1, -1)
            # The outer product w (x) g as one multiply: a k = 1 GEMM runs
            # ten times slower on the same output.
            return (B.multiply(w.data.T, g2d).reshape(d, m, r).transpose(2, 1, 0)
                    if z_neighbors.requires_grad else None,
                    B.matmul(g2d, x2d.T) if w.requires_grad else None,
                    g2d.sum(axis=1) if b.requires_grad else None)
        return Tensor(flat.reshape(m, r).T, parents=(z_neighbors, w, b),
                      op="linear_decoder", rule=rule)


class GATDecoder(NeighborDecoder):
    """Eq. (18): additive GAT attention ``a^T [W z_u || W z_v]`` + LeakyReLU."""

    def __init__(self, enc_dim: int, target_dim: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.w_neighbor = Linear(enc_dim, DECODER_HIDDEN, bias=False, rng=rng)
        self.w_target = Linear(target_dim, DECODER_HIDDEN, bias=False, rng=rng)
        self.attn = Linear(2 * DECODER_HIDDEN, 1, bias=False, rng=rng)

    def forward(self, z_neighbors: Tensor, z_target: Tensor) -> Tensor:
        r, m, _ = z_neighbors.shape
        wu = self.w_neighbor(z_neighbors)                       # (R, m, H)
        wv = self.w_target(z_target).reshape(r, 1, -1).broadcast_to((r, m, wu.shape[-1]))
        scores = self.attn(concatenate([wu, wv], axis=-1)).leaky_relu(0.2)
        return scores.reshape(r, m)


class GATv2Decoder(NeighborDecoder):
    """Eq. (19): GATv2 — LeakyReLU inside, read-out vector outside."""

    def __init__(self, enc_dim: int, target_dim: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.w = Linear(enc_dim + target_dim, DECODER_HIDDEN, rng=rng)
        self.attn = Linear(DECODER_HIDDEN, 1, bias=False, rng=rng)

    def forward(self, z_neighbors: Tensor, z_target: Tensor) -> Tensor:
        r, m, _ = z_neighbors.shape
        zv = z_target.reshape(r, 1, -1).broadcast_to((r, m, z_target.shape[-1]))
        hidden = self.w(concatenate([z_neighbors, zv], axis=-1)).leaky_relu(0.2)
        return self.attn(hidden).reshape(r, m)


class TransformerDecoder(NeighborDecoder):
    """Eq. (20): scaled dot-product attention ``(W_t z_v)(W'_t Z)^T / sqrt(m)``."""

    def __init__(self, enc_dim: int, target_dim: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.w_query = Linear(target_dim, DECODER_HIDDEN, rng=rng)
        self.w_key = Linear(enc_dim, DECODER_HIDDEN, rng=rng)

    def forward(self, z_neighbors: Tensor, z_target: Tensor) -> Tensor:
        r, m, _ = z_neighbors.shape
        q = self.w_query(z_target).reshape(r, 1, -1)           # (R, 1, H)
        k = self.w_key(z_neighbors)                            # (R, m, H)
        scores = (q @ k.swapaxes(1, 2)) * (1.0 / np.sqrt(m))
        return scores.reshape(r, m)


def make_decoder(kind: str, enc_dim: int, target_dim: int,
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
    return kinds[kind](enc_dim, target_dim, rng=rng)
