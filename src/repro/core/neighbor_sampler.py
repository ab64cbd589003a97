"""Temporal adaptive neighbor sampling (Section III-B).

The sampler is an encoder-decoder model that assigns every *candidate*
neighbor (pre-sampled by the static finder with budget ``m``) a probability
``q_theta(u | v)`` and then draws the ``n`` supporting neighbors the TGNN
actually aggregates.  It works **top-down**: the probabilities depend only on
raw node/edge features and on the temporal/frequency/identity encodings of
the candidate interactions — no hidden TGNN state is required (the paper's
Remark in Section III-B), so the cost does not grow with model depth.

Encoder (Eq. 12-15, 21)
    ``z_(u,t) = h(u) || h(v,u,t) || TE(dt) || FE(freq(u)) || IE(u)``
    with GeLU-projected node/edge features, GraphMixer's fixed time encoding,
    the sinusoidal frequency encoding and the pairwise identity encoding.

Decoder (Eq. 16-20)
    A 1-layer MLP-Mixer over the neighborhood followed by one of four
    predictor families (linear / GAT / GATv2 / transformer).

Selection
    ``n`` neighbors are drawn without replacement via Gumbel-top-k over
    ``log q_theta``; the log-probabilities of the selected neighbors are kept
    as autograd tensors so the REINFORCE sample loss (Eq. 23-26) can update
    ``theta``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..encoders import FixedTimeEncoder, FrequencyEncoder, IdentityEncoder, sort_by_recency
from ..nn import Linear, MixerBlock, Module
from ..sampling.base import NeighborBatch
from ..tensor import Tensor, concatenate
from ..tensor import functional as F
from ..utils.rng import new_rng
from .decoders import make_decoder

__all__ = ["NeighborSelection", "AdaptiveNeighborSampler"]


@dataclass
class NeighborSelection:
    """Result of one adaptive selection step."""

    #: column indices (into the candidate batch) of the selected neighbors, (R, n).
    columns: np.ndarray
    #: validity mask of the selected slots, (R, n).
    mask: np.ndarray
    #: log q_theta of the selected neighbors (autograd tensor), (R, n).
    log_prob: Tensor
    #: full candidate probability matrix (autograd tensor), (R, m).
    probabilities: Tensor


class AdaptiveNeighborSampler(Module):
    """Encoder-decoder adaptive neighbor sampler co-trained with the TGNN."""

    def __init__(self, node_dim: int, edge_dim: int, num_candidates: int,
                 feat_dim: int = 8, time_dim: int = 8, freq_dim: int = 8,
                 decoder: str = "linear", decoder_hidden: int = 16,
                 use_frequency_encoding: bool = True,
                 use_identity_encoding: bool = True,
                 temperature: float = 1.0,
                 seed: int = 0,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(seed)
        if num_candidates <= 0:
            raise ValueError("num_candidates must be positive")
        self.num_candidates = num_candidates
        self.node_dim = node_dim
        self.edge_dim = edge_dim
        self.use_frequency_encoding = use_frequency_encoding
        self.use_identity_encoding = use_identity_encoding
        self.temperature = temperature
        self._select_rng = new_rng(seed)

        # To balance the impact of each information source the paper sets
        # d_feat = d_time = d_freq; we follow the same convention.
        self.feat_dim = feat_dim
        self.time_dim = time_dim
        self.freq_dim = freq_dim

        self.node_proj = Linear(node_dim, feat_dim, rng=rng) if node_dim else None
        self.edge_proj = Linear(edge_dim, feat_dim, rng=rng) if edge_dim else None
        self.time_encoder = FixedTimeEncoder(time_dim)
        self.freq_encoder = FrequencyEncoder(freq_dim) if use_frequency_encoding else None
        self.identity_encoder = IdentityEncoder(num_candidates) if use_identity_encoding else None

        enc_dim = time_dim
        if node_dim:
            enc_dim += feat_dim
        if edge_dim:
            enc_dim += feat_dim
        if use_frequency_encoding:
            enc_dim += freq_dim
        if use_identity_encoding:
            enc_dim += num_candidates
        self.enc_dim = enc_dim

        target_dim = time_dim
        if node_dim:
            target_dim += feat_dim
        if use_frequency_encoding:
            target_dim += freq_dim
        self.target_dim = target_dim

        # Eq. 16: neighborhood-level mixing before scoring.  The expansion
        # ratios are kept small: the sampler runs on every hop of every
        # mini-batch, so its cost directly inflates the AS phase of Table III.
        self.mixer = MixerBlock(num_candidates, enc_dim, token_expansion=0.5,
                                channel_expansion=1.0, rng=rng)
        self.decoder = make_decoder(decoder, enc_dim, target_dim,
                                    hidden_dim=decoder_hidden, rng=rng)

    # ------------------------------------------------------------------ encoding

    def encode(self, candidates: NeighborBatch,
               edge_feat: Optional[np.ndarray],
               neigh_node_feat: Optional[np.ndarray],
               target_node_feat: Optional[np.ndarray]) -> Tuple[Tensor, Tensor]:
        """Build neighbor embeddings ``Z`` (R, m, enc_dim) and target embeddings."""
        if candidates.budget != self.num_candidates:
            raise ValueError(
                f"sampler was built for m={self.num_candidates} candidates, got "
                f"{candidates.budget}")
        r, m = candidates.nodes.shape
        parts = []
        if self.node_proj is not None:
            feats = neigh_node_feat if neigh_node_feat is not None \
                else np.zeros((r, m, self.node_dim))
            parts.append(self.node_proj(Tensor(feats)).gelu())
        if self.edge_proj is not None:
            feats = edge_feat if edge_feat is not None else np.zeros((r, m, self.edge_dim))
            parts.append(self.edge_proj(Tensor(feats)).gelu())
        parts.append(self.time_encoder(candidates.delta_t()))
        if self.freq_encoder is not None:
            parts.append(self.freq_encoder(candidates.frequencies()))
        if self.identity_encoder is not None:
            parts.append(self.identity_encoder(candidates.nodes, candidates.mask))
        z_neighbors = concatenate(parts, axis=-1)

        # Target embedding (Eq. 21): node feature (if any), zero time encoding,
        # frequency-one encoding.
        t_parts = []
        if self.node_proj is not None:
            feats = target_node_feat if target_node_feat is not None \
                else np.zeros((r, self.node_dim))
            t_parts.append(self.node_proj(Tensor(feats)).gelu())
        t_parts.append(self.time_encoder(np.zeros(r)))
        if self.freq_encoder is not None:
            t_parts.append(self.freq_encoder(np.ones(r)))
        z_target = concatenate(t_parts, axis=-1)
        return z_neighbors, z_target

    # ------------------------------------------------------------------ probabilities

    def probabilities(self, candidates: NeighborBatch,
                      edge_feat: Optional[np.ndarray] = None,
                      neigh_node_feat: Optional[np.ndarray] = None,
                      target_node_feat: Optional[np.ndarray] = None) -> Tensor:
        """Compute ``q_theta(u | v)`` over the candidate neighborhood, (R, m)."""
        z_neighbors, z_target = self.encode(candidates, edge_feat, neigh_node_feat,
                                            target_node_feat)
        mixed = self.mixer(z_neighbors, mask=candidates.mask)
        scores = self.decoder(mixed, z_target) * (1.0 / self.temperature)
        return F.masked_softmax(scores, candidates.mask, axis=-1)

    # ------------------------------------------------------------------ selection

    def select(self, probabilities: Tensor, mask: np.ndarray, budget: int,
               greedy: bool = False) -> NeighborSelection:
        """Draw ``budget`` neighbors per row without replacement from ``q_theta``.

        Gumbel-top-k over ``log q`` yields an exact sample from the successive
        sampling-without-replacement process.  Rows with fewer valid
        candidates than ``budget`` keep all their valid candidates and pad the
        remainder (padding slots are masked out downstream).  With
        ``greedy=True`` the top-``budget`` most probable neighbors are taken
        instead (used at evaluation time for variance-free inference).
        """
        probs = probabilities.data
        r, m = probs.shape
        if budget > m:
            raise ValueError("selection budget exceeds the candidate budget")
        log_p = np.log(np.maximum(probs, 1e-20))
        keys = log_p if greedy else log_p + self._select_rng.gumbel(size=(r, m))
        # Invalid candidates must sort last.
        keys = np.where(mask, keys, -np.inf)
        columns = np.argsort(-keys, axis=1, kind="stable")[:, :budget]
        sel_mask = np.take_along_axis(mask, columns, axis=1)

        rows = np.arange(r)[:, None]
        log_prob_full = (probabilities + 1e-20).log()
        log_prob = log_prob_full[rows, columns]
        return NeighborSelection(columns=columns, mask=sel_mask, log_prob=log_prob,
                                 probabilities=probabilities)

    # ------------------------------------------------------------------ convenience

    def forward(self, candidates: NeighborBatch, budget: int,
                edge_feat: Optional[np.ndarray] = None,
                neigh_node_feat: Optional[np.ndarray] = None,
                target_node_feat: Optional[np.ndarray] = None,
                greedy: bool = False) -> NeighborSelection:
        """Probability computation followed by selection in one call."""
        probs = self.probabilities(candidates, edge_feat, neigh_node_feat,
                                   target_node_feat)
        return self.select(probs, candidates.mask, budget, greedy=greedy)
