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
    ``log q_theta``, the Gumbel noise from the generator of the caller's
    tile (the sampler holds no random state); the log-probabilities of the
    selected neighbors are kept as autograd tensors so the REINFORCE sample
    loss (Eq. 23-26) can update ``theta``.

One hop is four graph nodes — encode, the mixer block, the decoder, the head
— each with an analytic backward (``docs/ARCHITECTURE.md``, "The adaptive
sampler"); the composition of encoder modules, ``Linear``,
``masked_softmax``, ``log`` and ``getitem`` nodes over all rows they replace
is the oracle of ``tests/test_core_sampler.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..encoders import FixedTimeEncoder, FrequencyEncoder
from ..nn import Linear, MixerBlock, Module
from ..sampling.base import NeighborBatch
from ..tensor import Tensor, concatenate
from ..tensor import functional as F
from .decoders import make_decoder

__all__ = ["NeighborSelection", "AdaptiveNeighborSampler"]

#: floor under a probability before its log is taken: a masked-out candidate
#: has probability exactly 0, and a dead row nothing else.
_PROB_FLOOR = 1e-20
_LOG_PROB_FLOOR = float(np.log(_PROB_FLOOR))


@dataclass
class NeighborSelection:
    """Result of one adaptive selection step."""

    #: column indices (into the candidate batch) of the selected neighbors, (R, n).
    columns: np.ndarray
    #: validity mask of the selected slots, (R, n).
    mask: np.ndarray
    #: log q_theta of the selected neighbors (autograd tensor), (R, n).
    log_prob: Tensor
    #: full candidate probability matrix q_theta, (R, m) (no gradient: the
    #: sample loss differentiates ``log_prob``).
    probabilities: np.ndarray


class AdaptiveNeighborSampler(Module):
    """Encoder-decoder adaptive neighbor sampler co-trained with the TGNN."""

    def __init__(self, node_dim: int, edge_dim: int, num_candidates: int,
                 feat_dim: int = 8, time_dim: int = 8, freq_dim: int = 8,
                 decoder: str = "linear",
                 use_frequency_encoding: bool = True,
                 use_identity_encoding: bool = True,
                 temperature: float = 1.0,
                 seed: int = 0,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(seed)
        if num_candidates <= 0:
            raise ValueError("num_candidates must be positive")
        if not temperature > 0:
            # The head divides by it; a negative one would invert the ranking.
            raise ValueError(f"temperature must be positive, got {temperature}")
        self.num_candidates = num_candidates
        self.node_dim = node_dim
        self.edge_dim = edge_dim
        self.use_frequency_encoding = use_frequency_encoding
        self.use_identity_encoding = use_identity_encoding
        self.temperature = temperature

        # To balance the impact of each information source the paper sets
        # d_feat = d_time = d_freq; we follow the same convention.
        self.feat_dim = feat_dim
        self.time_dim = time_dim
        self.freq_dim = freq_dim

        self.node_proj = Linear(node_dim, feat_dim, rng=rng) if node_dim else None
        self.edge_proj = Linear(edge_dim, feat_dim, rng=rng) if edge_dim else None
        self.time_encoder = FixedTimeEncoder(time_dim)
        self.freq_encoder = FrequencyEncoder(freq_dim) if use_frequency_encoding else None
        #: the leading encoder channels with a parameter behind them (the
        #: projections): the mixer block's input gradient is formed on these.
        self.live_channels = feat_dim * ((node_dim > 0) + (edge_dim > 0))

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
        self.decoder = make_decoder(decoder, enc_dim, target_dim, rng=rng)

    # ------------------------------------------------------------------ encoding

    def encode(self, candidates: NeighborBatch, edge_feat: Optional[np.ndarray],
               neigh_node_feat: Optional[np.ndarray]) -> Tensor:
        """Neighbor embeddings ``Z`` ``(R, m, enc_dim)``: one graph node
        (:func:`~repro.tensor.functional.sampler_encode`) that writes every
        part straight into the mixer block's channel-major input buffer."""
        r, m = candidates.nodes.shape
        feats, params = [], []
        for proj, x, dim in ((self.node_proj, neigh_node_feat, self.node_dim),
                             (self.edge_proj, edge_feat, self.edge_dim)):
            if proj is not None:
                feats.append(np.zeros((r, m, dim), dtype=proj.weight.dtype)
                             if x is None else x)
                params += [proj.weight, proj.bias]
        return F.sampler_encode(
            self.mixer.input_buffer(r), feats, params, candidates.delta_t(),
            self.time_encoder.omega, candidates.nodes, candidates.mask,
            None if self.freq_encoder is None else self.freq_encoder.inv_wavelength,
            self.use_identity_encoding)

    def target_embedding(self, rows: int,
                         target_node_feat: Optional[np.ndarray]) -> Tensor:
        """Target embedding ``(R, target_dim)`` (Eq. 21): node feature (if
        any), zero time encoding, frequency-one encoding.  Built only for the
        decoders that read it (:attr:`~repro.core.decoders.NeighborDecoder.uses_target`)."""
        parts = []
        if self.node_proj is not None:
            feats = Tensor(target_node_feat) if target_node_feat is not None \
                else Tensor.zeros(rows, self.node_dim)
            parts.append(self.node_proj(feats).gelu())
        parts.append(self.time_encoder(np.zeros(rows)))
        if self.freq_encoder is not None:
            parts.append(self.freq_encoder(np.ones(rows)))
        return concatenate(parts, axis=-1)

    # ------------------------------------------------------------------ one hop

    def forward(self, candidates: NeighborBatch, budget: int,
                edge_feat: Optional[np.ndarray] = None,
                neigh_node_feat: Optional[np.ndarray] = None,
                target_node_feat: Optional[np.ndarray] = None,
                rng: Optional[np.random.Generator] = None) -> NeighborSelection:
        """Score the candidates and draw ``budget`` of them per row, on the
        live rows: four graph nodes, encode -> mixer block -> decoder -> head
        (:func:`~repro.tensor.functional.sampler_head`).

        The head takes ``q = masked_softmax(scores / temperature)`` and, given
        the tile's generator ``rng``, draws without replacement by
        Gumbel-top-k over ``log q`` — an exact sample from the successive
        sampling-without-replacement process; without one it takes the
        ``budget`` most probable candidates (forward-only batches'
        variance-free inference).  A row with fewer valid
        candidates than ``budget`` keeps all of them and pads the rest
        (masked out downstream).

        A row is *dead* when it has no valid candidate (a padded frontier
        slot, a target without history): nothing can be selected from it and
        its REINFORCE coefficient is masked out.  Only the live rows are
        encoded, mixed and decoded — every stage is row-independent, so they
        read exactly what they would in the full batch.  Dead rows read
        columns ``0..n-1``, mask False, ``log_prob = log(1e-20)`` and
        probability 0.  The Gumbel noise is still drawn at ``(R, m)`` and
        sliced, so ``rng`` advances as if every row had been scored.
        """
        if candidates.budget != self.num_candidates:
            raise ValueError(
                f"sampler was built for m={self.num_candidates} candidates, got "
                f"{candidates.budget}")
        r, m = candidates.nodes.shape
        if budget > m:
            raise ValueError("selection budget exceeds the candidate budget")
        noise = None if rng is None else rng.gumbel(size=(r, m))
        live = np.flatnonzero(candidates.mask.any(axis=1))
        if live.size == 0:
            return NeighborSelection(
                columns=np.tile(np.arange(budget), (r, 1)),
                mask=np.zeros((r, budget), dtype=bool),
                log_prob=Tensor.zeros(r, budget) + _LOG_PROB_FLOOR,
                probabilities=np.zeros((r, m), dtype=self.mixer.token_norm.weight.dtype))

        def take(array):
            return None if array is None else array[live]
        alive = NeighborBatch(
            root_nodes=candidates.root_nodes[live], root_times=candidates.root_times[live],
            nodes=candidates.nodes[live], eids=candidates.eids[live],
            times=candidates.times[live], mask=candidates.mask[live])
        encoded = self.encode(alive, take(edge_feat), take(neigh_node_feat))
        mixed = self.mixer(encoded, mask=alive.mask, live_channels=self.live_channels)
        z_target = self.target_embedding(live.size, take(target_node_feat)) \
            if self.decoder.uses_target else None
        log_prob, columns, mask, probs = F.sampler_head(
            self.decoder(mixed, z_target), alive.mask, budget, self.temperature,
            take(noise), live, r, _PROB_FLOOR)
        return NeighborSelection(columns=columns, mask=mask, log_prob=log_prob,
                                 probabilities=probs)
