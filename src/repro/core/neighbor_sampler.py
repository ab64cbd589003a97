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
               target_node_feat: Optional[np.ndarray]
               ) -> Tuple[Tensor, Optional[Tensor]]:
        """Build neighbor embeddings ``Z`` (R, m, enc_dim) and target embeddings.

        The target embedding is ``None`` when the decoder does not read it
        (:attr:`~repro.core.decoders.NeighborDecoder.uses_target`).
        """
        if candidates.budget != self.num_candidates:
            raise ValueError(
                f"sampler was built for m={self.num_candidates} candidates, got "
                f"{candidates.budget}")
        r, m = candidates.nodes.shape
        parts = []
        if self.node_proj is not None:
            feats = Tensor(neigh_node_feat) if neigh_node_feat is not None \
                else Tensor.zeros(r, m, self.node_dim)
            parts.append(self.node_proj(feats).gelu())
        if self.edge_proj is not None:
            feats = Tensor(edge_feat) if edge_feat is not None \
                else Tensor.zeros(r, m, self.edge_dim)
            parts.append(self.edge_proj(feats).gelu())
        parts.append(self.time_encoder(candidates.delta_t()))
        if self.freq_encoder is not None:
            parts.append(self.freq_encoder(candidates.frequencies()))
        if self.identity_encoder is not None:
            parts.append(self.identity_encoder(candidates.nodes, candidates.mask))
        # Written straight into the mixer kernel's channel-major input.
        z_neighbors = concatenate(parts, axis=-1, out=self.mixer.input_buffer(r))
        if not self.decoder.uses_target:
            return z_neighbors, None

        # Target embedding (Eq. 21): node feature (if any), zero time encoding,
        # frequency-one encoding.
        t_parts = []
        if self.node_proj is not None:
            feats = Tensor(target_node_feat) if target_node_feat is not None \
                else Tensor.zeros(r, self.node_dim)
            t_parts.append(self.node_proj(feats).gelu())
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

    @staticmethod
    def _check_budget(budget: int, m: int) -> None:
        if budget > m:
            raise ValueError("selection budget exceeds the candidate budget")

    def _gumbel(self, shape: Tuple[int, int], greedy: bool) -> Optional[np.ndarray]:
        """The selection noise of one call (``None`` for greedy selection)."""
        return None if greedy else self._select_rng.gumbel(size=shape)

    def _pick(self, probabilities: Tensor, mask: np.ndarray, budget: int,
              noise: Optional[np.ndarray]) -> NeighborSelection:
        """Gumbel-top-k over ``log q`` perturbed by ``noise``."""
        keys = np.log(np.maximum(probabilities.data, _PROB_FLOOR))
        if noise is not None:
            # Out of place: the float64 noise is not rounded into the keys.
            keys = keys + noise
        # Invalid candidates must sort last.
        keys = np.where(mask, keys, -np.inf)
        columns = np.argsort(-keys, axis=1, kind="stable")[:, :budget]
        sel_mask = np.take_along_axis(mask, columns, axis=1)

        rows = np.arange(len(columns))[:, None]
        log_prob_full = (probabilities + _PROB_FLOOR).log()
        log_prob = log_prob_full[rows, columns]
        return NeighborSelection(columns=columns, mask=sel_mask, log_prob=log_prob,
                                 probabilities=probabilities)

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
        self._check_budget(budget, probabilities.shape[1])
        return self._pick(probabilities, mask, budget,
                          self._gumbel(probabilities.shape, greedy))

    # ------------------------------------------------------------------ convenience

    def forward(self, candidates: NeighborBatch, budget: int,
                edge_feat: Optional[np.ndarray] = None,
                neigh_node_feat: Optional[np.ndarray] = None,
                target_node_feat: Optional[np.ndarray] = None,
                greedy: bool = False) -> NeighborSelection:
        """Probability computation followed by selection, on the live rows.

        A row is *dead* when it has no valid candidate (a padded frontier
        slot, a target without history): its probabilities are identically
        zero, nothing can be selected from it and its REINFORCE coefficient
        is masked out.  Only the live rows are encoded, mixed and decoded —
        every stage is row-independent, so they read exactly what they would
        in the full batch — and the results are scattered back to ``(R, .)``.
        Dead rows read columns ``0..n-1``, mask False, ``log_prob =
        log(1e-20)`` and probability 0, the values :meth:`probabilities` +
        :meth:`select` give them.  The Gumbel noise is still drawn at
        ``(R, m)`` and sliced, so the selection RNG advances as if every row
        had been scored.
        """
        r, m = candidates.nodes.shape
        self._check_budget(budget, m)
        noise = self._gumbel((r, m), greedy)
        live = np.flatnonzero(candidates.mask.any(axis=1))
        columns = np.tile(np.arange(budget), (r, 1))
        mask = np.zeros((r, budget), dtype=bool)
        if live.size == 0:
            return NeighborSelection(
                columns=columns, mask=mask,
                log_prob=Tensor.zeros(r, budget) + _LOG_PROB_FLOOR,
                probabilities=Tensor.zeros(r, m))

        def take(array):
            return None if array is None else array[live]
        alive = NeighborBatch(
            root_nodes=candidates.root_nodes[live], root_times=candidates.root_times[live],
            nodes=candidates.nodes[live], eids=candidates.eids[live],
            times=candidates.times[live], mask=candidates.mask[live])
        probs = self.probabilities(alive, take(edge_feat), take(neigh_node_feat),
                                   take(target_node_feat))
        picked = self._pick(probs, alive.mask, budget, take(noise))
        columns[live] = picked.columns
        mask[live] = picked.mask
        return NeighborSelection(
            columns=columns, mask=mask,
            log_prob=F.scatter_rows(picked.log_prob, live, r, fill=_LOG_PROB_FLOOR),
            probabilities=F.scatter_rows(probs, live, r))
