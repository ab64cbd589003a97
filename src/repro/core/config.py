"""Configuration of the TASER training pipeline.

The defaults mirror the paper's reference configuration (Section IV-A) scaled
to CPU-sized synthetic datasets: the paper trains 100-dimensional models for
200 epochs with batch size 600, m = 25 candidate neighbors and n = 10
supporting neighbors; the reproduction defaults are smaller so that the full
benchmark suite completes on a laptop CPU, and every field can be raised back
to the paper's values.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional

__all__ = ["TaserConfig", "asdict_shallow"]


def asdict_shallow(obj: Any) -> Dict[str, Any]:
    """Shallow ``asdict`` for dataclasses (does not recurse into fields).

    ``dataclasses.asdict`` deep-copies numpy arrays which is both slow and
    unnecessary for logging configuration values.  Lives here, in the repo's
    single config module.
    """
    if not dataclasses.is_dataclass(obj):
        raise TypeError(f"{obj!r} is not a dataclass instance")
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


@dataclass
class TaserConfig:
    """All knobs of a TASER (or baseline) training run."""

    # -- backbone -------------------------------------------------------------
    #: "tgat" (2-layer attention, uniform finder) or "graphmixer" (1-layer
    #: MLP-Mixer, most-recent finder).
    backbone: str = "tgat"
    #: hidden embedding dimension (paper: 100).
    hidden_dim: int = 32
    #: time-encoding dimension (paper: 100).
    time_dim: int = 16
    #: attention heads (TGAT only).
    num_heads: int = 2
    #: dropout probability.
    dropout: float = 0.1

    # -- sampling --------------------------------------------------------------
    #: supporting neighbors per node fed to the aggregator (paper: n = 10).
    num_neighbors: int = 10
    #: candidate neighbors pre-sampled by the finder for the adaptive sampler
    #: (paper: m = 25).  Ignored when adaptive neighbor sampling is off.
    num_candidates: int = 20
    #: neighbor finder implementation: "gpu", "original" or "tgl".
    finder: str = "gpu"
    #: static finder policy; None selects the backbone default
    #: (uniform for TGAT, most-recent for GraphMixer).
    finder_policy: Optional[str] = None

    # -- TASER switches -----------------------------------------------------------
    #: adaptive mini-batch selection (Section III-A).
    adaptive_minibatch: bool = True
    #: adaptive neighbor sampling (Section III-B).
    adaptive_neighbor: bool = True
    #: gamma — uniform mixture weight of the importance distribution (Eq. 11).
    gamma: float = 0.1
    #: neighbor-decoder family: "mlp_mixer" default routing ("linear", "gat",
    #: "gatv2", "transformer" select the predictor of Eq. 17-20).
    decoder: str = "linear"
    #: include the frequency encoding (Eq. 12) in the neighbor encoder.
    use_frequency_encoding: bool = True
    #: include the identity encoding (Eq. 13) in the neighbor encoder.
    use_identity_encoding: bool = True
    #: sample-loss estimator: "sensitivity" (generic) or "tgat_analytic" (Eq. 25).
    sample_loss: str = "sensitivity"
    #: alpha — gradient-variance control of the sample loss (Eq. 25).
    sample_alpha: float = 2.0
    #: beta — target-vs-neighbor importance ratio of the sample loss (Eq. 25).
    sample_beta: float = 1.0
    #: learning rate of the adaptive neighbor sampler.
    sampler_lr: float = 1e-3

    # -- optimisation -----------------------------------------------------------------
    #: learning rate of the TGNN and edge predictor (paper: 1e-4).
    lr: float = 1e-3
    #: training batch size (paper: 600).
    batch_size: int = 200
    #: number of training epochs (paper: 200).
    epochs: int = 10
    #: cap on mini-batches per epoch (None = cover the whole training set, as
    #: the paper does; a finite cap trades epoch coverage for wall-clock when
    #: running the benchmark suite on a CPU).
    max_batches_per_epoch: Optional[int] = None
    #: gradient-norm clip (0 disables).
    grad_clip: float = 5.0

    # -- mini-batch engine ----------------------------------------------------------
    #: Every batch is generated inside the training loop; "sync" is the only
    #: legal value.  The field stays because the frozen
    #: benchmarks/e2e/workloads.py:46 passes ``batch_engine="sync"``.
    batch_engine: str = "sync"

    # -- memory hierarchy ---------------------------------------------------------------
    #: fraction of edge features cached in simulated VRAM (0 disables the cache).
    cache_ratio: float = 0.2
    #: cache replacement threshold epsilon (Algorithm 3).
    cache_epsilon: float = 0.8

    # -- evaluation -----------------------------------------------------------------------
    #: negative destinations per positive when computing MRR (paper: 49).
    eval_negatives: int = 49
    #: cap on the number of evaluation edges per split (None = all).
    eval_max_edges: Optional[int] = 300

    # -- bookkeeping ------------------------------------------------------------------------
    seed: int = 0

    def __post_init__(self) -> None:
        if self.backbone not in ("tgat", "graphmixer"):
            raise ValueError("backbone must be 'tgat' or 'graphmixer'")
        if self.finder not in ("gpu", "original", "tgl"):
            raise ValueError("finder must be one of 'gpu', 'original', 'tgl'")
        if self.decoder not in ("linear", "gat", "gatv2", "transformer"):
            raise ValueError("decoder must be linear/gat/gatv2/transformer")
        if self.sample_loss not in ("sensitivity", "tgat_analytic"):
            raise ValueError("sample_loss must be 'sensitivity' or 'tgat_analytic'")
        if self.num_candidates < self.num_neighbors:
            raise ValueError("num_candidates (m) must be >= num_neighbors (n)")
        if not 0.0 <= self.cache_ratio <= 1.0:
            raise ValueError("cache_ratio must be in [0, 1]")
        if self.batch_engine != "sync":
            raise ValueError(
                f"unknown batch_engine {self.batch_engine!r}: 'sync' is the "
                "only batch engine (choose 'sync' or leave the default)")
        for name in ("hidden_dim", "num_neighbors"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)}")
        if self.adaptive_minibatch and self.finder == "tgl":
            raise ValueError(
                "the TGL pointer-array finder only supports chronological order and "
                "cannot be combined with adaptive mini-batch selection (Section IV-C)")

    @property
    def num_layers(self) -> int:
        """TGAT is a 2-layer model, GraphMixer a 1-layer model (paper setup)."""
        return 2 if self.backbone == "tgat" else 1

    @property
    def resolved_finder_policy(self) -> str:
        if self.finder_policy is not None:
            return self.finder_policy
        return "uniform" if self.backbone == "tgat" else "recent"

    def variant_name(self) -> str:
        """Row label matching Table I."""
        if self.adaptive_minibatch and self.adaptive_neighbor:
            return "TASER"
        if self.adaptive_minibatch:
            return "w/ Ada. Mini-Batch"
        if self.adaptive_neighbor:
            return "w/ Ada. Neighbor"
        return "Baseline"
