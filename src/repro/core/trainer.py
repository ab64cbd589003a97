"""End-to-end TASER training (Algorithm 1) and its baselines.

:class:`TaserTrainer` wires together every subsystem: the T-CSR graph, a
neighbor finder, the simulated memory hierarchy with its feature cache, the
TGNN backbone with its edge predictor, and — depending on the configuration —
the adaptive mini-batch selector and the adaptive neighbor sampler.  The four
rows of the paper's Table I correspond to the four combinations of the two
``adaptive_*`` switches in :class:`~repro.core.config.TaserConfig`.

Runtime is recorded per phase with the section names of Table III:
``NF`` (neighbor finding), ``AS`` (adaptive neighbor sampling), ``FS``
(feature slicing, including the simulated PCIe/VRAM transfer time) and ``PP``
(forward/backward propagation and optimiser steps).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..device.cache import DynamicFeatureCache, TieredFeatureCache
from ..device.costmodel import TransferCostModel
from ..device.memory import FeatureStore
from ..eval.evaluator import LinkPredictionEvaluator
from ..eval.negative_sampling import NegativeSampler
from ..graph.splits import TemporalSplit, chronological_split
from ..graph.tcsr import build_tcsr
from ..graph.temporal_graph import TemporalGraph
from ..models import EdgePredictor, make_backbone
from ..optim import Adam, clip_grad_norm
from ..sampling import make_finder
from ..tensor import Tensor, get_backend
from ..tensor import functional as F
from ..utils.rng import spawn_rngs
from ..utils.timer import Timer
from .config import TaserConfig
from .minibatch_selector import AdaptiveMiniBatchSelector, ChronologicalSelector
from .neighbor_sampler import AdaptiveNeighborSampler
from .pipeline import MiniBatchGenerator
from .prefetcher import make_engine
from .prep import PreparedBatch, PrepPipeline
from .sample_loss import build_sample_loss

__all__ = ["EpochStats", "TrainStep", "TrainResult", "TaserTrainer"]


@dataclass
class EpochStats:
    """Per-epoch training statistics."""

    epoch: int
    model_loss: float
    sample_loss: float
    runtime: Dict[str, float]
    cache_hit_rate: float
    effective_sample_size: float
    #: per-batch model losses in training order (the batch engines' bitwise
    #: determinism contract is asserted against these).
    batch_losses: List[float] = field(default_factory=list)
    #: batch engine mode actually in effect this epoch (after fallback).
    engine_mode: str = "sync"
    #: prep-runtime gather dedup ratio of the epoch (requested candidate id
    #: occurrences / unique ids gathered at the feature-store choke point).
    dedup_ratio: float = 1.0
    #: feature-store precision tier the epoch's gathers decoded from.
    precision: str = "fp32"


@dataclass
class TrainStep:
    """In-flight state of one training step, between backward and step.

    The synchronous trainer runs backward → step → selector/sampler updates
    back-to-back inside :meth:`TaserTrainer._train_prepared`; the sharded
    data-parallel trainer interposes a gradient-averaging barrier between the
    backward and step halves.  This container carries everything the later
    halves need.
    """

    prepared: PreparedBatch
    minibatch: object
    embeddings: object
    pos_logits: object
    model_loss: object


@dataclass
class TrainResult:
    """Outcome of a full :meth:`TaserTrainer.fit` run."""

    variant: str
    history: List[EpochStats]
    val_metrics: Dict[str, float]
    test_metrics: Dict[str, float]
    runtime_breakdown: Dict[str, float]
    cache_hit_rates: List[float]

    @property
    def test_mrr(self) -> float:
        return self.test_metrics.get("mrr", float("nan"))

    @property
    def val_mrr(self) -> float:
        return self.val_metrics.get("mrr", float("nan"))


class TaserTrainer:
    """Trains a TGNN backbone with (or without) TASER's adaptive sampling."""

    def __init__(self, graph: TemporalGraph, config: Optional[TaserConfig] = None,
                 split: Optional[TemporalSplit] = None) -> None:
        self.config = config if config is not None else TaserConfig()
        self.graph = graph if graph.is_chronological else graph.sort_by_time()
        self.split = split if split is not None else chronological_split(self.graph)
        if self.split.graph is not self.graph:
            # Keep a single canonical graph object (features, ids) everywhere.
            self.graph = self.split.graph
        cfg = self.config

        #: the array runtime every Tensor op runs on (one per process); held
        #: here so a tracer can find the instance whose kernels it wraps.
        self.array_backend = get_backend()

        (rng_model, rng_sampler, _rng_selector, _rng_neg,
         _rng_finder, _rng_misc) = spawn_rngs(cfg.seed, 6)

        # --- substrate: T-CSR + neighbor finder + memory hierarchy -----------------
        self.tcsr = self._build_tcsr(self.graph)
        self.finder = make_finder(cfg.finder, self.tcsr,
                                  policy=cfg.resolved_finder_policy, seed=cfg.seed)
        # Precision policy: the exact fp32 tier keeps today's cache/store
        # bitwise; a lossy tier stores features quantized and turns the
        # cache's byte budget into compressed residency tiers.
        from ..device.precision import PrecisionPolicy
        self.precision = PrecisionPolicy(tier=cfg.resolved_precision,
                                         mrr_budget=cfg.precision_mrr_budget)
        self.cache = None
        if self.graph.edge_feat is not None and cfg.cache_ratio > 0:
            capacity = self._cache_capacity(self.graph)
            if self.precision.is_exact:
                self.cache = DynamicFeatureCache(
                    self.graph.num_edges, capacity,
                    epsilon=cfg.cache_epsilon, seed=cfg.seed)
            else:
                self.cache = TieredFeatureCache(
                    self.graph.num_edges, capacity, self.graph.edge_dim,
                    hot_fraction=self.precision.hot_fraction,
                    warm_fraction=self.precision.warm_fraction,
                    epsilon=cfg.cache_epsilon, seed=cfg.seed)
        self.feature_store = FeatureStore(self.graph, edge_cache=self.cache,
                                          cost_model=TransferCostModel(),
                                          precision=self.precision)

        # --- models -------------------------------------------------------------------
        self.backbone = make_backbone(cfg.backbone, self.graph.node_dim,
                                      self.graph.edge_dim, hidden_dim=cfg.hidden_dim,
                                      time_dim=cfg.time_dim,
                                      num_neighbors=cfg.num_neighbors,
                                      num_heads=cfg.num_heads, dropout=cfg.dropout,
                                      rng=rng_model)
        self.predictor = EdgePredictor(cfg.hidden_dim, rng=rng_model)
        self.sampler = None
        if cfg.adaptive_neighbor:
            self.sampler = AdaptiveNeighborSampler(
                self.graph.node_dim, self.graph.edge_dim, cfg.num_candidates,
                decoder=cfg.decoder,
                use_frequency_encoding=cfg.use_frequency_encoding,
                use_identity_encoding=cfg.use_identity_encoding,
                seed=cfg.seed, rng=rng_sampler)

        # --- pipeline -------------------------------------------------------------------
        self.timer = Timer()
        self.generator = MiniBatchGenerator(
            self.finder, self.feature_store, cfg.num_layers,
            cfg.num_neighbors, cfg.num_candidates if cfg.adaptive_neighbor
            else cfg.num_neighbors,
            adaptive_sampler=self.sampler, timer=self.timer)

        # --- mini-batch selection (Section III-A) ----------------------------------------
        num_train = self.split.num_train
        if cfg.adaptive_minibatch:
            self.selector = AdaptiveMiniBatchSelector(num_train, cfg.batch_size,
                                                      gamma=cfg.gamma, seed=cfg.seed)
        else:
            self.selector = ChronologicalSelector(num_train, cfg.batch_size)

        # --- optimisation --------------------------------------------------------------------
        model_params = self.backbone.parameters() + self.predictor.parameters()
        self.model_optimizer = Adam(model_params, lr=cfg.lr)
        self.sampler_optimizer = None
        if self.sampler is not None:
            self.sampler_optimizer = Adam(self.sampler.parameters(), lr=cfg.sampler_lr)

        self.negative_sampler = NegativeSampler(self.graph, seed=cfg.seed + 17)

        # --- shared prep runtime + mini-batch engine (sync | aot) -------------------------
        # The prep pipeline is the single producer of PreparedBatch for every
        # execution path (engines, evaluation, streaming, sharded replicas).
        self.prep = PrepPipeline(self.generator, self.negative_sampler,
                                 graph=self.graph, split=self.split,
                                 selector=self.selector)
        self.engine = make_engine(self)

        self.history: List[EpochStats] = []
        self._epoch = 0

    def _build_tcsr(self, graph: TemporalGraph):
        """T-CSR construction hook (the streaming trainer substitutes an
        incremental builder whose snapshots are bitwise-identical)."""
        return build_tcsr(graph)

    def _cache_capacity(self, graph: TemporalGraph) -> int:
        """Edge-feature cache capacity hook.

        The default budgets ``cache_ratio`` of the trained graph's edges; the
        sharded trainer overrides this with the shard's slice of the global
        budget (see :class:`~repro.graph.sharding.TemporalShardPlan`)."""
        return int(round(self.config.cache_ratio * graph.num_edges))

    # ------------------------------------------------------------------ training

    def _model_backward(self, prepared: PreparedBatch) -> TrainStep:
        """Backward half of one step: build the batch, forward, loss, backward.

        Leaves the model gradients in place *without* stepping, so a
        data-parallel caller can average them across shard replicas first.
        """
        b = prepared.num_positives
        # Finish the state-dependent prep stages the engine could not run
        # ahead (adaptive neighbor selection and any deeper hops).
        minibatch = self.prep.finish(prepared, train=True).minibatch

        with self.timer.section("PP"):
            self.model_optimizer.zero_grad()
            if self.sampler_optimizer is not None:
                self.sampler_optimizer.zero_grad()
            embeddings = self.backbone.embed(minibatch)
            h_src = embeddings[:b]
            h_dst = embeddings[b:2 * b]
            h_neg = embeddings[2 * b:]
            pos_logits = self.predictor(h_src, h_dst)
            neg_logits = self.predictor(h_src, h_neg)
            model_loss = F.binary_cross_entropy_with_logits(
                pos_logits, Tensor.ones(b)) \
                + F.binary_cross_entropy_with_logits(neg_logits, Tensor.zeros(b))
            model_loss.backward()
        return TrainStep(prepared=prepared, minibatch=minibatch,
                         embeddings=embeddings, pos_logits=pos_logits,
                         model_loss=model_loss)

    def _model_step(self) -> None:
        """Step half: clip and apply whatever gradients the params now hold."""
        with self.timer.section("PP"):
            if self.config.grad_clip > 0:
                clip_grad_norm(self.model_optimizer.params, self.config.grad_clip)
            self.model_optimizer.step()

    def _sampler_backward(self, step: TrainStep):
        """Build the REINFORCE sample loss and backprop it (no step).

        Returns the sample-loss tensor, or ``None`` when the configuration
        produces no sample loss for this batch.
        """
        cfg = self.config
        attention = None
        if cfg.backbone == "tgat" and cfg.sample_loss == "tgat_analytic":
            attention = self.backbone.last_layer_attention()
        sample_loss = build_sample_loss(
            cfg.sample_loss, step.minibatch.hops, step.prepared.num_positives,
            step.embeddings, attention=attention, alpha=cfg.sample_alpha,
            beta=cfg.sample_beta)
        if sample_loss is not None:
            sample_loss.backward()
        return sample_loss

    def _sampler_step(self) -> None:
        if self.config.grad_clip > 0:
            clip_grad_norm(self.sampler_optimizer.params, self.config.grad_clip)
        self.sampler_optimizer.step()

    def _train_prepared(self, prepared: PreparedBatch) -> Dict[str, float]:
        step = self._model_backward(prepared)
        self._model_step()

        # Adaptive mini-batch feedback (Eq. 11) on the positive logits.
        self.selector.update(prepared.local_indices, step.pos_logits.data)

        # Adaptive neighbor sampler update via the REINFORCE sample loss.
        sample_loss_value = 0.0
        if self.sampler_optimizer is not None:
            with self.timer.section("AS"):
                sample_loss = self._sampler_backward(step)
                if sample_loss is not None:
                    self._sampler_step()
                    sample_loss_value = float(sample_loss.data)

        return {"model_loss": float(step.model_loss.data),
                "sample_loss": sample_loss_value}

    def train_epoch(self) -> EpochStats:
        """Run one training epoch and return its statistics."""
        self.backbone.train()
        self.predictor.train()
        if self.sampler is not None:
            self.sampler.train()
        if self.finder.requires_chronological:
            self.finder.reset()

        self.timer.reset()
        self.feature_store.reset_stats()
        losses, sample_losses = [], []
        for prepared in self.engine.epoch(self.config.max_batches_per_epoch):
            stats = self._train_prepared(prepared)
            losses.append(stats["model_loss"])
            sample_losses.append(stats["sample_loss"])

        # Epoch boundary: cache replacement policy + simulated transfer time.
        # "FS" is the total feature-slicing phase (measured gather + modelled
        # transfer); "FS_transfer" separately exposes the deterministic
        # modelled component for the runtime-breakdown harness.
        runtime = self.timer.totals()
        slice_stats = self.feature_store.snapshot()
        simulated = slice_stats.simulated_seconds
        runtime["FS_transfer"] = simulated
        runtime["FS"] = runtime.get("FS", 0.0) + simulated
        cache_hit = slice_stats.hit_rate if self.cache is not None else 0.0
        self.feature_store.end_epoch()

        ess = (self.selector.effective_sample_size()
               if isinstance(self.selector, AdaptiveMiniBatchSelector)
               else float(self.split.num_train))
        self._epoch += 1
        stats = EpochStats(epoch=self._epoch,
                           model_loss=float(np.mean(losses)) if losses else 0.0,
                           sample_loss=float(np.mean(sample_losses)) if sample_losses else 0.0,
                           runtime=runtime,
                           cache_hit_rate=float(cache_hit),
                           effective_sample_size=float(ess),
                           batch_losses=losses,
                           engine_mode=self.engine.effective_mode,
                           dedup_ratio=float(slice_stats.dedup_ratio),
                           precision=self.precision.tier)
        self.history.append(stats)
        return stats

    # ------------------------------------------------------------------ evaluation

    def make_evaluator(self, **overrides) -> LinkPredictionEvaluator:
        cfg = self.config
        kwargs = dict(num_negatives=cfg.eval_negatives, max_edges=cfg.eval_max_edges,
                      seed=cfg.seed + 101)
        kwargs.update(overrides)
        return LinkPredictionEvaluator(self.split, self.prep, self.backbone,
                                       self.predictor, **kwargs)

    def evaluate(self, which: str = "test", **overrides) -> Dict[str, float]:
        """MRR / Hits@K on the requested split."""
        if self.finder.requires_chronological:
            self.finder.reset()
        return self.make_evaluator(**overrides).evaluate(which)

    # ------------------------------------------------------------------ orchestration

    def fit(self, epochs: Optional[int] = None, evaluate_val: bool = True,
            evaluate_test: bool = True) -> TrainResult:
        """Train for ``epochs`` (default from the config) and evaluate."""
        epochs = epochs if epochs is not None else self.config.epochs
        for _ in range(epochs):
            self.train_epoch()

        val_metrics = self.evaluate("val") if evaluate_val and self.split.num_val else {}
        test_metrics = self.evaluate("test") if evaluate_test and self.split.num_test else {}

        breakdown: Dict[str, float] = {}
        for stats in self.history:
            for key, value in stats.runtime.items():
                breakdown[key] = breakdown.get(key, 0.0) + value
        cache_history = list(self.cache.hit_rate_history) if self.cache is not None else []
        return TrainResult(variant=self.config.variant_name(), history=list(self.history),
                           val_metrics=val_metrics, test_metrics=test_metrics,
                           runtime_breakdown=breakdown, cache_hit_rates=cache_history)
