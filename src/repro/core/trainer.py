"""End-to-end TASER training (Algorithm 1) and its baselines.

:class:`TaserTrainer` wires together every subsystem: the T-CSR graph, a
neighbor finder, the simulated memory hierarchy with its feature cache, the
TGNN backbone with its edge predictor, and — depending on the configuration —
the adaptive mini-batch selector and the adaptive neighbor sampler.  The four
rows of the paper's Table I correspond to the four combinations of the two
``adaptive_*`` switches in :class:`~repro.core.config.TaserConfig`.

Runtime is recorded per phase with the section names of Table III:
``NF`` (neighbor finding), ``AS`` (adaptive neighbor sampling), ``FS``
(feature slicing) and ``PP`` (forward/backward propagation and optimiser
steps), all measured wall-clock seconds and nothing else.  The memory
hierarchy's modelled PCIe/VRAM transfer time stays in the feature store's
accounting (``SliceStats.simulated_seconds``), which only the paper-table view
of :mod:`repro.bench.breakdown` reads.

A step is two halves (:class:`TrainStep`): backward computes every gradient,
the model's and then the sampler's REINFORCE sample loss, and apply clips
and steps both optimisers.  The epoch prologue, epilogue and the two halves
are written once, here; the sharded trainer's workers call the same methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, List, Optional

import numpy as np

from ..device.cache import DynamicFeatureCache
from ..device.memory import FeatureStore
from ..eval.evaluator import LinkPredictionEvaluator
from ..eval.negative_sampling import NegativeSampler
from ..graph.splits import TemporalSplit, chronological_split
from ..graph.tcsr import build_tcsr
from ..graph.temporal_graph import TemporalGraph
from ..models import EdgePredictor, make_backbone
from ..optim import Adam, clip_grad_norm
from ..sampling import GPUNeighborFinder
from ..tensor import Tensor, get_backend
from ..tensor import functional as F
from ..utils.rng import spawn_rngs
from ..utils.timer import Timer
from .config import TaserConfig
from .minibatch_selector import AdaptiveMiniBatchSelector, ChronologicalSelector
from .neighbor_sampler import AdaptiveNeighborSampler
from .pipeline import MiniBatchGenerator
from .prefetcher import BatchEngine
from .prep import PreparedBatch, PrepPipeline
from .sample_loss import build_sample_loss

__all__ = ["EpochStats", "TrainStep", "TrainResult", "TaserTrainer",
           "train_and_evaluate", "GRAD_CLIP"]

#: global gradient-norm bound of both optimisers' steps.
GRAD_CLIP = 5.0


@dataclass
class EpochStats:
    """Per-epoch training statistics."""

    epoch: int
    model_loss: float
    sample_loss: float
    #: measured seconds per phase (``NF`` / ``AS`` / ``FS`` / ``PP``).
    runtime: Dict[str, float]
    cache_hit_rate: float
    effective_sample_size: float
    #: per-batch model losses in training order (the run-vs-replay bitwise
    #: determinism contract is asserted against these).
    batch_losses: List[float] = field(default_factory=list)
    #: prep-runtime gather dedup ratio of the epoch (requested candidate id
    #: occurrences / unique ids gathered at the feature-store choke point).
    dedup_ratio: float = 1.0


@dataclass
class TrainStep:
    """In-flight state of one training step, between its two halves.

    :meth:`TaserTrainer._backward` computes every gradient (model loss,
    then the sampler's sample loss); :meth:`TaserTrainer._apply` clips and
    steps on whatever gradients the parameters then hold.
    :meth:`TaserTrainer._train_prepared` runs them back to back; a shard
    worker of the data-parallel trainer runs the same halves and between
    them installs the gradients averaged over all shards.
    """

    prepared: PreparedBatch
    pos_logits: object
    model_loss: object
    #: a sample loss was backpropagated, so the sampler steps in the apply
    #: half (a shard worker sets it to whether *any* shard contributed).
    sampled: bool


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

    #: Features have one width and no tier; the name stays because the
    #: frozen benchmarks/e2e/workloads.py records ``trainer.precision.tier``.
    precision = SimpleNamespace(tier="fp32")

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

        # Model init, sampler init, and the training batches' generator: each
        # batch seeds its tiles' finder and selection draws from it.
        rng_model, rng_sampler, rng_prep = spawn_rngs(cfg.seed, 3)

        # --- substrate: memory hierarchy ---------------------------------------------
        self.cache = None
        if self.graph.edge_feat is not None and cfg.cache_ratio > 0:
            self.cache = DynamicFeatureCache(
                self.graph.num_edges, self._cache_capacity(self.graph),
                seed=cfg.seed)
        self.feature_store = FeatureStore(self.graph, edge_cache=self.cache)

        # --- models -------------------------------------------------------------------
        self.backbone = make_backbone(cfg.backbone, self.graph.node_dim,
                                      self.graph.edge_dim, hidden_dim=cfg.hidden_dim,
                                      time_dim=cfg.time_dim,
                                      num_neighbors=cfg.num_neighbors,
                                      dropout=cfg.dropout, rng=rng_model)
        self.predictor = EdgePredictor(cfg.hidden_dim, rng=rng_model)
        self.sampler = None
        if cfg.adaptive_neighbor:
            self.sampler = AdaptiveNeighborSampler(
                self.graph.node_dim, self.graph.edge_dim, cfg.num_candidates,
                decoder=cfg.decoder,
                use_frequency_encoding=cfg.use_frequency_encoding,
                use_identity_encoding=cfg.use_identity_encoding,
                rng=rng_sampler)

        # --- pipeline: the generator holds the run's one neighbor finder, whose ------
        # T-CSR is the live history's (each ingest merges into a fresh one).
        self.timer = Timer()
        self.generator = MiniBatchGenerator(
            GPUNeighborFinder(build_tcsr(self.graph),
                              policy=cfg.resolved_finder_policy),
            self.feature_store, cfg.num_layers,
            cfg.num_neighbors, cfg.num_candidates if cfg.adaptive_neighbor
            else cfg.num_neighbors,
            adaptive_sampler=self.sampler, timer=self.timer)

        # --- mini-batch selection (Section III-A) ----------------------------------------
        num_train = self.split.num_train
        if cfg.adaptive_minibatch:
            self.selector = AdaptiveMiniBatchSelector(num_train, cfg.batch_size,
                                                      seed=cfg.seed)
        else:
            self.selector = ChronologicalSelector(num_train, cfg.batch_size)

        # --- optimisation --------------------------------------------------------------------
        model_params = self.backbone.parameters() + self.predictor.parameters()
        self.model_optimizer = Adam(model_params, lr=cfg.lr)
        self.sampler_optimizer = None
        if self.sampler is not None:
            self.sampler_optimizer = Adam(self.sampler.parameters(), lr=cfg.sampler_lr)

        self.negative_sampler = NegativeSampler(self.graph, seed=cfg.seed + 17)

        # --- shared prep runtime + mini-batch engine -------------------------------------
        # The prep pipeline is the single producer of PreparedBatch for every
        # execution path (engines, evaluation, streaming, sharded replicas).
        self.prep = PrepPipeline(self.generator, self.negative_sampler,
                                 graph=self.graph, split=self.split,
                                 selector=self.selector, rng=rng_prep)
        self.engine = BatchEngine(self.prep)

        self._epoch = 0
        #: the running epoch's per-batch model and sample losses.
        self._batch_losses: List[float] = []
        self._sample_losses: List[float] = []

    def _cache_capacity(self, graph: TemporalGraph) -> int:
        """Edge-feature cache capacity hook.

        The default budgets ``cache_ratio`` of the trained graph's edges; the
        sharded trainer overrides this with the shard's slice of the global
        budget (see :class:`~repro.graph.sharding.TemporalShardPlan`)."""
        return int(round(self.config.cache_ratio * graph.num_edges))

    # ------------------------------------------------------------------ training

    def _begin_epoch(self) -> None:
        """Epoch prologue: train modes, a fresh timer, store stats and losses."""
        self.backbone.train()
        self.predictor.train()
        if self.sampler is not None:
            self.sampler.train()
        self.timer.reset()
        self.feature_store.reset_stats()
        self._batch_losses = []
        self._sample_losses = []

    def _backward(self, prepared: PreparedBatch) -> TrainStep:
        """Backward half of one step: every gradient, no step.

        PP: forward, model loss, backward.  AS: the REINFORCE sample loss,
        built from the gate and embedding gradients that backward left
        behind, backpropagated into the sampler and recorded.  The
        gradients stay in place, so a data-parallel caller can average them
        across shard replicas before :meth:`_apply`.
        """
        cfg = self.config
        b = prepared.num_positives
        with self.timer.section("PP"):
            self.model_optimizer.zero_grad()
            if self.sampler_optimizer is not None:
                self.sampler_optimizer.zero_grad()
            embeddings = self.backbone.embed(prepared.minibatch,
                                             self.generator.hop_tile)
            h_src = embeddings[:b]
            h_dst = embeddings[b:2 * b]
            h_neg = embeddings[2 * b:]
            pos_logits = self.predictor(h_src, h_dst)
            neg_logits = self.predictor(h_src, h_neg)
            model_loss = F.binary_cross_entropy_with_logits(
                pos_logits, Tensor.ones(b)) \
                + F.binary_cross_entropy_with_logits(neg_logits, Tensor.zeros(b))
            model_loss.backward()

        sample_loss = None
        if self.sampler_optimizer is not None:
            with self.timer.section("AS"):
                attention = None
                if cfg.backbone == "tgat" and cfg.sample_loss == "tgat_analytic":
                    attention = self.backbone.last_layer_attention()
                sample_loss = build_sample_loss(
                    cfg.sample_loss, prepared.minibatch.hops, b, embeddings,
                    attention=attention)
                if sample_loss is not None:
                    sample_loss.backward()
        self._sample_losses.append(
            0.0 if sample_loss is None else float(sample_loss.data))
        return TrainStep(prepared=prepared, pos_logits=pos_logits,
                         model_loss=model_loss,
                         sampled=sample_loss is not None)

    def _apply(self, step: TrainStep) -> None:
        """Apply half: step on whatever gradients the params now hold.

        PP: clip and step the model, feed the positive logits back to the
        selector (Eq. 11) and record the model loss.  AS: clip and step the
        sampler when ``step.sampled``.
        """
        with self.timer.section("PP"):
            clip_grad_norm(self.model_optimizer.params, GRAD_CLIP)
            self.model_optimizer.step()
        self.selector.update(step.prepared.local_indices, step.pos_logits.data)
        self._batch_losses.append(float(step.model_loss.data))
        if step.sampled:
            with self.timer.section("AS"):
                clip_grad_norm(self.sampler_optimizer.params, GRAD_CLIP)
                self.sampler_optimizer.step()

    def _train_prepared(self, prepared: PreparedBatch) -> None:
        """One step of Algorithm 1: backward, then apply."""
        self._apply(self._backward(prepared))

    def _end_epoch(self) -> EpochStats:
        """Epoch epilogue: close the cache's epoch and return its stats."""
        runtime = self.timer.totals()
        slice_stats = self.feature_store.snapshot()
        self.feature_store.end_epoch()

        ess = (self.selector.effective_sample_size()
               if isinstance(self.selector, AdaptiveMiniBatchSelector)
               else float(self.split.num_train))
        losses, sample_losses = self._batch_losses, self._sample_losses
        self._epoch += 1
        return EpochStats(epoch=self._epoch,
                          model_loss=float(np.mean(losses)) if losses else 0.0,
                          sample_loss=float(np.mean(sample_losses)) if sample_losses else 0.0,
                          runtime=runtime,
                          cache_hit_rate=float(slice_stats.hit_rate
                                               if self.cache is not None else 0.0),
                          effective_sample_size=float(ess),
                          batch_losses=losses,
                          dedup_ratio=float(slice_stats.dedup_ratio))

    def train_epoch(self) -> EpochStats:
        """Run one training epoch and return its statistics (the trainer
        keeps none)."""
        self._begin_epoch()
        for prepared in self.engine.epoch(self.config.max_batches_per_epoch):
            self._train_prepared(prepared)
        return self._end_epoch()

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
        return self.make_evaluator(**overrides).evaluate(which)

    # ------------------------------------------------------------------ orchestration

    def fit(self, evaluate_val: bool = True,
            evaluate_test: bool = True) -> TrainResult:
        """Train for ``config.epochs`` epochs and evaluate."""
        return train_and_evaluate(self, self.split, evaluate_val, evaluate_test)


def train_and_evaluate(trainer, split: TemporalSplit, evaluate_val: bool = True,
                       evaluate_test: bool = True) -> TrainResult:
    """Train ``trainer`` for its ``config.epochs`` epochs, then evaluate
    ``split``'s validation and test edges.

    The one ``fit`` of :class:`TaserTrainer` and the sharded trainer: both
    hand in the split they evaluate, and the result carries the config's
    Table I label.  Every summary is read off the stats that the epochs
    trained here return, so evaluation traffic never enters
    ``cache_hit_rates``.
    """
    history = [trainer.train_epoch() for _ in range(trainer.config.epochs)]

    val_metrics = trainer.evaluate("val") if evaluate_val and split.num_val else {}
    test_metrics = (trainer.evaluate("test")
                    if evaluate_test and split.num_test else {})

    breakdown: Dict[str, float] = {}
    for stats in history:
        for key, value in stats.runtime.items():
            breakdown[key] = breakdown.get(key, 0.0) + value
    return TrainResult(variant=trainer.config.variant_name(), history=history,
                       val_metrics=val_metrics, test_metrics=test_metrics,
                       runtime_breakdown=breakdown,
                       cache_hit_rates=[s.cache_hit_rate for s in history])
