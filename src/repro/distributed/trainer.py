"""Sharded data-parallel training: W shard workers + a gradient barrier.

:class:`ShardedTrainer` is the multi-worker counterpart of
:class:`~repro.core.trainer.TaserTrainer`.  A
:class:`~repro.graph.sharding.TemporalShardPlan` splits the event log into
``W`` shards; each worker owns a full single-worker training stack over its
shard (T-CSR view, neighbor finder, feature store with its slice of the
global cache budget, sync/aot batch engine) plus a model *replica*.
Per global step the trainer runs the lock-step protocol:

1. every worker generates its shard's next mini-batch and runs forward +
   backward (concurrently, under the configured pool backend);
2. **barrier** — model gradients are averaged over workers in fixed shard
   order (missing per-parameter gradients count as zeros, the sum is divided
   by ``W``);
3. every worker applies the averaged gradients (clip + Adam step), then runs
   its shard-local selector feedback; adaptive configs run a second barrier
   for the sampler's gradients.

Determinism contract
--------------------
* ``W = 1`` is **bitwise-identical** to :class:`TaserTrainer` under the same
  config: the single shard is the identity partition, averaging one gradient
  is exact, and the split step hooks preserve the synchronous op order.
* ``W > 1`` is reproducible under a fixed seed, and identical across the
  ``serial``, ``thread`` and ``process`` pool backends: every worker's
  compute is a deterministic function of (shard, averaged gradients), and
  the barrier reduces in fixed shard order.

Epoch length is ``min_w(batches of shard w)`` (capped by
``config.max_batches_per_epoch``): every global step is a full ``W``-way
barrier, and trailing batches of larger shards are dropped, mirroring
drop-last semantics in data-parallel loaders.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core.config import TaserConfig
from ..core.trainer import EpochStats, TaserTrainer, TrainResult
from ..device.memory import SliceStats
from ..graph.sharding import TemporalShardPlan, make_shard_plan
from ..graph.temporal_graph import TemporalGraph
from .comms import GradientComms
from .pool import WorkerPool, make_worker_pool
from .worker import ShardTask

__all__ = ["ShardedEpochStats", "ShardedTrainer"]


@dataclass
class ShardedEpochStats(EpochStats):
    """Per-epoch statistics of a sharded run.

    Extends :class:`~repro.core.trainer.EpochStats` (``runtime`` sums the
    per-shard phase totals plus the master-side ``SYNC`` phase;
    ``batch_losses`` holds the per-global-step *worker-mean* losses, which
    for ``W = 1`` coincide with the single worker's batch losses) with the
    per-shard detail the scaling benchmark consumes.
    """

    #: per-shard epoch summaries (losses, NF/FS/AS/PP runtime, cache stats).
    per_shard: List[Dict] = field(default_factory=list)
    #: master-side barrier seconds: ``reduce_seconds + transport_seconds``.
    sync_seconds: float = 0.0
    #: barrier-synchronized steps this epoch (min over shard batch counts).
    global_steps: int = 0
    #: raw wall-clock of the epoch as observed by the master.
    wall_seconds: float = 0.0
    #: master seconds spent reducing gradients (vectorised bucket adds).
    reduce_seconds: float = 0.0
    #: master seconds in barrier exchanges net of worker compute — pipe I/O
    #: of the control messages on the process pool, queue handoff otherwise.
    transport_seconds: float = 0.0
    #: worker seconds marshalling gradients (buffer packing, ingest copies),
    #: summed over shards.
    pack_seconds: float = 0.0


class ShardedTrainer:
    """Data-parallel trainer over a temporal shard plan.

    Parameters
    ----------
    graph:
        The full event log (sorted chronologically if not already).
    config:
        Shared worker configuration; every replica is built from the same
        config (and therefore the same seed ⇒ identical initial weights).
    num_workers:
        Shard/worker count ``W``.
    shard_policy:
        ``"temporal"`` or ``"hash"`` — see :func:`~repro.graph.sharding.make_shard_plan`.
    backend:
        Worker pool backend: ``"serial"``, ``"thread"`` (default) or
        ``"process"``.  It also decides where the flat gradient buckets
        live (:mod:`repro.distributed.comms`): shared-memory segments on the
        process pool, in-process buffers otherwise.
    """

    def __init__(self, graph: TemporalGraph, config: Optional[TaserConfig] = None,
                 num_workers: int = 1, shard_policy: str = "temporal",
                 backend: str = "thread") -> None:
        self.config = config if config is not None else TaserConfig()
        self.graph = graph if graph.is_chronological else graph.sort_by_time()
        self.num_workers = int(num_workers)
        self.backend = backend
        self.plan: TemporalShardPlan = make_shard_plan(
            self.graph, self.num_workers, shard_policy,
            cache_ratio=self.config.cache_ratio)
        self.pool: WorkerPool = make_worker_pool(backend, self._shard_tasks())
        try:
            self.comms = GradientComms(self.pool)
        except BaseException:
            self.pool.shutdown()
            raise
        self.history: List[ShardedEpochStats] = []
        self._epoch = 0
        self._eval_trainer: Optional[TaserTrainer] = None

    def _shard_tasks(self) -> List[ShardTask]:
        tasks = []
        for spec in self.plan.shards:
            shard = self.plan.shard_graph(spec.index)
            tasks.append(ShardTask(
                config=self.config, shard_index=spec.index,
                num_shards=self.plan.num_shards,
                cache_capacity=spec.cache_capacity,
                src=shard.src, dst=shard.dst, ts=shard.ts,
                num_nodes=shard.num_nodes, edge_feat=shard.edge_feat,
                node_feat=shard.node_feat, meta=shard.meta))
        return tasks

    # ------------------------------------------------------------------ training

    def train_epoch(self) -> ShardedEpochStats:
        """Run one barrier-synchronized epoch across all shards."""
        w = self.num_workers
        max_batches = self.config.max_batches_per_epoch
        epoch_start = time.perf_counter()
        counts = self.pool.run("num_batches", [(max_batches,)] * w)
        steps = int(min(counts))
        # Every shard's engine epoch is sized to exactly the barrier step
        # count, so each worker's RNG/cache streams advance a deterministic
        # amount per epoch regardless of how unbalanced the shards are (and,
        # for W = 1, exactly as far as the single-worker trainer's).
        self.pool.run("begin_epoch", [(steps,)] * w)

        step_losses: List[float] = []
        step_sample_losses: List[float] = []
        for _ in range(steps):
            # Backward -> reduce -> apply over the flat buckets (see
            # repro.distributed.comms), reducing in fixed shard order.
            self.comms.step()
        comms_stats = self.comms.epoch_stats()
        sync_seconds = (comms_stats["reduce_seconds"]
                        + comms_stats["transport_seconds"])

        summaries = self.pool.run("end_epoch")
        wall_seconds = time.perf_counter() - epoch_start

        # Per-global-step means over workers, in fixed shard order (for
        # W = 1 these are exactly the single worker's batch losses).
        for s in range(steps):
            step_losses.append(float(
                sum(summary["losses"][s] for summary in summaries) / w))
            step_sample_losses.append(float(
                sum(summary["sample_losses"][s] for summary in summaries) / w))

        runtime: Dict[str, float] = {}
        slice_totals = SliceStats()
        for summary in summaries:
            for key, value in summary["runtime"].items():
                runtime[key] = runtime.get(key, 0.0) + value
            slice_totals.merge(SliceStats(**{
                k: summary["slice_stats"][k]
                for k in ("bytes_from_vram", "bytes_from_ram", "requests",
                          "cache_hits", "cache_misses", "simulated_seconds")}))
        runtime["SYNC"] = sync_seconds

        has_cache = (self.graph.edge_feat is not None
                     and self.config.cache_ratio > 0)
        cache_hit = slice_totals.hit_rate if has_cache else 0.0
        ess = float(sum(s["effective_sample_size"] for s in summaries))
        self._epoch += 1
        stats = ShardedEpochStats(
            epoch=self._epoch,
            model_loss=float(np.mean(step_losses)) if step_losses else 0.0,
            sample_loss=(float(np.mean(step_sample_losses))
                         if step_sample_losses else 0.0),
            runtime=runtime,
            cache_hit_rate=float(cache_hit),
            effective_sample_size=ess,
            batch_losses=step_losses,
            engine_mode=summaries[0]["engine_mode"],
            per_shard=summaries,
            sync_seconds=sync_seconds,
            global_steps=steps,
            wall_seconds=wall_seconds,
            reduce_seconds=float(comms_stats["reduce_seconds"]),
            transport_seconds=float(comms_stats["transport_seconds"]),
            pack_seconds=float(sum(s.get("pack_seconds", 0.0)
                                   for s in summaries)),
        )
        self.history.append(stats)
        return stats

    # ------------------------------------------------------------------ evaluation

    def _ensure_eval_trainer(self) -> TaserTrainer:
        """Full-graph evaluation harness for the synchronized replica.

        Built once: a standard single-worker trainer over the *whole* log
        (its own T-CSR/finder/generator), whose model weights are replaced
        by worker 0's replica before every evaluation.  Replicas are bitwise
        identical across workers, so worker 0 speaks for all.
        """
        if self._eval_trainer is None:
            self._eval_trainer = TaserTrainer(self.graph, self.config)
        return self._eval_trainer

    def _sync_eval_weights(self) -> TaserTrainer:
        evaluator = self._ensure_eval_trainer()
        state = self.pool.run_one(0, "model_state")
        evaluator.backbone.load_state_dict(state["backbone"])
        evaluator.predictor.load_state_dict(state["predictor"])
        if evaluator.sampler is not None and "sampler" in state:
            evaluator.sampler.load_state_dict(state["sampler"])
        return evaluator

    def evaluate(self, which: str = "test", **overrides) -> Dict[str, float]:
        """MRR / Hits@K of the synchronized model on the full-graph split."""
        return self._sync_eval_weights().evaluate(which, **overrides)

    # ------------------------------------------------------------------ orchestration

    def fit(self, epochs: Optional[int] = None, evaluate_val: bool = True,
            evaluate_test: bool = True) -> TrainResult:
        """Train for ``epochs`` (default from the config) and evaluate."""
        epochs = epochs if epochs is not None else self.config.epochs
        for _ in range(epochs):
            self.train_epoch()

        split = self._ensure_eval_trainer().split
        val_metrics = self.evaluate("val") if evaluate_val and split.num_val else {}
        test_metrics = (self.evaluate("test")
                        if evaluate_test and split.num_test else {})

        breakdown: Dict[str, float] = {}
        for stats in self.history:
            for key, value in stats.runtime.items():
                breakdown[key] = breakdown.get(key, 0.0) + value
        return TrainResult(
            variant=f"{self.config.variant_name()} x{self.num_workers}",
            history=list(self.history),
            val_metrics=val_metrics, test_metrics=test_metrics,
            runtime_breakdown=breakdown,
            cache_hit_rates=[s.cache_hit_rate for s in self.history])

    def shutdown(self) -> None:
        """Tear down the comms transport, then the worker pool.

        Comms first, unconditionally: shared-memory segments must be
        unlinked even when a worker crashed mid-barrier (this runs on the
        context-manager unwind), and unlinking does not require the
        children to be alive.
        """
        try:
            self.comms.shutdown()
        finally:
            self.pool.shutdown()

    def __enter__(self) -> "ShardedTrainer":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
