"""Sharded data-parallel training: W shard workers + a gradient barrier.

:class:`ShardedTrainer` is the multi-worker counterpart of
:class:`~repro.core.trainer.TaserTrainer`.  A
:class:`~repro.graph.sharding.TemporalShardPlan` splits the event log into
``W`` shards; each worker owns a full single-worker training stack over its
shard (T-CSR view, neighbor finder, feature store with its slice of the
global cache budget, batch engine) plus a model *replica*.
Per global step the trainer runs the lock-step protocol, one gradient
exchange:

1. every worker generates its shard's next mini-batch and runs the
   trainer's backward half — forward, model loss, backward, then the
   sampler's sample loss and its backward (concurrently on the process
   pool, which every ``W > 1`` run uses; ``W = 1`` runs in-process on the
   serial pool);
2. **barrier** — model gradients are averaged over all workers in fixed
   shard order (missing per-parameter gradients count as zeros, the sum is
   divided by ``W``); adaptive configs also average the sampler gradients
   over the workers that backpropagated a sample loss;
3. every worker runs the trainer's apply half on the averaged gradients:
   clip and step the model, its shard-local selector feedback, clip and
   step the sampler.

At the epoch's end every worker returns its trainer's own ``EpochStats``
and ``SliceStats``; the master averages the batch losses per step, sums the
runtimes and merges the slice counts, from which the epoch's cache hit rate
and dedup ratio follow.  The master's own barrier time is one number,
``runtime["SYNC"]``: the wall seconds of its reductions.  The round trips to
the workers include their compute and stay inside ``wall_seconds``.

Determinism contract
--------------------
* ``W = 1`` is **bitwise-identical** to :class:`TaserTrainer` under the same
  config: the single shard is the identity partition, averaging one gradient
  is exact, and the worker runs the trainer's own two step halves.
* ``W > 1`` is reproducible under a fixed seed, and identical on the
  ``serial`` pool (the tests' oracle) and the ``process`` pool: every
  worker's compute is a deterministic function of (shard, averaged
  gradients), and the barrier reduces in fixed shard order.

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
from ..core.trainer import (EpochStats, TaserTrainer, TrainResult,
                            train_and_evaluate)
from ..device.memory import SliceStats
from ..graph.sharding import TemporalShardPlan, make_shard_plan
from ..graph.temporal_graph import TemporalGraph
from .comms import GradientComms
from .pool import WorkerPool, make_worker_pool, resolve_backend
from .worker import ShardTask

__all__ = ["ShardedEpochStats", "ShardedTrainer"]


@dataclass
class ShardedEpochStats(EpochStats):
    """Per-epoch statistics of a sharded run.

    Extends :class:`~repro.core.trainer.EpochStats` — ``runtime`` sums the
    per-shard phase totals plus the master's ``SYNC`` (its reduce seconds);
    ``batch_losses`` holds one *worker-mean* loss per barrier step, which
    for ``W = 1`` are the single worker's batch losses — with the two
    numbers ``EpochStats`` has no place for.
    """

    #: each shard's own :class:`~repro.core.trainer.EpochStats`, in shard
    #: order.
    per_shard: List[EpochStats] = field(default_factory=list)
    #: wall clock of the epoch as observed by the master.
    wall_seconds: float = 0.0


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
        ``None`` (default) derives the worker pool from ``W``: ``"serial"``
        at ``W = 1``, ``"process"`` above.  Tests pass ``"serial"`` to get
        the in-process oracle at any ``W``.
    """

    def __init__(self, graph: TemporalGraph, config: Optional[TaserConfig] = None,
                 num_workers: int = 1, shard_policy: str = "temporal",
                 backend: Optional[str] = None) -> None:
        self.config = config if config is not None else TaserConfig()
        self.graph = graph if graph.is_chronological else graph.sort_by_time()
        self.num_workers = int(num_workers)
        self.backend = resolve_backend(backend, self.num_workers)
        self.plan: TemporalShardPlan = make_shard_plan(
            self.graph, self.num_workers, shard_policy,
            cache_ratio=self.config.cache_ratio)
        # The master's own replica: the full-graph evaluation harness, and
        # the source of the bucket layout (shard views keep the full node
        # universe, so every replica has its shapes).  The buckets exist
        # before the pool forks, so the children inherit them.
        self._eval_trainer = TaserTrainer(self.graph, self.config)
        self.comms = GradientComms.for_replica(self._eval_trainer,
                                               self.num_workers)
        self.pool: WorkerPool = make_worker_pool(self.backend,
                                                 self._shard_tasks())
        self._epoch = 0

    def _shard_tasks(self) -> List[ShardTask]:
        tasks = []
        for spec in self.plan.shards:
            tasks.append(ShardTask(
                config=self.config, shard_index=spec.index,
                num_shards=self.plan.num_shards,
                cache_capacity=spec.cache_capacity,
                graph=self.plan.shard_graph(spec.index),
                comms=self.comms.endpoint(spec.index)))
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

        # One exchange per step over the flat buckets: backward -> reduce ->
        # apply (see repro.distributed.comms), reducing in fixed shard order.
        sync_seconds = float(sum(self.comms.step(self.pool)
                                 for _ in range(steps)))

        shards, slices = zip(*self.pool.run("end_epoch"))
        wall_seconds = time.perf_counter() - epoch_start

        # Per-global-step means over workers, in fixed shard order (for
        # W = 1 these are exactly the single worker's batch losses).
        step_losses = [float(sum(s.batch_losses[i] for s in shards) / w)
                       for i in range(steps)]
        runtime: Dict[str, float] = {}
        merged = SliceStats()
        for shard, slice_stats in zip(shards, slices):
            for key, value in shard.runtime.items():
                runtime[key] = runtime.get(key, 0.0) + value
            merged.merge(slice_stats)
        runtime["SYNC"] = sync_seconds

        has_cache = (self.graph.edge_feat is not None
                     and self.config.cache_ratio > 0)
        self._epoch += 1
        return ShardedEpochStats(
            epoch=self._epoch,
            model_loss=float(np.mean(step_losses)) if step_losses else 0.0,
            sample_loss=float(np.mean([s.sample_loss for s in shards])),
            runtime=runtime,
            cache_hit_rate=float(merged.hit_rate if has_cache else 0.0),
            effective_sample_size=float(sum(s.effective_sample_size
                                            for s in shards)),
            batch_losses=step_losses,
            dedup_ratio=float(merged.dedup_ratio),
            per_shard=list(shards),
            wall_seconds=wall_seconds,
        )

    # ------------------------------------------------------------------ evaluation

    def _sync_eval_weights(self) -> TaserTrainer:
        """The full-graph evaluation harness — a single-worker trainer over
        the *whole* log — carrying worker 0's weights.  Replicas are bitwise
        identical across workers, so worker 0 speaks for all."""
        evaluator = self._eval_trainer
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

    def fit(self, evaluate_val: bool = True,
            evaluate_test: bool = True) -> TrainResult:
        """Train for ``config.epochs`` epochs, then evaluate the full-graph
        split."""
        return train_and_evaluate(self, self._eval_trainer.split,
                                  evaluate_val, evaluate_test)

    def shutdown(self) -> None:
        """Stop the worker pool.  The gradient buckets need no teardown:
        their mappings die with the last process that maps them."""
        self.pool.shutdown()

    def __enter__(self) -> "ShardedTrainer":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
