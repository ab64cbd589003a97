"""Per-shard training worker: the unit both worker pools execute.

A :class:`ShardWorker` owns one shard's complete single-worker training
stack — a :class:`~repro.core.trainer.TaserTrainer` built over the shard's
event view, with its own T-CSR, neighbor finder, feature store/cache slice,
prep runtime (:class:`~repro.core.prep.PrepPipeline` — the shard's batches
are prepared through the same shared pipeline as every other execution
path, including its deduplicated fused gather), batch engine and model
*replica*.  Its :class:`ShardTask` carries its views of the master's flat
gradient buckets (:mod:`repro.distributed.comms`), created before the pool
started; the worker checks its parameter shapes against them when built.

The worker writes no training logic of its own.  An epoch is the trainer's
prologue (``_begin_epoch``) and epilogue (``_end_epoch``), and each step is
the trainer's two halves (see :class:`~repro.core.trainer.TrainStep`); the
worker only adds the barrier glue between them — pack the gradients into
its buffers, then install the averaged ones.  The sharded trainer drives all
workers in lock-step, one gradient exchange per step:

1. :meth:`comms_backward` — the shard's next mini-batch (through the shard's
   own batch engine), ``_backward`` (model loss, then sample loss), then pack
   the model gradients and, when a sample loss was backpropagated, the
   sampler's;
2. :meth:`comms_apply`    — install the globally averaged model gradients
   and, when any shard contributed sampler gradients, the averaged sampler
   ones, then ``_apply`` (clip and step the model, selector update, loss
   record, clip and step the sampler).

Because every replica starts from identical weights (same config seed) and
steps on identical averaged gradients, replicas stay **bitwise identical**
across workers for the whole run — there is no weight broadcast, only the
gradient barrier.  Every method takes and returns plain picklable values (a
flag, ``None``, the epoch's stats), so the same class serves the serial pool
and the process pool's forked children; no method times itself.

Packing copies: a live ``p.grad`` is a buffer the autograd engine may have
borrowed from an interior node and keeps accumulating into in place (see
"Gradient ownership" in :mod:`repro.tensor.tensor`), so it must not be
aliased by what the master reduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.config import TaserConfig
from ..core.trainer import EpochStats, TaserTrainer, TrainStep
from ..device.memory import SliceStats
from ..graph.temporal_graph import TemporalGraph
from .comms import GradList, WorkerCommsEndpoint

__all__ = ["ShardTask", "ShardWorker"]


@dataclass
class ShardTask:
    """Everything needed to build one shard's worker.

    The shard's event view and the config, plus ``comms``: the worker's own
    gradient buffers and the averaged ones, views of shared mappings.  The
    process pool is fork-only, so a forked child inherits its task whole;
    nothing here is pickled.  ``comms=None`` builds a worker for driving the
    split step halves by hand (the reference barrier of the tests).
    """

    config: TaserConfig
    shard_index: int
    num_shards: int
    cache_capacity: int
    graph: TemporalGraph
    comms: Optional[WorkerCommsEndpoint] = None


class _ShardTrainer(TaserTrainer):
    """A :class:`TaserTrainer` whose cache capacity is assigned by the plan
    (its slice of the global ``cache_ratio`` budget) instead of derived from
    the shard's own edge count."""

    def __init__(self, graph: TemporalGraph, config: TaserConfig,
                 cache_capacity: int) -> None:
        self._assigned_cache_capacity = int(cache_capacity)
        super().__init__(graph, config)

    def _cache_capacity(self, graph: TemporalGraph) -> int:
        return self._assigned_cache_capacity


class ShardWorker:
    """One shard's training replica, driven step by step through the
    trainer's own epoch and step halves."""

    def __init__(self, task: ShardTask) -> None:
        self.task = task
        self.trainer = _ShardTrainer(task.graph, task.config,
                                     task.cache_capacity)
        self._batches = None
        self._step: Optional[TrainStep] = None
        self._comms = task.comms
        if self._comms is not None:
            self._comms.check_layout(self.trainer)

    # -- epoch lifecycle ---------------------------------------------------------

    def num_batches(self, max_batches: Optional[int] = None) -> int:
        """Batches this shard can contribute to the coming epoch."""
        count = self.trainer.selector.num_batches
        if max_batches is not None:
            count = min(count, max_batches)
        return int(count)

    def begin_epoch(self, max_batches: Optional[int] = None) -> None:
        """The trainer's epoch prologue, then its engine epoch, which the
        steps below advance one batch at a time."""
        self.trainer._begin_epoch()
        self._batches = iter(self.trainer.engine.epoch(max_batches))
        self._step = None

    # -- lock-step protocol --------------------------------------------------------

    def comms_backward(self) -> bool:
        """The shard's next batch through the trainer's backward half, then
        pack its gradients into this worker's flat buffers in place: the
        model's always, the sampler's when a sample loss was backpropagated.
        Only that flag crosses the pool channel.

        Raises ``RuntimeError`` past the end of the shard's schedule (the
        sharded trainer sizes the epoch to the smallest shard, so this only
        happens if it over-asks).
        """
        prepared = next(self._batches, None)
        if prepared is None:
            raise RuntimeError(
                f"shard worker {self.task.shard_index} exhausted its batch "
                "schedule mid-epoch: the sharded trainer sizes epochs to the "
                "smallest shard, so this indicates a scheduling bug")
        t, c = self.trainer, self._comms
        self._step = t._backward(prepared)
        # The pack *is* the copy that decouples the live p.grad buffers from
        # the barrier.
        c.model_bucket.pack([p.grad for p in t.model_optimizer.params],
                            c.model_buf)
        if self._step.sampled:
            c.sampler_bucket.pack([p.grad for p in t.sampler_optimizer.params],
                                  c.sampler_buf)
        return self._step.sampled

    def comms_apply(self, sampler_due: bool) -> None:
        """Install the averaged gradients from the shared buffers (the
        sampler's when ``sampler_due``, i.e. when any shard contributed
        one) and run the trainer's apply half."""
        t, c = self.trainer, self._comms
        self._install(t.model_optimizer.params,
                      c.model_bucket.unpack(c.model_avg))
        if sampler_due:
            self._install(t.sampler_optimizer.params,
                          c.sampler_bucket.unpack(c.sampler_avg))
        self._step.sampled = sampler_due
        t._apply(self._step)

    def _install(self, params, grads: GradList) -> None:
        """Give each param a private copy of its averaged gradient: clipping
        scales gradients in place, and every worker reads views of the one
        averaged buffer."""
        for p, g in zip(params, grads):
            p.grad = None if g is None else np.array(g, copy=True)

    def end_epoch(self) -> Tuple[EpochStats, SliceStats]:
        """Finish the batch iterator and run the trainer's epoch epilogue.

        Returns the shard's :class:`~repro.core.trainer.EpochStats` and its
        epoch :class:`~repro.device.memory.SliceStats` (the counts the
        sharded trainer merges across shards).  The worker's trainer keeps
        no history: the master's ``per_shard`` is the record.

        The iterator is run to natural exhaustion — exactly what the
        single-worker epoch loop does.  This matters for bitwise fidelity:
        when ``max_batches`` truncates the schedule, the engine pulls one
        more entry from the selector's generator before breaking (an RNG
        draw for the adaptive selector).  The sharded trainer sizes the
        epoch so no trained batch remains, making this a state-finalising
        no-op pull in normal operation.
        """
        if self._batches is not None:
            for _ in self._batches:  # pragma: no branch
                pass
        self._batches = None
        self._step = None
        stats = self.trainer._end_epoch()
        return stats, self.trainer.feature_store.snapshot()

    # -- replica state ----------------------------------------------------------------

    def model_state(self) -> Dict[str, Dict[str, np.ndarray]]:
        """State dicts of the replica (all replicas are bitwise identical)."""
        state = {"backbone": self.trainer.backbone.state_dict(),
                 "predictor": self.trainer.predictor.state_dict()}
        if self.trainer.sampler is not None:
            state["sampler"] = self.trainer.sampler.state_dict()
        return state
