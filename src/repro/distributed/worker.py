"""Per-shard training worker: the unit both worker pools execute.

A :class:`ShardWorker` owns one shard's complete single-worker training
stack — a :class:`~repro.core.trainer.TaserTrainer` built over the shard's
event view, with its own T-CSR, neighbor finder, feature store/cache slice,
prep runtime (:class:`~repro.core.prep.PrepPipeline` — the shard's batches
are prepared through the same shared pipeline as every other execution
path, including its deduplicated fused gather), batch engine and model
*replica*.  Its :class:`ShardTask` carries its views of the master's flat
gradient buckets (:mod:`repro.distributed.comms`), created before the pool
started; the worker checks its parameter shapes against them when built,
and the sharded trainer drives all workers in lock-step through the split
step protocol:

1. :meth:`comms_model_backward` — generate the shard's next mini-batch
   (through the shard's own batch engine), run forward + backward and
   pack the gradients into this worker's buffer;
2. :meth:`comms_apply_model`    — overwrite the replica's gradients with the
   globally averaged ones, clip, step, run the shard-local selector update,
   and (for adaptive configs) backprop the sampler loss and pack its
   gradients;
3. :meth:`comms_apply_sampler`  — apply the averaged sampler gradients.

Because every replica starts from identical weights (same config seed) and
steps on identical averaged gradients, replicas stay **bitwise identical**
across workers for the whole run — there is no weight broadcast, only the
gradient barrier.  All methods take and return picklable values only, so the
same class serves the serial pool and the process pool's forked children.

Packing copies: a live ``p.grad`` is a buffer the autograd engine may have
borrowed from an interior node and keeps accumulating into in place (see
"Gradient ownership" in :mod:`repro.tensor.tensor`), so it must not be
aliased by what the master reduces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.config import TaserConfig
from ..core.trainer import TaserTrainer, TrainStep
from ..graph.temporal_graph import TemporalGraph
from .comms import GradList, WorkerCommsEndpoint

__all__ = ["ShardTask", "ShardWorker"]


@dataclass
class ShardTask:
    """Everything needed to build one shard's worker.

    Raw arrays and config, plus ``comms``: the worker's own gradient
    buffers and the averaged ones, views of shared mappings that a forked
    child inherits.  ``None`` builds a worker for driving the split step
    halves by hand (the reference barrier of the tests).
    """

    config: TaserConfig
    shard_index: int
    num_shards: int
    cache_capacity: int
    src: np.ndarray
    dst: np.ndarray
    ts: np.ndarray
    num_nodes: int
    edge_feat: Optional[np.ndarray] = None
    node_feat: Optional[np.ndarray] = None
    meta: Dict = field(default_factory=dict)
    comms: Optional[WorkerCommsEndpoint] = None

    def build_graph(self) -> TemporalGraph:
        return TemporalGraph(src=self.src, dst=self.dst, ts=self.ts,
                             num_nodes=self.num_nodes, edge_feat=self.edge_feat,
                             node_feat=self.node_feat, meta=dict(self.meta))


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
    """One shard's training replica plus the lock-step epoch protocol."""

    def __init__(self, task: ShardTask) -> None:
        self.task = task
        self.trainer = _ShardTrainer(task.build_graph(), task.config,
                                     task.cache_capacity)
        self._batches = None
        self._step: Optional[TrainStep] = None
        self._losses: List[float] = []
        self._sample_losses: List[float] = []
        self._comms = task.comms
        self._pack_seconds = 0.0
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
        """Mirror of ``TaserTrainer.train_epoch``'s prologue, minus the loop."""
        t = self.trainer
        t.backbone.train()
        t.predictor.train()
        if t.sampler is not None:
            t.sampler.train()
        if t.finder.requires_chronological:
            t.finder.reset()
        t.timer.reset()
        t.feature_store.reset_stats()
        self._batches = iter(t.engine.epoch(max_batches))
        self._step = None
        self._losses = []
        self._sample_losses = []
        self._pack_seconds = 0.0

    # -- lock-step protocol --------------------------------------------------------

    def comms_model_backward(self) -> bool:
        """Advance to the shard's next batch, run forward + backward and
        pack the gradients into this worker's flat buffer in place; only a
        present/exhausted flag crosses the pool channel.

        Returns ``False`` once the shard's schedule is exhausted (the sharded
        trainer sizes the epoch to the smallest shard, so this only happens
        if it over-asks).
        """
        if not self._backward():
            return False
        t = self.trainer
        c = self._comms
        t0 = time.perf_counter()
        # The pack *is* the copy that decouples the live p.grad buffers from
        # the barrier.
        c.model_bucket.pack([p.grad for p in t.model_optimizer.params],
                            c.model_buf)
        self._pack_seconds += time.perf_counter() - t0
        return True

    def comms_apply_model(self) -> Tuple[bool, float]:
        """Apply the averaged model gradients from the shared buffer, run the
        shard-local feedback updates, and pack any sampler gradients into
        this worker's sampler buffer.  Returns (has sampler contribution,
        in-method seconds) — the seconds let the master subtract worker
        compute from the exchange wall time."""
        t0 = time.perf_counter()
        c = self._comms
        sampler_params = self._apply_model_grads(
            c.model_bucket.unpack(c.model_avg))
        if sampler_params is not None:
            p0 = time.perf_counter()
            c.sampler_bucket.pack([p.grad for p in sampler_params],
                                  c.sampler_buf)
            self._pack_seconds += time.perf_counter() - p0
        return sampler_params is not None, time.perf_counter() - t0

    def comms_apply_sampler(self) -> Tuple[None, float]:
        """Apply the averaged sampler gradients (clip + step, AS phase),
        timed like :meth:`comms_apply_model`."""
        t0 = time.perf_counter()
        c = self._comms
        self._apply_sampler_grads(c.sampler_bucket.unpack(c.sampler_avg))
        return None, time.perf_counter() - t0

    # -- transport-independent halves of a step ------------------------------------

    def _backward(self) -> bool:
        """Next batch, forward + backward; gradients stay in ``p.grad``."""
        prepared = next(self._batches, None)
        if prepared is None:
            self._step = None
            return False
        self._step = self.trainer._model_backward(prepared)
        return True

    def _apply_model_grads(self, grads: GradList):
        """Install averaged model gradients, step, run the selector update
        and (adaptive configs) backprop the sampler loss.

        Returns the sampler optimizer's live params when the adaptive
        sampler produced a sample loss for this batch, else ``None``.
        """
        t = self.trainer
        step = self._step
        t0 = time.perf_counter()
        for p, g in zip(t.model_optimizer.params, grads):
            # Private copy: clipping scales gradients in place, and every
            # worker reads views of the one averaged buffer.
            p.grad = None if g is None else np.array(g, copy=True)
        self._pack_seconds += time.perf_counter() - t0
        t._model_step()
        t.selector.update(step.prepared.local_indices, step.pos_logits.data)
        self._losses.append(float(step.model_loss.data))

        if t.sampler_optimizer is None:
            self._sample_losses.append(0.0)
            return None
        with t.timer.section("AS"):
            sample_loss = t._sampler_backward(step)
        if sample_loss is None:
            self._sample_losses.append(0.0)
            return None
        self._sample_losses.append(float(sample_loss.data))
        return t.sampler_optimizer.params

    def _apply_sampler_grads(self, grads: GradList) -> None:
        """Install averaged sampler gradients; clip + step (AS phase)."""
        t = self.trainer
        t0 = time.perf_counter()
        for p, g in zip(t.sampler_optimizer.params, grads):
            p.grad = None if g is None else np.array(g, copy=True)
        self._pack_seconds += time.perf_counter() - t0
        with t.timer.section("AS"):
            t._sampler_step()

    def end_epoch(self) -> Dict:
        """Finish the batch iterator and return the shard's epoch summary.

        The iterator is run to natural exhaustion — exactly what the
        single-worker epoch loop does.  This matters for bitwise fidelity:
        when ``max_batches`` truncates the schedule, the engine pulls one
        more entry from the selector's generator before breaking (an RNG
        draw for the adaptive selector).  The sharded trainer sizes the
        epoch so no trained batch remains, making this a state-finalising
        no-op pull in normal operation.
        """
        t = self.trainer
        if self._batches is not None:
            for _ in self._batches:  # pragma: no branch
                pass
        self._batches = None
        self._step = None
        runtime = t.timer.totals()
        slice_stats = t.feature_store.snapshot()
        runtime["FS_transfer"] = slice_stats.simulated_seconds
        runtime["FS"] = runtime.get("FS", 0.0) + slice_stats.simulated_seconds
        t.feature_store.end_epoch()
        from ..core.minibatch_selector import AdaptiveMiniBatchSelector
        ess = (t.selector.effective_sample_size()
               if isinstance(t.selector, AdaptiveMiniBatchSelector)
               else float(t.split.num_train))
        return {
            "shard": self.task.shard_index,
            "losses": list(self._losses),
            "sample_losses": list(self._sample_losses),
            "runtime": runtime,
            "cache_hit_rate": (slice_stats.hit_rate
                               if t.cache is not None else 0.0),
            "dedup_ratio": slice_stats.dedup_ratio,
            "slice_stats": slice_stats.as_dict(),
            "effective_sample_size": float(ess),
            "num_events": t.graph.num_edges,
            "num_train": t.split.num_train,
            "pack_seconds": float(self._pack_seconds),
        }

    # -- replica state ----------------------------------------------------------------

    def model_state(self) -> Dict[str, Dict[str, np.ndarray]]:
        """State dicts of the replica (all replicas are bitwise identical)."""
        state = {"backbone": self.trainer.backbone.state_dict(),
                 "predictor": self.trainer.predictor.state_dict()}
        if self.trainer.sampler is not None:
            state["sampler"] = self.trainer.sampler.state_dict()
        return state
