"""Sharded data-parallel training subsystem.

The first multi-worker execution path in the codebase: a
:class:`~repro.graph.sharding.TemporalShardPlan` partitions the event log
into ``W`` shards (temporal-contiguous or hash-by-source), each worker owns
a complete per-shard training stack (T-CSR view, neighbor finder, feature
store with its slice of the global cache budget, mini-batch engine) plus a
model replica, and :class:`ShardedTrainer` keeps the replicas in lock-step
with deterministic gradient averaging at batch barriers.

``W = 1`` is bitwise-identical to the single-process
:class:`~repro.core.trainer.TaserTrainer`; ``W > 1`` is reproducible under a
fixed seed and identical across the ``serial``, ``thread`` and ``process``
pool backends, whose gradients meet in flat buckets held in shared memory
(process pool) or in-process buffers (serial / thread) —
:mod:`repro.distributed.comms`.  See ``docs/ARCHITECTURE.md`` (sharded
data-parallel layer, gradient comms layer).
"""

from .comms import GradientBucket, GradientComms, average_gradients
from .pool import (WORKER_BACKENDS, WorkerPool, SerialWorkerPool,
                   ThreadWorkerPool, ProcessWorkerPool, make_worker_pool)
from .trainer import ShardedEpochStats, ShardedTrainer
from .worker import ShardTask, ShardWorker

__all__ = [
    "WORKER_BACKENDS",
    "WorkerPool",
    "SerialWorkerPool",
    "ThreadWorkerPool",
    "ProcessWorkerPool",
    "make_worker_pool",
    "ShardedEpochStats",
    "ShardedTrainer",
    "average_gradients",
    "ShardTask",
    "ShardWorker",
    "GradientBucket",
    "GradientComms",
]
