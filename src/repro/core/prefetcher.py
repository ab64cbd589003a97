"""The mini-batch engine: each training batch is prepared inside the loop.

:class:`BatchEngine` walks the epoch schedule and prepares every batch
through the shared prep runtime (the trainer's :class:`PrepPipeline`) right
before the trainer consumes it.  Everything runs on the training thread and
every stateful component (the batches' generator, negative sampler, feature
cache) is touched in training order, which is what makes a fixed seed
reproduce the loss trajectory bitwise.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .prep import PrepPipeline, PreparedBatch

__all__ = ["PreparedBatch", "BatchEngine"]


class BatchEngine:
    """Yields the :class:`PreparedBatch` items of one training epoch.

    The engine holds the trainer's prep pipeline, not the trainer, so a
    trainer is freed by reference counting (no trainer ↔ engine cycle).  A
    trainer never rebinds its pipeline; the streaming trainer re-points the
    pipeline's split and selector per sliding window, which the engine reads
    at each epoch.
    """

    #: There is one engine and no capability fallback; the name stays because
    #: the frozen benchmarks/e2e/workloads.py records
    #: ``trainer.engine.effective_mode``.
    effective_mode = "sync"

    def __init__(self, prep: PrepPipeline) -> None:
        self.prep = prep

    def epoch(self, max_batches: Optional[int] = None) -> Iterator[PreparedBatch]:
        """Yield the prepared batches of one training epoch."""
        prep = self.prep
        for local_indices in prep.schedule(max_batches):
            yield prep.prepare_train(local_indices)
