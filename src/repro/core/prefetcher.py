"""The mini-batch engine: each training batch is prepared inside the loop.

:class:`BatchEngine` walks the epoch schedule and prepares every batch
through the shared prep runtime (``trainer.prep``) right before the trainer
consumes it.  Everything runs on the training thread and every stateful
component (the batches' generator, negative sampler, feature cache) is
touched in training order, which is what makes a fixed seed reproduce the
loss trajectory bitwise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from .prep import PreparedBatch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .trainer import TaserTrainer

__all__ = ["PreparedBatch", "BatchEngine"]


class BatchEngine:
    """Yields the :class:`PreparedBatch` items of one training epoch.

    The engine reads ``trainer.prep`` at each epoch, so a trainer may
    re-point its prep pipeline between epochs (the streaming trainer does so
    per sliding window) without rebuilding the engine.
    """

    #: There is one engine and no capability fallback; the name stays because
    #: the frozen benchmarks/e2e/workloads.py records
    #: ``trainer.engine.effective_mode``.
    effective_mode = "sync"

    def __init__(self, trainer: "TaserTrainer") -> None:
        self.trainer = trainer

    def epoch(self, max_batches: Optional[int] = None) -> Iterator[PreparedBatch]:
        """Yield the prepared batches of one training epoch."""
        prep = self.trainer.prep
        for local_indices in prep.schedule(max_batches):
            yield prep.prepare_train(local_indices)
