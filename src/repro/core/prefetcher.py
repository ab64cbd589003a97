"""Mini-batch engines: synchronous, and ahead-of-time (AOT) sampling plans.

The reference :class:`BatchEngine` prepares every batch inside the training
loop.  :class:`AOTBatchEngine` plans a chunk of batches at a time: under the
deterministic ``recent`` finder policy the chunk's root queries are
concatenated and each hop's neighbor finding runs as one batched pass over
the T-CSR, with feature slicing batched (and deduplicated across the chunk's
batches) the same way.

Determinism contract
--------------------
Under a fixed seed both engines produce **bitwise-identical batches** (and
therefore identical losses and MRR).  Everything runs on the training
thread, every stateful component (finder RNG, negative sampler, feature
cache) is touched in training order, and configurations the plan cannot
cover run synchronously (see :func:`plan_capability`).

Capability model
----------------
``full``
    Both adaptive switches off: the complete multi-hop mini-batch is a pure
    function of the graph and the chronological schedule.
``first_hop``
    Adaptive neighbor sampling on: the hop-1 *candidate* neighborhood (NF +
    FS) is still state-free and is planned ahead; the adaptive selection and
    any deeper hops depend on the sampler's trainable parameters and run
    when the batch is trained on.  Requires a stateless finder, because the
    plan answers hop 1 out of the finder's sight.
``none``
    Adaptive mini-batch selection draws every schedule entry from importance
    scores updated after each optimiser step — nothing can run ahead.

A plan only exists under the ``recent`` policy (it is the one the T-CSR pass
can vectorise without drawing randomness); under any other policy the AOT
engine reports ``effective_mode == "sync"``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional

import numpy as np

from ..sampling.gpu_finder import GPUNeighborFinder
from .config import TaserConfig
from .prep import PreparedBatch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .trainer import TaserTrainer

__all__ = ["PreparedBatch", "plan_capability", "BatchEngine", "AOTBatchEngine",
           "make_engine", "ENGINE_MODES"]

ENGINE_MODES = ("sync", "aot")


def plan_capability(config: TaserConfig, finder) -> str:
    """How much of a batch can be generated ahead of the training loop.

    Returns ``"full"``, ``"first_hop"`` or ``"none"`` — see the module
    docstring for the reasoning behind each rule.
    """
    if config.adaptive_minibatch:
        # The schedule itself depends on per-batch logit feedback (Eq. 11).
        return "none"
    if not config.adaptive_neighbor:
        return "full"
    if config.resolved_finder_policy == "recent" and not finder.requires_chronological:
        # The plan's finder answers hop 1, the trainer's finder the deeper
        # hops; that split is only invisible when the finder is
        # deterministic and stateless.
        return "first_hop"
    return "none"


class BatchEngine:
    """The synchronous (reference) mini-batch engine.

    An engine owns the epoch loop's data side: it decides *when* each batch
    of the schedule is prepared (inline, or in an ahead-of-time plan) and
    yields :class:`PreparedBatch` items for the trainer to consume.  The
    preparation itself is delegated to the shared prep runtime
    (``trainer.prep``, a :class:`~repro.core.prep.PrepPipeline`).

    Engines read ``trainer.{config, prep, finder, tcsr}`` dynamically, so a
    trainer may re-point those between epochs (the streaming subsystem
    rebuilds the prep pipeline and engine per sliding window for exactly
    this reason).
    """

    mode = "sync"

    def __init__(self, trainer: "TaserTrainer") -> None:
        self.trainer = trainer
        self.config = trainer.config
        self.capability = plan_capability(trainer.config, trainer.finder)

    @property
    def effective_mode(self) -> str:
        """The mode actually in effect after capability fallback."""
        return "sync"

    @property
    def is_fallback(self) -> bool:
        return self.effective_mode != self.mode

    def _sync_epoch(self, max_batches: Optional[int]) -> Iterator[PreparedBatch]:
        prep = self.trainer.prep
        for local_indices in prep.schedule(max_batches):
            yield prep.prepare_train(local_indices)

    def epoch(self, max_batches: Optional[int] = None) -> Iterator[PreparedBatch]:
        """Yield the prepared batches of one training epoch."""
        return self._sync_epoch(max_batches)


class AOTBatchEngine(BatchEngine):
    """Ahead-of-time engine: plan a chunk of batches before training on them.

    The root queries of the chunk's batches are concatenated and each hop's
    neighbor finding runs as one batched pass over the T-CSR, with feature
    slicing batched the same way.  Per-batch results are then cut back out
    of the concatenated arrays (batch blocks stay contiguous through the
    frontier expansion, so each cut is a plain row slice).

    Memory is bounded by planning in chunks of :attr:`plan_chunk` batches:
    only one chunk's prepared batches (with their sliced feature arrays) are
    held at a time, so epoch length does not change the engine's footprint.
    Chunking does not affect determinism — negatives are still drawn in
    strict batch order — and a chunk of 16 full-size batches keeps the
    vectorised kernels operating on thousands of rows.
    """

    mode = "aot"

    #: batches planned (and held in memory) per vectorised planning pass.
    plan_chunk = 16

    def __init__(self, trainer: "TaserTrainer") -> None:
        super().__init__(trainer)
        self._plan_finder = None
        if self.capability != "none" \
                and trainer.config.resolved_finder_policy == "recent":
            if isinstance(trainer.finder, GPUNeighborFinder):
                self._plan_finder = trainer.finder
            else:
                # The block-centric finder is the vectorised equivalent of the
                # per-query finders for the deterministic most-recent policy
                # (asserted by the engine test suite); it draws no RNG there.
                self._plan_finder = GPUNeighborFinder(
                    trainer.tcsr, policy="recent", seed=trainer.config.seed)

    @property
    def vectorised(self) -> bool:
        """Whether this configuration has a plan at all."""
        return self._plan_finder is not None

    @property
    def effective_mode(self) -> str:
        return "aot" if self.vectorised else "sync"

    def epoch(self, max_batches: Optional[int] = None) -> Iterator[PreparedBatch]:
        if not self.vectorised:
            return self._sync_epoch(max_batches)
        return self._planned_epoch(max_batches)

    def _planned_epoch(self, max_batches: Optional[int]) -> Iterator[PreparedBatch]:
        prep = self.trainer.prep
        schedule = prep.schedule(max_batches)
        while True:
            chunk: List[np.ndarray] = []
            for local_indices in schedule:
                chunk.append(local_indices)
                if len(chunk) >= self.plan_chunk:
                    break
            if not chunk:
                return
            # Negatives are drawn batch-by-batch in schedule order: the same
            # RNG sequence the sync engine consumes.
            prepared = [prep.assemble_train(ix) for ix in chunk]
            prep.plan_chunk(prepared, self.capability, self._plan_finder)
            yield from prepared


def make_engine(trainer: "TaserTrainer", mode: Optional[str] = None) -> BatchEngine:
    """Build the batch engine selected by ``trainer.config.batch_engine``."""
    mode = mode if mode is not None else trainer.config.batch_engine
    if mode == "sync":
        return BatchEngine(trainer)
    if mode == "aot":
        return AOTBatchEngine(trainer)
    raise ValueError(f"unknown batch engine {mode!r}; choose from {ENGINE_MODES}")
