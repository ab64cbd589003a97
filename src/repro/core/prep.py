"""Unified batch-prep runtime: the single producer of :class:`PreparedBatch`.

Mini-batch *preparation* — neighbor finding, feature slicing, adaptive
sampler encoding — dominates temporal-GNN training (the paper's Fig. 1; our
own ``BENCH_fig1_breakdown_*.json`` measures PrepShare ≈ 0.89–0.95).  Before
this runtime existed the prep path was assembled independently by four
consumers (the ``TaserTrainer`` batch engine, the ``StreamingTrainer``, the
distributed ``ShardWorker`` replicas and the ``LinkPredictionEvaluator``),
so every prep optimisation had to be implemented, and kept deterministic,
four times.  :class:`PrepPipeline` is now the one place batches are
prepared; all four consumers route through it.

Staged dataflow
---------------
::

    schedule ──▶ candidates ──▶ gather ──▶ encode ──▶ assemble
    (selector     (NF: finder     (FS: FeatureStore    (AS: adaptive
     walk,         sample +        deduplicated         sampler selection,
     negatives)    padding         fused gather at      REINFORCE log-probs)
                   contract)       the unique-id                │
                                   choke point)                 ▼
                                                       PreparedBatch
                                                       (roots, negatives,
                                                        MiniBatch)

The ``candidates``/``gather``/``encode``/``assemble`` stages are implemented
by :class:`~repro.core.pipeline.MiniBatchGenerator` (a thin stage wrapper
the pipeline drives); the deduplicated fused gather lives behind the
:class:`~repro.device.memory.FeatureStore` choke point: unique node/edge ids
are computed once per gather (a sorted unique + inverse map), features are
gathered and the cache is probed once per unique id, and rows scatter back
to every candidate slot — bitwise-identical outputs with strictly less
gather/cache work (TASER-style redundancy elimination, surfaced as
``SliceStats.dedup_ratio``).

Contracts
---------
1. **Bitwise identity** — under a fixed seed the runtime prepares the same
   batches on every run: the schedule stage's streams (selector, negatives)
   and the cache are touched in training order, and every tile of a batch
   draws from its own generator, seeded by one raw draw of
   :attr:`PrepPipeline.rng` (:meth:`~repro.core.pipeline.MiniBatchGenerator.build`).
2. **Single cache choke point** — all feature-cache lookups and hit/transfer
   accounting happen behind the deduplicated gather; no consumer touches the
   cache directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

import numpy as np

from .pipeline import MiniBatchGenerator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..eval.negative_sampling import NegativeSampler
    from ..graph.splits import TemporalSplit
    from ..graph.temporal_graph import TemporalGraph
    from ..utils.tiles import Tiles

__all__ = ["PreparedBatch", "PrepPipeline"]

@dataclass
class PreparedBatch:
    """One batch with everything the prep runtime generated for it.

    ``minibatch`` is set once :meth:`PrepPipeline.finish` has built the
    full multi-hop batch.

    Training batches carry ``local_indices`` (the schedule entry) and one
    negative per positive; evaluation batches carry ``local_indices=None``
    and a ``(b, k)`` negative matrix.
    """

    #: training-set-local indices of the positive edges, shape (b,); None
    #: for evaluation batches (which are not drawn from a schedule).
    local_indices: Optional[np.ndarray]
    #: number of positive edges b.
    num_positives: int
    #: sampled negative destinations: shape (b,) for training batches
    #: (roots are [src; dst; negatives]), (b, k) for evaluation batches
    #: (roots are [src; dst; negatives row-major]).
    negatives: np.ndarray
    #: root node ids of all root queries.
    roots: np.ndarray
    #: query timestamps of all root queries.
    times: np.ndarray
    #: fully-built multi-hop mini-batch; None until the batch is finished.
    minibatch: Optional[object] = None


class PrepPipeline:
    """Staged batch-prep runtime shared by every execution path.

    A pipeline is a cheap façade over the live components it drives — the
    stage wrapper (:class:`~repro.core.pipeline.MiniBatchGenerator`), the
    negative sampler, and (for training schedules) the graph/split/selector
    triple and the batches' generator.  Consumers re-point those components
    in place (the streaming trainer swaps the finder, split and selector per
    sliding window, keeping the generator's stream); consumers that only
    *evaluate* (the offline evaluator, the prequential scorer) need just
    ``generator`` + explicit query arrays and their own generator.

    Parameters
    ----------
    generator:
        The candidates/gather/encode/assemble stage wrapper.
    negative_sampler:
        Draws one negative destination per positive for training batches
        (evaluation batches bring their own negative matrix).
    graph, split, selector:
        Training-schedule components; optional for evaluation-only pipelines.
    rng:
        The training batches' generator: each batch takes one raw draw per
        level from it to seed that level's tile.  Optional for
        evaluation-only pipelines, whose callers pass their own generator.
    """

    #: There is one prep path and no registry; the name stays because the
    #: frozen benchmarks/e2e/workloads.py records ``trainer.prep.name``.
    name = "reference"

    def __init__(self, generator: MiniBatchGenerator,
                 negative_sampler: Optional["NegativeSampler"] = None,
                 graph: Optional["TemporalGraph"] = None,
                 split: Optional["TemporalSplit"] = None,
                 selector=None,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.generator = generator
        self.negative_sampler = negative_sampler
        self.graph = graph
        self.split = split
        self.selector = selector
        self.rng = rng

    # -- stage: schedule ---------------------------------------------------------

    def schedule(self, max_batches: Optional[int] = None) -> Iterator[np.ndarray]:
        """Walk the selector's epoch schedule (training-set-local indices)."""
        if self.selector is None:
            raise ValueError("this PrepPipeline has no selector: it can only "
                             "prepare explicit (src, dst, ts) query batches")
        for i, batch in enumerate(self.selector.epoch()):
            if max_batches is not None and i >= max_batches:
                break
            yield batch

    # -- root-query assembly -----------------------------------------------------

    def assemble_train(self, local_indices: np.ndarray) -> PreparedBatch:
        """Root-query assembly of one training batch, in the sync order.

        Looks up the scheduled positives in the split, draws one negative
        destination per positive (the only RNG this stage consumes), and
        lays the roots out as ``[src; dst; negatives]``.
        """
        if self.graph is None or self.split is None:
            raise ValueError("this PrepPipeline has no graph/split: it can "
                             "only prepare explicit (src, dst, ts) batches")
        graph = self.graph
        global_idx = self.split.train_idx[local_indices]
        src = graph.src[global_idx]
        dst = graph.dst[global_idx]
        ts = graph.ts[global_idx]
        b = int(global_idx.size)
        negatives = self.negative_sampler.sample(b, exclude=dst)
        roots = np.concatenate([src, dst, negatives])
        times = np.concatenate([ts, ts, ts])
        return PreparedBatch(local_indices=local_indices, num_positives=b,
                             negatives=negatives, roots=roots, times=times)

    def assemble_eval(self, src: np.ndarray, dst: np.ndarray, ts: np.ndarray,
                      negatives: np.ndarray) -> PreparedBatch:
        """Root-query assembly of one evaluation batch.

        ``negatives`` is the caller's ``(b, k)`` matrix (evaluation owns its
        negative-sampling RNG so scoring never perturbs training streams);
        roots are laid out ``[src; dst; negatives row-major]`` with each
        positive's timestamp repeated across its negatives.
        """
        src = np.asarray(src)
        dst = np.asarray(dst)
        ts = np.asarray(ts)
        negatives = np.asarray(negatives)
        b = int(src.size)
        if negatives.ndim != 2 or negatives.shape[0] != b:
            raise ValueError(
                f"negatives must have shape (b, k) with b={b}, "
                f"got {negatives.shape}")
        k = int(negatives.shape[1])
        roots = np.concatenate([src, dst, negatives.reshape(-1)])
        times = np.concatenate([ts, ts, np.repeat(ts, k)])
        return PreparedBatch(local_indices=None, num_positives=b,
                             negatives=negatives, roots=roots, times=times)

    # -- stages: candidates -> gather -> encode -> assemble ----------------------

    def finish(self, prepared: PreparedBatch, rng: np.random.Generator,
               train: bool = True,
               tiles: Optional["Tiles"] = None) -> PreparedBatch:
        """Run the candidates/gather/encode/assemble stages: build
        ``prepared.minibatch`` from the assembled root queries, each tile
        seeded by one raw draw of ``rng``; a forward-only batch
        (``train=False``) runs its levels over ``tiles``
        (:meth:`MiniBatchGenerator.build`)."""
        prepared.minibatch = self.generator.build(
            prepared.roots, prepared.times, rng, train=train, tiles=tiles)
        return prepared

    def prepare_train(self, local_indices: np.ndarray) -> PreparedBatch:
        """Fully prepare one training batch, its tiles seeded from
        :attr:`rng`."""
        return self.finish(self.assemble_train(local_indices), self.rng)

    def prepare_eval(self, src: np.ndarray, dst: np.ndarray, ts: np.ndarray,
                     negatives: np.ndarray, rng: np.random.Generator,
                     tiles: Optional["Tiles"] = None) -> PreparedBatch:
        """Prepare the forward-only batch of one scoring call (offline or
        prequential MRR), each of ``tiles`` seeded by one raw draw of
        ``rng``."""
        return self.finish(self.assemble_eval(src, dst, ts, negatives), rng,
                           train=False, tiles=tiles)
