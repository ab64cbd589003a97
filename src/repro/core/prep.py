"""Unified batch-prep runtime: the single producer of :class:`PreparedBatch`.

Mini-batch *preparation* — neighbor finding, feature slicing, adaptive
sampler encoding — dominates temporal-GNN training (the paper's Fig. 1; our
own ``BENCH_fig1_breakdown_*.json`` measures PrepShare ≈ 0.89–0.95).  Before
this runtime existed the prep path was assembled independently by four
consumers (the ``TaserTrainer`` batch engines, the ``StreamingTrainer``, the
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
                                                        MiniBatch / hop-1
                                                        candidate stage)

The ``candidates``/``gather``/``encode``/``assemble`` stages are implemented
by :class:`~repro.core.pipeline.MiniBatchGenerator` (a thin stage wrapper
the pipeline drives); the deduplicated fused gather lives behind the
:class:`~repro.device.memory.FeatureStore` choke point: unique node/edge ids
are computed once per gather (``np.unique`` + inverse map), features are
gathered and the cache is probed once per unique id, and rows scatter back
to every candidate slot — bitwise-identical outputs with strictly less
gather/cache work (TASER-style redundancy elimination, surfaced as
``SliceStats.dedup_ratio``).

Contracts
---------
1. **Bitwise identity** — batches prepared through the runtime are
   bitwise-identical to the pre-runtime per-consumer assembly under a fixed
   seed (the engines' determinism contract extends through prep: every RNG
   draw and cache access happens in exactly the training order).
2. **Single cache choke point** — all feature-cache lookups and hit/transfer
   accounting happen behind the deduplicated gather; no consumer touches the
   cache directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional

import numpy as np

from ..sampling.base import NeighborBatch
from ..sampling.recursive import flatten_frontier
from .pipeline import CandidateSlice, MiniBatchGenerator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..eval.negative_sampling import NegativeSampler
    from ..graph.splits import TemporalSplit
    from ..graph.temporal_graph import TemporalGraph

__all__ = ["PreparedBatch", "PrepPipeline"]

@dataclass
class PreparedBatch:
    """One batch with everything the prep runtime generated for it.

    ``minibatch`` is set once the full multi-hop batch is built; the AOT
    engine may instead carry only the hop-1 candidate stage
    (``first_hop``/``root_feat``) when deeper stages depend on trainable
    state and must run in the consumer (see
    :func:`~repro.core.prefetcher.plan_capability`).

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
    #: fully-built multi-hop mini-batch, or None if the consumer must build it.
    minibatch: Optional[object] = None
    #: precomputed hop-1 candidate stage (capability ``first_hop``).
    first_hop: Optional[CandidateSlice] = None
    #: precomputed root features (only meaningful when ``first_hop`` is set;
    #: None is a valid value for graphs without node features).
    root_feat: Optional[np.ndarray] = None


class PrepPipeline:
    """Staged batch-prep runtime shared by every execution path.

    A pipeline is a cheap façade over the live components it drives — the
    stage wrapper (:class:`~repro.core.pipeline.MiniBatchGenerator`), the
    negative sampler, and (for training schedules) the graph/split/selector
    triple.  Consumers that re-point those components (the streaming trainer
    rebuilds finder/generator/split per sliding window) rebuild the pipeline
    with them; consumers that only *evaluate* (the offline evaluator, the
    prequential scorer) need just ``generator`` + explicit query arrays.

    Parameters
    ----------
    generator:
        The candidates/gather/encode/assemble stage wrapper.
    negative_sampler:
        Draws one negative destination per positive for training batches
        (evaluation batches bring their own negative matrix).
    graph, split, selector:
        Training-schedule components; optional for evaluation-only pipelines.
    """

    #: There is one prep path and no registry; the name stays because the
    #: frozen benchmarks/e2e/workloads.py records ``trainer.prep.name``.
    name = "reference"

    def __init__(self, generator: MiniBatchGenerator,
                 negative_sampler: Optional["NegativeSampler"] = None,
                 graph: Optional["TemporalGraph"] = None,
                 split: Optional["TemporalSplit"] = None,
                 selector=None) -> None:
        self.generator = generator
        self.negative_sampler = negative_sampler
        self.graph = graph
        self.split = split
        self.selector = selector

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

    def finish(self, prepared: PreparedBatch, train: bool = True) -> PreparedBatch:
        """Run the remaining stages until ``prepared.minibatch`` is built.

        Honours whatever was planned ahead of time: a precomputed hop-1
        candidate stage (``first_hop``/``root_feat``) is consumed instead of
        re-running NF/FS, and an already-built mini-batch passes through
        untouched — so the same entry point serves the synchronous path and
        the consumer half of the AOT engine.
        """
        if prepared.minibatch is None:
            prepared.minibatch = self.generator.build(
                prepared.roots, prepared.times, train=train,
                first_hop=prepared.first_hop, root_feat=prepared.root_feat)
        return prepared

    def prepare_train(self, local_indices: np.ndarray) -> PreparedBatch:
        """Fully prepare one training batch (the synchronous reference path)."""
        return self.finish(self.assemble_train(local_indices), train=True)

    def prepare_eval(self, src: np.ndarray, dst: np.ndarray, ts: np.ndarray,
                     negatives: np.ndarray) -> PreparedBatch:
        """Fully prepare one evaluation batch (offline or prequential MRR)."""
        return self.finish(self.assemble_eval(src, dst, ts, negatives),
                           train=False)

    # -- vectorised chunk planning (AOT engine) ----------------------------------

    def plan_chunk(self, prepared: List[PreparedBatch], capability: str,
                   plan_finder) -> None:
        """Vectorise the candidate/gather stages over a chunk of batches.

        The chunk's root queries are concatenated and each hop's neighbor
        finding runs as one batched pass over the T-CSR through
        ``plan_finder`` (the block-centric finder under the deterministic
        ``recent`` policy); feature slicing runs through the store's
        deduplicated fused gather, so ids repeated *across the chunk's
        batches* — not just within one batch — collapse to a single gathered
        row.  Per-batch results are then cut back out of the concatenated
        arrays (batch blocks stay contiguous through the frontier expansion,
        so each cut is a plain row slice).
        """
        from ..models.minibatch import HopData, MiniBatch

        generator = self.generator
        store = generator.feature_store
        timer = generator.timer
        budget = generator._candidate_budget()
        num_layers = generator.num_layers if capability == "full" else 1
        sizes = [item.roots.size for item in prepared]

        cur_nodes = np.concatenate([item.roots for item in prepared])
        cur_times = np.concatenate([item.times for item in prepared])
        with timer.section("FS"):
            root_feat_all = store.slice_node_features(cur_nodes)

        # Per layer: (candidates, edge_feat, neigh_feat, target_feat, offsets).
        layer_stages = []
        for layer in range(num_layers):
            with timer.section("NF"):
                candidates = plan_finder.sample(cur_nodes, cur_times, budget)
            candidates.check_padding()
            with timer.section("FS"):
                edge_feat, neigh_feat, target_feat = \
                    generator._slice_candidate_features(candidates, cur_nodes)
            rows = [size * budget ** layer for size in sizes]
            offsets = np.concatenate([[0], np.cumsum(rows)])
            layer_stages.append((candidates, edge_feat, neigh_feat, target_feat,
                                 offsets))
            cur_nodes, cur_times = flatten_frontier(candidates)

        root_offsets = np.concatenate([[0], np.cumsum(sizes)])
        for i, item in enumerate(prepared):
            lo, hi = int(root_offsets[i]), int(root_offsets[i + 1])
            root_feat = root_feat_all[lo:hi] if root_feat_all is not None else None
            slices = [self._cut_stage(stage, i) for stage in layer_stages]
            if capability == "full":
                minibatch = MiniBatch(root_nodes=item.roots, root_times=item.times,
                                      root_node_feat=root_feat)
                for stage in slices:
                    minibatch.hops.append(HopData(
                        batch=stage.candidates, edge_feat=stage.edge_feat,
                        neigh_node_feat=stage.neigh_node_feat,
                        target_node_feat=stage.target_node_feat))
                item.minibatch = minibatch
            else:
                item.root_feat = root_feat
                item.first_hop = slices[0]

    @staticmethod
    def _cut_stage(stage, index: int) -> CandidateSlice:
        """Cut batch ``index``'s rows out of one concatenated layer stage."""
        candidates, edge_feat, neigh_feat, target_feat, offsets = stage
        lo, hi = int(offsets[index]), int(offsets[index + 1])
        batch = NeighborBatch(
            root_nodes=candidates.root_nodes[lo:hi],
            root_times=candidates.root_times[lo:hi],
            nodes=candidates.nodes[lo:hi],
            eids=candidates.eids[lo:hi],
            times=candidates.times[lo:hi],
            mask=candidates.mask[lo:hi],
        )
        return CandidateSlice(
            candidates=batch,
            edge_feat=edge_feat[lo:hi] if edge_feat is not None else None,
            neigh_node_feat=neigh_feat[lo:hi] if neigh_feat is not None else None,
            target_node_feat=target_feat[lo:hi] if target_feat is not None else None,
        )
