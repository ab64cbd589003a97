"""MRR evaluation of a trained TGNN + (optional) adaptive sampler.

Implements the DistTGL protocol used by the paper: every evaluation edge is
scored against ``num_negatives`` randomly drawn destination nodes *at the
same timestamp* and ranked by the edge predictor.

Evaluation batches are prepared through the shared prep runtime
(:class:`~repro.core.prep.PrepPipeline`), the same staged pipeline that
serves training: eval therefore benefits from the deduplicated fused gather
and its cache accounting, and any prep optimisation automatically covers
the evaluation path.

A scoring call works level by level: every distinct ``(node, t)`` query of a
level is sampled, gathered and aggregated once per call.  The heavy stages
run over row tiles of at most :data:`SCORING_TILE_ROWS` rows, on every core
the process may use: the calling thread and a persistent pool of helper
threads take tile indices from one shared counter.  Almost all of a tile's
time is spent in NumPy / BLAS calls that release the GIL; what is not costs
about 0.5 ms of hand-offs per tile whatever its rows, so the bound is as
large as the bytes per row allow (:data:`SCORING_TILE_ROWS`).  Each tile's
finder draws come from its own generator, seeded from the caller's before
the level's tiles run, so scores do not depend on how many threads ran or
which thread took which tile.
"""

from __future__ import annotations

import os
import threading
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from .. import _BLAS_THREADS
from ..graph.splits import TemporalSplit
from ..models.base import TGNNBackbone
from ..models.edge_predictor import EdgePredictor
from ..tensor import Tensor, no_grad
from ..utils.rng import new_rng
from ..utils.tiles import Tiles
from .metrics import ranking_report
from .negative_sampling import NegativeSampler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import ThreadPoolExecutor

__all__ = ["LinkPredictionEvaluator", "score_link_queries", "SCORING_TILE_ROWS"]

#: distinct rows per tile of a scoring stage: the targets of a level for the
#: finder, the gather, the adaptive sampler and each aggregate; the scored
#: (source, destination) pairs for the edge predictor.  Every array sized
#: rows x slots x channels lives inside one tile, so a call's working set does
#: not grow with its edge count.  Bytes per row set the bound: each tile costs
#: a fixed ~0.5 ms of GIL hand-offs on a 2-CPU host, so fewer, larger tiles
#: are faster, while the tiles in flight times the bytes per row set a call's
#: peak.  A forward-only GraphMixer aggregate holds 1.6 KB per row (n = 5,
#: d = 32), so a stream_prequential scoring call peaks at 5.8-6.1 MB traced
#: on two threads at 1 024 rows.
SCORING_TILE_ROWS = 1024


def _pool_size(chunks: int) -> int:
    """Threads that run ``chunks`` tiles at once, the caller included.

    The CPUs the process may use, divided by the threads BLAS uses (every
    CPU when ``repro`` could not pin them), capped at the number of tiles.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(chunks, cpus // (_BLAS_THREADS or cpus)))


class _Helpers:
    """The scoring threads besides the caller: one executor per process,
    created on first need and kept."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._pid: Optional[int] = None

    def run(self, work: Callable[[], None], helpers: int) -> None:
        """Run ``work()`` on the calling thread and on ``helpers`` helper
        threads; return once every one of them has returned."""
        futures = []
        if helpers:
            with self._lock:
                # A forked child (the shard pool forks) inherits the executor
                # but none of its threads.
                if self._pid != os.getpid():
                    # Imported here: a process that never scores on helper
                    # threads (serve, training alone) does not load it.
                    from concurrent.futures import ThreadPoolExecutor
                    self._executor = ThreadPoolExecutor(
                        max_workers=os.cpu_count(), thread_name_prefix="repro-scoring")
                    self._pid = os.getpid()
                futures = [self._executor.submit(work) for _ in range(helpers)]
        try:
            work()
        finally:
            for future in futures:
                future.result()


_HELPERS = _Helpers()


def _run_chunks(score: Callable[[int], None], chunks: int, threads: int) -> None:
    """Call ``score(i)`` once for each tile index on ``threads`` threads, the
    caller among them.  After a tile raises no new tile starts; the first
    error is re-raised once every thread has stopped."""
    lock = threading.Lock()
    indices = iter(range(chunks))
    errors: List[BaseException] = []

    def work() -> None:
        while not errors:
            with lock:
                index = next(indices, None)
            if index is None:
                return
            try:
                score(index)
            except BaseException as exc:  # re-raised by the caller below
                errors.append(exc)

    _HELPERS.run(work, threads - 1)
    if errors:
        raise errors[0]


def _pool_runner(call: Callable[[int], None], count: int) -> None:
    _run_chunks(call, count, _pool_size(count))


def score_link_queries(prep, backbone: TGNNBackbone, predictor: EdgePredictor,
                       src: np.ndarray, dst: np.ndarray, ts: np.ndarray,
                       negatives: np.ndarray, rng: np.random.Generator
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Logits of ``(src, dst, ts)`` queries and of their negative destinations.

    The one scoring loop behind offline MRR and prequential evaluation:
    ``negatives`` is the whole ``(edges, k)`` matrix, drawn by the caller.
    Under ``no_grad`` and evaluation mode, the call builds one forward-only
    batch over all its roots — each level's distinct ``(node, t)`` queries
    once — embeds it level by level, and scores every ``(source, destination)``
    pair; each stage runs over tiles of at most :data:`SCORING_TILE_ROWS`
    rows on the scoring threads (:func:`_pool_size`).  Returns
    ``(pos (edges,), neg (edges, k))``.

    ``rng`` is the caller's generator: it advances by exactly one raw draw
    per tile of each level, the seed of that tile's finder draws, taken in
    (level, tile) order before the level's tiles run.  A stochastic finder
    policy therefore never draws from the training stream, and the scores
    are the same whatever number of threads ran the tiles.  Evaluation mode
    is restored only after every tile has finished or raised.
    """
    b, k = negatives.shape
    tiles = Tiles(SCORING_TILE_ROWS, _pool_runner)
    # Pair p < b is (src[p], dst[p]); pair b + e k + q is (src[e], the q-th
    # negative of edge e).  The destination of pair p is root b + p.
    sources = np.concatenate([np.arange(b), np.repeat(np.arange(b), k)])
    logits = np.empty(sources.size)

    was_training = backbone.training
    backbone.eval()
    predictor.eval()
    try:
        # Helpers create tensors under the caller's no_grad: the switch is
        # process-global, so only the caller enters and leaves it.
        with no_grad():
            # Root layout [src | dst | negatives (row-major)] is assembled by
            # the prep runtime.
            minibatch = prep.prepare_eval(src, dst, ts, negatives, rng=rng,
                                          tiles=tiles).minibatch
            embeddings = backbone.embed(minibatch, prep.generator.hop_tile,
                                        tiles).data

            def score(index: int, pairs: slice) -> None:
                logits[pairs] = predictor(
                    Tensor(embeddings[sources[pairs]]),
                    Tensor(embeddings[b + pairs.start:b + pairs.stop])).data

            tiles.run(score, tiles.split(sources.size))
    finally:
        backbone.train(was_training)
        predictor.train(was_training)
    return logits[:b], logits[b:].reshape(b, k)


class LinkPredictionEvaluator:
    """Ranks positive destinations against sampled negatives.

    Parameters
    ----------
    split:
        The temporal split whose ``train``/``val``/``test`` edges are scored.
    prep:
        The shared :class:`~repro.core.prep.PrepPipeline` that builds the
        evaluation mini-batches (only its generator stages are used).  The
        evaluator owns the generators of its negatives and of the finder's
        draws while it scores, so scoring never perturbs training streams.
    """

    def __init__(self, split: TemporalSplit, prep, backbone: TGNNBackbone,
                 predictor: EdgePredictor, num_negatives: int = 49,
                 max_edges: Optional[int] = 300, seed: int = 0) -> None:
        if num_negatives <= 0:
            raise ValueError("num_negatives must be positive")
        self.split = split
        self.prep = prep
        self.backbone = backbone
        self.predictor = predictor
        self.num_negatives = num_negatives
        self.max_edges = max_edges
        self.rng = new_rng(seed)
        self.negatives = NegativeSampler(split.graph, seed=seed + 1)

    def _select_edges(self, which: str) -> np.ndarray:
        index = {"train": self.split.train_idx, "val": self.split.val_idx,
                 "test": self.split.test_idx}[which]
        if index.size == 0:
            raise ValueError(f"{which} split is empty")
        if self.max_edges is not None and index.size > self.max_edges:
            # Evenly spaced subsample keeps temporal coverage of the split.
            picks = np.linspace(0, index.size - 1, self.max_edges).astype(np.int64)
            return index[picks]
        return index

    def evaluate(self, which: str = "test") -> Dict[str, float]:
        """Return MRR / Hits@K over the requested split."""
        graph = self.split.graph
        edges = self._select_edges(which)
        dst = graph.dst[edges]
        negatives = self.negatives.sample_matrix(edges.size, self.num_negatives,
                                                 exclude=dst)
        pos, neg = score_link_queries(self.prep, self.backbone, self.predictor,
                                      graph.src[edges], dst, graph.ts[edges],
                                      negatives, self.rng)
        return ranking_report(pos, neg)
