"""MRR evaluation of a trained TGNN + (optional) adaptive sampler.

Implements the DistTGL protocol used by the paper: every evaluation edge is
scored against ``num_negatives`` randomly drawn destination nodes *at the
same timestamp* and ranked by the edge predictor.

Evaluation batches are prepared through the shared prep runtime
(:class:`~repro.core.prep.PrepPipeline`), the same staged pipeline that
serves training: eval therefore benefits from the deduplicated fused gather
and its cache accounting, and any prep optimisation automatically covers
the evaluation path.

Scoring runs its chunks on every core the process may use: the calling
thread and a persistent pool of helper threads take chunk indices from one
shared counter.  Almost all of a chunk's time is spent in NumPy / BLAS calls
that release the GIL.  Each chunk's finder draws come from its own
generator, seeded from the caller's before any chunk runs, so scores do not
depend on how many threads ran or which thread took which chunk.
"""

from __future__ import annotations

import ctypes
import os
import threading
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from .. import _BLAS_THREADS
from ..graph.splits import TemporalSplit
from ..models.base import TGNNBackbone
from ..models.edge_predictor import EdgePredictor
from ..tensor import no_grad
from ..utils.rng import new_rng
from .metrics import ranking_report
from .negative_sampling import NegativeSampler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import ThreadPoolExecutor

__all__ = ["LinkPredictionEvaluator", "score_link_queries", "SCORING_CHUNK_ROOTS"]

#: roots (src + dst + negatives) scored per no-grad forward — the order of a
#: training step's 300-600 roots.  Unbounded, a 50-edge x 51-root forward makes
#: hop-2 sampler activations of ~35 MB each, above glibc's 32 MB mmap ceiling:
#: every such array is mapped, page-faulted in and unmapped again.  The bound
#: counts roots before the forward-only batch drops repeated ``(node, t)``
#: queries, so a chunk's edges never depend on how many of its roots repeat.
SCORING_CHUNK_ROOTS = 512

#: ``M_ARENA_MAX`` of glibc's ``<malloc.h>``.
_M_ARENA_MAX = -8


def _one_malloc_arena() -> None:
    """Make every thread allocate from glibc's main arena (no-op elsewhere).

    With an arena per thread, each scoring thread keeps its own freed pages
    and peak RSS grows by one chunk's working set per thread; scoring was
    also slower that way.
    """
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        glibc = None
    if not glibc:
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)


def _pool_size(chunks: int) -> int:
    """Threads that score ``chunks`` chunks at once, the caller included.

    The CPUs the process may use, divided by the threads BLAS uses (every
    CPU when ``repro`` could not pin them), capped at the number of chunks.
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
                    _one_malloc_arena()
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
    """Call ``score(i)`` once for each chunk index on ``threads`` threads, the
    caller among them.  After a chunk raises no new chunk starts; the first
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


def score_link_queries(prep, backbone: TGNNBackbone, predictor: EdgePredictor,
                       src: np.ndarray, dst: np.ndarray, ts: np.ndarray,
                       negatives: np.ndarray, rng: np.random.Generator,
                       batch_edges: Optional[int] = None
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Logits of ``(src, dst, ts)`` queries and of their negative destinations.

    The one scoring loop behind offline MRR and prequential evaluation:
    ``negatives`` is the whole ``(edges, k)`` matrix, drawn by the caller
    before chunking so the ranking does not depend on ``batch_edges``.
    Scores in chunks of ``batch_edges`` edges (default: as many as keep a
    forward within :data:`SCORING_CHUNK_ROOTS` roots) under ``no_grad`` and
    evaluation mode, and returns ``(pos (edges,), neg (edges, k))``.  Each
    chunk is one forward-only mini-batch, which computes every distinct
    ``(node, t)`` once per hop, and writes only its own rows of the outputs.

    ``rng`` is the caller's generator: it advances by exactly one draw per
    chunk, the seed of that chunk's finder draws, taken in chunk order before
    any chunk runs.  A stochastic finder policy therefore never draws from
    the training stream, and the scores are the same whatever number of
    threads (:func:`_pool_size`) scored the chunks.  Evaluation mode is
    restored only after every chunk has finished or raised.
    """
    k = negatives.shape[1]
    if batch_edges is None:
        batch_edges = max(1, SCORING_CHUNK_ROOTS // (2 + k))
    chunks = -(-src.size // batch_edges)
    seeds = rng.bit_generator.random_raw(chunks)
    pos_scores = np.empty(src.size)
    neg_scores = np.empty((src.size, k))

    def score(index: int) -> None:
        chunk = slice(index * batch_edges, min((index + 1) * batch_edges, src.size))
        b = chunk.stop - chunk.start
        # Root layout [src | dst | negatives (row-major)] is assembled by the
        # prep runtime.
        prepared = prep.prepare_eval(src[chunk], dst[chunk], ts[chunk],
                                     negatives[chunk],
                                     rng=np.random.default_rng(int(seeds[index])))
        embeddings = backbone.embed(prepared.minibatch)
        h_src = embeddings[:b]
        pos_scores[chunk] = predictor(h_src, embeddings[b:2 * b]).data
        # Repeat each source embedding once per negative.
        src_rep = h_src[np.repeat(np.arange(b), k)]
        neg_scores[chunk] = predictor(
            src_rep, embeddings[2 * b:]).data.reshape(b, k)

    was_training = backbone.training
    backbone.eval()
    predictor.eval()
    try:
        # Helpers create tensors under the caller's no_grad: the switch is
        # process-global, so only the caller enters and leaves it.
        with no_grad():
            _run_chunks(score, chunks, _pool_size(chunks))
    finally:
        backbone.train(was_training)
        predictor.train(was_training)
    return pos_scores, neg_scores


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
                 max_edges: Optional[int] = 300,
                 batch_edges: Optional[int] = None, seed: int = 0) -> None:
        if num_negatives <= 0:
            raise ValueError("num_negatives must be positive")
        self.split = split
        self.prep = prep
        self.backbone = backbone
        self.predictor = predictor
        self.num_negatives = num_negatives
        self.max_edges = max_edges
        self.batch_edges = batch_edges
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
                                      negatives, self.rng, self.batch_edges)
        return ranking_report(pos, neg)
