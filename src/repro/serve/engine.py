"""Online link-prediction serving engine: micro-batched queries over the
shared prep runtime.

The training stack answers "how fast can we fit"; this module answers the
north-star's other half — "how fast can we *answer*".  A
:class:`ServeEngine` accepts :class:`LinkQuery` requests (``score the link
src -> dst at time t``), admits them into a bounded queue, micro-batches the
pending queries into **one** pass through the existing batch-prep runtime
(:class:`~repro.core.prep.PrepPipeline`) and **one** model forward, and
returns calibrated probabilities.

Objects exist only at the edge: :meth:`ServeEngine.submit` takes a
:class:`LinkQuery` apart into the pending columns (src, dst, t, deadline,
seq, enqueue time — arrays, not one object per query), and a flush builds
each :class:`ServeResult` once, after its micro-batch is scored.  Between
the two everything is columns.  Dataflow of one flush::

    submit(LinkQuery) ──▶ pending columns (queue_depth; shed-or-wait)
                              │ FIFO slices of <= max_batch rows
                              ▼
        _score(src, dst, t): endpoint (node, t) columns ──▶ NodeEmbeddingCache.lookup
                              │ misses only          (staleness bounds;
                              │                       off when time-exact)
                              ▼
              missing (node, t) ──▶ prep runtime ──▶ backbone.embed
               (one forward-only build + one forward for the whole
                micro-batch; each distinct (node, t) computed once)
                              │ fresh rows ──▶ NodeEmbeddingCache.insert
                              ▼
            EdgePredictor(h_src, h_dst) ──▶ sigmoid ──▶ score / logit columns
                              │
                              ▼
            ServeResult per query (score, latency, batch occupancy, cache hits)

Ingestion grows the engine's history through its mini-batch generator
(:meth:`~repro.core.pipeline.MiniBatchGenerator.ingest`), the one way a live
history grows; until the first accepted chunk the engine shares its
source's event log read-only.

Synchronous core, concurrency-ready: the engine itself never spawns
threads — `submit`/`flush` are plain calls, so a caller can drive it from an
event loop, a thread pool, or a benchmark loop — but every decision it makes
(admission, batching, cache eviction, staleness) depends only on the query
sequence and the seed, never on the wall clock, unless per-query deadlines
are used.  That is the **deterministic replay contract**: a fresh engine
built over the same model with the same seed, fed the same query sequence,
returns bitwise-identical scores (enforced by the ``serve_determinism`` hash
pair in ``BENCH_serve_latency.json`` through ``tools/bench_gate.py``).
Deadline shedding compares against the injected ``clock``; replayers that
use deadlines should inject a :class:`VirtualClock`.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from functools import partial
from itertools import compress, repeat
from numbers import Real
from operator import attrgetter
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from ..core.pipeline import MiniBatchGenerator
from ..core.prep import PrepPipeline
from ..device.memory import FeatureStore
from ..graph import tcsr as _tcsr
from ..graph.temporal_graph import TemporalGraph
from ..sampling import GPUNeighborFinder
from ..tensor import Tensor, get_backend, no_grad
from ..tensor import functional as F
from ..utils.rng import new_rng
from ..utils.timer import Timer
from .cache import NodeEmbeddingCache

__all__ = ["LinkQuery", "ServeResult", "ServeStats", "VirtualClock",
           "ServeEngine", "scores_hash"]


class LinkQuery(NamedTuple):
    """One link-prediction request: how likely is ``src -> dst`` at ``t``?

    ``src`` and ``dst`` are integer node ids (a Python or NumPy integer; a
    float or a bool is ``"invalid"``, never truncated).  ``deadline``
    (seconds, measured from submission on the engine's clock) optionally
    bounds how long the query may wait in the micro-batch queue (``None``
    and infinity bound nothing; any other value that is not a real, non-NaN
    number is ``"invalid"``); queries past their deadline at flush time are
    shed with status ``"expired"`` instead of being scored late.
    """

    src: int
    dst: int
    t: float
    deadline: Optional[float] = None


class ServeResult(NamedTuple):
    """Outcome of one :class:`LinkQuery`.

    ``status`` is ``"ok"`` (scored), ``"shed"`` (rejected at admission:
    queue full under the ``shed`` policy), ``"expired"`` (deadline passed
    while queued) or ``"invalid"`` (an endpoint that is not an integer node
    id of the universe, or a query time that is not a finite real number).
    ``score`` is the calibrated link probability ``sigmoid(logit)``.
    """

    query: LinkQuery
    status: str
    score: Optional[float] = None
    logit: Optional[float] = None
    #: seconds from submission to completion (0.0 for admission-time sheds).
    latency_seconds: float = 0.0
    #: size of the micro-batch this query was served in (0 if never batched).
    batch_size: int = 0
    #: how many of the query's two endpoints came from the embedding cache.
    cache_hits: int = 0
    #: submission order, assigned by the engine.
    seq: int = 0


#: positional constructors from one row of fields, called from C (``map``
#: over ``zip``ped columns): no Python frame per query.
_query_of = partial(tuple.__new__, LinkQuery)
_result_of = partial(tuple.__new__, ServeResult)

#: sort key of results: submission order (C-level, no Python frame per item).
_by_seq = attrgetter("seq")
#: a deadline column value back to the query's field: infinity is ``None``
#: (``dict.get(d, d)``, mapped from C).
_deadline_of = {math.inf: None}.get
_training = attrgetter("training")

#: the pending columns (attribute, dtype): one row per queued query, rows
#: ``[0, _count)`` live.  A query without a deadline holds infinity, which
#: no wait exceeds.
_COLUMNS = (("_src", np.int64), ("_dst", np.int64), ("_t", np.float64),
            ("_deadline", np.float64), ("_seq", np.int64),
            ("_enqueued", np.float64))


def _is_node_id(value) -> bool:
    """Whether ``value`` is an integer node id (a bool is not)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass
class ServeStats:
    """Engine-lifetime counters (see :meth:`ServeEngine.stats`)."""

    submitted: int = 0
    served: int = 0
    shed: int = 0
    expired: int = 0
    invalid: int = 0
    flushes: int = 0
    #: number of model forward passes (== number of micro-batches scored,
    #: so ``served / forward_batches`` is the mean micro-batch size).
    forward_batches: int = 0
    #: unique (node, t) embeddings computed by the model.
    embeddings_computed: int = 0
    #: endpoint lookups served from the embedding cache.
    embeddings_reused: int = 0
    events_ingested: int = 0


class VirtualClock:
    """Deterministic clock for replay mode: advances ``tick`` per reading.

    Injected as ``ServeEngine(clock=VirtualClock())`` it makes even
    deadline-based shedding a pure function of the query sequence, so a
    replay reproduces the exact admission decisions of the original run.
    """

    def __init__(self, tick: float = 1e-3) -> None:
        if tick <= 0:
            raise ValueError("tick must be positive")
        self.now = 0.0
        self.tick = float(tick)

    def __call__(self) -> float:
        self.now += self.tick
        return self.now


class ServeEngine:
    """Micro-batched link-prediction serving over a trained TGNN.

    Parameters
    ----------
    graph:
        Event history the queries are answered against.  The engine reads
        it through read-only views (:meth:`TemporalGraph.shared_view`): it
        copies nothing until its first :meth:`ingest` moves the history into
        private buffers, so the caller's graph is never written (and a
        replay engine can be built from the same source).  A
        non-chronological graph is sorted, which copies it.
    backbone, predictor, adaptive_sampler:
        The trained model stack (shared by reference, never copied — serving
        runs under ``no_grad`` in eval mode).
    max_batch:
        Micro-batch size: one prep pass + one forward serves up to this many
        queries.
    queue_depth:
        Admission bound on pending queries.  ``admission="wait"`` drains the
        queue synchronously when full (backpressure); ``admission="shed"``
        rejects the overflowing query with status ``"shed"``.
    staleness_events / staleness_time:
        Embedding-cache staleness bounds (see
        :class:`~repro.serve.cache.NodeEmbeddingCache`).
    cache_nodes:
        Embedding-cache capacity in nodes; 0 disables the cache.  The
        default follows the staleness bounds: 0 under time-exact staleness
        (``staleness_time=0.0``, where a hit would need an identical
        ``(node, t)`` query and would not spare the flush its build and
        forward), a quarter of the node universe under any other time bound.
    seed:
        Seed of the flushes' generator (:attr:`rng`), the one random stream
        of the engine: a ``uniform`` finder draws from it, an ingest never
        restarts it.
    clock:
        Callable returning monotonically increasing seconds
        (default ``time.perf_counter``; inject :class:`VirtualClock` for
        deterministic deadline handling in replay).
    """

    def __init__(self, graph: TemporalGraph, backbone, predictor, *,
                 adaptive_sampler=None, num_layers: int = 1,
                 num_neighbors: int = 5, num_candidates: Optional[int] = None,
                 finder_policy: str = "recent",
                 max_batch: int = 32, queue_depth: int = 128,
                 admission: str = "wait",
                 staleness_events: Optional[int] = None,
                 staleness_time: Optional[float] = 0.0,
                 cache_nodes: Optional[int] = None, seed: int = 0,
                 clock: Optional[Callable[[], float]] = None) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        if admission not in ("wait", "shed"):
            raise ValueError(f"admission must be 'wait' or 'shed', "
                             f"got {admission!r}")
        self.max_batch = int(max_batch)
        self.queue_depth = int(queue_depth)
        self.admission = admission
        self._clock = clock if clock is not None else time.perf_counter

        src = graph if graph.is_chronological else graph.sort_by_time()
        #: the event history: read-only views of the source's arrays until
        #: the first ingest appends, which moves it into private buffers.
        self.graph = src.shared_view()
        self.backbone = backbone
        self.predictor = predictor
        #: every module of the scoring stack, flat: a flush flips their modes
        #: in one pass instead of a recursive ``train()`` walk per root.
        self._modules = tuple(module for root in (backbone, predictor)
                              for _, module in root.named_modules())
        #: the array runtime the forward runs on (one per process).
        self.array_backend = get_backend()

        if cache_nodes is not None:
            capacity = cache_nodes
        elif staleness_time == 0.0:
            # Time-exact staleness: a hit needs the identical (node, t), which
            # a flush's destinations never repeat, and a hit would not spare
            # the build + forward of the misses beside it.
            capacity = 0
        else:
            capacity = max(1, self.graph.num_nodes // 4)
        self.embedding_cache = NodeEmbeddingCache(
            self.graph.num_nodes, capacity,
            staleness_events=staleness_events,
            staleness_time=staleness_time)

        self.timer = Timer()
        self.feature_store = FeatureStore(self.graph, edge_cache=None)
        # ``build_tcsr`` is looked up on its module at call time, where a
        # tracer wraps it.  The generator grows the history at each ingest.
        self.generator = MiniBatchGenerator(
            GPUNeighborFinder(_tcsr.build_tcsr(self.graph), policy=finder_policy),
            self.feature_store, int(num_layers), int(num_neighbors),
            int(num_neighbors if num_candidates is None else num_candidates),
            adaptive_sampler=adaptive_sampler, timer=self.timer)
        self.prep = PrepPipeline(self.generator)
        #: the flushes' generator: each build takes one raw draw per level
        #: tile from it to seed that tile; ingest never touches it.
        self.rng = new_rng(int(seed))

        # The pending queue: parallel columns, grown geometrically as it
        # fills (never sized by queue_depth up front).
        for name, dtype in _COLUMNS:
            setattr(self, name, np.empty(0, dtype=dtype))
        self._count = 0
        self._drained: List[ServeResult] = []
        self._next_seq = 0
        self.serve_stats = ServeStats()

    @classmethod
    def from_trainer(cls, trainer, **kwargs) -> "ServeEngine":
        """Build a serving engine over a (trained) ``TaserTrainer``'s model.

        The model stack is shared by reference and the event history is
        read through views of the trainer's, copied by the engine's first
        ingest only, so the trainer's graph is never written and a replay
        engine built from the same trainer is the bitwise-equal twin of the
        original.
        """
        cfg = trainer.config
        defaults = dict(
            adaptive_sampler=trainer.sampler,
            num_layers=cfg.num_layers, num_neighbors=cfg.num_neighbors,
            num_candidates=(cfg.num_candidates if cfg.adaptive_neighbor
                            else cfg.num_neighbors),
            finder_policy=cfg.resolved_finder_policy,
            seed=cfg.seed)
        defaults.update(kwargs)
        return cls(trainer.graph, trainer.backbone, trainer.predictor,
                   **defaults)

    # -- ingestion --------------------------------------------------------------

    @property
    def events_observed(self) -> int:
        """Total events in the engine's history (the staleness clock)."""
        return self.graph.num_edges

    def ingest(self, src: np.ndarray, dst: np.ndarray, ts: np.ndarray,
               edge_feat: Optional[np.ndarray] = None) -> None:
        """Absorb newly arrived events into the serving history.

        The mini-batch generator grows the live history
        (:meth:`~repro.core.pipeline.MiniBatchGenerator.ingest`): the first
        accepted chunk moves the shared log into private buffers, and each
        one merges into a fresh compact T-CSR that the finder then reads; a
        rejected one raises ``ValueError`` and changes nothing.  The
        staleness clock advances — embeddings older than
        ``staleness_events`` become invalid at their next lookup.  Pending
        queries are *not* flushed: a query admitted before the ingest is
        scored against the post-ingest graph, exactly as a continuously
        batching server would.
        """
        self.generator.ingest(src, dst, ts, edge_feat)
        self.serve_stats.events_ingested += int(np.size(src))

    # -- admission ---------------------------------------------------------------

    def submit(self, query: LinkQuery) -> Optional[ServeResult]:
        """Admit one query into the micro-batch queue: its fields become one
        row of the pending columns.

        Returns ``None`` when the query was enqueued; a terminal
        :class:`ServeResult` when it was rejected immediately (``"invalid"``
        endpoints, query time or deadline, or ``"shed"`` by a full queue
        under the shed policy).
        Under the ``wait`` policy a full queue triggers a synchronous drain
        (backpressure) whose results are delivered by the next
        :meth:`flush`.
        """
        self.serve_stats.submitted += 1
        seq = self._next_seq
        self._next_seq += 1
        src, dst, t, deadline = query.src, query.dst, query.t, query.deadline
        n = self.graph.num_nodes
        if not (_is_node_id(src) and _is_node_id(dst) and 0 <= src < n
                and 0 <= dst < n and isinstance(t, Real) and math.isfinite(t)
                and (deadline is None
                     or isinstance(deadline, Real) and not math.isnan(deadline))):
            self.serve_stats.invalid += 1
            return ServeResult(query, "invalid", seq=seq)
        row = self._count
        if row >= self.queue_depth:
            if self.admission == "shed":
                self.serve_stats.shed += 1
                return ServeResult(query, "shed", seq=seq)
            self._drain()
            row = self._count
        if row == self._src.size:
            self._grow()
        self._src[row] = src
        self._dst[row] = dst
        self._t[row] = t
        self._deadline[row] = math.inf if deadline is None else deadline
        self._seq[row] = seq
        self._enqueued[row] = self._clock()
        self._count = row + 1
        return None

    def _grow(self) -> None:
        """Double the pending columns (to ``max_batch`` rows at first)."""
        size = max(2 * self._src.size, self.max_batch)
        for name, dtype in _COLUMNS:
            column = np.empty(size, dtype=dtype)
            old = getattr(self, name)
            column[:old.size] = old
            setattr(self, name, column)

    # -- micro-batched scoring ---------------------------------------------------

    def flush(self) -> List[ServeResult]:
        """Score every pending query (in FIFO micro-batches of
        ``max_batch``) and return all newly completed results in submission
        order.  An empty queue flushes to an empty list without touching the
        model."""
        self._drain()
        results, self._drained = self._drained, []
        results.sort(key=_by_seq)
        return results

    def serve(self, queries: Iterable[LinkQuery]) -> List[ServeResult]:
        """Drive a whole query stream through submit/flush micro-batching.

        Flushes whenever ``max_batch`` queries are pending and once at the
        end; returns one result per query, in submission order.
        """
        results: List[ServeResult] = []
        for query in queries:
            immediate = self.submit(query)
            if immediate is not None:
                results.append(immediate)
            if self._count >= self.max_batch:
                results.extend(self.flush())
        results.extend(self.flush())
        results.sort(key=_by_seq)
        return results

    def _drain(self) -> None:
        """Empty the queue: score its rows in FIFO slices of ``max_batch``
        and append their results to the drained list (expired ones first
        within a slice).

        Each slice leaves the queue before it is scored, so if scoring
        raises, that slice is lost but the results drained so far and the
        rows behind it stay for the next flush.
        """
        self.serve_stats.flushes += 1
        results = self._drained
        count, start = self._count, 0
        try:
            while start < count:
                rows = slice(start, min(start + self.max_batch, count))
                start = rows.stop
                # Shed the rows whose deadline passed (an infinite one never
                # does), then score the rest.
                now = self._clock()
                expired = now - self._enqueued[rows] > self._deadline[rows]
                for row in compress(range(rows.start, rows.stop), expired.tolist()):
                    self.serve_stats.expired += 1
                    query = LinkQuery(int(self._src[row]), int(self._dst[row]),
                                      float(self._t[row]), float(self._deadline[row]))
                    results.append(ServeResult(
                        query, "expired", seq=int(self._seq[row]),
                        latency_seconds=now - float(self._enqueued[row])))
                rows = rows.start + (~expired).nonzero()[0]
                src = self._src[rows]
                if not src.size:
                    continue
                dst, t = self._dst[rows], self._t[rows]
                scores, logits, hits = self._score(src, dst, t)
                done = self._clock()
                deadlines = self._deadline[rows].tolist()
                queries = zip(src.tolist(), dst.tolist(), t.tolist(),
                              map(_deadline_of, deadlines, deadlines))
                results.extend(map(_result_of, zip(
                    map(_query_of, queries), repeat("ok"), scores.tolist(),
                    logits.tolist(), (done - self._enqueued[rows]).tolist(),
                    repeat(src.size), hits.tolist(), self._seq[rows].tolist())))
        except BaseException:
            # Keep the rows not yet taken: move them to the queue's front.
            for name, _ in _COLUMNS:
                column = getattr(self, name)
                column[:count - start] = column[start:count]
            self._count = count - start
            raise
        self._count = 0

    def _score(self, src: np.ndarray, dst: np.ndarray, t: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Score the links ``src[i] -> dst[i]`` at ``t[i]`` as one micro-batch:
        one prep pass and one forward over the endpoints the embedding cache
        does not hold.  Returns ``(scores, logits, cache_hits)``: the
        calibrated probabilities, their logits and how many of each link's
        two endpoints came from the cache.

        ``src`` / ``dst`` are int64 ids of the node universe and ``t`` finite
        float64 times: rows of the pending columns, which :meth:`submit`
        has checked.
        """
        b = src.size
        nodes = np.concatenate((src, dst))
        times = np.concatenate((t, t))
        # ``training`` is a plain instance attribute: writing the instance
        # dicts skips ``Module.__setattr__``'s registration hook.
        modules = self._modules
        modes = list(map(_training, modules))
        for module in modules:
            module.__dict__["training"] = False
        cache = self.embedding_cache
        observed = self.graph.num_edges
        try:
            with no_grad():
                hits, rows = cache.lookup(nodes, times, observed)
                num_hits = 0 if rows is None else int(hits.sum())
                if num_hits < nodes.size:
                    # One prep pass + one forward for the missing endpoints
                    # of the whole micro-batch (all of them when nothing
                    # hit), one tile per level; the forward-only batch
                    # computes each distinct (node, t) once.
                    misses = slice(None) if rows is None else ~hits
                    generator = self.prep.generator
                    minibatch = generator.build(nodes[misses], times[misses],
                                                self.rng, train=False)
                    fresh = self.backbone.embed(minibatch, generator.hop_tile).data
                    distinct = minibatch.hops[0]
                    uniq_nodes = distinct.batch.root_nodes
                    self.serve_stats.embeddings_computed += uniq_nodes.size
                    if rows is None:
                        rows = fresh
                    else:
                        rows[misses] = fresh
                    if cache.capacity:
                        # The rows of one distinct endpoint are all the same row.
                        computed = np.empty((uniq_nodes.size, fresh.shape[1]),
                                            dtype=fresh.dtype)
                        computed[distinct.inverse] = fresh
                        cache.insert(uniq_nodes, computed, distinct.batch.root_times,
                                     observed)
                self.serve_stats.embeddings_reused += num_hits
                logits = self.predictor(Tensor(rows[:b]), Tensor(rows[b:]))
                scores = F.sigmoid(logits).data
        finally:
            for module, mode in zip(modules, modes):
                module.__dict__["training"] = mode
        self.serve_stats.forward_batches += 1
        self.serve_stats.served += b
        return scores, logits.data, np.add(hits[:b], hits[b:], dtype=np.int64)

    # -- reporting ---------------------------------------------------------------

    def stats(self) -> Dict:
        """JSON-ready engine counters, occupancy and cache hit rate."""
        s = self.serve_stats
        mean_batch = s.served / s.forward_batches if s.forward_batches else 0.0
        endpoint_requests = s.embeddings_reused + s.embeddings_computed
        return {
            "submitted": s.submitted,
            "served": s.served,
            "shed": s.shed,
            "expired": s.expired,
            "invalid": s.invalid,
            "flushes": s.flushes,
            "forward_batches": s.forward_batches,
            "mean_batch_size": mean_batch,
            "batch_occupancy": mean_batch / self.max_batch,
            "embeddings_computed": s.embeddings_computed,
            "embeddings_reused": s.embeddings_reused,
            "embedding_cache_hit_rate": (
                s.embeddings_reused / endpoint_requests
                if endpoint_requests else 0.0),
            "embedding_cache_entries": self.embedding_cache.num_cached,
            "embedding_cache_evictions": self.embedding_cache.eviction_count,
            "events_ingested": s.events_ingested,
            "events_observed": self.events_observed,
            # There is one prep path; the key stays because the frozen
            # benchmarks/e2e/workloads.py reads stats()["prep_backend"].
            "prep_backend": self.prep.name,
            "array_backend": self.array_backend.name,
        }


def scores_hash(results: Iterable[ServeResult]) -> str:
    """Stable digest of a served result sequence (the replay contract).

    Hashes ``(seq, status, score)`` triples at full float precision —
    latencies and batch occupancy are wall-clock-dependent and excluded, so
    run and replay hash equal iff the *decisions and numbers* match bitwise.
    """
    blob = json.dumps([[r.seq, r.status, r.score] for r in results],
                      sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
