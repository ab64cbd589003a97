"""Online link-prediction serving engine: micro-batched queries over the
shared prep runtime.

The training stack answers "how fast can we fit"; this module answers the
north-star's other half — "how fast can we *answer*".  A
:class:`ServeEngine` accepts :class:`LinkQuery` requests (``score the link
src -> dst at time t``), admits them into a bounded queue, micro-batches the
pending queries into **one** pass through the existing batch-prep runtime
(:class:`~repro.core.prep.PrepPipeline`) and **one** model forward, and
returns calibrated probabilities.

Dataflow of one flush::

    submit(LinkQuery) ──▶ bounded queue (queue_depth; shed-or-wait)
                              │ micro-batch of <= max_batch queries
                              ▼
                    endpoint (node, t) pairs ──▶ NodeEmbeddingCache.lookup
                              │ misses only          (staleness bounds;
                              │                       off when time-exact)
                              ▼
              missing (node, t) ──▶ prep runtime ──▶ backbone.embed
               (one forward-only build + one forward for the whole
                micro-batch; each distinct (node, t) computed once)
                              │ fresh rows ──▶ NodeEmbeddingCache.insert
                              ▼
            EdgePredictor(h_src, h_dst) ──▶ sigmoid ──▶ ServeResult
            (score, latency, batch occupancy, cache hits)

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
from operator import attrgetter
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from ..core.pipeline import MiniBatchGenerator
from ..core.prep import PrepPipeline
from ..device.memory import FeatureStore
from ..graph.tcsr import StreamingTCSR
from ..graph.temporal_graph import TemporalGraph
from ..sampling import GPUNeighborFinder
from ..tensor import Tensor, get_backend, no_grad
from ..tensor import functional as F
from ..utils.timer import Timer
from .cache import NodeEmbeddingCache

__all__ = ["LinkQuery", "ServeResult", "ServeStats", "VirtualClock",
           "ServeEngine", "scores_hash"]


@dataclass(frozen=True)
class LinkQuery:
    """One link-prediction request: how likely is ``src -> dst`` at ``t``?

    ``deadline`` (seconds, measured from submission on the engine's clock)
    optionally bounds how long the query may wait in the micro-batch queue;
    queries past their deadline at flush time are shed with status
    ``"expired"`` instead of being scored late.
    """

    src: int
    dst: int
    t: float
    deadline: Optional[float] = None


@dataclass
class ServeResult:
    """Outcome of one :class:`LinkQuery`.

    ``status`` is ``"ok"`` (scored), ``"shed"`` (rejected at admission:
    queue full under the ``shed`` policy), ``"expired"`` (deadline passed
    while queued) or ``"invalid"`` (endpoint outside the node universe, or a
    query time that is NaN or infinite).
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


#: sort key of results: submission order (C-level, no Python frame per item).
_by_seq = attrgetter("seq")


@dataclass
class _Pending:
    query: LinkQuery
    seq: int
    enqueued_at: float


class ServeEngine:
    """Micro-batched link-prediction serving over a trained TGNN.

    Parameters
    ----------
    graph:
        Event history the queries are answered against.  The engine takes a
        private deep copy, so :meth:`ingest` never mutates the caller's
        graph (and a replay engine can be built from the same source).
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
        self.seed = int(seed)
        self._clock = clock if clock is not None else time.perf_counter

        src = graph if graph.is_chronological else graph.sort_by_time()
        #: private event history (deep copy: ingest never aliases the source).
        self.graph = src.select_events(np.arange(src.num_edges))
        self.backbone = backbone
        self.predictor = predictor
        self.adaptive_sampler = adaptive_sampler
        #: every module of the scoring stack, flat: a flush flips their modes
        #: in one pass instead of a recursive ``train()`` walk per root.
        self._modules = tuple(module for root in (backbone, predictor)
                              for _, module in root.named_modules())
        self.num_layers = int(num_layers)
        self.num_neighbors = int(num_neighbors)
        self.num_candidates = int(num_candidates) if num_candidates is not None \
            else int(num_neighbors)
        self.finder_policy = finder_policy
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
        self.stcsr = StreamingTCSR.from_graph(self.graph)
        self.feature_store = FeatureStore(self.graph, edge_cache=None)
        self._refresh()

        self._pending: List[_Pending] = []
        self._drained: List[ServeResult] = []
        self._seq = 0
        self.serve_stats = ServeStats()

    @classmethod
    def from_trainer(cls, trainer, **kwargs) -> "ServeEngine":
        """Build a serving engine over a (trained) ``TaserTrainer``'s model.

        The model stack is shared by reference; the event history is copied,
        so a replay engine built from the same trainer is the bitwise-equal
        twin of the original.
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

    # -- graph-dependent component refresh -------------------------------------

    def _refresh(self) -> None:
        """Re-point finder/generator/prep at the current T-CSR snapshot
        (the streaming trainer's idiom, reused verbatim)."""
        self.tcsr = self.stcsr.snapshot()
        self.generator = MiniBatchGenerator(
            GPUNeighborFinder(self.tcsr, policy=self.finder_policy,
                              seed=self.seed),
            self.feature_store, self.num_layers,
            self.num_neighbors, self.num_candidates,
            adaptive_sampler=self.adaptive_sampler, timer=self.timer)
        self.prep = PrepPipeline(self.generator)

    # -- ingestion --------------------------------------------------------------

    @property
    def events_observed(self) -> int:
        """Total events in the engine's history (the staleness clock)."""
        return self.graph.num_edges

    def ingest(self, src: np.ndarray, dst: np.ndarray, ts: np.ndarray,
               edge_feat: Optional[np.ndarray] = None) -> None:
        """Absorb newly arrived events into the serving history.

        Appends in place to the private event log and the incremental T-CSR
        (amortized ``O(chunk)``), grows the embedding cache's node universe,
        and advances the staleness clock — embeddings older than
        ``staleness_events`` become invalid at their next lookup.  Pending
        queries are *not* flushed: a query admitted before the ingest is
        scored against the post-ingest graph, exactly as a continuously
        batching server would.
        """
        src = np.asarray(src, dtype=np.int64)
        self.graph.append_events(src, dst, ts, edge_feat)
        self.stcsr.append(src, dst, ts)
        self.embedding_cache.grow(self.graph.num_nodes)
        self._refresh()
        self.serve_stats.events_ingested += int(src.size)

    # -- admission ---------------------------------------------------------------

    def submit(self, query: LinkQuery) -> Optional[ServeResult]:
        """Admit one query into the micro-batch queue.

        Returns ``None`` when the query was enqueued; a terminal
        :class:`ServeResult` when it was rejected immediately (``"invalid"``
        endpoints or query time, or ``"shed"`` by a full queue under the shed
        policy).
        Under the ``wait`` policy a full queue triggers a synchronous drain
        (backpressure) whose results are delivered by the next
        :meth:`flush`.
        """
        self.serve_stats.submitted += 1
        seq = self._seq
        self._seq += 1
        n = self.graph.num_nodes
        if not (0 <= query.src < n and 0 <= query.dst < n
                and math.isfinite(query.t)):
            self.serve_stats.invalid += 1
            return ServeResult(query=query, status="invalid", seq=seq)
        if len(self._pending) >= self.queue_depth:
            if self.admission == "shed":
                self.serve_stats.shed += 1
                return ServeResult(query=query, status="shed", seq=seq)
            self._drained.extend(self._flush_pending())
        self._pending.append(_Pending(query=query, seq=seq,
                                      enqueued_at=self._clock()))
        return None

    # -- micro-batched scoring ---------------------------------------------------

    def flush(self) -> List[ServeResult]:
        """Score every pending query (in FIFO micro-batches of
        ``max_batch``) and return all newly completed results in submission
        order.  An empty queue flushes to an empty list without touching the
        model."""
        results = self._drained + self._flush_pending()
        self._drained = []
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
            if len(self._pending) >= self.max_batch:
                results.extend(self.flush())
        results.extend(self.flush())
        results.sort(key=_by_seq)
        return results

    def _flush_pending(self) -> List[ServeResult]:
        self.serve_stats.flushes += 1
        results: List[ServeResult] = []
        while self._pending:
            chunk = self._pending[:self.max_batch]
            del self._pending[:self.max_batch]
            results.extend(self._score_chunk(chunk))
        return results

    def _score_chunk(self, chunk: List[_Pending]) -> List[ServeResult]:
        now = self._clock()
        live: List[_Pending] = []
        results: List[ServeResult] = []
        for item in chunk:
            deadline = item.query.deadline
            if deadline is not None and now - item.enqueued_at > deadline:
                self.serve_stats.expired += 1
                results.append(ServeResult(
                    query=item.query, status="expired", seq=item.seq,
                    latency_seconds=now - item.enqueued_at))
            else:
                live.append(item)
        if not live:
            return results

        b = len(live)
        src = np.asarray([p.query.src for p in live], dtype=np.int64)
        dst = np.asarray([p.query.dst for p in live], dtype=np.int64)
        ts = np.asarray([p.query.t for p in live], dtype=np.float64)
        nodes = np.concatenate([src, dst])
        times = np.concatenate([ts, ts])

        modules = self._modules
        modes = [module.training for module in modules]
        for module in modules:
            object.__setattr__(module, "training", False)
        cache = self.embedding_cache
        observed = self.events_observed
        try:
            with no_grad():
                hits, rows = cache.lookup(nodes, times, observed)
                num_hits = 0 if rows is None else int(hits.sum())
                if num_hits < nodes.size:
                    # One prep pass + one forward for the missing endpoints
                    # of the whole micro-batch (all of them when nothing
                    # hit), as one tile on this thread; the forward-only
                    # batch computes each distinct (node, t) once.
                    misses = slice(None) if rows is None else ~hits
                    generator = self.prep.generator
                    minibatch = generator.build(nodes[misses], times[misses],
                                                train=False)
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
                logits_t = self.predictor(Tensor(rows[:b]), Tensor(rows[b:]))
                scores = F.sigmoid(logits_t).data
                logits = logits_t.data
        finally:
            for module, mode in zip(modules, modes):
                object.__setattr__(module, "training", mode)

        done = self._clock()
        self.serve_stats.forward_batches += 1
        self.serve_stats.served += b
        endpoint_hits = [0] * b if not num_hits else \
            (hits[:b].astype(np.int64) + hits[b:]).tolist()
        for item, score, logit, cache_hits in zip(
                live, scores.tolist(), logits.tolist(), endpoint_hits):
            results.append(ServeResult(
                query=item.query, status="ok", score=score, logit=logit,
                latency_seconds=done - item.enqueued_at, batch_size=b,
                cache_hits=cache_hits, seq=item.seq))
        return results

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
