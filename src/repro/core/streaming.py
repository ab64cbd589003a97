"""Streaming temporal-graph subsystem: event sources + the online loop.

The paper's pipeline assumes a static event log; the north-star is a system
serving live traffic, where events arrive continuously and the graph, sampler
state and evaluation must keep up without full rebuilds.  This module opens
that workload:

:class:`EventStream`
    Replays any chronological :class:`~repro.graph.TemporalGraph` (a dataset
    preset, or a synthetic drift scenario from
    :func:`~repro.graph.generate_drift_sequence`) as a sequence of
    :class:`EventChunk` items, optionally rate-limited to a target
    events-per-second for soak testing.

:class:`StreamingTrainer`
    An online extension of :class:`~repro.core.trainer.TaserTrainer` that
    interleaves, per incoming chunk:

    1. **prequential evaluation** ("test-then-train"): the chunk's events are
       scored as link-prediction queries *before* they are ingested, so every
       event is evaluated exactly once, by a model that has never seen it;
    2. **ingestion**: the mini-batch generator grows the live history
       (:meth:`~repro.core.pipeline.MiniBatchGenerator.ingest`): the event
       log in place, the :class:`~repro.graph.StreamingTCSR`, which merges
       the chunk into a fresh compact T-CSR (no re-sort of the log), and the
       finder over it; the device feature cache's edge universe grows with
       the log;
    3. **sliding-window training**: one (or more) passes over the most recent
       ``window_events`` events through the mini-batch engine (its prep
       runtime re-pointed per window at the new split; model/optimiser state
       and the batches' generator persist throughout).

Determinism: under a fixed seed the whole trajectory — prequential MRR per
chunk and per-batch training losses — is reproducible.  The graph-state
invariant is that the incrementally maintained T-CSR stays bitwise-identical
to a batch rebuild over the same events; see ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

import numpy as np

from ..eval.evaluator import score_link_queries
from ..eval.metrics import ranking_report
from ..eval.negative_sampling import NegativeSampler
from ..graph.splits import TemporalSplit
from ..graph.temporal_graph import TemporalGraph
from ..utils.rng import new_rng
from .config import TaserConfig
from .minibatch_selector import ChronologicalSelector
from .trainer import EpochStats, TaserTrainer

__all__ = ["EventChunk", "EventStream", "split_warmup", "StreamStats",
           "StreamResult", "StreamingTrainer"]


@dataclass
class EventChunk:
    """One arrival batch of a live event stream."""

    #: source / destination node ids, shape (k,).
    src: np.ndarray
    dst: np.ndarray
    #: event timestamps (non-decreasing), shape (k,).
    ts: np.ndarray
    #: edge features, shape (k, d_e), or None for featureless graphs.
    edge_feat: Optional[np.ndarray] = None
    #: running chunk index within its stream.
    index: int = 0

    @property
    def num_events(self) -> int:
        return int(self.src.shape[0])


class EventStream:
    """Replays a chronological event log as a sequence of chunks.

    Parameters
    ----------
    graph:
        Source of events (sorted by time; re-sorted otherwise).  Edge
        features, when present, ride along with their events.
    chunk_size:
        Events per emitted :class:`EventChunk` (the last chunk may be short).
    start:
        Index of the first replayed event — events before ``start`` are the
        warm-start history (see :func:`split_warmup`).
    rate:
        Optional target throughput in events/second; when set, iteration
        sleeps between chunks to emulate a live arrival process.  ``None``
        (default) replays as fast as the consumer drains.
    max_chunks:
        Optional cap on the number of emitted chunks.
    """

    def __init__(self, graph: TemporalGraph, chunk_size: int = 500,
                 start: int = 0, rate: Optional[float] = None,
                 max_chunks: Optional[int] = None) -> None:
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if rate is not None and rate <= 0:
            raise ValueError("rate must be positive events/second (or None)")
        self.graph = graph if graph.is_chronological else graph.sort_by_time()
        self.chunk_size = int(chunk_size)
        self.start = int(start)
        if not 0 <= self.start <= self.graph.num_edges:
            raise ValueError(f"start must be in [0, {self.graph.num_edges}]")
        self.rate = rate
        self.max_chunks = max_chunks

    @property
    def num_events(self) -> int:
        """Total events this stream will emit (ignoring ``max_chunks``)."""
        return self.graph.num_edges - self.start

    @property
    def num_chunks(self) -> int:
        full = (self.num_events + self.chunk_size - 1) // self.chunk_size
        return full if self.max_chunks is None else min(full, self.max_chunks)

    def __iter__(self) -> Iterator[EventChunk]:
        g = self.graph
        for index, lo in enumerate(range(self.start, g.num_edges, self.chunk_size)):
            if self.max_chunks is not None and index >= self.max_chunks:
                return
            hi = min(lo + self.chunk_size, g.num_edges)
            if self.rate is not None:
                time.sleep((hi - lo) / self.rate)
            yield EventChunk(
                src=g.src[lo:hi].copy(), dst=g.dst[lo:hi].copy(),
                ts=g.ts[lo:hi].copy(),
                edge_feat=None if g.edge_feat is None else g.edge_feat[lo:hi].copy(),
                index=index)


def split_warmup(graph: TemporalGraph, warmup_events: int,
                 chunk_size: int = 500, rate: Optional[float] = None,
                 max_chunks: Optional[int] = None):
    """Split an event log into a warm-start graph and the stream of the rest.

    Returns ``(warmup_graph, stream)``: the first ``warmup_events`` events as
    a standalone graph (deep-copied arrays, safe to mutate by ingestion) and
    an :class:`EventStream` replaying everything after them.
    """
    g = graph if graph.is_chronological else graph.sort_by_time()
    warmup_events = int(warmup_events)
    if not 0 < warmup_events <= g.num_edges:
        raise ValueError(
            f"warmup_events must be in (0, {g.num_edges}], got {warmup_events}")
    warm = g.select_events(np.arange(warmup_events))
    stream = EventStream(g, chunk_size=chunk_size, start=warmup_events,
                         rate=rate, max_chunks=max_chunks)
    return warm, stream


@dataclass
class StreamStats:
    """Per-chunk record of one prequential test-then-train cycle."""

    chunk: int
    #: events in this chunk.
    events: int
    #: total events in the graph after ingesting this chunk.
    total_events: int
    #: MRR of the chunk's events scored before ingestion (test-then-train).
    prequential_mrr: float
    #: mini-batches trained over the sliding window after ingestion.
    batches_trained: int
    eval_seconds: float
    ingest_seconds: float
    train_seconds: float
    #: EpochStats of the sliding-window training passes.
    train_stats: List[EpochStats] = field(default_factory=list)


@dataclass
class StreamResult:
    """Aggregate outcome of an online streaming run."""

    history: List[StreamStats]

    @property
    def events_ingested(self) -> int:
        return int(sum(s.events for s in self.history))

    @property
    def ingest_seconds(self) -> float:
        return float(sum(s.ingest_seconds for s in self.history))

    @property
    def train_seconds(self) -> float:
        return float(sum(s.train_seconds for s in self.history))

    @property
    def eval_seconds(self) -> float:
        return float(sum(s.eval_seconds for s in self.history))

    @property
    def batches_trained(self) -> int:
        return int(sum(s.batches_trained for s in self.history))

    @property
    def events_per_second(self) -> float:
        """Ingestion throughput (append path only; 0.0 for an empty run)."""
        return self.events_ingested / self.ingest_seconds \
            if self.ingest_seconds else 0.0

    @property
    def batches_per_second(self) -> float:
        """Sliding-window training throughput (0.0 for an empty run)."""
        return self.batches_trained / self.train_seconds \
            if self.train_seconds else 0.0

    @property
    def mrr_over_time(self) -> List[float]:
        """Prequential MRR trajectory, one value per chunk."""
        return [s.prequential_mrr for s in self.history]

    @property
    def prequential_mrr(self) -> float:
        """Event-weighted mean of the per-chunk prequential MRR."""
        weights = np.asarray([s.events for s in self.history], dtype=np.float64)
        values = np.asarray(self.mrr_over_time, dtype=np.float64)
        ok = np.isfinite(values)
        if not ok.any():
            return float("nan")
        return float(np.average(values[ok], weights=weights[ok]))

    def as_dict(self) -> Dict:
        """JSON-ready summary (CLI output and the throughput benchmark).

        NaN MRR entries (empty chunks / empty runs) are mapped to ``None``
        so the payload stays strict JSON (``json.dumps`` would otherwise
        emit the non-standard ``NaN``/``Infinity`` tokens).
        """
        mrr = self.prequential_mrr
        return {
            "chunks": len(self.history),
            "events_ingested": self.events_ingested,
            "events_per_second": self.events_per_second,
            "batches_trained": self.batches_trained,
            "batches_per_second": self.batches_per_second,
            "prequential_mrr": None if np.isnan(mrr) else mrr,
            "mrr_over_time": [None if np.isnan(m) else m
                              for m in self.mrr_over_time],
            "ingest_seconds": self.ingest_seconds,
            "train_seconds": self.train_seconds,
            "eval_seconds": self.eval_seconds,
        }


def _window_split(graph: TemporalGraph, window_events: int) -> TemporalSplit:
    """Train-only split covering the most recent ``window_events`` events."""
    n = graph.num_edges
    lo = max(0, n - window_events)
    empty = np.empty(0, dtype=np.int64)
    return TemporalSplit(graph=graph, train_idx=np.arange(lo, n),
                         val_idx=empty, test_idx=empty)


class StreamingTrainer(TaserTrainer):
    """Online trainer: prequential evaluation + incremental ingestion +
    sliding-window training over a mutating temporal graph.

    Construction warm-starts from ``warmup_graph`` (typically the prefix
    returned by :func:`split_warmup`): the model, optimisers, feature store
    and negative samplers are built once and persist across the whole stream.
    Per ingested chunk the generator grows the live history (a merge of the
    chunk into its T-CSR, never a rebuild, under its finder) and the prep
    runtime's split and selector move to the new window, which is cheap
    relative to training.  The training batches'
    generator is the warm-start trainer's, one stream across every window.

    ``adaptive_minibatch`` must be off (validated with an actionable error):
    importance scores are keyed to a fixed training set and are meaningless
    over a sliding window.
    """

    def __init__(self, warmup_graph: TemporalGraph,
                 config: Optional[TaserConfig] = None,
                 window_events: int = 2000,
                 prequential_max_events: Optional[int] = 256) -> None:
        config = config if config is not None else TaserConfig()
        if config.adaptive_minibatch:
            raise ValueError(
                "streaming requires adaptive_minibatch=False: importance "
                "scores are keyed to a fixed training set and cannot follow "
                "a sliding window (use variant 'baseline' or 'ada-neighbor')")
        if window_events <= 0:
            raise ValueError("window_events must be positive")
        if prequential_max_events is not None and prequential_max_events < 1:
            raise ValueError(f"prequential_max_events must be None or >= 1, "
                             f"got {prequential_max_events}")
        graph = warmup_graph if warmup_graph.is_chronological \
            else warmup_graph.sort_by_time()
        super().__init__(graph, config, split=_window_split(graph, window_events))
        self.window_events = int(window_events)
        self.prequential_max_events = prequential_max_events
        #: negative sampler and finder-draw generator reserved for
        #: prequential scoring, so online evaluation never perturbs the
        #: training RNG streams.
        self.prequential_negatives = NegativeSampler(self.graph,
                                                     seed=config.seed + 202)
        self.prequential_rng = new_rng(config.seed + 203)
        self.stream_history: List[StreamStats] = []

    # -- online cycle -----------------------------------------------------------

    def prequential_eval(self, chunk: EventChunk) -> float:
        """Score the chunk's events with the current model, before ingestion.

        Every event is ranked against ``config.eval_negatives`` sampled
        destinations at its own timestamp, exactly like offline MRR — but the
        graph holds only strictly earlier events, so this is a true
        out-of-sample, test-then-train measurement.  At most
        ``prequential_max_events`` evenly spaced events are scored per chunk.
        Returns the chunk MRR (``nan`` for an empty chunk).
        """
        b_all = chunk.num_events
        if b_all == 0 or self.graph.num_edges == 0:
            return float("nan")
        cap = self.prequential_max_events
        if cap is not None and b_all > cap:
            picks = np.linspace(0, b_all - 1, cap).astype(np.int64)
        else:
            picks = np.arange(b_all)
        src, dst, ts = chunk.src[picks], chunk.dst[picks], chunk.ts[picks]
        negatives = self.prequential_negatives.sample_matrix(
            picks.size, self.config.eval_negatives, exclude=dst)
        # Prequential batches are prepared and scored by the shared eval
        # loop, like offline MRR.
        pos, neg = score_link_queries(self.prep, self.backbone, self.predictor,
                                      src, dst, ts, negatives,
                                      self.prequential_rng)
        return ranking_report(pos, neg)["mrr"]

    def ingest(self, chunk: EventChunk) -> None:
        """Append a chunk and refresh the window.

        The mini-batch generator grows the live history (the event log, its
        streaming T-CSR and the finder over it:
        :meth:`~repro.core.pipeline.MiniBatchGenerator.ingest`), the device
        cache's edge universe grows keeping the configured VRAM ratio, and
        the prep runtime is re-pointed at the new sliding window.
        """
        self.generator.ingest(chunk.src, chunk.dst, chunk.ts, chunk.edge_feat)
        if self.cache is not None:
            self.cache.grow(self.graph.num_edges,
                            capacity=max(self._cache_capacity(self.graph),
                                         self.cache.capacity))
        self._refresh_window()

    def _refresh_window(self) -> None:
        """Re-point the split and selector at the current sliding window.
        The prep runtime keeps its generator, so the training batches'
        stream continues across windows."""
        self.split = self.prep.split = _window_split(self.graph,
                                                     self.window_events)
        self.selector = self.prep.selector = ChronologicalSelector(
            self.split.num_train, self.config.batch_size)

    def step(self, chunk: EventChunk, train_passes: int = 1) -> StreamStats:
        """One full prequential cycle: evaluate, ingest, train the window."""
        t0 = time.perf_counter()
        mrr = self.prequential_eval(chunk)
        t1 = time.perf_counter()
        self.ingest(chunk)
        t2 = time.perf_counter()
        train_stats = [self.train_epoch() for _ in range(train_passes)]
        t3 = time.perf_counter()
        stats = StreamStats(
            chunk=chunk.index, events=chunk.num_events,
            total_events=self.graph.num_edges, prequential_mrr=mrr,
            batches_trained=sum(len(s.batch_losses) for s in train_stats),
            eval_seconds=t1 - t0, ingest_seconds=t2 - t1,
            train_seconds=t3 - t2, train_stats=train_stats)
        self.stream_history.append(stats)
        return stats

    def run(self, stream: EventStream, train_passes: int = 1) -> StreamResult:
        """Drive the online loop over a whole stream and return aggregates."""
        for chunk in stream:
            self.step(chunk, train_passes=train_passes)
        return self.result()

    def result(self) -> StreamResult:
        return StreamResult(history=list(self.stream_history))
