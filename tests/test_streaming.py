"""Tests for the streaming subsystem: incremental T-CSR, in-place event
ingestion, event streams and the online prequential train/eval loop."""

import copy

import numpy as np
import pytest

from repro.core import (EventChunk, EventStream, StreamingTrainer, TaserConfig,
                        split_warmup)
from repro.device.cache import DynamicFeatureCache
from repro.graph import (DATASET_NAMES, CTDGConfig, StreamingTCSR,
                         TemporalGraph, build_tcsr,
                         generate_drift_sequence, load_dataset, measure_noise)


def assert_tcsr_equal(a, b):
    for name in ("indptr", "indices", "eid", "ts"):
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype, name
        assert np.array_equal(left, right), f"{name} differs"


def empty_log(num_nodes):
    """An event log of ``num_nodes`` nodes and no events."""
    return TemporalGraph(src=np.empty(0, dtype=np.int64),
                         dst=np.empty(0, dtype=np.int64), ts=np.empty(0),
                         num_nodes=num_nodes)


def stream_config(**overrides):
    base = dict(backbone="graphmixer", adaptive_minibatch=False,
                adaptive_neighbor=False, hidden_dim=8, time_dim=4,
                num_neighbors=3, num_candidates=6, batch_size=64,
                eval_negatives=10, seed=0)
    base.update(overrides)
    return TaserConfig(**base)


class TestStreamingTCSR:
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_append_matches_rebuild_on_every_preset(self, name):
        """Property: chunked incremental appends produce a T-CSR bitwise-
        identical to a one-shot build, for every dataset preset."""
        graph = load_dataset(name, scale=0.05, seed=3)
        reference = build_tcsr(graph)
        stcsr = StreamingTCSR.from_graph(empty_log(graph.num_nodes))
        step = 61  # deliberately not a divisor of the event count
        for lo in range(0, graph.num_edges, step):
            hi = min(lo + step, graph.num_edges)
            stcsr.append(graph.src[lo:hi], graph.dst[lo:hi], graph.ts[lo:hi])
        assert_tcsr_equal(stcsr.snapshot(), reference)
        stcsr.snapshot().check_invariants()
        assert stcsr.num_events == graph.num_edges
        assert stcsr.num_entries == 2 * graph.num_edges

    def test_duplicate_timestamps_keep_canonical_tie_break(self):
        """Equal-timestamp events must land in event order with the forward
        half-edge before the reverse one — the canonical order both the
        batch build and the stream produce."""
        rng = np.random.default_rng(5)
        n = 400
        src = rng.integers(0, 15, size=n)
        dst = rng.integers(0, 15, size=n)
        ts = np.sort(rng.integers(0, 25, size=n)).astype(np.float64)
        graph = TemporalGraph(src=src, dst=dst, ts=ts, num_nodes=15)
        stcsr = StreamingTCSR.from_graph(graph.select_events(np.arange(17)))
        for lo in range(17, n, 17):
            stcsr.append(src[lo:lo + 17], dst[lo:lo + 17], ts[lo:lo + 17])
        assert_tcsr_equal(stcsr.snapshot(), build_tcsr(graph))

    def test_single_event_appends(self, small_graph):
        g = small_graph.select_events(np.arange(200))
        stcsr = StreamingTCSR.from_graph(empty_log(g.num_nodes))
        for i in range(g.num_edges):
            stcsr.append(g.src[i:i + 1], g.dst[i:i + 1], g.ts[i:i + 1])
        assert_tcsr_equal(stcsr.snapshot(), build_tcsr(g))

    def test_from_graph_equals_rebuild(self, small_graph):
        assert_tcsr_equal(StreamingTCSR.from_graph(small_graph).snapshot(),
                          build_tcsr(small_graph))

    def test_snapshot_cached_until_next_append(self, small_graph):
        """The snapshot is the held T-CSR until an append merges into a
        fresh one; the old one is never written, so a finder that reads it
        keeps the history as it stood."""
        stcsr = StreamingTCSR.from_graph(small_graph)
        first = stcsr.snapshot()
        assert stcsr.snapshot() is first
        stcsr.append(np.array([0]), np.array([1]),
                     np.array([small_graph.ts[-1] + 1.0]))
        assert stcsr.snapshot() is not first
        assert_tcsr_equal(first, build_tcsr(small_graph))

    def test_rejects_out_of_order_and_out_of_range(self):
        stcsr = StreamingTCSR.from_graph(empty_log(4))
        stcsr.append(np.array([0]), np.array([1]), np.array([5.0]))
        held = stcsr.snapshot()
        with pytest.raises(ValueError, match="precede"):
            stcsr.append(np.array([1]), np.array([2]), np.array([4.0]))
        with pytest.raises(ValueError, match="chronologically"):
            stcsr.append(np.array([1, 2]), np.array([2, 3]),
                         np.array([7.0, 6.0]))
        with pytest.raises(ValueError, match="out of range"):
            stcsr.append(np.array([9]), np.array([1]), np.array([8.0]))
        # A float id would be truncated (1.7 -> 1), a bool read as 0 / 1.
        with pytest.raises(ValueError, match="integers"):
            stcsr.append(np.array([1.7]), np.array([2]), np.array([8.0]))
        with pytest.raises(ValueError, match="integers"):
            stcsr.append(np.array([1]), np.array([True]), np.array([8.0]))
        # Failed appends must not corrupt the structure.
        assert stcsr.num_events == 1
        assert stcsr.snapshot() is held
        stcsr.snapshot().check_invariants()


def reference_tcsr(graph, time_then_node=False):
    """``(indptr, indices, eid, ts)`` of the T-CSR of ``graph`` by the
    definition of the canonical order: half-edges sorted by node, then
    timestamp, then event id (the event's position in ``graph``), forward
    half-edge first.  ``time_then_node`` orders them by a stable timestamp
    sort, then a stable node sort instead: on a log in time order the first
    sort is the identity, so ``build_tcsr`` makes only the second."""
    e = graph.num_edges
    rows = np.stack([graph.src, graph.dst], axis=1).reshape(-1)
    cols = np.stack([graph.dst, graph.src], axis=1).reshape(-1)
    eid, ts = np.repeat(np.arange(e), 2), np.repeat(graph.ts, 2)
    if time_then_node:
        order = np.argsort(ts, kind="stable")
        order = order[np.argsort(rows[order], kind="stable")]
    else:
        order = np.lexsort((2 * eid + np.tile([0, 1], e), ts, rows))
    indptr = np.r_[0, np.cumsum(np.bincount(rows, minlength=graph.num_nodes))]
    return indptr, cols[order], eid[order], ts[order]


def assert_matches_lexsort(tcsr, graph, time_then_node=False):
    expected = reference_tcsr(graph, time_then_node)
    for name, array in zip(("indptr", "indices", "eid", "ts"), expected):
        assert np.array_equal(getattr(tcsr, name), array), name


class TestTCSROrderOracle:
    """Both builders sort half-edges by node on the narrowest unsigned key
    that holds ``num_nodes - 1`` (a radix sort up to 16 bits): each key width,
    both sides of each width boundary, against the int64 ``lexsort``."""

    WIDTHS = {1: 1, 256: 1, 257: 2, 65536: 2, 65537: 4, 70000: 4}

    @staticmethod
    def hot_graph(num_nodes, num_events=600, seed=0):
        """Chronological events among a few hot nodes (the lowest and highest
        id among them), many sharing a timestamp."""
        rng = np.random.default_rng(seed)
        hot = np.r_[0, num_nodes - 1, rng.integers(0, num_nodes, 6)]
        ts = np.sort(rng.integers(0, num_events // 4, num_events)).astype(np.float64)
        return TemporalGraph(src=rng.choice(hot, num_events),
                             dst=rng.choice(hot, num_events), ts=ts,
                             num_nodes=num_nodes)

    @pytest.mark.parametrize("num_nodes", sorted(WIDTHS))
    def test_build_tcsr_on_shuffled_events(self, num_nodes):
        """A shuffled log never reaches ``build_tcsr``: the event log rejects
        it, so the builder sorts only by node."""
        assert np.min_scalar_type(num_nodes - 1).itemsize == self.WIDTHS[num_nodes]
        graph = self.hot_graph(num_nodes)
        with pytest.raises(ValueError, match="chronologically"):
            graph.select_events(np.random.default_rng(1).permutation(
                graph.num_edges))

    @pytest.mark.parametrize("num_nodes", sorted(WIDTHS))
    def test_build_tcsr_equals_the_time_then_node_sort(self, num_nodes):
        graph = self.hot_graph(num_nodes)
        assert np.any(np.diff(graph.ts) == 0)
        tcsr = build_tcsr(graph)
        assert_matches_lexsort(tcsr, graph, time_then_node=True)
        assert_matches_lexsort(tcsr, graph)

    @pytest.mark.parametrize("num_nodes", sorted(WIDTHS))
    def test_from_graph_snapshot(self, num_nodes):
        graph = self.hot_graph(num_nodes)
        assert_matches_lexsort(StreamingTCSR.from_graph(graph).snapshot(), graph)

    @pytest.mark.parametrize("chunk", [1, 7, 100])
    @pytest.mark.parametrize("num_nodes", sorted(WIDTHS))
    def test_chunked_appends(self, num_nodes, chunk):
        graph = self.hot_graph(num_nodes)
        stcsr = StreamingTCSR.from_graph(empty_log(num_nodes))
        for lo in range(0, graph.num_edges, chunk):
            stcsr.append(graph.src[lo:lo + chunk], graph.dst[lo:lo + chunk],
                         graph.ts[lo:lo + chunk])
        assert_matches_lexsort(stcsr.snapshot(), graph)


class TestAppendEvents:
    def test_appending_in_chunks_equals_one_shot_generation(self, small_graph):
        prefix = small_graph.select_events(np.arange(300))
        for lo in range(300, small_graph.num_edges, 101):
            hi = min(lo + 101, small_graph.num_edges)
            prefix.append_events(small_graph.src[lo:hi], small_graph.dst[lo:hi],
                                 small_graph.ts[lo:hi],
                                 small_graph.edge_feat[lo:hi])
        assert prefix.num_edges == small_graph.num_edges
        assert np.array_equal(prefix.src, small_graph.src)
        assert np.array_equal(prefix.dst, small_graph.dst)
        assert np.array_equal(prefix.ts, small_graph.ts)
        assert np.array_equal(prefix.edge_feat, small_graph.edge_feat)
        assert np.all(np.diff(prefix.ts) >= 0)

    def test_views_track_growth(self):
        g = TemporalGraph(src=np.array([0]), dst=np.array([1]),
                          ts=np.array([1.0]), num_nodes=3)
        for i in range(2, 40):
            g.append_events(np.array([0]), np.array([2]), np.array([float(i)]))
        assert g.num_edges == 39
        assert g.ts[-1] == 39.0
        assert g.src.base is not None  # a view into the growth buffer

    def test_validation(self, small_graph):
        g = small_graph.select_events(np.arange(50))
        t = float(g.ts[-1])
        with pytest.raises(ValueError, match="out of range"):
            g.append_events(np.array([g.num_nodes]), np.array([0]),
                            np.array([t + 1]), np.zeros((1, g.edge_dim)))
        with pytest.raises(ValueError, match="precede"):
            g.append_events(np.array([0]), np.array([1]), np.array([t - 100]),
                            np.zeros((1, g.edge_dim)))
        with pytest.raises(ValueError, match="edge features"):
            g.append_events(np.array([0]), np.array([1]), np.array([t + 1]))
        with pytest.raises(ValueError, match="shape"):
            g.append_events(np.array([0]), np.array([1]), np.array([t + 1]),
                            np.zeros((1, g.edge_dim + 3)))
        with pytest.raises(ValueError, match="integers"):
            g.append_events(np.array([1.7]), np.array([2.2]), np.array([t + 1]),
                            np.zeros((1, g.edge_dim)))
        with pytest.raises(ValueError, match="integers"):
            g.append_events(np.array([False]), np.array([1]), np.array([t + 1]),
                            np.zeros((1, g.edge_dim)))
        assert g.num_edges == 50  # nothing was partially applied

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300])
    def test_rejects_non_finite_edge_features(self, small_graph, bad):
        """A NaN feature would reach every score that samples the event;
        ``1e300`` is finite in float64 but ``inf`` once cast to float32."""
        g = small_graph.select_events(np.arange(50))
        before = {name: getattr(g, name).copy()
                  for name in ("src", "dst", "ts", "edge_feat")}
        feat = np.zeros((2, g.edge_dim))
        feat[1, 0] = bad
        t = float(g.ts[-1])
        with pytest.raises(ValueError, match="edge features must be finite"):
            g.append_events(np.array([0, 1]), np.array([1, 2]),
                            np.array([t + 1, t + 2]), feat)
        for name, array in before.items():
            assert getattr(g, name).tobytes() == array.tobytes(), name

    def test_empty_chunk_is_a_noop(self, small_graph):
        g = small_graph.select_events(np.arange(10))
        g.append_events(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                        np.empty(0), np.empty((0, g.edge_dim), dtype=np.float32))
        assert g.num_edges == 10


#: bad chunks over a log of ``n`` nodes whose last event is at ``t``:
#: name -> (chunk builder, message fragment).
BAD_CHUNKS = {
    "float ids": (lambda n, t: ([1.7], [2], [t + 1]), "integers"),
    "bool ids": (lambda n, t: ([1], [True], [t + 1]), "integers"),
    "ragged": (lambda n, t: ([1, 2], [2], [t + 1, t + 2]), "identical"),
    "negative id": (lambda n, t: ([-1], [2], [t + 1]), "out of range"),
    "id past the node set": (lambda n, t: ([1], [n], [t + 1]), "out of range"),
    "nan time": (lambda n, t: ([1], [2], [np.nan]), "finite"),
    "inf time": (lambda n, t: ([1], [2], [np.inf]), "finite"),
    "unsorted": (lambda n, t: ([1, 2], [2, 3], [t + 2, t + 1]), "chronologically"),
    "earlier than the log": (lambda n, t: ([1], [2], [t - 1]), "precede"),
}


class TestChunkRules:
    @pytest.mark.parametrize("case", sorted(BAD_CHUNKS))
    def test_the_log_and_its_heap_raise_the_same_message(self, small_graph, case):
        """The event log and its streaming T-CSR check a chunk with one
        checker: each bad chunk raises the same message from both and
        changes neither."""
        graph = small_graph.select_events(np.arange(50))
        heap = StreamingTCSR.from_graph(graph)
        build, fragment = BAD_CHUNKS[case]
        src, dst, ts = (np.array(a) for a in build(graph.num_nodes,
                                                    float(graph.ts[-1])))
        feat = np.zeros((ts.size, graph.edge_dim), dtype=np.float32)
        with pytest.raises(ValueError, match=fragment) as log_error:
            graph.append_events(src, dst, ts, feat)
        with pytest.raises(ValueError, match=fragment) as heap_error:
            heap.append(src, dst, ts)
        assert str(log_error.value) == str(heap_error.value)
        assert graph.num_edges == heap.num_events == 50


class TestDuplicateEvents:
    def test_an_exact_duplicate_is_a_separate_event(self, small_graph):
        """An event repeated exactly — same endpoints, time and features,
        within one chunk and across chunks — is kept as its own event: its
        own event id and feature row, a T-CSR bitwise the rebuild of the
        log, and a ``recent`` query that returns every copy, newest first."""
        warm = small_graph.select_events(np.arange(240))
        trainer = StreamingTrainer(warm, stream_config(), window_events=200)
        generator = trainer.generator
        assert generator.finder.policy == "recent"
        u, v, t = int(warm.src[-1]), int(warm.dst[-1]), float(warm.ts[-1]) + 1.0
        row = np.arange(warm.edge_dim, dtype=np.float32)
        trainer.ingest(EventChunk(src=np.array([u, u]), dst=np.array([v, v]),
                                  ts=np.array([t, t]), edge_feat=np.stack([row, row])))
        trainer.ingest(EventChunk(src=np.array([u]), dst=np.array([v]),
                                  ts=np.array([t]), edge_feat=row[None, :]))

        log = trainer.graph
        assert log.num_edges == 243
        copies = np.arange(240, 243)
        assert np.array_equal(log.src[copies], [u] * 3)
        assert np.array_equal(log.dst[copies], [v] * 3)
        assert np.array_equal(log.ts[copies], [t] * 3)
        assert np.array_equal(log.edge_feat[copies], np.stack([row] * 3))
        assert_tcsr_equal(generator.finder.tcsr, build_tcsr(log))

        batch = generator.finder.sample(np.array([u, v]), np.array([t + 1.0] * 2),
                                        4, np.random.default_rng(0))
        assert np.array_equal(batch.eids[:, :3], [[242, 241, 240]] * 2)
        assert np.array_equal(batch.nodes[:, :3], [[v] * 3, [u] * 3])
        assert batch.mask[:, :3].all()


class TestCacheGrowth:
    def test_grow_extends_universe_and_keeps_content(self):
        cache = DynamicFeatureCache(num_edges=100, capacity=20, seed=0)
        cached_before = cache.cached_ids()
        cache.grow(150, capacity=30)
        assert cache.num_edges == 150
        assert cache.capacity == 30
        assert np.array_equal(cache.cached_ids(), cached_before)
        assert cache.frequency.shape == (150,)
        # New ids are lookupable immediately (miss, frequency recorded).
        hits = cache.lookup(np.array([120, 149]), np.array([1, 2]))
        assert not hits.any()
        assert cache.frequency[[120, 149]].tolist() == [1, 2]

    def test_grow_rejects_shrinking(self):
        cache = DynamicFeatureCache(num_edges=100, capacity=20, seed=0)
        with pytest.raises(ValueError, match="shrink"):
            cache.grow(50)
        with pytest.raises(ValueError, match="shrink"):
            cache.grow(100, capacity=10)

    def test_rejected_grow_leaves_cache_consistent(self):
        """A failed grow must not mutate anything (no half-grown state)."""
        cache = DynamicFeatureCache(num_edges=100, capacity=20, seed=0)
        with pytest.raises(ValueError, match="exceed num_edges"):
            cache.grow(150, capacity=200)
        assert cache.num_edges == 100
        assert cache.capacity == 20
        assert cache.cached.shape == (100,)
        assert cache.frequency.shape == (100,)
        cache.lookup(np.array([99]), np.array([1]))  # still fully functional


class TestEventStream:
    def test_covers_all_events_once(self, small_graph):
        stream = EventStream(small_graph, chunk_size=70, start=100)
        chunks = list(stream)
        assert sum(c.num_events for c in chunks) == small_graph.num_edges - 100
        assert stream.num_chunks == len(chunks)
        src = np.concatenate([c.src for c in chunks])
        assert np.array_equal(src, small_graph.src[100:])
        assert all(c.index == i for i, c in enumerate(chunks))

    def test_max_chunks_caps_iteration(self, small_graph):
        stream = EventStream(small_graph, chunk_size=50, max_chunks=3)
        assert len(list(stream)) == 3
        assert stream.num_chunks == 3

    def test_a_negative_max_chunks_is_rejected(self, small_graph):
        """A negative cap would read back as ``num_chunks`` while the stream
        emits no chunk.  Zero stays legal and emits none."""
        with pytest.raises(ValueError, match="max_chunks"):
            EventStream(small_graph, chunk_size=50, max_chunks=-1)
        with pytest.raises(ValueError, match="max_chunks"):
            split_warmup(small_graph, warmup_events=200, max_chunks=-1)
        stream = EventStream(small_graph, chunk_size=50, max_chunks=0)
        assert list(stream) == [] and stream.num_chunks == 0

    def test_split_warmup(self, small_graph):
        warm, stream = split_warmup(small_graph, warmup_events=200, chunk_size=64)
        assert warm.num_edges == 200
        assert stream.num_events == small_graph.num_edges - 200
        # The warmup graph owns its arrays (safe to mutate by ingestion).
        warm.append_events(np.array([0]), np.array([1]),
                           np.array([float(warm.ts[-1]) + 1.0]),
                           np.zeros((1, warm.edge_dim), dtype=np.float32))
        assert small_graph.num_edges == 1200

    def test_validation(self, small_graph):
        with pytest.raises(ValueError, match="chunk_size"):
            EventStream(small_graph, chunk_size=0)
        with pytest.raises(ValueError, match="rate"):
            EventStream(small_graph, rate=-1.0)
        with pytest.raises(ValueError, match="warmup_events"):
            split_warmup(small_graph, warmup_events=0)


class TestStreamingTrainer:
    def _run(self, config, graph, warmup=240, chunk=80, window=200):
        warm, stream = split_warmup(graph, warmup_events=warmup, chunk_size=chunk)
        trainer = StreamingTrainer(warm, config, window_events=window,
                                   prequential_max_events=30)
        trainer.train_epoch()
        result = trainer.run(stream)
        losses = [loss for s in result.history for es in s.train_stats
                  for loss in es.batch_losses]
        return trainer, result, losses

    def test_prequential_max_events_below_one_rejected(self, small_graph):
        # 0 scored no event (MRR nan on every chunk); a negative cap failed
        # inside numpy.
        warm, _ = split_warmup(small_graph, warmup_events=240, chunk_size=80)
        for value in (0, -2):
            with pytest.raises(ValueError,
                               match="prequential_max_events must be None or >= 1"):
                StreamingTrainer(warm, stream_config(), window_events=200,
                                 prequential_max_events=value)
        for value in (None, 1):
            StreamingTrainer(warm, stream_config(), window_events=200,
                             prequential_max_events=value)

    def test_online_loop_ingests_everything(self, small_graph):
        trainer, result, losses = self._run(stream_config(), small_graph)
        assert trainer.graph.num_edges == small_graph.num_edges
        assert result.events_ingested == small_graph.num_edges - 240
        assert result.batches_trained == len(losses) > 0
        assert all(0.0 <= m <= 1.0 for m in result.mrr_over_time)
        assert 0.0 <= result.prequential_mrr <= 1.0

    def test_incremental_tcsr_stays_identical_to_rebuild(self, small_graph):
        """The key graph-state invariant: after arbitrary ingestion the
        incrementally maintained T-CSR equals a batch rebuild."""
        trainer, _, _ = self._run(stream_config(), small_graph)
        stcsr = trainer.generator.stcsr
        assert stcsr.num_events == trainer.graph.num_edges
        assert trainer.generator.finder.tcsr is stcsr.snapshot()
        assert_tcsr_equal(stcsr.snapshot(), build_tcsr(trainer.graph))

    def test_the_generator_wraps_its_finders_tcsr(self, small_graph):
        """A fresh trainer's streaming T-CSR is its finder's compact T-CSR
        and holds no array of its own; an ingest merges the chunk into a
        fresh T-CSR, bitwise a rebuild of the log, which the finder reads."""
        warm, stream = split_warmup(small_graph, warmup_events=240, chunk_size=80)
        trainer = StreamingTrainer(warm, stream_config(), window_events=200)
        generator = trainer.generator
        assert generator.stcsr.snapshot() is generator.finder.tcsr
        assert not any(isinstance(value, np.ndarray)
                       for value in vars(generator.stcsr).values())
        assert_tcsr_equal(generator.finder.tcsr, build_tcsr(trainer.graph))
        trainer.ingest(next(iter(stream)))
        assert generator.stcsr.num_events == trainer.graph.num_edges == 320
        assert generator.finder.tcsr is generator.stcsr.snapshot()
        assert_tcsr_equal(generator.finder.tcsr, build_tcsr(trainer.graph))

    def test_the_warm_graph_carries_its_labels_and_a_streamed_history_none(
            self, small_graph):
        """``split_warmup``'s warm graph carries exactly its own events'
        labels; the first ingest clears the live history's (a chunk carries
        none), and the source keeps its own."""
        source = small_graph.labels.copy()
        warm, stream = split_warmup(small_graph, warmup_events=240, chunk_size=80)
        assert warm.labels.tobytes() == source[:240].tobytes()
        report = measure_noise(warm)  # 24 noise and 20 stale events of 240
        assert report.noise_edge_fraction == pytest.approx(24 / 240)
        assert report.stale_edge_fraction == pytest.approx(20 / 240)
        trainer = StreamingTrainer(warm, stream_config(), window_events=200)
        trainer.ingest(next(iter(stream)))
        assert trainer.graph.num_edges == 320 and trainer.graph.labels is None
        report = measure_noise(trainer.graph)
        assert report.noise_edge_fraction is None and report.stale_edge_fraction is None
        assert small_graph.labels.tobytes() == source.tobytes()

    def test_prequential_trajectory_reproducible(self, small_graph):
        """Property: fixed seed => identical prequential MRR and batch losses
        across repeated runs."""
        _, r1, l1 = self._run(stream_config(), small_graph)
        _, r2, l2 = self._run(stream_config(), small_graph)
        assert r1.mrr_over_time == r2.mrr_over_time
        assert l1 == l2

    def test_cache_follows_the_event_log(self, small_graph):
        cfg = stream_config(cache_ratio=0.2)
        trainer, _, _ = self._run(cfg, small_graph)
        assert trainer.cache is not None
        assert trainer.cache.num_edges == trainer.graph.num_edges
        expected = int(round(cfg.cache_ratio * trainer.graph.num_edges))
        assert trainer.cache.capacity >= expected

    def test_drift_sequence_streams(self):
        cfg = CTDGConfig(num_src=40, num_dst=20, num_events=200, edge_dim=8,
                         seed=9, name="drift-test")
        drift = generate_drift_sequence(cfg, num_phases=3)
        assert drift.num_edges == 600
        assert np.all(np.diff(drift.ts) >= 0)
        assert list(drift.meta["phase_boundaries"]) == [200, 400]
        assert len(drift.meta["phases"]) == 3
        trainer, result, _ = self._run(stream_config(eval_negatives=5), drift,
                                       warmup=150, chunk=90, window=150)
        assert trainer.graph.num_edges == 600
        assert len(result.history) == 5

    def test_rejects_incompatible_configs(self, small_graph):
        warm, _ = split_warmup(small_graph, warmup_events=200)
        with pytest.raises(ValueError, match="adaptive_minibatch"):
            StreamingTrainer(warm, stream_config(adaptive_minibatch=True))
        with pytest.raises(ValueError, match="'sync' is the only"):
            StreamingTrainer(warm, stream_config(batch_engine="aot"))
        with pytest.raises(ValueError, match="window_events"):
            StreamingTrainer(warm, stream_config(), window_events=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_ingest_rejects_a_non_finite_time(self, small_graph, bad):
        """A NaN slips past a ``<`` chronology check, and an inf would make
        every later finite chunk fail: both are rejected, leaving the log as
        it was."""
        warm, _ = split_warmup(small_graph, warmup_events=240)
        trainer = StreamingTrainer(warm, stream_config(), window_events=200)
        last = float(trainer.graph.ts[-1])
        feat = np.zeros((1, trainer.graph.edge_dim), dtype=np.float32)
        held = trainer.generator.finder.tcsr
        assert trainer.generator.stcsr.snapshot() is held
        with pytest.raises(ValueError, match="finite"):
            trainer.ingest(EventChunk(np.array([0]), np.array([1]),
                                      np.array([bad]), feat))
        assert trainer.graph.num_edges == 240
        assert trainer.generator.stcsr.snapshot() is held
        trainer.ingest(EventChunk(np.array([0]), np.array([1]),
                                  np.array([last + 1.0]), feat))
        assert trainer.generator.stcsr.num_events == trainer.graph.num_edges == 241

    def test_ingest_rejects_non_finite_edge_features(self, small_graph):
        warm, _ = split_warmup(small_graph, warmup_events=240)
        trainer = StreamingTrainer(warm, stream_config(), window_events=200)
        last = float(trainer.graph.ts[-1])
        feat = np.full((1, trainer.graph.edge_dim), np.nan, dtype=np.float32)
        held = trainer.generator.finder.tcsr
        assert trainer.generator.stcsr.snapshot() is held
        with pytest.raises(ValueError, match="edge features must be finite"):
            trainer.ingest(EventChunk(np.array([0]), np.array([1]),
                                      np.array([last + 1.0]), feat))
        assert trainer.graph.num_edges == 240
        assert trainer.generator.stcsr.snapshot() is held
        assert np.isfinite(trainer.graph.edge_feat).all()

    def test_windows_share_one_batch_generator(self, small_graph):
        """Every window's pipeline draws from the warm-start trainer's
        generator, which goes on across windows instead of restarting."""
        warm, stream = split_warmup(small_graph, warmup_events=240, chunk_size=80)
        trainer = StreamingTrainer(warm, stream_config(), window_events=200)
        rng, generator = trainer.prep.rng, trainer.generator
        trainer.train_epoch()
        state = copy.deepcopy(rng.bit_generator.state)
        trainer.step(next(iter(stream)))
        assert trainer.prep.rng is rng and trainer.generator is generator
        assert trainer.generator.finder.tcsr is trainer.generator.stcsr.snapshot()
        assert rng.bit_generator.state != state

    def test_adaptive_neighbor_streams(self, small_graph):
        cfg = stream_config(adaptive_neighbor=True, eval_negatives=5)
        trainer, result, losses = self._run(cfg, small_graph, warmup=300,
                                            chunk=150, window=200)
        assert trainer.sampler is not None
        assert len(losses) > 0
        # Determinism holds with the trainable sampler in the loop too.
        _, r2, l2 = self._run(stream_config(adaptive_neighbor=True,
                                            eval_negatives=5),
                              small_graph, warmup=300, chunk=150, window=200)
        assert result.mrr_over_time == r2.mrr_over_time and losses == l2


class TestConfigValidationMessages:
    def test_unknown_engine_message_is_actionable(self):
        with pytest.raises(ValueError, match="choose 'sync'"):
            TaserConfig(batch_engine="warp")


class TestEmptyStreamResult:
    def test_empty_run_serialises_to_strict_json(self, small_graph):
        """Zero-chunk runs must produce finite numbers / None, never the
        non-standard NaN/Infinity JSON tokens."""
        import json

        warm, _ = split_warmup(small_graph, warmup_events=small_graph.num_edges)
        trainer = StreamingTrainer(warm, stream_config(), window_events=200)
        payload = trainer.result().as_dict()
        assert payload["events_per_second"] == 0.0
        assert payload["batches_per_second"] == 0.0
        assert payload["prequential_mrr"] is None
        json.loads(json.dumps(payload, allow_nan=False))  # strict round-trip


class TestStreamChunkDirectUse:
    def test_manual_chunk_steps(self, small_graph):
        """EventChunk is a plain container: hand-built chunks stream too."""
        warm = small_graph.select_events(np.arange(400))
        trainer = StreamingTrainer(warm, stream_config(), window_events=200,
                                   prequential_max_events=20)
        lo, hi = 400, 500
        chunk = EventChunk(src=small_graph.src[lo:hi], dst=small_graph.dst[lo:hi],
                           ts=small_graph.ts[lo:hi],
                           edge_feat=small_graph.edge_feat[lo:hi], index=0)
        stats = trainer.step(chunk)
        assert stats.total_events == 500
        assert stats.batches_trained > 0
