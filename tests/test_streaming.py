"""Tests for the streaming subsystem: incremental T-CSR, in-place event
ingestion, event streams and the online prequential train/eval loop."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import (EventChunk, EventStream, StreamingTrainer, TaserConfig,
                        split_warmup)
from repro.device.cache import DynamicFeatureCache
from repro.graph import (DATASET_NAMES, CTDGConfig, StreamingTCSR,
                         TemporalGraph, build_tcsr, generate_ctdg,
                         generate_drift_sequence, load_dataset)


def assert_tcsr_equal(a, b):
    for name in ("indptr", "indices", "eid", "ts"):
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype, name
        assert np.array_equal(left, right), f"{name} differs"


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
        stcsr = StreamingTCSR(graph.num_nodes, initial_capacity=8)
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
        stcsr = StreamingTCSR(15, initial_capacity=4)
        for lo in range(0, n, 17):
            stcsr.append(src[lo:lo + 17], dst[lo:lo + 17], ts[lo:lo + 17])
        assert_tcsr_equal(stcsr.snapshot(), build_tcsr(graph))

    def test_single_event_appends(self, small_graph):
        g = small_graph.select_events(np.arange(200))
        stcsr = StreamingTCSR(g.num_nodes, initial_capacity=1)
        for i in range(g.num_edges):
            stcsr.append(g.src[i:i + 1], g.dst[i:i + 1], g.ts[i:i + 1])
        assert_tcsr_equal(stcsr.snapshot(), build_tcsr(g))

    def test_from_graph_equals_rebuild(self, small_graph):
        assert_tcsr_equal(StreamingTCSR.from_graph(small_graph).snapshot(),
                          build_tcsr(small_graph))

    def test_no_reverse_mode(self, small_graph):
        stcsr = StreamingTCSR(small_graph.num_nodes, add_reverse=False)
        stcsr.append(small_graph.src, small_graph.dst, small_graph.ts)
        assert_tcsr_equal(stcsr.snapshot(),
                          build_tcsr(small_graph, add_reverse=False))

    def test_snapshot_cached_until_next_append(self, small_graph):
        stcsr = StreamingTCSR.from_graph(small_graph)
        first = stcsr.snapshot()
        assert stcsr.snapshot() is first
        stcsr.append(np.array([0]), np.array([1]),
                     np.array([small_graph.ts[-1] + 1.0]))
        assert stcsr.snapshot() is not first

    def test_compact_preserves_content_and_tightens_heap(self, small_graph):
        stcsr = StreamingTCSR(small_graph.num_nodes, initial_capacity=4)
        for lo in range(0, small_graph.num_edges, 23):
            hi = min(lo + 23, small_graph.num_edges)
            stcsr.append(small_graph.src[lo:hi], small_graph.dst[lo:hi],
                         small_graph.ts[lo:hi])
        before = stcsr.snapshot()
        heap_before = stcsr._heap_end
        stcsr.compact()
        assert stcsr._heap_end <= heap_before
        assert_tcsr_equal(stcsr.snapshot(), before)
        # Appends keep working after compaction.
        stcsr.append(np.array([1]), np.array([2]),
                     np.array([small_graph.ts[-1] + 1.0]))
        assert stcsr.num_events == small_graph.num_edges + 1

    def test_rejects_out_of_order_and_out_of_range(self):
        stcsr = StreamingTCSR(4)
        stcsr.append(np.array([0]), np.array([1]), np.array([5.0]))
        with pytest.raises(ValueError, match="precede"):
            stcsr.append(np.array([1]), np.array([2]), np.array([4.0]))
        with pytest.raises(ValueError, match="chronologically"):
            stcsr.append(np.array([1, 2]), np.array([2, 3]),
                         np.array([7.0, 6.0]))
        with pytest.raises(ValueError, match="out of range"):
            stcsr.append(np.array([9]), np.array([1]), np.array([8.0]))
        # Failed appends must not corrupt the structure.
        assert stcsr.num_events == 1
        stcsr.snapshot().check_invariants()


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
        assert prefix.is_chronological

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
        assert g.num_edges == 50  # nothing was partially applied

    def test_empty_chunk_is_a_noop(self, small_graph):
        g = small_graph.select_events(np.arange(10))
        g.append_events(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                        np.empty(0), np.empty((0, g.edge_dim), dtype=np.float32))
        assert g.num_edges == 10


class TestCacheGrowth:
    def test_grow_extends_universe_and_keeps_content(self):
        cache = DynamicFeatureCache(num_edges=100, capacity=20, seed=0)
        cached_before = cache.cached_ids()
        cache.grow(150, capacity=30)
        assert cache.num_edges == 150
        assert cache.capacity == 30
        assert np.array_equal(cache.cached_ids(), cached_before)
        assert cache.frequency.shape == (150,)
        # New ids are lookupable immediately (miss, counted).
        hits = cache.lookup(np.array([149, 120]))
        assert not hits.any()

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
        cache.lookup(np.array([99]))  # still fully functional


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
        assert_tcsr_equal(trainer.stcsr.snapshot(), build_tcsr(trainer.graph))

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
        assert drift.is_chronological
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
        with pytest.raises(ValueError, match="'sync' only"):
            StreamingTrainer(warm, stream_config(batch_engine="aot"))
        with pytest.raises(ValueError, match="window_events"):
            StreamingTrainer(warm, stream_config(), window_events=0)

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
