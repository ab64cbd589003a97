"""Tests for the serving layer: NodeEmbeddingCache and ServeEngine.

Covers the edge cases the serving contracts hinge on — empty flushes,
out-of-universe queries, queries for nodes with no history at time ``t``,
staleness-bound expiry inside one micro-batch, queue-full shedding under both
admission policies, deadline expiry on the injected clock — and the
deterministic replay contract: bitwise-identical scores across runs.
"""

import copy
import os
import sys
from enum import IntEnum

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core import StreamingTrainer, TaserConfig, TaserTrainer, split_warmup
from repro.graph import StreamingTCSR
from repro.serve import (LinkQuery, NodeEmbeddingCache, ServeEngine,
                         VirtualClock, scores_hash)
from repro.sampling import unique_targets


@pytest.fixture(scope="module")
def trained(small_graph):
    config = TaserConfig(hidden_dim=16, time_dim=8, num_neighbors=3,
                         num_candidates=6, batch_size=150, epochs=1,
                         max_batches_per_epoch=4, adaptive_minibatch=False,
                         adaptive_neighbor=False, seed=3)
    trainer = TaserTrainer(small_graph, config)
    trainer.train_epoch()
    return trainer


@pytest.fixture(scope="module")
def queries(small_graph):
    rng = np.random.default_rng(17)
    n = small_graph.num_nodes
    t_hi = float(small_graph.ts.max())
    return [LinkQuery(int(rng.integers(0, n)), int(rng.integers(0, n)),
                      t_hi * (0.5 + 0.5 * float(rng.random())))
            for _ in range(30)]


class _Node(IntEnum):
    TWO = 2


def make_engine(trained, **kwargs):
    kwargs.setdefault("max_batch", 8)
    kwargs.setdefault("clock", VirtualClock())
    return ServeEngine.from_trainer(trained, **kwargs)


class TestNodeEmbeddingCache:
    def test_validation(self):
        with pytest.raises(ValueError):
            NodeEmbeddingCache(-1, 4)
        with pytest.raises(ValueError):
            NodeEmbeddingCache(10, -1)
        with pytest.raises(ValueError):
            NodeEmbeddingCache(10, 4, staleness_events=-1)
        with pytest.raises(ValueError):
            NodeEmbeddingCache(10, 4, staleness_time=-0.5)

    def test_default_serves_exact_repeats_only(self):
        cache = NodeEmbeddingCache(10, 4)
        rows = np.arange(6, dtype=np.float64).reshape(2, 3)
        cache.insert(np.array([1, 2]), rows, np.array([5.0, 5.0]), now_event=0)
        hits, got = cache.lookup(np.array([1, 2, 1]),
                                 np.array([5.0, 6.0, 4.0]), now_event=0)
        # Only the identical (node, t) pair hits under staleness_time=0.0.
        assert hits.tolist() == [True, False, False]
        assert np.array_equal(got[0], rows[0])

    def test_time_staleness_bound(self):
        cache = NodeEmbeddingCache(10, 4, staleness_time=1.5)
        cache.insert(np.array([3]), np.ones((1, 2)), np.array([10.0]), 0)
        hits, _ = cache.lookup(np.array([3, 3, 3]),
                               np.array([11.0, 11.5, 12.0]), 0)
        assert hits.tolist() == [True, True, False]

    def test_event_staleness_bound(self):
        cache = NodeEmbeddingCache(10, 4, staleness_events=5,
                                   staleness_time=None)
        cache.insert(np.array([3]), np.ones((1, 2)), np.array([10.0]),
                     now_event=100)
        assert cache.lookup(np.array([3]), np.array([99.0]), 105)[0].all()
        assert not cache.lookup(np.array([3]), np.array([99.0]), 106)[0].any()

    def test_eviction_prefers_low_frequency(self):
        cache = NodeEmbeddingCache(10, 2, staleness_time=None)
        cache.insert(np.array([1, 2]), np.zeros((2, 2)), np.zeros(2), 0)
        # Node 2 becomes the hot entry; node 1 must be the eviction victim.
        cache.lookup(np.array([2, 2, 2]), np.zeros(3), 0)
        cache.insert(np.array([5]), np.ones((1, 2)), np.zeros(1), 0)
        assert cache.cached_nodes().tolist() == [2, 5]
        assert cache.eviction_count == 1

    def test_insert_last_write_wins_on_duplicates(self):
        cache = NodeEmbeddingCache(10, 4, staleness_time=None)
        rows = np.array([[1.0, 1.0], [2.0, 2.0]])
        cache.insert(np.array([7, 7]), rows, np.array([1.0, 2.0]), 0)
        _, got = cache.lookup(np.array([7]), np.array([2.0]), 0)
        assert np.array_equal(got[0], rows[1])
        assert cache.num_cached == 1

    def test_insert_duplicates_keep_final_occurrence_of_each(self):
        # Interleaved repeats: the kept rows are the np.unique-of-reversed
        # oracle's, whatever order the duplicates arrive in.
        rng = np.random.default_rng(5)
        nodes = rng.integers(0, 6, 20)
        rows = rng.standard_normal((20, 3))
        times = rng.random(20)
        cache = NodeEmbeddingCache(6, 6, staleness_time=None)
        cache.insert(nodes, rows, times, 0)
        _, last = np.unique(nodes[::-1], return_index=True)
        keep = np.sort(nodes.size - 1 - last)
        _, got = cache.lookup(nodes[keep], times[keep], 0)
        assert np.array_equal(got, rows[keep])
        assert cache.num_cached == keep.size

    def test_hit_mask_is_the_only_account(self):
        # The cache counts no hits; the engine counts them from the mask.
        cache = NodeEmbeddingCache(10, 4, staleness_time=None)
        cache.insert(np.array([1]), np.ones((1, 2)), np.zeros(1), 0)
        hits, _ = cache.lookup(np.array([1, 1, 2, 3]), np.zeros(4), 0)
        assert hits.tolist() == [True, True, False, False]

    def test_zero_capacity_disables_caching(self):
        cache = NodeEmbeddingCache(10, 0)
        cache.insert(np.array([1]), np.ones((1, 2)), np.zeros(1), 0)
        hits, rows = cache.lookup(np.array([1]), np.zeros(1), 0)
        assert not hits.any() and rows is None
        assert cache.num_cached == 0

    def test_rows_are_served_exactly_as_inserted(self):
        cache = NodeEmbeddingCache(50, 8)
        rows = np.random.default_rng(0).normal(size=(4, 5))
        cache.insert(np.arange(4), rows, np.zeros(4), now_event=0)
        hits, cached = cache.lookup(np.arange(4), np.zeros(4), now_event=0)
        assert hits.all()
        np.testing.assert_array_equal(cached, rows)
        assert cached.dtype == rows.dtype


class ScanningCache(NodeEmbeddingCache):
    """Oracle: the cache before its fill pointer — free slots found by a
    scan of ``node_of < 0``, and a zero-filled ``rows`` from every lookup
    once anything was inserted."""

    def lookup(self, nodes, times, now_event):
        nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
        times = np.asarray(times, dtype=np.float64).reshape(-1)
        np.add.at(self.frequency, nodes, 1)
        slots = self.slot_of[nodes]
        hits = slots >= 0
        if hits.any() and self.rows is not None:
            occupied = slots[hits]
            fresh = np.ones(occupied.size, dtype=bool)
            if self.staleness_events is not None:
                fresh &= (now_event - self.computed_event[occupied]
                          <= self.staleness_events)
            if self.staleness_time is not None:
                fresh &= (np.abs(times[hits] - self.computed_time[occupied])
                          <= self.staleness_time)
            hits[np.nonzero(hits)[0][~fresh]] = False
        else:
            hits[:] = False
        rows = None
        if self.rows is not None:
            rows = np.zeros((nodes.size, self.rows.shape[1]), dtype=self.rows.dtype)
            if hits.any():
                rows[hits] = self.rows[self.slot_of[nodes[hits]]]
        return hits, rows

    def insert(self, nodes, rows, times, now_event):
        if self.capacity == 0:
            return
        nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
        times = np.asarray(times, dtype=np.float64).reshape(-1)
        order = np.argsort(nodes, kind="stable")
        by_node = nodes[order]
        last = np.ones(nodes.size, dtype=bool)
        last[:-1] = by_node[1:] != by_node[:-1]
        if not last.all():
            keep = np.sort(order[last])
            nodes, times, rows = nodes[keep], times[keep], rows[keep]
        if self.rows is None:
            self.rows = np.zeros((self.capacity, rows.shape[1]), dtype=rows.dtype)
        slots = self.slot_of[nodes]
        cached = slots >= 0
        if cached.any():
            self._install(slots[cached], nodes[cached], rows[cached], times[cached],
                          now_event)
        new_nodes = nodes[~cached]
        if new_nodes.size == 0:
            return
        new_rows, new_times = rows[~cached], times[~cached]
        free = np.nonzero(self.node_of < 0)[0]
        take = min(free.size, new_nodes.size)
        if take:
            self._install(free[:take], new_nodes[:take], new_rows[:take],
                          new_times[:take], now_event)
            new_nodes = new_nodes[take:]
            new_rows, new_times = new_rows[take:], new_times[take:]
        if new_nodes.size == 0:
            return
        if new_nodes.size > self.capacity:
            order = np.lexsort((new_nodes, -self.frequency[new_nodes]))
            keep = np.sort(order[:self.capacity])
            new_nodes, new_rows, new_times = (new_nodes[keep], new_rows[keep],
                                              new_times[keep])
        occupants = self.node_of
        order = np.lexsort((occupants, self._slot_stamp, self.frequency[occupants]))
        victims = order[:new_nodes.size]
        self.slot_of[occupants[victims]] = -1
        self.eviction_count += int(victims.size)
        self._install(victims, new_nodes, new_rows, new_times, now_event)


#: one cache operation: ("lookup" | "insert", node ids, time indices) or
#: ("ingest", events, ()).
_CACHE_OPS = st.one_of(
    st.tuples(st.sampled_from(["lookup", "insert"]),
              st.lists(st.integers(0, 11), min_size=0, max_size=9),
              st.lists(st.integers(0, 3), min_size=9, max_size=9)),
    st.tuples(st.just("ingest"), st.integers(1, 3), st.just(())))


class TestCacheAgainstScanningOracle:
    """Over interleavings of ``lookup`` / ``insert`` and ingest-driven event
    clocks, the fill-pointer cache picks the oracle's victims and keeps its
    stamps, rows and counters."""

    STATE = ("slot_of", "node_of", "computed_time", "computed_event", "frequency",
             "_slot_stamp")

    @settings(max_examples=120, deadline=None)
    @given(capacity=st.integers(1, 6), num_nodes=st.integers(4, 8),
           staleness=st.sampled_from([(None, 0.0), (None, None), (2, None), (3, 0.5)]),
           ops=st.lists(_CACHE_OPS, min_size=1, max_size=25), seed=st.integers(0, 99))
    def test_same_victims_stamps_rows_and_counters(self, capacity, num_nodes, staleness,
                                                   ops, seed):
        rng = np.random.default_rng(seed)
        events, times_of = staleness
        caches = [cls(num_nodes, capacity, staleness_events=events,
                      staleness_time=times_of) for cls in (NodeEmbeddingCache, ScanningCache)]
        now = 0
        for kind, arg, time_index in ops:
            if kind == "ingest":
                now += arg
                continue
            nodes = np.array(arg, dtype=np.int64) % caches[0].num_nodes
            times = np.array(time_index[:nodes.size], dtype=np.float64) * 0.5
            if kind == "insert":
                rows = rng.standard_normal((nodes.size, 3)).astype(np.float32)
                for cache in caches:
                    cache.insert(nodes, rows, times, now)
            else:
                (hits, rows), (want_hits, want_rows) = (
                    cache.lookup(nodes, times, now) for cache in caches)
                assert np.array_equal(hits, want_hits)
                assert (rows is None) == (not hits.any())
                if rows is not None:
                    assert np.array_equal(rows, want_rows)
            got, want = caches
            for name in self.STATE:
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            occupied = got.node_of >= 0
            assert (got.rows is None) == (want.rows is None)
            if got.rows is not None:
                assert np.array_equal(got.rows[occupied], want.rows[occupied])
            assert occupied.sum() == got.num_cached == want.num_cached
            assert not occupied[got.num_cached:].any()     # the fill-pointer prefix
            for name in ("eviction_count", "_stamp"):
                assert getattr(got, name) == getattr(want, name), name


class TestUniqueEndpoints:
    """Serve computes a flush's distinct endpoints with the forward-only
    batch's per-level dedup primitive."""

    @pytest.mark.parametrize("size", [1, 2, 7, 64])
    def test_matches_unique_over_the_stacked_pair(self, size):
        rng = np.random.default_rng(size)
        nodes = rng.integers(0, 4, size)
        times = rng.integers(0, 3, size).astype(np.float64) * 0.5
        key = np.stack([nodes.astype(np.float64), times])
        want, inverse = np.unique(key, axis=1, return_inverse=True)
        got_nodes, got_times, got_inverse = unique_targets(nodes, times)
        assert np.array_equal(got_nodes, want[0].astype(np.int64))
        assert np.array_equal(got_times, want[1])
        assert np.array_equal(got_inverse, inverse.reshape(-1))
        assert got_nodes.dtype == nodes.dtype and got_times.dtype == times.dtype


class TestServeEngineEdgeCases:
    def test_empty_flush(self, trained):
        engine = make_engine(trained)
        assert engine.flush() == []
        assert engine.stats()["forward_batches"] == 0

    def test_invalid_nodes_rejected_not_crashed(self, trained):
        engine = make_engine(trained)
        results = engine.serve([LinkQuery(-1, 3, 1.0),
                                LinkQuery(2, 10 ** 9, 1.0),
                                LinkQuery(1, 3, float("nan")),
                                LinkQuery(2, 3, float("inf")),
                                LinkQuery(2, 3, float("-inf")),
                                # not integers: never truncated to a node
                                LinkQuery(3.9, 7, 1.0),
                                LinkQuery(True, 7, 1.0),
                                LinkQuery(2, np.float64(3.0), 1.0),
                                LinkQuery(2, 3, 1.0),
                                LinkQuery(np.int32(2), np.int64(3), 1.0),
                                LinkQuery(_Node.TWO, 3, 1.0)])
        assert [r.status for r in results] == ["invalid"] * 8 + ["ok"] * 3
        assert engine.stats()["invalid"] == 8
        assert results[-1].score == results[-2].score == results[-3].score

    @pytest.mark.parametrize("t, deadline", [
        ("5", None), (None, None), (1 + 2j, None), (np.datetime64(5, "s"), None),
        (5.0, "soon"), (5.0, float("nan")), (5.0, 1 + 2j)],
        ids=["str", "none", "complex", "datetime64", "deadline-str", "deadline-nan",
             "deadline-complex"])
    def test_a_time_that_is_not_a_real_number_is_invalid(self, trained, t, deadline):
        """Such a time, or deadline, used to raise out of ``submit`` after
        the query was counted: the counters stopped adding up, and its
        sequence number never got a result.  A NaN deadline was queued,
        never expired and was scored."""
        engine = make_engine(trained)

        def balanced():
            s = engine.serve_stats
            return s.submitted == (s.served + s.shed + s.expired + s.invalid
                                   + engine._count)
        rejected = engine.submit(LinkQuery(1, 2, t, deadline))
        assert (rejected.seq, rejected.status) == (0, "invalid")
        assert engine.submit(LinkQuery(1, 2, 5.0)) is None
        assert balanced()
        assert [(r.seq, r.status) for r in engine.flush()] == [(1, "ok")]
        assert balanced() and engine.serve_stats.submitted == 2

    def test_ingest_rejects_non_integer_ids(self, trained):
        engine = make_engine(trained)
        before = engine.graph.num_edges
        last = float(engine.graph.ts[-1])
        feat = np.zeros((1, engine.graph.edge_dim), dtype=np.float32)
        held = engine.generator.finder.tcsr
        with pytest.raises(ValueError, match="integers"):
            engine.ingest(np.array([1.7]), np.array([2.2]), np.array([last + 1.0]), feat)
        assert engine.graph.num_edges == before
        assert engine.generator.stcsr.snapshot() is held

    def test_unseen_node_at_time_t(self, trained):
        # At t = first timestamp no node has any history yet: the temporal
        # neighborhood is empty and the score must still be a probability.
        t0 = float(trained.graph.ts.min())
        engine = make_engine(trained)
        results = engine.serve([LinkQuery(0, 1, t0)])
        assert results[0].status == "ok"
        assert 0.0 <= results[0].score <= 1.0

    def test_queue_full_shed_policy(self, trained):
        engine = make_engine(trained, queue_depth=2, admission="shed")
        q = LinkQuery(1, 2, 100.0)
        outcomes = [engine.submit(q) for _ in range(4)]
        assert outcomes[0] is None and outcomes[1] is None
        assert outcomes[2].status == "shed" and outcomes[3].status == "shed"
        done = engine.flush()
        assert [r.status for r in done] == ["ok", "ok"]
        assert engine.stats()["shed"] == 2

    def test_queue_full_wait_policy_drains(self, trained):
        engine = make_engine(trained, queue_depth=2, admission="wait")
        q = LinkQuery(1, 2, 100.0)
        for _ in range(5):
            assert engine.submit(q) is None  # backpressure, never rejected
        results = engine.flush()
        assert len(results) == 5
        assert [r.seq for r in results] == sorted(r.seq for r in results)
        assert engine.stats()["shed"] == 0

    def test_deadline_expiry_on_injected_clock(self, trained):
        engine = make_engine(trained, clock=VirtualClock(tick=1.0))
        submitted = [LinkQuery(1, 2, 100.0, deadline=0.5),
                     LinkQuery(3, 4, 100.0, deadline=100.0),
                     LinkQuery(5, 6, 100.0)]  # no deadline: never expires
        for query in submitted:
            engine.submit(query)
        results = engine.flush()
        assert [r.status for r in results] == ["expired", "ok", "ok"]
        assert engine.stats()["expired"] == 1
        # Each result carries its query back, rebuilt from the columns.
        assert [r.query for r in results] == submitted
        assert results[2].query.deadline is None

    def test_staleness_expiry_mid_batch(self, trained):
        # One micro-batch holds the same node at two query times: the nearby
        # one is served from cache, the distant one exceeds the staleness
        # bound and is recomputed — within the same flush.
        engine = make_engine(trained, staleness_time=1.0,
                             staleness_events=None)
        warm = engine.serve([LinkQuery(1, 2, 100.0)])
        assert warm[0].cache_hits == 0
        engine.submit(LinkQuery(1, 2, 100.5))   # inside the bound: hits
        engine.submit(LinkQuery(1, 2, 500.0))   # outside: recomputed
        near, far = engine.flush()
        assert near.cache_hits == 2 and far.cache_hits == 0
        assert near.batch_size == 2 and far.batch_size == 2

    def test_event_staleness_invalidated_by_ingest(self, trained):
        engine = make_engine(trained, staleness_events=3,
                             staleness_time=None)
        q = LinkQuery(1, 2, float(trained.graph.ts.max()))
        engine.serve([q])
        engine.serve([q])
        assert engine.stats()["embeddings_reused"] == 2
        last = float(engine.graph.ts[-1])
        engine.ingest(np.array([1, 2, 3, 4]), np.array([2, 3, 4, 5]),
                      np.full(4, last + 1.0),
                      np.zeros((4, engine.graph.edge_dim), dtype=np.float32))
        engine.serve([q])  # 4 events ingested > bound of 3: must recompute
        assert engine.stats()["embeddings_reused"] == 2

    def test_ingest_copies_graph_and_refreshes(self, trained):
        before = trained.graph.num_edges
        engine = make_engine(trained)
        last = float(engine.graph.ts[-1])
        engine.ingest(np.array([0, 1]), np.array([1, 2]),
                      np.array([last + 1.0, last + 2.0]),
                      np.zeros((2, engine.graph.edge_dim), dtype=np.float32))
        assert engine.graph.num_edges == before + 2
        assert trained.graph.num_edges == before  # caller's graph untouched
        results = engine.serve([LinkQuery(0, 1, last + 3.0)])
        assert results[0].status == "ok"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_ingest_rejects_a_non_finite_time(self, trained, bad):
        """A NaN slips past a ``<`` chronology check, and an inf would make
        every later finite ingest fail: both are rejected, leaving the
        history as it was."""
        engine = make_engine(trained)
        before = engine.graph.num_edges
        last = float(engine.graph.ts[-1])
        feat = np.zeros((1, engine.graph.edge_dim), dtype=np.float32)
        held = engine.generator.finder.tcsr
        with pytest.raises(ValueError, match="finite"):
            engine.ingest(np.array([0]), np.array([1]), np.array([bad]), feat)
        assert engine.graph.num_edges == before
        assert engine.generator.stcsr.snapshot() is held
        engine.ingest(np.array([0]), np.array([1]), np.array([last + 1.0]), feat)
        assert engine.generator.stcsr.num_events == engine.graph.num_edges == before + 1

    def test_a_rejected_first_ingest_of_nan_features_changes_no_score(
            self, trained, queries):
        """An all-NaN feature chunk used to be accepted, and every later
        score that sampled it read ``nan``.  Rejected at the first ingest, it
        leaves the log and the T-CSR as they were: the engine then ingests
        and scores bitwise like a twin that never saw the bad chunk."""
        engine, twin = make_engine(trained), make_engine(trained)
        last = float(engine.graph.ts[-1])
        dim = engine.graph.edge_dim
        held = engine.generator.finder.tcsr
        with pytest.raises(ValueError, match="edge features must be finite"):
            engine.ingest(np.array([0, 1]), np.array([1, 2]),
                          np.array([last + 1.0, last + 2.0]),
                          np.full((2, dim), np.nan, dtype=np.float32))
        assert engine.graph.num_edges == trained.graph.num_edges
        assert engine.generator.stcsr.snapshot() is held
        good = (np.array([0, 1]), np.array([1, 2]),
                np.array([last + 1.0, last + 2.0]),
                np.ones((2, dim), dtype=np.float32))
        engine.ingest(*good)
        twin.ingest(*good)
        late = [LinkQuery(q.src, q.dst, last + 3.0) for q in queries]
        results = engine.serve(late)
        assert all(r.status == "ok" and np.isfinite(r.score) for r in results)
        assert scores_hash(results) == scores_hash(twin.serve(late))

    def test_constructor_validation(self, trained):
        with pytest.raises(ValueError, match="max_batch"):
            make_engine(trained, max_batch=0)
        with pytest.raises(ValueError, match="queue_depth"):
            make_engine(trained, queue_depth=0)
        with pytest.raises(ValueError, match="admission"):
            make_engine(trained, admission="drop")
        with pytest.raises(ValueError, match="tick"):
            VirtualClock(tick=0.0)

    def test_results_in_submission_order(self, trained, queries):
        engine = make_engine(trained, max_batch=4)
        results = engine.serve(queries)
        assert len(results) == len(queries)
        assert [r.seq for r in results] == list(range(len(queries)))
        assert [r.query for r in results] == queries

    def test_stats_payload(self, trained, queries):
        engine = make_engine(trained, max_batch=4)
        engine.serve(queries)
        stats = engine.stats()
        assert stats["served"] == len(queries)
        assert stats["forward_batches"] >= len(queries) // 4
        assert 0.0 < stats["batch_occupancy"] <= 1.0
        assert 0.0 <= stats["embedding_cache_hit_rate"] <= 1.0
        assert stats["embeddings_computed"] + stats["embeddings_reused"] \
            == 2 * len(queries)

    def test_engine_has_no_precision_argument(self, trained):
        with pytest.raises(TypeError):
            make_engine(trained, precision="fp32")
        engine = make_engine(trained)
        assert type(engine.embedding_cache) is NodeEmbeddingCache
        assert "precision" not in engine.stats()


class TestServeDeterminism:
    # One prep path; the id is the name the frozen e2e benchmark records.
    @pytest.mark.parametrize("prep_name", ["reference"])
    def test_replay_bitwise_per_cell(self, trained, queries, prep_name):
        def run():
            engine = make_engine(trained, staleness_time=None)
            assert engine.prep.name == prep_name
            return scores_hash(engine.serve(queries))

        assert run() == run()

    def test_default_engine_is_the_uncached_engine_bitwise(self, trained, queries):
        """Under time-exact staleness the default caches nothing: a default
        engine is a ``cache_nodes=0`` engine, score for score.  A cached hit
        is not bitwise a recomputation — the GEMM's blocking follows the
        flush's row count — so an engine that caches may differ in the last
        bits."""
        default = make_engine(trained, max_batch=4)
        assert default.embedding_cache.capacity == 0
        want = make_engine(trained, max_batch=4, cache_nodes=0).serve(queries + queries)
        got = default.serve(queries + queries)
        assert scores_hash(got) == scores_hash(want)
        assert default.stats()["embeddings_reused"] == 0
        assert all(r.cache_hits == 0 for r in got)
        cached = make_engine(trained, max_batch=4, cache_nodes=16).serve(queries + queries)
        np.testing.assert_allclose([r.score for r in cached], [r.score for r in got],
                                   rtol=0, atol=1e-6)

    def test_a_flush_draws_one_seed_per_level_tile_and_ingest_none(self, trained,
                                                                     queries):
        """The engine's generator is its one random stream: a flush's build
        takes one raw draw per level (one tile each) to seed that level's
        draws, and an ingest neither draws from it nor restarts it."""
        engine = make_engine(trained, max_batch=8, finder_policy="uniform")
        layers = engine.generator.num_layers
        assert layers == 2
        want = copy.deepcopy(engine.rng)
        engine.serve(queries[:8])
        want.bit_generator.random_raw(layers)
        assert engine.rng.bit_generator.state == want.bit_generator.state
        last = float(engine.graph.ts[-1])
        engine.ingest(np.array([0]), np.array([1]), np.array([last + 1.0]),
                      np.zeros((1, engine.graph.edge_dim), dtype=np.float32))
        assert engine.rng.bit_generator.state == want.bit_generator.state

    def test_ingest_does_not_restart_the_draws(self, trained, queries):
        """Under ``uniform``, a query scored again after an ingest of later
        events gets the score it gets without the ingest: the draws go on
        from where the first flush left them."""
        def twice(ingest):
            engine = make_engine(trained, finder_policy="uniform")
            first = engine.serve(queries[:1])[0].score
            if ingest:
                last = float(engine.graph.ts[-1])
                engine.ingest(np.array([0]), np.array([1]), np.array([last + 1.0]),
                              np.zeros((1, engine.graph.edge_dim), dtype=np.float32))
            return first, engine.serve(queries[:1])[0].score
        plain, ingested = twice(False), twice(True)
        assert plain[0] != plain[1]
        assert ingested == plain

    def test_cache_default_follows_the_staleness_bound(self, trained):
        quarter = max(1, trained.graph.num_nodes // 4)
        assert make_engine(trained).embedding_cache.capacity == 0
        for bounds in (dict(staleness_time=1.0), dict(staleness_time=None),
                       dict(staleness_time=None, staleness_events=3)):
            assert make_engine(trained, **bounds).embedding_cache.capacity == quarter
        assert make_engine(trained, cache_nodes=7).embedding_cache.capacity == 7

    def test_flush_restores_each_modules_mode(self, trained, queries):
        engine = make_engine(trained)
        backbone = [m for _, m in trained.backbone.named_modules()]
        predictor = [m for _, m in trained.predictor.named_modules()]
        assert list(engine._modules) == backbone + predictor
        seen = []
        embed = trained.backbone.embed

        def spying(minibatch, *rest):
            seen.append({m.training for m in engine._modules})
            return embed(minibatch, *rest)
        # mixed modes: the backbone training, the predictor in eval
        trained.backbone.train(True)
        trained.predictor.train(False)
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(trained.backbone, "embed", spying)
                engine.serve(queries[:3])
            after = [m.training for m in engine._modules]
        finally:
            trained.backbone.train(False)
        assert seen == [{False}]
        assert after == [True] * len(backbone) + [False] * len(predictor)


class TestColumnarCore:
    def test_flush_scores_through_score(self, trained, queries):
        """A flush is ``_score`` over slices of the pending columns: the same
        links scored directly give the flush's scores and logits, bit for
        bit."""
        flushed = make_engine(trained, max_batch=len(queries)).serve(queries)
        src = np.array([q.src for q in queries])
        dst = np.array([q.dst for q in queries])
        t = np.array([q.t for q in queries])
        scores, logits, hits = make_engine(trained)._score(src, dst, t)
        assert scores.tolist() == [r.score for r in flushed]
        assert logits.tolist() == [r.logit for r in flushed]
        assert hits.tolist() == [0] * len(queries)

    def test_queue_grows_past_its_first_columns(self, trained, queries):
        engine = make_engine(trained, max_batch=4, queue_depth=64)
        for query in queries:
            assert engine.submit(query) is None
        results = engine.flush()
        assert [r.seq for r in results] == list(range(len(queries)))
        assert [r.query for r in results] == queries
        assert [r.batch_size for r in results] == [4] * 28 + [2] * 2

    def test_a_failing_slice_loses_only_itself(self, trained, queries):
        """A slice leaves the queue before it is scored: when scoring it
        raises, the results drained by backpressure and the rows behind it
        survive, and the next flush delivers them with later queries."""
        engine = make_engine(trained, max_batch=2, queue_depth=4)
        for query in queries[:8]:
            assert engine.submit(query) is None     # the 5th drains 4
        score, calls = engine._score, []

        def failing(*args):
            calls.append(len(calls))
            if len(calls) == 1:
                raise RuntimeError("scoring failed")
            return score(*args)
        engine._score = failing
        with pytest.raises(RuntimeError, match="scoring failed"):
            engine.flush()
        assert engine.submit(queries[8]) is None
        results = engine.flush()
        assert [r.seq for r in results] == [0, 1, 2, 3, 6, 7, 8]
        assert [r.query for r in results] == [queries[i] for i in (0, 1, 2, 3, 6, 7, 8)]
        assert {r.status for r in results} == {"ok"}
        assert engine.flush() == []


#: the event arrays an engine reads through views of its source's.
EVENT_ARRAYS = ("src", "dst", "ts", "edge_feat")
TCSR_ARRAYS = ("indptr", "indices", "eid", "ts")


class TestSharedHistory:
    """An engine copies no history until it ingests: its event log is
    read-only views of the source's arrays and its generator's streaming
    T-CSR is the finder's compact T-CSR; the first accepted ingest moves the
    log into private buffers, and each merges its chunk into a fresh T-CSR."""

    def test_a_fresh_engine_shares_the_trainers_events(self, trained):
        engine = make_engine(trained)
        for name in EVENT_ARRAYS:
            assert np.shares_memory(getattr(engine.graph, name),
                                    getattr(trained.graph, name)), name
        assert engine.generator.stcsr.snapshot() is engine.generator.finder.tcsr
        want = StreamingTCSR.from_graph(trained.graph).snapshot()
        for name in TCSR_ARRAYS:
            got = getattr(engine.generator.finder.tcsr, name)
            assert got.dtype == getattr(want, name).dtype, name
            assert got.tobytes() == getattr(want, name).tobytes(), name

    def test_writing_through_the_shared_arrays_raises(self, trained):
        engine = make_engine(trained)
        for name in EVENT_ARRAYS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(engine.graph, name)[0] = 0
        assert trained.graph.src.flags.writeable

    def test_the_first_ingest_copies_and_leaves_the_trainer_as_it_was(self, trained):
        graph = {name: getattr(trained.graph, name).copy() for name in EVENT_ARRAYS}
        source = trained.generator.finder.tcsr
        tcsr = {name: getattr(source, name).copy() for name in TCSR_ARRAYS}
        engine = make_engine(trained)
        last = float(engine.graph.ts[-1])
        engine.ingest(np.array([0]), np.array([1]), np.array([last + 1.0]),
                      np.ones((1, engine.graph.edge_dim), dtype=np.float32))
        assert engine.generator.stcsr.num_events == engine.graph.num_edges \
            == graph["src"].size + 1
        assert trained.generator.stcsr.snapshot() is source
        assert trained.generator.finder.tcsr is source
        for name in EVENT_ARRAYS:
            assert not np.shares_memory(getattr(engine.graph, name),
                                        getattr(trained.graph, name)), name
            assert getattr(trained.graph, name).tobytes() == graph[name].tobytes(), name
        for name in TCSR_ARRAYS:
            assert getattr(source, name).tobytes() == tcsr[name].tobytes(), name

    def test_an_engine_keeps_its_history_while_a_streaming_trainer_ingests(
            self, small_graph, queries):
        """The streaming trainer appends to its graph in place (after its
        first append, into buffers with room to spare): the engine's views
        stop at the rows it was built over, so it scores bitwise like a twin
        built over a private copy of them."""
        config = TaserConfig(backbone="graphmixer", adaptive_minibatch=False,
                             adaptive_neighbor=False, hidden_dim=8, time_dim=4,
                             num_neighbors=3, batch_size=64,
                             max_batches_per_epoch=2, seed=5)
        warm, stream = split_warmup(small_graph, warmup_events=600, chunk_size=100)
        chunks = iter(stream)
        trainer = StreamingTrainer(warm, config, window_events=300)
        trainer.ingest(next(chunks))
        engine = make_engine(trainer)
        copied = trainer.graph.select_events(np.arange(trainer.graph.num_edges))
        twin = ServeEngine(copied, trainer.backbone, trainer.predictor, max_batch=8,
                           clock=VirtualClock(), num_layers=config.num_layers,
                           num_neighbors=config.num_neighbors, seed=config.seed)
        assert np.shares_memory(engine.graph.src, trainer.graph.src)
        for _ in range(2):
            trainer.ingest(next(chunks))
        assert trainer.graph.num_edges == copied.num_edges + 200
        assert engine.graph.num_edges == copied.num_edges
        assert scores_hash(engine.serve(queries)) == scores_hash(twin.serve(queries))


#: Python frames under ``repro`` that a 3-query flush on a one-layer
#: GraphMixer enters (97 on Python 3.11; 3.12 inlines comprehensions, so it
#: counts fewer).  The count was 124 before the pending queue became columns.
FLUSH_FRAME_BUDGET = 97


class TestFlushCallBudget:
    def test_three_query_flush(self, small_graph):
        """The fixed cost of a flush, counted as ``sys.setprofile`` ``call``
        events whose code lives in the ``repro`` package: NumPy's own
        Python layers differ between versions, so they are not counted."""
        config = TaserConfig(backbone="graphmixer", hidden_dim=16, time_dim=8,
                             num_neighbors=5, batch_size=150,
                             max_batches_per_epoch=2, adaptive_minibatch=False,
                             adaptive_neighbor=False, seed=3)
        trainer = TaserTrainer(small_graph, config)
        trainer.train_epoch()
        engine = ServeEngine.from_trainer(trainer)
        t = float(small_graph.ts.max())

        def submit():
            for i in range(3):
                engine.submit(LinkQuery(i, 40 + i, t))
        submit()
        engine.flush()                              # warm this flush shape
        submit()
        package = os.path.dirname(repro.__file__) + os.sep
        frames = [0]

        def count(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(package):
                frames[0] += 1
        sys.setprofile(count)
        try:
            results = engine.flush()
        finally:
            sys.setprofile(None)
        assert [r.status for r in results] == ["ok"] * 3
        assert frames[0] <= FLUSH_FRAME_BUDGET
