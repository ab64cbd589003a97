"""Tests for the serving layer: NodeEmbeddingCache and ServeEngine.

Covers the edge cases the serving contracts hinge on — empty flushes,
out-of-universe queries, queries for nodes with no history at time ``t``,
staleness-bound expiry inside one micro-batch, queue-full shedding under both
admission policies, deadline expiry on the injected clock — and the
deterministic replay contract: bitwise-identical scores across runs.
"""

import numpy as np
import pytest

from repro.core import TaserConfig, TaserTrainer
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

    def test_grow_extends_universe_and_rejects_shrink(self):
        cache = NodeEmbeddingCache(5, 3)
        cache.insert(np.array([4]), np.ones((1, 2)), np.zeros(1), 0)
        with pytest.raises(ValueError):
            cache.lookup(np.array([6]), np.zeros(1), 0)
        cache.grow(8)
        assert not cache.lookup(np.array([6]), np.zeros(1), 0)[0].any()
        assert cache.num_cached == 1  # grown nodes start uncached
        with pytest.raises(ValueError):
            cache.grow(4)

    def test_hit_accounting_and_end_epoch(self):
        cache = NodeEmbeddingCache(10, 4, staleness_time=None)
        cache.insert(np.array([1]), np.ones((1, 2)), np.zeros(1), 0)
        cache.lookup(np.array([1, 1, 2, 3]), np.zeros(4), 0)
        assert cache.current_hit_rate == pytest.approx(0.5)
        cache.end_epoch()
        assert cache.hit_rate_history == [pytest.approx(0.5)]
        assert cache.current_hit_rate == 0.0

    def test_zero_capacity_disables_caching(self):
        cache = NodeEmbeddingCache(10, 0)
        cache.insert(np.array([1]), np.ones((1, 2)), np.zeros(1), 0)
        hits, rows = cache.lookup(np.array([1]), np.zeros(1), 0)
        assert not hits.any() and rows is None
        assert cache.num_cached == 0


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
                                LinkQuery(2, 3, 1.0)])
        assert [r.status for r in results] == ["invalid", "invalid", "ok"]

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
        engine.submit(LinkQuery(1, 2, 100.0, deadline=0.5))
        engine.submit(LinkQuery(3, 4, 100.0, deadline=100.0))
        engine.submit(LinkQuery(5, 6, 100.0))  # no deadline: never expires
        results = engine.flush()
        assert [r.status for r in results] == ["expired", "ok", "ok"]
        assert engine.stats()["expired"] == 1

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


class TestServeDeterminism:
    # One prep path; the id is the name the frozen e2e benchmark records.
    @pytest.mark.parametrize("prep_name", ["reference"])
    def test_replay_bitwise_per_cell(self, trained, queries, prep_name):
        def run():
            engine = make_engine(trained, staleness_time=None)
            assert engine.prep.name == prep_name
            return scores_hash(engine.serve(queries))

        assert run() == run()
