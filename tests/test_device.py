"""Tests for the simulated memory hierarchy: caches, feature store, cost model."""

import importlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.device
import repro.serve
from repro.core import TaserConfig
from repro.device import (TransferCostModel, DynamicFeatureCache, OracleCache,
                          StaticRandomCache, StaticDegreeCache, FeatureStore)


def probe(cache, stream):
    """Probe ``cache`` with ``stream`` deduplicated, as the feature store
    does; return the occurrence-weighted ``(hits, requests)``."""
    ids, counts = np.unique(np.asarray(stream, dtype=np.int64), return_counts=True)
    hits = cache.lookup(ids, counts)
    return int(counts[hits].sum()), int(counts.sum())


def epoch_rate(cache, *streams):
    """Probe each stream, close the epoch and return its hit rate."""
    hits, requests = map(sum, zip(*(probe(cache, s) for s in streams)))
    assert cache.end_epoch() is None
    return hits / requests if requests else 0.0


class TestCostModel:
    def test_monotone_in_bytes(self):
        cm = TransferCostModel()
        assert cm.pcie_time(2e6) > cm.pcie_time(1e6) > 0
        assert cm.vram_time(2e6) > cm.vram_time(1e6) > 0

    def test_vram_faster_than_pcie(self):
        cm = TransferCostModel()
        assert cm.vram_time(1e7) < cm.pcie_time(1e7)

    def test_negative_bytes_rejected(self):
        cm = TransferCostModel()
        with pytest.raises(ValueError):
            cm.pcie_time(-1)
        with pytest.raises(ValueError):
            cm.vram_time(-1)


class TestDynamicCache:
    def make_stream(self, num_edges=500, hot=50, length=4000, seed=0):
        """Skewed access stream: `hot` edges receive ~80% of accesses."""
        rng = np.random.default_rng(seed)
        hot_ids = rng.choice(num_edges, hot, replace=False)
        accesses = np.where(rng.random(length) < 0.8,
                            rng.choice(hot_ids, length),
                            rng.integers(0, num_edges, length))
        return accesses

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            DynamicFeatureCache(10, 20)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            DynamicFeatureCache(10, 5, epsilon=2.0)

    def test_hit_rate_improves_after_first_epoch(self):
        """Algorithm 3: the random initial cache is replaced by the frequent set."""
        cache = DynamicFeatureCache(500, 100, epsilon=0.9, seed=0)
        stream = self.make_stream()
        chunks = [stream[start:start + 200] for start in range(0, stream.size, 200)]
        rates = [epoch_rate(cache, *chunks) for _ in range(3)]
        assert rates[-1] > rates[0] + 0.2
        assert cache.replacement_count >= 1

    def test_no_replacement_when_overlap_high(self):
        """Once the cache holds the hot set, further epochs do not churn it."""
        cache = DynamicFeatureCache(500, 100, epsilon=0.5, seed=0)
        stream = self.make_stream()
        for _ in range(4):
            epoch_rate(cache, stream)
        replacements_mid = cache.replacement_count
        for _ in range(3):
            epoch_rate(cache, stream)
        assert cache.replacement_count == replacements_mid

    def test_zero_capacity_never_hits(self):
        cache = DynamicFeatureCache(100, 0)
        hits = cache.lookup(np.arange(50), np.full(50, 2))
        assert not hits.any()
        assert epoch_rate(cache, np.arange(50)) == 0.0

    def test_cached_set_size_never_exceeds_capacity(self):
        cache = DynamicFeatureCache(300, 40, seed=1)
        stream = self.make_stream(num_edges=300)
        for _ in range(3):
            epoch_rate(cache, stream)
            assert cache.cached.sum() <= 40

    def test_oracle_upper_bounds_dynamic(self):
        """The clairvoyant cache must achieve at least the dynamic cache's hit rate."""
        stream = self.make_stream(seed=3)
        dynamic = DynamicFeatureCache(500, 80, seed=3)
        oracle = OracleCache(500, 80)
        for _ in range(4):
            oracle.preload(stream)
            dynamic_rate, oracle_rate = epoch_rate(dynamic, stream), epoch_rate(oracle, stream)
        assert oracle_rate >= dynamic_rate - 1e-9

    def test_static_caches(self):
        src = np.random.default_rng(0).integers(0, 20, 200)
        dst = np.random.default_rng(1).integers(0, 20, 200)
        random_cache = StaticRandomCache(200, 50, seed=0)
        degree_cache = StaticDegreeCache(200, 50, src, dst, 20)
        assert random_cache.cached.sum() == 50
        assert degree_cache.cached.sum() == 50
        epoch_rate(random_cache, np.arange(200))
        # static policy: content unchanged after the epoch
        assert random_cache.cached.sum() == 50


def _attribute_sizes(obj) -> dict:
    return {name: value.nbytes if isinstance(value, np.ndarray)
            else len(value) if hasattr(value, "__len__") else None
            for name, value in vars(obj).items()}


@pytest.mark.parametrize("make", [
    lambda: DynamicFeatureCache(200, 40, seed=0),
    lambda: OracleCache(200, 40),
    lambda: StaticRandomCache(200, 40, seed=0),
    lambda: StaticDegreeCache(200, 40, np.arange(200) % 7, np.arange(200) % 5, 7),
    lambda: repro.serve.NodeEmbeddingCache(200, 40, staleness_time=None),
], ids=["dynamic", "oracle", "static_random", "static_degree", "serve_embedding"])
def test_cache_bookkeeping_is_bounded(make):
    """A cache closes an epoch (every stream window, for the life of the
    process) without keeping anything per epoch, and keeps no hit account:
    its caller counts hits from the mask."""
    cache, rng = make(), np.random.default_rng(0)

    def epoch():
        ids = rng.integers(0, 200, 50)
        if isinstance(cache, repro.serve.NodeEmbeddingCache):
            cache.lookup(ids, np.zeros(ids.size), 0)
        else:
            assert 0.0 <= epoch_rate(cache, ids) <= 1.0
    epoch()
    before = _attribute_sizes(cache)
    for _ in range(1000):
        epoch()
    assert _attribute_sizes(cache) == before
    assert {"_epoch_hits", "_epoch_requests"} & set(vars(cache)) == set()


@settings(max_examples=15, deadline=None)
@given(capacity=st.integers(0, 60), seed=st.integers(0, 20))
def test_property_dynamic_cache_hit_rate_bounded(capacity, seed):
    """Hit rate is always in [0, 1] and the cached set never exceeds capacity."""
    cache = DynamicFeatureCache(100, capacity, seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        assert 0.0 <= epoch_rate(cache, rng.integers(0, 100, 500)) <= 1.0
        assert cache.cached.sum() <= capacity


class TestFeatureStore:
    def test_edge_slicing_shapes(self, small_graph):
        store = FeatureStore(small_graph)
        eids = np.arange(12).reshape(3, 4)
        feats = store.slice_edge_features(eids)
        assert feats.shape == (3, 4, small_graph.edge_dim)
        assert np.allclose(feats, small_graph.edge_feat[eids])

    def test_masked_rows_zeroed_and_not_accounted(self, small_graph):
        store = FeatureStore(small_graph)
        eids = np.arange(6).reshape(2, 3)
        mask = np.array([[True, False, True], [False, False, False]])
        feats = store.slice_edge_features(eids, mask)
        assert np.allclose(feats[0, 1], 0)
        assert np.allclose(feats[1], 0)
        assert store.stats.cache_misses == 2  # only the valid requests

    def test_no_edge_features_returns_none(self, featured_graph):
        graph = featured_graph
        node_only = graph.select_events(np.arange(graph.num_edges))
        node_only.edge_feat = None
        store = FeatureStore(node_only)
        assert store.slice_edge_features(np.zeros((2, 2), dtype=int)) is None

    def test_node_slicing_uses_vram(self, featured_graph):
        store = FeatureStore(featured_graph)
        store.slice_node_features(np.arange(10))
        assert store.stats.bytes_from_vram > 0
        assert store.stats.bytes_from_ram == 0

    def test_cache_reduces_pcie_bytes_and_time(self, small_graph):
        hot = np.arange(100)
        no_cache = FeatureStore(small_graph)
        cached = FeatureStore(small_graph,
                              edge_cache=DynamicFeatureCache(small_graph.num_edges,
                                                             200, seed=0))
        for _ in range(3):
            no_cache.slice_edge_features(hot)
            cached.slice_edge_features(hot)
            no_cache.end_epoch()
            cached.end_epoch()
        # warm epochs: the cached store should move fewer bytes over PCIe
        no_cache.reset_stats()
        cached.reset_stats()
        no_cache.slice_edge_features(hot)
        cached.slice_edge_features(hot)
        assert cached.stats.bytes_from_ram < no_cache.stats.bytes_from_ram
        assert cached.stats.simulated_seconds < no_cache.stats.simulated_seconds

    def test_stats_reset(self, small_graph):
        store = FeatureStore(small_graph)
        store.slice_edge_features(np.arange(5))
        store.reset_stats()
        assert store.stats.requests == 0
        assert store.stats.simulated_seconds == 0.0

    def test_cache_membership_never_changes_values(self, featured_graph):
        cache = DynamicFeatureCache(featured_graph.num_edges, 20, seed=1)
        cached = FeatureStore(featured_graph, edge_cache=cache)
        bare = FeatureStore(featured_graph)
        ids = np.arange(0, featured_graph.num_edges, 2)
        rates = []
        for _ in range(2):
            np.testing.assert_array_equal(cached.slice_edge_features(ids),
                                          bare.slice_edge_features(ids))
            rates.append(cached.snapshot().hit_rate)
            cached.end_epoch()         # the replacement policy swaps content
            cached.reset_stats()
        assert rates[0] > 0

    def test_bytes_are_charged_at_the_stored_row_width(self, featured_graph):
        graph = featured_graph
        width = graph.edge_feat.itemsize * graph.edge_dim
        cache = DynamicFeatureCache(graph.num_edges, 20, seed=1)
        store = FeatureStore(graph, edge_cache=cache)
        assert store.edge_bytes_per_row == width
        assert store.node_bytes_per_row == graph.node_feat.itemsize * graph.node_dim
        ids = np.tile(np.arange(0, graph.num_edges, 3), 2)    # every id twice
        rows = store.slice_edge_features(ids)
        np.testing.assert_array_equal(rows, graph.edge_feat[ids])
        unique = np.unique(ids)
        hits = int(cache.cached[unique].sum())
        assert 0 < hits < unique.size
        # One row moved per unique id, at the stored width, hit or miss.
        assert store.stats.bytes_from_vram == hits * width
        assert store.stats.bytes_from_ram == (unique.size - hits) * width
        assert store.stats.cache_hits == 2 * hits
        assert store.stats.cache_hits + store.stats.cache_misses == ids.size


    def test_concurrent_slices_are_all_counted(self, featured_graph):
        """Slices from several threads at once (the evaluator's scoring
        threads) lose no count: the store's ``SliceStats``, the one account
        of edge-cache hits, equals the same slices made serially."""
        graph, threads, rounds = featured_graph, 4, 200
        batches = [np.random.default_rng(i).integers(0, graph.num_edges, 64)
                   for i in range(threads)]

        def store():
            cache = DynamicFeatureCache(graph.num_edges, graph.num_edges // 3, seed=0)
            return FeatureStore(graph, edge_cache=cache)
        serial, shared = store(), store()
        for ids in batches:
            for _ in range(rounds):
                serial.slice_edge_features(ids)
        start = threading.Barrier(threads, timeout=30)

        def work(ids):
            start.wait()
            for _ in range(rounds):
                shared.slice_edge_features(ids)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(ids,)) for ids in batches]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        got, want = shared.snapshot(), serial.snapshot()
        for name in ("requests", "cache_hits", "cache_misses", "ids_requested",
                     "ids_unique", "bytes_from_vram", "bytes_from_ram"):
            assert getattr(got, name) == getattr(want, name), name
        assert got.simulated_seconds == pytest.approx(want.simulated_seconds)
        np.testing.assert_array_equal(shared.edge_cache.frequency,
                                      serial.edge_cache.frequency)


class TestCacheGrowProperties:
    """Hypothesis property tests: grow()/lookup() interplay.

    ``grow`` used to be exercised only incidentally through the streaming
    loop; these properties drive it directly, interleaved with lookups and
    epoch boundaries, and assert the three cache contracts:

    * the **hit mask** is the membership bitmap before the probe, and the
      access frequencies match a naive per-epoch count;
    * **eviction order is preserved** across grows — growing the universe
      never evicts, reorders or adopts entries mid-epoch;
    * the **probe granularity** does not matter: a twin probed once per
      occurrence ends every epoch with the same frequencies and makes the
      same replacement decisions as the cache probed deduplicated.
    """

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_property_interleaved_grow_lookup(self, data):
        num_edges = data.draw(st.integers(8, 24), label="num_edges")
        capacity = data.draw(st.integers(0, num_edges), label="capacity")
        cache = DynamicFeatureCache(num_edges, capacity, seed=3)
        twin = DynamicFeatureCache(num_edges, capacity, seed=3)

        freq = np.zeros(num_edges, dtype=np.int64)
        for _ in range(data.draw(st.integers(2, 10), label="steps")):
            op = data.draw(st.sampled_from(["lookup", "grow", "end_epoch"]))
            if op == "lookup":
                ids = np.asarray(
                    data.draw(st.lists(st.integers(0, cache.num_edges - 1),
                                       min_size=1, max_size=30)),
                    dtype=np.int64)
                uniq, counts = np.unique(ids, return_counts=True)
                expected = cache.cached[uniq].copy()
                assert np.array_equal(cache.lookup(uniq, counts), expected)
                for i in ids:
                    assert twin.lookup([i], [1])[0] == cache.cached[i]
                freq += np.bincount(ids, minlength=freq.size)
            elif op == "grow":
                extra = data.draw(st.integers(1, 8), label="extra")
                raise_cap = data.draw(st.booleans(), label="raise_cap")
                new_edges = cache.num_edges + extra
                new_cap = min(new_edges,
                              cache.capacity + (extra if raise_cap else 0))
                before = cache.cached_ids()
                cache.grow(new_edges, capacity=new_cap)
                twin.grow(new_edges, capacity=new_cap)
                # Growing never evicts, reorders or adopts entries mid-epoch.
                assert np.array_equal(cache.cached_ids(), before)
                assert cache.num_edges == new_edges
                assert cache.frequency.shape == (new_edges,)
                freq = np.concatenate(
                    [freq, np.zeros(extra, dtype=np.int64)])
            else:
                cache.end_epoch()
                twin.end_epoch()
                freq[:] = 0  # Algorithm 3 resets Q at every epoch boundary
                # Same replacement decision from dedup'd and plain accesses.
                assert np.array_equal(cache.cached_ids(), twin.cached_ids())
                assert cache.replacement_count == twin.replacement_count

        # Frequencies match the naive model exactly.
        assert np.array_equal(cache.frequency, freq)
        assert np.array_equal(twin.frequency, freq)
        assert cache.cached.sum() <= cache.capacity

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_property_grow_rejections_leave_state_intact(self, data):
        num_edges = data.draw(st.integers(4, 16))
        capacity = data.draw(st.integers(1, num_edges))
        cache = DynamicFeatureCache(num_edges, capacity, seed=1)
        cache.lookup(np.arange(num_edges), np.ones(num_edges))
        before = (cache.num_edges, cache.capacity, cache.cached.copy(),
                  cache.frequency.copy())
        # Shrinking either dimension (or capacity > universe) is rejected
        # and must leave the cache fully consistent (validate-then-mutate).
        with pytest.raises(ValueError):
            cache.grow(num_edges - 1)
        with pytest.raises(ValueError):
            cache.grow(num_edges, capacity=capacity - 1)
        with pytest.raises(ValueError):
            cache.grow(num_edges + 2, capacity=num_edges + 3)
        assert cache.num_edges == before[0]
        assert cache.capacity == before[1]
        assert np.array_equal(cache.cached, before[2])
        assert np.array_equal(cache.frequency, before[3])

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_property_oracle_grow_then_preload(self, data):
        num_edges = data.draw(st.integers(4, 16))
        capacity = data.draw(st.integers(1, num_edges))
        cache = OracleCache(num_edges, capacity)
        extra = data.draw(st.integers(1, 8))
        cache.grow(num_edges + extra)
        # Preload over the *grown* universe: the clairvoyant top-k must be
        # computable for ids beyond the original range.
        upcoming = np.asarray(
            data.draw(st.lists(st.integers(0, num_edges + extra - 1),
                               min_size=1, max_size=40)),
            dtype=np.int64)
        cache.preload(upcoming)
        cached = cache.cached_ids()
        assert cached.size == min(capacity, num_edges + extra)
        counts = np.bincount(upcoming, minlength=num_edges + extra)
        uncached = np.setdiff1d(np.arange(num_edges + extra), cached)
        if uncached.size:
            # Clairvoyance: nothing outside the cache is hotter than the
            # coldest cached id.
            assert counts[cached].min() >= counts[uncached].max()
        uniq, counts = np.unique(upcoming, return_counts=True)
        np.testing.assert_array_equal(cache.lookup(uniq, counts),
                                      np.isin(uniq, cached))


# ------------------------------------------------------------- removal tests

def test_config_has_no_precision_fields(monkeypatch):
    for field, value in (("precision", "fp16"), ("precision_mrr_budget", 0.05)):
        with pytest.raises(TypeError):
            TaserConfig(**{field: value})
    assert not hasattr(TaserConfig(), "resolved_precision")
    # A stale variable from an older setup is ignored, not an error.
    monkeypatch.setenv("REPRO_PRECISION", "bogus")
    assert TaserConfig().variant_name() == "TASER"


def test_lossy_tiers_are_not_exported():
    gone = ("Fp16Codec", "Int8Codec", "TieredFeatureCache",
            "TieredNodeEmbeddingCache")
    for module in (repro.device, repro.serve):
        assert [name for name in gone if hasattr(module, name)] == []
    with pytest.raises(ImportError):
        importlib.import_module("repro.device.precision")
