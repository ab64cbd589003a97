"""Tests for the simulated memory hierarchy: caches, feature store, cost model."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.device
import repro.serve
from repro.core import TaserConfig
from repro.device import (TransferCostModel, DynamicFeatureCache, OracleCache,
                          StaticRandomCache, StaticDegreeCache, FeatureStore)


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
        rates = []
        for _ in range(3):
            for start in range(0, stream.size, 200):
                cache.lookup(stream[start:start + 200])
            rates.append(cache.end_epoch())
        assert rates[-1] > rates[0] + 0.2
        assert cache.replacement_count >= 1

    def test_no_replacement_when_overlap_high(self):
        """Once the cache holds the hot set, further epochs do not churn it."""
        cache = DynamicFeatureCache(500, 100, epsilon=0.5, seed=0)
        stream = self.make_stream()
        for _ in range(4):
            cache.lookup(stream)
            cache.end_epoch()
        replacements_mid = cache.replacement_count
        for _ in range(3):
            cache.lookup(stream)
            cache.end_epoch()
        assert cache.replacement_count == replacements_mid

    def test_zero_capacity_never_hits(self):
        cache = DynamicFeatureCache(100, 0)
        hits = cache.lookup(np.arange(50))
        assert not hits.any()
        assert cache.end_epoch() == 0.0

    def test_cached_set_size_never_exceeds_capacity(self):
        cache = DynamicFeatureCache(300, 40, seed=1)
        stream = self.make_stream(num_edges=300)
        for _ in range(3):
            cache.lookup(stream)
            cache.end_epoch()
            assert cache.cached.sum() <= 40

    def test_oracle_upper_bounds_dynamic(self):
        """The clairvoyant cache must achieve at least the dynamic cache's hit rate."""
        stream = self.make_stream(seed=3)
        dynamic = DynamicFeatureCache(500, 80, seed=3)
        oracle = OracleCache(500, 80)
        for _ in range(4):
            oracle.preload(stream)
            dynamic.lookup(stream)
            oracle.lookup(stream)
            dynamic_rate, oracle_rate = dynamic.end_epoch(), oracle.end_epoch()
        assert oracle_rate >= dynamic_rate - 1e-9

    def test_static_caches(self):
        src = np.random.default_rng(0).integers(0, 20, 200)
        dst = np.random.default_rng(1).integers(0, 20, 200)
        random_cache = StaticRandomCache(200, 50, seed=0)
        degree_cache = StaticDegreeCache(200, 50, src, dst, 20)
        assert random_cache.cached.sum() == 50
        assert degree_cache.cached.sum() == 50
        random_cache.lookup(np.arange(200))
        random_cache.end_epoch()
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
    process) without keeping anything per epoch."""
    cache, rng = make(), np.random.default_rng(0)

    def epoch():
        ids = rng.integers(0, 200, 50)
        if isinstance(cache, repro.serve.NodeEmbeddingCache):
            cache.lookup(ids, np.zeros(ids.size), 0)
        else:
            cache.lookup(ids)
        assert 0.0 <= cache.end_epoch() <= 1.0
    epoch()
    before = _attribute_sizes(cache)
    for _ in range(1000):
        epoch()
    assert _attribute_sizes(cache) == before


@settings(max_examples=15, deadline=None)
@given(capacity=st.integers(0, 60), seed=st.integers(0, 20))
def test_property_dynamic_cache_hit_rate_bounded(capacity, seed):
    """Hit rate is always in [0, 1] and the cached set never exceeds capacity."""
    cache = DynamicFeatureCache(100, capacity, seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        cache.lookup(rng.integers(0, 100, 500))
        assert 0.0 <= cache.end_epoch() <= 1.0
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
            rates.append(cache.current_hit_rate)
            cached.end_epoch()         # the replacement policy swaps content
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


class TestCacheGrowProperties:
    """Hypothesis property tests: grow()/lookup()/lookup_unique() interplay.

    ``grow`` used to be exercised only incidentally through the streaming
    loop; these properties drive it directly, interleaved with lookups and
    epoch boundaries, and assert the three cache contracts:

    * **hit-rate accounting** matches a naive per-epoch hit/request model at
      every epoch boundary;
    * **eviction order is preserved** across grows — growing the universe
      never evicts, reorders or adopts entries mid-epoch, and the
      post-``end_epoch`` replacement decision is identical whether the
      accesses arrived deduplicated or not;
    * ``lookup`` and ``lookup_unique`` are **equivalent**: same hit masks,
      same epoch counters, same frequencies, same replacement decisions.
    """

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_property_interleaved_grow_lookup(self, data):
        num_edges = data.draw(st.integers(8, 24), label="num_edges")
        capacity = data.draw(st.integers(0, num_edges), label="capacity")
        cache = DynamicFeatureCache(num_edges, capacity, seed=3)
        twin = DynamicFeatureCache(num_edges, capacity, seed=3)

        freq = np.zeros(num_edges, dtype=np.int64)
        epoch_hits = epoch_requests = 0
        for _ in range(data.draw(st.integers(2, 10), label="steps")):
            op = data.draw(st.sampled_from(["lookup", "grow", "end_epoch"]))
            if op == "lookup":
                ids = np.asarray(
                    data.draw(st.lists(st.integers(0, cache.num_edges - 1),
                                       min_size=1, max_size=30)),
                    dtype=np.int64)
                expected = cache.cached[ids].copy()
                hits = cache.lookup(ids)
                uniq, inverse, counts = np.unique(ids, return_inverse=True,
                                                  return_counts=True)
                twin_hits = twin.lookup_unique(uniq, counts)
                # lookup vs lookup_unique equivalence, per request position.
                assert np.array_equal(hits, expected)
                assert np.array_equal(hits, twin_hits[inverse])
                freq += np.bincount(ids, minlength=freq.size)
                epoch_hits += int(hits.sum())
                epoch_requests += int(ids.size)
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
                rate = epoch_hits / epoch_requests if epoch_requests else 0.0
                assert cache.end_epoch() == pytest.approx(rate)
                assert twin.end_epoch() == pytest.approx(rate)
                epoch_hits = epoch_requests = 0
                freq[:] = 0  # Algorithm 3 resets Q at every epoch boundary
                # Same replacement decision from dedup'd and plain accesses.
                assert np.array_equal(cache.cached_ids(), twin.cached_ids())
                assert cache.replacement_count == twin.replacement_count

        # Frequencies and epoch accounting match the naive model exactly.
        assert np.array_equal(cache.frequency, freq)
        assert np.array_equal(twin.frequency, freq)
        assert cache._epoch_hits == twin._epoch_hits == epoch_hits
        assert cache._epoch_requests == twin._epoch_requests == epoch_requests
        assert cache.cached.sum() <= cache.capacity

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_property_grow_rejections_leave_state_intact(self, data):
        num_edges = data.draw(st.integers(4, 16))
        capacity = data.draw(st.integers(1, num_edges))
        cache = DynamicFeatureCache(num_edges, capacity, seed=1)
        cache.lookup(np.arange(num_edges, dtype=np.int64))
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
        hits = cache.lookup(upcoming)
        assert cache.current_hit_rate == pytest.approx(
            hits.sum() / upcoming.size)


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
