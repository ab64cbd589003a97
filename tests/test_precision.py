"""Precision tiers (repro.device.precision) and the compressed caches.

Covers the codec round-trip contracts (hypothesis property tests), the
tier resolution order, :class:`PrecisionPolicy` validation, the feature
store's quantized side tables and byte accounting, and the tier-demotion
behaviour of :class:`TieredFeatureCache` / :class:`TieredNodeEmbeddingCache`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import repro.tensor
from repro.device import (DynamicFeatureCache, FeatureStore,
                          TieredFeatureCache, TransferCostModel)
from repro.device.precision import (PRECISION_TIERS, Fp16Codec, Fp32Codec,
                                    Int8Codec, PrecisionPolicy,
                                    resolve_precision_name, roundtrip_rows)
from repro.serve.cache import NodeEmbeddingCache, TieredNodeEmbeddingCache

finite_floats = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False,
                          allow_infinity=False)


def feature_matrix(max_rows=8, max_cols=5, dtype=np.float64):
    elements = finite_floats if dtype == np.float64 else st.floats(
        min_value=-50.0, max_value=50.0, allow_nan=False, width=32)
    return st.tuples(st.integers(1, max_rows), st.integers(1, max_cols)).flatmap(
        lambda shape: arrays(dtype, shape, elements=elements))


def stored_features():
    """Feature matrices as the graph stores them: float32."""
    return feature_matrix(dtype=np.float32)


def decode_headroom(codec):
    """float32 rounding of ``q * scale + lo`` — the codecs decode straight
    to the compute dtype — on top of a tier's quantization error."""
    f32 = np.finfo(np.float32)
    return 4 * f32.eps * (np.abs(codec.lo) + 255.0 * codec.scale) + f32.tiny


class TestCodecs:
    @settings(max_examples=50, deadline=None)
    @given(stored_features())
    def test_int8_roundtrip_error_within_half_scale(self, features):
        codec = Int8Codec().fit(features)
        decoded = codec.decode(codec.encode(features))
        assert decoded.dtype == repro.tensor.COMPUTE_DTYPE
        # Affine quantization: |x - deq(q(x))| <= scale/2 per column for
        # values inside the fitted range (plus float rounding headroom).
        bound = codec.scale / 2 + decode_headroom(codec)
        assert np.all(np.abs(decoded - features) <= bound)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, width=32),
           st.integers(1, 8), st.integers(1, 4))
    def test_int8_constant_columns_roundtrip_exactly(self, value, rows, cols):
        features = np.full((rows, cols), value, dtype=np.float32)
        codec = Int8Codec().fit(features)
        np.testing.assert_array_equal(codec.decode(codec.encode(features)),
                                      features)

    def test_int8_zero_columns_roundtrip_exactly(self):
        features = np.zeros((6, 3))
        codec = Int8Codec().fit(features)
        assert np.all(codec.scale == 1.0)
        np.testing.assert_array_equal(codec.decode(codec.encode(features)),
                                      features)

    @settings(max_examples=25, deadline=None)
    @given(stored_features())
    def test_int8_frozen_params_clip_out_of_range_rows(self, features):
        codec = Int8Codec().fit(features)
        lo, scale = codec.lo.copy(), codec.scale.copy()
        hi = lo + scale * 255.0
        beyond = features + 1000.0       # far outside the fitted range
        decoded = codec.decode(codec.encode(beyond))
        # Fit state is frozen; later rows clip to the fitted boundary.
        np.testing.assert_array_equal(codec.lo, lo)
        np.testing.assert_array_equal(codec.scale, scale)
        assert np.all(decoded <= hi + decode_headroom(codec))

    @settings(max_examples=25, deadline=None)
    @given(stored_features())
    def test_fp16_roundtrip_relative_error(self, features):
        codec = Fp16Codec().fit(features)
        decoded = codec.decode(codec.encode(features))
        # IEEE half carries ~2^-11 relative error (values here stay well
        # inside the fp16 range).
        assert np.allclose(decoded, features, rtol=1e-3, atol=1e-4)

    @settings(max_examples=25, deadline=None)
    @given(stored_features())
    def test_fp32_roundtrips_float32_sources_exactly(self, features):
        codec = Fp32Codec().fit(features)
        decoded = codec.decode(codec.encode(features))
        np.testing.assert_array_equal(decoded, features)
        # The full-width tier is an identity: no widening, no copy.
        assert decoded.dtype == np.float32
        assert np.shares_memory(codec.decode(features), features)

    def test_int8_requires_fit(self):
        with pytest.raises(RuntimeError, match="before fit"):
            Int8Codec().encode(np.zeros((2, 2)))
        with pytest.raises(RuntimeError, match="before fit"):
            Int8Codec().decode(np.zeros((2, 2), dtype=np.uint8))

    def test_int8_fit_rejects_non_matrix(self):
        with pytest.raises(ValueError, match="feature matrix"):
            Int8Codec().fit(np.zeros(5))

    def test_int8_empty_fit_is_identity_affine(self):
        codec = Int8Codec().fit(np.zeros((0, 4)))
        np.testing.assert_array_equal(codec.lo, np.zeros(4))
        np.testing.assert_array_equal(codec.scale, np.ones(4))
        np.testing.assert_array_equal(codec.zero_point, np.zeros(4))

    def test_determinism_across_fresh_codecs(self):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(40, 6))
        a = Int8Codec().fit(features)
        b = Int8Codec().fit(features)
        np.testing.assert_array_equal(a.encode(features), b.encode(features))
        np.testing.assert_array_equal(a.decode(a.encode(features)),
                                      b.decode(b.encode(features)))


class TestRoundtripRows:
    @settings(max_examples=25, deadline=None)
    @given(feature_matrix())
    def test_int8_rows_error_within_per_row_half_scale(self, rows):
        out = roundtrip_rows("int8", rows)
        span = rows.max(axis=1, keepdims=True) - rows.min(axis=1, keepdims=True)
        scale = np.where(span > 0, span / 255.0, 1.0)
        assert np.all(np.abs(out - rows) <= scale / 2 + 1e-9)

    def test_constant_rows_are_exact_under_int8(self):
        rows = np.full((3, 5), 2.5)
        np.testing.assert_array_equal(roundtrip_rows("int8", rows), rows)

    def test_pure_function_of_input(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(8, 4))
        for tier in PRECISION_TIERS:
            np.testing.assert_array_equal(roundtrip_rows(tier, rows),
                                          roundtrip_rows(tier, rows.copy()))

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError, match="rows, dim"):
            roundtrip_rows("fp16", np.zeros(4))


class TestRegistryResolution:
    def test_default_and_explicit(self, monkeypatch):
        monkeypatch.delenv("REPRO_PRECISION", raising=False)
        assert resolve_precision_name() == "fp32"
        assert resolve_precision_name("int8") == "int8"

    def test_env_resolution_and_flag_priority(self, monkeypatch):
        monkeypatch.setenv("REPRO_PRECISION", "fp16")
        assert resolve_precision_name() == "fp16"
        assert resolve_precision_name("int8") == "int8"   # explicit wins
        monkeypatch.setenv("REPRO_PRECISION", "")         # empty -> default
        assert resolve_precision_name() == "fp32"

    def test_unknown_name_lists_tiers_and_selectors(self):
        with pytest.raises(ValueError) as err:
            resolve_precision_name("bf16")
        message = str(err.value)
        assert "unknown precision tier 'bf16'" in message
        for tier in ("fp32", "fp16", "int8"):
            assert tier in message
        assert "REPRO_PRECISION" in message

    def test_stale_env_names_the_environment_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_PRECISION", "bogus")
        with pytest.raises(ValueError, match="REPRO_PRECISION environment"):
            resolve_precision_name()


class TestPrecisionPolicy:
    def test_defaults_are_exact(self):
        policy = PrecisionPolicy()
        assert policy.is_exact
        assert policy.bytes_per_element == 4

    def test_lossy_tier_bytes(self):
        assert PrecisionPolicy(tier="fp16").bytes_per_element == 2
        assert PrecisionPolicy(tier="int8").bytes_per_element == 1
        assert not PrecisionPolicy(tier="int8").is_exact

    def test_coerce(self, monkeypatch):
        monkeypatch.setenv("REPRO_PRECISION", "fp16")
        assert PrecisionPolicy.coerce(None).tier == "fp16"
        assert PrecisionPolicy.coerce("int8").tier == "int8"
        ready = PrecisionPolicy(tier="int8", mrr_budget=0.1)
        assert PrecisionPolicy.coerce(ready) is ready

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown precision tier"):
            PrecisionPolicy(tier="fp8")
        with pytest.raises(ValueError, match="mrr_budget"):
            PrecisionPolicy(mrr_budget=-0.1)
        with pytest.raises(ValueError, match="hot_fraction"):
            PrecisionPolicy(hot_fraction=0.8, warm_fraction=0.4)


@pytest.fixture
def store_pair(featured_graph):
    """(exact store, int8 store) over the same graph, no caches."""
    exact = FeatureStore(featured_graph, cost_model=TransferCostModel())
    quant = FeatureStore(featured_graph, cost_model=TransferCostModel(),
                         precision="int8")
    return exact, quant


class TestFeatureStorePrecision:
    def test_fp32_store_is_bitwise_todays_path(self, featured_graph):
        plain = FeatureStore(featured_graph)
        fp32 = FeatureStore(featured_graph, precision="fp32")
        ids = np.arange(0, featured_graph.num_edges, 3)
        np.testing.assert_array_equal(plain.slice_edge_features(ids),
                                      fp32.slice_edge_features(ids))
        assert fp32.stats.as_dict() == plain.stats.as_dict()

    def test_default_store_ignores_the_environment(self, featured_graph,
                                                   monkeypatch):
        # Env resolution happens at the config/engine layer only: a directly
        # constructed store stays exact (and bitwise-deterministic) even
        # under a REPRO_PRECISION CI matrix cell.
        monkeypatch.setenv("REPRO_PRECISION", "int8")
        store = FeatureStore(featured_graph)
        assert store.precision.is_exact

    def test_quantized_error_bound_and_byte_accounting(self, store_pair,
                                                       featured_graph):
        exact, quant = store_pair
        ids = np.arange(featured_graph.num_edges)
        exact_rows = exact.slice_edge_features(ids)
        quant_rows = quant.slice_edge_features(ids)
        scale = quant._edge_codec.scale
        assert np.all(np.abs(quant_rows - exact_rows) <= scale / 2 + 1e-9)
        # int8 moves a quarter of the bytes fp32 does (float32 graph arrays).
        assert quant.edge_bytes_per_row * 4 == exact.edge_bytes_per_row
        assert quant.stats.bytes_from_ram * 4 == exact.stats.bytes_from_ram

    def test_node_feature_path_quantizes_too(self, store_pair, featured_graph):
        exact, quant = store_pair
        ids = np.arange(featured_graph.num_nodes)
        exact_rows = exact.slice_node_features(ids)
        quant_rows = quant.slice_node_features(ids)
        scale = quant._node_codec.scale
        assert np.all(np.abs(quant_rows - exact_rows) <= scale / 2 + 1e-9)
        assert quant.node_bytes_per_row * 4 == exact.node_bytes_per_row

    def test_cache_membership_never_changes_values(self, featured_graph):
        cached = FeatureStore(
            featured_graph,
            edge_cache=TieredFeatureCache(featured_graph.num_edges, 20,
                                          featured_graph.edge_dim, seed=1),
            precision="int8")
        bare = FeatureStore(featured_graph, precision="int8")
        ids = np.arange(0, featured_graph.num_edges, 2)
        np.testing.assert_array_equal(cached.slice_edge_features(ids),
                                      bare.slice_edge_features(ids))

    def test_sync_encoded_after_graph_growth(self, featured_graph):
        graph = featured_graph.select_events(
            np.arange(featured_graph.num_edges))
        store = FeatureStore(graph, precision="int8")
        before = store.slice_edge_features(np.arange(4)).copy()
        lo, scale = (store._edge_codec.lo.copy(),
                     store._edge_codec.scale.copy())
        graph.append_events(graph.src[:6], graph.dst[:6],
                            graph.ts[-1] + 1.0 + np.arange(6.0),
                            edge_feat=graph.edge_feat[:6])
        grown = store.slice_edge_features(
            np.arange(graph.num_edges - 6, graph.num_edges))
        assert grown.shape[0] == 6
        # Frozen codec: old rows and fit state are untouched by the tail sync.
        np.testing.assert_array_equal(store._edge_codec.lo, lo)
        np.testing.assert_array_equal(store._edge_codec.scale, scale)
        np.testing.assert_array_equal(
            store.slice_edge_features(np.arange(4)), before)


class TestTieredFeatureCache:
    def test_capacity_math(self):
        cache = TieredFeatureCache(10_000, 100, edge_dim=8)
        assert cache.capacity == 30 + 60 + 160
        assert cache.effective_capacity_multiplier == 2.5
        counts = cache.tier_counts()
        assert counts == {"fp32": 30, "fp16": 60, "int8": 160}

    def test_capacity_clamped_by_universe(self):
        cache = TieredFeatureCache(40, 100, edge_dim=8)
        assert cache.capacity == 40

    def test_validation(self):
        with pytest.raises(ValueError, match="byte_budget_rows"):
            TieredFeatureCache(100, -1, edge_dim=4)
        with pytest.raises(ValueError, match="hot_fraction"):
            TieredFeatureCache(100, 10, edge_dim=4, hot_fraction=0.9,
                               warm_fraction=0.3)

    def test_hot_rows_are_the_most_frequent(self):
        cache = TieredFeatureCache(1000, 20, edge_dim=4, seed=0)
        hot_ids = np.arange(5)
        cache.lookup(np.repeat(hot_ids, 50))
        cache.lookup(np.arange(5, 600))
        cache.end_epoch()
        assert np.all(cache.tier_itemsize[hot_ids] == 4)

    def test_cooling_demotes_instead_of_evicting(self):
        cache = TieredFeatureCache(1000, 20, edge_dim=4, seed=0,
                                   epsilon=1.0)
        # Epoch 1: ids 0..4 are hottest -> land in the fp32 region.
        cache.lookup(np.repeat(np.arange(5), 60))
        cache.lookup(np.arange(cache.capacity + 30))
        cache.end_epoch()
        assert np.all(cache.tier_itemsize[:5] == 4)
        # Epoch 2: they cool (one access each) while 900.. heat up; with the
        # cache still holding them they demote to a narrower tier, not out.
        cache.lookup(np.arange(5))
        cache.lookup(np.repeat(np.arange(900, 900 + cache.capacity - 8), 40))
        cache.end_epoch()
        assert np.all(cache.cached[:5] == (cache.tier_itemsize[:5] > 0))
        demoted = cache.tier_itemsize[:5][cache.cached[:5]]
        assert demoted.size == 0 or np.all(demoted < 4)

    def test_hit_accounting_matches_uncompressed_cache(self):
        base = DynamicFeatureCache(500, 250, seed=3)
        tiered = TieredFeatureCache(500, 100, edge_dim=4, seed=3)
        assert tiered.capacity == 250
        rng = np.random.default_rng(11)
        for _ in range(3):
            ids = rng.integers(0, 500, size=400)
            unique_ids, counts = np.unique(ids, return_counts=True)
            base.lookup_unique(unique_ids, counts)
            tiered.lookup_unique(unique_ids, counts)
            base.end_epoch()
            tiered.end_epoch()
        # Same capacity in rows + same policy -> identical hit accounting:
        # tiering changes byte accounting only.
        assert tiered.hit_rate_history == base.hit_rate_history

    def test_hit_row_bytes_charges_residency_tiers(self):
        cache = TieredFeatureCache(1000, 20, edge_dim=4, seed=0)
        cache.lookup(np.repeat(np.arange(cache.capacity), 3))
        cache.end_epoch()
        cached = cache.cached_ids()
        expected = 4 * int(cache.tier_itemsize[cached].sum())
        assert cache.hit_row_bytes(cached, full_row_bytes=16) == expected
        # A full-width cache would charge capacity * 16 bytes; the tiered
        # one must charge strictly less for the same hits.
        assert expected < cached.size * 16

    def test_budget_capacity_grows_and_never_shrinks(self):
        cache = TieredFeatureCache(10_000, 100, edge_dim=8)
        assert cache.budget_capacity(50) == cache.capacity
        assert cache.budget_capacity(200) == 60 + 120 + 320
        assert cache.byte_budget_rows == 200

    def test_grow_extends_tier_state(self):
        cache = TieredFeatureCache(100, 20, edge_dim=4)
        cache.grow(150, capacity=cache.capacity)
        assert cache.tier_itemsize.size == 150
        assert np.all(cache.tier_itemsize[100:] == 0)


class TestTieredNodeEmbeddingCache:
    def _filled(self, budget=10, num_nodes=200, dim=6, seed=0):
        cache = TieredNodeEmbeddingCache(num_nodes, budget)
        rng = np.random.default_rng(seed)
        nodes = np.arange(cache.capacity)
        rows = rng.normal(size=(nodes.size, dim))
        cache.insert(nodes, rows, np.zeros(nodes.size), now_event=0)
        return cache, nodes, rows

    def test_capacity_math(self):
        cache = TieredNodeEmbeddingCache(1000, 10)
        # 3 hot + 6 warm + 15 cold: the cold count is floor(10 * (1 - 0.3 -
        # 0.3) * 4) and 1 - 0.3 - 0.3 rounds just below 0.4 in binary.
        assert cache.capacity == 3 + 6 + 15
        assert cache.effective_capacity_multiplier == 2.4

    def test_install_applies_slot_tier_roundtrip(self):
        cache, nodes, rows = self._filled()
        hits, cached = cache.lookup(nodes, np.zeros(nodes.size), now_event=0)
        assert hits.all()
        slots = cache.slot_of[nodes]
        for itemsize, tier in cache._TIERS:
            in_tier = cache._slot_tier[slots] == itemsize
            if in_tier.any():
                np.testing.assert_array_equal(
                    cached[in_tier], roundtrip_rows(tier, rows[in_tier]))
        # Hot slots are allocated first: fresh rows start full width.
        assert np.all(cache._slot_tier[slots[:3]] == 4)

    def test_rebalance_demotes_cooled_entries(self):
        cache, nodes, _ = self._filled()
        hot_before = nodes[cache._slot_tier[cache.slot_of[nodes]] == 4]
        cold = nodes[-1]
        cache.lookup(np.repeat(cold, 50), np.zeros(50), now_event=0)
        cache.end_epoch()                       # rebalance by frequency
        assert cache.slot_of[cold] >= 0
        assert cache._slot_tier[cache.slot_of[cold]] == 4
        # One previous hot occupant was displaced down, none evicted.
        assert cache.num_cached == cache.capacity
        demoted = [n for n in hot_before
                   if cache._slot_tier[cache.slot_of[n]] < 4]
        assert len(demoted) == 1

    def test_tier_counts_track_occupancy(self):
        cache = TieredNodeEmbeddingCache(100, 10)
        assert cache.tier_counts() == {"fp32": 0, "fp16": 0, "int8": 0}
        cache.insert(np.arange(4), np.ones((4, 3)), np.zeros(4), now_event=0)
        counts = cache.tier_counts()
        assert counts["fp32"] == 3 and counts["fp16"] == 1

    def test_replay_determinism(self):
        runs = []
        for _ in range(2):
            cache, nodes, rows = self._filled(seed=7)
            cache.lookup(nodes[:5], np.zeros(5), now_event=0)
            cache.end_epoch()
            _, cached = cache.lookup(nodes, np.zeros(nodes.size), now_event=0)
            runs.append(cached)
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_exact_cache_unchanged_contract(self):
        # The plain cache stays the fp32 path: no quantization on install.
        cache = NodeEmbeddingCache(50, 8)
        rows = np.random.default_rng(0).normal(size=(4, 5))
        cache.insert(np.arange(4), rows, np.zeros(4), now_event=0)
        _, cached = cache.lookup(np.arange(4), np.zeros(4), now_event=0)
        np.testing.assert_array_equal(cached, rows)

    def test_validation(self):
        with pytest.raises(ValueError, match="byte_budget_rows"):
            TieredNodeEmbeddingCache(10, -1)
        with pytest.raises(ValueError, match="hot_fraction"):
            TieredNodeEmbeddingCache(10, 5, hot_fraction=0.7,
                                     warm_fraction=0.7)


class TestConfigAndTrainerSelection:
    def test_resolved_precision(self, monkeypatch):
        from repro.core import TaserConfig
        monkeypatch.delenv("REPRO_PRECISION", raising=False)
        assert TaserConfig().resolved_precision == "fp32"
        assert TaserConfig(precision="int8").resolved_precision == "int8"
        monkeypatch.setenv("REPRO_PRECISION", "fp16")
        assert TaserConfig().resolved_precision == "fp16"

    def test_config_rejects_unknown_tier_and_bad_budget(self):
        from repro.core import TaserConfig
        with pytest.raises(ValueError, match="unknown precision tier"):
            TaserConfig(precision="fp64")
        with pytest.raises(ValueError, match="precision_mrr_budget"):
            TaserConfig(precision_mrr_budget=-1.0)

    def test_trainer_installs_tiered_cache_for_lossy_tiers(self, small_graph):
        from repro.core import TaserConfig, TaserTrainer
        cfg = dict(epochs=1, max_batches_per_epoch=2, batch_size=50,
                   adaptive_minibatch=False, adaptive_neighbor=False,
                   num_candidates=10)
        # Pin the exact tier explicitly so the assertion holds even when the
        # surrounding environment (e.g. the CI fp16 matrix cell) sets
        # REPRO_PRECISION to a lossy tier.
        exact = TaserTrainer(small_graph, TaserConfig(precision="fp32", **cfg))
        lossy = TaserTrainer(small_graph,
                             TaserConfig(precision="int8", **cfg))
        assert type(exact.cache) is DynamicFeatureCache
        assert type(lossy.cache) is TieredFeatureCache
        stats = lossy.train_epoch()
        assert stats.precision == "int8"
        assert exact.train_epoch().precision == "fp32"
