"""Unified batch-prep runtime (``repro.core.prep``).

Two contracts (see docs/ARCHITECTURE.md, "Prep runtime"):

* **bitwise identity** — the deduplicated fused gather produces outputs
  bitwise-identical to the naive per-slot gather, for arbitrarily
  duplicate-heavy neighborhoods, and the loss trajectories of every
  execution path (the batch engine, ``StreamingTrainer``,
  ``ShardedTrainer``) reproduce exactly under a fixed seed;
* **single cache choke point** — all feature-cache probes and hit/transfer
  accounting happen behind the unique-id dedup, with occurrence-weighted
  hit accounting identical to the pre-dedup stream and the achieved
  redundancy elimination surfaced as ``dedup_ratio``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (PrepPipeline, StreamingTrainer, TaserTrainer,
                        split_warmup)
from repro.device import DynamicFeatureCache, FeatureStore
from repro.distributed import ShardedTrainer

# Reused determinism helpers from the sharded-trainer suite (same graphs,
# same tiny configs, same trajectory extraction).
from test_distributed import _losses, shard_graph, tiny_config  # noqa: F401
from repro.bench.breakdown import loss_trajectory_hash


# ------------------------------------------------------------ dedup gather

class TestDedupGatherBitwise:
    """Property: dedup-gather output == naive gather, bitwise."""

    @settings(max_examples=25, deadline=None)
    @given(rows=st.integers(1, 12), cols=st.integers(1, 8),
           pool=st.integers(1, 6), seed=st.integers(0, 1000),
           with_cache=st.booleans())
    def test_edge_gather_matches_naive_reference(self, small_graph, rows,
                                                 cols, pool, seed, with_cache):
        """Duplicate-heavy edge-id grids: tiny id pools force heavy dedup."""
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, pool, size=(rows, cols))
        mask = rng.random((rows, cols)) < 0.7
        cache = DynamicFeatureCache(small_graph.num_edges, 200, seed=0) \
            if with_cache else None
        store = FeatureStore(small_graph, edge_cache=cache)
        got = store.slice_edge_features(ids, mask)
        # Naive per-slot reference: exactly the pre-dedup gather, in the
        # dtype the graph stores (rows are never widened on the way in).
        want = small_graph.edge_feat[ids.reshape(-1)]
        want = (want * mask.reshape(-1)[:, None]).reshape(
            rows, cols, small_graph.edge_dim)
        assert got.dtype == want.dtype == np.float32
        assert np.array_equal(got, want)  # bitwise, not allclose
        stats = store.snapshot()
        valid = int(mask.sum())
        unique_valid = int(np.unique(ids[mask]).size) if valid else 0
        assert stats.ids_requested == valid
        assert stats.ids_unique == unique_valid
        if unique_valid:
            assert stats.dedup_ratio == valid / unique_valid

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 60), pool=st.integers(1, 10),
           seed=st.integers(0, 1000))
    def test_node_gather_matches_naive_reference(self, featured_graph, n,
                                                 pool, seed):
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, pool, size=n)
        store = FeatureStore(featured_graph)
        got = store.slice_node_features(ids)
        want = featured_graph.node_feat[ids]
        assert got.dtype == want.dtype == np.float32
        assert np.array_equal(got, want)
        stats = store.snapshot()
        assert stats.ids_requested == n
        assert stats.ids_unique == int(np.unique(ids).size)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(0, 200), pool=st.integers(1, 40),
           capacity=st.integers(0, 80), seed=st.integers(0, 500))
    def test_unique_probe_accounts_like_full_stream(self, n, pool, capacity,
                                                    seed):
        """lookup_unique == lookup: same epoch hits/requests/frequencies."""
        rng = np.random.default_rng(seed)
        stream = rng.integers(0, pool, size=n)
        a = DynamicFeatureCache(100, capacity, seed=3)
        b = DynamicFeatureCache(100, capacity, seed=3)
        hits_full = a.lookup(stream)
        unique_ids, counts = np.unique(stream, return_counts=True)
        hits_unique = b.lookup_unique(unique_ids, counts)
        assert a._epoch_hits == b._epoch_hits
        assert a._epoch_requests == b._epoch_requests
        np.testing.assert_array_equal(a.frequency, b.frequency)
        # The unique hit mask expands to the full stream's hit mask.
        inverse = np.searchsorted(unique_ids, stream)
        np.testing.assert_array_equal(hits_full, hits_unique[inverse])

    def test_hit_rate_unchanged_by_dedup(self, small_graph):
        """Occurrence-weighted hits: a duplicated cached id counts each time."""
        cache = DynamicFeatureCache(small_graph.num_edges,
                                    small_graph.num_edges, seed=0)
        cache.cached[:] = True  # everything cached
        store = FeatureStore(small_graph, edge_cache=cache)
        store.slice_edge_features(np.array([3, 3, 3, 5]))
        stats = store.snapshot()
        assert stats.cache_hits == 4          # per occurrence
        assert stats.ids_unique == 2          # per unique id
        assert stats.dedup_ratio == 2.0
        # Bytes/simulated time reflect the unique rows actually moved.
        assert stats.bytes_from_vram == 2 * small_graph.edge_feat.itemsize \
            * small_graph.edge_dim


# -------------------------------------------------------- engine consumers

class TestEngineConsumers:
    @pytest.mark.parametrize("mode", ["sync"])
    def test_engines_share_the_prep_runtime(self, shard_graph, mode):
        trainer = TaserTrainer(shard_graph, tiny_config(batch_engine=mode))
        assert isinstance(trainer.prep, PrepPipeline)
        stats = trainer.train_epoch()
        # Multi-hop candidate sets are duplicate-heavy: dedup must engage.
        assert stats.dedup_ratio > 1.0
        assert np.isfinite(stats.model_loss)

    def test_eval_goes_through_prep(self, shard_graph):
        trainer = TaserTrainer(shard_graph, tiny_config())
        evaluator = trainer.make_evaluator()
        assert evaluator.prep is trainer.prep
        trainer.feature_store.reset_stats()
        first = evaluator.evaluate("val")
        # Eval slicing is accounted at the same choke point as training.
        stats = trainer.feature_store.snapshot()
        assert stats.ids_requested > stats.ids_unique > 0
        assert trainer.make_evaluator().evaluate("val") == first


# --------------------------------------------------- streaming + sharded

class TestStreamingConsumer:
    def _run(self, graph):
        warm, stream = split_warmup(graph, 600, chunk_size=250, max_chunks=2)
        trainer = StreamingTrainer(
            warm, tiny_config(adaptive_minibatch=False), window_events=500)
        result = trainer.run(stream)
        losses = [[stats.batch_losses for stats in s.train_stats]
                  for s in result.history]
        return loss_trajectory_hash(losses), result

    def test_streaming_reproduces_and_dedups(self, shard_graph):
        hash_a, result = self._run(shard_graph)
        hash_b, _ = self._run(shard_graph)
        assert hash_a == hash_b
        assert all(s.train_stats[0].dedup_ratio > 1.0
                   for s in result.history if s.train_stats)


class TestShardedConsumer:
    def test_w1_hash_matches_single_trainer(self, shard_graph):
        cfg = tiny_config()
        reference = loss_trajectory_hash(_losses(TaserTrainer(shard_graph, cfg)))
        with ShardedTrainer(shard_graph, cfg, num_workers=1,
                            backend="serial") as sharded:
            assert loss_trajectory_hash(_losses(sharded)) == reference

    def test_w2_hash_reproducible_with_dedup(self, shard_graph):
        cfg = tiny_config()
        hashes = []
        for _ in range(2):
            with ShardedTrainer(shard_graph, cfg, num_workers=2) as sharded:
                hashes.append(loss_trajectory_hash(_losses(sharded)))
                per_shard = sharded.history[-1].per_shard
                assert all(s["dedup_ratio"] > 1.0 for s in per_shard)
        assert hashes[0] == hashes[1]


# -------------------------------------------------------------- config fold

class TestConfigFold:
    def test_single_config_module_shim_removed(self):
        """repro.core.config is the only config module; the deprecated
        repro.utils.config re-export shim is gone."""
        import importlib

        from repro.core import asdict_shallow as core_level
        from repro.core.config import asdict_shallow as canonical
        assert canonical is core_level
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.utils.config")
        import repro.utils as utils
        assert not hasattr(utils, "asdict_shallow")
