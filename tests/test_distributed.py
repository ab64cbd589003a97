"""Sharded data-parallel training: plan invariants + determinism contracts.

The two contracts that define the subsystem (see docs/ARCHITECTURE.md):

* a :class:`TemporalShardPlan` is an exact partition — every event in
  exactly one shard, shard views chronological, per-shard T-CSR identical
  to a rebuild over the masked event set;
* ``ShardedTrainer`` with ``W = 1`` is bitwise-identical to the
  single-process ``TaserTrainer``, and ``W = 2`` reproduces exactly under a
  fixed seed — across runs and across the serial and process pools.
"""

import numpy as np
import pytest

from repro.core import TaserConfig, TaserTrainer
from repro.distributed import (GradientComms, ShardedTrainer, ShardTask,
                               ShardWorker, average_gradients,
                               make_worker_pool)
from repro.graph import (CTDGConfig, build_tcsr, generate_ctdg,
                         make_shard_plan)


def tiny_config(**overrides):
    base = dict(backbone="graphmixer", adaptive_minibatch=False,
                adaptive_neighbor=False, hidden_dim=8, time_dim=4,
                num_neighbors=4, num_candidates=8, batch_size=64, epochs=1,
                max_batches_per_epoch=4, eval_max_edges=40, eval_negatives=10,
                lr=1e-3, dropout=0.0, seed=5)
    base.update(overrides)
    return TaserConfig(**base)


@pytest.fixture(scope="module")
def shard_graph():
    return generate_ctdg(CTDGConfig(num_src=40, num_dst=25, num_events=1500,
                                    num_communities=4, edge_dim=8, seed=21,
                                    noise_prob=0.15, repeat_prob=0.4))


def _losses(trainer, epochs=2):
    return [trainer.train_epoch().batch_losses for _ in range(epochs)]


# ---------------------------------------------------------------- shard plan

class TestShardPlan:
    @pytest.mark.parametrize("policy", ["temporal", "hash"])
    @pytest.mark.parametrize("num_shards", [1, 2, 3])
    def test_exact_partition(self, shard_graph, policy, num_shards):
        plan = make_shard_plan(shard_graph, num_shards, policy)
        plan.check_invariants()
        assert plan.num_shards == num_shards
        counts = np.zeros(shard_graph.num_edges, dtype=int)
        for spec in plan.shards:
            counts[spec.event_indices] += 1
        assert np.all(counts == 1)

    @pytest.mark.parametrize("policy", ["temporal", "hash"])
    def test_shard_views_chronological(self, shard_graph, policy):
        plan = make_shard_plan(shard_graph, 3, policy)
        for view in map(plan.shard_graph, range(plan.num_shards)):
            assert np.all(np.diff(view.ts) >= 0)
            assert view.num_nodes == shard_graph.num_nodes

    @pytest.mark.parametrize("policy", ["temporal", "hash"])
    def test_shard_tcsr_matches_masked_rebuild(self, shard_graph, policy):
        """Per-shard T-CSR == T-CSR rebuilt over the shard's event mask."""
        plan = make_shard_plan(shard_graph, 3, policy)
        for spec in plan.shards:
            mask = np.zeros(shard_graph.num_edges, dtype=bool)
            mask[spec.event_indices] = True
            rebuilt = build_tcsr(shard_graph.select_events(np.nonzero(mask)[0]))
            shard_tcsr = build_tcsr(plan.shard_graph(spec.index))
            np.testing.assert_array_equal(shard_tcsr.indptr, rebuilt.indptr)
            np.testing.assert_array_equal(shard_tcsr.indices, rebuilt.indices)
            np.testing.assert_array_equal(shard_tcsr.eid, rebuilt.eid)
            np.testing.assert_array_equal(shard_tcsr.ts, rebuilt.ts)

    def test_hash_policy_keeps_sources_together(self, shard_graph):
        plan = make_shard_plan(shard_graph, 3, "hash")
        owner_of = {}
        for spec in plan.shards:
            for s in np.unique(shard_graph.src[spec.event_indices]):
                assert owner_of.setdefault(int(s), spec.index) == spec.index, \
                    "a source node's events were split across shards"

    def test_w1_is_identity_partition(self, shard_graph):
        for policy in ("temporal", "hash"):
            plan = make_shard_plan(shard_graph, 1, policy)
            np.testing.assert_array_equal(
                plan.shards[0].event_indices,
                np.arange(shard_graph.num_edges))

    def test_cache_budget_apportioned_exactly(self, shard_graph):
        plan = make_shard_plan(shard_graph, 3, "hash", cache_ratio=0.2)
        total = int(round(0.2 * shard_graph.num_edges))
        assert sum(s.cache_capacity for s in plan.shards) == total

    def test_validation_errors(self, shard_graph):
        with pytest.raises(ValueError):
            make_shard_plan(shard_graph, 0, "temporal")
        with pytest.raises(ValueError):
            make_shard_plan(shard_graph, 2, "round-robin")
        with pytest.raises(ValueError):
            make_shard_plan(shard_graph, shard_graph.num_edges + 1, "temporal")
        # A shuffled log cannot be built, so no plan checks the order.
        with pytest.raises(ValueError, match="chronologically"):
            shard_graph.select_events(
                np.random.default_rng(0).permutation(shard_graph.num_edges))


# ---------------------------------------------------------------- determinism

class TestShardedDeterminism:
    @pytest.mark.parametrize("variant", [
        (False, False), (True, False), (False, True), (True, True)])
    def test_w1_bitwise_identical_to_trainer(self, shard_graph, variant):
        am, an = variant
        cfg = tiny_config(adaptive_minibatch=am, adaptive_neighbor=an)
        trainer = TaserTrainer(shard_graph, cfg)
        reference = [trainer.train_epoch() for _ in range(2)]
        with ShardedTrainer(shard_graph, cfg, num_workers=1,
                            backend="serial") as sharded:
            epochs = [sharded.train_epoch() for _ in range(2)]
        for stats, ref in zip(epochs, reference):
            assert stats.batch_losses == ref.batch_losses
            for name in ("model_loss", "sample_loss", "cache_hit_rate",
                         "effective_sample_size", "dedup_ratio"):
                assert getattr(stats, name) == getattr(ref, name), name
            assert set(stats.runtime) - {"SYNC"} == set(ref.runtime)

    def test_w1_bitwise_without_batch_cap(self, shard_graph):
        cfg = tiny_config(max_batches_per_epoch=None)
        reference = _losses(TaserTrainer(shard_graph, cfg))
        with ShardedTrainer(shard_graph, cfg, num_workers=1,
                            backend="serial") as sharded:
            assert _losses(sharded) == reference

    @pytest.mark.parametrize("policy", ["temporal", "hash"])
    def test_w2_reproducible_across_runs(self, shard_graph, policy):
        cfg = tiny_config()
        runs = []
        for _ in range(2):
            with ShardedTrainer(shard_graph, cfg, num_workers=2,
                                shard_policy=policy) as sharded:
                runs.append(_losses(sharded))
        assert runs[0] == runs[1]

    def test_w2_identical_across_pool_backends(self, shard_graph):
        cfg = tiny_config()
        trajectories = {}
        for backend in ("serial", "process"):
            with ShardedTrainer(shard_graph, cfg, num_workers=2,
                                backend=backend) as sharded:
                trajectories[backend] = _losses(sharded)
        assert trajectories["serial"] == trajectories["process"]

    def test_replicas_stay_bitwise_identical(self, shard_graph):
        cfg = tiny_config()
        with ShardedTrainer(shard_graph, cfg, num_workers=2,
                            backend="serial") as sharded:
            sharded.train_epoch()
            states = [sharded.pool.run_one(w, "model_state") for w in (0, 1)]
        for key in states[0]["backbone"]:
            np.testing.assert_array_equal(states[0]["backbone"][key],
                                          states[1]["backbone"][key])
        for key in states[0]["predictor"]:
            np.testing.assert_array_equal(states[0]["predictor"][key],
                                          states[1]["predictor"][key])


# ---------------------------------------------------------------- mechanics

class TestShardedMechanics:
    def test_average_gradients(self):
        a = [np.array([2.0, 4.0]), None, np.array([1.0])]
        b = [np.array([4.0, 8.0]), None, None]
        avg = average_gradients([a, b])
        np.testing.assert_array_equal(avg[0], [3.0, 6.0])
        assert avg[1] is None
        np.testing.assert_array_equal(avg[2], [0.5])
        # single-list averaging is the exact identity
        solo = average_gradients([a])
        np.testing.assert_array_equal(solo[0], a[0])
        assert solo[0] is not a[0]  # private copy, not an alias

    def test_epoch_length_is_min_shard_count(self, shard_graph):
        cfg = tiny_config(max_batches_per_epoch=None)
        with ShardedTrainer(shard_graph, cfg, num_workers=2,
                            shard_policy="hash", backend="serial") as sharded:
            stats = sharded.train_epoch()
            counts = sharded.pool.run("num_batches", [(None,)] * 2)
            assert len(stats.batch_losses) == min(counts)

    def test_fit_and_evaluate_full_graph(self, shard_graph):
        cfg = tiny_config(epochs=2)
        with ShardedTrainer(shard_graph, cfg, num_workers=2) as sharded:
            result = sharded.fit()
            assert len(result.history) == 2
            assert 0.0 <= result.test_mrr <= 1.0
            assert "SYNC" in result.runtime_breakdown
            assert {"NF", "FS", "PP"} <= set(result.runtime_breakdown)
            assert result.variant == cfg.variant_name()

    def test_per_shard_summaries(self, shard_graph):
        cfg = tiny_config()
        with ShardedTrainer(shard_graph, cfg, num_workers=2,
                            backend="serial") as sharded:
            stats = sharded.train_epoch()
        assert len(stats.per_shard) == 2
        for shard in stats.per_shard:
            assert len(shard.batch_losses) == len(stats.batch_losses)
            assert {"NF", "FS", "PP"} <= set(shard.runtime)
            assert set(shard.runtime) <= {"NF", "FS", "AS", "PP"}
        assert set(stats.runtime) <= {"NF", "FS", "AS", "PP", "SYNC"}
        assert stats.runtime["FS"] == sum(
            shard.runtime["FS"] for shard in stats.per_shard)

    def test_worker_pool_error_propagates(self, shard_graph):
        cfg = tiny_config()
        plan_graph = shard_graph.select_events(np.arange(200))
        task = ShardTask(config=cfg, shard_index=0, num_shards=1,
                         cache_capacity=10, graph=plan_graph)
        for backend in ("serial", "process"):
            pool = make_worker_pool(backend, [task])
            try:
                with pytest.raises(Exception):
                    pool.run("no_such_method")
            finally:
                pool.shutdown()

    def test_unknown_backend_rejected(self, shard_graph):
        with pytest.raises(ValueError):
            ShardedTrainer(shard_graph, tiny_config(), num_workers=1,
                           backend="mpi")

    def test_shard_worker_standalone(self, shard_graph):
        """The worker protocol is usable without a pool (one manual step)."""
        cfg = tiny_config()
        task = ShardTask(config=cfg, shard_index=0, num_shards=1,
                         cache_capacity=0, graph=shard_graph)
        comms = GradientComms.for_replica(TaserTrainer(shard_graph, cfg), 1)
        assert comms.sampler_bucket is None       # non-adaptive config
        task.comms = comms.endpoint(0)
        worker = ShardWorker(task)
        assert worker.num_batches(4) == 4
        bucket, own = comms.model_bucket, comms.model_bufs[0]
        worker.begin_epoch(1)
        assert worker.comms_backward() is False   # no sampler gradients
        assert any(g is not None for g in bucket.unpack(own))
        bucket.reduce([own], out=comms.model_avg, denominator=1)
        worker.comms_apply(False)
        with pytest.raises(RuntimeError, match="exhausted"):
            worker.comms_backward()   # past the schedule
        stats, slices = worker.end_epoch()
        assert len(stats.batch_losses) == 1
        assert stats.dedup_ratio == slices.dedup_ratio > 1.0

    def test_workers_keep_no_epoch_history(self, shard_graph):
        """A worker's stats reach the master as ``per_shard``, and the
        master returns them: no trainer keeps an epoch history."""
        with ShardedTrainer(shard_graph, tiny_config(), num_workers=2,
                            backend="serial") as sharded:
            epochs = [sharded.train_epoch() for _ in range(2)]
            assert [len(stats.per_shard) for stats in epochs] == [2, 2]
            assert not hasattr(sharded, "history")
            for worker in sharded.pool.workers:
                assert not hasattr(worker.trainer, "history")
