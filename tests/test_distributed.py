"""Sharded data-parallel training: plan invariants + determinism contracts.

The two contracts that define the subsystem (see docs/ARCHITECTURE.md):

* a :class:`TemporalShardPlan` is an exact partition — every event in
  exactly one shard, shard views chronological, per-shard T-CSR identical
  to a rebuild over the masked event set;
* ``ShardedTrainer`` with ``W = 1`` is bitwise-identical to the
  single-process ``TaserTrainer``, and ``W = 2`` reproduces exactly under a
  fixed seed — across runs and across the serial/thread/process pools.
"""

import numpy as np
import pytest

from repro.core import TaserConfig, TaserTrainer
from repro.distributed import (GradientBucket, ShardedTrainer, ShardTask,
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
        for view in plan.shard_graphs():
            assert view.is_chronological
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
        shuffled = shard_graph.select_events(
            np.random.default_rng(0).permutation(shard_graph.num_edges))
        with pytest.raises(ValueError):
            make_shard_plan(shuffled, 2, "temporal")


# ---------------------------------------------------------------- determinism

class TestShardedDeterminism:
    @pytest.mark.parametrize("variant", [
        (False, False), (True, False), (False, True), (True, True)])
    def test_w1_bitwise_identical_to_trainer(self, shard_graph, variant):
        am, an = variant
        cfg = tiny_config(adaptive_minibatch=am, adaptive_neighbor=an)
        reference = _losses(TaserTrainer(shard_graph, cfg))
        with ShardedTrainer(shard_graph, cfg, num_workers=1,
                            backend="serial") as sharded:
            assert _losses(sharded) == reference

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
                                shard_policy=policy,
                                backend="thread") as sharded:
                runs.append(_losses(sharded))
        assert runs[0] == runs[1]

    def test_w2_identical_across_pool_backends(self, shard_graph):
        cfg = tiny_config()
        trajectories = {}
        for backend in ("serial", "thread", "process"):
            with ShardedTrainer(shard_graph, cfg, num_workers=2,
                                backend=backend) as sharded:
                trajectories[backend] = _losses(sharded)
        assert trajectories["serial"] == trajectories["thread"]
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
            assert stats.global_steps == min(counts)
            assert len(stats.batch_losses) == stats.global_steps

    def test_fit_and_evaluate_full_graph(self, shard_graph):
        cfg = tiny_config(epochs=2)
        with ShardedTrainer(shard_graph, cfg, num_workers=2,
                            backend="thread") as sharded:
            result = sharded.fit()
            assert len(result.history) == 2
            assert 0.0 <= result.test_mrr <= 1.0
            assert "SYNC" in result.runtime_breakdown
            assert {"NF", "FS", "PP"} <= set(result.runtime_breakdown)
            assert result.variant.endswith("x2")

    def test_per_shard_summaries(self, shard_graph):
        cfg = tiny_config()
        with ShardedTrainer(shard_graph, cfg, num_workers=2,
                            backend="serial") as sharded:
            stats = sharded.train_epoch()
        assert [s["shard"] for s in stats.per_shard] == [0, 1]
        for summary in stats.per_shard:
            assert len(summary["losses"]) == stats.global_steps
            assert {"NF", "FS", "PP"} <= set(summary["runtime"])

    def test_worker_pool_error_propagates(self, shard_graph):
        cfg = tiny_config()
        plan_graph = shard_graph.select_events(np.arange(200))
        task = ShardTask(config=cfg, shard_index=0, num_shards=1,
                         cache_capacity=10, src=plan_graph.src,
                         dst=plan_graph.dst, ts=plan_graph.ts,
                         num_nodes=plan_graph.num_nodes,
                         edge_feat=plan_graph.edge_feat)
        for backend in ("serial", "thread", "process"):
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
                         cache_capacity=0, src=shard_graph.src,
                         dst=shard_graph.dst, ts=shard_graph.ts,
                         num_nodes=shard_graph.num_nodes,
                         edge_feat=shard_graph.edge_feat)
        worker = ShardWorker(task)
        try:
            assert worker.num_batches(4) == 4
            layout = worker.comms_layout()
            assert layout["sampler"] is None      # non-adaptive config
            bucket = GradientBucket(layout["model"])
            own, averaged = bucket.allocate(), bucket.allocate()
            worker.comms_attach({"kind": "inprocess",
                                 "model_shapes": bucket.shapes,
                                 "sampler_shapes": None,
                                 "model_buf": own, "model_avg": averaged})
            worker.begin_epoch(1)
            assert worker.comms_model_backward()
            assert any(g is not None for g in bucket.unpack(own))
            bucket.reduce([own], out=averaged, denominator=1)
            has_sampler, seconds = worker.comms_apply_model()
            assert has_sampler is False and seconds >= 0.0
            assert not worker.comms_model_backward()   # schedule exhausted
            summary = worker.end_epoch()
            assert len(summary["losses"]) == 1
        finally:
            worker.shutdown()
