"""Tests for the mini-batch engine.

The engine's acceptance bar is *bitwise determinism*: under a fixed seed a
fresh trainer replays identical batches — and therefore identical per-batch
losses and MRR.  The ahead-of-time plan and its capability model are gone;
their names and options must stay gone.
"""

import dataclasses
import inspect
import threading

import numpy as np
import pytest

from repro.bench.breakdown import loss_trajectory_hash
from repro.core import (BatchEngine, EpochStats, MiniBatchGenerator,
                        PreparedBatch, TaserConfig, TaserTrainer)
from repro.graph import CTDGConfig, build_tcsr, generate_ctdg
from repro.sampling import GPUNeighborFinder, OriginalNeighborFinder


def engine_config(**overrides):
    base = dict(hidden_dim=8, time_dim=4, num_neighbors=4, num_candidates=8,
                batch_size=64, epochs=1, max_batches_per_epoch=6,
                eval_max_edges=40, eval_negatives=10, lr=1e-3, dropout=0.0)
    base.update(overrides)
    return TaserConfig(**base)


@pytest.fixture(scope="module")
def engine_graph():
    return generate_ctdg(CTDGConfig(num_src=40, num_dst=25, num_events=1400,
                                    num_communities=4, edge_dim=8, seed=21,
                                    noise_prob=0.15, repeat_prob=0.4))


def run_epochs(graph, epochs=2, **overrides):
    """Train ``epochs`` epochs; return (per-batch losses, val MRR, trainer)."""
    trainer = TaserTrainer(graph, engine_config(epochs=epochs, **overrides))
    losses = []
    for _ in range(epochs):
        losses.extend(trainer.train_epoch().batch_losses)
    mrr = trainer.evaluate("val")["mrr"]
    return losses, mrr, trainer


VARIANT_MATRIX = [
    # (label, overrides): both backbones (1- and 2-layer), all three
    # finders, and each adaptive switch.
    ("baseline-graphmixer", dict(backbone="graphmixer", adaptive_minibatch=False,
                                 adaptive_neighbor=False)),
    ("baseline-tgat", dict(backbone="tgat", adaptive_minibatch=False,
                           adaptive_neighbor=False)),
    # 2-layer model under the deterministic policy across both hops.
    ("baseline-tgat-recent", dict(backbone="tgat", finder_policy="recent",
                                  adaptive_minibatch=False,
                                  adaptive_neighbor=False)),
    ("baseline-original-finder", dict(backbone="graphmixer", finder="original",
                                      adaptive_minibatch=False,
                                      adaptive_neighbor=False)),
    ("baseline-tgl-finder", dict(backbone="graphmixer", finder="tgl",
                                 adaptive_minibatch=False,
                                 adaptive_neighbor=False)),
    ("ada-neighbor-graphmixer", dict(backbone="graphmixer",
                                     adaptive_minibatch=False,
                                     adaptive_neighbor=True)),
    ("ada-neighbor-tgat", dict(backbone="tgat", adaptive_minibatch=False,
                               adaptive_neighbor=True)),
    ("taser-graphmixer", dict(backbone="graphmixer", adaptive_minibatch=True,
                              adaptive_neighbor=True)),
]


class TestDeterminism:
    @pytest.mark.parametrize("label,overrides",
                             VARIANT_MATRIX, ids=[v[0] for v in VARIANT_MATRIX])
    def test_identical_losses_and_mrr_on_replay(self, engine_graph, label,
                                                overrides):
        """A fresh trainer under the same seed replays the two-epoch
        training trajectory and the val MRR bitwise."""
        losses, mrr, _ = run_epochs(engine_graph, **overrides)
        replay_losses, replay_mrr, _ = run_epochs(engine_graph, **overrides)
        assert len(losses) > 0
        assert replay_losses == losses, f"replay diverged on {label}"
        assert replay_mrr == mrr


class TestCapability:
    """What the deleted capability model leaves: a config naming any engine
    but ``sync`` is rejected."""

    def test_config_validation(self):
        with pytest.raises(ValueError):
            engine_config(batch_engine="lazy")


class TestOneEngine:
    """``sync`` is the only way a training batch is produced."""

    def test_core_exports_no_plan(self):
        import repro.core
        from repro.core import prefetcher
        for gone in ("AOTBatchEngine", "make_engine", "plan_capability",
                     "ENGINE_MODES"):
            assert not hasattr(repro.core, gone), gone
            assert not hasattr(prefetcher, gone), gone
            assert gone not in repro.core.__all__
        # benchmarks/e2e/tracer.py wraps ``epoch`` where a class defines it.
        assert "epoch" in BatchEngine.__dict__

    def test_aot_config_rejected_naming_only_sync(self):
        with pytest.raises(ValueError, match="'sync' is the only") as info:
            TaserConfig(batch_engine="aot")
        message = str(info.value).replace("'aot'", "", 1)
        assert "aot" not in message
        assert TaserConfig().batch_engine == "sync"

    def test_no_precomputed_first_hop(self):
        fields = {f.name for f in dataclasses.fields(PreparedBatch)}
        assert not fields & {"first_hop", "root_feat"}
        params = inspect.signature(MiniBatchGenerator.build).parameters
        assert not set(params) & {"first_hop", "root_feat"}
        assert "engine_mode" not in {f.name for f in dataclasses.fields(EpochStats)}


class TestOneBatchPath:
    """The threaded prep-overlap layer is gone: its names are rejected, its
    environment variables are inert, and a training epoch starts no thread."""

    def test_prefetch_engine_rejected_naming_the_survivors(self):
        with pytest.raises(ValueError, match="'sync' is the only") as info:
            TaserConfig(batch_engine="prefetch")
        assert "aot" not in str(info.value)

    def test_removed_options_are_type_errors(self, engine_graph):
        from repro.serve import ServeEngine
        with pytest.raises(TypeError):
            TaserConfig(prep_pool_workers=1)
        trainer = TaserTrainer(engine_graph, engine_config(
            backbone="graphmixer", adaptive_minibatch=False,
            adaptive_neighbor=False))
        with pytest.raises(TypeError):
            ServeEngine(trainer.graph, trainer.backbone, trainer.predictor,
                        prep_cache_mb=1)

    def test_prep_env_vars_do_not_change_the_trajectory(self, engine_graph,
                                                        monkeypatch):
        def trajectory_hash():
            # TGAT's default uniform policy draws in every hop, so a second
            # RNG protocol could not hide.
            trainer = TaserTrainer(engine_graph, engine_config(
                backbone="tgat", adaptive_minibatch=False,
                adaptive_neighbor=False))
            losses = [trainer.train_epoch().batch_losses for _ in range(2)]
            return loss_trajectory_hash(
                losses + [[trainer.evaluate("test")["mrr"]]])

        monkeypatch.delenv("REPRO_PREP_POOL", raising=False)
        monkeypatch.delenv("REPRO_PREP_CACHE_MB", raising=False)
        unset = trajectory_hash()
        monkeypatch.setenv("REPRO_PREP_POOL", "2")
        monkeypatch.setenv("REPRO_PREP_CACHE_MB", "64")
        assert trajectory_hash() == unset

    @pytest.mark.parametrize("mode", ["sync"])
    def test_train_epoch_starts_no_thread(self, engine_graph, mode):
        trainer = TaserTrainer(engine_graph, engine_config(
            backbone="graphmixer", adaptive_minibatch=False,
            adaptive_neighbor=False, batch_engine=mode))
        before = threading.active_count()
        trainer.train_epoch()
        assert threading.active_count() == before


class TestVectorisedPlan:
    """The block-centric finder's vectorised recent-policy kernel must equal
    the per-query finder bit-for-bit (the finder oracle)."""

    @pytest.fixture(scope="class")
    def plan_graph(self):
        return generate_ctdg(CTDGConfig(num_src=30, num_dst=20, num_events=900,
                                        num_communities=3, edge_dim=6, seed=5))

    def test_vectorised_recent_equals_original_finder(self, plan_graph):
        tcsr = build_tcsr(plan_graph)
        rng = np.random.default_rng(3)
        idx = rng.integers(0, plan_graph.num_edges, 300)
        nodes, times = plan_graph.src[idx], plan_graph.ts[idx]
        reference = OriginalNeighborFinder(tcsr, policy="recent").sample(
            nodes, times, 7)
        vectorised = GPUNeighborFinder(tcsr, policy="recent").sample(
            nodes, times, 7)
        assert np.array_equal(reference.nodes, vectorised.nodes)
        assert np.array_equal(reference.eids, vectorised.eids)
        assert np.array_equal(reference.times, vectorised.times)
        assert np.array_equal(reference.mask, vectorised.mask)


class TestEmptyNeighborhoods:
    """Regression tests: roots with no past interactions must flow through
    the whole pipeline as fully-masked sentinel rows (ISSUE satellite)."""

    def test_original_finder_empty_rows_fully_masked(self, engine_graph):
        tcsr = build_tcsr(engine_graph)
        finder = OriginalNeighborFinder(tcsr, policy="recent")
        # Query at (and before) the first event: nothing is in the past.
        t0 = float(engine_graph.ts.min())
        nodes = np.arange(5, dtype=np.int64)
        batch = finder.sample(nodes, np.full(5, t0), 4)
        assert not batch.mask.any()
        batch.check_padding()  # sentinel contract

    def test_check_padding_catches_violations(self):
        from repro.sampling import NeighborBatch
        bad = NeighborBatch(
            root_nodes=np.array([0]), root_times=np.array([10.0]),
            nodes=np.array([[7]]), eids=np.array([[0]]),
            times=np.array([[0.0]]), mask=np.array([[False]]))
        with pytest.raises(ValueError):
            bad.check_padding()

    def test_empty_neighborhood_minibatch_trains(self, engine_graph):
        """A batch whose first chronological edges have empty neighborhoods
        must produce zeroed (mask-respected) features and a finite loss."""
        trainer = TaserTrainer(engine_graph, engine_config(
            backbone="graphmixer", adaptive_minibatch=False,
            adaptive_neighbor=False, batch_size=8))
        # The very first training batch contains the earliest edges, whose
        # sources have no history at all.
        prepared = trainer.prep.prepare_train(np.arange(8))
        hop = prepared.minibatch.hops[0]
        empty_rows = ~hop.batch.mask.any(axis=1)
        assert empty_rows.any(), "expected some empty neighborhoods at t ~ 0"
        # Mask respected downstream: sliced features of padded slots are zero.
        if hop.edge_feat is not None:
            assert not hop.edge_feat[~hop.batch.mask].any()
        if hop.neigh_node_feat is not None:
            assert not hop.neigh_node_feat[~hop.batch.mask].any()
        stats = trainer._train_prepared(prepared)
        assert np.isfinite(stats["model_loss"])

    def test_feature_store_does_not_account_padded_slots(self, engine_graph):
        trainer = TaserTrainer(engine_graph, engine_config(
            adaptive_minibatch=False, adaptive_neighbor=False))
        store = trainer.feature_store
        store.reset_stats()
        eids = np.zeros((3, 4), dtype=np.int64)
        mask = np.zeros((3, 4), dtype=bool)
        feats = store.slice_edge_features(eids, mask)
        assert not feats.any()
        assert store.stats.bytes_from_vram == 0
        assert store.stats.bytes_from_ram == 0
        assert store.stats.cache_hits == 0 and store.stats.cache_misses == 0
