"""Tests for the mini-batch engines (sync | aot).

The engines' acceptance bar is *bitwise determinism*: under a fixed seed the
AOT path must produce identical batches — and therefore identical per-batch
losses and MRR — to the synchronous reference path.
"""

import threading

import numpy as np
import pytest

from repro.bench.breakdown import loss_trajectory_hash
from repro.core import (AOTBatchEngine, BatchEngine, TaserConfig, TaserTrainer,
                        make_engine, plan_capability)
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
    # (label, overrides): covers full / first_hop / fallback capabilities
    # across backbones (1- and 2-layer) and all three finders.
    ("baseline-graphmixer", dict(backbone="graphmixer", adaptive_minibatch=False,
                                 adaptive_neighbor=False)),
    ("baseline-tgat", dict(backbone="tgat", adaptive_minibatch=False,
                           adaptive_neighbor=False)),
    # 2-layer vectorised AOT plan (deterministic policy across both hops).
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
    @pytest.mark.parametrize("mode", ["aot"])
    @pytest.mark.parametrize("label,overrides",
                             VARIANT_MATRIX, ids=[v[0] for v in VARIANT_MATRIX])
    def test_identical_losses_and_mrr_vs_sync(self, engine_graph, mode, label,
                                              overrides):
        sync_losses, sync_mrr, _ = run_epochs(engine_graph, batch_engine="sync",
                                              **overrides)
        losses, mrr, trainer = run_epochs(engine_graph, batch_engine=mode,
                                          **overrides)
        assert losses == sync_losses, \
            f"{mode} diverged from sync on {label} " \
            f"(effective mode {trainer.engine.effective_mode})"
        assert mrr == sync_mrr
        assert len(sync_losses) > 0

    def test_aot_plan_chunking_does_not_change_results(self, engine_graph,
                                                       monkeypatch):
        kw = dict(backbone="tgat", finder_policy="recent",
                  adaptive_minibatch=False, adaptive_neighbor=False)
        sync_losses, sync_mrr, _ = run_epochs(engine_graph, batch_engine="sync",
                                              **kw)
        # Force multiple planning chunks per epoch (6 batches / chunk of 2).
        monkeypatch.setattr(AOTBatchEngine, "plan_chunk", 2)
        losses, mrr, trainer = run_epochs(engine_graph, batch_engine="aot", **kw)
        assert trainer.engine.vectorised
        assert losses == sync_losses
        assert mrr == sync_mrr


class TestCapability:
    def test_capability_matrix(self, engine_graph):
        def cap(**kw):
            trainer = TaserTrainer(engine_graph, engine_config(**kw))
            return plan_capability(trainer.config, trainer.finder)

        assert cap(adaptive_minibatch=False, adaptive_neighbor=False) == "full"
        # Deterministic policy + stateless finder: hop 1 is plannable.
        assert cap(backbone="graphmixer", adaptive_minibatch=False,
                   adaptive_neighbor=True) == "first_hop"
        assert cap(backbone="tgat", finder_policy="recent",
                   adaptive_minibatch=False, adaptive_neighbor=True) == "first_hop"
        # Stochastic policy: nothing a plan could answer without drawing.
        assert cap(backbone="tgat", adaptive_minibatch=False,
                   adaptive_neighbor=True) == "none"
        assert cap(backbone="graphmixer", finder_policy="uniform",
                   adaptive_minibatch=False, adaptive_neighbor=True) == "none"
        # Stateful (pointer-array) finder: hop 1 cannot leave its sight.
        assert cap(backbone="graphmixer", finder="tgl",
                   adaptive_minibatch=False, adaptive_neighbor=True) == "none"
        # Adaptive mini-batch selection: the schedule itself is feedback-driven.
        assert cap(adaptive_minibatch=True, adaptive_neighbor=False) == "none"

    def test_effective_mode_reports_fallback(self, engine_graph):
        trainer = TaserTrainer(engine_graph, engine_config(
            batch_engine="aot", adaptive_minibatch=True))
        assert trainer.engine.mode == "aot"
        assert trainer.engine.effective_mode == "sync"
        assert trainer.engine.is_fallback
        stats = trainer.train_epoch()
        assert stats.engine_mode == "sync"
        assert np.isfinite(stats.model_loss)
        # A stochastic policy has no plan either, even at capability "full".
        uniform = TaserTrainer(engine_graph, engine_config(
            backbone="tgat", batch_engine="aot", adaptive_minibatch=False,
            adaptive_neighbor=False))
        assert uniform.engine.capability == "full"
        assert uniform.engine.effective_mode == "sync"

    def test_make_engine_selects_class(self, engine_graph):
        trainer = TaserTrainer(engine_graph, engine_config())
        assert type(make_engine(trainer, "sync")) is BatchEngine
        assert isinstance(make_engine(trainer, "aot"), AOTBatchEngine)
        for unknown in ("prefetch", "warp"):
            with pytest.raises(ValueError):
                make_engine(trainer, unknown)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            engine_config(batch_engine="lazy")


class TestOneBatchPath:
    """The threaded prep-overlap layer is gone: its names are rejected, its
    environment variables are inert, and a training epoch starts no thread."""

    def test_prefetch_engine_rejected_naming_the_survivors(self):
        with pytest.raises(ValueError, match="'sync'.*'aot'"):
            TaserConfig(batch_engine="prefetch")

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

    @pytest.mark.parametrize("mode", ["sync", "aot"])
    def test_train_epoch_starts_no_thread(self, engine_graph, mode):
        trainer = TaserTrainer(engine_graph, engine_config(
            backbone="graphmixer", adaptive_minibatch=False,
            adaptive_neighbor=False, batch_engine=mode))
        before = threading.active_count()
        stats = trainer.train_epoch()
        assert stats.engine_mode == mode
        assert threading.active_count() == before


class TestTimings:
    def test_aot_phase_breakdown_recorded(self, engine_graph):
        _, _, trainer = run_epochs(engine_graph, epochs=1,
                                   backbone="graphmixer",
                                   adaptive_minibatch=False,
                                   adaptive_neighbor=False,
                                   batch_engine="aot")
        runtime = trainer.history[-1].runtime
        assert runtime["NF"] > 0
        assert runtime["FS"] > 0
        assert runtime["PP"] > 0
        assert trainer.history[-1].engine_mode == "aot"


class TestVectorisedPlan:
    """The AOT plan's vectorised recent-policy kernel must equal the
    per-query finders bit-for-bit (that is what makes the bypass legal)."""

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

    def test_aot_uses_vectorised_plan_only_for_recent(self, engine_graph):
        gm = TaserTrainer(engine_graph, engine_config(
            backbone="graphmixer", adaptive_minibatch=False,
            adaptive_neighbor=False, batch_engine="aot"))
        assert gm.engine.vectorised  # graphmixer resolves to 'recent'
        tgat = TaserTrainer(engine_graph, engine_config(
            backbone="tgat", adaptive_minibatch=False,
            adaptive_neighbor=False, batch_engine="aot"))
        assert not tgat.engine.vectorised  # 'uniform' has no plan: runs sync


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
