"""Integration tests: full TASER training loops on tiny synthetic graphs.

These exercise the complete pipeline of Algorithm 1 — graph generation,
T-CSR, neighbor finding, feature slicing through the simulated cache,
adaptive mini-batch selection, adaptive neighbor sampling, TGNN training and
MRR evaluation — at a scale that runs in a few seconds per test.
"""

import dataclasses
import inspect
import pathlib
import re

import numpy as np
import pytest

import repro
from repro.core import TaserConfig, TaserTrainer
from repro.graph import CTDGConfig, generate_ctdg, chronological_split


def tiny_config(**overrides):
    base = dict(hidden_dim=8, time_dim=4, num_neighbors=4, num_candidates=8,
                batch_size=64, epochs=1, max_batches_per_epoch=4,
                eval_max_edges=40, eval_negatives=10, lr=1e-3, dropout=0.0)
    base.update(overrides)
    return TaserConfig(**base)


@pytest.fixture(scope="module")
def train_graph():
    return generate_ctdg(CTDGConfig(num_src=40, num_dst=25, num_events=1500,
                                    num_communities=4, edge_dim=8, seed=21,
                                    noise_prob=0.15, repeat_prob=0.4))


class TestConfig:
    def test_variant_names(self):
        assert tiny_config(adaptive_minibatch=False, adaptive_neighbor=False
                           ).variant_name() == "Baseline"
        assert tiny_config(adaptive_minibatch=True, adaptive_neighbor=False
                           ).variant_name() == "w/ Ada. Mini-Batch"
        assert tiny_config(adaptive_minibatch=False, adaptive_neighbor=True
                           ).variant_name() == "w/ Ada. Neighbor"
        assert tiny_config().variant_name() == "TASER"

    def test_layer_count_by_backbone(self):
        assert tiny_config(backbone="tgat").num_layers == 2
        assert tiny_config(backbone="graphmixer").num_layers == 1

    def test_finder_policy_defaults(self):
        assert tiny_config(backbone="tgat").resolved_finder_policy == "uniform"
        assert tiny_config(backbone="graphmixer").resolved_finder_policy == "recent"
        assert tiny_config(finder_policy="recent").resolved_finder_policy == "recent"

    def test_tgl_finder_incompatible_with_adaptive_minibatch(self):
        with pytest.raises(ValueError):
            tiny_config(finder="tgl", adaptive_minibatch=True)
        # but fine for the chronological baseline
        tiny_config(finder="tgl", adaptive_minibatch=False)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            tiny_config(backbone="tgn")
        with pytest.raises(ValueError):
            tiny_config(num_candidates=2, num_neighbors=5)
        with pytest.raises(ValueError):
            tiny_config(cache_ratio=1.5)

    def test_no_dead_options(self):
        """Every field is read as ``cfg.<name>`` / ``config.<name>`` somewhere
        under ``src/repro``, or through a ``resolved_<name>`` property that
        is; a field only its own validation touches configures nothing."""
        code = "\n".join(p.read_text() for p in
                         sorted(pathlib.Path(repro.__file__).parent.rglob("*.py")))

        def read(name):
            return re.search(rf"\b(?:cfg|config)\.{name}\b", code) is not None

        def read_resolved(name):
            prop = getattr(TaserConfig, f"resolved_{name}", None)
            return (prop is not None and read(f"resolved_{name}")
                    and f"self.{name}" in inspect.getsource(prop.fget))

        dead = [f.name for f in dataclasses.fields(TaserConfig)
                if not (read(f.name) or read_resolved(f.name))]
        assert dead == []


class TestTrainingVariants:
    @pytest.mark.parametrize("backbone", ["graphmixer", "tgat"])
    def test_baseline_epoch_runs_and_loss_finite(self, train_graph, backbone):
        cfg = tiny_config(backbone=backbone, adaptive_minibatch=False,
                          adaptive_neighbor=False)
        trainer = TaserTrainer(train_graph, cfg)
        stats = trainer.train_epoch()
        assert np.isfinite(stats.model_loss)
        assert stats.runtime["PP"] > 0
        assert "AS" not in stats.runtime or stats.runtime["AS"] == 0

    def test_full_taser_epoch(self, train_graph):
        cfg = tiny_config(backbone="graphmixer")
        trainer = TaserTrainer(train_graph, cfg)
        stats = trainer.train_epoch()
        assert np.isfinite(stats.model_loss)
        assert stats.runtime["AS"] > 0
        # importance scores of used edges changed away from the uniform init
        assert np.any(trainer.selector.scores != 1.0)

    def test_loss_decreases_over_epochs(self, train_graph):
        cfg = tiny_config(backbone="graphmixer", adaptive_minibatch=False,
                          adaptive_neighbor=False, epochs=4,
                          max_batches_per_epoch=6, lr=3e-3)
        trainer = TaserTrainer(train_graph, cfg)
        losses = [trainer.train_epoch().model_loss for _ in range(4)]
        assert losses[-1] < losses[0]

    def test_sampler_parameters_change(self, train_graph):
        cfg = tiny_config(backbone="graphmixer", adaptive_minibatch=False,
                          adaptive_neighbor=True, sampler_lr=1e-2)
        trainer = TaserTrainer(train_graph, cfg)
        before = {k: v.copy() for k, v in trainer.sampler.state_dict().items()}
        trainer.train_epoch()
        after = trainer.sampler.state_dict()
        assert any(not np.allclose(before[k], after[k]) for k in before)

    def test_evaluation_report(self, train_graph):
        cfg = tiny_config(backbone="graphmixer")
        trainer = TaserTrainer(train_graph, cfg)
        trainer.train_epoch()
        report = trainer.evaluate("val")
        assert 0.0 <= report["mrr"] <= 1.0
        assert report["hits@10"] >= report["hits@1"]

    def test_fit_returns_result(self, train_graph):
        cfg = tiny_config(backbone="graphmixer", epochs=2)
        trainer = TaserTrainer(train_graph, cfg)
        result = trainer.fit()
        assert result.variant == "TASER"
        assert len(result.history) == 2
        assert {"NF", "FS", "AS", "PP"} <= set(result.runtime_breakdown)
        assert 0.0 <= result.test_mrr <= 1.0

    def test_cache_integrated(self, train_graph):
        cfg = tiny_config(backbone="graphmixer", cache_ratio=0.3, epochs=2)
        trainer = TaserTrainer(train_graph, cfg)
        result = trainer.fit(evaluate_val=False, evaluate_test=False)
        assert trainer.cache is not None
        assert len(result.cache_hit_rates) == 2
        assert all(0.0 <= r <= 1.0 for r in result.cache_hit_rates)

    def test_no_cache_when_ratio_zero(self, train_graph):
        cfg = tiny_config(cache_ratio=0.0)
        trainer = TaserTrainer(train_graph, cfg)
        assert trainer.cache is None

    def test_chronological_baseline_with_tgl_finder(self, train_graph):
        cfg = tiny_config(backbone="graphmixer", adaptive_minibatch=False,
                          adaptive_neighbor=False, finder="tgl")
        trainer = TaserTrainer(train_graph, cfg)
        stats = trainer.train_epoch()
        assert np.isfinite(stats.model_loss)
        # second epoch must reset the pointer array and work again
        stats2 = trainer.train_epoch()
        assert np.isfinite(stats2.model_loss)

    def test_original_finder_variant(self, train_graph):
        cfg = tiny_config(backbone="graphmixer", adaptive_minibatch=False,
                          adaptive_neighbor=False, finder="original",
                          max_batches_per_epoch=2)
        trainer = TaserTrainer(train_graph, cfg)
        assert np.isfinite(trainer.train_epoch().model_loss)

    def test_deterministic_with_same_seed(self, train_graph):
        cfg = tiny_config(backbone="graphmixer", seed=33, dropout=0.0)
        a = TaserTrainer(train_graph, cfg).train_epoch().model_loss
        b = TaserTrainer(train_graph, cfg).train_epoch().model_loss
        assert a == pytest.approx(b, rel=1e-9)

    def test_node_featured_graph(self):
        g = generate_ctdg(CTDGConfig(num_src=30, num_dst=0, bipartite=False,
                                     num_events=800, edge_dim=6, node_dim=6, seed=9))
        cfg = tiny_config(backbone="tgat", max_batches_per_epoch=2)
        trainer = TaserTrainer(g, cfg)
        assert np.isfinite(trainer.train_epoch().model_loss)

    def test_explicit_split_respected(self, train_graph):
        split = chronological_split(train_graph, 0.5, 0.25)
        cfg = tiny_config(adaptive_minibatch=False, adaptive_neighbor=False)
        trainer = TaserTrainer(train_graph, cfg, split=split)
        assert trainer.split.num_train == split.num_train

    def test_tgat_analytic_sample_loss_path(self, train_graph):
        cfg = tiny_config(backbone="tgat", sample_loss="tgat_analytic",
                          max_batches_per_epoch=2)
        trainer = TaserTrainer(train_graph, cfg)
        stats = trainer.train_epoch()
        assert np.isfinite(stats.sample_loss)
