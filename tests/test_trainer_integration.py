"""Integration tests: full TASER training loops on tiny synthetic graphs.

These exercise the complete pipeline of Algorithm 1 — graph generation,
T-CSR, neighbor finding, feature slicing through the simulated cache,
adaptive mini-batch selection, adaptive neighbor sampling, TGNN training and
MRR evaluation — at a scale that runs in a few seconds per test.
"""

import ast
import dataclasses
import inspect
import pathlib
import re
import textwrap

import numpy as np
import pytest

import repro
from repro.bench import harness
from repro.bench.finders import OriginalNeighborFinder, use_finder
from repro.core import TaserConfig, TaserTrainer
from repro.core.sample_loss import SAMPLE_ALPHA, SAMPLE_BETA, build_sample_loss
from repro.core.trainer import GRAD_CLIP
from repro.eval.evaluator import score_link_queries
from repro.graph import CTDGConfig, generate_ctdg, chronological_split
from repro.optim import clip_grad_norm
from repro.tensor import Tensor
from repro.tensor import functional as F


def _field_is_read(name):
    """Whether the ``TaserConfig`` field ``name`` is read as ``cfg.<name>`` /
    ``config.<name>`` somewhere under ``src/repro``, or through a
    ``resolved_<name>`` property that is."""
    code = "\n".join(p.read_text() for p in
                     sorted(pathlib.Path(repro.__file__).parent.rglob("*.py")))

    def read(attr):
        return re.search(rf"\b(?:cfg|config)\.{attr}\b", code) is not None

    prop = getattr(TaserConfig, f"resolved_{name}", None)
    return read(name) or (prop is not None and read(f"resolved_{name}")
                          and f"self.{name}" in inspect.getsource(prop.fget))


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

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            tiny_config(backbone="tgn")
        with pytest.raises(ValueError):
            tiny_config(num_candidates=2, num_neighbors=5)
        with pytest.raises(ValueError):
            tiny_config(cache_ratio=1.5)
        # A model size of 0 used to surface deep in the model as a reshape
        # or division error; the config names the field instead.
        for name in ("hidden_dim", "num_neighbors"):
            with pytest.raises(ValueError, match=f"{name} must be >= 1"):
                tiny_config(**{name: 0})
        # A negative epoch count trained zero epochs and still reported a
        # test MRR.
        with pytest.raises(ValueError, match="epochs must be >= 0"):
            tiny_config(epochs=-3)
        # A cap of 0 trained zero batches (loss 0.0) or scored no edges (MRR
        # nan); a negative one failed inside numpy.
        for name in ("max_batches_per_epoch", "eval_max_edges"):
            for value in (0, -5):
                with pytest.raises(ValueError, match=f"{name} must be None or >= 1"):
                    tiny_config(**{name: value})

    def test_eval_negatives_below_one_rejected(self):
        # 0 negatives ranked every positive first (MRR 1.0); a negative count
        # failed inside numpy.
        for value in (0, -3):
            with pytest.raises(ValueError, match="eval_negatives must be >= 1"):
                tiny_config(eval_negatives=value)

    def test_no_dead_options(self):
        """Every field is read as ``cfg.<name>`` / ``config.<name>`` somewhere
        under ``src/repro``, or through a ``resolved_<name>`` property that
        is; a field only its own validation touches configures nothing."""
        dead = [f.name for f in dataclasses.fields(TaserConfig)
                if not _field_is_read(f.name)]
        # finder and batch_engine have one legal value each and reject every
        # other one; they stay only because the frozen
        # benchmarks/e2e/workloads.py passes them.
        assert dead == ["finder", "batch_engine"]

    def test_no_dead_bench_options(self):
        """Every key ``bench.harness.quick_config`` sets and every keyword
        ``variant_config`` hands it is a ``TaserConfig`` field the program
        reads (:meth:`test_no_dead_options`); a benchmark setting nothing
        reads would configure nothing, silently."""
        keys = set()
        for fn in (harness.quick_config, harness.variant_config):
            tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and \
                        getattr(node.func, "id", None) in ("dict", "quick_config"):
                    keys.update(k.arg for k in node.keywords if k.arg is not None)
        assert {"backbone", "hidden_dim", "adaptive_minibatch",
                "adaptive_neighbor"} <= keys
        fields = {f.name for f in dataclasses.fields(TaserConfig)}
        assert sorted(keys - fields) == []
        assert [key for key in sorted(keys) if not _field_is_read(key)] == []


def _old_order_step(trainer, prepared):
    """One step in the op order from before the two-half step: model
    backward, clip and step the model, selector update, then the sample-loss
    backward and the sampler step.  Returns the model and sample losses."""
    cfg, b = trainer.config, prepared.num_positives
    trainer.model_optimizer.zero_grad()
    trainer.sampler_optimizer.zero_grad()
    embeddings = trainer.backbone.embed(prepared.minibatch,
                                        trainer.generator.hop_tile)
    pos_logits = trainer.predictor(embeddings[:b], embeddings[b:2 * b])
    neg_logits = trainer.predictor(embeddings[:b], embeddings[2 * b:])
    model_loss = F.binary_cross_entropy_with_logits(pos_logits, Tensor.ones(b)) \
        + F.binary_cross_entropy_with_logits(neg_logits, Tensor.zeros(b))
    model_loss.backward()
    clip_grad_norm(trainer.model_optimizer.params, GRAD_CLIP)
    trainer.model_optimizer.step()
    trainer.selector.update(prepared.local_indices, pos_logits.data)
    attention = (trainer.backbone.last_layer_attention()
                 if cfg.sample_loss == "tgat_analytic" else None)
    sample_loss = build_sample_loss(
        cfg.sample_loss, prepared.minibatch.hops, b, embeddings,
        attention=attention, alpha=SAMPLE_ALPHA, beta=SAMPLE_BETA)
    sample_loss.backward()
    clip_grad_norm(trainer.sampler_optimizer.params, GRAD_CLIP)
    trainer.sampler_optimizer.step()
    return float(model_loss.data), float(sample_loss.data)


def _state_bytes(trainer):
    return {(name, key): value.tobytes()
            for name in ("backbone", "predictor", "sampler")
            for key, value in getattr(trainer, name).state_dict().items()}


@pytest.mark.parametrize("backbone,estimator", [
    ("tgat", "sensitivity"), ("tgat", "tgat_analytic"),
    ("graphmixer", "sensitivity"),
])
def test_two_half_step_matches_the_old_op_order(train_graph, backbone,
                                                estimator):
    """The sample loss reads no parameter or gradient that the model's clip
    and step touch, and the sampler's parameters are the model's disjoint
    complement, so backprop of the sample loss before the model step
    changes no bit: losses, sample losses and every parameter agree."""
    cfg = tiny_config(backbone=backbone, sample_loss=estimator)
    assert GRAD_CLIP > 0
    trainer, oracle = TaserTrainer(train_graph, cfg), TaserTrainer(train_graph, cfg)
    expected = []
    for _ in range(2):
        trainer._begin_epoch()
        for prepared in trainer.engine.epoch(cfg.max_batches_per_epoch):
            trainer._train_prepared(prepared)
        oracle._begin_epoch()
        for prepared in oracle.engine.epoch(cfg.max_batches_per_epoch):
            expected.append(_old_order_step(oracle, prepared))
        got = list(zip(trainer._batch_losses, trainer._sample_losses))
        assert got == expected[-len(got):]
    assert len(expected) == 2 * cfg.max_batches_per_epoch
    assert all(sample != 0.0 for _, sample in expected)
    assert _state_bytes(trainer) == _state_bytes(oracle)


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

    def test_fit_cache_hit_rates_exclude_evaluation(self, train_graph):
        """``cache_hit_rates`` are the epochs' own rates: the lookups of the
        evaluation between two fits do not count toward the second epoch."""
        cfg = tiny_config(backbone="graphmixer", cache_ratio=0.3, epochs=1)
        trainer = TaserTrainer(train_graph, cfg)
        trainer.fit()
        result = trainer.fit()
        assert result.cache_hit_rates == [s.cache_hit_rate
                                          for s in result.history]

    def test_fs_is_measured_and_simulated_seconds_stand_apart(self, train_graph):
        """The runtime holds the measured FS; the modelled transfer seconds
        stay in the feature store's accounting."""
        cfg = tiny_config(backbone="graphmixer", cache_ratio=0.3)
        trainer = TaserTrainer(train_graph, cfg)
        stats = trainer.train_epoch()
        assert stats.runtime["FS"] == trainer.timer.totals()["FS"]
        assert trainer.feature_store.snapshot().simulated_seconds > 0.0
        assert "FS_sim_seconds" not in stats.runtime

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_runtime_holds_measured_phases_only(self, train_graph, adaptive):
        """Every key of an epoch's runtime, and of ``fit``'s breakdown, is a
        measured phase: no modelled number sits beside NF / FS / AS / PP."""
        cfg = tiny_config(backbone="graphmixer", cache_ratio=0.3,
                          adaptive_minibatch=adaptive, adaptive_neighbor=adaptive)
        result = TaserTrainer(train_graph, cfg).fit()
        assert set(result.history[0].runtime) <= {"NF", "FS", "AS", "PP"}
        assert set(result.runtime_breakdown) <= {"NF", "FS", "AS", "PP"}

    def test_no_cache_when_ratio_zero(self, train_graph):
        cfg = tiny_config(cache_ratio=0.0)
        trainer = TaserTrainer(train_graph, cfg)
        assert trainer.cache is None

    def test_original_finder_variant(self, train_graph):
        cfg = tiny_config(backbone="graphmixer", adaptive_minibatch=False,
                          adaptive_neighbor=False, max_batches_per_epoch=2)
        trainer = TaserTrainer(train_graph, cfg)
        use_finder(trainer, OriginalNeighborFinder)
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


@pytest.mark.filterwarnings("error")
class TestAllDeadFrontier:
    """Every root precedes the graph's first event, so no root has a
    neighbor and every hop is fully masked: the documented recovery is a
    step on zero states, not a NumPy warning or a NaN."""

    @pytest.mark.parametrize("backbone", ["tgat", "graphmixer"])
    def test_step_and_scores_stay_finite(self, train_graph, backbone):
        trainer = TaserTrainer(train_graph, tiny_config(backbone=backbone))
        assert trainer.sampler is not None
        before = float(train_graph.ts.min()) - 1.0
        prep = trainer.prep
        prepared = prep.assemble_train(np.arange(32))
        prepared.times = np.full_like(prepared.times, before)
        prep.finish(prepared, prep.rng)
        assert not any(hop.batch.mask.any() for hop in prepared.minibatch.hops)

        trainer._begin_epoch()
        step = trainer._backward(prepared)
        trainer._apply(step)
        assert float(step.model_loss.data) == pytest.approx(2 * np.log(2), rel=1e-6)
        assert step.sampled and trainer._sample_losses == [0.0]
        params = trainer.model_optimizer.params + trainer.sampler_optimizer.params
        assert all(np.isfinite(p.data).all() for p in params)

        src, dst = train_graph.src[:5], train_graph.dst[:5]
        pos, neg = score_link_queries(prep, trainer.backbone, trainer.predictor,
                                      src, dst, np.full(5, before),
                                      np.tile(dst, (5, 1)), np.random.default_rng(0))
        assert np.isfinite(pos).all() and np.isfinite(neg).all()
