"""Tests for ranking metrics, negative sampling and level-wise scoring."""

import copy
import inspect
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import repro
from repro.core import TaserConfig, TaserTrainer
from repro.core import streaming as streaming_mod
from repro.core.streaming import StreamingTrainer, split_warmup
from repro.eval import evaluator as evaluator_mod
from repro.eval import (reciprocal_ranks, mrr, hits_at_k, ranking_report,
                        destination_pool, NegativeSampler)
from repro.graph import CTDGConfig, TemporalGraph, generate_ctdg
from repro.sampling import NeighborFinder


class TestMetrics:
    def test_perfect_ranking(self):
        pos = np.array([10.0, 10.0])
        neg = np.zeros((2, 5))
        assert mrr(pos, neg) == 1.0
        assert hits_at_k(pos, neg, 1) == 1.0

    def test_worst_ranking(self):
        pos = np.array([0.0])
        neg = np.full((1, 9), 5.0)
        assert mrr(pos, neg) == pytest.approx(0.1)
        assert hits_at_k(pos, neg, 1) == 0.0

    def test_middle_rank(self):
        pos = np.array([5.0])
        neg = np.array([[10.0, 1.0, 2.0, 3.0]])  # one negative above -> rank 2
        assert mrr(pos, neg) == pytest.approx(0.5)

    def test_ties_average(self):
        pos = np.array([5.0])
        neg = np.array([[5.0]])
        assert reciprocal_ranks(pos, neg)[0] == pytest.approx(1.0 / 1.5)

    def test_random_scores_expected_mrr(self):
        """For random scores against K=49 negatives, MRR ~ H(50)/50 ~ 0.09."""
        rng = np.random.default_rng(0)
        pos = rng.standard_normal(3000)
        neg = rng.standard_normal((3000, 49))
        value = mrr(pos, neg)
        expected = np.mean(1.0 / np.arange(1, 51))
        assert abs(value - expected) < 0.01

    def test_report_keys(self):
        report = ranking_report(np.array([1.0]), np.array([[0.0, 2.0]]))
        assert {"mrr", "hits@1", "hits@3", "hits@10"} == set(report)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            reciprocal_ranks(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            hits_at_k(np.zeros(2), np.zeros((2, 3)), 0)

    def test_a_score_that_is_not_finite_has_no_rank(self):
        """A NaN compares false with everything: unchecked, a NaN positive
        ranked first and a NaN negative was dropped (MRR 0.75 here)."""
        with pytest.raises(ValueError, match="2 of 6 scores are not finite"):
            ranking_report(np.array([np.nan, 0.1]), np.array([[0.5, 0.2], [0.5, np.nan]]))
        with pytest.raises(ValueError, match="1 of 3 scores are not finite"):
            reciprocal_ranks(np.array([0.3]), np.array([[np.inf, 0.2]]))


@settings(max_examples=25, deadline=None)
@given(arrays(np.float64, (7,), elements=st.floats(-5, 5)),
       arrays(np.float64, (7, 9), elements=st.floats(-5, 5)))
def test_property_mrr_bounds_and_monotonicity(pos, neg):
    value = mrr(pos, neg)
    assert 1.0 / 10 - 1e-12 <= value <= 1.0 + 1e-12
    # Increasing every positive score can never decrease the MRR.
    assert mrr(pos + 1.0, neg) >= value - 1e-12


class TestNegativeSampling:
    def test_bipartite_pool_is_destination_partition(self, small_graph):
        pool = destination_pool(small_graph)
        n_src = small_graph.meta["num_src"]
        assert pool.min() >= n_src
        assert pool.size == small_graph.meta["num_dst"]

    def test_unipartite_pool_observed_destinations(self):
        g = generate_ctdg(CTDGConfig(num_src=20, num_dst=0, bipartite=False,
                                     num_events=200, seed=0))
        pool = destination_pool(g)
        assert set(pool) == set(np.unique(g.dst))

    def test_exclusion(self, small_graph):
        sampler = NegativeSampler(small_graph, seed=0)
        exclude = np.full(500, int(destination_pool(small_graph)[0]))
        draws = sampler.sample(500, exclude=exclude)
        assert (draws == exclude).mean() < 0.05

    def test_matrix_shape(self, small_graph):
        sampler = NegativeSampler(small_graph, seed=0)
        mat = sampler.sample_matrix(8, 49, exclude=small_graph.dst[:8])
        assert mat.shape == (8, 49)
        pool = set(destination_pool(small_graph).tolist())
        assert set(mat.reshape(-1).tolist()) <= pool

    def test_determinism_by_seed(self, small_graph):
        a = NegativeSampler(small_graph, seed=5).sample(100)
        b = NegativeSampler(small_graph, seed=5).sample(100)
        assert np.array_equal(a, b)

    @staticmethod
    def pool_graph(destinations):
        """A log whose destination pool is ``destinations`` (not bipartite)."""
        dst = np.asarray(destinations)
        return TemporalGraph(src=np.zeros(dst.size, dtype=np.int64), dst=dst,
                             ts=np.arange(dst.size, dtype=np.float64),
                             num_nodes=int(dst.max()) + 1)

    def test_no_negative_equals_its_positive(self):
        """On a two-destination pool half the draws clash each round, so
        about ten of 20 000 outlast the redraw rounds; each of them takes
        the other destination."""
        sampler = NegativeSampler(self.pool_graph([1, 2]), seed=0)
        draws = sampler.sample(20000, exclude=np.full(20000, 2))
        assert (draws == 1).all()

    def test_a_leftover_clash_draws_uniformly_from_the_rest_of_the_pool(
            self, monkeypatch):
        """With no redraw round every clash takes the fallback: a uniform
        draw from the pool without its positive, at either end of the pool
        or inside it."""
        monkeypatch.setattr(NegativeSampler, "REDRAW_ROUNDS", 0)
        pool = np.array([3, 5, 6, 9])
        sampler = NegativeSampler(self.pool_graph(pool), seed=0)
        exclude = np.repeat(pool, 20000)
        draws = sampler.sample(exclude.size, exclude=exclude)
        assert np.isin(draws, pool).all() and not (draws == exclude).any()
        for positive in pool:
            mine = draws[exclude == positive]
            shares = np.array([(mine == other).mean() for other in pool
                               if other != positive])
            assert np.abs(shares - 1 / 3).max() < 0.02, (positive, shares)

    def test_converged_rounds_draw_as_the_redraw_loop(self, small_graph):
        """When the redraw rounds leave no clash the fallback draws nothing,
        so the stream is the plain redraw loop's."""
        exclude = np.repeat(destination_pool(small_graph)[:4], 500)
        draws = NegativeSampler(small_graph, seed=3).sample(exclude.size, exclude)
        rng = np.random.default_rng(3)
        pool = destination_pool(small_graph)
        want = rng.choice(pool, size=exclude.size, replace=True)
        while (want == exclude).any():
            clash = want == exclude
            want[clash] = rng.choice(pool, size=int(clash.sum()), replace=True)
        assert np.array_equal(draws, want)


# ---------------------------------------------------------------------------
# level-wise scoring: one negatives matrix and one forward-only batch per call
# ---------------------------------------------------------------------------

SCORING_VARIANTS = {
    # ``recent`` candidates: the uniform finder policy draws per tile, so its
    # candidates (not the negatives) depend on the tiling.
    "tgat+adaptive": dict(backbone="tgat", adaptive_minibatch=True,
                          adaptive_neighbor=True, finder_policy="recent"),
    "graphmixer": dict(backbone="graphmixer", adaptive_minibatch=False,
                       adaptive_neighbor=False),
}

#: tile bounds that cut the 23-edge test call into many tiles, a few, one.
TILE_BOUNDS = (1, 7, 50, 10_000)


def _scoring_config(variant, **extra):
    return TaserConfig(hidden_dim=8, time_dim=4, num_neighbors=3,
                       num_candidates=6, batch_size=64, dropout=0.0,
                       max_batches_per_epoch=2, eval_max_edges=23,
                       eval_negatives=9, seed=0,
                       **{**SCORING_VARIANTS[variant], **extra})


def _capture_levels(monkeypatch, prep):
    """Record the forward-only batch of every scoring call through ``prep``."""
    built = []
    real = prep.prepare_eval

    def recording(*args, **kwargs):
        prepared = real(*args, **kwargs)
        built.append(prepared.minibatch)
        return prepared
    monkeypatch.setattr(prep, "prepare_eval", recording)
    return built


@pytest.mark.parametrize("variant", sorted(SCORING_VARIANTS))
def test_evaluate_is_invariant_to_the_tile_bound(small_graph, variant,
                                                 monkeypatch):
    trainer = TaserTrainer(small_graph, _scoring_config(variant))
    trainer.train_epoch()

    drawn = []
    real = evaluator_mod.score_link_queries

    def recording(prep, backbone, predictor, src, dst, ts, negatives, rng):
        drawn.append(negatives.copy())
        return real(prep, backbone, predictor, src, dst, ts, negatives, rng)
    monkeypatch.setattr(evaluator_mod, "score_link_queries", recording)

    reports = []
    for rows in TILE_BOUNDS:
        monkeypatch.setattr(evaluator_mod, "SCORING_TILE_ROWS", rows)
        reports.append(trainer.evaluate("test"))
    assert all(np.array_equal(drawn[0], other) for other in drawn[1:])
    assert drawn[0].shape == (23, 9)
    for report in reports[1:]:
        assert report.keys() == reports[0].keys()
        for key, value in reports[0].items():
            assert abs(report[key] - value) <= 1e-9, (key, report, reports[0])


class TestScoringDrawsItsOwnStream:
    """Under TGAT's default ``uniform`` finder policy every scoring forward
    draws candidates; those draws come from the evaluator's generator, never
    from the training finder's."""

    @staticmethod
    def _config():
        return TaserConfig(hidden_dim=8, time_dim=4, num_neighbors=3,
                           num_candidates=6, batch_size=64,
                           max_batches_per_epoch=3, eval_max_edges=23,
                           eval_negatives=9, seed=0)

    def test_evaluate_between_epochs_leaves_training_bitwise(self, small_graph):
        assert self._config().resolved_finder_policy == "uniform"
        losses = []
        for evaluate in (False, True):
            trainer = TaserTrainer(small_graph, self._config())
            trainer.train_epoch()
            if evaluate:
                trainer.evaluate("val")
            losses.append(trainer.train_epoch().batch_losses)
        assert losses[0] == losses[1]

    def test_back_to_back_evaluations_report_the_same(self, small_graph):
        trainer = TaserTrainer(small_graph, self._config())
        trainer.train_epoch()
        assert trainer.evaluate("test") == trainer.evaluate("test")


def test_finders_have_no_global_draw_swap():
    # Scoring threads pass their generator to ``sample``; an attribute swap
    # on the shared finder would race.
    assert not hasattr(NeighborFinder, "draws_from")


# ---------------------------------------------------------------------------
# scoring on every core: which thread runs a tile changes no bit
# ---------------------------------------------------------------------------

POOL_BASE = dict(hidden_dim=8, time_dim=4, num_neighbors=3, num_candidates=6,
                 batch_size=64, max_batches_per_epoch=2, eval_max_edges=23,
                 eval_negatives=9, seed=0)
POOL_VARIANTS = {
    "tgat+taser/uniform": dict(backbone="tgat", adaptive_minibatch=True,
                               adaptive_neighbor=True),
    "graphmixer/recent": dict(backbone="graphmixer", adaptive_minibatch=False,
                              adaptive_neighbor=False),
}
#: rows per tile that cut every level of the 23-edge call into several tiles.
POOL_TILE_ROWS = 16


@pytest.fixture
def small_tiles(monkeypatch):
    monkeypatch.setattr(evaluator_mod, "SCORING_TILE_ROWS", POOL_TILE_ROWS)


def _scores_at_pool_sizes(monkeypatch, module, run):
    """``run()``'s ``(pos, neg)`` scores at pool sizes 1, 2 and 3 (forced)
    and at the size derived for this host."""
    real_score, derived = module.score_link_queries, evaluator_mod._pool_size
    scores = []

    def capture(*args, **kwargs):
        scores.append(real_score(*args, **kwargs))
        return scores[-1]
    monkeypatch.setattr(module, "score_link_queries", capture)
    for size in (1, 2, 3, None):
        monkeypatch.setattr(evaluator_mod, "_pool_size", derived if size is None
                            else lambda chunks, size=size: size)
        run()
    assert len(scores) == 4
    return scores


def _assert_bitwise_equal(scores):
    for pos, neg in scores[1:]:
        assert np.array_equal(pos, scores[0][0])
        assert np.array_equal(neg, scores[0][1])


def _fail_on_a_helper(monkeypatch, generator, models):
    """Make the first tile a helper thread embeds raise while the caller's
    tile is still running; returns what the caller saw of the models'
    training flags when its tile finished."""
    monkeypatch.setattr(evaluator_mod, "_pool_size", lambda chunks: 2)
    both_started = threading.Barrier(2, timeout=30)
    helper_failed = threading.Event()
    caller_saw = []
    hop_tile = generator.hop_tile

    def failing(*args, **kwargs):
        both_started.wait()          # the caller and the helper hold a tile
        if threading.current_thread() is not threading.main_thread():
            helper_failed.set()
            raise RuntimeError("helper tile failed")
        assert helper_failed.wait(30)
        time.sleep(0.05)             # the caller's tile outlives the error
        caller_saw.append(tuple(model.training for model in models))
        return hop_tile(*args, **kwargs)
    monkeypatch.setattr(generator, "hop_tile", failing)
    return caller_saw


class TestScoringPool:
    @pytest.mark.parametrize("variant", sorted(POOL_VARIANTS))
    def test_pool_size_evaluate_bitwise_equal(self, small_graph, variant,
                                              monkeypatch, small_tiles):
        config = TaserConfig(**POOL_BASE, **POOL_VARIANTS[variant])
        assert config.resolved_finder_policy == variant.split("/")[1]
        trainer = TaserTrainer(small_graph, config)
        trainer.train_epoch()
        _assert_bitwise_equal(_scores_at_pool_sizes(
            monkeypatch, evaluator_mod, lambda: trainer.evaluate("test")))

    def test_pool_size_prequential_bitwise_equal(self, small_graph, monkeypatch,
                                                 small_tiles):
        config = TaserConfig(**POOL_BASE, backbone="tgat", adaptive_minibatch=False,
                             adaptive_neighbor=True)

        def run():
            warm, stream = split_warmup(small_graph, warmup_events=800,
                                        chunk_size=40)
            trainer = StreamingTrainer(warm, config, window_events=200)
            trainer.prequential_eval(next(iter(stream)))
        _assert_bitwise_equal(_scores_at_pool_sizes(monkeypatch, streaming_mod, run))

    def test_caller_generator_advances_one_draw_per_tile_per_level(
            self, small_graph, monkeypatch, small_tiles):
        trainer = TaserTrainer(small_graph, TaserConfig(
            **POOL_BASE, **POOL_VARIANTS["tgat+taser/uniform"]))
        evaluator = trainer.make_evaluator()
        built = _capture_levels(monkeypatch, trainer.prep)
        start = copy.deepcopy(evaluator.rng)
        evaluator.evaluate("test")
        (minibatch,) = built
        tiles = [-(-hop.num_targets // POOL_TILE_ROWS) for hop in minibatch.hops]
        assert len(tiles) == 2 and min(tiles) > 1
        start.bit_generator.advance(sum(tiles))
        assert evaluator.rng.bit_generator.state == start.bit_generator.state

    def test_finder_asked_each_distinct_query_once_per_call(
            self, small_graph, monkeypatch, small_tiles):
        """Every level is deduplicated over the whole call: the finder sees
        each distinct ``(node, t)`` of a level once, in whichever tile."""
        trainer = TaserTrainer(small_graph, TaserConfig(
            **POOL_BASE, **POOL_VARIANTS["tgat+taser/uniform"]))
        finder = trainer.prep.generator.finder
        asked = []
        sample = finder.sample

        def recording(nodes, times, *args, **kwargs):
            asked.append((nodes.copy(), times.copy()))
            return sample(nodes, times, *args, **kwargs)
        monkeypatch.setattr(finder, "sample", recording)
        built = _capture_levels(monkeypatch, trainer.prep)
        trainer.evaluate("test")
        (minibatch,) = built

        def pairs(nodes, times):
            return sorted(zip(nodes.tolist(), times.tolist()))
        levels = [pairs(hop.batch.root_nodes, hop.batch.root_times)
                  for hop in minibatch.hops]
        assert all(len(set(level)) == len(level) for level in levels)
        assert len(levels[0]) < minibatch.batch_size
        assert pairs(*map(np.concatenate, zip(*asked))) == sorted(
            levels[0] + levels[1])

    def test_helper_error_reaches_caller_after_every_chunk(self, small_graph,
                                                          monkeypatch,
                                                          small_tiles):
        trainer = TaserTrainer(small_graph, TaserConfig(
            **POOL_BASE, **POOL_VARIANTS["graphmixer/recent"]))
        models = (trainer.backbone, trainer.predictor)
        caller_saw = _fail_on_a_helper(monkeypatch, trainer.prep.generator,
                                       models)
        assert trainer.backbone.training
        with pytest.raises(RuntimeError, match="helper tile failed"):
            trainer.evaluate("test")
        # One tile each: no tile starts after the error, and train mode
        # came back only after the caller's tile had finished.
        assert caller_saw == [(False, False)]
        assert trainer.backbone.training and trainer.predictor.training

    def test_helper_error_in_prequential_eval_reaches_caller_after_every_tile(
            self, small_graph, monkeypatch, small_tiles):
        config = TaserConfig(**POOL_BASE, backbone="graphmixer",
                             adaptive_minibatch=False, adaptive_neighbor=False)
        warm, stream = split_warmup(small_graph, warmup_events=800, chunk_size=40)
        trainer = StreamingTrainer(warm, config, window_events=200)
        models = (trainer.backbone, trainer.predictor)
        caller_saw = _fail_on_a_helper(monkeypatch, trainer.prep.generator,
                                       models)
        assert trainer.backbone.training
        with pytest.raises(RuntimeError, match="helper tile failed"):
            trainer.prequential_eval(next(iter(stream)))
        assert caller_saw == [(False, False)]
        assert trainer.backbone.training and trainer.predictor.training


class TestOneScoringLoop:
    """Scoring has no edge chunks: ``batch_edges`` is gone everywhere."""

    def test_no_batch_edges_parameter(self):
        for function in (evaluator_mod.score_link_queries,
                         evaluator_mod.LinkPredictionEvaluator.__init__,
                         StreamingTrainer.prequential_eval):
            assert "batch_edges" not in inspect.signature(function).parameters
        assert not hasattr(evaluator_mod, "SCORING_CHUNK_ROOTS")

    def test_batch_edges_override_is_a_type_error(self, small_graph):
        trainer = TaserTrainer(small_graph, TaserConfig(**POOL_BASE))
        with pytest.raises(TypeError):
            trainer.evaluate("test", batch_edges=4)
        with pytest.raises(TypeError):
            trainer.make_evaluator(batch_edges=4)

    def test_prequential_batch_edges_is_a_type_error(self, small_graph):
        config = TaserConfig(**POOL_BASE, backbone="graphmixer",
                             adaptive_minibatch=False, adaptive_neighbor=False)
        warm, stream = split_warmup(small_graph, warmup_events=800, chunk_size=40)
        trainer = StreamingTrainer(warm, config, window_events=200)
        with pytest.raises(TypeError):
            trainer.prequential_eval(next(iter(stream)), batch_edges=4)


class TestScoringPoolSize:
    def test_derived_from_cpus_blas_threads_and_chunks(self, monkeypatch):
        def size(cpus, blas, chunks):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid: set(range(cpus)), raising=False)
            monkeypatch.setattr(evaluator_mod, "_BLAS_THREADS", blas)
            return evaluator_mod._pool_size(chunks)
        assert [size(4, 1, chunks) for chunks in (1, 3, 10)] == [1, 3, 4]
        assert size(4, 2, 10) == 2
        assert size(4, None, 10) == 1        # BLAS spread over every CPU
        assert size(1, 1, 10) == 1           # one CPU: no helper thread

    @pytest.mark.parametrize("numpy_first, seen", [(False, ["1", "1"]),
                                                   (True, ["None", "unset"])])
    def test_blas_pinned_at_import_unless_numpy_came_first(self, numpy_first,
                                                           seen):
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        code = (("import numpy; " if numpy_first else "")
                + "import os, repro; print(repro._BLAS_THREADS, "
                  "os.environ.get('OPENBLAS_NUM_THREADS', 'unset'))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.split() == seen


@pytest.mark.parametrize("variant", sorted(SCORING_VARIANTS))
def test_prequential_eval_is_invariant_to_the_tile_bound(small_graph, variant,
                                                         monkeypatch):
    values = []
    for rows in TILE_BOUNDS:
        monkeypatch.setattr(evaluator_mod, "SCORING_TILE_ROWS", rows)
        warm, stream = split_warmup(small_graph, warmup_events=800, chunk_size=40)
        trainer = StreamingTrainer(
            warm, _scoring_config(variant, adaptive_minibatch=False),
            window_events=200)
        values.append(trainer.prequential_eval(next(iter(stream))))
    assert np.isfinite(values[0])
    assert all(abs(v - values[0]) <= 1e-9 for v in values[1:]), values
