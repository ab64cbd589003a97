"""Tests for ranking metrics, negative sampling and chunk-invariant scoring."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import TaserConfig, TaserTrainer
from repro.core.streaming import StreamingTrainer, split_warmup
from repro.eval import evaluator as evaluator_mod
from repro.eval import (reciprocal_ranks, mrr, hits_at_k, ranking_report,
                        destination_pool, NegativeSampler)
from repro.graph import CTDGConfig, generate_ctdg


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


# ---------------------------------------------------------------------------
# chunk-invariant scoring: one negatives matrix per call, one scoring loop
# ---------------------------------------------------------------------------

SCORING_VARIANTS = {
    # ``recent`` candidates: the uniform finder policy draws per scoring
    # forward, so its candidates (not the negatives) depend on the chunking.
    "tgat+adaptive": dict(backbone="tgat", adaptive_minibatch=True,
                          adaptive_neighbor=True, finder_policy="recent"),
    "graphmixer": dict(backbone="graphmixer", adaptive_minibatch=False,
                       adaptive_neighbor=False),
}


def _scoring_config(variant, **extra):
    return TaserConfig(hidden_dim=8, time_dim=4, num_neighbors=3,
                       num_candidates=6, batch_size=64, dropout=0.0,
                       max_batches_per_epoch=2, eval_max_edges=23,
                       eval_negatives=9, seed=0,
                       **{**SCORING_VARIANTS[variant], **extra})


@pytest.mark.parametrize("variant", sorted(SCORING_VARIANTS))
def test_evaluate_is_invariant_to_batch_edges(small_graph, variant, monkeypatch):
    trainer = TaserTrainer(small_graph, _scoring_config(variant))
    trainer.train_epoch()

    drawn = []
    real = evaluator_mod.score_link_queries

    def recording(prep, backbone, predictor, src, dst, ts, negatives, batch_edges):
        drawn.append(negatives.copy())
        return real(prep, backbone, predictor, src, dst, ts, negatives, batch_edges)
    monkeypatch.setattr(evaluator_mod, "score_link_queries", recording)

    chunks = []
    prepare_eval = trainer.prep.prepare_eval
    monkeypatch.setattr(
        trainer.prep, "prepare_eval",
        lambda src, *rest: chunks.append(src.size) or prepare_eval(src, *rest))

    reports = [trainer.evaluate("test", batch_edges=be) for be in (None, 1, 7, 50)]
    assert all(np.array_equal(drawn[0], other) for other in drawn[1:])
    assert drawn[0].shape == (23, 9)
    assert chunks == [23] + [1] * 23 + [7, 7, 7, 2] + [23]
    # No knob: by default a forward holds at most SCORING_CHUNK_ROOTS roots
    # (src + dst + 9 negatives per edge), and never less than one edge.
    for roots, expected in ((40, [3] * 7 + [2]), (5, [1] * 23)):
        del chunks[:]
        monkeypatch.setattr(evaluator_mod, "SCORING_CHUNK_ROOTS", roots)
        reports.append(trainer.evaluate("test"))
        assert chunks == expected
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


@pytest.mark.parametrize("variant", sorted(SCORING_VARIANTS))
def test_prequential_eval_is_invariant_to_batch_edges(small_graph, variant):
    values = []
    for batch_edges in (None, 1, 7, 50):
        warm, stream = split_warmup(small_graph, warmup_events=800, chunk_size=40)
        trainer = StreamingTrainer(
            warm, _scoring_config(variant, adaptive_minibatch=False),
            window_events=200)
        values.append(trainer.prequential_eval(next(iter(stream)),
                                               batch_edges=batch_edges))
    assert np.isfinite(values[0])
    assert all(abs(v - values[0]) <= 1e-9 for v in values[1:]), values
