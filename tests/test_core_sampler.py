"""Tests for the adaptive neighbor sampler, sample losses and the pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (AdaptiveNeighborSampler, MiniBatchGenerator, TaserConfig,
                        sensitivity_sample_loss, tgat_analytic_sample_loss,
                        build_sample_loss)
from repro.device import FeatureStore
from repro.graph import build_tcsr
from repro.models import GraphMixer, TGAT
from repro.sampling import NeighborBatch, make_finder
from repro.tensor import Tensor


def candidates_for(graph, tcsr, m=8, count=60, seed=0):
    finder = make_finder("gpu", tcsr, policy="uniform", seed=seed)
    rng = np.random.default_rng(seed)
    idx = rng.integers(graph.num_edges // 2, graph.num_edges, count)
    cand = finder.sample(graph.src[idx], graph.ts[idx], m)
    efeat = graph.edge_feat[cand.eids].astype(np.float64) if graph.edge_feat is not None else None
    return cand, efeat


@pytest.mark.usefixtures("float64_compute")
class TestAdaptiveNeighborSampler:
    def test_probabilities_are_masked_distribution(self, small_graph, small_tcsr):
        cand, efeat = candidates_for(small_graph, small_tcsr)
        sampler = AdaptiveNeighborSampler(0, small_graph.edge_dim, 8, seed=0)
        probs = sampler.probabilities(cand, edge_feat=efeat)
        assert probs.shape == cand.nodes.shape
        rows_with_valid = cand.mask.any(axis=1)
        assert np.allclose(probs.data[rows_with_valid].sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(probs.data[~cand.mask], 0.0)

    def test_budget_mismatch_raises(self, small_graph, small_tcsr):
        cand, efeat = candidates_for(small_graph, small_tcsr, m=8)
        sampler = AdaptiveNeighborSampler(0, small_graph.edge_dim, 12, seed=0)
        with pytest.raises(ValueError):
            sampler.probabilities(cand, edge_feat=efeat)

    def test_selection_only_picks_valid_when_available(self, small_graph, small_tcsr):
        cand, efeat = candidates_for(small_graph, small_tcsr)
        sampler = AdaptiveNeighborSampler(0, small_graph.edge_dim, 8, seed=1)
        sel = sampler(cand, 4, edge_feat=efeat)
        assert sel.columns.shape == (cand.batch_size, 4)
        counts = cand.valid_counts()
        # every selected-and-valid column really is a valid candidate
        rows = np.arange(cand.batch_size)[:, None]
        assert np.all(cand.mask[rows, sel.columns][sel.mask])
        # number of valid selections == min(valid candidates, n)
        assert np.array_equal(sel.mask.sum(axis=1), np.minimum(counts, 4))

    def test_selected_columns_are_distinct(self, small_graph, small_tcsr):
        cand, efeat = candidates_for(small_graph, small_tcsr)
        sampler = AdaptiveNeighborSampler(0, small_graph.edge_dim, 8, seed=2)
        sel = sampler(cand, 5, edge_feat=efeat)
        for i in range(cand.batch_size):
            cols = sel.columns[i][sel.mask[i]]
            assert cols.size == np.unique(cols).size

    def test_greedy_selection_is_argmax(self, small_graph, small_tcsr):
        cand, efeat = candidates_for(small_graph, small_tcsr)
        sampler = AdaptiveNeighborSampler(0, small_graph.edge_dim, 8, seed=3)
        probs = sampler.probabilities(cand, edge_feat=efeat)
        sel = sampler.select(probs, cand.mask, 1, greedy=True)
        valid_rows = cand.mask.any(axis=1)
        masked = np.where(cand.mask, probs.data, -np.inf)
        assert np.array_equal(sel.columns[valid_rows, 0],
                              masked.argmax(axis=1)[valid_rows])

    def test_log_prob_gradients_reach_theta(self, small_graph, small_tcsr):
        cand, efeat = candidates_for(small_graph, small_tcsr)
        sampler = AdaptiveNeighborSampler(0, small_graph.edge_dim, 8, seed=4)
        sel = sampler(cand, 4, edge_feat=efeat)
        (sel.log_prob * Tensor(sel.mask.astype(float))).sum().backward()
        grads = [p.grad for p in sampler.parameters() if p.grad is not None]
        assert grads and any(np.any(g != 0) for g in grads)

    def test_encoding_switches_change_dimensionality(self, small_graph):
        base = AdaptiveNeighborSampler(0, small_graph.edge_dim, 8,
                                       use_frequency_encoding=True,
                                       use_identity_encoding=True, seed=0)
        lean = AdaptiveNeighborSampler(0, small_graph.edge_dim, 8,
                                       use_frequency_encoding=False,
                                       use_identity_encoding=False, seed=0)
        assert base.enc_dim > lean.enc_dim
        assert lean.enc_dim == lean.feat_dim + lean.time_dim

    def test_node_features_branch(self, featured_graph):
        tcsr = build_tcsr(featured_graph)
        cand, efeat = candidates_for(featured_graph, tcsr)
        nfeat = featured_graph.node_feat[cand.nodes].astype(np.float64)
        tfeat = featured_graph.node_feat[cand.root_nodes].astype(np.float64)
        sampler = AdaptiveNeighborSampler(featured_graph.node_dim,
                                          featured_graph.edge_dim, 8, seed=5)
        sel = sampler(cand, 3, edge_feat=efeat, neigh_node_feat=nfeat,
                      target_node_feat=tfeat)
        assert np.isfinite(sel.probabilities.data).all()

    @pytest.mark.parametrize("decoder", ["linear", "gat", "gatv2", "transformer"])
    def test_all_decoders_usable(self, small_graph, small_tcsr, decoder):
        cand, efeat = candidates_for(small_graph, small_tcsr)
        sampler = AdaptiveNeighborSampler(0, small_graph.edge_dim, 8,
                                          decoder=decoder, seed=6)
        sel = sampler(cand, 3, edge_feat=efeat)
        assert sel.columns.shape == (cand.batch_size, 3)


    @pytest.mark.parametrize("decoder", ["linear", "gat", "gatv2", "transformer"])
    def test_target_embedding_built_only_for_decoders_that_read_it(
            self, featured_graph, decoder):
        tcsr = build_tcsr(featured_graph)
        cand, efeat = candidates_for(featured_graph, tcsr)
        nfeat = featured_graph.node_feat[cand.nodes].astype(np.float64)
        tfeat = featured_graph.node_feat[cand.root_nodes].astype(np.float64)
        sampler = AdaptiveNeighborSampler(featured_graph.node_dim,
                                          featured_graph.edge_dim, 8,
                                          decoder=decoder, seed=6)
        z, z_target = sampler.encode(cand, efeat, nfeat, tfeat)
        assert (z_target is None) == (decoder == "linear")
        sampler.decoder.uses_target = True      # what encode always did before
        _, always = sampler.encode(cand, efeat, nfeat, tfeat)
        assert always.shape == (cand.batch_size, sampler.target_dim)
        mixed = sampler.mixer(z, mask=cand.mask)
        assert np.array_equal(sampler.decoder(mixed, z_target).data,
                              sampler.decoder(mixed, always).data)


# ---------------------------------------------------------------------------
# live-row sampling: forward() against the all-rows oracle
# ---------------------------------------------------------------------------

M, EDGE_DIM = 6, 5
LOG_FLOOR = np.log(1e-20)


def synthetic_candidates(seed, rows, pattern):
    """A padded candidate batch whose live rows follow ``pattern``."""
    rng = np.random.default_rng(seed)
    mask = rng.random((rows, M)) < 0.6
    if pattern == "all_dead":
        mask[:] = False
    elif pattern == "all_live":
        mask[:, 0] = True
    elif pattern == "one_live":
        mask[:] = False
        mask[rng.integers(rows), rng.integers(M)] = True
    else:
        mask[rng.random(rows) < 0.4] = False
    root_times = rng.uniform(50.0, 60.0, rows)
    cand = NeighborBatch(
        root_nodes=rng.integers(0, 9, rows), root_times=root_times,
        nodes=np.where(mask, rng.integers(1, 5, (rows, M)), 0),
        eids=np.where(mask, rng.integers(1, 99, (rows, M)), 0),
        times=np.where(mask, rng.uniform(1.0, 49.0, (rows, M)), 0.0), mask=mask)
    cand.check_padding()
    efeat = rng.standard_normal((rows, M, EDGE_DIM)) * mask[..., None]
    return cand, efeat


def all_rows_oracle(sampler, cand, budget, efeat, greedy):
    """Score and select over every row: what forward() did before it
    restricted itself to the live ones."""
    return sampler.select(sampler.probabilities(cand, edge_feat=efeat),
                          cand.mask, budget, greedy=greedy)


def parameter_grads(sampler, selection, coeff):
    sampler.zero_grad()
    (selection.log_prob * Tensor(coeff)).sum().backward()
    return [None if p.grad is None else p.grad.copy() for p in sampler.parameters()]


@pytest.mark.usefixtures("float64_compute")
class TestLiveRowSampling:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 9),
           st.sampled_from(["random", "all_dead", "all_live", "one_live"]),
           st.integers(1, M), st.booleans())
    def test_matches_all_rows_oracle(self, seed, rows, pattern, budget, greedy):
        cand, efeat = synthetic_candidates(seed, rows, pattern)
        sampler = AdaptiveNeighborSampler(0, EDGE_DIM, M, seed=seed % 7)
        oracle = AdaptiveNeighborSampler(0, EDGE_DIM, M, seed=seed % 7)
        got = sampler(cand, budget, edge_feat=efeat, greedy=greedy)
        want = all_rows_oracle(oracle, cand, budget, efeat, greedy)

        live = cand.mask.any(axis=1)
        assert np.array_equal(got.columns[live], want.columns[live])
        assert np.array_equal(got.mask, want.mask)
        np.testing.assert_allclose(got.log_prob.data, want.log_prob.data,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.probabilities.data, want.probabilities.data,
                                   rtol=0, atol=1e-12)
        # the selection stream is where the oracle left its own
        assert (sampler._select_rng.bit_generator.state
                == oracle._select_rng.bit_generator.state)
        # dead rows read exactly what the oracle gives them
        assert np.array_equal(got.columns[~live],
                              np.tile(np.arange(budget), ((~live).sum(), 1)))
        assert not got.mask[~live].any()
        assert np.all(got.log_prob.data[~live] == LOG_FLOOR)
        assert np.all(got.probabilities.data[~live] == 0.0)

        coeff = np.random.default_rng(seed).standard_normal((rows, budget))
        for mine, theirs in zip(parameter_grads(sampler, got, coeff),
                                parameter_grads(oracle, want, coeff)):
            if live.any():
                np.testing.assert_allclose(mine, theirs, rtol=0, atol=1e-12)
            else:
                # nothing reaches theta; the oracle back-propagates zeros
                assert mine is None and not theirs.any()

    def test_no_live_row_never_touches_the_encoder(self, small_graph, small_tcsr,
                                                   monkeypatch):
        """Queries at the very start of the timeline (the first serve flush on
        unseen nodes) have no history on any hop."""
        sampler = AdaptiveNeighborSampler(0, small_graph.edge_dim, 8, seed=0)
        monkeypatch.setattr(sampler, "encode", lambda *a, **k: pytest.fail(
            "encoder reached with no live row"))
        gen = MiniBatchGenerator(make_finder("gpu", small_tcsr),
                                 FeatureStore(small_graph), 2, 4, 8,
                                 adaptive_sampler=sampler)
        roots = small_graph.src[:20]
        times = np.full(20, small_graph.ts.min())
        for train in (False, True):
            mb = gen.build(roots, times, train=train)
            mb.check_invariants()
            for hop in mb.hops:
                assert not hop.batch.mask.any()
        hop = mb.hops[0]    # the training batch's: one row per root
        selection = sampler(hop.candidates, 4)
        assert selection.columns.shape == selection.mask.shape == (20, 4)
        assert selection.log_prob.shape == (20, 4)
        assert np.all(selection.log_prob.data == LOG_FLOOR)
        assert selection.probabilities.shape == (20, 8)
        with pytest.raises(ValueError):
            sampler(hop.candidates, 9)


class TestSampleLoss:
    def _training_minibatch(self, graph, tcsr, backbone="graphmixer", n=5, m=8):
        finder = make_finder("gpu", tcsr, policy="uniform", seed=0)
        store = FeatureStore(graph)
        sampler = AdaptiveNeighborSampler(graph.node_dim, graph.edge_dim, m, seed=0)
        layers = 2 if backbone == "tgat" else 1
        gen = MiniBatchGenerator(finder, store, layers, n, m, adaptive_sampler=sampler)
        rng = np.random.default_rng(0)
        idx = rng.integers(graph.num_edges // 2, graph.num_edges, 30)
        roots = np.concatenate([graph.src[idx], graph.dst[idx]])
        times = np.concatenate([graph.ts[idx], graph.ts[idx]])
        mb = gen.build(roots, times, train=True)
        if backbone == "tgat":
            model = TGAT(graph.node_dim, graph.edge_dim, hidden_dim=8, time_dim=4,
                         num_heads=1, dropout=0.0, rng=np.random.default_rng(1))
        else:
            model = GraphMixer(graph.node_dim, graph.edge_dim, hidden_dim=8, time_dim=4,
                               num_neighbors=n, dropout=0.0, rng=np.random.default_rng(1))
        emb = model.embed(mb)
        emb.sum().backward()
        return mb, emb, model, sampler

    def test_sensitivity_loss_trains_sampler(self, small_graph, small_tcsr):
        mb, emb, _, sampler = self._training_minibatch(small_graph, small_tcsr)
        loss = sensitivity_sample_loss(mb.hops, mb.batch_size)
        assert loss is not None
        loss.backward()
        grads = [p.grad for p in sampler.parameters() if p.grad is not None]
        assert grads and any(np.any(g != 0) for g in grads)

    def test_returns_none_without_adaptive_hops(self, small_graph, small_tcsr):
        finder = make_finder("gpu", small_tcsr, seed=0)
        gen = MiniBatchGenerator(finder, FeatureStore(small_graph), 1, 5, 5)
        idx = np.arange(800, 830)
        mb = gen.build(small_graph.src[idx], small_graph.ts[idx], train=True)
        assert sensitivity_sample_loss(mb.hops, mb.batch_size) is None

    def test_tgat_analytic_loss(self, small_graph, small_tcsr):
        mb, emb, model, sampler = self._training_minibatch(small_graph, small_tcsr,
                                                           backbone="tgat")
        loss = tgat_analytic_sample_loss(mb.hops, mb.batch_size, emb,
                                         model.last_layer_attention(),
                                         alpha=2.0, beta=1.0)
        assert loss is not None
        loss.backward()
        assert any(p.grad is not None for p in sampler.parameters())

    def test_build_sample_loss_dispatch(self, small_graph, small_tcsr):
        mb, emb, model, _ = self._training_minibatch(small_graph, small_tcsr)
        assert build_sample_loss("sensitivity", mb.hops, mb.batch_size, emb) is not None
        with pytest.raises(ValueError):
            build_sample_loss("reinforce++", mb.hops, mb.batch_size, emb)

    def test_alpha_validation(self, small_graph, small_tcsr):
        mb, emb, _, _ = self._training_minibatch(small_graph, small_tcsr)
        with pytest.raises(ValueError):
            sensitivity_sample_loss(mb.hops, mb.batch_size, alpha=0.0)


class TestMiniBatchGenerator:
    def test_baseline_budget_equals_n(self, small_graph, small_tcsr):
        gen = MiniBatchGenerator(make_finder("gpu", small_tcsr),
                                 FeatureStore(small_graph), 2, 5, 5)
        idx = np.arange(700, 740)
        mb = gen.build(small_graph.src[idx], small_graph.ts[idx])
        mb.check_invariants()
        assert mb.hops[0].budget == 5
        assert mb.hops[0].candidates is None
        assert mb.hops[0].log_prob is None

    def test_adaptive_selects_n_from_m(self, small_graph, small_tcsr):
        sampler = AdaptiveNeighborSampler(0, small_graph.edge_dim, 12, seed=0)
        gen = MiniBatchGenerator(make_finder("gpu", small_tcsr),
                                 FeatureStore(small_graph), 1, 5, 12,
                                 adaptive_sampler=sampler)
        idx = np.arange(700, 740)
        mb = gen.build(small_graph.src[idx], small_graph.ts[idx], train=True)
        hop = mb.hops[0]
        assert hop.budget == 5
        assert hop.candidates.budget == 12
        assert hop.log_prob is not None and hop.gate is not None
        # eval mode: no gates, no log-probs
        mb_eval = gen.build(small_graph.src[idx], small_graph.ts[idx], train=False)
        assert mb_eval.hops[0].gate is None and mb_eval.hops[0].log_prob is None

    def test_edge_features_align_with_selected_eids(self, small_graph, small_tcsr):
        sampler = AdaptiveNeighborSampler(0, small_graph.edge_dim, 10, seed=1)
        gen = MiniBatchGenerator(make_finder("gpu", small_tcsr),
                                 FeatureStore(small_graph), 1, 4, 10,
                                 adaptive_sampler=sampler)
        idx = np.arange(900, 950)
        mb = gen.build(small_graph.src[idx], small_graph.ts[idx], train=True)
        hop = mb.hops[0]
        expect = small_graph.edge_feat[hop.batch.eids]
        expect[~hop.batch.mask] = 0.0
        got = hop.edge_feat.copy()
        got[~hop.batch.mask] = 0.0
        assert np.allclose(got, expect)

    def test_timer_records_phases(self, small_graph, small_tcsr):
        from repro.utils import Timer
        timer = Timer()
        sampler = AdaptiveNeighborSampler(0, small_graph.edge_dim, 8, seed=0)
        gen = MiniBatchGenerator(make_finder("gpu", small_tcsr),
                                 FeatureStore(small_graph), 1, 4, 8,
                                 adaptive_sampler=sampler, timer=timer)
        idx = np.arange(700, 720)
        gen.build(small_graph.src[idx], small_graph.ts[idx], train=True)
        totals = timer.totals()
        assert {"NF", "FS", "AS"} <= set(totals)
        assert all(v >= 0 for v in totals.values())

    def test_validation(self, small_graph, small_tcsr):
        with pytest.raises(ValueError):
            MiniBatchGenerator(make_finder("gpu", small_tcsr),
                               FeatureStore(small_graph), 0, 5, 5)
        with pytest.raises(ValueError):
            MiniBatchGenerator(make_finder("gpu", small_tcsr),
                               FeatureStore(small_graph), 1, 5, 3)
