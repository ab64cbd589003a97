"""Tests for the adaptive neighbor sampler, sample losses and the pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (AdaptiveNeighborSampler, MiniBatchGenerator,
                        build_sample_loss)
from repro.core.decoders import LinearDecoder
from repro.core.neighbor_sampler import NeighborSelection
from repro.encoders import IdentityEncoder
from repro.device import FeatureStore
from repro.graph import build_tcsr
from repro.models import GraphMixer, TGAT
from repro.sampling import GPUNeighborFinder, NeighborBatch
from repro.tensor import Tensor, concatenate, gradcheck
from repro.tensor import functional as F
from repro.utils.tiles import Tiles


def candidates_for(graph, tcsr, m=8, count=60, seed=0):
    finder = GPUNeighborFinder(tcsr, policy="uniform")
    rng = np.random.default_rng(seed)
    idx = rng.integers(graph.num_edges // 2, graph.num_edges, count)
    cand = finder.sample(graph.src[idx], graph.ts[idx], m,
                         np.random.default_rng(seed))
    efeat = graph.edge_feat[cand.eids].astype(np.float64) if graph.edge_feat is not None else None
    return cand, efeat


@pytest.mark.usefixtures("float64_compute")
class TestAdaptiveNeighborSampler:
    def test_probabilities_are_masked_distribution(self, small_graph, small_tcsr):
        cand, efeat = candidates_for(small_graph, small_tcsr)
        sampler = AdaptiveNeighborSampler(0, small_graph.edge_dim, 8, seed=0)
        probs = sampler(cand, 4, edge_feat=efeat).probabilities
        assert probs.shape == cand.nodes.shape
        rows_with_valid = cand.mask.any(axis=1)
        assert np.allclose(probs[rows_with_valid].sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(probs[~cand.mask], 0.0)

    def test_budget_mismatch_raises(self, small_graph, small_tcsr):
        cand, efeat = candidates_for(small_graph, small_tcsr, m=8)
        sampler = AdaptiveNeighborSampler(0, small_graph.edge_dim, 12, seed=0)
        with pytest.raises(ValueError):
            sampler(cand, 4, edge_feat=efeat)

    @pytest.mark.parametrize("temperature", [0.0, -1.0])
    def test_non_positive_temperature_rejected(self, small_graph, temperature):
        with pytest.raises(ValueError, match="temperature"):
            AdaptiveNeighborSampler(0, small_graph.edge_dim, 8, temperature=temperature)

    def test_selection_only_picks_valid_when_available(self, small_graph, small_tcsr):
        cand, efeat = candidates_for(small_graph, small_tcsr)
        sampler = AdaptiveNeighborSampler(0, small_graph.edge_dim, 8, seed=1)
        sel = sampler(cand, 4, edge_feat=efeat, rng=np.random.default_rng(1))
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
        sel = sampler(cand, 5, edge_feat=efeat, rng=np.random.default_rng(2))
        for i in range(cand.batch_size):
            cols = sel.columns[i][sel.mask[i]]
            assert cols.size == np.unique(cols).size

    def test_greedy_selection_is_argmax(self, small_graph, small_tcsr):
        cand, efeat = candidates_for(small_graph, small_tcsr)
        sampler = AdaptiveNeighborSampler(0, small_graph.edge_dim, 8, seed=3)
        sel = sampler(cand, 1, edge_feat=efeat)
        valid_rows = cand.mask.any(axis=1)
        masked = np.where(cand.mask, sel.probabilities, -np.inf)
        assert np.array_equal(sel.columns[valid_rows, 0],
                              masked.argmax(axis=1)[valid_rows])

    def test_log_prob_gradients_reach_theta(self, small_graph, small_tcsr):
        cand, efeat = candidates_for(small_graph, small_tcsr)
        sampler = AdaptiveNeighborSampler(0, small_graph.edge_dim, 8, seed=4)
        sel = sampler(cand, 4, edge_feat=efeat, rng=np.random.default_rng(4))
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
        assert base.live_channels == lean.live_channels == lean.feat_dim

    def test_node_features_branch(self, featured_graph):
        tcsr = build_tcsr(featured_graph)
        cand, efeat = candidates_for(featured_graph, tcsr)
        nfeat = featured_graph.node_feat[cand.nodes].astype(np.float64)
        tfeat = featured_graph.node_feat[cand.root_nodes].astype(np.float64)
        sampler = AdaptiveNeighborSampler(featured_graph.node_dim,
                                          featured_graph.edge_dim, 8, seed=5)
        sel = sampler(cand, 3, edge_feat=efeat, neigh_node_feat=nfeat,
                      target_node_feat=tfeat, rng=np.random.default_rng(5))
        assert np.isfinite(sel.probabilities).all()
        assert sampler.live_channels == 2 * sampler.feat_dim

    @pytest.mark.parametrize("decoder", ["linear", "gat", "gatv2", "transformer"])
    def test_all_decoders_usable(self, small_graph, small_tcsr, decoder):
        cand, efeat = candidates_for(small_graph, small_tcsr)
        sampler = AdaptiveNeighborSampler(0, small_graph.edge_dim, 8,
                                          decoder=decoder, seed=6)
        sel = sampler(cand, 3, edge_feat=efeat, rng=np.random.default_rng(6))
        assert sel.columns.shape == (cand.batch_size, 3)

    @pytest.mark.parametrize("decoder", ["linear", "gat", "gatv2", "transformer"])
    def test_target_embedding_built_only_for_decoders_that_read_it(
            self, featured_graph, decoder, monkeypatch):
        tcsr = build_tcsr(featured_graph)
        cand, efeat = candidates_for(featured_graph, tcsr)
        nfeat = featured_graph.node_feat[cand.nodes].astype(np.float64)
        tfeat = featured_graph.node_feat[cand.root_nodes].astype(np.float64)
        sampler = AdaptiveNeighborSampler(featured_graph.node_dim,
                                          featured_graph.edge_dim, 8,
                                          decoder=decoder, seed=6)
        built, target_embedding = [], sampler.target_embedding
        monkeypatch.setattr(sampler, "target_embedding",
                            lambda *a: built.append(a) or target_embedding(*a))
        sampler(cand, 3, edge_feat=efeat, neigh_node_feat=nfeat, target_node_feat=tfeat)
        assert bool(built) == (decoder != "linear")
        z_target = target_embedding(cand.batch_size, tfeat)
        assert z_target.shape == (cand.batch_size, sampler.target_dim)
        if decoder == "linear":     # the linear read-out ignores the target
            mixed = Tensor(np.random.default_rng(0).standard_normal(
                (cand.batch_size, 8, sampler.enc_dim)))
            assert np.array_equal(sampler.decoder(mixed, None).data,
                                  sampler.decoder(mixed, z_target).data)


# ---------------------------------------------------------------------------
# the composed chain: the oracle of the four-node hop
# ---------------------------------------------------------------------------

M, EDGE_DIM, NODE_DIM = 6, 5, 3
LOG_FLOOR = np.log(1e-20)


def composed_encode(sampler, cand, edge_feat, neigh_node_feat):
    """The neighbor encoding as composed nodes: GELU-projected features, the
    encoder modules and one concatenate."""
    r, m = cand.nodes.shape
    parts = []
    for proj, feats, dim in ((sampler.node_proj, neigh_node_feat, sampler.node_dim),
                             (sampler.edge_proj, edge_feat, sampler.edge_dim)):
        if proj is not None:
            x = Tensor(feats) if feats is not None else Tensor.zeros(r, m, dim)
            parts.append(proj(x).gelu())
    parts.append(sampler.time_encoder(cand.delta_t()))
    if sampler.freq_encoder is not None:
        parts.append(sampler.freq_encoder(cand.frequencies()))
    if sampler.use_identity_encoding:
        parts.append(IdentityEncoder(m)(cand.nodes, cand.mask))
    return concatenate(parts, axis=-1)


def composed_probabilities(sampler, cand, edge_feat=None, neigh_node_feat=None,
                           target_node_feat=None):
    """``q_theta`` (R, m) over every row: encoder, mixer block (full-width
    input gradient), the decoder as composed nodes, ``1/T`` and
    ``masked_softmax``."""
    r, m = cand.nodes.shape
    mixed = sampler.mixer(composed_encode(sampler, cand, edge_feat, neigh_node_feat),
                          mask=cand.mask)
    if isinstance(sampler.decoder, LinearDecoder):
        scores = sampler.decoder.score(mixed).reshape(r, m)
    else:
        scores = sampler.decoder(mixed, sampler.target_embedding(r, target_node_feat))
    return F.masked_softmax(scores * (1.0 / sampler.temperature), cand.mask, axis=-1)


def composed_select(probabilities, mask, budget, rng):
    """Gumbel-top-k over ``log q`` with noise from ``rng`` (``None``: the
    greedy top-k), and ``log(q + 1e-20)`` of the picked as ``log`` /
    ``getitem`` nodes."""
    noise = None if rng is None else rng.gumbel(size=probabilities.shape)
    keys = np.log(np.maximum(probabilities.data, 1e-20))
    if noise is not None:
        keys = keys + noise
    keys = np.where(mask, keys, -np.inf)
    columns = np.argsort(-keys, axis=1, kind="stable")[:, :budget]
    rows = np.arange(len(columns))[:, None]
    return NeighborSelection(columns=columns,
                             mask=np.take_along_axis(mask, columns, axis=1),
                             log_prob=(probabilities + 1e-20).log()[rows, columns],
                             probabilities=probabilities)


def all_rows_oracle(sampler, cand, budget, efeat, rng, nfeat=None, tfeat=None):
    """Score and select over every row with the composed chain: what a hop
    computed before it was four graph nodes on the live rows."""
    if budget > cand.budget:
        raise ValueError("selection budget exceeds the candidate budget")
    return composed_select(composed_probabilities(sampler, cand, efeat, nfeat, tfeat),
                           cand.mask, budget, rng)


def synthetic_candidates(seed, rows, pattern):
    """A padded candidate batch whose live rows follow ``pattern``, with
    edge features, neighbor node features and target node features."""
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
    nfeat = rng.standard_normal((rows, M, NODE_DIM)) * mask[..., None]
    tfeat = rng.standard_normal((rows, NODE_DIM))
    return cand, efeat, nfeat, tfeat


def parameter_grads(sampler, selection, coeff):
    sampler.zero_grad()
    (selection.log_prob * Tensor(coeff)).sum().backward()
    return [None if p.grad is None else p.grad.copy() for p in sampler.parameters()]


def sampler_pair(seed, **kwargs):
    """Two samplers with the same parameters."""
    return (AdaptiveNeighborSampler(seed=seed % 7, **kwargs),
            AdaptiveNeighborSampler(seed=seed % 7, **kwargs))


def assert_matches_oracle(got, want, sampler, oracle, cand, coeff,
                          mine=None, theirs=None):
    """``TestLiveRowSampling``'s float64 bar: columns and masks exactly
    equal, ``log_prob``, probabilities and every parameter gradient within
    1e-12, and the sampler's generator ``mine`` where the oracle left its
    own (``None`` for a greedy selection)."""
    live = cand.mask.any(axis=1)
    assert np.array_equal(got.columns, want.columns)
    assert np.array_equal(got.mask, want.mask)
    np.testing.assert_allclose(got.log_prob.data, want.log_prob.data, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.probabilities, want.probabilities.data,
                               rtol=0, atol=1e-12)
    if mine is not None:
        assert mine.bit_generator.state == theirs.bit_generator.state
    # dead rows read exactly what the oracle gives them
    budget = got.columns.shape[1]
    assert np.array_equal(got.columns[~live],
                          np.tile(np.arange(budget), ((~live).sum(), 1)))
    assert not got.mask[~live].any()
    assert np.all(got.log_prob.data[~live] == LOG_FLOOR)
    assert np.all(got.probabilities[~live] == 0.0)
    for mine, theirs in zip(parameter_grads(sampler, got, coeff),
                            parameter_grads(oracle, want, coeff)):
        if live.any():
            np.testing.assert_allclose(mine, theirs, rtol=0, atol=1e-12)
        else:
            # nothing reaches theta; the oracle back-propagates zeros
            assert mine is None and not theirs.any()


@pytest.mark.usefixtures("float64_compute")
class TestLiveRowSampling:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 9),
           st.sampled_from(["random", "all_dead", "all_live", "one_live"]),
           st.integers(1, M), st.booleans(), st.booleans(),
           st.sampled_from(["linear", "gat", "gatv2", "transformer"]),
           st.booleans(), st.booleans(), st.sampled_from([1.0, 0.5]))
    def test_matches_all_rows_oracle(self, seed, rows, pattern, budget, greedy,
                                     node_feats, decoder, frequency, identity,
                                     temperature):
        cand, efeat, nfeat, tfeat = synthetic_candidates(seed, rows, pattern)
        if not node_feats:
            nfeat = tfeat = None
        sampler, oracle = sampler_pair(
            seed, node_dim=NODE_DIM if node_feats else 0, edge_dim=EDGE_DIM,
            num_candidates=M, decoder=decoder, use_frequency_encoding=frequency,
            use_identity_encoding=identity, temperature=temperature)
        mine, theirs = (None, None) if greedy else (np.random.default_rng(seed),
                                                    np.random.default_rng(seed))
        got = sampler(cand, budget, edge_feat=efeat, neigh_node_feat=nfeat,
                      target_node_feat=tfeat, rng=mine)
        want = all_rows_oracle(oracle, cand, budget, efeat, theirs, nfeat, tfeat)
        coeff = np.random.default_rng(seed).standard_normal((rows, budget))
        assert_matches_oracle(got, want, sampler, oracle, cand, coeff, mine, theirs)

    @pytest.mark.parametrize("budget", [2, M])
    def test_greedy_ties_keep_the_stable_order(self, budget):
        """A zero read-out makes ``q`` uniform over each row's valid
        candidates: every key ties, and greedy selection takes the valid
        columns in index order, then the padded ones in index order."""
        cand, efeat, _, _ = synthetic_candidates(3, 9, "random")
        sampler, oracle = sampler_pair(3, node_dim=0, edge_dim=EDGE_DIM,
                                       num_candidates=M)
        for s in (sampler, oracle):
            s.decoder.score.weight.data[:] = 0.0
        got = sampler(cand, budget, edge_feat=efeat)
        want = all_rows_oracle(oracle, cand, budget, efeat, None)
        live = cand.mask.any(axis=1)
        stable = np.argsort(~cand.mask, axis=1, kind="stable")[:, :budget]
        assert np.array_equal(got.columns[live], stable[live])
        counts = cand.mask.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(got.probabilities, cand.mask / np.maximum(counts, 1),
                                   rtol=0, atol=1e-15)
        coeff = np.random.default_rng(3).standard_normal((9, budget))
        assert_matches_oracle(got, want, sampler, oracle, cand, coeff)

    def test_a_hop_is_four_graph_nodes(self):
        """encode -> mixer block -> decoder -> head: the graph under the
        log-probabilities of a linear-decoder hop, parameters aside."""
        cand, efeat, _, _ = synthetic_candidates(5, 9, "random")
        sampler = AdaptiveNeighborSampler(0, EDGE_DIM, M, seed=0)
        log_prob = sampler(cand, 3, edge_feat=efeat,
                           rng=np.random.default_rng(0)).log_prob
        ops, node = [], log_prob
        while node._prev:
            ops.append(node._op)
            node = node._prev[0]
        assert ops == ["sampler_head", "linear_decoder", "mixer_block", "sampler_encode"]

    def test_no_live_row_never_touches_the_encoder(self, small_graph, small_tcsr,
                                                   monkeypatch):
        """Queries at the very start of the timeline (the first serve flush on
        unseen nodes) have no history on any hop."""
        sampler = AdaptiveNeighborSampler(0, small_graph.edge_dim, 8, seed=0)
        monkeypatch.setattr(F, "sampler_encode", lambda *a, **k: pytest.fail(
            "encoder reached with no live row"))
        gen = MiniBatchGenerator(GPUNeighborFinder(small_tcsr),
                                 FeatureStore(small_graph), 2, 4, 8,
                                 adaptive_sampler=sampler)
        roots = small_graph.src[:20]
        times = np.full(20, small_graph.ts.min())
        for train in (False, True):
            mb = gen.build(roots, times, np.random.default_rng(0), train=train)
            mb.check_invariants()
            for hop in mb.hops:
                assert not hop.batch.mask.any()
        candidates = gen.layer_candidates(roots, times,
                                          np.random.default_rng(0)).candidates
        selection = sampler(candidates, 4)
        assert selection.columns.shape == selection.mask.shape == (20, 4)
        assert selection.log_prob.shape == (20, 4)
        assert np.all(selection.log_prob.data == LOG_FLOOR)
        assert selection.probabilities.shape == (20, 8)
        with pytest.raises(ValueError):
            sampler(candidates, 9)


@pytest.mark.usefixtures("float64_compute")
class TestSamplerNodes:
    """``F.sampler_encode`` and ``F.sampler_head`` on their own."""

    def encode_inputs(self, seed=0, identity=True, frequency=True):
        cand, efeat, nfeat, _ = synthetic_candidates(seed, 4, "all_live")
        sampler = AdaptiveNeighborSampler(NODE_DIM, EDGE_DIM, M, feat_dim=3, time_dim=4,
                                          freq_dim=4, use_identity_encoding=identity,
                                          use_frequency_encoding=frequency, seed=seed)
        params = [sampler.node_proj.weight, sampler.node_proj.bias,
                  sampler.edge_proj.weight, sampler.edge_proj.bias]
        inv = sampler.freq_encoder.inv_wavelength if frequency else None

        def encode(*ps):
            return F.sampler_encode(sampler.mixer.input_buffer(4), [nfeat, efeat], ps,
                                    cand.delta_t(), sampler.time_encoder.omega,
                                    cand.nodes, cand.mask, inv, identity)
        return sampler, cand, efeat, nfeat, params, encode

    @pytest.mark.parametrize("identity", [True, False])
    @pytest.mark.parametrize("frequency", [True, False])
    def test_encode_matches_the_encoder_modules(self, identity, frequency):
        sampler, cand, efeat, nfeat, params, encode = self.encode_inputs(
            1, identity, frequency)
        got = encode(*params)
        assert got._op == "sampler_encode" and got._prev == tuple(params)
        assert got.data.transpose(2, 1, 0).flags.c_contiguous
        want = composed_encode(sampler, cand, efeat, nfeat)
        np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-15)

    def test_encode_gradcheck(self):
        _, _, _, _, params, encode = self.encode_inputs()
        coeff = Tensor(np.random.default_rng(2).standard_normal((4, M, 3 + 3 + 4 + 4 + M)))
        assert gradcheck(lambda *ps: encode(*ps) * coeff, params)

    def test_head_gradcheck(self):
        rng = np.random.default_rng(3)
        mask = rng.random((5, M)) < 0.7
        mask[:, 0] = True
        mask[1, 1:] = False                 # fewer valid candidates than the budget
        live = np.array([0, 2, 3, 5, 6])
        noise = rng.gumbel(size=(5, M))
        scores = Tensor(rng.standard_normal((5, M)), requires_grad=True)
        coeff = Tensor(rng.standard_normal((7, 3)))
        for temperature in (1.0, 0.5):
            def head(s):
                log_prob = F.sampler_head(s, mask, 3, temperature, noise, live, 7, 1e-20)[0]
                assert log_prob._op == "sampler_head" and log_prob._prev == (s,)
                return log_prob * coeff
            assert gradcheck(head, [scores])


class TestSampleLoss:
    def _training_minibatch(self, graph, tcsr, backbone="graphmixer", n=5, m=8):
        finder = GPUNeighborFinder(tcsr, policy="uniform")
        store = FeatureStore(graph)
        sampler = AdaptiveNeighborSampler(graph.node_dim, graph.edge_dim, m, seed=0)
        layers = 2 if backbone == "tgat" else 1
        gen = MiniBatchGenerator(finder, store, layers, n, m, adaptive_sampler=sampler)
        rng = np.random.default_rng(0)
        idx = rng.integers(graph.num_edges // 2, graph.num_edges, 30)
        roots = np.concatenate([graph.src[idx], graph.dst[idx]])
        times = np.concatenate([graph.ts[idx], graph.ts[idx]])
        mb = gen.build(roots, times, np.random.default_rng(0), train=True)
        if backbone == "tgat":
            model = TGAT(graph.node_dim, graph.edge_dim, hidden_dim=8, time_dim=4,
                         num_heads=1, dropout=0.0, rng=np.random.default_rng(1))
        else:
            model = GraphMixer(graph.node_dim, graph.edge_dim, hidden_dim=8, time_dim=4,
                               num_neighbors=n, dropout=0.0, rng=np.random.default_rng(1))
        emb = model.embed(mb, gen.hop_tile)
        emb.sum().backward()
        return mb, emb, model, sampler

    def test_sensitivity_loss_trains_sampler(self, small_graph, small_tcsr):
        mb, emb, _, sampler = self._training_minibatch(small_graph, small_tcsr)
        loss = build_sample_loss("sensitivity", mb.hops, mb.batch_size, emb)
        assert loss is not None
        loss.backward()
        grads = [p.grad for p in sampler.parameters() if p.grad is not None]
        assert grads and any(np.any(g != 0) for g in grads)

    def test_returns_none_without_adaptive_hops(self, small_graph, small_tcsr):
        finder = GPUNeighborFinder(small_tcsr)
        gen = MiniBatchGenerator(finder, FeatureStore(small_graph), 1, 5, 5)
        idx = np.arange(800, 830)
        mb = gen.build(small_graph.src[idx], small_graph.ts[idx],
                       np.random.default_rng(0), train=True)
        assert build_sample_loss("sensitivity", mb.hops, mb.batch_size, None) is None

    def test_tgat_analytic_loss(self, small_graph, small_tcsr):
        mb, emb, model, sampler = self._training_minibatch(small_graph, small_tcsr,
                                                           backbone="tgat")
        loss = build_sample_loss("tgat_analytic", mb.hops, mb.batch_size, emb,
                                 attention=model.last_layer_attention(),
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
            build_sample_loss("sensitivity", mb.hops, mb.batch_size, emb, alpha=0.0)


class TestMiniBatchGenerator:
    def test_baseline_budget_equals_n(self, small_graph, small_tcsr):
        gen = MiniBatchGenerator(GPUNeighborFinder(small_tcsr),
                                 FeatureStore(small_graph), 2, 5, 5)
        idx = np.arange(700, 740)
        mb = gen.build(small_graph.src[idx], small_graph.ts[idx],
                       np.random.default_rng(0))
        mb.check_invariants()
        assert mb.hops[0].budget == 5
        assert mb.hops[0].log_prob is None

    def test_adaptive_selects_n_from_m(self, small_graph, small_tcsr):
        sampler = AdaptiveNeighborSampler(0, small_graph.edge_dim, 12, seed=0)
        gen = MiniBatchGenerator(GPUNeighborFinder(small_tcsr),
                                 FeatureStore(small_graph), 1, 5, 12,
                                 adaptive_sampler=sampler)
        idx = np.arange(700, 740)
        mb = gen.build(small_graph.src[idx], small_graph.ts[idx],
                       np.random.default_rng(0), train=True)
        hop = mb.hops[0]
        assert hop.budget == 5
        assert hop.log_prob is not None and hop.gate is not None
        # eval mode: no gates, no log-probs
        mb_eval = gen.build(small_graph.src[idx], small_graph.ts[idx],
                       np.random.default_rng(0), train=False)
        assert mb_eval.hops[0].gate is None and mb_eval.hops[0].log_prob is None

    def test_edge_features_align_with_selected_eids(self, small_graph, small_tcsr):
        sampler = AdaptiveNeighborSampler(0, small_graph.edge_dim, 10, seed=1)
        gen = MiniBatchGenerator(GPUNeighborFinder(small_tcsr),
                                 FeatureStore(small_graph), 1, 4, 10,
                                 adaptive_sampler=sampler)
        idx = np.arange(900, 950)
        mb = gen.build(small_graph.src[idx], small_graph.ts[idx],
                       np.random.default_rng(0), train=True)
        hop = mb.hops[0]
        expect = small_graph.edge_feat[hop.batch.eids]
        expect[~hop.batch.mask] = 0.0
        got = hop.edge_feat.copy()
        got[~hop.batch.mask] = 0.0
        assert np.allclose(got, expect)

    @pytest.mark.parametrize("train", [True, False])
    def test_recent_without_sampler_draws_nothing(self, small_graph, small_tcsr,
                                                  train):
        """``recent`` and no adaptive sampler leave a tile nothing to draw:
        two generators build the same batch, tile for tile, which is why a
        workload on that configuration keeps its numbers under any seeding
        of the tiles.  ``uniform`` under the same two generators differs."""
        idx = np.arange(700, 760)
        tiles = None if train else Tiles(16)

        def tiles_of(policy, seed):
            gen = MiniBatchGenerator(GPUNeighborFinder(small_tcsr, policy=policy),
                                     FeatureStore(small_graph), 2, 4, 4)
            mb = gen.build(small_graph.src[idx], small_graph.ts[idx],
                           np.random.default_rng(seed), train=train, tiles=tiles)
            return [(hop.inverse, gen.hop_tile(hop, index, rows))
                    for hop in mb.hops for index, rows in
                    enumerate((tiles or Tiles()).split(hop.num_targets))]

        def same(a, b):
            return len(a) == len(b) and all(
                np.array_equal(inv_a, inv_b) and all(
                    np.array_equal(getattr(tile_a.batch, name), getattr(tile_b.batch, name))
                    for name in ("root_nodes", "root_times", "nodes", "eids",
                                 "times", "mask"))
                and np.array_equal(tile_a.edge_feat, tile_b.edge_feat)
                for (inv_a, tile_a), (inv_b, tile_b) in zip(a, b))
        recent = tiles_of("recent", 0)
        # one tile per level to train, several per level to score
        assert len(recent) == 2 if train else len(recent) > 4
        assert same(recent, tiles_of("recent", 1))
        assert not same(tiles_of("uniform", 0), tiles_of("uniform", 1))

    @pytest.mark.parametrize("rows,m,n,dim", [(1, 5, 5, 3), (37, 10, 5, 32), (8, 6, 2, 1)])
    def test_gather_columns_is_take_along_axis_bitwise(self, rows, m, n, dim):
        """The row-indexed gather equals ``np.take_along_axis`` bit for bit,
        on padded candidate rows (zeroed dead slots, a row with no candidate
        at all selecting the padding) and on a strided operand."""
        rng = np.random.default_rng(rows)
        mask = rng.random((rows, m)) < 0.6
        mask[0] = False                                  # a dead row
        array = (rng.standard_normal((rows, m, dim)) * mask[..., None]).astype(np.float32)
        columns = np.argsort(rng.random((rows, m)), axis=1)[:, :n]
        columns[0] = np.arange(n)                        # the dead row's pick
        for operand in (array, np.asfortranarray(array)):
            got = MiniBatchGenerator._gather_columns(operand, columns)
            want = np.take_along_axis(operand, columns[..., None], axis=1)
            assert got.shape == (rows, n, dim) and got.dtype == np.float32
            assert got.tobytes() == want.tobytes()
            assert not got[0].any()
        assert MiniBatchGenerator._gather_columns(None, columns) is None

    def test_timer_records_phases(self, small_graph, small_tcsr):
        from repro.utils import Timer
        timer = Timer()
        sampler = AdaptiveNeighborSampler(0, small_graph.edge_dim, 8, seed=0)
        gen = MiniBatchGenerator(GPUNeighborFinder(small_tcsr),
                                 FeatureStore(small_graph), 1, 4, 8,
                                 adaptive_sampler=sampler, timer=timer)
        idx = np.arange(700, 720)
        gen.build(small_graph.src[idx], small_graph.ts[idx],
                       np.random.default_rng(0), train=True)
        totals = timer.totals()
        assert {"NF", "FS", "AS"} <= set(totals)
        assert all(v >= 0 for v in totals.values())

    def test_validation(self, small_graph, small_tcsr):
        with pytest.raises(ValueError):
            MiniBatchGenerator(GPUNeighborFinder(small_tcsr),
                               FeatureStore(small_graph), 0, 5, 5)
        with pytest.raises(ValueError):
            MiniBatchGenerator(GPUNeighborFinder(small_tcsr),
                               FeatureStore(small_graph), 1, 5, 3)
