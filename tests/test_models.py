"""Tests for the TGNN backbones (TGAT, GraphMixer) and the edge predictor."""

import numpy as np
import pytest

from repro.core import MiniBatchGenerator
from repro.device import FeatureStore
from repro.graph import build_tcsr
from repro.models import (TGAT, GraphMixer, EdgePredictor, make_backbone,
                          HopData)
from repro.sampling import GPUNeighborFinder
from repro.tensor import Tensor, get_backend

from test_tensor_ops import make_hop  # noqa: E402

RNG = np.random.default_rng(0)


def build_minibatch(graph, tcsr, num_layers, n, batch=40, policy="uniform", seed=0):
    finder = GPUNeighborFinder(tcsr, policy=policy)
    store = FeatureStore(graph)
    gen = MiniBatchGenerator(finder, store, num_layers, n, n)
    rng = np.random.default_rng(seed)
    idx = rng.integers(graph.num_edges // 2, graph.num_edges, batch)
    roots = np.concatenate([graph.src[idx], graph.dst[idx]])
    times = np.concatenate([graph.ts[idx], graph.ts[idx]])
    # A training batch: it carries its features and keeps the autograd graph
    # (a forward-only batch is embedded tile by tile, without either).
    return gen, gen.build(roots, times, np.random.default_rng(seed), train=True)


class TestEdgePredictor:
    def test_logit_shape(self):
        pred = EdgePredictor(16, rng=RNG)
        out = pred(Tensor.randn(7, 16, rng=RNG), Tensor.randn(7, 16, rng=RNG))
        assert out.shape == (7,)

    def test_gradients_reach_both_sides(self):
        pred = EdgePredictor(8, rng=RNG)
        a = Tensor.randn(3, 8, rng=RNG, requires_grad=True)
        b = Tensor.randn(3, 8, rng=RNG, requires_grad=True)
        pred(a, b).sum().backward()
        assert a.grad is not None and b.grad is not None


class TestTGAT:
    def test_embedding_shape(self, small_graph, small_tcsr):
        gen, mb = build_minibatch(small_graph, small_tcsr, num_layers=2, n=5)
        model = TGAT(small_graph.node_dim, small_graph.edge_dim, hidden_dim=16,
                     time_dim=8, rng=RNG)
        emb = model.embed(mb, gen.hop_tile)
        assert emb.shape == (mb.batch_size, 16)

    def test_requires_enough_hops(self, small_graph, small_tcsr):
        gen, mb = build_minibatch(small_graph, small_tcsr, num_layers=1, n=5)
        model = TGAT(small_graph.node_dim, small_graph.edge_dim, hidden_dim=8,
                     time_dim=4, rng=RNG)
        with pytest.raises(ValueError):
            model.embed(mb, gen.hop_tile)

    def test_backward_reaches_all_parameters(self, small_graph, small_tcsr):
        gen, mb = build_minibatch(small_graph, small_tcsr, num_layers=2, n=4)
        model = TGAT(small_graph.node_dim, small_graph.edge_dim, hidden_dim=8,
                     time_dim=4, num_heads=1, dropout=0.0, rng=RNG)
        model.embed(mb, gen.hop_tile).sum().backward()
        with_grad = sum(1 for p in model.parameters() if p.grad is not None
                        and np.any(p.grad != 0))
        assert with_grad >= 0.8 * len(model.parameters())

    def test_last_layer_attention_exposed(self, small_graph, small_tcsr):
        gen, mb = build_minibatch(small_graph, small_tcsr, num_layers=2, n=5)
        model = TGAT(small_graph.node_dim, small_graph.edge_dim, hidden_dim=8,
                     time_dim=4, rng=RNG)
        model.embed(mb, gen.hop_tile)
        attn = model.last_layer_attention()
        # One row per first-hop target.
        assert attn.shape == (mb.hops[0].num_targets, 5)
        valid = mb.hops[0].batch.mask
        assert np.allclose(attn.sum(axis=1), valid.any(axis=1).astype(float), atol=1e-6)

    def test_parameter_names_and_order(self):
        """Checkpoints, optimiser state and the sharded replicas key on these."""
        model = TGAT(3, 5, hidden_dim=8, time_dim=4, num_layers=1, rng=RNG)
        layer = [f"layers.0.{name}.{kind}" for name in
                 ("attention.w_q", "attention.w_k", "attention.w_v", "attention.w_out",
                  "merge1", "merge2") for kind in ("weight", "bias")]
        assert [name for name, _ in model.named_parameters()] == [
            "time_encoder.w", "time_encoder.b", "node_proj.weight", "node_proj.bias", *layer]

    def test_node_features_used_when_present(self, featured_graph):
        tcsr = build_tcsr(featured_graph)
        gen, mb = build_minibatch(featured_graph, tcsr, num_layers=2, n=4)
        model = TGAT(featured_graph.node_dim, featured_graph.edge_dim, hidden_dim=8,
                     time_dim=4, rng=RNG)
        assert model.node_proj is not None
        emb = model.embed(mb, gen.hop_tile)
        assert np.isfinite(emb.data).all()

    def test_deterministic_in_eval_mode(self, small_graph, small_tcsr):
        gen, mb = build_minibatch(small_graph, small_tcsr, num_layers=2, n=5)
        model = TGAT(small_graph.node_dim, small_graph.edge_dim, hidden_dim=8,
                     time_dim=4, rng=np.random.default_rng(1))
        model.eval()
        a = model.embed(mb, gen.hop_tile).data
        b = model.embed(mb, gen.hop_tile).data
        assert np.allclose(a, b)


class TestGraphMixer:
    def test_embedding_shape(self, small_graph, small_tcsr):
        gen, mb = build_minibatch(small_graph, small_tcsr, num_layers=1, n=6, policy="recent")
        model = GraphMixer(small_graph.node_dim, small_graph.edge_dim, hidden_dim=16,
                           time_dim=8, num_neighbors=6, rng=RNG)
        emb = model.embed(mb, gen.hop_tile)
        assert emb.shape == (mb.batch_size, 16)

    def test_budget_mismatch_raises(self, small_graph, small_tcsr):
        gen, mb = build_minibatch(small_graph, small_tcsr, num_layers=1, n=4, policy="recent")
        model = GraphMixer(small_graph.node_dim, small_graph.edge_dim, hidden_dim=8,
                           time_dim=4, num_neighbors=6, rng=RNG)
        with pytest.raises(ValueError):
            model.embed(mb, gen.hop_tile)

    def test_backward(self, small_graph, small_tcsr):
        gen, mb = build_minibatch(small_graph, small_tcsr, num_layers=1, n=5, policy="recent")
        model = GraphMixer(small_graph.node_dim, small_graph.edge_dim, hidden_dim=8,
                           time_dim=4, num_neighbors=5, dropout=0.0, rng=RNG)
        model.embed(mb, gen.hop_tile).sum().backward()
        grads = [p.grad for p in model.parameters() if p.grad is not None]
        assert len(grads) > 0

    def test_gate_sensitivity_available_after_backward(self, small_graph, small_tcsr):
        gen, mb = build_minibatch(small_graph, small_tcsr, num_layers=1, n=5, policy="recent")
        hop = mb.hops[0]
        hop.make_gate()
        model = GraphMixer(small_graph.node_dim, small_graph.edge_dim, hidden_dim=8,
                           time_dim=4, num_neighbors=5, dropout=0.0, rng=RNG)
        model.embed(mb, gen.hop_tile).sum().backward()
        sens = hop.gate_sensitivity()
        assert sens is not None and sens.shape == hop.batch.mask.shape
        assert np.any(sens[hop.batch.mask] != 0)

    def test_pools_the_mean_of_the_valid_tokens(self):
        """The mixer block zeroes masked tokens itself, so the pooling is a
        token sum over the valid count: each row pools the mean of its valid
        mixed tokens, and a row with none pools to zero (under the zero
        state its output is ``out_proj``'s bias)."""
        rng = np.random.default_rng(3)
        model = GraphMixer(0, 3, hidden_dim=4, time_dim=2, num_neighbors=3,
                           dropout=0.0, rng=rng)
        hop = make_hop(rng, 5, 3, 3, gate=False, dead_rows=1)
        hop.edge_feat = hop.edge_feat.astype(np.float32)
        backend, seen = get_backend(), {}
        block = backend.mixer_block_forward

        def mix(*args):
            mixed, saved = block(*args)
            seen["mixed"] = mixed
            return mixed, saved
        backend.mixer_block_forward = mix      # the aggregate's kernel reaches it here
        try:
            out = model.aggregate(1, None, None, hop).data
        finally:
            del backend.mixer_block_forward
        mask = hop.batch.mask
        assert not mask[0].any() and mask[1:].any(axis=1).all()
        want = np.array([seen["mixed"][r][mask[r]].mean(axis=0) if mask[r].any()
                         else np.zeros(4) for r in range(5)])
        weight, bias = model.out_proj.weight.data, model.out_proj.bias.data
        np.testing.assert_allclose(out, want @ weight[:, :4].T + bias, rtol=1e-5, atol=1e-6)
        assert np.array_equal(out[0], bias)


class TestFactory:
    def test_make_backbone(self):
        assert isinstance(make_backbone("tgat", 0, 8), TGAT)
        assert isinstance(make_backbone("graphmixer", 0, 8), GraphMixer)
        with pytest.raises(ValueError):
            make_backbone("tgn", 0, 8)


class TestMiniBatchContainer:
    def test_check_invariants(self, small_graph, small_tcsr):
        _, mb = build_minibatch(small_graph, small_tcsr, num_layers=2, n=5)
        mb.check_invariants()
        assert mb.num_hops == 2

    def test_invariant_violation_detected(self, small_graph, small_tcsr):
        _, mb = build_minibatch(small_graph, small_tcsr, num_layers=2, n=5)
        # corrupt the cascade: keep the first ten targets of hop 2 only
        bad = mb.hops[1]
        mb.hops[1] = HopData(batch=bad.batch.rows(slice(0, 10)), inverse=bad.inverse)
        with pytest.raises(AssertionError):
            mb.check_invariants()
