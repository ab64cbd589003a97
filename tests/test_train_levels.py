"""Training batches are level-wise: each distinct ``(node, t)`` once per level.

``MiniBatchGenerator.build(train=True)`` builds the levels a scoring call
builds, with features, a Gumbel draw, ``log_prob`` and a gate per distinct
target, and ``TGNNBackbone.embed`` reads each level beneath through its
``inverse``.  The oracle is the recursive expansion over the per-row batch the
level-wise one stands for (``recursive_oracle``): on a batch without repeats
or padding both compute the same losses and gradients, and where rows repeat
a target, its gate gradient and REINFORCE coefficient are the sum of its
rows'.
"""

import numpy as np
import pytest

from repro.core import (AdaptiveNeighborSampler, MiniBatchGenerator, TaserConfig,
                        TaserTrainer)
from repro.core.sample_loss import build_sample_loss
from repro.device import FeatureStore
from repro.graph import TemporalGraph, build_tcsr
from repro.models import TGAT, EdgePredictor, GraphMixer
from repro.sampling import GPUNeighborFinder
from repro.tensor import Tensor
from repro.tensor import functional as F
from repro.utils.tiles import Tiles

from recursive_oracle import embed_per_row, per_row_hops
from test_forward_dedup import EVENTS

TOL = dict(rtol=0, atol=1e-12)
BACKBONES = ("tgat", "graphmixer")
ESTIMATORS = ("sensitivity", "tgat_analytic")


def distinct_graph():
    """Every event at its own time, nodes and edges featured, each node with
    dozens of past events: distinct roots reach distinct frontier queries,
    and no selected slot is padding."""
    rng = np.random.default_rng(5)
    num_nodes, num_events = 24, 600
    src = rng.integers(0, num_nodes, num_events)
    dst = (src + rng.integers(1, num_nodes, num_events)) % num_nodes
    return TemporalGraph(num_nodes=num_nodes, src=src, dst=dst,
                         ts=np.arange(1.0, num_events + 1.0),
                         edge_feat=rng.standard_normal((num_events, 3)),
                         node_feat=rng.standard_normal((num_nodes, 4)))


def repeat_graph():
    """``test_forward_dedup``'s hand-built graph: (3, 2.0) is reached twice,
    and node 2 before t = 2.0 has one event, node 4 none."""
    return TemporalGraph(num_nodes=5, **EVENTS,
                         edge_feat=np.arange(8, dtype=np.float64).reshape(4, 2))


def run(graph, roots, times, backbone, estimator, n, m, per_row):
    """One training step's backward halves on freshly seeded modules: the
    level-wise path, or the recursive oracle on its per-row batch."""
    layers = 2 if backbone == "tgat" else 1
    sampler = AdaptiveNeighborSampler(graph.node_dim, graph.edge_dim, m, seed=3,
                                      rng=np.random.default_rng(3))
    gen = MiniBatchGenerator(GPUNeighborFinder(build_tcsr(graph), policy="recent"),
                             FeatureStore(graph), layers, n, m,
                             adaptive_sampler=sampler)
    if backbone == "tgat":
        model = TGAT(graph.node_dim, graph.edge_dim, hidden_dim=8, time_dim=4,
                     num_heads=2, dropout=0.0, rng=np.random.default_rng(1))
    else:
        model = GraphMixer(graph.node_dim, graph.edge_dim, hidden_dim=8, time_dim=4,
                           num_neighbors=n, dropout=0.0, rng=np.random.default_rng(1))
    predictor = EdgePredictor(8, rng=np.random.default_rng(2))

    minibatch = gen.build(roots, times, train=True)
    if per_row:
        hops, rows = per_row_hops(minibatch)
        emb = embed_per_row(model, hops)
    else:
        hops, rows = minibatch.hops, None
        emb = model.embed(minibatch, gen.hop_tile)
    b = roots.size // 3
    loss = F.binary_cross_entropy_with_logits(
        predictor(emb[:b], emb[b:2 * b]), Tensor.ones(b)) \
        + F.binary_cross_entropy_with_logits(
            predictor(emb[:b], emb[2 * b:]), Tensor.zeros(b))
    loss.backward()
    attention = model.last_layer_attention() if backbone == "tgat" else None
    sample_loss = build_sample_loss(estimator, hops, b, emb, attention=attention)
    sample_loss.backward()
    params = model.parameters() + predictor.parameters() + sampler.parameters()
    return dict(
        minibatch=minibatch, rows=rows, emb=emb.data, loss=float(loss.data),
        sample_loss=float(sample_loss.data),
        grads=[p.grad.copy() for p in params],
        gates=[hop.gate.grad.copy() for hop in hops],
        # the sample loss is sum(coeff * log_prob) / b
        coeffs=[hop.log_prob.grad * b for hop in hops])


def summed(per_row, rows, targets):
    """Per-row values summed onto the targets their rows reach."""
    out = np.zeros((targets,) + per_row.shape[1:])
    np.add.at(out, rows, per_row)
    return out


def assert_oracle_agrees(graph, roots, times, backbone, estimator, n, m):
    got = run(graph, roots, times, backbone, estimator, n, m, per_row=False)
    want = run(graph, roots, times, backbone, estimator, n, m, per_row=True)
    np.testing.assert_allclose(got["emb"], want["emb"], **TOL)
    assert abs(got["loss"] - want["loss"]) <= 1e-12
    assert abs(got["sample_loss"] - want["sample_loss"]) <= 1e-12
    assert len(got["grads"]) == len(want["grads"])
    for got_grad, want_grad in zip(got["grads"], want["grads"]):
        np.testing.assert_allclose(got_grad, want_grad, **TOL)
    for hop, rows, *pairs in zip(got["minibatch"].hops, want["rows"],
                                 got["gates"], want["gates"],
                                 got["coeffs"], want["coeffs"]):
        for level_value, row_values in zip(pairs[::2], pairs[1::2]):
            np.testing.assert_allclose(
                level_value, summed(row_values, rows, hop.num_targets), **TOL)
    return got


@pytest.mark.usefixtures("float64_compute")
class TestRecursiveOracle:
    @pytest.mark.parametrize("estimator", ESTIMATORS)
    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_no_repeats_no_padding(self, backbone, estimator):
        graph = distinct_graph()
        roots = np.array([0, 3, 5, 7, 11, 2, 13, 17, 19, 23, 4, 8])
        times = np.full(roots.size, 601.0)
        got = assert_oracle_agrees(graph, roots, times, backbone, estimator,
                                   n=3, m=6)
        for hop in got["minibatch"].hops:
            assert hop.num_targets == hop.inverse.size
            assert hop.batch.mask.all()

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_repeats_and_padding(self, backbone, estimator):
        # [src; dst; negatives] of two edges, (1, 5.0) and (2, 2.0) twice;
        # (4, 2.0) has no past and (2, 2.0) one event.
        roots = np.array([1, 2, 4, 4, 1, 2])
        times = np.array([5.0, 2.0, 5.0, 2.0, 5.0, 2.0])
        got = assert_oracle_agrees(repeat_graph(), roots, times, backbone,
                                   estimator, n=2, m=3)
        hops = got["minibatch"].hops
        for hop in hops:
            assert hop.num_targets < hop.inverse.size
            assert not hop.batch.mask.all()
        # the gate gradients compared above are not all zero
        assert np.abs(got["gates"][0]).sum() > 0


def test_every_training_batch_holds_the_invariants(small_graph, monkeypatch):
    """Two epochs of TGAT + TASER: every training batch is level-wise and
    its inverses route every row to its own query."""
    config = TaserConfig(backbone="tgat", adaptive_minibatch=True,
                         adaptive_neighbor=True, hidden_dim=8, time_dim=4,
                         num_neighbors=3, num_candidates=6, batch_size=64,
                         max_batches_per_epoch=4, seed=0)
    trainer = TaserTrainer(small_graph, config)
    build, built = trainer.generator.build, []

    def checked(*args, **kwargs):
        minibatch = build(*args, **kwargs)
        minibatch.check_invariants()
        built.append(minibatch)
        return minibatch
    monkeypatch.setattr(trainer.generator, "build", checked)
    for _ in range(2):
        trainer.train_epoch()
    assert len(built) == 8
    assert all(hop.gate is not None and hop.log_prob is not None
               for minibatch in built for hop in minibatch.hops)
    # some frontier repeats a query: the batches are deduplicated, not per row
    assert any(hop.num_targets < hop.inverse.size
               for minibatch in built for hop in minibatch.hops)


def test_training_batch_is_one_tile(small_graph, small_tcsr):
    gen = MiniBatchGenerator(GPUNeighborFinder(small_tcsr), FeatureStore(small_graph),
                             1, 3, 3)
    with pytest.raises(ValueError):
        gen.build(small_graph.src[:8], small_graph.ts[:8], train=True,
                  tiles=Tiles(4))


def test_training_draws_scoring_picks_greedily(small_graph, small_tcsr):
    """With the same candidates (``recent``) and parameters, two training
    batches draw different selections and two forward-only ones the same."""
    sampler = AdaptiveNeighborSampler(0, small_graph.edge_dim, 8, seed=0)
    gen = MiniBatchGenerator(GPUNeighborFinder(small_tcsr, policy="recent"),
                             FeatureStore(small_graph), 1, 3, 8,
                             adaptive_sampler=sampler)
    roots, times = small_graph.src[700:760], small_graph.ts[700:760]

    def picks(train):
        return gen.build(roots, times, train=train).hops[0].batch.eids
    assert np.array_equal(picks(False), picks(False))
    assert not np.array_equal(picks(True), picks(True))
