"""Unit tests for the autograd engine: forward values and gradient rules."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.tensor as repro_tensor
from repro.core import AdaptiveNeighborSampler, MiniBatchGenerator
from repro.device import FeatureStore
from repro.graph import build_tcsr, load_dataset
from repro.models import TGAT, EdgePredictor, GraphMixer, HopData
from repro.nn import MixerBlock
from repro.sampling import GPUNeighborFinder, NeighborBatch
from repro.tensor import (Tensor, concatenate, where, no_grad, is_grad_enabled,
                          get_backend)
from repro.tensor import functional as F
from repro.tensor.gradcheck import gradcheck

from recursive_oracle import embed_recursive

# The engine's oracles and gradient checks run in float64 — through the same
# kernels the float32 program runs (see ``conftest.float64_compute``).
pytestmark = pytest.mark.usefixtures("float64_compute")


def t(arr, grad=True):
    """A tensor of ``arr``: a float array keeps its dtype (the float32 twins
    of ``test_compute_dtype.py`` reuse these helpers), anything else — lists,
    integer ranges — is float64."""
    arr = np.asarray(arr)
    return Tensor(arr if arr.dtype.kind == "f" else arr.astype(np.float64),
                  requires_grad=grad)


class TestForwardValues:
    def test_add_broadcast(self):
        a = t([[1.0, 2.0], [3.0, 4.0]])
        b = t([10.0, 20.0])
        assert np.allclose((a + b).data, [[11, 22], [13, 24]])

    def test_scalar_right_ops(self):
        a = t([1.0, -2.0])
        assert np.allclose((2.0 * a).data, [2, -4])
        assert np.allclose((1.0 - a).data, [0, 3])
        assert np.allclose((1.0 + a).data, [2, -1])

    def test_matmul_batched(self):
        a = t(np.arange(12).reshape(2, 2, 3))
        b = t(np.ones((2, 3, 4)))
        out = a @ b
        assert out.shape == (2, 2, 4)
        assert np.allclose(out.data, a.data @ b.data)

    def test_softmax_rows_sum_to_one(self):
        x = t(np.random.default_rng(0).standard_normal((5, 7)))
        s = x.softmax(axis=-1)
        assert np.allclose(s.data.sum(axis=-1), 1.0)

    def test_sigmoid_range(self):
        x = t(np.linspace(-10, 10, 21))
        s = x.sigmoid()
        assert np.all(s.data > 0) and np.all(s.data < 1)

    def test_relu_and_leaky(self):
        x = t([-2.0, 0.0, 3.0])
        assert np.allclose(x.relu().data, [0, 0, 3])
        assert np.allclose(x.leaky_relu(0.1).data, [-0.2, 0, 3])

    def test_gelu_close_to_exact(self):
        from scipy.stats import norm
        x = np.linspace(-3, 3, 31)
        approx = t(x).gelu().data
        exact = x * norm.cdf(x)
        assert np.max(np.abs(approx - exact)) < 0.03

    def test_reshape_transpose_roundtrip(self):
        x = t(np.arange(24).reshape(2, 3, 4))
        y = x.transpose(2, 0, 1).transpose(1, 2, 0)
        assert np.allclose(y.data, x.data)
        z = x.reshape(6, 4).reshape(2, 3, 4)
        assert np.allclose(z.data, x.data)

    def test_getitem_fancy(self):
        x = t(np.arange(20.0).reshape(4, 5))
        rows = np.array([0, 2])
        assert np.allclose(x[rows].data, x.data[rows])

    def test_concatenate(self):
        a, b = t(np.ones((2, 3))), t(np.zeros((2, 2)))
        cat = concatenate([a, b], axis=1)
        assert cat.shape == (2, 5)

    def test_where_selects(self):
        cond = np.array([True, False, True])
        out = where(cond, t([1.0, 1.0, 1.0]), t([5.0, 5.0, 5.0]))
        assert np.allclose(out.data, [1, 5, 1])

    def test_detach_cuts_graph(self):
        x = t([1.0, 2.0])
        y = x.detach()
        assert not y.requires_grad

    def test_no_grad_context(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            y = t([1.0]) * t([2.0])
            assert not y.requires_grad
        assert is_grad_enabled()

    def test_backward_requires_scalar(self):
        x = t(np.ones((2, 2)))
        with pytest.raises(ValueError):
            (x * 2).backward()


class TestGradients:
    """Finite-difference checks of every backward rule used by the models."""

    rng = np.random.default_rng(42)

    def test_add_mul_sub_div(self):
        a = t(self.rng.standard_normal((3, 4)))
        b = t(self.rng.standard_normal((3, 4)) + 3.0)
        gradcheck(lambda x, y: ((x + y) * (x - y) / y).sum(), [a, b])

    def test_broadcast_grad(self):
        a = t(self.rng.standard_normal((3, 4)))
        b = t(self.rng.standard_normal((4,)))
        gradcheck(lambda x, y: (x * y + y).sum(), [a, b])

    def test_matmul_2d(self):
        a = t(self.rng.standard_normal((3, 4)))
        b = t(self.rng.standard_normal((4, 2)))
        gradcheck(lambda x, y: (x @ y).sum(), [a, b])

    def test_matmul_batched_3d(self):
        a = t(self.rng.standard_normal((2, 3, 4)))
        b = t(self.rng.standard_normal((2, 4, 2)))
        gradcheck(lambda x, y: (x @ y).sum(), [a, b])

    def test_matmul_shared_right_operand(self):
        """``(..., n, k) @ (k, m)`` runs as one flattened GEMM; the weights
        make the output gradient non-uniform so a mis-ordered flatten shows."""
        b = t(self.rng.standard_normal((4, 2)))
        weights = Tensor(self.rng.standard_normal((2, 3, 2)))
        a = t(self.rng.standard_normal((2, 3, 4)))
        gradcheck(lambda x, y: ((x @ y) * weights).sum(), [a, b])
        # swapaxes-strided input (the mixer's token-mixing layout)
        strided = t(self.rng.standard_normal((2, 4, 3)))
        gradcheck(lambda x, y: ((x.swapaxes(1, 2) @ y) * weights).sum(),
                  [strided, b])
        # a strided incoming gradient as well
        gradcheck(lambda x, y: ((x @ y).swapaxes(1, 2)
                                * weights.swapaxes(1, 2)).sum(), [a, b])
        deep = t(self.rng.standard_normal((2, 1, 3, 4)))
        gradcheck(lambda x, y: ((x @ y) ** 2).sum(), [deep, b])
        # the weight gradient is the sum over every leading row
        a.zero_grad(), b.zero_grad()
        (a @ b).sum().backward()
        assert np.allclose(b.grad, np.einsum("rnk,rnm->km", a.data,
                                             np.ones((2, 3, 2))))
        assert b.grad.shape == (4, 2) and a.grad.shape == (2, 3, 4)

    def test_matmul_vector_cases(self):
        a = t(self.rng.standard_normal((3, 4)))
        v = t(self.rng.standard_normal(4))
        gradcheck(lambda x, y: (x @ y).sum(), [a, v])
        w = t(self.rng.standard_normal(3))
        gradcheck(lambda x, y: (x @ y).sum(), [w, a])

    def test_reductions(self):
        a = t(self.rng.standard_normal((3, 4, 2)))
        gradcheck(lambda x: x.sum(axis=1).sum(), [a])
        gradcheck(lambda x: x.mean(axis=(0, 2)).sum(), [a])
        gradcheck(lambda x: x.mean().reshape(1), [a])

    def test_activations(self):
        a = t(self.rng.standard_normal((4, 5)))
        gradcheck(lambda x: x.sigmoid().sum(), [a])
        gradcheck(lambda x: x.tanh().sum(), [a])
        gradcheck(lambda x: x.gelu().sum(), [a])
        gradcheck(lambda x: x.leaky_relu(0.2).sum(), [a])

    def test_exp_log_sqrt(self):
        a = t(np.abs(self.rng.standard_normal((3, 3))) + 0.5)
        gradcheck(lambda x: (x.exp() + x.log() + x.sqrt()).sum(), [a])

    def test_softmax_and_logsoftmax(self):
        a = t(self.rng.standard_normal((3, 5)))
        gradcheck(lambda x: (x.softmax(-1) * np.arange(5)).sum(), [a])

    def test_getitem_accumulates_repeated_indices(self):
        a = t(np.ones(4))
        idx = np.array([0, 0, 1])
        out = a[idx].sum()
        out.backward()
        assert np.allclose(a.grad, [2, 1, 0, 0])

    def test_concatenate_grad(self):
        a = t(self.rng.standard_normal((2, 3)))
        b = t(self.rng.standard_normal((2, 2)))
        gradcheck(lambda x, y: (concatenate([x, y], axis=1) ** 2).sum(), [a, b])

    def test_transpose_reshape_grad(self):
        a = t(self.rng.standard_normal((2, 3, 4)))
        gradcheck(lambda x: (x.transpose(1, 0, 2).reshape(3, 8) ** 2).sum(), [a])

    def test_broadcast_to_grad(self):
        a = t(self.rng.standard_normal((1, 4)))
        gradcheck(lambda x: (x.broadcast_to((3, 4)) * np.arange(12).reshape(3, 4)).sum(), [a])

    def test_grad_accumulates_across_backwards(self):
        a = t(np.ones(3))
        (a * 2).sum().backward()
        (a * 3).sum().backward()
        assert np.allclose(a.grad, [5, 5, 5])
        a.zero_grad()
        assert a.grad is None


class TestFunctional:
    rng = np.random.default_rng(7)

    def test_bce_matches_manual(self):
        logits = t(self.rng.standard_normal(10))
        targets = Tensor((self.rng.random(10) > 0.5).astype(float))
        loss = F.binary_cross_entropy_with_logits(logits, targets)
        p = 1 / (1 + np.exp(-logits.data))
        manual = -(targets.data * np.log(p) + (1 - targets.data) * np.log(1 - p)).mean()
        assert np.isclose(float(loss.data), manual)

    def test_bce_gradcheck(self):
        logits = t(self.rng.standard_normal(6))
        targets = Tensor((self.rng.random(6) > 0.5).astype(float))
        gradcheck(lambda x: F.binary_cross_entropy_with_logits(x, targets), [logits])

    def test_bce_reductions(self):
        logits = t(self.rng.standard_normal(5))
        targets = Tensor(np.ones(5))
        none = F.binary_cross_entropy_with_logits(logits, targets, reduction="none")
        assert none.shape == (5,)
        total = F.binary_cross_entropy_with_logits(logits, targets, reduction="sum")
        assert np.isclose(float(total.data), float(none.data.sum()))
        with pytest.raises(ValueError):
            F.binary_cross_entropy_with_logits(logits, targets, reduction="bogus")

    def test_layer_norm_statistics(self):
        x = t(self.rng.standard_normal((6, 8)) * 3 + 2)
        w, b = Tensor(np.ones(8)), Tensor(np.zeros(8))
        out = F.layer_norm(x, w, b).data
        assert np.allclose(out.mean(axis=-1), 0, atol=1e-6)
        assert np.allclose(out.std(axis=-1), 1, atol=1e-2)

    def test_layer_norm_gradcheck(self):
        x = t(self.rng.standard_normal((3, 5)))
        w = t(self.rng.standard_normal(5))
        b = t(self.rng.standard_normal(5))
        gradcheck(lambda a, ww, bb: F.layer_norm(a, ww, bb).sum(), [x, w, b])

    def test_dropout_train_vs_eval(self):
        x = Tensor(np.ones((100, 10)))
        out_eval = F.dropout(x, 0.5, training=False)
        assert np.allclose(out_eval.data, 1.0)
        out_train = F.dropout(x, 0.5, training=True, rng=np.random.default_rng(0))
        kept = out_train.data != 0
        assert 0.3 < kept.mean() < 0.7
        # Inverted scaling keeps the expectation.
        assert np.isclose(out_train.data[kept].mean(), 2.0)

    def test_dropout_needs_an_explicit_rng(self):
        x = Tensor(np.ones((4, 3)))
        with pytest.raises(ValueError, match="rng"):
            F.dropout(x, 0.5, training=True)
        # inactive dropout draws nothing, so it needs no generator
        assert F.dropout(x, 0.5, training=False) is x
        assert F.dropout(x, 0.0, training=True) is x

    def test_masked_softmax_zeroes_invalid(self):
        scores = t(self.rng.standard_normal((3, 4)))
        mask = np.array([[True, True, False, False],
                         [True, True, True, True],
                         [False, False, False, False]])
        probs = F.masked_softmax(scores, mask)
        assert np.allclose(probs.data[0, 2:], 0)
        assert np.allclose(probs.data[0].sum(), 1)
        assert np.allclose(probs.data[2], 0)


# ---------------------------------------------------------------------------
# composite kernels: one node each, checked against the composed primitives
# ---------------------------------------------------------------------------

def composed_layer_norm(x, weight, bias, eps=1e-5):
    """Oracle: layer norm composed from Tensor primitives (the runtime's
    implementation before it became one node)."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    normed = centered / (var + eps).sqrt()
    return normed * weight + bias


def composed_linear(x, weight, bias=None):
    """Oracle: ``x @ W^T + b`` composed from Tensor primitives."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def composed_mixer_block(block, x, mask=None):
    """Oracle: the MLP-Mixer block composed from its ``LayerNorm`` /
    ``FeedForward`` modules and Tensor primitives (``MixerBlock.forward``
    before it became one node)."""
    fmask = None
    if mask is not None:
        fmask = Tensor(np.asarray(mask, dtype=np.float64)[..., None])
        x = x * fmask
    # Token mixing: transpose to (batch, dim, tokens), MLP over tokens.
    h = block.token_norm(x).swapaxes(1, 2)
    h = block.token_mlp(h).swapaxes(1, 2)
    x = x + h
    # Channel mixing.
    x = x + block.channel_mlp(block.channel_norm(x))
    if fmask is not None:
        x = x * fmask
    return x


def make_mixer(rng, tokens, dim, token_expansion=0.5, channel_expansion=1.0,
               dropout=0.0):
    """A block whose norms and biases are off their identity initialisation,
    so every one of the twelve parameters shapes the output."""
    block = MixerBlock(tokens, dim, token_expansion, channel_expansion,
                       dropout=dropout, rng=np.random.default_rng(5))
    for p in block.parameters():
        p.data = p.data + 0.3 * rng.standard_normal(p.data.shape)
    return block


def run_mixer(forward, block, x_data, mask, coeff, x_grad=True, transposed_g=False):
    """Output, ``x.grad`` and the parameter gradients of ``forward(block, x,
    mask)`` under a random coefficient loss.  ``transposed_g`` routes the loss
    through a transpose, so the block's node receives a non-contiguous ``g``."""
    block.zero_grad()
    x = t(x_data.copy(), grad=x_grad)
    out = forward(block, x, mask)
    if transposed_g:
        (out.transpose(2, 0, 1) * Tensor(coeff.transpose(2, 0, 1))).sum().backward()
    else:
        (out * Tensor(coeff)).sum().backward()
    return out, x.grad, [p.grad for p in block.parameters()]


def node_mixer_block(block, x, mask=None):
    return block(x, mask=mask)


def assert_mixer_agrees(got, want):
    """Composed-oracle equality of output, ``x.grad`` and parameter gradients."""
    (got_out, got_gx, got_gp), (want_out, want_gx, want_gp) = got, want
    np.testing.assert_allclose(got_out.data, want_out.data, rtol=1e-9, atol=1e-10)
    for got_g, want_g in zip([got_gx] + got_gp, [want_gx] + want_gp):
        if want_g is None:
            assert got_g is None
        else:
            np.testing.assert_allclose(got_g, want_g, rtol=1e-9, atol=1e-10)


def scaled_dot_product_attention(q, k, v, mask=None):
    """Oracle: attention of a ``(..., 1, d)`` query over the second-to-last
    axis of ``k`` / ``v``; boolean ``mask`` ``(..., n)`` entries that are
    False get zero weight.  Returns ``(output (..., 1, dv), weights)``."""
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(q.shape[-1]))
    if mask is not None:
        attn = F.masked_softmax(scores, np.asarray(mask, dtype=bool)[..., None, :], axis=-1)
    else:
        attn = scores.softmax(axis=-1)
    return attn @ v, attn


def composed_attention(att, query, messages, mask=None):
    """Oracle: ``TemporalAttention.forward`` before TGAT's aggregate became
    one node — ``(B, query_dim)`` query over ``(B, n, message_dim)`` messages;
    returns ``(output (B, out_dim), attention (B, heads, n))``."""
    batch, n, _ = messages.shape

    def split_heads(x, length):                 # (B, L, H*Dh) -> (B, H, L, Dh)
        return x.reshape(batch, length, att.num_heads, att.head_dim).transpose(0, 2, 1, 3)

    q = split_heads(att.w_q(query).reshape(batch, 1, att.out_dim), 1)
    k = split_heads(att.w_k(messages), n)
    v = split_heads(att.w_v(messages), n)
    head_mask = None
    if mask is not None:
        head_mask = np.broadcast_to(np.asarray(mask, dtype=bool)[:, None, :],
                                    (batch, att.num_heads, n))
    out, attn = scaled_dot_product_attention(q, k, v, mask=head_mask)
    out = out.transpose(0, 2, 1, 3).reshape(batch, att.out_dim)
    return att.drop(att.w_out(out)), attn.reshape(batch, att.num_heads, n)


def build_messages(h_neighbors, edge_feat, time_enc, gate=None):
    """Oracle: the neighbor messages ``m_u = h_u || x_uvt || Phi(dt)`` (Eq.
    1), ``(R, n, d_h + d_e + d_t)``, times the ``(R, n)`` gate when given —
    what both backbones' aggregates built before each became one node."""
    parts = [h_neighbors]
    if edge_feat is not None:
        parts.append(Tensor(edge_feat))
    parts.append(time_enc)
    messages = concatenate(parts, axis=-1)
    if gate is not None:
        messages = messages * gate.reshape(*gate.shape, 1)
    return messages


def composed_temporal_attention(model, layer, h_target, h_neighbors, hop):
    """Oracle: ``TGAT.aggregate`` composed from the time encoder, the
    concatenated ``(R, n, d_h + d_e + d_t)`` messages, the attention above and
    the merge ``Linear`` modules, on an explicit all-zero layer-0 state.
    Returns ``(output, attention weights)``."""
    tgat_layer = model.layers[layer - 1]
    rows, n = hop.num_targets, hop.budget
    if h_target is None:
        h_target = Tensor(np.zeros((rows, model.hidden_dim)))
    if h_neighbors is None:
        h_neighbors = Tensor(np.zeros((rows, n, model.hidden_dim)))
    time_enc = model.time_encoder(hop.batch.delta_t())
    zero_enc = model.time_encoder(np.zeros(rows))
    query = concatenate([h_target, zero_enc], axis=-1)
    messages = build_messages(h_neighbors, hop.edge_feat, time_enc, gate=hop.gate)
    attended, attn = composed_attention(tgat_layer.attention, query, messages,
                                        mask=hop.batch.mask)
    merged = concatenate([attended, h_target], axis=-1)
    hidden = tgat_layer.drop(tgat_layer.merge1(merged).relu())
    return tgat_layer.merge2(hidden), attn.data


def node_temporal_attention(model, layer, h_target, h_neighbors, hop):
    out = model.aggregate(layer, h_target, h_neighbors, hop)
    return out, model.layers[layer - 1].last_attention


def composed_graphmixer_aggregate(model, layer, h_target, h_neighbors, hop):
    """Oracle: ``GraphMixer.aggregate`` before it became one node — the fixed
    time encoding, the concatenated messages through ``message_proj``, the
    mixer block, a token sum over the valid count and ``out_proj`` over
    ``pooled || h_target``, on an explicit all-zero layer-0 state.  Returns
    ``(output, None)``."""
    rows, n = hop.num_targets, hop.budget
    if h_target is None:
        h_target = Tensor(np.zeros((rows, model.hidden_dim)))
    if h_neighbors is None:
        h_neighbors = Tensor(np.zeros((rows, n, model.hidden_dim)))
    time_enc = model.time_encoder(hop.batch.delta_t())
    messages = build_messages(h_neighbors, hop.edge_feat, time_enc, gate=hop.gate)
    mixed = model.mixer(model.message_proj(messages), mask=hop.batch.mask)
    count = np.maximum(hop.batch.mask.sum(axis=1, keepdims=True), 1)
    pooled = mixed.sum(axis=1) / Tensor(count.astype(mixed.dtype))
    return model.out_proj(concatenate([pooled, h_target], axis=-1)), None


def node_graphmixer_aggregate(model, layer, h_target, h_neighbors, hop):
    return model.aggregate(layer, h_target, h_neighbors, hop), None


def make_graphmixer(rng, node_dim=0, edge_dim=6, hidden=8, time_dim=4, n=4, dropout=0.0):
    """A GraphMixer whose biases and norms are off their initialisation, so
    every parameter shapes the output."""
    model = GraphMixer(node_dim, edge_dim, hidden_dim=hidden, time_dim=time_dim,
                       num_neighbors=n, dropout=dropout, rng=np.random.default_rng(5))
    for p in model.parameters():
        p.data = p.data + 0.3 * rng.standard_normal(p.data.shape)
    return model


def composed_edge_predictor(predictor, h_src, h_dst):
    """Oracle: ``EdgePredictor.forward`` before it became one node."""
    hidden = (predictor.src_proj(h_src) + predictor.dst_proj(h_dst)).relu()
    return predictor.out(hidden).reshape(-1)


def make_tgat(rng, hidden=8, edge_dim=6, time_dim=4, num_heads=2, dropout=0.0,
              num_layers=1):
    """A TGAT whose biases are off their zero initialisation, so every
    parameter shapes the output."""
    model = TGAT(0, edge_dim, hidden_dim=hidden, time_dim=time_dim, num_layers=num_layers,
                 num_heads=num_heads, dropout=dropout, rng=np.random.default_rng(5))
    for p in model.parameters():
        p.data = p.data + 0.3 * rng.standard_normal(p.data.shape)
    return model


def make_hop(rng, rows, n, edge_dim, gate=True, dead_rows=1):
    """A padded hop: ~30 % of the slots invalid, the first ``dead_rows`` rows
    without any valid neighbor, and a gate off its all-ones initialisation."""
    mask = rng.random((rows, n)) >= 0.3
    mask[:dead_rows] = False
    hop = HopData(
        batch=NeighborBatch(
            root_nodes=rng.integers(0, 10, rows), root_times=np.full(rows, 100.0),
            nodes=np.where(mask, rng.integers(1, 9, (rows, n)), 0),
            eids=np.where(mask, rng.integers(1, 99, (rows, n)), 0),
            times=np.where(mask, rng.uniform(1.0, 99.0, (rows, n)), 0.0), mask=mask),
        edge_feat=rng.standard_normal((rows, n, edge_dim)) * mask[..., None]
        if edge_dim else None)
    if gate:
        hop.gate = t(1.0 + 0.2 * rng.standard_normal((rows, n)))
    return hop


def run_aggregate(forward, model, hop, h_target, h_neighbors, coeff):
    """Output, attention weights and the gradients of the states, the gate
    and every parameter of ``forward(model, 1, h_target, h_neighbors, hop)``
    under a random coefficient loss (states given as arrays or ``None``)."""
    model.zero_grad()
    if hop.gate is not None:
        hop.gate.zero_grad()
    states = [None if h is None else t(h.copy()) for h in (h_target, h_neighbors)]
    out, attn = forward(model, 1, *states, hop)
    (out * Tensor(coeff)).sum().backward()
    grads = [None if s is None else s.grad for s in states]
    grads.append(hop.gate_sensitivity())
    return out.data, attn, grads + [p.grad for p in model.parameters()]


def assert_aggregate_agrees(got, want):
    """Composed-oracle equality of output, attention weights and gradients.
    ``atol`` covers ``w_k.bias``: its true gradient is zero (the softmax
    cancels it), where the composition leaves rounding noise."""
    for got_a, want_a in zip(got[:2], want[:2]):
        if want_a is None:                         # GraphMixer reports no attention
            assert got_a is None
            continue
        np.testing.assert_allclose(got_a, want_a, rtol=1e-10, atol=1e-12)
    assert len(got[2]) == len(want[2])
    for got_g, want_g in zip(got[2], want[2]):
        if want_g is None:
            assert got_g is None
        else:
            np.testing.assert_allclose(got_g, want_g, rtol=1e-9, atol=1e-12)


#: (input shape, swapaxes-strided): 2-D, 3-D, and the token-mixing layout.
LAYOUTS = [((6, 5), False), ((4, 3, 5), False), ((4, 5, 3), True)]


def arrays_of(obj):
    """The ndarrays (and ``None`` slots) of a kernel's arguments or result,
    nested tuples and lists flattened in order."""
    if isinstance(obj, (tuple, list)):
        return [a for item in obj for a in arrays_of(item)]
    return [obj] if obj is None or isinstance(obj, np.ndarray) else []


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def _backprop(out, rng):
    (out * Tensor(rng.standard_normal(out.shape))).sum().backward()


def _drive_linear(rng):
    _backprop(F.linear(t(rng.standard_normal((2, 5, 4))), t(rng.standard_normal((3, 4))),
                       t(rng.standard_normal(3))), rng)


def _drive_layer_norm(rng):
    _backprop(F.layer_norm(t(rng.standard_normal((2, 5, 4))), t(rng.standard_normal(4)),
                           t(rng.standard_normal(4))), rng)


def _drive_mixer_block(rng):
    block = make_mixer(rng, 4, 6)
    _backprop(block(t(rng.standard_normal((3, 4, 6))), mask=rng.random((3, 4)) < 0.7), rng)


def _drive_aggregate(make_model):
    def drive(rng):
        model = make_model(rng)
        hop = make_hop(rng, 5, 4, 6)
        out = model.aggregate(1, t(rng.standard_normal((5, 8))),
                              t(rng.standard_normal((5, 4, 8))), hop)
        _backprop(out, rng)
    return drive


def _drive_sampler(rng):
    """One adaptive-sampler hop: encode -> mixer block -> decoder -> head."""
    rows, m = 6, 8
    mask = rng.random((rows, m)) < 0.6
    mask[:, 0] = True
    cand = NeighborBatch(
        root_nodes=rng.integers(0, 9, rows), root_times=rng.uniform(50.0, 60.0, rows),
        nodes=np.where(mask, rng.integers(1, 5, (rows, m)), 0),
        eids=np.where(mask, rng.integers(1, 99, (rows, m)), 0),
        times=np.where(mask, rng.uniform(1.0, 49.0, (rows, m)), 0.0), mask=mask)
    sampler = AdaptiveNeighborSampler(0, 6, m, seed=3)
    selection = sampler(cand, 3, edge_feat=rng.standard_normal((rows, m, 6)) * mask[..., None],
                        rng=np.random.default_rng(4))
    _backprop(selection.log_prob, rng)


#: per composite kernel pair: one forward and backward through its node.
PURITY_DRIVES = {
    "linear": _drive_linear,
    "layer_norm": _drive_layer_norm,
    "mixer_block": _drive_mixer_block,
    "temporal_attention": _drive_aggregate(make_tgat),
    "graphmixer_aggregate": _drive_aggregate(make_graphmixer),
    "sampler_encode": _drive_sampler,
    "sampler_head": _drive_sampler,
}


class TestCompositeKernels:
    def setup_method(self):
        self.rng = np.random.default_rng(7)

    def _run(self, fn, arrays, grads, strided, coeff):
        """Forward value and input gradients of ``fn`` under a random
        coefficient loss; ``grads[i]`` says whether input ``i`` requires one."""
        inputs = [None if a is None else t(a.copy(), grad=g)
                  for a, g in zip(arrays, grads)]
        x = inputs[0].swapaxes(1, 2) if strided else inputs[0]
        out = fn(x, *inputs[1:])
        (out * Tensor(coeff)).sum().backward()
        return out.data, [None if i is None else i.grad for i in inputs]

    def _assert_agree(self, node, oracle, arrays, grads, strided, out_shape):
        coeff = self.rng.standard_normal(out_shape)
        got, got_grads = self._run(node, arrays, grads, strided, coeff)
        want, want_grads = self._run(oracle, arrays, grads, strided, coeff)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for got_g, want_g, needed in zip(got_grads, want_grads, grads):
            if not needed:
                assert got_g is None
            else:
                np.testing.assert_allclose(got_g, want_g, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape,strided", LAYOUTS)
    @pytest.mark.parametrize("x_grad", [True, False])
    def test_layer_norm_matches_composed(self, shape, strided, x_grad):
        logical = (shape[0], shape[2], shape[1]) if strided else shape
        dim = logical[-1]
        arrays = [self.rng.standard_normal(shape) * 2 + 1,
                  self.rng.standard_normal(dim), self.rng.standard_normal(dim)]
        self._assert_agree(F.layer_norm, composed_layer_norm, arrays,
                           [x_grad, True, True], strided, logical)

    @pytest.mark.parametrize("shape,strided", LAYOUTS)
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("x_grad", [True, False])
    def test_linear_matches_composed(self, shape, strided, bias, x_grad):
        logical = (shape[0], shape[2], shape[1]) if strided else shape
        arrays = [self.rng.standard_normal(shape),
                  self.rng.standard_normal((4, logical[-1])),
                  self.rng.standard_normal(4) if bias else None]
        self._assert_agree(F.linear, composed_linear, arrays,
                           [x_grad, True, bias], strided, logical[:-1] + (4,))

    def test_each_is_one_graph_node(self):
        x = t(self.rng.standard_normal((2, 3, 5)))
        w, b = t(self.rng.standard_normal((4, 5))), t(self.rng.standard_normal(4))
        out = F.linear(x, w, b)
        assert out._op == "linear" and out._prev == (x, w, b)
        gain, shift = t(np.ones(5)), t(np.zeros(5))
        out = F.layer_norm(x, gain, shift)
        assert out._op == "layer_norm" and out._prev == (x, gain, shift)
        # (..., n, k) @ (k, m) is the same node behind a transposed weight.
        right = t(self.rng.standard_normal((5, 4)))
        out = x @ right
        assert out._op == "linear" and out._prev[0] is x
        np.testing.assert_allclose(out.data, x.data @ right.data, atol=1e-12)

    def test_gradcheck(self):
        x = t(self.rng.standard_normal((2, 4, 3)))
        coeff = Tensor(self.rng.standard_normal((2, 3, 4)))
        w, b = t(self.rng.standard_normal(4)), t(self.rng.standard_normal(4))
        gradcheck(lambda a, ww, bb: F.layer_norm(a.swapaxes(1, 2), ww, bb) * coeff,
                  [x, w, b])
        w, b = t(self.rng.standard_normal((4, 4))), t(self.rng.standard_normal(4))
        gradcheck(lambda a, ww, bb: F.linear(a.swapaxes(1, 2), ww, bb) * coeff,
                  [x, w, b])
        gradcheck(lambda a, ww: F.linear(a.swapaxes(1, 2), ww) * coeff, [x, w])

    def test_backward_kernels_leave_g_untouched(self):
        from repro.tensor.backend import get_backend
        B = get_backend()
        x = self.rng.standard_normal((4, 3, 5))
        w, b = self.rng.standard_normal(5), self.rng.standard_normal(5)
        g = self.rng.standard_normal((4, 3, 5))
        saved = g.copy()
        _, xhat, rstd = B.layer_norm_forward(x, w, b, 1e-5)
        gx, _, _ = B.layer_norm_backward(g, xhat, rstd, w, True)
        assert np.array_equal(g, saved) and not np.shares_memory(gx, g)
        weight = self.rng.standard_normal((5, 5))
        ga, _, _ = B.linear_backward(g.reshape(-1, 5), x.reshape(-1, 5), weight,
                                     True, True, True)
        assert np.array_equal(g, saved) and not np.shares_memory(ga, g)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(0, 4), tokens=st.integers(1, 5), dim=st.integers(1, 6),
           token_expansion=st.sampled_from([0.1, 0.5, 2.0]),
           channel_expansion=st.sampled_from([0.1, 1.0, 2.0]),
           masked=st.booleans(), x_grad=st.booleans(), transposed_g=st.booleans(),
           frozen=st.sets(st.integers(0, 11)), seed=st.integers(0, 2 ** 16))
    def test_mixer_block_matches_composed(self, rows, tokens, dim, token_expansion,
                                          channel_expansion, masked, x_grad,
                                          transposed_g, frozen, seed):
        rng = np.random.default_rng(seed)
        block = make_mixer(rng, tokens, dim, token_expansion, channel_expansion)
        if not x_grad and len(frozen) == 12:
            frozen = frozen - {0}                  # keep a graph to differentiate
        for index, p in enumerate(block.parameters()):
            p.requires_grad = index not in frozen
        x = rng.standard_normal((rows, tokens, dim)) * 2 + 0.5
        mask = None
        if masked:
            mask = rng.random((rows, tokens)) < 0.6
            mask[:1] = False                       # a row with no valid token
        coeff = rng.standard_normal((rows, tokens, dim))
        got = run_mixer(node_mixer_block, block, x, mask, coeff, x_grad, transposed_g)
        want = run_mixer(composed_mixer_block, block, x, mask, coeff, x_grad, transposed_g)
        assert_mixer_agrees(got, want)
        for index, grad in enumerate(got[2]):
            assert (grad is None) == (index in frozen)
        assert (got[1] is None) == (not x_grad)

    def test_mixer_block_hidden_width_one(self):
        # max(1, int(tokens * expansion)) floors both hidden layers at one unit
        block = make_mixer(self.rng, 3, 4, token_expansion=0.1, channel_expansion=0.1)
        assert block.token_mlp.fc1.out_features == block.channel_mlp.fc1.out_features == 1
        x, coeff = self.rng.standard_normal((2, 5, 3, 4))
        assert_mixer_agrees(run_mixer(node_mixer_block, block, x, None, coeff),
                            run_mixer(composed_mixer_block, block, x, None, coeff))

    def test_mixer_block_is_one_graph_node(self):
        block = make_mixer(self.rng, 4, 6)
        x = t(self.rng.standard_normal((3, 4, 6)))
        out = block(x, mask=self.rng.random((3, 4)) < 0.7)
        assert out._op == "mixer_block"
        assert len(out._prev) == 13 and out._prev[0] is x
        assert all(a is b for a, b in zip(out._prev[1:], block.parameters()))

    def test_mixer_block_gradcheck(self):
        block = make_mixer(self.rng, 3, 4, channel_expansion=2.0)
        x = t(self.rng.standard_normal((2, 3, 4)))
        mask = np.array([[True, True, False], [True, False, True]])
        coeff = Tensor(self.rng.standard_normal((2, 3, 4)))
        params = block.parameters()
        gradcheck(lambda a, *ps: F.mixer_block(a, mask[..., None].astype(float), ps) * coeff,
                  [x, *params])
        gradcheck(lambda a, *ps: F.mixer_block(a, None, ps) * coeff, [x, *params])

    def test_mixer_block_backward_contract(self):
        """The kernel leaves ``g`` untouched, computes only the gradients
        asked for, and keeps its saved activations intact for a repeated
        ``backward()``."""
        B = get_backend()
        block = make_mixer(self.rng, 4, 6)
        params = [p.data for p in block.parameters()]
        x = self.rng.standard_normal((5, 4, 6))
        fmask = (self.rng.random((5, 4, 1)) < 0.7).astype(np.float64)
        for mask in (fmask, None):
            _, saved = B.mixer_block_forward(x, mask, params, None, None, 1e-5, True)
            g = self.rng.standard_normal((5, 4, 6))
            kept = g.copy()
            grads = B.mixer_block_backward(g, saved, params, [True] * 13)
            assert g.tobytes() == kept.tobytes()
            assert not any(np.shares_memory(grad, g) for grad in grads)
            again = B.mixer_block_backward(g, saved, params, [True] * 13)
            for first, second in zip(grads, again):
                assert np.array_equal(first, second)
            need = [False, True, False, False, True, False, False,
                    True, False, False, False, True, False]
            some = B.mixer_block_backward(g, saved, params, need)
            for wanted, grad, full in zip(need, some, grads):
                assert (grad is not None) == wanted
                if wanted:
                    assert np.array_equal(grad, full)

    @pytest.mark.parametrize("live", [0, 2, 5])
    @pytest.mark.parametrize("masked", [True, False])
    def test_mixer_block_live_channels(self, live, masked):
        """``live_channels`` forms the input gradient's leading channels
        only — bitwise those of the full-width gradient — and leaves the
        others exactly zero; the parameter gradients do not move."""
        block = make_mixer(self.rng, 4, 6)
        x_data, coeff = self.rng.standard_normal((2, 3, 4, 6))
        mask = self.rng.random((3, 4)) < 0.7 if masked else None
        _, full, full_params = run_mixer(node_mixer_block, block, x_data, mask, coeff)
        _, part, part_params = run_mixer(
            lambda b, x, m: b(x, mask=m, live_channels=live), block, x_data, mask, coeff)
        if live == 0:
            assert part is None
        else:
            assert part.shape == full.shape
            assert part[..., :live].tobytes() == np.ascontiguousarray(
                full[..., :live]).tobytes()
            assert not part[..., live:].any()
        for got, want in zip(part_params, full_params):
            assert got.tobytes() == want.tobytes()
        # ``True`` is every channel, bitwise the same as the full count
        B, params = get_backend(), [p.data for p in block.parameters()]
        _, saved = B.mixer_block_forward(x_data, None, params, None, None, 1e-5, True)
        every = B.mixer_block_backward(coeff, saved, params, [True] * 13)[0]
        count = B.mixer_block_backward(coeff, saved, params, [6] + [True] * 12)[0]
        assert every.tobytes() == count.tobytes()

    @pytest.mark.parametrize("pair", sorted(PURITY_DRIVES))
    def test_backward_kernel_is_pure(self, pair, monkeypatch):
        """The backend's backward kernel of each composite node, called again
        on the ``saved`` of one real forward, returns bitwise the gradients
        of the node's own call and writes into neither ``g`` nor anything it
        reads: a graph is consumed by its backward, so this — not a second
        ``backward()`` — is what shows a kernel keeps no state between
        calls."""
        backend = get_backend()
        kernel = getattr(backend, f"{pair}_backward")
        calls = []

        def recording(*args):
            before = [None if a is None else a.copy() for a in arrays_of(args)]
            result = kernel(*args)
            calls.append((args, before, result))
            return result
        monkeypatch.setattr(backend, f"{pair}_backward", recording)
        PURITY_DRIVES[pair](self.rng)
        assert len(calls) == 1
        args, before, first = calls[0]
        again = [kernel(*args), kernel(*args)]
        for result in again:
            assert_same_arrays(arrays_of(result), arrays_of(first))
        assert_same_arrays(arrays_of(args), before)

    @pytest.mark.parametrize("rows", [3, 60])
    @pytest.mark.parametrize("masked", [True, False])
    def test_mixer_block_forward_only_and_rerun_bitwise(self, rows, masked):
        block = make_mixer(self.rng, 10, 34)
        x = self.rng.standard_normal((rows, 10, 34))
        mask = self.rng.random((rows, 10)) < 0.7 if masked else None
        coeff = self.rng.standard_normal((rows, 10, 34))
        out, gx, gp = run_mixer(node_mixer_block, block, x, mask, coeff)
        want = [out.data.copy(), gx.copy()] + [g.copy() for g in gp]
        with no_grad():
            quiet = block(Tensor(x), mask=mask)
        assert not quiet.requires_grad and quiet._prev == ()
        assert quiet.data.tobytes() == want[0].tobytes()
        out, gx, gp = run_mixer(node_mixer_block, block, x, mask, coeff)
        for got, ref in zip([out.data, gx] + gp, want):
            assert got.tobytes() == ref.tobytes()


class TestTemporalAttentionNode:
    """TGAT's aggregate as one graph node against its composition."""

    def setup_method(self):
        self.rng = np.random.default_rng(17)

    def _states(self, live, rows, n, hidden):
        if not live:
            return None, None
        return self.rng.standard_normal((rows, hidden)), \
            self.rng.standard_normal((rows, n, hidden))

    @pytest.mark.parametrize("live", [False, True])
    @pytest.mark.parametrize("gate", [False, True])
    @pytest.mark.parametrize("edge_dim", [0, 6])
    @pytest.mark.parametrize("num_heads", [1, 2])
    def test_matches_composed(self, live, gate, edge_dim, num_heads):
        model = make_tgat(self.rng, edge_dim=edge_dim, num_heads=num_heads)
        hop = make_hop(self.rng, 9, 4, edge_dim, gate=gate, dead_rows=2)
        states = self._states(live, 9, 4, 8)
        coeff = self.rng.standard_normal((9, 8))
        got = run_aggregate(node_temporal_attention, model, hop, *states, coeff)
        want = run_aggregate(composed_temporal_attention, model, hop, *states, coeff)
        assert_aggregate_agrees(got, want)
        # rows without a valid neighbor attend to nothing
        assert not got[1][:2].any()
        assert np.allclose(got[1][2:].sum(axis=-1), hop.batch.mask[2:].any(axis=1)[:, None])
        assert (got[2][2] is None) == (not gate)

    @pytest.mark.parametrize("live", [False, True])
    @pytest.mark.parametrize("edge_dim,num_heads", [(0, 2), (3, 1), (3, 2)])
    def test_gradcheck(self, live, edge_dim, num_heads):
        model = make_tgat(self.rng, hidden=4, edge_dim=edge_dim, time_dim=2,
                          num_heads=num_heads)
        hop = make_hop(self.rng, 3, 3, edge_dim)
        hop.batch.times[hop.batch.mask] = self.rng.uniform(97.0, 99.5, hop.batch.mask.sum())
        states = [None if h is None else t(h) for h in self._states(live, 3, 3, 4)]
        given = [s for s in states if s is not None]
        params = model.parameters()
        coeff = Tensor(self.rng.standard_normal((3, 4)))

        def forward(gate, *rest):
            h = list(rest[:len(given)]) if live else [None, None]
            return F.temporal_attention(
                hop.batch.delta_t(), hop.batch.mask, hop.edge_feat, *h, gate,
                rest[len(given):], num_heads)[0] * coeff
        gradcheck(forward, [hop.gate, *given, *params])

    def test_is_one_graph_node(self):
        model = make_tgat(self.rng)
        hop = make_hop(self.rng, 5, 3, 6)
        h_target, h_neighbors = (t(h) for h in self._states(True, 5, 3, 8))
        out = model.aggregate(1, h_target, h_neighbors, hop)
        assert out._op == "temporal_attention"
        assert out._prev[:3] == (h_target, h_neighbors, hop.gate)
        assert all(a is b for a, b in zip(out._prev[3:], model.parameters()))
        # the zero state and an absent gate are no parents at all
        hop.gate = None
        out = model.aggregate(1, None, None, hop)
        assert all(a is b for a, b in zip(out._prev, model.parameters()))
        assert len(out._prev) == 14

    def test_gate_sensitivity_end_to_end(self, monkeypatch):
        """Two layers, both hops gated: the gate gradients the sample loss
        reads, through the node and through the composition."""
        model = make_tgat(self.rng, num_layers=2)
        hops = [make_hop(self.rng, 6, 3, 6), make_hop(self.rng, 18, 3, 6)]
        coeff = Tensor(self.rng.standard_normal((6, 8)))

        def sensitivities():
            model.zero_grad()
            for hop in hops:
                hop.gate.zero_grad()
            out = embed_recursive(model, 2, None, 6, hops)
            (out * coeff).sum().backward()
            return [out.data] + [hop.gate_sensitivity().copy() for hop in hops] \
                + [model.last_layer_attention()]

        got = sensitivities()
        monkeypatch.setattr(
            model, "aggregate",
            lambda *args: composed_temporal_attention(model, *args)[0])
        # the composition never reports its attention: read it from the node's
        want = sensitivities()[:3]
        for got_a, want_a in zip(got, want):
            np.testing.assert_allclose(got_a, want_a, rtol=1e-9, atol=1e-12)
        assert got[1][hops[0].batch.mask].all() and got[2][hops[1].batch.mask].any()
        assert got[3].shape == (6, 3)

    def test_dropout_consumes_the_composed_draws(self):
        """In training mode the node draws its two keep-masks from the layer's
        ``Dropout`` generator in the composed order and shapes, so it
        reproduces the composed output, gradients and generator state."""
        hop = make_hop(self.rng, 7, 4, 6)
        states = self._states(True, 7, 4, 8)
        coeff = self.rng.standard_normal((7, 8))
        results, rng_states = [], []
        for forward in (node_temporal_attention, composed_temporal_attention):
            model = TGAT(0, 6, hidden_dim=8, time_dim=4, num_layers=1, dropout=0.4,
                         rng=np.random.default_rng(11))
            layer = model.layers[0]
            assert layer.attention.drop._rng is layer.drop._rng
            results.append(run_aggregate(forward, model, hop, *states, coeff))
            rng_states.append(layer.drop._rng.bit_generator.state)
        assert_aggregate_agrees(*results)
        assert rng_states[0] == rng_states[1]
        # dropout was active: the eval-mode output differs, and draws nothing
        model.eval()
        quiet = model.aggregate(1, *(Tensor(h) for h in states), hop)
        assert not np.allclose(quiet.data, results[0][0])
        assert layer.drop._rng.bit_generator.state == rng_states[1]

    @pytest.mark.parametrize("rows", [4, 900])
    @pytest.mark.parametrize("live", [False, True])
    def test_forward_only_and_rerun_bitwise(self, rows, live):
        model = make_tgat(self.rng, hidden=32, edge_dim=32, time_dim=16)
        hop = make_hop(self.rng, rows, 5, 32)
        states = self._states(live, rows, 5, 32)
        coeff = self.rng.standard_normal((rows, 32))
        out, attn, grads = run_aggregate(node_temporal_attention, model, hop, *states, coeff)
        want = [out.copy(), attn.copy()] + [g.copy() for g in grads if g is not None]
        with no_grad():
            quiet = model.aggregate(1, *(None if h is None else t(h) for h in states), hop)
        assert not quiet.requires_grad and quiet._prev == () and quiet._backward is None
        assert quiet.data.tobytes() == want[0].tobytes()
        out, attn, grads = run_aggregate(node_temporal_attention, model, hop,
                                         *states, coeff)
        for got, ref in zip([out, attn] + [g for g in grads if g is not None], want):
            assert got.tobytes() == ref.tobytes()

    def test_backward_contract(self):
        """The kernel retains nothing forward-only, leaves ``g`` untouched,
        computes only the gradients asked for, and keeps its saved
        activations intact for a repeated ``backward()``."""
        B = get_backend()
        model = make_tgat(self.rng)
        params = [p.data for p in model.parameters()]
        hop = make_hop(self.rng, 6, 4, 6)
        h_target, h_neighbors = self._states(True, 6, 4, 8)
        inputs = (hop.batch.delta_t(), hop.batch.mask, hop.edge_feat, h_target,
                  h_neighbors, hop.gate.data, params, 2, None, None)
        out, attn, saved = B.temporal_attention_forward(*inputs, False)
        assert saved is None
        again, _, saved = B.temporal_attention_forward(*inputs, True)
        assert again.tobytes() == out.tobytes()
        g = self.rng.standard_normal((6, 8))
        kept = g.copy()
        grads = B.temporal_attention_backward(g, saved, params, [True] * 17)
        assert g.tobytes() == kept.tobytes()
        assert not any(np.shares_memory(grad, g) for grad in grads)
        repeat = B.temporal_attention_backward(g, saved, params, [True] * 17)
        for first, second in zip(grads, repeat):
            assert np.array_equal(first, second)
        need = [False, True, False] + [True, False] * 7
        some = B.temporal_attention_backward(g, saved, params, need)
        for wanted, grad, full in zip(need, some, grads):
            assert (grad is not None) == wanted
            if wanted:
                assert np.array_equal(grad, full)


class TestGraphMixerAggregateNode:
    """GraphMixer's aggregate as one graph node against its composition."""

    def setup_method(self):
        self.rng = np.random.default_rng(23)

    def _states(self, live, rows, n, hidden):
        if not live:
            return None, None
        return self.rng.standard_normal((rows, hidden)), \
            self.rng.standard_normal((rows, n, hidden))

    @pytest.mark.parametrize("live", [False, True])
    @pytest.mark.parametrize("gate", [False, True])
    @pytest.mark.parametrize("edge_dim", [0, 6])
    def test_matches_composed(self, live, gate, edge_dim):
        model = make_graphmixer(self.rng, edge_dim=edge_dim)
        hop = make_hop(self.rng, 9, 4, edge_dim, gate=gate, dead_rows=2)
        states = self._states(live, 9, 4, 8)
        coeff = self.rng.standard_normal((9, 8))
        got = run_aggregate(node_graphmixer_aggregate, model, hop, *states, coeff)
        want = run_aggregate(composed_graphmixer_aggregate, model, hop, *states, coeff)
        assert_aggregate_agrees(got, want)
        assert (got[2][2] is None) == (not gate)
        if not live:
            # the zero state's weight blocks: skipped, with exact-zero gradients
            message, out = model.message_proj.weight.grad, model.out_proj.weight.grad
            assert not message[:, :8].any() and not out[:, 8:].any()
            assert message[:, 8:].any() and out[:, :8].any()

    def test_node_features_without_edge_features(self):
        """The ``flights`` preset's shape: node features project into a live
        layer-0 state, and there are no edge features."""
        graph = load_dataset("flights", scale=0.02, seed=3)
        assert graph.node_dim > 0 and graph.edge_feat is None
        gen = MiniBatchGenerator(GPUNeighborFinder(build_tcsr(graph), policy="recent"),
                                 FeatureStore(graph), 1, 4, 4)
        idx = np.arange(graph.num_edges - 12, graph.num_edges)
        minibatch = gen.build(graph.src[idx], graph.ts[idx],
                              np.random.default_rng(0), train=True)
        minibatch.hops[0].make_gate()
        model = make_graphmixer(self.rng, node_dim=graph.node_dim, edge_dim=0)
        coeff = Tensor(self.rng.standard_normal((12, 8)))

        def run(aggregate):
            model.zero_grad()
            minibatch.hops[0].gate.zero_grad()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(model, "aggregate", aggregate)
                out = model.embed(minibatch, gen.hop_tile)
            (out * coeff).sum().backward()
            return [out.data, minibatch.hops[0].gate_sensitivity().copy()] + \
                [p.grad for p in model.parameters()]

        got = run(model.aggregate)
        want = run(lambda *args: composed_graphmixer_aggregate(model, *args)[0])
        assert model.node_proj.weight.grad is not None
        for got_a, want_a in zip(got, want):
            np.testing.assert_allclose(got_a, want_a, rtol=1e-9, atol=1e-12)

    def test_gradcheck(self):
        model = make_graphmixer(self.rng, hidden=4, edge_dim=3, time_dim=2, n=3)
        hop = make_hop(self.rng, 3, 3, 3)
        for live in (False, True):
            states = [None if h is None else t(h) for h in self._states(live, 3, 3, 4)]
            given = [s for s in states if s is not None]
            coeff = Tensor(self.rng.standard_normal((3, 4)))

            def forward(gate, *rest):
                h = list(rest[:len(given)]) if live else [None, None]
                return model.aggregate(1, *h, _with_gate(hop, gate)) * coeff
            gradcheck(forward, [hop.gate, *given, *model.parameters()],
                      atol=1e-4, rtol=1e-3)

    def test_is_one_graph_node(self):
        model = make_graphmixer(self.rng)
        hop = make_hop(self.rng, 5, 4, 6)
        h_target, h_neighbors = (t(h) for h in self._states(True, 5, 4, 8))
        out = model.aggregate(1, h_target, h_neighbors, hop)
        assert out._op == "graphmixer_aggregate"
        assert out._prev[:3] == (h_target, h_neighbors, hop.gate)
        assert all(a is b for a, b in zip(out._prev[3:], model.parameters()))
        # the zero state and an absent gate are no parents at all
        hop.gate = None
        out = model.aggregate(1, None, None, hop)
        assert all(a is b for a, b in zip(out._prev, model.parameters()))
        assert len(out._prev) == 16
        assert model.base_embedding(None, 5) is None

    def test_dropout_consumes_the_composed_draws(self):
        """In training mode the node draws the block's two keep-masks from
        its ``Dropout`` generators in the composed order and shapes, so it
        reproduces the composed output, gradients and generator state."""
        hop = make_hop(self.rng, 7, 4, 6)
        states = self._states(True, 7, 4, 8)
        coeff = self.rng.standard_normal((7, 8))
        results, rng_states = [], []
        for forward in (node_graphmixer_aggregate, composed_graphmixer_aggregate):
            model = GraphMixer(0, 6, hidden_dim=8, time_dim=4, num_neighbors=4,
                               dropout=0.4, rng=np.random.default_rng(11))
            drops = (model.mixer.token_mlp.drop, model.mixer.channel_mlp.drop)
            assert drops[0]._rng is drops[1]._rng
            results.append(run_aggregate(forward, model, hop, *states, coeff))
            rng_states.append(drops[0]._rng.bit_generator.state)
        assert_aggregate_agrees(*results)
        assert rng_states[0] == rng_states[1]
        model.eval()
        quiet = model.aggregate(1, *(Tensor(h) for h in states), hop)
        assert not np.allclose(quiet.data, results[0][0])
        assert drops[0]._rng.bit_generator.state == rng_states[1]

    @pytest.mark.parametrize("rows", [3, 600])
    @pytest.mark.parametrize("live", [False, True])
    def test_forward_only_and_rerun_bitwise(self, rows, live):
        model = make_graphmixer(self.rng, hidden=32, edge_dim=32, time_dim=16, n=5)
        hop = make_hop(self.rng, rows, 5, 32)
        states = self._states(live, rows, 5, 32)
        coeff = self.rng.standard_normal((rows, 32))
        out, _, grads = run_aggregate(node_graphmixer_aggregate, model, hop, *states, coeff)
        want = [out.copy()] + [g.copy() for g in grads if g is not None]
        with no_grad():
            quiet = model.aggregate(1, *(None if h is None else t(h) for h in states), hop)
        assert not quiet.requires_grad and quiet._prev == () and quiet._backward is None
        assert quiet.data.tobytes() == want[0].tobytes()
        out, _, grads = run_aggregate(node_graphmixer_aggregate, model, hop, *states, coeff)
        for got, ref in zip([out] + [g for g in grads if g is not None], want):
            assert got.tobytes() == ref.tobytes()

    def test_backward_contract(self):
        """The kernel retains nothing forward-only, leaves ``g`` untouched,
        computes only the gradients asked for, and keeps its saved
        activations intact for a repeated ``backward()``."""
        B = get_backend()
        model = make_graphmixer(self.rng)
        params = [p.data for p in model.parameters()]
        hop = make_hop(self.rng, 6, 4, 6)
        h_target, h_neighbors = self._states(True, 6, 4, 8)
        inputs = (hop.batch.delta_t(), hop.batch.mask, hop.edge_feat, h_target,
                  h_neighbors, hop.gate.data, params, model.time_encoder.omega,
                  None, None, 1e-5)
        out, saved = B.graphmixer_aggregate_forward(*inputs, False)
        assert saved is None
        again, saved = B.graphmixer_aggregate_forward(*inputs, True)
        assert again.tobytes() == out.tobytes()
        g = self.rng.standard_normal((6, 8))
        kept = g.copy()
        grads = B.graphmixer_aggregate_backward(g, saved, params, [True] * 19)
        assert g.tobytes() == kept.tobytes()
        assert not any(np.shares_memory(grad, g) for grad in grads)
        repeat = B.graphmixer_aggregate_backward(g, saved, params, [True] * 19)
        for first, second in zip(grads, repeat):
            assert np.array_equal(first, second)
        need = [False, True, False] + [True, False] * 8
        some = B.graphmixer_aggregate_backward(g, saved, params, need)
        for wanted, grad, full in zip(need, some, grads):
            assert (grad is not None) == wanted
            if wanted:
                assert np.array_equal(grad, full)


def _with_gate(hop, gate):
    """``hop`` with ``gate`` as its gate tensor (gradcheck perturbs it)."""
    hop.gate = gate
    return hop


class TestEdgePredictorNode:
    """The edge predictor as one graph node: bitwise its composition."""

    def setup_method(self):
        self.rng = np.random.default_rng(29)

    def _train_step(self, forward, predictor, emb, targets):
        """The trainer's use: positives and negatives share the source rows."""
        predictor.zero_grad()
        emb = Tensor(emb.copy(), requires_grad=True)
        b = targets.size // 2
        logits = concatenate([forward(predictor, emb[:b], emb[b:2 * b]),
                              forward(predictor, emb[:b], emb[2 * b:])], axis=0)
        loss = F.binary_cross_entropy_with_logits(logits, Tensor(targets))
        loss.backward()
        return [logits.data, emb.grad] + [p.grad for p in predictor.parameters()]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("rows", [1, 7, 300])
    def test_matches_composed_bitwise(self, dtype, rows):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(repro_tensor, "COMPUTE_DTYPE", dtype)
            predictor = EdgePredictor(16, rng=np.random.default_rng(rows))
        emb = self.rng.standard_normal((3 * rows, 16)).astype(dtype)
        targets = np.concatenate([np.ones(rows), np.zeros(rows)]).astype(dtype)
        got = self._train_step(lambda p, a, b: p(a, b), predictor, emb, targets)
        want = self._train_step(composed_edge_predictor, predictor, emb, targets)
        for got_a, want_a in zip(got, want):
            assert got_a.dtype == dtype and np.array_equal(got_a, want_a)
        with no_grad():
            quiet = predictor(Tensor(emb[:rows]), Tensor(emb[rows:2 * rows]))
        assert quiet._prev == () and np.array_equal(quiet.data, got[0][:rows])

    def test_is_one_graph_node_and_frozen_parameters(self):
        predictor = EdgePredictor(6, hidden_dim=5, rng=np.random.default_rng(1))
        h_src, h_dst = t(self.rng.standard_normal((4, 6))), t(self.rng.standard_normal((4, 6)))
        out = predictor(h_src, h_dst)
        assert out._op == "edge_predictor" and out.shape == (4,)
        assert out._prev[:2] == (h_src, h_dst)
        assert all(a is b for a, b in zip(out._prev[2:], predictor.parameters()))
        frozen = predictor.parameters()[::2]
        for p in frozen:
            p.requires_grad = False
        h_dst.requires_grad = False
        predictor(h_src, h_dst).sum().backward()
        assert h_src.grad is not None and h_dst.grad is None
        assert all((p.grad is None) == (p in frozen) for p in predictor.parameters())

    def test_gradcheck(self):
        predictor = EdgePredictor(4, hidden_dim=3, rng=np.random.default_rng(2))
        for p in predictor.parameters():                      # biases off zero
            p.data = p.data + 0.3 * self.rng.standard_normal(p.data.shape)
        h_src, h_dst = t(self.rng.standard_normal((5, 4))), t(self.rng.standard_normal((5, 4)))
        coeff = Tensor(self.rng.standard_normal(5))
        gradcheck(lambda a, b, *ps: F.edge_predictor(a, b, ps) * coeff,
                  [h_src, h_dst, *predictor.parameters()])
