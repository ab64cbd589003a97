"""Unit tests for the autograd engine: forward values and gradient rules."""

import numpy as np
import pytest

from repro.tensor import Tensor, concatenate, stack, where, no_grad, is_grad_enabled
from repro.tensor import functional as F
from repro.tensor.gradcheck import gradcheck


def t(arr, grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


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

    def test_log_softmax_consistency(self):
        x = t(np.random.default_rng(1).standard_normal((4, 6)))
        assert np.allclose(x.log_softmax(-1).data, np.log(x.softmax(-1).data))

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

    def test_concatenate_and_stack(self):
        a, b = t(np.ones((2, 3))), t(np.zeros((2, 2)))
        cat = concatenate([a, b], axis=1)
        assert cat.shape == (2, 5)
        st = stack([t(np.ones(3)), t(np.zeros(3))], axis=0)
        assert st.shape == (2, 3)

    def test_where_selects(self):
        cond = np.array([True, False, True])
        out = where(cond, t([1.0, 1.0, 1.0]), t([5.0, 5.0, 5.0]))
        assert np.allclose(out.data, [1, 5, 1])

    def test_max_and_clip(self):
        x = t([[1.0, 5.0], [3.0, 2.0]])
        assert np.allclose(x.max(axis=1).data, [5, 3])
        assert np.allclose(x.clip(1.5, 4.0).data, [[1.5, 4.0], [3.0, 2.0]])

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

    def test_trig(self):
        a = t(self.rng.standard_normal((3, 3)))
        gradcheck(lambda x: (x.cos() * x.sin()).sum(), [a])

    def test_softmax_and_logsoftmax(self):
        a = t(self.rng.standard_normal((3, 5)))
        gradcheck(lambda x: (x.softmax(-1) * np.arange(5)).sum(), [a])
        gradcheck(lambda x: (x.log_softmax(-1) * np.arange(5)).sum(), [a])

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

    def test_stack_grad(self):
        a = t(self.rng.standard_normal(4))
        b = t(self.rng.standard_normal(4))
        gradcheck(lambda x, y: (stack([x, y], axis=0) * 2).sum(), [a, b])

    def test_transpose_reshape_grad(self):
        a = t(self.rng.standard_normal((2, 3, 4)))
        gradcheck(lambda x: (x.transpose(1, 0, 2).reshape(3, 8) ** 2).sum(), [a])

    def test_broadcast_to_grad(self):
        a = t(self.rng.standard_normal((1, 4)))
        gradcheck(lambda x: (x.broadcast_to((3, 4)) * np.arange(12).reshape(3, 4)).sum(), [a])

    def test_max_grad(self):
        a = t(np.array([[1.0, 5.0, 2.0], [7.0, 0.0, 7.0]]))
        out = a.max(axis=1).sum()
        out.backward()
        # Ties split the gradient equally.
        assert np.allclose(a.grad, [[0, 1, 0], [0.5, 0, 0.5]])

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

    def test_cross_entropy(self):
        logits = t(self.rng.standard_normal((4, 3)))
        target = np.array([0, 2, 1, 1])
        loss = F.cross_entropy(logits, target)
        assert loss.data.size == 1 and float(loss.data) > 0

    def test_mse(self):
        pred = t([1.0, 2.0, 3.0])
        target = Tensor([1.0, 1.0, 1.0])
        assert np.isclose(float(F.mse_loss(pred, target).data), (0 + 1 + 4) / 3)

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

    def test_masked_softmax_zeroes_invalid(self):
        scores = t(self.rng.standard_normal((3, 4)))
        mask = np.array([[True, True, False, False],
                         [True, True, True, True],
                         [False, False, False, False]])
        probs = F.masked_softmax(scores, mask)
        assert np.allclose(probs.data[0, 2:], 0)
        assert np.allclose(probs.data[0].sum(), 1)
        assert np.allclose(probs.data[2], 0)

    def test_masked_mean(self):
        x = Tensor(np.arange(12, dtype=float).reshape(2, 3, 2))
        mask = np.array([[True, True, False], [True, False, False]])
        out = F.masked_mean(x, mask, axis=1)
        assert np.allclose(out.data[0], x.data[0, :2].mean(axis=0))
        assert np.allclose(out.data[1], x.data[1, 0])


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


#: (input shape, swapaxes-strided): 2-D, 3-D, and the token-mixing layout.
LAYOUTS = [((6, 5), False), ((4, 3, 5), False), ((4, 5, 3), True)]


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

    def test_scatter_rows(self):
        src = t(self.rng.standard_normal((3, 4)))
        index = np.array([4, 0, 2])
        out = F.scatter_rows(src, index, 6, fill=-7.0)
        assert out.shape == (6, 4)
        assert np.array_equal(out.data[index], src.data)
        assert np.all(out.data[[1, 3, 5]] == -7.0)
        coeff = Tensor(self.rng.standard_normal((6, 4)))
        gradcheck(lambda s: F.scatter_rows(s, index, 6, fill=-7.0) * coeff, [src])
        # the inverse of row indexing
        assert np.array_equal(F.scatter_rows(src, index, 6)[index].data, src.data)
        empty = F.scatter_rows(t(np.zeros((0, 4))), np.zeros(0, dtype=np.int64), 2)
        assert np.array_equal(empty.data, np.zeros((2, 4)))
