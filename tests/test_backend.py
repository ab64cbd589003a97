"""The array runtime: one instance, a kernel-only surface, kernels vs numpy.

Three layers of coverage for ``repro.tensor.backend``:

* one runtime — ``get_backend()`` is the instance every trainer and serve
  engine holds, and Tensor ops resolve kernels on it at call time, which is
  the contract ``benchmarks/e2e/tracer.py`` binds its counting wrappers to;
* kernel-only surface — every public function of the class is a kernel, so
  nothing else can be counted as a kernel call;
* kernels vs numpy — the layouts and dtypes a buffer-reusing variant once had
  to special-case (strided input to ``linear_forward``, float32 input,
  transposed operands) against the plain numpy expression.
"""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import TaserConfig, TaserTrainer
from repro.serve import ServeEngine
from repro.tensor import Tensor
from repro.tensor import functional as F
from repro.tensor.backend import ReferenceBackend, get_backend

finite_floats = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False,
                          allow_infinity=False)


def small_array(max_side=4, dims=st.integers(1, 3), dtype=np.float64):
    return dims.flatmap(
        lambda nd: st.tuples(*([st.integers(1, max_side)] * nd)).flatmap(
            lambda shape: arrays(dtype, shape, elements=finite_floats)))


# public functions of the backend class that are kernels without following
# the ``*_forward`` / ``*_backward`` naming of the kernel pairs.
PRIMITIVES = {
    "add", "subtract", "multiply", "divide", "negative", "power", "exp", "log",
    "sqrt", "cos", "sin", "absolute", "sign", "maximum", "clip", "where",
    "matmul", "concatenate", "sum", "mean", "amax",
    "grad_zeros", "index_add", "broadcast_grad", "fixed_time_encoding",
}


# -------------------------------------------------------------- one runtime

class TestOneRuntime:
    def test_every_owner_holds_the_instance_tensor_ops_dispatch_on(self, small_graph):
        config = TaserConfig(backbone="graphmixer", hidden_dim=8, time_dim=4,
                             num_neighbors=3, num_candidates=3, batch_size=64,
                             adaptive_minibatch=False, adaptive_neighbor=False,
                             max_batches_per_epoch=1, eval_max_edges=10, seed=0)
        trainer = TaserTrainer(small_graph, config)
        backend = get_backend()
        assert backend is trainer.array_backend
        assert backend is ServeEngine.from_trainer(trainer).array_backend
        assert backend.name == "reference"

        calls = []
        kernel = backend.matmul

        def counted(a, b):
            calls.append(a.shape)
            return kernel(a, b)

        # An instance attribute, like the e2e tracer's wrappers: found only if
        # ops look the kernel up on the instance at call time.
        backend.matmul = counted
        try:
            Tensor(np.ones((2, 3))) @ Tensor(np.ones((3, 4)))
            assert calls == [(2, 3)]
            # Composite kernels run their GEMMs through ``self.matmul`` too.
            F.linear(Tensor(np.ones((5, 3))), Tensor(np.ones((4, 3))))
            assert calls == [(2, 3), (5, 3)]
        finally:
            del backend.matmul
        assert "matmul" not in vars(backend)

    def test_every_public_function_is_a_kernel(self):
        """The e2e tracer counts every public function of the class as a
        kernel call, so a lifecycle or accounting method must not creep in."""
        public = [name for name, _ in
                  inspect.getmembers(ReferenceBackend, inspect.isfunction)
                  if not name.startswith("_")]
        stray = [name for name in public
                 if not (name.endswith(("_forward", "_backward"))
                         or name in PRIMITIVES)]
        assert stray == []
        assert PRIMITIVES <= set(public)


# ------------------------------------------------------- kernels vs numpy

class TestKernelEquality:
    @pytest.mark.parametrize("rows", [3, 600])
    @pytest.mark.parametrize("strided", [False, True])
    def test_flattened_linear(self, rows, strided):
        """``(R, n, k) @ (k, m)`` runs as one flattened GEMM, also when the
        input is a strided view."""
        rng = np.random.default_rng(rows)
        n, k, m = 5, 8, 7
        x_np = rng.standard_normal((rows, k, n) if strided else (rows, n, k))
        w_np = rng.standard_normal((m, k))
        b_np = rng.standard_normal(m)

        x = Tensor(x_np.copy(), requires_grad=True)
        w = Tensor(w_np.copy(), requires_grad=True)
        b = Tensor(b_np.copy(), requires_grad=True)
        out = F.linear(x.swapaxes(1, 2) if strided else x, w, b)
        (out * out).sum().backward()

        a = x_np.swapaxes(1, 2) if strided else x_np
        want = a @ w_np.T + b_np
        g = 2.0 * want
        ga = g @ w_np
        close = dict(rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(out.data, want, **close)
        np.testing.assert_allclose(x.grad, ga.swapaxes(1, 2) if strided else ga,
                                   **close)
        np.testing.assert_allclose(w.grad, np.einsum("rnm,rnk->mk", g, a), **close)
        np.testing.assert_allclose(b.grad, g.sum(axis=(0, 1)), **close)

    @settings(max_examples=15, deadline=None)
    @given(small_array(dtype=np.float32))
    def test_float32_inputs_match_numpy(self, data):
        """A float32 array keeps its dtype through a kernel, and a scalar —
        a Python float or a (NEP 50 strong) numpy float64 — takes the
        tensor's dtype instead of promoting the result."""
        x = Tensor(data.copy(), dtype=np.float32)
        want = data * 2.0 + data
        assert want.dtype == np.float32
        for two in (2.0, np.float64(2.0)):
            got = (x * two + x).data
            assert got.dtype == np.float32
            assert np.array_equal(got, want)
        sig = Tensor(data.copy()).sigmoid().data
        assert sig.dtype == np.float32
        assert np.array_equal(sig, 1.0 / (1.0 + np.exp(-data)))

    @settings(max_examples=15, deadline=None)
    @given(small_array(dims=st.integers(2, 2)))
    def test_non_contiguous_layouts_match(self, data):
        """Transposed (non-C-contiguous) operands give the numpy result, in
        the memory order numpy propagates."""
        ones = np.ones((data.shape[0], 2))
        x = Tensor(data.copy(), requires_grad=True)
        hidden = x.transpose().gelu()
        out = hidden @ Tensor(ones)
        out.sum().backward()

        xt = data.T
        s = 1.0 / (1.0 + np.exp(-1.702 * xt))
        assert hidden.data.flags.f_contiguous == (xt * s).flags.f_contiguous
        assert np.array_equal(out.data, (xt * s) @ ones)
        want = (np.ones_like(out.data) @ ones.T) * (s + 1.702 * xt * s * (1.0 - s))
        np.testing.assert_allclose(x.grad, want.T, rtol=1e-12, atol=1e-12)
