"""The array runtime: one instance, a kernel-only surface, kernels vs numpy.

Three layers of coverage for ``repro.tensor.backend``:

* one runtime — ``get_backend()`` is the instance every trainer and serve
  engine holds, and Tensor ops resolve kernels on it at call time, which is
  the contract ``benchmarks/e2e/tracer.py`` binds its counting wrappers to;
* kernel-only surface — every public function of the class is a kernel, so
  nothing else can be counted as a kernel call;
* kernels vs numpy — the layouts and dtypes a buffer-reusing variant once had
  to special-case (strided input to ``linear_forward``, float32 input,
  transposed operands) against the plain numpy expression;
* the forward-only mixer kernels — column-blocked, bitwise their one-block
  form, and bounded in bytes per row.
"""

import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import TaserConfig, TaserTrainer
from repro.models import EdgePredictor
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
    "sqrt", "absolute", "sign", "maximum", "where",
    "matmul", "concatenate", "sum", "mean",
    "grad_zeros", "index_add", "broadcast_grad", "fixed_time_encoding",
}

# the forward / backward kernel pairs, one autograd node each.
PAIRS = {
    "softmax", "sigmoid", "tanh", "gelu", "relu", "leaky_relu",
    "time_encoding", "layer_norm", "linear", "mixer_block", "temporal_attention",
    "graphmixer_aggregate", "edge_predictor", "sampler_encode", "sampler_head",
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
        forwards = {name[:-len("_forward")] for name in public if name.endswith("_forward")}
        backwards = {name[:-len("_backward")] for name in public
                     if name.endswith("_backward")}
        assert forwards == backwards == PAIRS

    @pytest.mark.usefixtures("float64_compute")
    def test_composite_pairs_run_their_gemms_through_matmul(self):
        """GraphMixer's aggregate and the edge predictor: every GEMM of both
        passes reaches the instance's ``matmul`` (the mixer block's through
        its own pair, which the aggregate calls on the instance too)."""
        from test_tensor_ops import make_graphmixer, make_hop
        backend, seen = get_backend(), []
        rng = np.random.default_rng(0)
        model = make_graphmixer(rng)
        hop = make_hop(rng, 5, 4, 6)
        predictor = EdgePredictor(8, rng=rng)
        for name in ("matmul", "mixer_block_forward", "mixer_block_backward"):
            kernel = getattr(backend, name)
            setattr(backend, name,
                    lambda *a, _k=kernel, _n=name: seen.append(_n) or _k(*a))
        try:
            # zero state: the time and edge GEMMs, four in the block, out_proj
            out = model.aggregate(1, None, None, hop)
            assert seen == ["matmul"] * 2 + ["mixer_block_forward"] + ["matmul"] * 5
            del seen[:]
            out.sum().backward()
            assert seen.count("mixer_block_backward") == 1
            # out_proj 2, the block 8, message_proj's time and edge columns 2
            assert seen.count("matmul") == 12
            del seen[:]
            logits = predictor(Tensor(out.data, requires_grad=True), out.detach())
            assert seen == ["matmul"] * 3
            logits.sum().backward()             # out 2, src_proj 2, dst_proj's weight 1
            assert seen == ["matmul"] * 8
        finally:
            for name in ("matmul", "mixer_block_forward", "mixer_block_backward"):
                delattr(backend, name)


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

    @pytest.mark.parametrize("index", [
        slice(1, 3), 2, -1, (1, slice(None, None, 2)), (slice(None), 0),
        (Ellipsis, 1), (np.int64(3), Ellipsis), (),
        np.array([0, 2, 0]), (np.array([1, 1]), slice(1, 4)), True],
        ids=["slice", "int", "negative-int", "int-slice", "slice-int",
             "ellipsis-int", "npint-ellipsis", "empty-tuple", "array",
             "array-slice", "bool"])
    def test_index_add_is_the_add_at_oracle_bitwise(self, index):
        """``__getitem__``'s backward adds a basic index in place and an
        array (or bool) index through ``np.add.at``; both are ``0.0 + g``
        per element, so a ``-0.0`` in ``g`` lands as ``+0.0`` either way."""
        like = np.ones((4, 5), dtype=np.float32)
        g = np.random.default_rng(0).standard_normal(
            like[index].shape).astype(np.float32)
        g.reshape(-1)[::2] = -0.0
        want = np.zeros_like(like)
        np.add.at(want, index, g)
        got = get_backend().index_add(like, index, g)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not np.signbit(got[got == 0]).any()


# ------------------------------------------------- forward-only mixer kernels

#: GraphMixer at the e2e workloads' model size: d = 32 channels, time
#: encoding 16, edge features 32, token / channel expansion 0.5 / 2.
D, D_T, D_E = 32, 16, 32
BLOCK = ReferenceBackend.MIXER_BLOCK_ROWS


def mixer_inputs(rng, rows: int, m: int, dead_block: bool = False):
    """``(delta, mask, edge, params, omega)`` of a GraphMixer aggregate of
    ``rows`` rows, ``m`` tokens, float32; with ``dead_block`` every slot of
    the second column block of the channel-major ``(m, R)`` mask is
    masked."""
    f32 = np.float32
    h_t, h_c = max(1, m // 2), 2 * D
    shapes = [(D, D + D_E + D_T), (D,), (D,), (D,), (h_t, m), (h_t,), (m, h_t), (m,),
              (D,), (D,), (h_c, D), (h_c,), (D, h_c), (D,), (D, 2 * D), (D,)]
    params = [(0.3 * rng.standard_normal(shape)).astype(f32) for shape in shapes]
    mask = rng.random((rows, m)) < 0.8
    if dead_block:
        width, blocks = rows * m, -(-rows // BLOCK)
        flat = mask.T.reshape(-1).copy()
        flat[width // blocks // 16 * 16:2 * width // blocks // 16 * 16] = False
        mask = flat.reshape(m, rows).T
    return (rng.random((rows, m)) * 1e4, mask,
            rng.standard_normal((rows, m, D_E)).astype(f32), params, rng.random(D_T))


def channel_major(x: np.ndarray) -> np.ndarray:
    """A copy of ``x`` laid out as ``MixerBlock.input_buffer`` lays it out."""
    return np.ascontiguousarray(x.transpose(2, 1, 0)).transpose(2, 1, 0)


class TestForwardOnlyMixer:
    """The forward-only GraphMixer aggregate and mixer block run the channel
    MLP over column blocks of at most ``MIXER_BLOCK_ROWS`` rows: bitwise the
    one-block form at every row count around the bound, in fewer bytes."""

    @pytest.mark.parametrize("m", [5, 10])
    @pytest.mark.parametrize("rows, dead_block", [
        (1, False), (BLOCK - 1, False), (BLOCK, False), (BLOCK + 1, False),
        (3 * BLOCK + 7, False), (3 * BLOCK + 7, True)])
    def test_column_blocks_are_the_one_block_form(self, monkeypatch, rows, m, dead_block):
        rng = np.random.default_rng(rows * m)
        delta, mask, edge, params, omega = mixer_inputs(rng, rows, m, dead_block)
        x = rng.standard_normal((rows, m, D)).astype(np.float32)
        fmask = mask[..., None].astype(np.float32)
        backend = get_backend()

        def forward_only():
            aggregate, _ = backend.graphmixer_aggregate_forward(
                delta, mask, edge, None, None, None, params, omega, None, None, 1e-5, False)
            block, _ = backend.mixer_block_forward(channel_major(x), fmask, params[2:14],
                                                   None, None, 1e-5, False)
            return aggregate, block
        blocked = forward_only()
        monkeypatch.setattr(ReferenceBackend, "MIXER_BLOCK_ROWS", 10 ** 9)
        whole = forward_only()
        for got, want in zip(blocked, whole):
            assert np.array_equal(got, want)
        # the retained pass runs one block: its output is the same bits
        retained, saved = backend.mixer_block_forward(x, fmask, params[2:14],
                                                      None, None, 1e-5, True)
        assert saved is not None and np.array_equal(retained, blocked[1])

    def test_a_forward_only_block_takes_over_a_channel_major_input(self):
        rng = np.random.default_rng(1)
        _, mask, _, params, _ = mixer_inputs(rng, 40, 5)
        fmask = mask[..., None].astype(np.float32)
        backend = get_backend()
        rows_major = rng.standard_normal((40, 5, D)).astype(np.float32)
        before = rows_major.copy()
        want, _ = backend.mixer_block_forward(rows_major, fmask, params[2:14],
                                              None, None, 1e-5, False)
        assert np.array_equal(rows_major, before)        # any other layout: copied
        buffer = channel_major(before)
        got, _ = backend.mixer_block_forward(buffer, fmask, params[2:14],
                                             None, None, 1e-5, False)
        assert np.shares_memory(got, buffer) and np.array_equal(got, want)

    def test_forward_only_aggregate_bytes_per_row(self):
        """Traced peak of one forward-only aggregate above its inputs, at R =
        4 096, n = 5, d = 32: 4.84 KB per row when the block copied the
        tokens and ran its channel MLP on all of them at once."""
        rows = 4096
        delta, mask, edge, params, omega = mixer_inputs(np.random.default_rng(2), rows, 5)
        backend = get_backend()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out, _ = backend.graphmixer_aggregate_forward(
                delta, mask, edge, None, None, None, params, omega, None, None, 1e-5, False)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.shape == (rows, D)
        assert peak / rows <= 3000, f"{peak / rows:.0f} bytes per row"
