"""float32 is the compute dtype: leak guard, source lint, the float64 route.

``repro.tensor.COMPUTE_DTYPE`` (float32) is the dtype of every model quantity
— parameters, gathered features, encodings, activations, gradients, optimiser
moments, the gradient bucket, cached serve embeddings — by two rules rather
than a switch: kernels and autograd never name a dtype, and the boundaries
that create model quantities read the constant at call time.  Three layers of
coverage:

* **leak guard** — counting wrappers on the backend instance (the way
  ``benchmarks/e2e/tracer.py`` binds them) around a TASER/TGAT train step, a
  GraphMixer train step, an evaluation, a prequential stream step and a serve
  flush: every floating array a kernel *allocates* is ``COMPUTE_DTYPE`` (the
  only float64 a kernel may hand back is a timestamp array it was given), and
  so is every parameter, gradient, Adam moment, bucket buffer and cached row;
* **source lint** — no ``float64`` literal under ``src/repro/{tensor,nn,
  models,optim}`` outside the allow-listed time-phase site and
  ``gradcheck.py``, so the next kernel cannot reintroduce one;
* **the float64 route** — a test gets float64 by rebinding the constant while
  it builds its modules (``conftest.float64_compute``); the arrays then run
  through the same ``ReferenceBackend`` methods, ``gradcheck`` refuses
  anything narrower by name, and a composite kernel refuses mixed inputs.
"""

import ast
import inspect
import re
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import repro.tensor
from repro.core import AdaptiveNeighborSampler, TaserConfig, TaserTrainer
from repro.core.streaming import StreamingTrainer, split_warmup
from repro.distributed import ShardedTrainer
from repro.encoders import FixedTimeEncoder, LearnableTimeEncoder
from repro.models import TGAT, EdgePredictor, GraphMixer, HopData
from repro.nn import LayerNorm, Linear, MixerBlock
from repro.sampling import NeighborBatch
from repro.serve import LinkQuery, ServeEngine, VirtualClock
from repro.tensor import (GradcheckDtypeError, MixedDtypeError, Tensor, get_backend,
                          gradcheck, no_grad)
from repro.tensor import functional as F
from repro.tensor.backend import ReferenceBackend

from test_tensor_ops import (assert_mixer_agrees, composed_graphmixer_aggregate,  # noqa: E402
                             composed_mixer_block, composed_temporal_attention,
                             make_graphmixer, make_hop, make_tgat,
                             node_graphmixer_aggregate, node_mixer_block,
                             node_temporal_attention, run_aggregate, run_mixer, t)

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


# ------------------------------------------------------------------ leak guard

def _arrays(value):
    """Every ndarray inside a kernel's arguments or result (tuples / lists
    nest: ``saved`` bundles, parameter lists)."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)


@contextmanager
def recorded_kernels():
    """Wrap every public kernel of the backend *instance*; yields the list of
    ``(kernel, dtype, nbytes)`` of each floating array a call allocated that
    is not ``COMPUTE_DTYPE``, and the call count."""
    backend = get_backend()
    leaks, calls = [], [0]

    def recording(name, orig):
        def recorded(*args, **kwargs):
            out = orig(*args, **kwargs)
            calls[0] += 1
            given = {id(a) for a in _arrays(args)}
            for array in _arrays(out):
                if (array.dtype.kind == "f" and array.dtype != repro.tensor.COMPUTE_DTYPE
                        and id(array) not in given):
                    leaks.append((name, str(array.dtype), array.nbytes))
            return out
        return recorded

    names = [name for name, _ in inspect.getmembers(type(backend), inspect.isfunction)
             if not name.startswith("_")]
    for name in names:
        setattr(backend, name, recording(name, getattr(backend, name)))
    try:
        yield leaks, calls
    finally:
        for name in names:
            delattr(backend, name)


def assert_model_state_is_compute_dtype(trainer, grads=True):
    dtype = repro.tensor.COMPUTE_DTYPE
    optimizers = [trainer.model_optimizer]
    if trainer.sampler_optimizer is not None:
        optimizers.append(trainer.sampler_optimizer)
    for optimizer in optimizers:
        for p, m, v in zip(optimizer.params, optimizer._m, optimizer._v):
            assert p.data.dtype == dtype
            if grads and p.grad is not None:
                assert p.grad.dtype == dtype
            if m is not None:
                assert m.dtype == dtype and v.dtype == dtype
        assert any(m is not None for m in optimizer._m) or not grads


def leak_config(**overrides):
    base = dict(hidden_dim=8, time_dim=4, num_neighbors=3, num_candidates=6,
                batch_size=64, epochs=1, max_batches_per_epoch=1, eval_max_edges=20,
                eval_negatives=5, dropout=0.1, seed=0)
    base.update(overrides)
    return TaserConfig(**base)


class TestLeakGuard:
    def test_compute_dtype_is_float32_and_not_configuration(self):
        assert repro.tensor.COMPUTE_DTYPE is np.float32
        assert "dtype" not in " ".join(TaserConfig.__dataclass_fields__)

    @pytest.mark.parametrize("backbone,adaptive", [("tgat", True), ("graphmixer", False)])
    def test_train_step_and_evaluate(self, small_graph, backbone, adaptive):
        config = leak_config(backbone=backbone, adaptive_minibatch=adaptive,
                             adaptive_neighbor=adaptive)
        trainer = TaserTrainer(small_graph, config)
        with recorded_kernels() as (leaks, calls):
            stats = trainer.train_epoch()
            report = trainer.evaluate("test")
        assert calls[0] > 0 and np.isfinite(stats.batch_losses).all()
        assert 0.0 <= report["mrr"] <= 1.0
        assert leaks == []
        assert_model_state_is_compute_dtype(trainer)

    @pytest.mark.parametrize("decoder", ["gat", "gatv2", "transformer"])
    def test_sampler_decoders(self, small_graph, decoder):
        """The adaptive sampler's attention decoders train in the compute
        dtype too: a widened gradient would reach the encoder node, which
        refuses it."""
        trainer = TaserTrainer(small_graph, leak_config(backbone="tgat", decoder=decoder))
        with recorded_kernels() as (leaks, calls):
            stats = trainer.train_epoch()
        assert calls[0] > 0 and np.isfinite(stats.batch_losses).all()
        assert leaks == []
        assert_model_state_is_compute_dtype(trainer)

    def test_featured_graph_and_analytic_sample_loss(self, featured_graph):
        config = leak_config(backbone="tgat", sample_loss="tgat_analytic")
        trainer = TaserTrainer(featured_graph, config)
        with recorded_kernels() as (leaks, _):
            trainer.train_epoch()
        assert leaks == []
        assert_model_state_is_compute_dtype(trainer)

    def test_feature_store_gathers_compute_dtype(self, small_graph):
        trainer = TaserTrainer(small_graph, leak_config())
        ids = np.arange(12).reshape(3, 4)
        rows = trainer.feature_store.slice_edge_features(ids)
        assert rows.dtype == repro.tensor.COMPUTE_DTYPE
        with recorded_kernels() as (leaks, _):
            trainer.train_epoch()
        assert leaks == []

    def test_prequential_stream_step(self, small_graph):
        config = leak_config(backbone="graphmixer", adaptive_minibatch=False,
                             adaptive_neighbor=False)
        warm, stream = split_warmup(small_graph, warmup_events=240, chunk_size=80)
        trainer = StreamingTrainer(warm, config, window_events=200,
                                   prequential_max_events=30)
        with recorded_kernels() as (leaks, calls):
            stats = trainer.step(next(iter(stream)))
        assert calls[0] > 0 and stats.events == 80
        assert leaks == []
        assert_model_state_is_compute_dtype(trainer)

    def test_serve_flush(self, small_graph):
        trainer = TaserTrainer(small_graph, leak_config(adaptive_minibatch=False,
                                                        adaptive_neighbor=False))
        # An explicit capacity: the time-exact default caches nothing.
        engine = ServeEngine.from_trainer(trainer, max_batch=8, cache_nodes=16,
                                          clock=VirtualClock())
        t_hi = float(small_graph.ts.max())
        with recorded_kernels() as (leaks, calls):
            for i in range(6):
                engine.submit(LinkQuery(i, 40 + i, t_hi * (0.6 + 0.05 * i)))
            results = engine.flush()
        assert calls[0] > 0 and len(results) == 6
        assert all(r.status == "ok" and 0.0 <= r.score <= 1.0 for r in results)
        assert leaks == []
        cache = engine.embedding_cache
        assert cache.rows.dtype == repro.tensor.COMPUTE_DTYPE
        assert cache.computed_time.dtype == np.float64      # keys, not model quantities

    def test_gradient_bucket_follows_the_dtype(self, small_graph):
        config = leak_config(backbone="graphmixer")
        with ShardedTrainer(small_graph, config, num_workers=1,
                            backend="serial") as sharded:
            sharded.train_epoch()
            comms = sharded.comms
            for bucket, buffers, averaged in (
                    (comms.model_bucket, comms.model_bufs, comms.model_avg),
                    (comms.sampler_bucket, comms.sampler_bufs, comms.sampler_avg)):
                assert bucket.dtype == repro.tensor.COMPUTE_DTYPE
                assert bucket.nbytes == bucket.total_floats * 4
                assert all(b.dtype == bucket.dtype for b in [*buffers, averaged])

    def test_float64_state_dict_loads_into_a_float32_model(self, small_graph):
        """A parent-format (float64) checkpoint loads by name, the model stays
        float32, the leak guard still passes, and the scores are those of the
        float64 model to 1e-5."""
        config = leak_config(adaptive_minibatch=False, adaptive_neighbor=False,
                             dropout=0.0)
        trainer = TaserTrainer(small_graph, config)
        trainer.train_epoch()
        wide = {name: value.astype(np.float64) * (1.0 + 1e-9)
                for name, value in trainer.backbone.state_dict().items()}
        trainer.backbone.load_state_dict(wide)
        assert all(p.data.dtype == np.float32 for p in trainer.backbone.parameters())
        with recorded_kernels() as (leaks, _):
            narrow_report = trainer.evaluate("test")
            trainer.train_epoch()
        assert leaks == []
        assert_model_state_is_compute_dtype(trainer)

        rng = np.random.default_rng(0)
        rows, n = 6, 4
        hop = make_hop(rng, rows, n, 5, gate=False, dead_rows=0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(repro.tensor, "COMPUTE_DTYPE", np.float64)
            model64 = TGAT(0, 5, hidden_dim=8, time_dim=4, num_layers=1, dropout=0.0,
                           rng=np.random.default_rng(1))
            pred64 = EdgePredictor(8, rng=np.random.default_rng(2))
            with no_grad():
                h64 = model64.aggregate(1, None, None, hop)
                want = pred64(h64[:3], h64[3:]).data
        assert want.dtype == np.float64
        model32 = TGAT(0, 5, hidden_dim=8, time_dim=4, num_layers=1, dropout=0.0,
                       rng=np.random.default_rng(7))
        pred32 = EdgePredictor(8, rng=np.random.default_rng(8))
        model32.load_state_dict(model64.state_dict())
        pred32.load_state_dict(pred64.state_dict())
        hop.edge_feat = hop.edge_feat.astype(np.float32)
        with no_grad():
            h32 = model32.aggregate(1, None, None, hop)
            got = pred32(h32[:3], h32[3:]).data
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-5)
        assert 0.0 <= narrow_report["mrr"] <= 1.0


# ----------------------------------------------------------------- source lint

#: where ``float64`` may be written — in code, comments or docstrings — under
#: the engine, the layers, the models and the optimisers: the gradient
#: checker, which insists on it, and the time-phase sites of the backend
#: (``file -> enclosing functions``; ``None`` allows the whole file).
FLOAT64_ALLOWED = {
    "tensor/gradcheck.py": None,
    "tensor/backend.py": {"_reduced_phase", "_time_encoding_grads",
                          "temporal_attention_forward"},
}


def _enclosing_function(tree, lineno):
    """Name of the innermost function whose source spans ``lineno``."""
    best = None
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.lineno <= lineno <= node.end_lineno:
            if best is None or node.lineno >= best.lineno:
                best = node
    return None if best is None else best.name


class TestSourceLint:
    def test_no_float64_outside_the_allow_list(self):
        offenders = []
        for package in ("tensor", "nn", "models", "optim"):
            for path in sorted((SRC / package).glob("*.py")):
                key = f"{package}/{path.name}"
                if key in FLOAT64_ALLOWED and FLOAT64_ALLOWED[key] is None:
                    continue
                source = path.read_text()
                tree = ast.parse(source)
                for number, line in enumerate(source.splitlines(), 1):
                    if "float64" in line and _enclosing_function(tree, number) \
                            not in FLOAT64_ALLOWED.get(key, ()):
                        offenders.append(f"{key}:{number}: {line.strip()}")
        assert offenders == []

    def test_the_one_code_site_is_the_time_phase(self):
        """Outside docstrings and comments, ``np.float64`` appears once in
        ``backend.py`` — inside ``_reduced_phase``, the helper every
        time-encoding site takes its phase from."""
        source = (SRC / "tensor" / "backend.py").read_text()
        assert source.count("np.float64") == 1
        assert "np.float64" in inspect.getsource(ReferenceBackend._reduced_phase)
        for site in (ReferenceBackend._time_encoding, ReferenceBackend._time_encoding_grads):
            assert "self._reduced_phase(" in inspect.getsource(site)

    def test_no_dtype_knob(self):
        pattern = re.compile(r"REPRO_DTYPE|compute_dtype|--dtype")
        root = SRC.parents[1]
        files = [SRC / "cli.py", SRC / "core" / "config.py",
                 *sorted((root / ".github").rglob("*.yml"))]
        assert [str(f) for f in files if pattern.search(f.read_text())] == []


# ------------------------------------------------------------ the float64 route

@pytest.mark.usefixtures("float64_compute")
class TestFloat64Route:
    def test_gradcheck_runs_through_the_programs_own_kernels(self):
        """``linear``, ``layer_norm``, ``mixer_block`` and
        ``temporal_attention`` are gradient-checked in float64 on the very
        ``ReferenceBackend`` methods the float32 program calls."""
        backend = get_backend()
        assert type(backend) is ReferenceBackend
        seen = []

        def spying(name):
            method = getattr(backend, name)
            assert method.__func__ is getattr(ReferenceBackend, name)

            def spy(*args, **kwargs):
                out = method(*args, **kwargs)
                first = out[0] if isinstance(out, tuple) else out
                seen.append((name, first.dtype))
                return out
            return spy

        kernels = ["linear_forward", "layer_norm_forward", "mixer_block_forward",
                   "temporal_attention_forward", "graphmixer_aggregate_forward",
                   "edge_predictor_forward"]
        for name in kernels:
            setattr(backend, name, spying(name))
        try:
            rng = np.random.default_rng(0)
            lin, norm = Linear(4, 3, rng=rng), LayerNorm(4)
            assert lin.weight.dtype == norm.weight.dtype == np.float64
            x = t(rng.standard_normal((5, 4)))
            assert gradcheck(lambda a, w, b: F.linear(a, w, b).sum(),
                             [x, lin.weight, lin.bias])
            assert gradcheck(lambda a, w, b: (F.layer_norm(a, w, b) ** 2).sum(),
                             [x, norm.weight, norm.bias])
            block = MixerBlock(3, 4, rng=rng)
            tokens = t(rng.standard_normal((2, 3, 4)))
            assert gradcheck(lambda a, *p: (block(a) ** 2).sum(),
                             [tokens, *block.parameters()], atol=1e-3, rtol=1e-2)
            model = make_tgat(rng, hidden=4, edge_dim=3, time_dim=2)
            hop = make_hop(rng, 3, 2, 3, gate=True, dead_rows=0)
            h_t, h_n = t(rng.standard_normal((3, 4))), t(rng.standard_normal((3, 2, 4)))
            assert gradcheck(
                lambda a, b, g, *p: (model.aggregate(1, a, b, hop) ** 2).sum(),
                [h_t, h_n, hop.gate, *model.parameters()], atol=1e-3, rtol=1e-2)
            mixer = make_graphmixer(rng, hidden=4, edge_dim=3, time_dim=2, n=2)
            assert gradcheck(
                lambda a, b, g, *p: (mixer.aggregate(1, a, b, hop) ** 2).sum(),
                [h_t, h_n, hop.gate, *mixer.parameters()], atol=1e-3, rtol=1e-2)
            predictor = EdgePredictor(4, rng=rng)
            assert gradcheck(lambda a, b, *p: (predictor(a, b) ** 2).sum(),
                             [h_t, h_n[:, 0], *predictor.parameters()])
        finally:
            for name in kernels:
                delattr(backend, name)
        assert {name for name, _ in seen} == set(kernels)
        assert {dtype for _, dtype in seen} == {np.dtype(np.float64)}

    def test_gradcheck_refuses_anything_but_float64_by_name(self):
        x = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        with pytest.raises(GradcheckDtypeError, match="input 0 is float32"):
            gradcheck(lambda a: (a * a).sum(), [x])


class TestMixedInputsRaise:
    """An in-place ``a *= b`` casts a float64 ``b`` into a float32 ``a``
    without complaint, so a composite kernel handed both is an error, not a
    case to compute in the narrower type."""

    def test_linear_and_layer_norm(self):
        rng = np.random.default_rng(0)
        lin, norm = Linear(4, 3, rng=rng), LayerNorm(4)
        wide = Tensor(rng.standard_normal((5, 4)))
        assert wide.dtype == np.float64 and lin.weight.dtype == np.float32
        with pytest.raises(MixedDtypeError, match="float64 and float32|float32 and float64"):
            lin(wide)
        with pytest.raises(MixedDtypeError):
            norm(wide)

    def test_mixer_block(self):
        rng = np.random.default_rng(1)
        block = MixerBlock(3, 4, rng=rng)
        with pytest.raises(MixedDtypeError):
            block(Tensor(rng.standard_normal((2, 3, 4))))
        block.token_norm.weight.data = block.token_norm.weight.data.astype(np.float64)
        with pytest.raises(MixedDtypeError):
            block(Tensor.randn(2, 3, 4, rng=rng))

    def test_temporal_attention(self):
        rng = np.random.default_rng(2)
        model = TGAT(0, 3, hidden_dim=4, time_dim=2, num_layers=1, dropout=0.0, rng=rng)
        hop = make_hop(rng, 3, 2, 3, gate=False, dead_rows=0)
        assert hop.edge_feat.dtype == np.float64
        with pytest.raises(MixedDtypeError):
            model.aggregate(1, None, None, hop)
        hop.edge_feat = hop.edge_feat.astype(np.float32)
        out = model.aggregate(1, None, None, hop)           # float64 timespans are fine
        assert out.dtype == np.float32 and hop.batch.delta_t().dtype == np.float64

    def test_graphmixer_aggregate_and_edge_predictor(self):
        rng = np.random.default_rng(3)
        model = GraphMixer(0, 3, hidden_dim=4, time_dim=2, num_neighbors=2, dropout=0.0,
                           rng=rng)
        hop = make_hop(rng, 3, 2, 3, gate=False, dead_rows=0)
        with pytest.raises(MixedDtypeError):
            model.aggregate(1, None, None, hop)
        hop.edge_feat = hop.edge_feat.astype(np.float32)
        out = model.aggregate(1, None, None, hop)
        assert out.dtype == np.float32
        predictor = EdgePredictor(4, rng=rng)
        with pytest.raises(MixedDtypeError):
            predictor(out, Tensor(out.data.astype(np.float64)))
        assert predictor(out, out).dtype == np.float32


    def test_sampler_encode_and_head(self):
        """The sampler's encoder refuses float64 features beside its float32
        projections; its head refuses a float64 gradient of its float32
        log-probabilities."""
        rng = np.random.default_rng(4)
        rows, m = 6, 5
        mask = rng.random((rows, m)) < 0.7
        mask[:, 0] = True
        cand = NeighborBatch(
            root_nodes=rng.integers(0, 9, rows), root_times=np.full(rows, 60.0),
            nodes=np.where(mask, rng.integers(1, 4, (rows, m)), 0),
            eids=np.where(mask, 1, 0),
            times=np.where(mask, rng.uniform(1.0, 50.0, (rows, m)), 0.0), mask=mask)
        sampler = AdaptiveNeighborSampler(0, 3, m, seed=0)
        wide = rng.standard_normal((rows, m, 3))
        with pytest.raises(MixedDtypeError):
            sampler(cand, 2, edge_feat=wide)
        selection = sampler(cand, 2, edge_feat=wide.astype(np.float32))
        assert selection.log_prob.dtype == selection.probabilities.dtype == np.float32
        with pytest.raises(MixedDtypeError):
            (selection.log_prob * Tensor(rng.standard_normal((rows, 2)))).sum().backward()
        selection = sampler(cand, 2, edge_feat=wide.astype(np.float32))
        narrow = Tensor(rng.standard_normal((rows, 2)).astype(np.float32))
        (selection.log_prob * narrow).sum().backward()
        assert sampler.edge_proj.weight.grad.dtype == np.float32


# ------------------------------------------------------------- float32 twins

#: the float32 program against the float64 composed oracle: both sides see
#: the same float32-representable inputs, so what is left is float32 rounding
#: inside the kernels.
FLOAT32_RTOL = 1e-4


def _assert_close32(got, want, scale):
    if want is None:
        assert got is None
        return
    assert got.dtype == np.float32
    np.testing.assert_allclose(got, want, rtol=FLOAT32_RTOL,
                               atol=FLOAT32_RTOL * max(scale, float(np.abs(want).max())))


class TestFloat32Twins:
    @pytest.mark.parametrize("masked", [False, True])
    def test_mixer_block_matches_composed(self, masked):
        """``TestMixer.test_matches_composed_modules`` in the program's dtype."""
        rng = np.random.default_rng(11)
        rows, tokens, dim = 6, 5, 8
        x = rng.standard_normal((rows, tokens, dim)).astype(np.float32)
        mask = (rng.random((rows, tokens)) > 0.3) if masked else None
        coeff = rng.standard_normal((rows, tokens, dim)).astype(np.float32)
        block32 = MixerBlock(tokens, dim, rng=np.random.default_rng(5))
        got = run_mixer(node_mixer_block, block32, x, mask, coeff)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(repro.tensor, "COMPUTE_DTYPE", np.float64)
            block64 = MixerBlock(tokens, dim, rng=np.random.default_rng(5))
            block64.load_state_dict(block32.state_dict())
            want = run_mixer(composed_mixer_block, block64, x.astype(np.float64), mask,
                             coeff.astype(np.float64))
        assert want[0].dtype == np.float64
        _assert_close32(got[0].data, want[0].data, 1.0)
        for got_g, want_g in zip([got[1]] + got[2], [want[1]] + want[2]):
            _assert_close32(got_g, want_g, 1.0)
        with pytest.raises(AssertionError):
            assert_mixer_agrees(got, want)       # the float64 bound is out of reach

    @pytest.mark.parametrize("rows, tokens, dim, token_exp, channel_exp, dead, buffered", [
        # the adaptive sampler's block at a hop's size, a quarter of its rows
        # without any candidate, its input written into ``input_buffer``
        (300, 10, 34, 0.5, 1.0, 0.25, True),
        # a serve flush of one query through GraphMixer's block
        (1, 5, 32, 0.5, 2.0, 0.0, False),
        # every axis a different length (R, m, d, h_t, h_c = 7, 6, 9, 3, 18):
        # a transposed axis cannot pass by coincidence
        (7, 6, 9, 0.5, 2.0, 0.0, True),
    ], ids=["sampler", "serve", "m_ne_d"])
    def test_mixer_block_at_production_shape(self, rows, tokens, dim, token_exp,
                                             channel_exp, dead, buffered):
        """The channel-major kernel pair in the program's dtype against the
        composed float64 oracle, at the shapes the program runs."""
        rng = np.random.default_rng(rows)
        x = rng.standard_normal((rows, tokens, dim)).astype(np.float32)
        mask = rng.random((rows, tokens)) > 0.3
        mask[:int(dead * rows)] = False
        coeff = rng.standard_normal((rows, tokens, dim)).astype(np.float32)
        block32 = MixerBlock(tokens, dim, token_exp, channel_exp,
                             rng=np.random.default_rng(5))
        for p in block32.parameters():                 # norms and biases off init
            p.data = (p.data + 0.3 * rng.standard_normal(p.data.shape)).astype(np.float32)

        def node(block, x, mask):
            if buffered:     # the sampler's route: written into the kernel's layout
                x = F.concatenate([x], axis=-1, out=block.input_buffer(rows))
                assert x.data.transpose(2, 1, 0).flags.c_contiguous
            return block(x, mask=mask)
        got = run_mixer(node, block32, x, mask, coeff)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(repro.tensor, "COMPUTE_DTYPE", np.float64)
            block64 = MixerBlock(tokens, dim, token_exp, channel_exp,
                                 rng=np.random.default_rng(5))
            block64.load_state_dict(block32.state_dict())
            want = run_mixer(composed_mixer_block, block64, x.astype(np.float64), mask,
                             coeff.astype(np.float64))
        assert want[0].dtype == np.float64 and got[0].shape == (rows, tokens, dim)
        _assert_close32(got[0].data, want[0].data, 1.0)
        assert np.all(got[0].data[~mask] == 0.0) and np.all(got[1][~mask] == 0.0)
        assert len(got[2]) == len(want[2]) == 12
        for got_g, want_g in zip([got[1]] + got[2], [want[1]] + want[2]):
            assert got_g.shape == want_g.shape
            _assert_close32(got_g, want_g, 1.0)

    @pytest.mark.parametrize("zero_state", [False, True])
    def test_temporal_attention_matches_composed(self, zero_state):
        """``TestTemporalAttentionNode.test_matches_composed`` in the
        program's dtype."""
        rng = np.random.default_rng(13)
        rows, n, hidden, edge_dim = 7, 4, 8, 6
        hop = make_hop(rng, rows, n, edge_dim, gate=True, dead_rows=1)
        hop.edge_feat = hop.edge_feat.astype(np.float32)
        gate = hop.gate.data.astype(np.float32)
        h_t = None if zero_state else rng.standard_normal((rows, hidden)).astype(np.float32)
        h_n = None if zero_state else \
            rng.standard_normal((rows, n, hidden)).astype(np.float32)
        coeff = rng.standard_normal((rows, hidden)).astype(np.float32)

        model32 = TGAT(0, edge_dim, hidden_dim=hidden, time_dim=4, num_layers=1,
                       dropout=0.0, rng=np.random.default_rng(5))
        for p in model32.parameters():
            p.data = (p.data + 0.3 * rng.standard_normal(p.data.shape)).astype(np.float32)
        hop.gate = Tensor(gate.copy(), requires_grad=True)
        got = run_aggregate(node_temporal_attention, model32, hop, h_t, h_n, coeff)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(repro.tensor, "COMPUTE_DTYPE", np.float64)
            model64 = TGAT(0, edge_dim, hidden_dim=hidden, time_dim=4, num_layers=1,
                           dropout=0.0, rng=np.random.default_rng(5))
            model64.load_state_dict(model32.state_dict())
            hop.edge_feat = hop.edge_feat.astype(np.float64)
            hop.gate = Tensor(gate.astype(np.float64), requires_grad=True)
            wide = [None if h is None else h.astype(np.float64) for h in (h_t, h_n)]
            want = run_aggregate(composed_temporal_attention, model64, hop, *wide,
                                 coeff.astype(np.float64))
        assert want[0].dtype == np.float64
        _assert_close32(got[0], want[0], 1.0)
        _assert_close32(got[1], want[1], 1.0)
        assert len(got[2]) == len(want[2])
        scale = max(float(np.abs(g).max()) for g in want[2] if g is not None)
        for got_g, want_g in zip(got[2], want[2]):
            _assert_close32(got_g, want_g, scale)


    @pytest.mark.parametrize("rows,zero_state", [(1, True), (3, True), (40, False)],
                             ids=["serve_one", "serve_three", "live"])
    def test_graphmixer_aggregate_matches_composed(self, rows, zero_state):
        """``TestGraphMixerAggregateNode.test_matches_composed`` in the
        program's dtype, at a serve flush's row counts."""
        rng = np.random.default_rng(rows)
        n, hidden, edge_dim = 5, 8, 6
        hop = make_hop(rng, rows, n, edge_dim, gate=True, dead_rows=min(rows - 1, 1))
        hop.edge_feat = hop.edge_feat.astype(np.float32)
        gate = hop.gate.data.astype(np.float32)
        h_t = None if zero_state else rng.standard_normal((rows, hidden)).astype(np.float32)
        h_n = None if zero_state else \
            rng.standard_normal((rows, n, hidden)).astype(np.float32)
        coeff = rng.standard_normal((rows, hidden)).astype(np.float32)
        model32 = GraphMixer(0, edge_dim, hidden_dim=hidden, time_dim=4, num_neighbors=n,
                             dropout=0.0, rng=np.random.default_rng(5))
        for p in model32.parameters():
            p.data = (p.data + 0.3 * rng.standard_normal(p.data.shape)).astype(np.float32)
        hop.gate = Tensor(gate.copy(), requires_grad=True)
        got = run_aggregate(node_graphmixer_aggregate, model32, hop, h_t, h_n, coeff)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(repro.tensor, "COMPUTE_DTYPE", np.float64)
            model64 = GraphMixer(0, edge_dim, hidden_dim=hidden, time_dim=4,
                                 num_neighbors=n, dropout=0.0,
                                 rng=np.random.default_rng(5))
            model64.load_state_dict(model32.state_dict())
            hop.edge_feat = hop.edge_feat.astype(np.float64)
            hop.gate = Tensor(gate.astype(np.float64), requires_grad=True)
            wide = [None if h is None else h.astype(np.float64) for h in (h_t, h_n)]
            want = run_aggregate(composed_graphmixer_aggregate, model64, hop, *wide,
                                 coeff.astype(np.float64))
        assert want[0].dtype == np.float64
        _assert_close32(got[0], want[0], 1.0)
        assert len(got[2]) == len(want[2])
        scale = max(float(np.abs(g).max()) for g in want[2] if g is not None)
        for got_g, want_g in zip(got[2], want[2]):
            _assert_close32(got_g, want_g, scale)


# --------------------------------------------------------- time-phase precision

#: a second, an hour, a day, a month and the largest timespan of the datasets.
TIMESPANS = np.array([0.0, 1.0, 3.6e3, 8.64e4, 2.6e6, 1e7])
#: timespans whose phase at ``w = 1, b = 0`` sits on or just beside an odd
#: multiple of pi/2 — where the cosine crosses zero and the sine peaks —
#: from the first quarter turn out to ~1e7, the last ``dt = 1e7`` itself.
QUARTER_TURNS = np.array([k * np.pi / 2 + off for k in (1, 3, 15, 2001, 6366197)
                          for off in (-1e-7, 0.0, 1e-7)] + [1e7])


def _phase_weights(dim=8):
    """``w`` and ``b`` of a learnable encoder: ``w[0] == 1`` exactly (the
    log-scale initialisation starts at 1), ``b`` off zero except ``b[0]``."""
    enc = LearnableTimeEncoder(dim, rng=np.random.default_rng(0))
    enc.b.data = np.linspace(0.0, 1.0, dim).astype(np.float32)
    assert enc.w.data[0] == 1.0 and enc.b.data[0] == 0.0
    return enc


class TestTimePhasePrecision:
    """``w * dt + b`` is built and reduced into ``[-pi, pi]`` in float64;
    only the reduced phase is cast, and its cosine and sine are float32.

    float32 has 24 bits: at ``dt = 1e7`` a float32 timespan is exact only to
    1, and the float32 product ``w * dt`` to ``1e7 * 2**-24 ~ 0.6`` radians —
    the encoding of a month-old event would be noise.  The demonstrations
    below cast ``dt`` to float32 before the product, or the float64 phase to
    float32 before the reduction, and miss the 1e-6 bound by orders of
    magnitude; the reduced phase meets it, for the cosine and for the sine.
    """

    BOUND = 1e-6
    SPANS = np.concatenate([TIMESPANS, QUARTER_TURNS])

    def test_casting_dt_first_fails_the_bound(self):
        w = (1.0 / 10 ** np.linspace(0, 4, 8)).astype(np.float32)
        reference = np.cos(TIMESPANS[:, None] * w.astype(np.float64))
        early_cast = np.cos(TIMESPANS.astype(np.float32)[:, None] * w)
        assert early_cast.dtype == np.float32
        assert np.abs(early_cast - reference).max() > 1e-2

    def test_casting_the_unreduced_phase_fails_the_bound(self):
        phase = self.SPANS[:, None] * _phase_weights().w.data.astype(np.float64)
        unreduced = np.cos(phase.astype(np.float32))
        assert np.abs(unreduced - np.cos(phase)).max() > 1e-2

    @pytest.mark.parametrize("fn", [np.cos, np.sin])
    def test_reduced_phase(self, fn):
        """The helper every site takes its phase from, on the timespans and
        on the quarter turns."""
        enc = _phase_weights()
        w, b = enc.w.data, enc.b.data
        reduced = ReferenceBackend._reduced_phase(self.SPANS, w, b, np.float32)
        assert reduced.dtype == np.float32 and np.abs(reduced).max() <= np.float32(np.pi)
        got = fn(reduced)
        want = fn(self.SPANS[:, None] * w.astype(np.float64) + b.astype(np.float64))
        assert got.dtype == np.float32
        assert np.abs(got - want).max() <= self.BOUND
        # The quarter turns are what they claim: the cosine is ~0 there.
        assert np.abs(np.cos(QUARTER_TURNS[:-1])).max() < 1e-6

    def test_learnable_encoder(self):
        enc = _phase_weights()
        out = enc(self.SPANS)
        assert out.dtype == enc.w.dtype == np.float32
        reference = np.cos(self.SPANS[:, None] * enc.w.data.astype(np.float64)
                           + enc.b.data.astype(np.float64))
        assert np.abs(out.data - reference).max() <= self.BOUND

    def test_learnable_encoder_gradients_reduce_from_the_float64_phase(self):
        """``gw = -sum coeff * dt * sin(phase)`` and ``gb = -sum coeff *
        sin(phase)``.  Each float32 sine is within ``BOUND`` of the float64
        sine of the unreduced phase and both sums accumulate in float64, so
        the result is off the all-float64 reference by at most the sine's
        error weighted by the summands, plus one cast of the float64 sum
        (half an ulp, ``2**-24`` of it):

            |gw - want_w| <= BOUND * sum |coeff * dt| + 2**-24 |want_w|
            |gb - want_b| <= BOUND * sum |coeff|      + 2**-24 |want_b|
        """
        enc = _phase_weights()
        dt = np.repeat(self.SPANS, 50).reshape(-1, self.SPANS.size)
        coeff = np.random.default_rng(1).standard_normal(dt.shape + (8,)).astype(np.float32)
        (enc(dt) * Tensor(coeff)).sum().backward()
        assert enc.w.grad.dtype == enc.b.grad.dtype == np.float32
        w64, b64 = (p.data.astype(np.float64) for p in (enc.w, enc.b))
        gphase = -np.sin(dt[..., None] * w64 + b64) * coeff
        want_w = (gphase * dt[..., None]).sum(axis=(0, 1))
        want_b = gphase.sum(axis=(0, 1))
        weight_w = np.abs(coeff * dt[..., None]).sum(axis=(0, 1))
        weight_b = np.abs(coeff).sum(axis=(0, 1), dtype=np.float64)
        assert np.all(np.abs(enc.w.grad - want_w)
                      <= self.BOUND * weight_w + 2.0 ** -24 * np.abs(want_w))
        assert np.all(np.abs(enc.b.grad - want_b)
                      <= self.BOUND * weight_b + 2.0 ** -24 * np.abs(want_b))

    def test_fixed_encoder(self):
        enc = FixedTimeEncoder(8)
        out = enc(self.SPANS)
        assert out.dtype == np.float32 and enc.omega.dtype == np.float64
        assert enc.omega[0] == 1.0
        reference = np.cos(self.SPANS[:, None] * enc.omega)
        assert np.abs(out.data - reference).max() <= self.BOUND

    def test_time_columns_inside_temporal_attention(self):
        """The encoding the attention kernel retains for its backward pass —
        its time-encoding columns — against the all-float64 reference."""
        rng = np.random.default_rng(3)
        model = TGAT(0, 0, hidden_dim=4, time_dim=8, num_layers=1, dropout=0.0, rng=rng)
        model.time_encoder.b.data = np.linspace(-1.0, 1.0, 8).astype(np.float32)
        rows, n = 3, TIMESPANS.size
        mask = np.ones((rows, n), dtype=bool)
        hop = HopData(batch=NeighborBatch(
            root_nodes=np.arange(rows), root_times=np.full(rows, 2e7),
            nodes=np.ones((rows, n), dtype=np.int64), eids=np.ones((rows, n), dtype=np.int64),
            times=2e7 - np.tile(TIMESPANS, (rows, 1)), mask=mask))
        assert np.array_equal(hop.batch.delta_t()[0], TIMESPANS)
        captured = []
        backend = get_backend()
        forward = backend.temporal_attention_forward

        def capture(*args):
            out = forward(*args)
            captured.append(out[2])
            return out
        backend.temporal_attention_forward = capture
        try:
            gate = hop.make_gate()
            model.aggregate(1, None, None, hop)
        finally:
            del backend.temporal_attention_forward
        assert gate.dtype == np.float32
        te = captured[0][5]
        w, b = (p.data.astype(np.float64) for p in model.time_encoder.parameters())
        reference = np.cos(TIMESPANS[:, None] * w + b)
        assert te.dtype == np.float32 and te.shape == (rows, n, 8)
        assert np.abs(te[0] - reference).max() <= self.BOUND
