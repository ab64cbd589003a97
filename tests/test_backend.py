"""Array-backend runtime: registry, workspace arena, bitwise equality.

Three layers of coverage for ``repro.tensor.backend``:

* mechanics — the registry/env resolution, config/CLI validation with
  actionable errors, and the workspace arena's take/scratch/reset protocol
  (including thread isolation and the serial-pool arena-scope contract);
* kernel equality — hypothesis property tests asserting every fused kernel's
  forward output *and* gradients are bitwise-equal to the reference backend
  across shapes and dtypes, plus ``gradcheck`` runs of each fused kernel;
* trainer equality — full training runs (sync engine, 2 epochs) under both
  backends must produce identical loss-trajectory hashes and MRR, through
  the single-worker, sharded and streaming paths.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.bench.breakdown import loss_trajectory_hash
from repro.core import TaserConfig, TaserTrainer
from repro.tensor import Tensor, gradcheck
from repro.tensor import functional as F
from repro.tensor.backend import (ARENA_MIN_ELEMENTS, FusedBackend,
                                  WorkspaceArena, available_backends,
                                  get_backend,
                                  resolve_backend_name, set_backend,
                                  use_backend)

finite_floats = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False,
                          allow_infinity=False)


def small_array(max_side=4, dims=st.integers(1, 3), dtype=np.float64):
    return dims.flatmap(
        lambda nd: st.tuples(*([st.integers(1, max_side)] * nd)).flatmap(
            lambda shape: arrays(dtype, shape, elements=finite_floats)))


# ----------------------------------------------------------------- registry

class TestRegistry:
    def test_backends_registered(self):
        assert set(available_backends()) >= {"reference", "fused"}

    def test_resolution_order(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend_name(None) == "reference"
        assert resolve_backend_name("fused") == "fused"
        monkeypatch.setenv("REPRO_BACKEND", "fused")
        assert resolve_backend_name(None) == "fused"
        # explicit beats environment
        assert resolve_backend_name("reference") == "reference"

    def test_unknown_name_lists_backends(self, monkeypatch):
        with pytest.raises(ValueError, match="reference"):
            resolve_backend_name("cuda")
        monkeypatch.setenv("REPRO_BACKEND", "warp9")
        with pytest.raises(ValueError, match="REPRO_BACKEND"):
            resolve_backend_name(None)

    def test_set_backend_is_singleton_per_name(self):
        previous = get_backend()
        try:
            assert set_backend("fused") is set_backend("fused")
        finally:
            set_backend(previous.name)

    def test_use_backend_restores(self):
        before = get_backend().name
        with use_backend("fused") as backend:
            assert backend.name == "fused"
            assert get_backend() is backend
        assert get_backend().name == before

    def test_config_validates_backend(self, monkeypatch):
        with pytest.raises(ValueError, match="registered backends"):
            TaserConfig(array_backend="gpu0")
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        with pytest.raises(ValueError, match="registered backends"):
            TaserConfig()
        monkeypatch.setenv("REPRO_BACKEND", "fused")
        assert TaserConfig().resolved_array_backend == "fused"
        assert TaserConfig(array_backend="reference").resolved_array_backend \
            == "reference"

    def test_cli_flag_validates_at_parse_time(self, capsys):
        from repro.cli import build_parser
        parser = build_parser()
        assert parser.parse_args(["--backend", "fused"]).backend == "fused"
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["--backend", "tpu"])
        assert exc.value.code == 2
        assert "registered backends" in capsys.readouterr().err

    def test_cli_env_validated_at_parse_time(self, monkeypatch, capsys):
        from repro.cli import main
        monkeypatch.setenv("REPRO_BACKEND", "nope")
        with pytest.raises(SystemExit) as exc:
            main(["--epochs", "1"])
        assert exc.value.code == 2
        assert "registered backends" in capsys.readouterr().err


# ------------------------------------------------------------------- arena

class TestWorkspaceArena:
    def test_take_reuses_only_after_reset(self):
        arena = WorkspaceArena()
        a = arena.take((4, 3))
        b = arena.take((4, 3))
        assert a is not b, "buffers handed out twice within a batch"
        arena.reset()
        c = arena.take((4, 3))
        assert c is a or c is b
        stats = arena.stats()
        assert stats["workspace_allocated"] == 2
        assert stats["workspace_reused"] == 1
        assert stats["workspace_bytes_reused"] == c.nbytes
        assert stats["workspace_resets"] == 1

    def test_scratch_returns_immediately(self):
        arena = WorkspaceArena()
        s = arena.scratch((5,))
        arena.give_back(s)
        assert arena.take((5,)) is s

    def test_shapes_and_dtypes_do_not_mix(self):
        arena = WorkspaceArena()
        a = arena.take((2, 2))
        b = arena.take((4,))
        arena.reset()
        assert arena.take((4,)) is b
        assert arena.take((2, 2)) is a
        assert arena.take((2, 2), dtype=np.float32) is not a

    def test_fused_arenas_are_thread_local(self):
        backend = FusedBackend()
        seen = {}

        def worker(key):
            seen[key] = backend.arena

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen[0] is not seen[1]
        assert backend.arena is not seen[0]

    def test_arena_scope_isolates_owners(self):
        """The serial-pool contract: two owners on one thread never recycle
        each other's buffers."""
        backend = FusedBackend()
        arena_a, arena_b = backend.new_arena(), backend.new_arena()
        with backend.arena_scope(arena_a):
            backend.begin_batch()
            held = backend.add(np.ones(3), np.ones(3))
        with backend.arena_scope(arena_b):
            backend.begin_batch()  # resets B only
            backend.add(np.full(3, 9.0), np.zeros(3))
        assert np.array_equal(held, np.full(3, 2.0)), \
            "owner B's batch boundary recycled owner A's live buffer"

    def test_free_list_bytes_are_capped(self):
        import repro.tensor.backend as backend_mod

        arena = WorkspaceArena()
        cap = backend_mod.MAX_FREE_BYTES
        big = (cap // 8 // 4 + 1,)  # four of these exceed the byte cap
        for _ in range(6):
            arena.take(big)
        arena.reset()
        stats = arena.stats()
        assert stats["workspace_dropped"] >= 2, \
            "arena retained more than MAX_FREE_BYTES of free buffers"

    def test_mixed_backend_trainers_coexist(self, small_graph):
        """Constructing a second trainer with a different backend must not
        silently switch execution for the first (the active backend is
        re-installed at every batch boundary)."""
        def config(backend):
            # hidden_dim=32: forward kernels must reach ARENA_MIN_ELEMENTS
            # for the fused trainer to have anything to reuse.
            return TaserConfig(backbone="graphmixer", hidden_dim=32, time_dim=4,
                               num_neighbors=3, num_candidates=3, batch_size=64,
                               adaptive_minibatch=False, adaptive_neighbor=False,
                               max_batches_per_epoch=3, dropout=0.0,
                               eval_max_edges=20, seed=0, array_backend=backend)

        fused_trainer = TaserTrainer(small_graph, config("fused"))
        ref_trainer = TaserTrainer(small_graph, config("reference"))
        # The reference trainer was built last, so it installed its backend —
        # yet the fused trainer's epoch must still run fused kernels.
        fused_stats = fused_trainer.train_epoch()
        ref_stats = ref_trainer.train_epoch()
        assert fused_stats.array_backend == "fused"
        assert fused_stats.workspace_allocations_saved > 0
        assert ref_stats.array_backend == "reference"
        assert ref_stats.workspace_allocations_saved == 0
        assert fused_stats.batch_losses == ref_stats.batch_losses

    def test_trainer_reports_workspace_savings(self, small_graph):
        # Sized so forward kernels reach ARENA_MIN_ELEMENTS (the gradient
        # copies that used to fill the arena on toy sizes no longer exist).
        config = TaserConfig(backbone="graphmixer", hidden_dim=32, time_dim=4,
                             num_neighbors=3, num_candidates=3, batch_size=64,
                             adaptive_minibatch=False, adaptive_neighbor=False,
                             max_batches_per_epoch=3, dropout=0.0,
                             eval_max_edges=20, seed=0, array_backend="fused")
        trainer = TaserTrainer(small_graph, config)
        stats = trainer.train_epoch()
        assert stats.array_backend == "fused"
        assert stats.workspace_allocations_saved > 0
        assert stats.workspace_bytes_saved > 0
        ref = TaserTrainer(small_graph,
                           TaserConfig(**{**config.__dict__,
                                          "array_backend": "reference"}))
        ref_stats = ref.train_epoch()
        assert ref_stats.array_backend == "reference"
        assert ref_stats.workspace_allocations_saved == 0


# ------------------------------------------------------------ arena stress

class TestArenaThreadSafety:
    def test_concurrent_scratch_no_double_handout(self):
        """N threads hammer scratch/give_back on one shape; a buffer handed to
        two holders at once would show up as a foreign fill value."""
        arena = WorkspaceArena()
        shape, iters, workers = (64,), 300, 4
        errors = []
        ops = [0] * workers

        def hammer(tid):
            for i in range(iters):
                buf = arena.scratch(shape)
                ops[tid] += 1
                stamp = float(tid * iters + i)
                buf.fill(stamp)
                if not np.all(buf == stamp):
                    errors.append((tid, i))
                arena.give_back(buf)

        threads = [threading.Thread(target=hammer, args=(tid,))
                   for tid in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, f"buffer handed out twice: {errors[:5]}"
        assert arena.allocated + arena.reused == sum(ops)

    def test_concurrent_take_reset_with_scratch_traffic(self):
        """One thread cycles take/reset (the consumer) while others run
        scratch traffic (kernels on other threads) on the same shapes."""
        arena = WorkspaceArena()
        shape = (128,)
        stop = threading.Event()
        errors = []

        def consumer():
            for cycle in range(100):
                held = [arena.take(shape) for _ in range(4)]
                if len({id(buf) for buf in held}) != len(held):
                    errors.append(("dup-take", cycle))
                for j, buf in enumerate(held):
                    buf.fill(float(cycle * 10 + j))
                for j, buf in enumerate(held):
                    if not np.all(buf == float(cycle * 10 + j)):
                        errors.append(("clobbered", cycle, j))
                arena.reset()
            stop.set()

        def scratcher(tid):
            i = 0
            while not stop.is_set():
                buf = arena.scratch(shape)
                stamp = float(10_000 + tid * 1_000 + (i % 997))
                buf.fill(stamp)
                if not np.all(buf == stamp):
                    errors.append(("scratch-clobbered", tid, i))
                arena.give_back(buf)
                i += 1

        threads = [threading.Thread(target=consumer)] + \
            [threading.Thread(target=scratcher, args=(tid,))
             for tid in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, f"arena race: {errors[:5]}"
        assert arena.resets == 100

    def test_counters_consistent_after_stress(self):
        arena = WorkspaceArena()
        for _ in range(10):
            bufs = [arena.take((32,)) for _ in range(3)]
            assert len({id(b) for b in bufs}) == 3
            arena.reset()
        assert arena.allocated + arena.reused == 30
        assert arena.resets == 10
        stats = arena.stats()
        assert stats["workspace_allocated"] == arena.allocated
        assert stats["workspace_reused"] == arena.reused


# --------------------------------------------- fused-backend size bypass

class TestArenaSizeBypass:
    def test_small_outputs_skip_the_arena(self):
        backend = FusedBackend()
        arena = backend.new_arena()
        small = np.ones(64, dtype=np.float64)
        with backend.arena_scope(arena):
            backend.begin_batch()
            out = backend.add(small, small)
        assert np.array_equal(np.asarray(out), np.full(64, 2.0))
        assert arena.allocated + arena.reused == 0

    def test_large_outputs_still_use_the_arena(self):
        backend = FusedBackend()
        arena = backend.new_arena()
        big = np.ones(ARENA_MIN_ELEMENTS, dtype=np.float64)
        with backend.arena_scope(arena):
            backend.begin_batch()
            backend.add(big, big)
        assert arena.allocated + arena.reused >= 1


# --------------------------------------------------- kernel bitwise equality

def _both(fn):
    """Run ``fn`` under each backend and return the two results."""
    results = []
    for name in ("reference", "fused"):
        with use_backend(name) as backend:
            backend.begin_batch()
            results.append(fn())
    return results


def _assert_bitwise(ref, fused):
    assert len(ref) == len(fused)
    for r, f in zip(ref, fused):
        r, f = np.asarray(r), np.asarray(f)
        assert r.dtype == f.dtype
        assert np.array_equal(r, f), f"max diff {np.abs(r - f).max()}"


class TestKernelEquality:
    @settings(max_examples=25, deadline=None)
    @given(small_array(), st.sampled_from([-1, 0]))
    def test_softmax_forward_backward(self, data, axis):
        def run():
            x = Tensor(data.copy(), requires_grad=True)
            out = x.softmax(axis=axis)
            out.sum().backward()
            return out.data.copy(), x.grad.copy()
        _assert_bitwise(*_both(run))

    @settings(max_examples=25, deadline=None)
    @given(small_array())
    def test_log_softmax_forward_backward(self, data):
        def run():
            x = Tensor(data.copy(), requires_grad=True)
            out = x.log_softmax(axis=-1)
            (out * out).sum().backward()
            return out.data.copy(), x.grad.copy()
        _assert_bitwise(*_both(run))

    @settings(max_examples=25, deadline=None)
    @given(small_array())
    def test_unary_kernels(self, data):
        def run():
            x = Tensor(data.copy(), requires_grad=True)
            y = (x.gelu() + x.sigmoid() + x.tanh() + x.relu()
                 + x.leaky_relu() + x.cos() + x.sin() + x.exp())
            y.sum().backward()
            return y.data.copy(), x.grad.copy()
        _assert_bitwise(*_both(run))

    @settings(max_examples=25, deadline=None)
    @given(small_array(dims=st.integers(2, 3)))
    def test_layer_norm(self, data):
        dim = data.shape[-1]
        w = np.linspace(0.5, 1.5, dim)
        b = np.linspace(-0.1, 0.1, dim)

        def run():
            x = Tensor(data.copy(), requires_grad=True)
            weight = Tensor(w.copy(), requires_grad=True)
            bias = Tensor(b.copy(), requires_grad=True)
            out = F.layer_norm(x, weight, bias)
            out.sum().backward()
            return (out.data.copy(), x.grad.copy(), weight.grad.copy(),
                    bias.grad.copy())
        _assert_bitwise(*_both(run))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 4), st.integers(1, 4),
           st.integers(0, 2 ** 31 - 1))
    def test_matmul_and_linear(self, n, k, m, seed):
        rng = np.random.default_rng(seed)
        a_np = rng.standard_normal((n, k))
        b_np = rng.standard_normal((k, m))

        def run():
            a = Tensor(a_np.copy(), requires_grad=True)
            b = Tensor(b_np.copy(), requires_grad=True)
            out = a @ b
            out.sum().backward()
            return out.data.copy(), a.grad.copy(), b.grad.copy()
        _assert_bitwise(*_both(run))

    @pytest.mark.parametrize("rows", [3, 600])
    @pytest.mark.parametrize("strided", [False, True])
    def test_flattened_linear(self, rows, strided):
        """``(R, n, k) @ (k, m)`` — one GEMM under both backends; 600 rows
        put the product above ARENA_MIN_ELEMENTS, 3 rows keep it below."""
        rng = np.random.default_rng(rows)
        n, k, m = 5, 8, 7
        x_np = rng.standard_normal((rows, k, n) if strided else (rows, n, k))
        w_np = rng.standard_normal((m, k))
        b_np = rng.standard_normal(m)

        def run():
            x = Tensor(x_np.copy(), requires_grad=True)
            w = Tensor(w_np.copy(), requires_grad=True)
            b = Tensor(b_np.copy(), requires_grad=True)
            out = F.linear(x.swapaxes(1, 2) if strided else x, w, b)
            (out * out).sum().backward()
            return out.data.copy(), x.grad.copy(), w.grad.copy(), b.grad.copy()
        _assert_bitwise(*_both(run))

    @settings(max_examples=25, deadline=None)
    @given(arrays(np.float64, (3, 4),
                  elements=st.floats(min_value=0.0, max_value=100.0)),
           st.integers(1, 16))
    def test_time_encodings(self, delta, dim):
        from repro.encoders import FixedTimeEncoder, LearnableTimeEncoder

        def run():
            fixed = FixedTimeEncoder(dim)
            rng = np.random.default_rng(0)
            learnable = LearnableTimeEncoder(dim, rng=rng)
            out_f = fixed(delta.copy())
            out_l = learnable(delta.copy())
            out_l.sum().backward()
            return (out_f.data.copy(), out_l.data.copy(),
                    learnable.w.grad.copy(), learnable.b.grad.copy())
        _assert_bitwise(*_both(run))

    @settings(max_examples=15, deadline=None)
    @given(small_array(dtype=np.float32))
    def test_float32_inputs_fall_back_identically(self, data):
        """Non-float64 tensors take the fallback path and still match."""
        def run():
            x = Tensor(data.copy(), dtype=np.float32)
            return ((x * 2.0 + x).data.copy(),
                    Tensor(data.copy()).sigmoid().data.copy())
        _assert_bitwise(*_both(run))

    @settings(max_examples=15, deadline=None)
    @given(small_array(dims=st.integers(2, 2)))
    def test_non_contiguous_layouts_match(self, data):
        """Transposed (non-C-contiguous) operands must not diverge: the
        fused backend falls back so downstream pairwise-summed reductions
        see the same memory layout as the reference."""
        def run():
            x = Tensor(data.copy(), requires_grad=True)
            out = x.transpose().gelu() @ Tensor(np.ones((data.shape[0], 2)))
            out.sum().backward()
            return out.data.copy(), x.grad.copy()
        _assert_bitwise(*_both(run))

    def test_masked_softmax_and_bce(self):
        rng = np.random.default_rng(5)
        scores = rng.standard_normal((6, 4))
        mask = rng.random((6, 4)) > 0.3
        logits_np = rng.standard_normal(8)
        targets = (rng.random(8) > 0.5).astype(np.float64)

        def run():
            s = Tensor(scores.copy(), requires_grad=True)
            out = F.masked_softmax(s, mask)
            logits = Tensor(logits_np.copy(), requires_grad=True)
            loss = F.binary_cross_entropy_with_logits(logits, Tensor(targets))
            (out.sum() + loss).backward()
            return (out.data.copy(), loss.data.copy(), s.grad.copy(),
                    logits.grad.copy())
        _assert_bitwise(*_both(run))


# ------------------------------------------------------- fused gradcheck

class TestFusedGradcheck:
    """Each fused kernel's backward rule against a numerical Jacobian."""

    def _check(self, fn, *shapes, seed=0):
        rng = np.random.default_rng(seed)
        with use_backend("fused"):
            inputs = [Tensor(rng.standard_normal(s), requires_grad=True)
                      for s in shapes]
            assert gradcheck(fn, inputs, atol=1e-3, rtol=1e-2)

    def test_softmax(self):
        self._check(lambda x: x.softmax(-1).sum(), (3, 4))

    def test_log_softmax(self):
        self._check(lambda x: (x.log_softmax(-1) * x.log_softmax(-1)).sum(),
                    (3, 4))

    def test_gelu(self):
        self._check(lambda x: x.gelu().sum(), (4, 3))

    def test_sigmoid_tanh(self):
        self._check(lambda x: (x.sigmoid() * x.tanh()).sum(), (3, 3))

    def test_layer_norm(self):
        self._check(lambda x, w, b: F.layer_norm(x, w, b).sum(),
                    (4, 5), (5,), (5,))

    def test_matmul(self):
        self._check(lambda a, b: (a @ b).sum(), (3, 4), (4, 2))

    def test_flattened_matmul(self):
        self._check(lambda a, b: ((a @ b) ** 2).sum(), (2, 3, 4), (4, 2))
        self._check(lambda a, b: ((a.swapaxes(1, 2) @ b) ** 2).sum(),
                    (2, 4, 3), (4, 2))

    def test_learnable_time_encoding(self):
        rng = np.random.default_rng(3)
        delta = np.abs(rng.standard_normal((3, 2)))
        with use_backend("fused"):
            from repro.encoders import LearnableTimeEncoder
            enc = LearnableTimeEncoder(4, rng=rng)
            # gradcheck perturbs the parameter arrays in place, so a lambda
            # that closes over the encoder sees every perturbation.
            assert gradcheck(lambda w, b: enc(delta).sum(),
                             [enc.w, enc.b], atol=1e-3, rtol=1e-2)


# --------------------------------------------------- trainer-level equality

def _train(graph, backend, **overrides):
    kwargs = dict(backbone="tgat", hidden_dim=16, time_dim=8,
                  num_neighbors=4, num_candidates=8, batch_size=100,
                  epochs=2, max_batches_per_epoch=4, dropout=0.0,
                  adaptive_minibatch=True, adaptive_neighbor=True,
                  batch_engine="sync", eval_max_edges=40, seed=0,
                  array_backend=backend)
    kwargs.update(overrides)
    config = TaserConfig(**kwargs)
    trainer = TaserTrainer(graph, config)
    result = trainer.fit(epochs=2)
    losses = [list(s.batch_losses) for s in result.history]
    return loss_trajectory_hash(losses), result


class TestTrainerEquality:
    def test_trajectory_hash_and_mrr_match(self, small_graph):
        ref_hash, ref = _train(small_graph, "reference")
        fused_hash, fused = _train(small_graph, "fused")
        assert ref_hash == fused_hash
        assert ref.test_mrr == fused.test_mrr
        assert ref.test_metrics == fused.test_metrics
        assert all(s.workspace_allocations_saved > 0 for s in fused.history)

    def test_graphmixer_trajectory_matches(self, small_graph):
        ref_hash, _ = _train(small_graph, "reference", backbone="graphmixer",
                             adaptive_minibatch=False)
        fused_hash, _ = _train(small_graph, "fused", backbone="graphmixer",
                               adaptive_minibatch=False)
        assert ref_hash == fused_hash

    def test_sharded_thread_pool_matches_reference(self, small_graph):
        from repro.distributed import ShardedTrainer

        hashes = {}
        for backend in ("reference", "fused"):
            config = TaserConfig(backbone="graphmixer", hidden_dim=32,
                                 time_dim=4, num_neighbors=3, num_candidates=3,
                                 batch_size=64, adaptive_minibatch=False,
                                 adaptive_neighbor=False, dropout=0.0,
                                 max_batches_per_epoch=3, eval_max_edges=20,
                                 seed=0, array_backend=backend)
            with ShardedTrainer(small_graph, config, num_workers=2,
                                backend="thread") as sharded:
                sharded.train_epoch()
                hashes[backend] = loss_trajectory_hash(
                    [list(s.batch_losses) for s in sharded.history])
                if backend == "fused":
                    assert sharded.history[-1].workspace_allocations_saved > 0
        assert hashes["reference"] == hashes["fused"]

    def test_sharded_serial_pool_matches_reference(self, small_graph):
        """Serial pool: replicas share one thread, exercising the
        per-trainer arena-scope isolation."""
        from repro.distributed import ShardedTrainer

        hashes = {}
        for backend in ("reference", "fused"):
            config = TaserConfig(backbone="graphmixer", hidden_dim=8,
                                 time_dim=4, num_neighbors=3, num_candidates=3,
                                 batch_size=64, adaptive_minibatch=False,
                                 adaptive_neighbor=True, dropout=0.0,
                                 max_batches_per_epoch=3, eval_max_edges=20,
                                 seed=0, array_backend=backend)
            with ShardedTrainer(small_graph, config, num_workers=2,
                                backend="serial") as sharded:
                sharded.train_epoch()
                hashes[backend] = loss_trajectory_hash(
                    [list(s.batch_losses) for s in sharded.history])
        assert hashes["reference"] == hashes["fused"]
