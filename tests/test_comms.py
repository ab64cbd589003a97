"""Gradient comms layer: bucket bitwise contract + the reference barrier.

Three contract layers (see docs/ARCHITECTURE.md, "Gradient comms layer"):

* :class:`GradientBucket` pack/unpack round-trips a ``GradList`` exactly
  (including the ``None`` mask and non-contiguous inputs), and its flat
  vectorised ``reduce`` is **bitwise-identical** to the reference
  :func:`average_gradients` loop — property-tested over mixed shapes, mask
  patterns and worker counts;
* ``ShardedTrainer`` — flat buckets in in-process buffers (serial/thread)
  or shared memory (process) — produces the loss trajectory of a plain
  reference barrier bitwise: per-worker ``p.grad`` copies averaged with
  :func:`average_gradients` in shard order, driven over bare
  :class:`ShardWorker`s without buckets or a pool;
* shared-memory segments never outlive the trainer — unlinked on normal
  shutdown *and* after a worker crash — and a dead child surfaces as a
  clear error instead of a hang.

The transport used to be an option; the removal tests at the end pin that
the option is gone from the trainer, the config, the CLI and the
environment.
"""

import glob
import os
import time
from multiprocessing import shared_memory

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.tensor
from repro import cli
from repro.core import TaserConfig
from repro.distributed import (ShardedTrainer, ShardTask, ShardWorker,
                               average_gradients)
from repro.distributed.comms import GradientBucket, GradientComms
from repro.graph import CTDGConfig, generate_ctdg, make_shard_plan


def tiny_config(**overrides):
    base = dict(backbone="graphmixer", adaptive_minibatch=True,
                adaptive_neighbor=True, hidden_dim=8, time_dim=4,
                num_neighbors=4, num_candidates=8, batch_size=64, epochs=1,
                max_batches_per_epoch=4, eval_max_edges=40, eval_negatives=10,
                lr=1e-3, dropout=0.0, seed=5)
    base.update(overrides)
    return TaserConfig(**base)


@pytest.fixture(scope="module")
def comms_graph():
    return generate_ctdg(CTDGConfig(num_src=40, num_dst=25, num_events=900,
                                    num_communities=4, edge_dim=8, seed=13,
                                    noise_prob=0.15, repeat_prob=0.4))


def _bitwise_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ------------------------------------------------------------------- bucket

@st.composite
def grad_problem(draw):
    """Shapes + W gradient lists with mixed None masks and layouts, in the
    compute dtype — the dtype of the gradients a bucket carries."""
    dtype = repro.tensor.COMPUTE_DTYPE
    shapes = draw(st.lists(
        st.sampled_from([(3,), (7,), (2, 4), (5, 3), (1,), (2, 2, 3), ()]),
        min_size=1, max_size=6))
    num_lists = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    grad_lists = []
    for _ in range(num_lists):
        grads = []
        for shape in shapes:
            choice = rng.integers(0, 4)
            if choice == 0:
                grads.append(None)
                continue
            g = rng.standard_normal(shape).astype(dtype)
            # Sprinkle exact signed zeros: the -0.0 packing trick must be
            # bitwise-transparent even when real gradients carry them.
            flat = g.reshape(-1)
            if flat.size:
                zeros = rng.random(flat.size) < 0.25
                flat[zeros] = rng.choice([0.0, -0.0])
            if choice == 2 and len(shape) >= 2:
                # Non-contiguous input: transpose of a reversed-shape array.
                g = np.ascontiguousarray(g.transpose()).transpose()
                assert not g.flags["C_CONTIGUOUS"] or g.size <= 1
            elif choice == 3 and shape and shape[0] > 1:
                # Sliced view with a stride.
                base = rng.standard_normal((shape[0] * 2,) + shape[1:]).astype(dtype)
                g = base[::2]
                assert g.shape == shape
            grads.append(g)
        grad_lists.append(grads)
    return shapes, grad_lists


@settings(max_examples=40, deadline=None)
@given(grad_problem())
def test_bucket_roundtrip_and_reduce_match_reference(problem):
    shapes, grad_lists = problem
    bucket = GradientBucket(shapes)

    buffers = []
    for grads in grad_lists:
        buf = bucket.allocate()
        bucket.pack(grads, buf)
        unpacked = bucket.unpack(buf)
        assert len(unpacked) == len(grads)
        for orig, back in zip(grads, unpacked):
            assert _bitwise_equal(orig, back)
        buffers.append(buf)

    w = len(grad_lists)
    out = bucket.allocate()
    bucket.reduce(buffers, out=out, denominator=w)
    flat_avg = bucket.unpack(out)
    ref_avg = average_gradients(grad_lists, denominator=w)
    for ref, got in zip(ref_avg, flat_avg):
        assert _bitwise_equal(ref, got)


def test_bucket_layout_and_validation():
    bucket = GradientBucket([(2, 3), (4,)])
    assert bucket.num_params == 2
    assert bucket.sizes == [6, 4]
    assert bucket.offsets == [2, 8]          # data starts after 2 mask slots
    assert bucket.total_floats == 12
    assert bucket.dtype == repro.tensor.COMPUTE_DTYPE == np.float32
    assert bucket.nbytes == 12 * 4
    assert bucket.allocate().dtype == bucket.dtype
    with pytest.raises(ValueError, match="expected 2 gradients"):
        bucket.pack([None], bucket.allocate())
    with pytest.raises(ValueError, match="no gradient buffers"):
        bucket.reduce([], out=bucket.allocate())


def test_bucket_reduce_skips_divide_at_denominator_one():
    bucket = GradientBucket([(3,)])
    buf = bucket.allocate()
    grads = [np.array([1.0, -0.0, 3.5], dtype=bucket.dtype)]
    bucket.pack(grads, buf)
    out = bucket.allocate()
    bucket.reduce([buf], out=out, denominator=1)
    assert _bitwise_equal(bucket.unpack(out)[0], grads[0])


# -------------------------------------------------------- average_gradients

def test_average_gradients_single_list_early_out_copies():
    grads = [np.array([1.0, -0.0, 2.0]), None]
    out = average_gradients([grads], denominator=1)
    assert _bitwise_equal(out[0], grads[0])
    assert out[0] is not grads[0], "early-out must return a private copy"
    assert out[1] is None


def test_average_gradients_single_list_respects_denominator():
    # denominator != 1 must NOT take the early-out: the caller asked for a
    # real divide (the sharded trainer never does this, but the reference
    # function's contract is denominator-driven, not W-driven).
    grads = [np.array([2.0, 4.0])]
    out = average_gradients([grads], denominator=2)
    np.testing.assert_array_equal(out[0], [1.0, 2.0])


def test_average_gradients_matches_pre_earlyout_form():
    rng = np.random.default_rng(0)
    grads = [rng.standard_normal(5), None, rng.standard_normal((2, 2))]
    fast = average_gradients([grads])
    # The general path, forced by a second all-None contributor weighted out
    # of the sum, divided by 1 — the reference semantics of W = 1.
    slow = average_gradients([grads, [None, None, None]], denominator=1)
    for f, s in zip(fast, slow):
        assert _bitwise_equal(f, s)


# ------------------------------------------------------- reference barrier

def _grad_copies(params):
    return [None if p.grad is None else p.grad.copy() for p in params]


def reference_trajectory(graph, config, workers, epochs=2):
    """The barrier without buckets or a pool: per-worker ``p.grad`` copies
    -> :func:`average_gradients` in shard order -> apply, model then
    sampler, over bare :class:`ShardWorker`s."""
    graph = graph if graph.is_chronological else graph.sort_by_time()
    plan = make_shard_plan(graph, workers, "temporal",
                           cache_ratio=config.cache_ratio)
    shards = []
    for spec in plan.shards:
        g = plan.shard_graph(spec.index)
        shards.append(ShardWorker(ShardTask(
            config=config, shard_index=spec.index, num_shards=workers,
            cache_capacity=spec.cache_capacity, src=g.src, dst=g.dst,
            ts=g.ts, num_nodes=g.num_nodes, edge_feat=g.edge_feat,
            node_feat=g.node_feat, meta=g.meta)))
    trajectory = []
    for _ in range(epochs):
        steps = min(w.num_batches(config.max_batches_per_epoch)
                    for w in shards)
        for w in shards:
            w.begin_epoch(steps)
        for _ in range(steps):
            grads = []
            for w in shards:
                assert w._backward()
                grads.append(_grad_copies(w.trainer.model_optimizer.params))
            averaged = average_gradients(grads, denominator=workers)
            sampler = [w._apply_model_grads(averaged) for w in shards]
            contributors = [_grad_copies(params) for params in sampler
                            if params is not None]
            if contributors:
                averaged = average_gradients(
                    contributors, denominator=len(contributors))
                for w in shards:
                    w._apply_sampler_grads(averaged)
        summaries = [w.end_epoch() for w in shards]
        trajectory.append([
            float(sum(s["losses"][i] for s in summaries) / workers)
            for i in range(steps)])
    return trajectory


@pytest.mark.parametrize("backend,workers", [
    ("serial", 1), ("serial", 3), ("thread", 2), ("process", 2),
])
def test_trainer_matches_reference_barrier(comms_graph, backend, workers):
    config = tiny_config()
    assert config.adaptive_neighbor   # the sampler sub-barrier runs too
    with ShardedTrainer(comms_graph, config, num_workers=workers,
                        backend=backend) as trainer:
        losses = [trainer.train_epoch().batch_losses for _ in range(2)]
        last = trainer.history[-1]
    assert losses == reference_trajectory(comms_graph, config, workers)
    assert last.sync_seconds == pytest.approx(
        last.reduce_seconds + last.transport_seconds)
    assert last.pack_seconds >= 0.0


def test_run_train_summary_reports_comms(comms_graph, monkeypatch):
    monkeypatch.setattr(cli, "load_dataset",
                        lambda name, scale=1.0, seed=0: comms_graph)
    parser = cli.build_train_parser()
    args = parser.parse_args(["--workers", "2", "--worker-backend", "serial",
                              "--epochs", "1", "--max-batches-per-epoch", "3"])
    summary = cli.run_train(args)
    assert summary["sync_seconds"] == pytest.approx(
        summary["reduce_seconds"] + summary["transport_seconds"])
    assert summary["pack_seconds"] >= 0.0
    assert "comms" not in summary and "barrier_bytes_moved" not in summary


# ------------------------------------------------- crash + lifecycle hygiene

def _shm_segment_names():
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-tmpfs host
        return None
    return sorted(glob.glob("/dev/shm/rcomms_*"))


def test_shm_segments_unlinked_on_shutdown(comms_graph):
    before = _shm_segment_names()
    trainer = ShardedTrainer(comms_graph, tiny_config(), num_workers=2,
                             backend="process")
    try:
        seg_name = trainer.comms._segment_names[0]
        assert shared_memory.SharedMemory(name=seg_name) is not None
    finally:
        trainer.shutdown()
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=seg_name)
    if before is not None:
        assert _shm_segment_names() == before


def test_dead_child_raises_instead_of_hanging(comms_graph):
    trainer = ShardedTrainer(comms_graph, tiny_config(), num_workers=2,
                             backend="process")
    before = _shm_segment_names()
    assert before  # the run is live: its segments exist
    seg_name = trainer.comms._segment_names[0]
    victim = trainer.pool.processes[0]
    victim.kill()
    victim.join(timeout=10.0)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match=r"shard worker 0 died"):
        trainer.pool.run("num_batches", [(2,)] * 2)
    assert time.perf_counter() - start < 30.0
    # The context-manager unwind path: comms cleanup must run even though a
    # child is gone, leaving no /dev/shm entries behind.
    start = time.perf_counter()
    trainer.shutdown()
    assert time.perf_counter() - start < 30.0
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=seg_name)
    after = _shm_segment_names()
    if after is not None:
        assert not set(after) & set(before)


def test_comms_flags_exhausted_worker():
    class FakePool:
        num_workers = 2
        backend = "serial"

        def run_one(self, index, method):
            assert method == "comms_layout"
            return {"model": [(2,)], "sampler": None}

        def run(self, method, args_list=None):
            assert method == "comms_attach"

        def run_timed(self, method, args_list=None):
            assert method == "comms_model_backward"
            return [True, False], 0.0   # worker 1 ran out of batches

    with pytest.raises(RuntimeError, match=r"\[1\] exhausted"):
        GradientComms(FakePool()).step()


# ------------------------------------------------------------- removal tests

#: what the deleted transport option was called; its flag, config field,
#: trainer argument and environment variable were all named after it.
GONE = "comms"


def test_default_transport_is_the_bucket_path(comms_graph):
    with ShardedTrainer(comms_graph, tiny_config(), num_workers=2,
                        backend="serial") as trainer:
        comms = trainer.comms
        assert isinstance(comms, GradientComms)
        assert comms.sampler_bucket is not None
        assert len(comms.model_bufs) == len(comms.sampler_bufs) == 2
        # in-process buffers: plain arrays, no shared-memory segment
        assert all(type(b) is np.ndarray
                   for b in [*comms.model_bufs, comms.model_avg])
        assert comms._segment_names == []


def test_trainer_rejects_unknown_comms(comms_graph):
    with pytest.raises(TypeError):
        ShardedTrainer(comms_graph, tiny_config(), num_workers=1,
                       backend="serial", **{GONE: "shm"})


def test_config_has_no_comms_field(monkeypatch):
    with pytest.raises(TypeError):
        tiny_config(**{GONE: "shm"})
    assert not hasattr(TaserConfig(), "resolved_" + GONE)
    # A stale variable from an older setup is ignored, not an error.
    monkeypatch.setenv("REPRO_" + GONE.upper(), "bogus")
    assert tiny_config().variant_name() == "TASER"


def test_cli_comms_flag_and_env_validation(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_" + GONE.upper(), "bogus")
    for build in (cli.build_parser, cli.build_train_parser,
                  cli.build_stream_parser, cli.build_serve_parser):
        parser = build()
        with pytest.raises(SystemExit):
            parser.parse_args(["--" + GONE, "shm"])
        assert "unrecognized arguments" in capsys.readouterr().err
        # the stale variable no longer fails validation
        cli._validate_runtime_env(parser, parser.parse_args([]))
