"""Gradient comms layer: bucket bitwise contract + the reference barrier.

Three contract layers (see docs/ARCHITECTURE.md, "Gradient comms"):

* :class:`GradientBucket` pack/unpack round-trips a ``GradList`` exactly
  (including the ``None`` mask and non-contiguous inputs), and its flat
  vectorised ``reduce`` is **bitwise-identical** to the reference
  :func:`average_gradients` loop — property-tested over mixed shapes, mask
  patterns and worker counts;
* ``ShardedTrainer`` — flat buckets in anonymous shared mappings created
  before the pool, used in-process by the serial pool and inherited by the
  process pool's forked children — produces the loss trajectory of a plain
  reference barrier bitwise: per-worker ``p.grad`` copies averaged with
  :func:`average_gradients` in shard order, driven over bare
  :class:`ShardWorker`s without buckets or a pool;
* a dead child surfaces as a clear error instead of a hang, a worker built
  from another config is refused at build, and the process pool says so
  where fork is missing.

The transport used to be an option, and the pool had a thread backend with
named shared-memory segments; the removal tests at the end pin that they
are gone from the trainer, the config, the CLI and the environment.
"""

import glob
import math
import mmap
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.distributed
import repro.tensor
from repro import cli
from repro.core import EpochStats, TaserConfig, TaserTrainer
from repro.device.memory import SliceStats
from repro.distributed import (ProcessWorkerPool, SerialWorkerPool,
                               ShardedTrainer, ShardTask, ShardWorker,
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
    # One list at denominator 1 (the case the old W = 1 early-out served)
    # runs the general path: dividing by 1.0 is the identity bit for bit
    # (signed zeros included), and the result never aliases its input.
    rng = np.random.default_rng(0)
    grads = [np.array([1.0, -0.0, 2.0]), None, rng.standard_normal((2, 2))]
    out = average_gradients([grads], denominator=1)
    for g, got in zip(grads, out):
        assert _bitwise_equal(got, g)
        assert got is None or not np.shares_memory(got, g)


def test_average_gradients_matches_pre_earlyout_form():
    rng = np.random.default_rng(0)
    grads = [rng.standard_normal(5), None, rng.standard_normal((2, 2))]
    single = average_gradients([grads])
    # A second all-None contributor weighted out of the sum, divided by 1:
    # the reference semantics of W = 1, whatever the list count.
    padded = average_gradients([grads, [None, None, None]], denominator=1)
    for a, b in zip(single, padded):
        assert _bitwise_equal(a, b)


def test_average_gradients_single_list_respects_denominator():
    # The reference function's contract is denominator-driven, not
    # W-driven: one list with denominator 2 is halved.
    grads = [np.array([2.0, 4.0])]
    out = average_gradients([grads], denominator=2)
    np.testing.assert_array_equal(out[0], [1.0, 2.0])


# ------------------------------------------------------- reference barrier

def _grad_copies(params):
    return [None if p.grad is None else p.grad.copy() for p in params]


def reference_trajectory(graph, config, workers, epochs=2):
    """The barrier without buckets or a pool: per-worker ``p.grad`` copies
    -> :func:`average_gradients` in shard order -> apply, over bare
    :class:`ShardWorker`s driving their trainers' two step halves.  The
    model average is over all workers, the sampler's over the workers that
    backpropagated a sample loss."""
    graph = graph if graph.is_chronological else graph.sort_by_time()
    plan = make_shard_plan(graph, workers, "temporal",
                           cache_ratio=config.cache_ratio)
    shards = []
    for spec in plan.shards:
        shards.append(ShardWorker(ShardTask(
            config=config, shard_index=spec.index, num_shards=workers,
            cache_capacity=spec.cache_capacity,
            graph=plan.shard_graph(spec.index))))
    trajectory = []
    for _ in range(epochs):
        steps = min(w.num_batches(config.max_batches_per_epoch)
                    for w in shards)
        for w in shards:
            w.begin_epoch(steps)
        for _ in range(steps):
            train_steps, model, sampler = [], [], []
            for w in shards:
                t = w.trainer
                step = t._backward(next(w._batches))
                train_steps.append(step)
                model.append(_grad_copies(t.model_optimizer.params))
                if step.sampled:
                    sampler.append(_grad_copies(t.sampler_optimizer.params))
            model_avg = average_gradients(model, denominator=workers)
            sampler_avg = (average_gradients(sampler, denominator=len(sampler))
                           if sampler else None)
            for w, step in zip(shards, train_steps):
                t = w.trainer
                w._install(t.model_optimizer.params, model_avg)
                if sampler_avg is not None:
                    w._install(t.sampler_optimizer.params, sampler_avg)
                step.sampled = sampler_avg is not None
                t._apply(step)
        epochs = [w.end_epoch()[0] for w in shards]
        trajectory.append([
            float(sum(s.batch_losses[i] for s in epochs) / workers)
            for i in range(steps)])
    return trajectory


@pytest.mark.parametrize("backend,workers", [
    ("serial", 1), ("serial", 3), ("process", 2), ("process", 3),
])
def test_trainer_matches_reference_barrier(comms_graph, backend, workers):
    config = tiny_config()
    assert config.adaptive_neighbor   # the sampler bucket is exchanged too
    with ShardedTrainer(comms_graph, config, num_workers=workers,
                        backend=backend) as trainer:
        epochs = [trainer.train_epoch() for _ in range(2)]
    losses = [stats.batch_losses for stats in epochs]
    assert losses == reference_trajectory(comms_graph, config, workers)
    # The master's one barrier number: its reduce seconds, a wall clock.
    sync = epochs[-1].runtime["SYNC"]
    assert math.isfinite(sync) and sync >= 0.0


def test_run_train_summary_reports_comms(comms_graph, monkeypatch):
    monkeypatch.setattr(cli, "load_dataset",
                        lambda name, scale=1.0, seed=0: comms_graph)
    args = cli.build_parser().parse_args(["train", "--workers", "2", "--epochs",
                                          "1", "--max-batches-per-epoch", "3"])
    summary = cli.run_train(args)
    assert summary["pool"] == "process"
    sync = summary["runtime_breakdown_seconds"]["SYNC"]
    assert math.isfinite(sync) and sync >= 0.0
    assert 1 <= summary["global_steps_per_epoch"] <= 3
    assert not {"comms", "barrier_bytes_moved", "sync_seconds",
                "reduce_seconds", "transport_seconds",
                "pack_seconds"} & set(summary)


# ------------------------------------------------------ crash + misuse hygiene

def test_dead_child_raises_instead_of_hanging(comms_graph):
    trainer = ShardedTrainer(comms_graph, tiny_config(), num_workers=2)
    victim = trainer.pool.processes[0]
    victim.kill()
    victim.join(timeout=10.0)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match=r"shard worker 0 died"):
        trainer.pool.run("num_batches", [(2,)] * 2)
    assert time.perf_counter() - start < 30.0
    # The context-manager unwind path must not hang on the dead child.
    start = time.perf_counter()
    trainer.shutdown()
    assert time.perf_counter() - start < 30.0


class FakePool:
    """A pool as the barrier sees it: ``run`` and nothing else."""

    def __init__(self, replies):
        self.replies = replies
        self.calls = []
        self.args = []

    def run(self, method, args_list=None):
        self.calls.append(method)
        self.args.append(args_list)
        return self.replies[method]


def test_fake_pool_implements_only_run():
    members = {name for name in vars(FakePool) if not name.startswith("__")}
    assert members == {"run"}


def test_comms_step_drives_the_pool_through_run_only():
    # A baseline config has no sampler bucket: one exchange of the model's.
    comms = GradientComms([(2,)], None, num_workers=2)
    pool = FakePool({"comms_backward": [False, False],
                     "comms_apply": [None, None]})
    seconds = comms.step(pool)
    assert pool.calls == ["comms_backward", "comms_apply"]
    assert pool.args == [None, [(False,), (False,)]]
    assert math.isfinite(seconds) and seconds >= 0.0


def test_adaptive_step_is_one_exchange():
    """An adaptive step is two round trips, backward then apply: the
    sampler's reduce runs between them, over its contributors only."""
    comms = GradientComms([(2,)], [(3,)], num_workers=2)
    for i, buf in enumerate(comms.model_bufs):
        comms.model_bucket.pack([np.full(2, i + 1.0, dtype=buf.dtype)], buf)
    for i, buf in enumerate(comms.sampler_bufs):
        comms.sampler_bucket.pack([np.full(3, i + 3.0, dtype=buf.dtype)], buf)
    pool = FakePool({"comms_backward": [False, True],
                     "comms_apply": [None, None]})
    comms.step(pool)
    assert pool.calls == ["comms_backward", "comms_apply"]
    assert pool.args[1] == [(True,), (True,)]
    model, = comms.model_bucket.unpack(comms.model_avg)
    sampler, = comms.sampler_bucket.unpack(comms.sampler_avg)
    np.testing.assert_array_equal(model, [1.5, 1.5])      # over all W = 2
    np.testing.assert_array_equal(sampler, [4.0, 4.0, 4.0])   # worker 1 only


def test_comms_flags_exhausted_worker(comms_graph):
    # A worker asked for a step past its schedule raises, naming its shard.
    config = tiny_config(adaptive_neighbor=False)
    comms = GradientComms.for_replica(TaserTrainer(comms_graph, config), 1)
    worker = ShardWorker(ShardTask(config=config, shard_index=3, num_shards=4,
                                   cache_capacity=0, graph=comms_graph,
                                   comms=comms.endpoint(0)))
    worker.begin_epoch(1)
    assert worker.comms_backward() is False
    with pytest.raises(RuntimeError, match=r"shard worker 3 exhausted"):
        worker.comms_backward()


def _task(graph, config, comms=None):
    return ShardTask(config=config, shard_index=0, num_shards=1,
                     cache_capacity=0, graph=graph, comms=comms)


def test_worker_barrier_methods_return_plain_values(comms_graph):
    config = tiny_config()
    comms = GradientComms.for_replica(TaserTrainer(comms_graph, config), 1)
    worker = ShardWorker(_task(comms_graph, config, comms.endpoint(0)))
    worker.begin_epoch(1)
    assert worker.comms_backward() is True   # a sample loss was packed
    comms.model_bucket.reduce(comms.model_bufs, out=comms.model_avg)
    comms.sampler_bucket.reduce(comms.sampler_bufs, out=comms.sampler_avg)
    assert worker.comms_apply(True) is None
    stats, slices = worker.end_epoch()
    assert isinstance(stats, EpochStats) and isinstance(slices, SliceStats)


def test_worker_refuses_a_layout_it_does_not_match(comms_graph):
    master = TaserTrainer(comms_graph, tiny_config())
    comms = GradientComms.for_replica(master, num_workers=1)
    with pytest.raises(ValueError,
                       match=r"model parameter \d+ has shape .* expects"):
        ShardWorker(_task(comms_graph, tiny_config(hidden_dim=16),
                          comms.endpoint(0)))
    # The master's own config matches its layout.
    ShardWorker(_task(comms_graph, tiny_config(), comms.endpoint(0)))


def test_process_pool_requires_fork(comms_graph, monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    with pytest.raises(RuntimeError, match=r"'fork'.*backend=\"serial\""):
        ProcessWorkerPool([_task(comms_graph, tiny_config())])


def test_pool_follows_worker_count(comms_graph):
    for workers, pool in ((1, SerialWorkerPool), (2, ProcessWorkerPool)):
        with ShardedTrainer(comms_graph, tiny_config(),
                            num_workers=workers) as trainer:
            assert type(trainer.pool) is pool
            assert trainer.backend == pool.backend


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
        # one provider: arrays viewing anonymous shared mappings, and the
        # workers hold the very arrays the master reduces over
        buffers = [*comms.model_bufs, comms.model_avg,
                   *comms.sampler_bufs, comms.sampler_avg]
        assert all(type(b) is np.ndarray and isinstance(b.base.obj, mmap.mmap)
                   for b in buffers)
        for i, worker in enumerate(trainer.pool.workers):
            assert worker._comms.model_buf is comms.model_bufs[i]
            assert worker._comms.model_avg is comms.model_avg


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
    parser = cli.build_parser()
    for command in ("train", "stream", "serve"):
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--" + GONE, "shm"])
        assert "unrecognized arguments" in capsys.readouterr().err
        # the stale variable does not fail parsing
        parser.parse_args([command])


def test_cli_has_no_worker_backend_flag(capsys):
    with pytest.raises(SystemExit):
        cli.main(["train", "--worker-backend", "thread"])
    assert "unrecognized arguments" in capsys.readouterr().err


def test_trainer_rejects_the_thread_pool(comms_graph):
    with pytest.raises(ValueError, match=r"\('serial', 'process'\)"):
        ShardedTrainer(comms_graph, tiny_config(), num_workers=2,
                       backend="thread")


def test_no_thread_pool_export():
    assert not hasattr(repro.distributed, "ThreadWorkerPool")
    assert "ThreadWorkerPool" not in repro.distributed.__all__


def test_w2_run_creates_no_shm_segment(comms_graph):
    before = set(glob.glob("/dev/shm/rcomms_*"))
    with ShardedTrainer(comms_graph, tiny_config(), num_workers=2) as trainer:
        trainer.train_epoch()
        assert set(glob.glob("/dev/shm/rcomms_*")) == before
    # ...and the comms layer does not even import the named-segment module.
    probe = ("import sys, repro.distributed.comms; "
             "print('multiprocessing.shared_memory' in sys.modules)")
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "False"
