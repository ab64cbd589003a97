"""Shard scaling — the data-parallel training subsystem.

Not a paper table: this benchmark tracks the sharding axis of the north-star
(TGL-style event-log partitioning across workers).  It trains the same
chronological baseline cell under increasing worker counts ``W`` through
:class:`~repro.distributed.ShardedTrainer` on the pool ``W`` derives (serial
at ``W = 1``, process above) and records, per ``W``:

* wall-clock per epoch, trained-events **throughput** and the weak-scaling
  efficiency vs ``W = 1`` (every worker trains ``batch_size`` events per
  barrier step, so useful work per epoch grows with ``W``; efficiency is
  ``throughput_W / (W * throughput_1)`` and reaches 1.0 only when the
  hardware has ``W`` free cores — single-core hosts honestly report the
  barrier + contention overhead instead);
* the per-shard NF/FS/AS/PP phase breakdown (each shard's batch generation
  runs through its own engine, so the breakdown shows where the parallel
  time goes);
* the barrier: ``sync_seconds``, the master's reduce seconds per epoch
  (``runtime["SYNC"]``);
* the shard plan summary (events and cache-budget slice per shard).

Correctness contracts asserted at every scale:

* ``W = 1`` produces a **bitwise-identical** loss trajectory to the plain
  single-process :class:`~repro.core.TaserTrainer`;
* ``W = 2`` reproduces exactly under the same seed — recorded as a
  ``determinism`` hash pair (run vs replay) that ``tools/bench_gate.py``
  checks for equality, so a determinism break fails CI even if the
  assertion itself were lost;
* the serial pool (workers in-process over the shared buckets) and the
  process pool (forked children over the same mappings) train
  bitwise-identical trajectories at every ``W`` — recorded as the
  ``comms_equivalence`` hash pair the gate enforces;
* the same holds for the adaptive-neighbor cell at ``W = 2``, whose steps
  also exchange the sampler's gradients (the sweep's baseline cell has no
  sampler) — the ``comms_equivalence_adaptive`` pair, losses and sample
  losses.

Results land in ``BENCH_shard_scaling.json`` for CI artifacts and the
benchmark regression gate.
"""

import time

import pytest

from repro.bench import (attach_scaling_efficiency, bench_scale,
                         emit_bench_json, quick_config)
from repro.bench.breakdown import loss_trajectory_hash
from repro.core import TaserTrainer
from repro.distributed import ShardedTrainer


def _run_sharded(graph, config, workers, epochs, policy="temporal",
                 backend=None):
    with ShardedTrainer(graph, config, num_workers=workers,
                        shard_policy=policy, backend=backend) as trainer:
        start = time.perf_counter()
        history = [trainer.train_epoch() for _ in range(epochs)]
        wall = (time.perf_counter() - start) / max(epochs, 1)
        trajectories = [stats.batch_losses for stats in history]
        # Per-shard phase totals across epochs (NF/FS/AS/PP per shard).
        per_shard = [{} for _ in range(workers)]
        sync = 0.0
        for stats in history:
            sync += stats.runtime["SYNC"]
            for acc, shard_stats in zip(per_shard, stats.per_shard):
                for key, value in shard_stats.runtime.items():
                    acc[key] = acc.get(key, 0.0) + value
        denom = max(epochs, 1)
        return {
            "pool": trainer.backend,
            "wall_seconds_per_epoch": wall,
            "sync_seconds": sync / denom,
            "per_shard_phases": per_shard,
            "plan": trainer.plan.describe(),
            "global_steps_per_epoch": len(history[-1].batch_losses),
            "sample_losses": [stats.sample_loss for stats in history],
        }, trajectories


@pytest.mark.paper("sharding (north-star extension)")
def test_shard_scaling(benchmark, wikipedia_graph):
    cell = dict(
        backbone="graphmixer", adaptive_minibatch=False, adaptive_neighbor=False,
        batch_size=150, max_batches_per_epoch=8,
        num_neighbors=5, num_candidates=5, eval_negatives=10, seed=0)
    config = quick_config(**cell)
    epochs = config.epochs
    worker_counts = (1, 2, 4) if bench_scale() >= 0.5 else (1, 2)

    def experiment():
        # Untimed warm-up: absorb one-time numpy/allocator costs before any
        # cell is timed.  Without it the first timed cell (W=1, the scaling
        # baseline) pays the process warm-up alone, which inflates its wall
        # time and makes W=2 look superlinear (efficiency 1.4+ was recorded
        # before this run; see docs/BENCHMARKS.md, "Warm-up ordering").
        TaserTrainer(wikipedia_graph, config).train_epoch()
        results = {}
        for w in worker_counts:
            entry, trajectories = _run_sharded(wikipedia_graph, config, w, epochs)
            entry["loss_hash"] = loss_trajectory_hash(trajectories)
            results[w] = (entry, trajectories)
        return results

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)

    # -- contract: W = 1 is bitwise-identical to the single-process trainer.
    reference = TaserTrainer(wikipedia_graph, config)
    reference_trajectories = [reference.train_epoch().batch_losses
                              for _ in range(epochs)]
    _, w1_trajectories = results[1]
    assert w1_trajectories == reference_trajectories, \
        "ShardedTrainer(W=1) must match TaserTrainer bitwise"

    # -- contract: W = 2 reproduces exactly under the same seed.
    _, w2_trajectories = results[2]
    _, replay_trajectories = _run_sharded(wikipedia_graph, config, 2, epochs)
    assert replay_trajectories == w2_trajectories, \
        "ShardedTrainer(W=2) must reproduce under a fixed seed"

    payload = {
        "epochs": epochs,
        "worker_counts": list(worker_counts),
        "workers": {},
        "w1_matches_single_trainer": True,
        "determinism": {
            "hash": loss_trajectory_hash(w2_trajectories),
            "replay_hash": loss_trajectory_hash(replay_trajectories),
        },
    }
    for w in worker_counts:
        entry, _ = results[w]
        wall = entry["wall_seconds_per_epoch"]
        # Weak scaling: every worker trains batch_size events per barrier
        # step, so trained events per epoch grow with W.
        trained_events = entry["global_steps_per_epoch"] * config.batch_size * w
        entry["trained_events_per_second"] = trained_events / wall if wall \
            else float("inf")
        payload["workers"][str(w)] = entry
    violations = attach_scaling_efficiency(payload["workers"])

    print("\nShard scaling (wikipedia, graphmixer baseline)")
    for w in worker_counts:
        entry = payload["workers"][str(w)]
        print(f"  W={w} ({entry['pool']}): "
              f"{entry['wall_seconds_per_epoch']*1e3:7.1f} ms/epoch, "
              f"{entry['trained_events_per_second']:8.0f} events/s, "
              f"speedup {entry['speedup_vs_w1']:.2f}x, "
              f"efficiency {entry['efficiency']:.2f}, "
              f"shards {entry['plan']['shard_events']}")
        print(f"        sync (master reduce) {entry['sync_seconds']*1e3:7.2f} ms")

    assert payload["determinism"]["hash"] == payload["determinism"]["replay_hash"]
    # Epoch length is the min shard batch count — every step is a W-way barrier.
    for w in worker_counts:
        assert payload["workers"][str(w)]["global_steps_per_epoch"] >= 1
    # Parallel speedup cannot beat W on real work: super-tolerance efficiency
    # means the W=1 baseline was mis-measured.  Hard at scale >= 0.5 where
    # timings are stable; warn-only at smoke scale.
    if bench_scale() >= 0.5:
        assert not violations, "; ".join(violations)
    else:
        for violation in violations:
            print(f"  WARN (smoke-scale timing): {violation}")

    # ---- comms equivalence: serial vs process pool at every W ------------
    # The sweep ran each W on its derived pool; run the other pool once.
    trajectories = {"serial": {}, "process": {}}
    for w in worker_counts:
        entry, derived = results[w]
        trajectories[entry["pool"]][w] = derived
        other = "process" if entry["pool"] == "serial" else "serial"
        _, trajectories[other][w] = _run_sharded(
            wikipedia_graph, config, w, epochs, backend=other)
    payload["comms_equivalence"] = {
        "hash": loss_trajectory_hash(
            {f"w{w}": trajectories["serial"][w] for w in worker_counts}),
        "replay_hash": loss_trajectory_hash(
            {f"w{w}": trajectories["process"][w] for w in worker_counts}),
    }
    assert trajectories["process"] == trajectories["serial"], \
        "the serial and process pools must train bitwise-identical trajectories"

    # ---- the sampler exchange: the sweep's baseline cell backpropagates no
    # sample loss, so train the adaptive-neighbor cell on both pools at W = 2.
    adaptive = quick_config(**{**cell, "adaptive_neighbor": True,
                               "num_candidates": 10})
    runs = {}
    for pool in ("serial", "process"):
        entry, losses = _run_sharded(wikipedia_graph, adaptive, 2, epochs,
                                     backend=pool)
        assert all(loss != 0.0 for loss in entry["sample_losses"]), \
            "the adaptive cell must exchange sampler gradients"
        runs[pool] = {"losses": losses,
                      "sample_losses": entry["sample_losses"]}
    payload["comms_equivalence_adaptive"] = {
        "hash": loss_trajectory_hash(runs["serial"]),
        "replay_hash": loss_trajectory_hash(runs["process"]),
    }
    assert runs["process"] == runs["serial"], \
        "the serial and process pools must exchange sampler gradients bitwise"

    benchmark.extra_info["shard_scaling"] = payload
    emit_bench_json("shard_scaling", payload)
