"""Shard scaling — the data-parallel training subsystem.

Not a paper table: this benchmark tracks the sharding axis of the north-star
(TGL-style event-log partitioning across workers).  It trains the same
chronological baseline cell under increasing worker counts ``W`` through
:class:`~repro.distributed.ShardedTrainer` (thread pool backend) and
records, per ``W``:

* wall-clock per epoch, trained-events **throughput** and the weak-scaling
  efficiency vs ``W = 1`` (every worker trains ``batch_size`` events per
  barrier step, so useful work per epoch grows with ``W``; efficiency is
  ``throughput_W / (W * throughput_1)`` and reaches 1.0 only when the
  hardware has ``W`` free cores — single-core hosts honestly report the
  barrier + contention overhead instead);
* the per-shard NF/FS/AS/PP phase breakdown (each shard's batch generation
  runs through its own engine, so the breakdown shows where the parallel
  time goes) plus the master-side gradient-averaging ``SYNC`` time;
* the shard plan summary (events and cache-budget slice per shard).

Correctness contracts asserted at every scale:

* ``W = 1`` produces a **bitwise-identical** loss trajectory to the plain
  single-process :class:`~repro.core.TaserTrainer`;
* ``W = 2`` reproduces exactly under the same seed — recorded as a
  ``determinism`` hash pair (run vs replay) that ``tools/bench_gate.py``
  checks for equality, so a determinism break fails CI even if the
  assertion itself were lost;
* the flat gradient buckets give bitwise-identical trajectories at every
  ``W`` whether they live in in-process buffers (serial and thread pools,
  asserted equal to each other) or in shared memory (process pool) —
  recorded as the ``comms_equivalence`` hash pair the gate enforces.

A second sweep times the **comms cells**: the process pool (the backend
whose buckets live in shared memory) at every ``W``, recording the
``sync = reduce + transport`` split and worker-side ``pack_seconds`` per
cell.

Results land in ``BENCH_shard_scaling.json`` for CI artifacts and the
benchmark regression gate.
"""

import hashlib
import json
import time

import pytest

from repro.bench import (attach_scaling_efficiency, bench_scale,
                         emit_bench_json, quick_config)
from repro.core import TaserTrainer
from repro.distributed import ShardedTrainer


def _loss_trajectory_hash(trajectories) -> str:
    """Stable digest of a per-epoch loss-trajectory list (full float repr)."""
    blob = json.dumps(trajectories, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _run_sharded(graph, config, workers, epochs, policy="temporal",
                 backend="thread"):
    with ShardedTrainer(graph, config, num_workers=workers,
                        shard_policy=policy, backend=backend) as trainer:
        start = time.perf_counter()
        for _ in range(epochs):
            trainer.train_epoch()
        wall = (time.perf_counter() - start) / max(epochs, 1)
        trajectories = [stats.batch_losses for stats in trainer.history]
        # Per-shard phase totals across epochs (NF/FS/AS/PP per shard).
        per_shard = [{} for _ in range(workers)]
        sync = reduce = transport = pack = 0.0
        for stats in trainer.history:
            sync += stats.sync_seconds
            reduce += stats.reduce_seconds
            transport += stats.transport_seconds
            pack += stats.pack_seconds
            for shard_summary in stats.per_shard:
                acc = per_shard[shard_summary["shard"]]
                for key, value in shard_summary["runtime"].items():
                    acc[key] = acc.get(key, 0.0) + value
        denom = max(epochs, 1)
        return {
            "wall_seconds_per_epoch": wall,
            "sync_seconds": sync / denom,
            "reduce_seconds": reduce / denom,
            "transport_seconds": transport / denom,
            "pack_seconds": pack / denom,
            "per_shard_phases": per_shard,
            "plan": trainer.plan.describe(),
            "global_steps_per_epoch": trainer.history[-1].global_steps,
        }, trajectories


@pytest.mark.paper("sharding (north-star extension)")
def test_shard_scaling(benchmark, wikipedia_graph):
    config = quick_config(
        backbone="graphmixer", adaptive_minibatch=False, adaptive_neighbor=False,
        batch_engine="sync", batch_size=150, max_batches_per_epoch=8,
        num_neighbors=5, num_candidates=5, eval_negatives=10, seed=0)
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
            entry["loss_hash"] = _loss_trajectory_hash(trajectories)
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
            "hash": _loss_trajectory_hash(w2_trajectories),
            "replay_hash": _loss_trajectory_hash(replay_trajectories),
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

    print("\nShard scaling (wikipedia, graphmixer baseline, thread pool)")
    for w in worker_counts:
        entry = payload["workers"][str(w)]
        print(f"  W={w}: {entry['wall_seconds_per_epoch']*1e3:7.1f} ms/epoch, "
              f"{entry['trained_events_per_second']:8.0f} events/s, "
              f"speedup {entry['speedup_vs_w1']:.2f}x, "
              f"efficiency {entry['efficiency']:.2f}, "
              f"shards {entry['plan']['shard_events']}")

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

    # ---- comms cells: the process pool, buckets in shared memory ------------
    comms_epochs = 1
    comms_cells = {}
    trajectories = {"serial": {}, "thread": {}, "process": {}}
    for w in worker_counts:
        entry, trajectories["process"][w] = _run_sharded(
            wikipedia_graph, config, w, comms_epochs, backend="process")
        # The scaling sweep above already records plan + phase detail.
        entry.pop("per_shard_phases")
        entry.pop("plan")
        comms_cells[str(w)] = entry
    for pool in ("serial", "thread"):
        for w in worker_counts:
            _, trajectories[pool][w] = _run_sharded(
                wikipedia_graph, config, w, comms_epochs, backend=pool)

    payload["comms"] = {
        "pool": "process",
        "epochs": comms_epochs,
        "cells": comms_cells,
        "equivalence_pools": ["serial", "thread", "process"],
    }
    # Both in-process pools share one buffer provider, so they must agree
    # with each other before their trajectory is set against shared memory.
    assert trajectories["thread"] == trajectories["serial"], \
        "serial and thread pools must train bitwise-identical trajectories"
    payload["comms_equivalence"] = {
        "hash": _loss_trajectory_hash(
            {f"w{w}": trajectories["serial"][w] for w in worker_counts}),
        "replay_hash": _loss_trajectory_hash(
            {f"w{w}": trajectories["process"][w] for w in worker_counts}),
    }

    print("Comms cells (process pool, buckets in shared memory)")
    for w in worker_counts:
        c = comms_cells[str(w)]
        print(f"  W={w}: sync {c['sync_seconds']*1e3:7.2f} ms = reduce "
              f"{c['reduce_seconds']*1e3:6.2f} + transport "
              f"{c['transport_seconds']*1e3:6.2f} ms; pack "
              f"{c['pack_seconds']*1e3:6.2f} ms")

    # Bitwise contract: in-process buffers and shared memory agree at every W.
    assert trajectories["process"] == trajectories["serial"], \
        "shared-memory buckets must match the in-process trajectories bitwise"

    benchmark.extra_info["shard_scaling"] = payload
    emit_bench_json("shard_scaling", payload)
