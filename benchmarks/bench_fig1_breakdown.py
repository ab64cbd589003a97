"""Figure 1 — mini-batch generation dominates TGAT training time.

The paper's motivating figure: as the number of neighbors per layer grows,
the per-epoch *preparation* time (neighbor finding + feature slicing +
CPU-GPU transfer) of a 2-layer TGAT with the original per-query finder grows
much faster than the *propagation* time, and dominates the epoch.  Like the
original TGAT, every row of a level is its own query (``per_row``): the
runtime's distinct-query levels would hide the growth in repeats and padding.

Reproduced shape: Prep time grows super-linearly with the neighbor budget and
exceeds Prop time at the larger budgets on both dataset profiles.

Since the unified prep runtime landed, this benchmark is also the perf
trajectory of the prep path itself: every row records ``prep_seconds`` /
``prop_seconds`` (gate-compatible leaf names, see ``tools/bench_gate.py``)
plus the deduplicated-gather statistics (``dedup_ratio``, unique-id counts)
from ``FeatureStore.snapshot()``, and the payload carries a run-vs-replay
determinism hash pair over the batch-loss trajectory.

The wikipedia variant has a committed baseline under
``benchmarks/baselines/`` so prep- and prop-path regressions fail the bench
gate like shard/stream regressions already do; its ``determinism`` pair is
required by the gate (``REQUIRED_HASH_PAIRS``), so it cannot silently stop
being emitted.
"""

import pytest

from repro.bench import emit_bench_json, quick_config
from repro.bench.breakdown import runtime_breakdown
from repro.bench.finders import OriginalNeighborFinder

NEIGHBOR_SWEEP = [5, 10, 15]


def _budget_config(budget):
    return quick_config(
        backbone="tgat", adaptive_minibatch=False, adaptive_neighbor=False,
        cache_ratio=0.0, num_neighbors=budget,
        num_candidates=budget, batch_size=100, max_batches_per_epoch=4,
        eval_max_edges=10, seed=0)


def _sweep(graph, name):
    # Two epochs per cell, first trained-but-untimed: each budget's first
    # epoch pays shape-specific allocator/BLAS warm-up (matrix widths change
    # with the neighbor budget), which lands almost entirely on the short
    # propagation phase and can halve the measured prep share of a cell.
    rows = {}
    for budget in NEIGHBOR_SWEEP:
        row = runtime_breakdown(graph, _budget_config(budget),
                                label=f"{name}-n{budget}", epochs=2,
                                warmup_epochs=1, finder=OriginalNeighborFinder,
                                per_row=True)
        rows[budget] = {
            "prep_seconds": row.nf + row.fs,
            "prop_seconds": row.pp,
            "prep_share": row.minibatch_generation_fraction,
            "dedup_ratio": row.dedup_ratio,
            "ids_requested": row.ids_requested,
            "ids_unique": row.ids_unique,
            "loss_hash": row.loss_hash,
        }
    # Determinism pair: replay the largest budget under the same seed; the
    # bench gate enforces hash equality at every scale.
    replay = runtime_breakdown(graph, _budget_config(NEIGHBOR_SWEEP[-1]),
                               label=f"{name}-replay", epochs=2,
                               warmup_epochs=1, finder=OriginalNeighborFinder,
                               per_row=True)
    determinism = {"hash": rows[NEIGHBOR_SWEEP[-1]]["loss_hash"],
                   "replay_hash": replay.loss_hash}
    return rows, determinism


def _payload(rows, determinism):
    return {"rows": {str(k): v for k, v in rows.items()},
            "determinism": determinism}


def _report(name, rows, determinism):
    print(f"\nFigure 1 ({name}): per-epoch Prep vs Prop seconds of 2-layer TGAT")
    for budget, row in rows.items():
        print(f"  neighbors/layer={budget:3d}  Prep={row['prep_seconds']:.3f}s  "
              f"Prop={row['prop_seconds']:.3f}s  "
              f"Prep share={row['prep_share'] * 100:.0f}%  "
              f"dedup={row['dedup_ratio']:.2f}x")
    budgets = sorted(rows)
    # Preparation time grows with the neighbor budget...
    assert rows[budgets[-1]]["prep_seconds"] > rows[budgets[0]]["prep_seconds"]
    # ...and dominates the epoch at the largest budget (paper: 70-92%).
    assert rows[budgets[-1]]["prep_share"] > 0.5
    # The loss trajectory must reproduce under the fixed seed.
    assert determinism["hash"] == determinism["replay_hash"]


@pytest.mark.paper("Figure 1")
def test_fig1_tgat_runtime_breakdown_wikipedia(benchmark, wikipedia_graph):
    rows, determinism = benchmark.pedantic(
        lambda: _sweep(wikipedia_graph, "wikipedia"), rounds=1, iterations=1)
    _report("wikipedia", rows, determinism)
    benchmark.extra_info["rows"] = {str(k): v for k, v in rows.items()}
    emit_bench_json("fig1_breakdown_wikipedia", _payload(rows, determinism))


@pytest.mark.paper("Figure 1")
def test_fig1_tgat_runtime_breakdown_reddit(benchmark, reddit_graph):
    rows, determinism = benchmark.pedantic(
        lambda: _sweep(reddit_graph, "reddit"), rounds=1, iterations=1)
    _report("reddit", rows, determinism)
    benchmark.extra_info["rows"] = {str(k): v for k, v in rows.items()}
    emit_bench_json("fig1_breakdown_reddit", _payload(rows, determinism))
