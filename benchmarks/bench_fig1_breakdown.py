"""Figure 1 — mini-batch generation dominates TGAT training time.

The paper's motivating figure: as the number of neighbors per layer grows,
the per-epoch *preparation* time (neighbor finding + feature slicing +
CPU-GPU transfer) of a 2-layer TGAT with the original per-query finder grows
much faster than the *propagation* time, and dominates the epoch.

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
gate like shard/stream regressions already do.

Since the pluggable prep-backend runtime landed, the wikipedia variant also
tracks the *preparation* half per prep backend
(``repro.core.prep_backend``): the largest-budget cell is trained under both
the ``reference`` and the ``fused`` prep backend, recording per-prep-backend
``prep_seconds``/``nf_seconds``, and the payload carries a
``prep_backend_equivalence`` hash pair (reference trajectory vs fused
trajectory) that the bench gate enforces at every scale — a fused prep path
that stops being bitwise-identical to the reference fails CI even at smoke
scale.
"""

import pytest

from repro.bench import bench_scale, emit_bench_json, quick_config
from repro.bench.breakdown import runtime_breakdown

NEIGHBOR_SWEEP = [5, 10, 15]
PREP_BACKENDS = ("reference", "fused")
#: epochs of the per-prep-backend experiment: epoch 0 absorbs numpy /
#: allocator warm-up (and is excluded from the timing averages via
#: ``warmup_epochs=1``), later epochs measure steady state.
BACKEND_EPOCHS = 3


def _budget_config(budget, prep_backend="reference", max_batches=4):
    return quick_config(
        backbone="tgat", adaptive_minibatch=False, adaptive_neighbor=False,
        finder="original", cache_ratio=0.0, num_neighbors=budget,
        num_candidates=budget, batch_size=100, max_batches_per_epoch=max_batches,
        eval_max_edges=10, seed=0, prep_backend=prep_backend)


def _sweep(graph, name):
    # Two epochs per cell, first trained-but-untimed: each budget's first
    # epoch pays shape-specific allocator/BLAS warm-up (matrix widths change
    # with the neighbor budget), which lands almost entirely on the short
    # propagation phase and can halve the measured prep share of a cell.
    rows = {}
    for budget in NEIGHBOR_SWEEP:
        row = runtime_breakdown(graph, _budget_config(budget),
                                label=f"{name}-n{budget}", epochs=2,
                                warmup_epochs=1)
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
                               warmup_epochs=1)
    determinism = {"hash": rows[NEIGHBOR_SWEEP[-1]]["loss_hash"],
                   "replay_hash": replay.loss_hash}
    return rows, determinism


def _prep_backend_sweep(graph, name):
    """Train the largest-budget cell under each prep backend.

    Uses more batches per epoch than the budget sweep and averages over the
    timed ``BACKEND_EPOCHS`` epochs, each cell's first epoch left untimed so
    the allocator/page-cache state left by the previous cell cannot bias the
    comparison.  Rows are keyed by prep backend with the prep-side phase
    splits (``prep_seconds`` = NF + FS, plus bare ``nf_seconds`` — the phase
    the batched composite-key probe replaces).
    """
    budget = NEIGHBOR_SWEEP[-1]
    rows = {}
    for prep_backend in PREP_BACKENDS:
        row = runtime_breakdown(
            graph, _budget_config(budget, prep_backend=prep_backend,
                                  max_batches=12),
            label=f"{name}-prep-{prep_backend}", epochs=BACKEND_EPOCHS,
            warmup_epochs=1)
        rows[prep_backend] = {
            "prep_seconds": row.nf + row.fs,
            "nf_seconds": row.nf,
            "prop_seconds": row.pp,
            "loss_hash": row.loss_hash,
        }
    # Reference-vs-fused prep divergence pair: both prep backends must
    # produce the same batch-loss trajectory bit for bit; the gate enforces
    # equality of any hash/replay_hash pair at every scale.
    equivalence = {"hash": rows["reference"]["loss_hash"],
                   "replay_hash": rows["fused"]["loss_hash"]}
    return rows, equivalence


def _payload(rows, determinism, prep_backends=None, prep_equivalence=None):
    payload = {"rows": {str(k): v for k, v in rows.items()},
               "determinism": determinism}
    if prep_backends is not None:
        payload["prep_backends"] = prep_backends
        payload["prep_backend_equivalence"] = prep_equivalence
    return payload


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


def _report_prep_backends(name, prep_backends, equivalence):
    ref = prep_backends["reference"]
    fused = prep_backends["fused"]
    reduction = (1.0 - fused["prep_seconds"] / ref["prep_seconds"]
                 if ref["prep_seconds"] else 0.0)
    print(f"Figure 1 ({name}): preparation per prep backend "
          f"(n={NEIGHBOR_SWEEP[-1]}, {BACKEND_EPOCHS} epochs)")
    print(f"  reference  Prep={ref['prep_seconds']:.3f}s "
          f"(NF={ref['nf_seconds']:.3f}s)")
    print(f"  fused      Prep={fused['prep_seconds']:.3f}s "
          f"(NF={fused['nf_seconds']:.3f}s, "
          f"{reduction * 100:+.1f}% vs reference)")
    # Bitwise contract: identical loss trajectories across prep backends,
    # always — even at smoke scale.
    assert equivalence["hash"] == equivalence["replay_hash"]
    # Headline speedup of the batched composite-key probe, asserted where
    # wall-clock is trustworthy (smoke runners are too noisy to block on).
    if bench_scale() >= 0.5:
        assert reduction >= 0.10
    elif reduction < 0.10:
        print(f"  WARNING: prep reduction {reduction * 100:.1f}% < 10% "
              "(warn-only below REPRO_BENCH_SCALE=0.5)")


@pytest.mark.paper("Figure 1")
def test_fig1_tgat_runtime_breakdown_wikipedia(benchmark, wikipedia_graph):
    def experiment():
        rows, determinism = _sweep(wikipedia_graph, "wikipedia")
        prep_backends, prep_equivalence = _prep_backend_sweep(
            wikipedia_graph, "wikipedia")
        return rows, determinism, prep_backends, prep_equivalence

    rows, determinism, prep_backends, prep_equivalence = benchmark.pedantic(
        experiment, rounds=1, iterations=1)
    _report("wikipedia", rows, determinism)
    _report_prep_backends("wikipedia", prep_backends, prep_equivalence)
    benchmark.extra_info["rows"] = {str(k): v for k, v in rows.items()}
    benchmark.extra_info["prep_backends"] = prep_backends
    emit_bench_json("fig1_breakdown_wikipedia",
                    _payload(rows, determinism, prep_backends,
                             prep_equivalence))


@pytest.mark.paper("Figure 1")
def test_fig1_tgat_runtime_breakdown_reddit(benchmark, reddit_graph):
    rows, determinism = benchmark.pedantic(
        lambda: _sweep(reddit_graph, "reddit"), rounds=1, iterations=1)
    _report("reddit", rows, determinism)
    benchmark.extra_info["rows"] = {str(k): v for k, v in rows.items()}
    emit_bench_json("fig1_breakdown_reddit", _payload(rows, determinism))
