"""Table III — per-epoch runtime breakdown of the system optimisations.

The paper ablates its two system contributions on top of full TASER training:
starting from a baseline that uses the original per-query neighbor finder and
no feature cache, it adds (1) the GPU neighbor finder and (2) a 10/20/30%
dynamic edge-feature cache, reporting the per-epoch time of the four phases
NF / AS / FS / PP and the total speedup (avg. 8.7x for TGAT, 1.8x for
GraphMixer; 5.1x overall).

Reproduced shape (asserted):
* the GPU finder removes nearly all of the NF time,
* the cache reduces the FS time monotonically with its capacity,
* the fully-optimised configuration is faster than the baseline, and the
  TGAT speedup exceeds the GraphMixer speedup (TGAT's two-hop sampling
  suffers more from slow mini-batch generation).
"""

import pytest

from repro.bench import (bench_scale, emit_bench_json, engine_mode_comparison,
                         quick_config)
from repro.bench.breakdown import runtime_breakdown, system_configurations


def _run_breakdown(graph, backbone):
    base = quick_config(backbone=backbone, adaptive_minibatch=True,
                        adaptive_neighbor=True, batch_size=150,
                        max_batches_per_epoch=6, eval_max_edges=10, seed=0)
    rows = {}
    for label, config in system_configurations(base):
        rows[label] = runtime_breakdown(graph, config, label=label, epochs=1)
    return rows


def _print_rows(rows, backbone):
    print(f"\nTable III (reproduction, {backbone}): per-epoch seconds "
          "(simulated device time)")
    baseline_total = rows["Baseline"].total
    for label, row in rows.items():
        speedup = baseline_total / row.total if row.total else float("inf")
        print(f"  {label:12s} NF={row.nf:.4f} AS={row.adaptive:.4f} "
              f"FS={row.fs:.4f} PP={row.pp:.4f} total={row.total:.4f} "
              f"({speedup:.2f}x)")


def _assert_shape(rows):
    baseline = rows["Baseline"]
    gpu_nf = rows["+GPU NF"]
    best = rows["+30% Cache"]
    # GPU neighbor finding removes nearly all NF time.
    assert gpu_nf.nf < 0.1 * baseline.nf
    # Feature-slicing time falls as the cache grows (10% tolerance absorbs the
    # wall-clock jitter of the measured gather component).
    assert rows["+10% Cache"].fs <= 1.10 * gpu_nf.fs
    assert rows["+20% Cache"].fs <= 1.10 * rows["+10% Cache"].fs
    assert rows["+30% Cache"].fs <= 1.10 * rows["+20% Cache"].fs
    assert rows["+30% Cache"].fs < gpu_nf.fs
    # Full optimisation is faster than the baseline.
    assert best.total < baseline.total
    return baseline.total / best.total


@pytest.mark.paper("Table III")
def test_table3_runtime_breakdown(benchmark, wikipedia_graph):
    def experiment():
        return {backbone: _run_breakdown(wikipedia_graph, backbone)
                for backbone in ("tgat", "graphmixer")}

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)

    speedups = {}
    for backbone, rows in results.items():
        _print_rows(rows, backbone)
        speedups[backbone] = _assert_shape(rows)
    print(f"total speedup: tgat {speedups['tgat']:.2f}x, "
          f"graphmixer {speedups['graphmixer']:.2f}x")

    # TGAT (2-hop) benefits more from the optimisations than GraphMixer (1-hop).
    assert speedups["tgat"] > speedups["graphmixer"]

    benchmark.extra_info["speedups"] = speedups
    benchmark.extra_info["rows"] = {
        backbone: {label: row.as_dict() for label, row in rows.items()}
        for backbone, rows in results.items()}
    emit_bench_json("table3_runtime", {
        "speedups": speedups,
        "rows": benchmark.extra_info["rows"],
    })


@pytest.mark.paper("Table III")
def test_table3_batch_engine_modes(benchmark, wikipedia_graph):
    """Per-epoch wall-clock of the two mini-batch engines.

    Measures the chronological baseline (GraphMixer, per-query ``original``
    finder — the slow mini-batch-generation path of Fig. 1) under the
    ``sync`` and ``aot`` engines, in the same simulated-device
    currency as the rest of Table III (host-side NF keeps wall-clock, dense
    compute is device-converted, FS uses the modelled transfer cost).

    Determinism is the acceptance bar: per-batch losses and MRR must be
    identical across engines.  Speedup is the headline: the AOT plan
    vectorises the whole epoch's neighbor finding in one pass over the T-CSR
    and must beat the synchronous engine by >= 1.3x (asserted at full
    benchmark scale; smoke runs at tiny scales only check determinism).
    """
    config = quick_config(
        backbone="graphmixer", adaptive_minibatch=False, adaptive_neighbor=False,
        finder="original", batch_engine="sync", batch_size=150,
        max_batches_per_epoch=8, num_neighbors=10, num_candidates=10,
        eval_max_edges=50, eval_negatives=10, seed=0)

    results = benchmark.pedantic(
        lambda: engine_mode_comparison(wikipedia_graph, config, epochs=2),
        rounds=1, iterations=1)

    print("\nTable III (reproduction): mini-batch engine comparison "
          "(GraphMixer baseline, original finder; simulated device seconds)")
    for mode, row in results.items():
        print(f"  {mode:9s} effective={row['effective_mode']:9s} "
              f"epoch={row['epoch_seconds']:.4f}s "
              f"({row['speedup_vs_sync']:.2f}x)  "
              f"wall={row['wall_seconds']:.3f}s "
              f"({row['wall_speedup_vs_sync']:.2f}x)  "
              f"MRR={row['test_mrr']:.4f}")

    # Determinism contract: identical per-batch losses and MRR across engines.
    assert results["aot"]["batch_losses"] == results["sync"]["batch_losses"]
    assert results["aot"]["test_mrr"] == results["sync"]["test_mrr"]

    # Headline: the AOT sampling plan beats synchronous generation.  Tiny
    # smoke scales (CI artifact runs) have too little NF work to assert on.
    if bench_scale() >= 0.5:
        assert results["aot"]["speedup_vs_sync"] >= 1.3

    benchmark.extra_info["modes"] = {
        mode: {k: v for k, v in row.items() if k != "batch_losses"}
        for mode, row in results.items()}
    emit_bench_json("table3_engine_modes", benchmark.extra_info["modes"])
