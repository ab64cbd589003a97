"""Figure 3(a) — neighbor-finder sampling time comparison.

The paper compares three uniform temporal neighbor finders on 2-layer TGAT
sampling as the per-layer budget grows: the original per-query finder, the
TGL pointer-array CPU finder (chronological order only), and TASER's
block-centric GPU finder.  The GPU finder is reported >3 orders of magnitude
faster than the original and 37-56x faster than TGL.

Reproduced shape (asserted): for every budget the GPU finder is more than 4x
faster than both TGL and the original finder in total 2-hop sampling time.
The two baselines are the fixtures of :mod:`repro.bench.finders`.  Absolute
factors are compressed because all three implementations here are
Python/numpy on one CPU core (the paper's original finder is far slower
Python code and its GPU finder is a CUDA kernel); see EXPERIMENTS.md.
"""

import time

import numpy as np
import pytest

from repro.bench.finders import OriginalNeighborFinder, TGLNeighborFinder
from repro.sampling import GPUNeighborFinder, sample_multi_hop

BUDGETS = [5, 10, 15, 20, 25]
NUM_ROOTS = 1500
FINDERS = {"original": OriginalNeighborFinder, "tgl": TGLNeighborFinder,
           "gpu": GPUNeighborFinder}


def _epoch_sampling_time(kind, tcsr, roots, times, budget, seed=0, repeats=3):
    """Best of ``repeats`` timed 2-hop expansions, each on a fresh finder (the
    TGL pointers start from zero every time): one GPU-finder call lasts a few
    milliseconds at small scales, where a single timing is at the mercy of
    scheduler noise."""
    best = float("inf")
    for _ in range(repeats):
        finder = FINDERS[kind](tcsr, policy="uniform")
        start = time.perf_counter()
        sample_multi_hop(finder, roots, times, [budget, budget],
                         np.random.default_rng(seed))
        best = min(best, time.perf_counter() - start)
    return best


def _chronological_roots(graph, count):
    idx = np.linspace(graph.num_edges // 4, graph.num_edges - 1, count).astype(np.int64)
    return graph.src[idx], graph.ts[idx]


@pytest.mark.paper("Figure 3a")
def test_fig3a_neighbor_finder_comparison(benchmark, wikipedia_graph, wikipedia_tcsr):
    roots, times = _chronological_roots(wikipedia_graph, NUM_ROOTS)

    def experiment():
        results = {}
        for budget in BUDGETS:
            results[budget] = {
                kind: _epoch_sampling_time(kind, wikipedia_tcsr, roots, times, budget)
                for kind in FINDERS
            }
        return results

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)

    print("\nFigure 3(a) (reproduction): 2-hop sampling time, wikipedia")
    for budget, row in results.items():
        print(f"  budget={budget:3d}  original={row['original']:.4f}s  "
              f"tgl={row['tgl']:.4f}s  gpu={row['gpu']:.4f}s  "
              f"(gpu vs original: {row['original'] / row['gpu']:.1f}x, "
              f"gpu vs tgl: {row['tgl'] / row['gpu']:.1f}x)")

    for budget, row in results.items():
        assert row["gpu"] < row["tgl"], f"GPU finder slower than TGL at budget {budget}"
        assert row["gpu"] < row["original"], \
            f"GPU finder slower than the original finder at budget {budget}"
        # The block-centric finder keeps a large margin over both CPU finders
        # at every budget (the paper reports 37-56x over TGL and >1000x over
        # the original implementation; the factors here are compressed because
        # all three are single-threaded Python/numpy, see EXPERIMENTS.md).
        assert row["original"] / row["gpu"] > 4.0
        assert row["tgl"] / row["gpu"] > 4.0

    benchmark.extra_info["times"] = {str(k): v for k, v in results.items()}


@pytest.mark.paper("Figure 3a")
def test_fig3a_gpu_finder_throughput(benchmark, wikipedia_graph, wikipedia_tcsr):
    """pytest-benchmark timing of a single GPU-finder call at the paper's m=25."""
    roots, times = _chronological_roots(wikipedia_graph, NUM_ROOTS)
    finder = GPUNeighborFinder(wikipedia_tcsr, policy="uniform")
    rng = np.random.default_rng(0)
    result = benchmark(lambda: finder.sample(roots, times, 25, rng))
    assert result.nodes.shape == (NUM_ROOTS, 25)
