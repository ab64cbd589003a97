#!/usr/bin/env python
"""Content-recommendation scenario: the systems side of TASER.

A MovieLens-profile user-item interaction graph is used to study the two
system optimisations the paper contributes for large graphs whose edge
features do not fit in VRAM:

1. the temporal neighbor finders (original per-query CPU loop vs. TGL pointer
   array, both ``repro.bench.finders`` fixtures, vs. TASER's "GPU" finder;
   each draws from the generator its caller passes, here one per study), and
2. the dynamic edge-feature cache (hit rate vs. capacity, compared against
   static random / degree caches and the clairvoyant Oracle).

Run with ``python examples/recommendation.py`` (about a minute on a CPU).
"""

from __future__ import annotations

import time

import numpy as np

from repro import load_dataset
from repro.bench.finders import OriginalNeighborFinder, TGLNeighborFinder
from repro.device import (DynamicFeatureCache, OracleCache, StaticDegreeCache,
                          StaticRandomCache)
from repro.graph import build_tcsr, chronological_split
from repro.sampling import GPUNeighborFinder, sample_multi_hop


def finder_study(graph, tcsr) -> None:
    print("=== Neighbor finder comparison (2-hop, budget 10) ===")
    split = chronological_split(graph)
    idx = split.train_idx[:: max(1, split.num_train // 2000)][:2000]
    roots, times = graph.src[idx], graph.ts[idx]
    for kind in (OriginalNeighborFinder, TGLNeighborFinder, GPUNeighborFinder):
        finder = kind(tcsr, policy="uniform")
        start = time.perf_counter()
        hops = sample_multi_hop(finder, roots, times, [10, 10],
                                np.random.default_rng(0))
        elapsed = time.perf_counter() - start
        print(f"  {kind.__name__:22s} {elapsed:8.3f}s   "
              f"valid hop-1 neighbors: {int(hops[0].mask.sum())}")


def cache_study(graph, tcsr) -> None:
    print("\n=== Edge-feature cache study (20% capacity) ===")
    # Build a realistic access stream: the edges touched by 2-hop most-recent
    # sampling over three passes of the training set (the access pattern of a
    # recommendation model retrained continuously).
    split = chronological_split(graph)
    # Most-recent sampling draws nothing from its generator.
    finder = GPUNeighborFinder(tcsr, policy="recent")
    rng = np.random.default_rng(0)
    idx = split.train_idx[:: max(1, split.num_train // 3000)][:3000]
    streams = []
    for epoch in range(3):
        hops = sample_multi_hop(finder, graph.src[idx], graph.ts[idx], [10], rng)
        streams.append(hops[0].eids[hops[0].mask])

    capacity = int(0.2 * graph.num_edges)
    caches = {
        "dynamic (Algorithm 3)": DynamicFeatureCache(graph.num_edges, capacity, seed=0),
        "static random": StaticRandomCache(graph.num_edges, capacity, seed=0),
        "static degree": StaticDegreeCache(graph.num_edges, capacity, graph.src,
                                           graph.dst, graph.num_nodes),
        "oracle": OracleCache(graph.num_edges, capacity),
    }
    print(f"  cache capacity: {capacity} of {graph.num_edges} edge features")
    for name, cache in caches.items():
        rates = []
        for stream in streams:
            if isinstance(cache, OracleCache):
                cache.preload(stream)
            ids, counts = np.unique(stream, return_counts=True)
            hits = cache.lookup(ids, counts)
            rates.append(counts[hits].sum() / counts.sum())
            cache.end_epoch()
        print(f"  {name:22s} hit rates per epoch: "
              + "  ".join(f"{r:.3f}" for r in rates))
    print("Expected shape: dynamic ~ oracle >> static random; degree-based caching "
          "sits in between (it ignores temporal access patterns).")


def main() -> None:
    graph = load_dataset("movielens", seed=0)
    print(f"user-item interaction graph: {graph}\n")
    tcsr = build_tcsr(graph)
    finder_study(graph, tcsr)
    cache_study(graph, tcsr)


if __name__ == "__main__":
    main()
