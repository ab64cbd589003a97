"""Serving latency/QPS — the online query path (north-star extension).

Not a paper table: this benchmark tracks the serving layer built on top of
the trainer.  It warm-trains an in-memory model on a Wikipedia prefix, then
replays the held-out suffix as a link-prediction query stream through
:class:`repro.serve.ServeEngine` and measures what a deployment cares about:

* **p50/p99 latency** and **queries/second** for two admission shapes —
  ``sequential`` (``max_batch=1``, one prep pass + one forward per query)
  and ``batched`` (``max_batch=32``, micro-batched continuous-batching
  shape).  Micro-batching must win by >= 2x QPS at ``REPRO_BENCH_SCALE >=
  0.5`` (warn-only at smoke scale, where per-query wall-clock is noise);
* **batch occupancy** per cell, plus a third ``batched_stale`` cell that
  relaxes the embedding cache to a time-staleness bound (10% of the query
  span) and reports the **embedding-cache hit rate** the bounded-staleness
  reuse machinery buys;
* the **run-vs-replay score hash**: a fresh engine over the same model and
  query stream must return bitwise-identical scores.  The pair is emitted as
  ``results.serve_determinism`` and listed in ``tools/bench_gate.py``'s
  ``REQUIRED_HASH_PAIRS`` — dropping it or breaking it fails CI at every
  scale.  The stale cell carries its own ``stale_determinism`` pair (reuse
  is approximate across *cells*, but bitwise-reproducible across *runs*).

The ``sequential`` and ``batched`` cells run with the exact cache
(``staleness_time=0.0``: only identical ``(node, t)`` repeats hit, and a hit
returns exactly what recomputing would), so their scores must agree to
within a few ulp — micro-batching changes the latency shape, not the
numbers.  (Bitwise equality holds per batch shape, i.e. run-vs-replay; BLAS
picks different blocking for different matrix heights, so summation order —
and the last bit — can differ *across* batch sizes.)

Every cell runs once untimed first, under its own admission shape: the
first serving pass of a shape pays one-time allocator/BLAS warm-up that
would otherwise be billed to the timed run's first queries — warming only
one shape once left a 10x p99-vs-p50 artifact in the sequential cell (the
ordering artifact documented in ``docs/BENCHMARKS.md`` for the
shard-scaling bench).
"""

import time

import numpy as np
import pytest

import repro.tensor
from repro.bench import bench_scale, emit_bench_json, quick_config
from repro.core import TaserTrainer
from repro.serve import LinkQuery, ServeEngine, scores_hash

def _serve_once(trainer, queries, max_batch, staleness_time=0.0):
    engine = ServeEngine.from_trainer(
        trainer, max_batch=max_batch, queue_depth=max(128, 4 * max_batch),
        staleness_time=staleness_time, staleness_events=None)
    start = time.perf_counter()
    results = engine.serve(queries)
    elapsed = time.perf_counter() - start
    return engine, results, elapsed


def _cell_payload(engine, results, elapsed, num_queries):
    latencies = np.asarray([r.latency_seconds for r in results
                            if r.status == "ok"], dtype=np.float64)
    stats = engine.stats()
    return {
        "max_batch": engine.max_batch,
        "serve_seconds": elapsed,
        "queries_per_second": num_queries / elapsed if elapsed else 0.0,
        "latency_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "latency_p99_ms": float(np.percentile(latencies, 99)) * 1e3,
        "batch_occupancy": stats["batch_occupancy"],
        "forward_batches": stats["forward_batches"],
        "embedding_cache_hit_rate": stats["embedding_cache_hit_rate"],
        "embedding_cache_evictions": stats["embedding_cache_evictions"],
    }


@pytest.mark.paper("serving (north-star extension)")
def test_serve_latency(benchmark, wikipedia_graph):
    config = quick_config(
        backbone="graphmixer", adaptive_minibatch=False, adaptive_neighbor=False,
        batch_engine="sync", batch_size=150, max_batches_per_epoch=8,
        num_neighbors=5, num_candidates=5, seed=0)

    n = wikipedia_graph.num_edges
    warmup = max(2, n * 3 // 5)
    g = wikipedia_graph if wikipedia_graph.is_chronological \
        else wikipedia_graph.sort_by_time()
    warm = g.select_events(np.arange(warmup))
    trainer = TaserTrainer(warm, config)
    trainer.train_epoch()

    num_queries = min(n - warmup, max(120, int(600 * bench_scale())))
    suffix = slice(warmup, warmup + num_queries)
    universe = warm.num_nodes
    queries = [LinkQuery(int(s) % universe, int(d) % universe, float(t))
               for s, d, t in zip(g.src[suffix], g.dst[suffix], g.ts[suffix])]

    #: time-staleness bound of the reuse cell: 10% of the query-time span.
    span = float(g.ts[suffix.stop - 1] - g.ts[suffix.start])
    stale_bound = max(span * 0.1, 1e-9)

    def run_cells():
        warm_queries = queries[: max(32, len(queries) // 4)]
        cells = {}
        for name, max_batch, staleness in (("sequential", 1, 0.0),
                                           ("batched", 32, 0.0),
                                           ("batched_stale", 32, stale_bound)):
            # Untimed warm-up per cell, under the cell's own admission shape:
            # allocator/BLAS warm-up is batch-shape-specific, so warming only
            # one shape leaves the other cells' first queries paying it
            # inside their timed latency percentiles (the old
            # sequential-cell p99-vs-p50 artifact; see docs/BENCHMARKS.md).
            _serve_once(trainer, warm_queries, max_batch,
                        staleness_time=staleness)
            engine, results, elapsed = _serve_once(trainer, queries, max_batch,
                                                   staleness_time=staleness)
            cells[name] = (engine, results, elapsed)
        return cells

    cells = benchmark.pedantic(run_cells, rounds=1, iterations=1)

    seq_engine, seq_results, seq_elapsed = cells["sequential"]
    bat_engine, bat_results, bat_elapsed = cells["batched"]
    stale_engine, stale_results, stale_elapsed = cells["batched_stale"]
    for _, results, _ in cells.values():
        assert all(r.status == "ok" for r in results)
        assert all(0.0 <= r.score <= 1.0 for r in results)

    # Bitwise replay: a fresh engine over the same model and stream.
    run_hash = scores_hash(bat_results)
    _, replay_results, _ = _serve_once(trainer, queries, 32)
    replay_hash = scores_hash(replay_results)
    assert replay_hash == run_hash, "serve replay is not bitwise-identical"
    # With the exact cache, batching must not change the scores beyond the
    # last bits of the compute dtype (BLAS blocking differs across matrix
    # heights, so bitwise equality only holds per batch shape — that's what
    # the replay pair checks above).  Scores lie in [0, 1]: four float32 ulps.
    seq_scores = np.asarray([r.score for r in seq_results])
    bat_scores = np.asarray([r.score for r in bat_results])
    np.testing.assert_allclose(seq_scores, bat_scores, rtol=0,
                               atol=4 * np.finfo(repro.tensor.COMPUTE_DTYPE).eps)
    # The bounded-staleness cell is approximate across cells but must still
    # be bitwise-reproducible across runs.
    stale_hash = scores_hash(stale_results)
    _, stale_replay, _ = _serve_once(trainer, queries, 32,
                                     staleness_time=stale_bound)
    stale_replay_hash = scores_hash(stale_replay)
    assert stale_replay_hash == stale_hash, \
        "bounded-staleness serve replay is not bitwise-identical"

    payload = {
        "num_queries": len(queries),
        "warmup_events": warmup,
        "staleness_time_bound": stale_bound,
        "cells": {
            "sequential": _cell_payload(seq_engine, seq_results, seq_elapsed,
                                        len(queries)),
            "batched": _cell_payload(bat_engine, bat_results, bat_elapsed,
                                     len(queries)),
            "batched_stale": _cell_payload(stale_engine, stale_results,
                                           stale_elapsed, len(queries)),
        },
        "batched_qps_speedup": (seq_elapsed / bat_elapsed
                                if bat_elapsed else float("inf")),
        "serve_determinism": {"hash": run_hash, "replay_hash": replay_hash},
        "stale_determinism": {"hash": stale_hash,
                              "replay_hash": stale_replay_hash},
    }

    print("\nServe latency (wikipedia suffix replay, graphmixer)")
    for name, cell in payload["cells"].items():
        print(f"  {name:>10}: {cell['queries_per_second']:8.0f} q/s  "
              f"p50 {cell['latency_p50_ms']:7.2f}ms  "
              f"p99 {cell['latency_p99_ms']:7.2f}ms  "
              f"occupancy {cell['batch_occupancy']:.2f}  "
              f"cache hit {cell['embedding_cache_hit_rate']:.2f}")
    print(f"  micro-batching speedup: {payload['batched_qps_speedup']:.2f}x "
          f"(hash {run_hash})")

    # The tentpole claim: micro-batching >= 2x QPS over one-query-at-a-time.
    # Hard at scale >= 0.5; at smoke scale per-query wall-clock is too noisy
    # to block on, so the determinism gate carries the contract there.
    if bench_scale() >= 0.5:
        assert payload["batched_qps_speedup"] >= 2.0, (
            f"micro-batched serving only {payload['batched_qps_speedup']:.2f}x "
            "over sequential (expected >= 2x)")

    benchmark.extra_info["serve"] = {k: v for k, v in payload.items()
                                     if k != "cells"}
    emit_bench_json("serve_latency", payload)
