"""Streaming throughput — the online ingestion/train/eval loop.

Not a paper table: this benchmark tracks the north-star extension opened by
the streaming subsystem.  It replays Wikipedia as a live event stream and
measures, per chunk, the prequential ("test-then-train") link-prediction MRR
together with the two throughput numbers a serving deployment cares about:

* **events/second ingested** — the incremental append path
  (``TemporalGraph.append_events`` + ``StreamingTCSR.append`` + cache
  growth + finder/engine refresh), i.e. how fast the graph state can follow
  live traffic without T-CSR rebuilds;
* **batches/second trained** — sliding-window training through the
  mini-batch engine.

Determinism is asserted at every scale (two runs under the same seed must
produce the identical prequential-MRR trajectory); throughput numbers are
recorded in ``BENCH_stream_throughput.json`` for CI artifacts and future
performance tracking.
"""

import pytest

from repro.bench import emit_bench_json, quick_config
from repro.core import StreamingTrainer, split_warmup


def _stream_once(graph, config, warmup_events, chunk_size, window_events):
    warm, stream = split_warmup(graph, warmup_events=warmup_events,
                                chunk_size=chunk_size)
    trainer = StreamingTrainer(warm, config, window_events=window_events,
                               prequential_max_events=64)
    trainer.train_epoch()  # offline warm start over the initial window
    result = trainer.run(stream)
    return trainer, result


@pytest.mark.paper("streaming (north-star extension)")
def test_stream_throughput(benchmark, wikipedia_graph):
    config = quick_config(
        backbone="graphmixer", adaptive_minibatch=False, adaptive_neighbor=False,
        batch_size=150, max_batches_per_epoch=6,
        num_neighbors=5, num_candidates=5, eval_negatives=10, seed=0)

    n = wikipedia_graph.num_edges
    warmup = max(2, n // 5)
    chunk_size = max(50, n // 12)
    window = max(150, n // 4)

    trainer, result = benchmark.pedantic(
        lambda: _stream_once(wikipedia_graph, config, warmup, chunk_size, window),
        rounds=1, iterations=1)

    print("\nStreaming throughput (wikipedia replay, graphmixer baseline)")
    print(f"  ingested {result.events_ingested} events in "
          f"{len(result.history)} chunks: "
          f"{result.events_per_second:.0f} events/s")
    print(f"  trained {result.batches_trained} window batches: "
          f"{result.batches_per_second:.1f} batches/s")
    print(f"  prequential MRR {result.prequential_mrr:.4f} "
          f"(trajectory {['%.3f' % m for m in result.mrr_over_time]})")

    # The stream must be fully ingested and every chunk scored in [0, 1].
    assert result.events_ingested == n - warmup
    assert trainer.graph.num_edges == n
    assert all(0.0 <= m <= 1.0 for m in result.mrr_over_time)
    # Online learning must beat random ranking (1 / (negatives + 1)).
    assert result.prequential_mrr > 1.0 / (config.eval_negatives + 1)

    # Determinism: the whole prequential trajectory reproduces under the seed.
    _, replay = _stream_once(wikipedia_graph, config, warmup, chunk_size, window)
    assert replay.mrr_over_time == result.mrr_over_time
    assert replay.events_ingested == result.events_ingested

    benchmark.extra_info["stream"] = result.as_dict()
    emit_bench_json("stream_throughput", result.as_dict())
