"""Command-line experiment runner.

One ``repro`` command with three subcommands, one per workload:

* ``repro train ...`` trains one (dataset, backbone, variant) cell — the
  cells the Table I benchmark sweeps — and prints its MRR and runtime
  breakdown.  The event log is partitioned into ``--workers`` shards
  (``--shard-policy temporal|hash``), trained in lock-step with gradient
  averaging at batch barriers, one forked process per shard; ``--workers 1``
  trains in-process and is bitwise-identical to ``TaserTrainer.fit``;
* ``repro stream ...`` drives the online streaming loop: replay a dataset (or
  a synthetic drift scenario) as an event stream, ingest it incrementally and
  report prequential test-then-train MRR plus ingestion/training throughput;
* ``repro serve ...`` answers link-prediction queries online: train an
  in-memory model on the dataset's warm-up prefix, then micro-batch queries
  replayed from the held-out suffix through a
  :class:`~repro.serve.ServeEngine` and report latency percentiles, QPS,
  batch occupancy and the embedding-cache hit rate (``--replay`` verifies the
  bitwise run-vs-replay score-hash contract).

Examples
--------
::

    python -m repro train --workers 1 --dataset wikipedia \
        --backbone graphmixer --variant taser
    python -m repro train --workers 1 --dataset reddit --backbone tgat \
        --epochs 10 --num-neighbors 10 --num-candidates 25 --seed 3
    python -m repro train --dataset wikipedia --workers 4 \
        --shard-policy temporal --json
    python -m repro stream --dataset wikipedia --chunk-size 500 \
        --window-events 2000 --json
    python -m repro stream --drift-phases 3 --max-chunks 20 --json
    python -m repro serve --dataset wikipedia --max-batch 32 \
        --staleness-events 500 --num-queries 2000 --replay --json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from . import ALLOCATOR_POLICY
from .core import TaserConfig, TaserTrainer
from .core.config import VARIANTS
from .graph import DATASET_NAMES, load_dataset

__all__ = ["build_parser", "main", "run_serve", "run_stream", "run_train"]


def _number(cast, low, high=None, strict: bool = False):
    """Argparse type: a ``cast`` number >= ``low`` (> ``low`` if ``strict``,
    in [``low``, ``high``] if ``high`` is given), rejected at parse time with
    a clear message instead of surfacing deep in the engine."""
    kind = "an integer" if cast is int else "a number"

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {kind}, got {text!r}")
        if high is not None:
            if not low <= value <= high:
                raise argparse.ArgumentTypeError(
                    f"must be in [{low}, {high}], got {value}")
        elif strict and not value > low:
            raise argparse.ArgumentTypeError(f"must be > {low}, got {value}")
        elif not value >= low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


_positive_int = _number(int, 1)
_non_negative_int = _number(int, 0)
_positive_float = _number(float, 0, strict=True)


def _model_args() -> argparse.ArgumentParser:
    """The dataset / model flags every command takes — one definition, so
    the subcommands cannot drift.  :func:`_model_config` turns them into a
    ``TaserConfig``."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--dataset", choices=DATASET_NAMES, default="wikipedia")
    parser.add_argument("--scale", type=_positive_float, default=1.0,
                        help="dataset size multiplier")
    parser.add_argument("--backbone", choices=["tgat", "graphmixer"],
                        default="graphmixer")
    parser.add_argument("--hidden-dim", type=_positive_int, default=32)
    parser.add_argument("--time-dim", type=_positive_int, default=16)
    parser.add_argument("--num-neighbors", type=_positive_int, default=5,
                        help="n: supporting neighbors per node")
    parser.add_argument("--num-candidates", type=_positive_int, default=10,
                        help="m: candidate neighbors pre-sampled by the finder")
    parser.add_argument("--batch-size", type=_positive_int, default=200)
    parser.add_argument("--cache-ratio", type=_number(float, 0, 1), default=0.2)
    parser.add_argument("--lr", type=_positive_float, default=2e-3)
    parser.add_argument("--seed", type=_non_negative_int, default=0)
    parser.add_argument("--json", action="store_true",
                        help="print the result as a single JSON object only")
    return parser


def _model_config(args: argparse.Namespace, **overrides) -> TaserConfig:
    """Build the TaserConfig of any command: the :func:`_model_args` flags
    plus ``--variant``, then the command's own fields."""
    _, adaptive_minibatch, adaptive_neighbor = VARIANTS[args.variant]
    return TaserConfig(
        backbone=args.backbone,
        adaptive_minibatch=adaptive_minibatch,
        adaptive_neighbor=adaptive_neighbor,
        hidden_dim=args.hidden_dim, time_dim=args.time_dim,
        num_neighbors=args.num_neighbors, num_candidates=args.num_candidates,
        batch_size=args.batch_size, cache_ratio=args.cache_ratio,
        lr=args.lr, seed=args.seed, **overrides)


def _summary(args: argparse.Namespace, config: TaserConfig, start: float,
             **fields) -> dict:
    """The fields every command reports around its own ``fields``."""
    return {"dataset": args.dataset, "backbone": args.backbone,
            "variant": config.variant_name(), "seed": args.seed, **fields,
            "wall_clock_seconds": time.time() - start,
            "allocator_policy": ALLOCATOR_POLICY}


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` parser: one subcommand per workload, each carrying the
    shared model flags and its ``run`` / ``report`` pair as defaults."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Train, stream or serve a TGNN with or without TASER's "
                    "adaptive sampling")
    commands = parser.add_subparsers(dest="command", required=True)
    model = _model_args()

    train = commands.add_parser(
        "train", parents=[model],
        help="train one Table I cell (sharded data-parallel)",
        description="Train one (dataset, backbone, variant) cell: partition "
                    "the event log into worker shards, generate mini-batches "
                    "per shard through independent engines, and synchronize "
                    "replicas with deterministic gradient averaging at batch "
                    "barriers (--workers 1 trains in-process and is "
                    "bitwise-identical to TaserTrainer.fit)")
    train.set_defaults(run=run_train, report=_report_train)
    train.add_argument("--workers", type=_positive_int, default=2,
                       help="W: number of event-log shards / worker replicas "
                            "(W > 1 forks one process per shard; W = 1 "
                            "trains in-process)")
    train.add_argument("--shard-policy", choices=["temporal", "hash"],
                       default="temporal",
                       help="'temporal' = W contiguous chronological ranges; "
                            "'hash' = route events by source node so "
                            "per-source histories stay intact")
    train.add_argument("--variant", choices=sorted(VARIANTS), default="baseline")
    train.add_argument("--epochs", type=_positive_int, default=5)
    train.add_argument("--max-batches-per-epoch", type=_positive_int, default=None)
    train.add_argument("--decoder", choices=["linear", "gat", "gatv2", "transformer"],
                       default="linear")
    train.add_argument("--eval-negatives", type=_positive_int, default=49)
    train.add_argument("--eval-max-edges", type=_positive_int, default=300)

    stream = commands.add_parser(
        "stream", parents=[model], help="run the online streaming loop",
        description="Replay a dataset as a live event stream: incremental "
                    "T-CSR ingestion, sliding-window training and "
                    "prequential (test-then-train) link-prediction MRR")
    stream.set_defaults(run=run_stream, report=_report_stream)
    stream.add_argument("--drift-phases", type=_positive_int, default=1,
                        help="> 1 replays a synthetic drift sequence: the "
                             "latent communities are redrawn this many times "
                             "over the stream's lifetime")
    stream.add_argument("--variant", choices=["baseline", "ada-neighbor"],
                        default="baseline",
                        help="adaptive mini-batch selection is incompatible "
                             "with a sliding window, so only these rows stream")
    stream.add_argument("--warmup-events", type=_positive_int, default=None,
                        help="events trained offline before streaming starts "
                             "(default: 20%% of the dataset)")
    stream.add_argument("--warmup-epochs", type=_positive_int, default=1,
                        help="offline epochs over the warm-start window")
    stream.add_argument("--chunk-size", type=_positive_int, default=500,
                        help="events per arrival chunk")
    stream.add_argument("--window-events", type=_positive_int, default=2000,
                        help="sliding training window, in events")
    stream.add_argument("--train-passes", type=_positive_int, default=1,
                        help="training passes over the window per chunk")
    stream.add_argument("--max-chunks", type=_positive_int, default=None,
                        help="stop after this many chunks")
    stream.add_argument("--rate", type=_positive_float, default=None,
                        help="rate-limit replay to this many events/second "
                             "(default: as fast as the loop drains)")
    stream.add_argument("--eval-events-per-chunk", type=_positive_int, default=256,
                        help="cap on prequentially scored events per chunk")
    stream.add_argument("--eval-negatives", type=_positive_int, default=49)

    serve = commands.add_parser(
        "serve", parents=[model], help="serve link-prediction queries online",
        description="Serve link-prediction queries online: train an "
                    "in-memory model on the dataset's warm-up prefix, then "
                    "micro-batch queries replayed from the held-out suffix "
                    "through one prep pass + one forward per batch and "
                    "report latency percentiles, QPS, batch occupancy and "
                    "the embedding-cache hit rate")
    serve.set_defaults(run=run_serve, report=_report_serve)
    serve.add_argument("--variant", choices=sorted(VARIANTS), default="baseline",
                       help="training variant of the in-memory warm-up model")
    serve.add_argument("--warmup-events", type=_positive_int, default=None,
                       help="events trained before serving starts "
                            "(default: 60%% of the dataset); the remainder "
                            "is replayed as the query stream")
    serve.add_argument("--warmup-epochs", type=_positive_int, default=1,
                       help="training epochs over the warm-up prefix")
    serve.add_argument("--num-queries", type=_positive_int, default=1000,
                       help="queries replayed from the held-out suffix")
    serve.add_argument("--max-batch", type=_positive_int, default=32,
                       help="micro-batch size: one prep pass + one model "
                            "forward serves up to this many queries (>= 1)")
    serve.add_argument("--queue-depth", type=_positive_int, default=128,
                       help="admission bound on pending queries (>= 1)")
    serve.add_argument("--admission", choices=["wait", "shed"], default="wait",
                       help="full-queue policy: 'wait' drains synchronously "
                            "(backpressure), 'shed' rejects the overflow")
    serve.add_argument("--staleness-events", type=_non_negative_int,
                       default=None,
                       help="embedding-cache event-count staleness bound "
                            "(>= 0; default: unbounded)")
    serve.add_argument("--staleness-time", type=_number(float, 0), default=0.0,
                       help="embedding-cache |query_t - computed_t| bound "
                            "(>= 0; default: 0, time-exact: every score is "
                            "computed at its own query time)")
    serve.add_argument("--cache-nodes", type=_non_negative_int, default=None,
                       help="embedding-cache capacity in nodes (0 disables; "
                            "default: 0 under the time-exact --staleness-time "
                            "0, where only an identical (node, t) query could "
                            "hit, a quarter of the node universe under any "
                            "other bound)")
    serve.add_argument("--replay", action="store_true",
                       help="serve the stream twice through fresh engines "
                            "and verify the bitwise score-hash contract")
    serve.add_argument("--max-batches-per-epoch", type=_positive_int, default=None)
    return parser


def run_train(args: argparse.Namespace) -> dict:
    """Execute one ``repro train`` invocation and return its summary dict."""
    from .distributed import ShardedTrainer

    graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    config = _model_config(
        args, decoder=args.decoder, epochs=args.epochs,
        max_batches_per_epoch=args.max_batches_per_epoch,
        eval_negatives=args.eval_negatives, eval_max_edges=args.eval_max_edges)
    start = time.time()
    with ShardedTrainer(graph, config, num_workers=args.workers,
                        shard_policy=args.shard_policy) as trainer:
        result = trainer.fit()
        last = result.history[-1] if result.history else None
        return _summary(
            args, config, start,
            epochs=args.epochs,
            workers=args.workers,
            shard_policy=args.shard_policy,
            pool=trainer.backend,
            shard_plan=trainer.plan.describe(),
            global_steps_per_epoch=len(last.batch_losses) if last else 0,
            val_mrr=result.val_mrr,
            test_mrr=result.test_mrr,
            test_metrics=result.test_metrics,
            final_model_loss=last.model_loss if last else None,
            runtime_breakdown_seconds=result.runtime_breakdown,
            cache_hit_rates=result.cache_hit_rates)


def _report_train(summary: dict) -> None:
    plan = summary["shard_plan"]
    print(f"train {summary['dataset']} / {summary['backbone']} / "
          f"{summary['variant']} (seed {summary['seed']})")
    print(f"  shards         : {summary['workers']} x {summary['shard_policy']} "
          f"{plan['shard_events']} events "
          f"(pool {summary['pool']})")
    print(f"  barrier        : {summary['global_steps_per_epoch']} steps/epoch, "
          f"master reduce "
          f"{summary['runtime_breakdown_seconds']['SYNC'] * 1e3:.2f} ms")
    print(f"  test MRR       : {summary['test_mrr']:.4f}")
    print(f"  final loss     : {summary['final_model_loss']:.4f}")
    breakdown = ", ".join(
        f"{k}={v:.2f}s"
        for k, v in sorted(summary["runtime_breakdown_seconds"].items()))
    print(f"  runtime        : {breakdown}")
    print(f"  wall clock     : {summary['wall_clock_seconds']:.1f}s")


def run_stream(args: argparse.Namespace) -> dict:
    """Execute one ``repro stream`` invocation and return its summary dict."""
    from .core import StreamingTrainer, split_warmup
    from .graph import dataset_config, generate_drift_sequence

    if args.drift_phases > 1:
        graph = generate_drift_sequence(
            dataset_config(args.dataset, scale=args.scale, seed=args.seed),
            num_phases=args.drift_phases)
    else:
        graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    config = _model_config(args, eval_negatives=args.eval_negatives)
    warmup = args.warmup_events if args.warmup_events is not None \
        else max(1, graph.num_edges // 5)
    start = time.time()
    warm, stream = split_warmup(graph, warmup_events=warmup,
                                chunk_size=args.chunk_size, rate=args.rate,
                                max_chunks=args.max_chunks)
    trainer = StreamingTrainer(warm, config, window_events=args.window_events,
                               prequential_max_events=args.eval_events_per_chunk)
    for _ in range(args.warmup_epochs):
        trainer.train_epoch()
    result = trainer.run(stream, train_passes=args.train_passes)
    return _summary(args, config, start, drift_phases=args.drift_phases,
                    warmup_events=warmup, window_events=args.window_events,
                    chunk_size=args.chunk_size, **result.as_dict())


def _report_stream(summary: dict) -> None:
    print(f"stream {summary['dataset']} / {summary['backbone']} / "
          f"{summary['variant']} (seed {summary['seed']}, "
          f"{summary['drift_phases']} phase(s))")
    print(f"  events ingested : {summary['events_ingested']} "
          f"in {summary['chunks']} chunks "
          f"({summary['events_per_second']:.0f} events/s)")
    print(f"  batches trained : {summary['batches_trained']} "
          f"({summary['batches_per_second']:.1f} batches/s)")
    mrr = summary["prequential_mrr"]
    print(f"  prequential MRR : {'n/a' if mrr is None else format(mrr, '.4f')}")
    trajectory = ", ".join("n/a" if m is None else f"{m:.3f}"
                           for m in summary["mrr_over_time"][:12])
    suffix = ", ..." if len(summary["mrr_over_time"]) > 12 else ""
    print(f"  MRR over time   : [{trajectory}{suffix}]")
    print(f"  wall clock      : {summary['wall_clock_seconds']:.1f}s")


def run_serve(args: argparse.Namespace) -> dict:
    """Execute one ``repro serve`` invocation and return its summary dict."""
    import numpy as np

    from .serve import LinkQuery, ServeEngine, scores_hash

    graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    config = _model_config(args, epochs=args.warmup_epochs,
                           max_batches_per_epoch=args.max_batches_per_epoch)
    warmup = args.warmup_events if args.warmup_events is not None \
        else max(1, graph.num_edges * 3 // 5)
    warmup = min(warmup, graph.num_edges - 1)
    start = time.time()
    g = graph if graph.is_chronological else graph.sort_by_time()
    warm = g.select_events(np.arange(warmup))
    trainer = TaserTrainer(warm, config)
    for _ in range(args.warmup_epochs):
        trainer.train_epoch()
    train_seconds = time.time() - start

    # Replay the held-out suffix as the query stream (positive links at
    # their true timestamps), clipped to the warm node universe.
    suffix = slice(warmup, min(warmup + args.num_queries, g.num_edges))
    n = warm.num_nodes
    queries = [LinkQuery(int(s) % n, int(d) % n, float(t))
               for s, d, t in zip(g.src[suffix], g.dst[suffix], g.ts[suffix])]

    def one_pass() -> tuple:
        engine = ServeEngine.from_trainer(
            trainer, max_batch=args.max_batch, queue_depth=args.queue_depth,
            admission=args.admission, staleness_events=args.staleness_events,
            staleness_time=args.staleness_time, cache_nodes=args.cache_nodes)
        t0 = time.perf_counter()
        results = engine.serve(queries)
        return engine, results, time.perf_counter() - t0

    engine, results, serve_seconds = one_pass()
    run_hash = scores_hash(results)
    replay_hash = None
    if args.replay:
        _, replay_results, _ = one_pass()
        replay_hash = scores_hash(replay_results)
    latencies = np.asarray([r.latency_seconds for r in results
                            if r.status == "ok"], dtype=np.float64)
    return _summary(
        args, config, start,
        warmup_events=warmup,
        train_seconds=train_seconds,
        num_queries=len(queries),
        max_batch=args.max_batch,
        queue_depth=args.queue_depth,
        admission=args.admission,
        staleness_events=args.staleness_events,
        staleness_time=args.staleness_time,
        serve_seconds=serve_seconds,
        qps=len(queries) / serve_seconds if serve_seconds else 0.0,
        latency_p50_ms=(float(np.percentile(latencies, 50)) * 1e3
                        if latencies.size else None),
        latency_p99_ms=(float(np.percentile(latencies, 99)) * 1e3
                        if latencies.size else None),
        scores_hash=run_hash,
        replay_hash=replay_hash,
        replay_match=(replay_hash == run_hash) if args.replay else None,
        **engine.stats())


def _report_serve(summary: dict) -> None:
    print(f"serve {summary['dataset']} / {summary['backbone']} / "
          f"{summary['variant']} (seed {summary['seed']})")
    print(f"  queries        : {summary['num_queries']} "
          f"(served {summary['served']}, shed {summary['shed']}, "
          f"expired {summary['expired']}, invalid {summary['invalid']})")
    print(f"  throughput     : {summary['qps']:.0f} queries/s "
          f"(batch occupancy {summary['batch_occupancy']:.2f} "
          f"of max {summary['max_batch']})")
    p50, p99 = summary["latency_p50_ms"], summary["latency_p99_ms"]
    print(f"  latency        : p50 "
          f"{'n/a' if p50 is None else format(p50, '.2f')}ms, p99 "
          f"{'n/a' if p99 is None else format(p99, '.2f')}ms")
    print(f"  embed cache    : hit rate "
          f"{summary['embedding_cache_hit_rate']:.2f} "
          f"({summary['embedding_cache_entries']} entries, "
          f"{summary['embedding_cache_evictions']} evictions)")
    print(f"  scores hash    : {summary['scores_hash']}")
    if summary["replay_match"] is not None:
        verdict = "bitwise-identical" if summary["replay_match"] else "MISMATCH"
        print(f"  replay         : {summary['replay_hash']} ({verdict})")
    print(f"  wall clock     : {summary['wall_clock_seconds']:.1f}s")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; the exit code is 1 only on a serve replay
    mismatch."""
    args = build_parser().parse_args(argv)
    summary = args.run(args)
    if args.json:
        print(json.dumps(summary, indent=2, default=float))
    else:
        args.report(summary)
    return 0 if summary.get("replay_match") in (True, None) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
