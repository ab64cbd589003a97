"""Command-line experiment runner.

Three entry points share the ``repro`` command:

* the default (offline) runner trains one (dataset, backbone, variant) cell —
  the same cells the Table I benchmark sweeps — and prints the resulting MRR
  and runtime breakdown as JSON;
* ``repro train ...`` is the sharded data-parallel runner: the event log is
  partitioned into ``--workers`` shards (``--shard-policy temporal|hash``),
  trained in lock-step with gradient averaging at batch barriers
  (``--workers 1`` is bitwise-identical to the default runner's trainer);
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

    python -m repro --dataset wikipedia --backbone graphmixer --variant taser
    python -m repro --dataset reddit --backbone tgat --variant baseline \
        --epochs 10 --num-neighbors 10 --num-candidates 25 --seed 3
    python -m repro --dataset wikipedia --precision fp16 --json
    python -m repro train --dataset wikipedia --workers 4 \
        --shard-policy temporal --worker-backend thread --json
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

from .core import TaserConfig, TaserTrainer
from .graph import DATASET_NAMES, load_dataset
from .device.precision import (PRECISION_ENV_VAR, PRECISION_TIERS,
                               resolve_precision_name)

__all__ = ["build_parser", "build_serve_parser", "build_stream_parser",
           "build_train_parser", "main", "run", "run_serve", "run_stream",
           "run_train"]

VARIANT_FLAGS = {
    "baseline": (False, False),
    "ada-minibatch": (True, False),
    "ada-neighbor": (False, True),
    "taser": (True, True),
}


def _positive_int(text: str) -> int:
    """Argparse type: reject non-positive values at parse time with a clear
    message instead of letting them surface deep in the engine."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    """Argparse type: like :func:`_positive_int` but 0 is allowed (used by
    bounds where 0 is a meaningful 'exact only' / 'disabled' setting)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _non_negative_float(text: str) -> float:
    """Argparse type: a float >= 0, rejected at parse time otherwise."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    """The dataset / model / runtime flags every command takes — one
    definition, so the four parsers cannot drift.  :func:`_model_config`
    turns them into a ``TaserConfig``; pair with
    :func:`_validate_runtime_env` after ``parse_args``."""
    parser.add_argument("--dataset", choices=DATASET_NAMES, default="wikipedia")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="dataset size multiplier")
    parser.add_argument("--backbone", choices=["tgat", "graphmixer"],
                        default="graphmixer")
    parser.add_argument("--hidden-dim", type=int, default=32)
    parser.add_argument("--time-dim", type=int, default=16)
    parser.add_argument("--num-neighbors", type=int, default=5,
                        help="n: supporting neighbors per node")
    parser.add_argument("--num-candidates", type=int, default=10,
                        help="m: candidate neighbors pre-sampled by the finder")
    parser.add_argument("--batch-size", type=int, default=200)
    parser.add_argument("--cache-ratio", type=float, default=0.2)
    parser.add_argument("--lr", type=float, default=2e-3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true",
                        help="print the result as a single JSON object only")
    parser.add_argument("--precision", choices=tuple(PRECISION_TIERS),
                        default=None,
                        help="feature-store storage tier: 'fp32' (full width, "
                             "bitwise-identical to a build without tiers), "
                             "'fp16' or 'int8' (per-feature affine "
                             "quantization + compressed hot/warm/cold "
                             "caches); default resolves "
                             f"${PRECISION_ENV_VAR} then 'fp32'")


def _validate_runtime_env(parser: argparse.ArgumentParser,
                          args: argparse.Namespace) -> None:
    """Reject a bad ``REPRO_PRECISION`` value at parse time.

    Without the explicit flag, the config resolves the tier from the
    environment; validating here surfaces a typo as a normal usage error
    (with the tier list) instead of a traceback mid-run.  Runs *after*
    ``parse_args`` and only when no explicit flag was given: an explicit
    flag wins over the environment, and ``--help`` must keep working
    regardless of a stale environment.
    """
    if args.precision is None:
        try:
            resolve_precision_name(None)
        except ValueError as exc:
            parser.error(str(exc))


def _add_training_cell_args(parser: argparse.ArgumentParser,
                            variant_default: str,
                            engine_help: str) -> None:
    """The (dataset, backbone, variant) cell flags shared by the default
    runner and ``repro train`` — one definition, so the parsers cannot
    drift."""
    _add_model_args(parser)
    parser.add_argument("--variant", choices=sorted(VARIANT_FLAGS),
                        default=variant_default)
    parser.add_argument("--epochs", type=int, default=5)
    parser.add_argument("--max-batches-per-epoch", type=int, default=None)
    parser.add_argument("--finder", choices=["gpu", "original", "tgl"], default="gpu")
    parser.add_argument("--batch-engine", choices=["sync", "aot"],
                        default="sync", help=engine_help)
    parser.add_argument("--decoder", choices=["linear", "gat", "gatv2", "transformer"],
                        default="linear")
    parser.add_argument("--eval-negatives", type=int, default=49)
    parser.add_argument("--eval-max-edges", type=int, default=300)


def _model_config(args: argparse.Namespace, **overrides) -> TaserConfig:
    """Build the TaserConfig of any command: the :func:`_add_model_args`
    flags plus ``--variant``, then the command's own fields."""
    adaptive_minibatch, adaptive_neighbor = VARIANT_FLAGS[args.variant]
    return TaserConfig(
        backbone=args.backbone,
        adaptive_minibatch=adaptive_minibatch,
        adaptive_neighbor=adaptive_neighbor,
        hidden_dim=args.hidden_dim, time_dim=args.time_dim,
        num_neighbors=args.num_neighbors, num_candidates=args.num_candidates,
        batch_size=args.batch_size, cache_ratio=args.cache_ratio,
        precision=args.precision, lr=args.lr, seed=args.seed, **overrides)


def _taser_config(args: argparse.Namespace) -> TaserConfig:
    """The TaserConfig of a training cell (default runner, ``repro train``)."""
    return _model_config(
        args, finder=args.finder, decoder=args.decoder,
        batch_engine=args.batch_engine, epochs=args.epochs,
        max_batches_per_epoch=args.max_batches_per_epoch,
        eval_negatives=args.eval_negatives, eval_max_edges=args.eval_max_edges)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Train a TGNN with or without TASER's adaptive sampling",
        epilog="Subcommands: 'repro train ...' runs sharded data-parallel "
               "training (event-log shards, gradient averaging at batch "
               "barriers); 'repro stream ...' runs the online streaming loop "
               "(incremental ingestion + prequential test-then-train "
               "evaluation); 'repro serve ...' answers link-prediction "
               "queries online through the micro-batched serving engine; see "
               "'repro train --help' / 'repro stream --help' / "
               "'repro serve --help'.")
    _add_training_cell_args(
        parser, variant_default="taser",
        engine_help="mini-batch engine: synchronous, or an ahead-of-time "
                    "vectorised sampling plan (bitwise-identical under a "
                    "fixed seed)")
    return parser


def run(args: argparse.Namespace) -> dict:
    graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    config = _taser_config(args)
    start = time.time()
    trainer = TaserTrainer(graph, config)
    result = trainer.fit()
    return {
        "dataset": args.dataset,
        "backbone": args.backbone,
        "variant": result.variant,
        "seed": args.seed,
        "epochs": args.epochs,
        "batch_engine": args.batch_engine,
        "batch_engine_effective": trainer.engine.effective_mode,
        "precision": trainer.precision.tier,
        "val_mrr": result.val_mrr,
        "test_mrr": result.test_mrr,
        "test_metrics": result.test_metrics,
        "final_model_loss": result.history[-1].model_loss if result.history else None,
        "runtime_breakdown_seconds": result.runtime_breakdown,
        "cache_hit_rates": result.cache_hit_rates,
        "wall_clock_seconds": time.time() - start,
    }


def build_train_parser() -> argparse.ArgumentParser:
    """Parser of the ``repro train`` subcommand (sharded data-parallel)."""
    parser = argparse.ArgumentParser(
        prog="repro train",
        description="Sharded data-parallel training: partition the event log "
                    "into worker shards, generate mini-batches per shard "
                    "through independent engines, and synchronize replicas "
                    "with deterministic gradient averaging at batch barriers "
                    "(--workers 1 is bitwise-identical to the default runner)")
    parser.add_argument("--workers", type=_positive_int, default=2,
                        help="W: number of event-log shards / worker replicas")
    parser.add_argument("--shard-policy", choices=["temporal", "hash"],
                        default="temporal",
                        help="'temporal' = W contiguous chronological ranges; "
                             "'hash' = route events by source node so "
                             "per-source histories stay intact")
    parser.add_argument("--worker-backend", choices=["serial", "thread", "process"],
                        default="thread",
                        help="worker pool: 'serial' (reference, sequential), "
                             "'thread' (numpy kernels overlap across shards) "
                             "or 'process' (one child process per shard)")
    _add_training_cell_args(parser, variant_default="baseline",
                            engine_help="per-shard mini-batch engine")
    return parser


def run_train(args: argparse.Namespace) -> dict:
    """Execute one ``repro train`` invocation and return its summary dict."""
    from .distributed import ShardedTrainer

    graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    config = _taser_config(args)
    start = time.time()
    with ShardedTrainer(graph, config, num_workers=args.workers,
                        shard_policy=args.shard_policy,
                        backend=args.worker_backend) as trainer:
        result = trainer.fit()
        last = trainer.history[-1] if trainer.history else None
        return {
            "dataset": args.dataset,
            "backbone": args.backbone,
            "variant": result.variant,
            "seed": args.seed,
            "epochs": args.epochs,
            "workers": args.workers,
            "shard_policy": args.shard_policy,
            "worker_backend": args.worker_backend,
            "batch_engine": args.batch_engine,
            "shard_plan": trainer.plan.describe(),
            "global_steps_per_epoch": last.global_steps if last else 0,
            "val_mrr": result.val_mrr,
            "test_mrr": result.test_mrr,
            "test_metrics": result.test_metrics,
            "final_model_loss": (result.history[-1].model_loss
                                 if result.history else None),
            "runtime_breakdown_seconds": result.runtime_breakdown,
            "sync_seconds": sum(s.sync_seconds for s in trainer.history),
            "reduce_seconds": sum(s.reduce_seconds for s in trainer.history),
            "transport_seconds": sum(s.transport_seconds
                                     for s in trainer.history),
            "pack_seconds": sum(s.pack_seconds for s in trainer.history),
            "cache_hit_rates": result.cache_hit_rates,
            "wall_clock_seconds": time.time() - start,
        }


def _train_main(argv: Sequence[str]) -> int:
    parser = build_train_parser()
    args = parser.parse_args(argv)
    _validate_runtime_env(parser, args)
    summary = run_train(args)
    if args.json:
        print(json.dumps(summary, indent=2, default=float))
        return 0
    plan = summary["shard_plan"]
    print(f"train {summary['dataset']} / {summary['backbone']} / "
          f"{summary['variant']} (seed {summary['seed']})")
    print(f"  shards         : {summary['workers']} x {summary['shard_policy']} "
          f"{plan['shard_events']} events "
          f"(backend {summary['worker_backend']}, engine {summary['batch_engine']})")
    print(f"  barrier        : sync {summary['sync_seconds']:.2f}s = "
          f"reduce {summary['reduce_seconds']:.2f}s + "
          f"transport {summary['transport_seconds']:.2f}s "
          f"(pack {summary['pack_seconds']:.2f}s)")
    print(f"  test MRR       : {summary['test_mrr']:.4f}")
    print(f"  final loss     : {summary['final_model_loss']:.4f}")
    breakdown = ", ".join(
        f"{k}={v:.2f}s"
        for k, v in sorted(summary["runtime_breakdown_seconds"].items()))
    print(f"  runtime        : {breakdown}")
    print(f"  wall clock     : {summary['wall_clock_seconds']:.1f}s")
    return 0


def build_stream_parser() -> argparse.ArgumentParser:
    """Parser of the ``repro stream`` subcommand (online streaming loop)."""
    parser = argparse.ArgumentParser(
        prog="repro stream",
        description="Replay a dataset as a live event stream: incremental "
                    "T-CSR ingestion, sliding-window training and "
                    "prequential (test-then-train) link-prediction MRR")
    _add_model_args(parser)
    parser.add_argument("--drift-phases", type=_positive_int, default=1,
                        help="> 1 replays a synthetic drift sequence: the "
                             "latent communities are redrawn this many times "
                             "over the stream's lifetime")
    parser.add_argument("--variant", choices=["baseline", "ada-neighbor"],
                        default="baseline",
                        help="adaptive mini-batch selection is incompatible "
                             "with a sliding window, so only these rows stream")
    parser.add_argument("--warmup-events", type=_positive_int, default=None,
                        help="events trained offline before streaming starts "
                             "(default: 20%% of the dataset)")
    parser.add_argument("--warmup-epochs", type=_positive_int, default=1,
                        help="offline epochs over the warm-start window")
    parser.add_argument("--chunk-size", type=_positive_int, default=500,
                        help="events per arrival chunk")
    parser.add_argument("--window-events", type=_positive_int, default=2000,
                        help="sliding training window, in events")
    parser.add_argument("--train-passes", type=_positive_int, default=1,
                        help="training passes over the window per chunk")
    parser.add_argument("--max-chunks", type=_positive_int, default=None,
                        help="stop after this many chunks")
    parser.add_argument("--rate", type=float, default=None,
                        help="rate-limit replay to this many events/second "
                             "(default: as fast as the loop drains)")
    parser.add_argument("--eval-events-per-chunk", type=_positive_int, default=256,
                        help="cap on prequentially scored events per chunk")
    parser.add_argument("--eval-negatives", type=int, default=49)
    return parser


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
    summary = {
        "dataset": args.dataset,
        "drift_phases": args.drift_phases,
        "backbone": args.backbone,
        "variant": ("w/ Ada. Neighbor" if config.adaptive_neighbor
                    else "Baseline"),
        "seed": args.seed,
        "batch_engine": config.batch_engine,
        "warmup_events": warmup,
        "window_events": args.window_events,
        "chunk_size": args.chunk_size,
        "wall_clock_seconds": time.time() - start,
    }
    summary.update(result.as_dict())
    return summary


def _stream_main(argv: Sequence[str]) -> int:
    parser = build_stream_parser()
    args = parser.parse_args(argv)
    _validate_runtime_env(parser, args)
    summary = run_stream(args)
    if args.json:
        print(json.dumps(summary, indent=2, default=float))
        return 0
    print(f"stream {summary['dataset']} / {summary['backbone']} / "
          f"{summary['variant']} (seed {summary['seed']}, "
          f"{summary['drift_phases']} phase(s))")
    print(f"  events ingested : {summary['events_ingested']} "
          f"in {summary['chunks']} chunks "
          f"({summary['events_per_second']:.0f} events/s)")
    print(f"  batches trained : {summary['batches_trained']} "
          f"({summary['batches_per_second']:.1f} batches/s, "
          f"engine {summary['batch_engine']})")
    mrr = summary["prequential_mrr"]
    print(f"  prequential MRR : {'n/a' if mrr is None else format(mrr, '.4f')}")
    trajectory = ", ".join("n/a" if m is None else f"{m:.3f}"
                           for m in summary["mrr_over_time"][:12])
    suffix = ", ..." if len(summary["mrr_over_time"]) > 12 else ""
    print(f"  MRR over time   : [{trajectory}{suffix}]")
    print(f"  wall clock      : {summary['wall_clock_seconds']:.1f}s")
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    """Parser of the ``repro serve`` subcommand (online query serving)."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve link-prediction queries online: train an "
                    "in-memory model on the dataset's warm-up prefix, then "
                    "micro-batch queries replayed from the held-out suffix "
                    "through one prep pass + one forward per batch and "
                    "report latency percentiles, QPS, batch occupancy and "
                    "the embedding-cache hit rate")
    _add_model_args(parser)
    parser.add_argument("--variant", choices=sorted(VARIANT_FLAGS),
                        default="baseline",
                        help="training variant of the in-memory warm-up model")
    parser.add_argument("--warmup-events", type=_positive_int, default=None,
                        help="events trained before serving starts "
                             "(default: 60%% of the dataset); the remainder "
                             "is replayed as the query stream")
    parser.add_argument("--warmup-epochs", type=_positive_int, default=1,
                        help="training epochs over the warm-up prefix")
    parser.add_argument("--num-queries", type=_positive_int, default=1000,
                        help="queries replayed from the held-out suffix")
    parser.add_argument("--max-batch", type=_positive_int, default=32,
                        help="micro-batch size: one prep pass + one model "
                             "forward serves up to this many queries (>= 1)")
    parser.add_argument("--queue-depth", type=_positive_int, default=128,
                        help="admission bound on pending queries (>= 1)")
    parser.add_argument("--admission", choices=["wait", "shed"], default="wait",
                        help="full-queue policy: 'wait' drains synchronously "
                             "(backpressure), 'shed' rejects the overflow")
    parser.add_argument("--staleness-events", type=_non_negative_int,
                        default=None,
                        help="embedding-cache event-count staleness bound "
                             "(>= 0; default: unbounded)")
    parser.add_argument("--staleness-time", type=_non_negative_float,
                        default=None,
                        help="embedding-cache |query_t - computed_t| bound "
                             "(>= 0; default: unbounded)")
    parser.add_argument("--cache-nodes", type=_non_negative_int, default=None,
                        help="embedding-cache capacity in nodes (0 disables; "
                             "default: a quarter of the node universe)")
    parser.add_argument("--replay", action="store_true",
                        help="serve the stream twice through fresh engines "
                             "and verify the bitwise score-hash contract")
    parser.add_argument("--max-batches-per-epoch", type=int, default=None)
    parser.add_argument("--finder", choices=["gpu", "original", "tgl"],
                        default="gpu")
    return parser


def run_serve(args: argparse.Namespace) -> dict:
    """Execute one ``repro serve`` invocation and return its summary dict."""
    import numpy as np

    from .serve import LinkQuery, ServeEngine, scores_hash

    graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    config = _model_config(args, finder=args.finder, epochs=args.warmup_epochs,
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
    summary = {
        "dataset": args.dataset,
        "backbone": args.backbone,
        "variant": args.variant,
        "seed": args.seed,
        "warmup_events": warmup,
        "train_seconds": train_seconds,
        "num_queries": len(queries),
        "max_batch": args.max_batch,
        "queue_depth": args.queue_depth,
        "admission": args.admission,
        "staleness_events": args.staleness_events,
        "staleness_time": args.staleness_time,
        "serve_seconds": serve_seconds,
        "qps": len(queries) / serve_seconds if serve_seconds else 0.0,
        "latency_p50_ms": (float(np.percentile(latencies, 50)) * 1e3
                           if latencies.size else None),
        "latency_p99_ms": (float(np.percentile(latencies, 99)) * 1e3
                           if latencies.size else None),
        "scores_hash": run_hash,
        "replay_hash": replay_hash,
        "replay_match": (replay_hash == run_hash) if args.replay else None,
        "wall_clock_seconds": time.time() - start,
    }
    summary.update(engine.stats())
    return summary


def _serve_main(argv: Sequence[str]) -> int:
    parser = build_serve_parser()
    args = parser.parse_args(argv)
    _validate_runtime_env(parser, args)
    summary = run_serve(args)
    if args.json:
        print(json.dumps(summary, indent=2, default=float))
        return 0 if summary["replay_match"] in (True, None) else 1
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
    print(f"  precision      : {summary['precision']}")
    print(f"  scores hash    : {summary['scores_hash']}")
    if summary["replay_match"] is not None:
        verdict = "bitwise-identical" if summary["replay_match"] else "MISMATCH"
        print(f"  replay         : {summary['replay_hash']} ({verdict})")
    print(f"  wall clock     : {summary['wall_clock_seconds']:.1f}s")
    return 0 if summary["replay_match"] in (True, None) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "stream":
        return _stream_main(argv[1:])
    if argv and argv[0] == "train":
        return _train_main(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate_runtime_env(parser, args)
    summary = run(args)
    if args.json:
        print(json.dumps(summary, indent=2, default=float))
        return 0
    print(f"{summary['dataset']} / {summary['backbone']} / {summary['variant']} "
          f"(seed {summary['seed']})")
    print(f"  test MRR       : {summary['test_mrr']:.4f}")
    if summary["val_mrr"] == summary["val_mrr"]:  # not NaN
        print(f"  val MRR        : {summary['val_mrr']:.4f}")
    print(f"  final loss     : {summary['final_model_loss']:.4f}")
    print(f"  batch engine   : {summary['batch_engine']} "
          f"(effective {summary['batch_engine_effective']})")
    print(f"  precision      : {summary['precision']}")
    breakdown = ", ".join(f"{k}={v:.2f}s"
                          for k, v in sorted(summary["runtime_breakdown_seconds"].items()))
    print(f"  runtime        : {breakdown}")
    print(f"  wall clock     : {summary['wall_clock_seconds']:.1f}s")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
