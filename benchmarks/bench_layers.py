"""Per-layer micro-benchmark of a ``train_tgat_taser`` step's building blocks.

Times ``F.layer_norm``, ``F.linear``, ``MixerBlock`` and
``AdaptiveNeighborSampler`` at the shapes a ``train_tgat_taser`` step runs
them at (``m = 10`` candidates, ``d = 34`` channels — the sampler's encoding
width for an edge-featured graph), forward, forward under ``no_grad()``
(what ``evaluate`` and every serve flush run) and forward+backward, at
``R`` in {300, 1 500, 6 000} rows and with 0 % / 25 % of the rows *dead* (no
valid candidate; the masked ops only) — and ``TGAT.aggregate`` (``n = 5``
gated neighbors, hidden 32, edge 32, time 16, 15 % of the slots padded) on
the layer-0 *zero state* (no node features: layer 1 of both hops) and on a
live previous-layer state (layer 2).  Four groups run at fixed sizes
whatever ``--sizes`` says.  Three are the sampler's graph nodes at the live
rows of a step's two hops (R = 289 and 1 174): ``sampler_encode`` (the
encoder writing the block's channel-major ``input_buffer``),
``sampler_mixer`` (the ``MixerBlock``, its input written into that buffer)
and ``sampler_head`` (softmax, Gumbel-top-5 and the log-probabilities of the
selected, from ``(R, 10)`` scores).  The fourth is ``time_encoding`` at R =
1 500 rows of 10 timespans up to a month, 16 dimensions: the fixed encoding
(no gradient: forward only) and the learnable one.  Per cell it records

* ``ns_per_op`` — median wall-clock nanoseconds of one call, the result kept
  alive while the clock runs, as a training step keeps it;
* ``out_bytes_per_op`` — bytes of array-backend kernel output per call,
  counted by the end-to-end benchmark's kernel wrappers
  (``benchmarks/e2e/tracer.py``), so it is ``tensor.kernel_out_mb_per_op``'s
  definition at layer granularity.  The wrappers count what a kernel
  *returns*: the transients a composite kernel (``mixer_block_forward``)
  allocates and drops inside one call are invisible to it, so for such a
  kernel the counter is reported, not argued from — ``ns_per_op`` is.

Operands are built in ``repro.tensor.COMPUTE_DTYPE`` — the dtype the program
runs these layers in — and the payload records it as ``compute_dtype``.

One more cell, ``eval_levels``, times what ``evaluate("test")`` runs on that
workload: one whole no-grad scoring call of 100 test edges x 51 roots (src,
dst, 49 negatives) through ``score_link_queries`` on the
``train_tgat_taser`` configuration after one training epoch, at the tile
bound ``SCORING_TILE_ROWS`` and at half and twice it (``ns_by_tile_rows``).
Per level of the call's forward-only batch it records ``rows`` (the slots
that reach the level), ``targets`` (its distinct ``(node, t)`` queries, the
rows the level computes) and ``tiles`` (how many tiles run them).  Beside it,
``train_levels`` counts the same ``rows`` and ``targets`` per level, summed
over one epoch of that workload's training batches (counts only, no timing).

Two cells cover the serve path.  ``graphmixer_aggregate`` times
``GraphMixer.aggregate`` on the zero state at a serve flush's rows (R = 3)
and a training batch's (R = 600).  ``serve_flush`` times one
``ServeEngine.flush`` of 1, 3 and 10 queries on the ``serve_openloop``
configuration and counts its Python + C calls (``calls_per_flush``, a
``sys.setprofile`` counter).

It localises a regression the end-to-end benchmark shows in a step total to
a layer; it asserts nothing about speed.  Writes ``BENCH_layers.json``::

    PYTHONPATH=src python benchmarks/bench_layers.py [--sizes 300 1500 6000]
"""

from __future__ import annotations

import argparse
import itertools
import os
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

# Before numpy: one BLAS thread, as ``benchmarks/e2e/run.py`` pins it — the
# cells localise what that benchmark measures, and on a host with fewer
# cores than BLAS threads a float32 GEMM of >= 1 000 rows stalls for 8 ms in
# the multi-threaded path (the ``linear`` R=300 cell read 8.0 / 80 ms).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

from tracer import Tracer  # noqa: E402
from workloads import MODEL, SERVE_SPEC, TRAIN_SPECS, resolve  # noqa: E402

import repro.tensor  # noqa: E402
from repro.bench import emit_bench_json  # noqa: E402
from repro.core import (AdaptiveNeighborSampler, TaserConfig,  # noqa: E402
                        TaserTrainer)
from repro.encoders import FixedTimeEncoder, LearnableTimeEncoder  # noqa: E402
from repro.eval import evaluator, score_link_queries  # noqa: E402
from repro.graph import load_dataset  # noqa: E402
from repro.models import TGAT, GraphMixer, HopData  # noqa: E402
from repro.nn import MixerBlock  # noqa: E402
from repro.sampling import NeighborBatch  # noqa: E402
from repro.serve import LinkQuery, ServeEngine  # noqa: E402
from repro.tensor import Tensor, get_backend, no_grad  # noqa: E402
from repro.tensor import functional as F  # noqa: E402

M, D, EDGE_DIM, BUDGET = 10, 34, 32, 5
HIDDEN, TIME_DIM, PADDED_SHARE = 32, 16, 0.15
SIZES = (300, 1500, 6000)
DEAD_SHARES = {"dead0": 0.0, "dead25": 0.25}


def randn(rng, *shape, scale: float = 1.0, requires_grad: bool = True) -> Tensor:
    return Tensor.randn(*shape, rng=rng, scale=scale, requires_grad=requires_grad)


def candidate_mask(rng, rows: int, dead_share: float) -> np.ndarray:
    mask = rng.random((rows, M)) < 0.8
    mask[:, 0] = True
    mask[:int(round(rows * dead_share))] = False
    return mask


def layer_norm_op(rng, rows, dead_share):
    x = randn(rng, rows, M, D)
    w, b = Tensor.ones(D, requires_grad=True), Tensor.zeros(D, requires_grad=True)
    return lambda: F.layer_norm(x, w, b)


def linear_op(rng, rows, dead_share):
    x = randn(rng, rows, M, D)
    w = randn(rng, D, D, scale=0.1)
    b = Tensor.zeros(D, requires_grad=True)
    return lambda: F.linear(x, w, b)


def mixer_op(rng, rows, dead_share):
    block = MixerBlock(M, D, token_expansion=0.5, channel_expansion=1.0, rng=rng)
    x = randn(rng, rows, M, D)
    mask = candidate_mask(rng, rows, dead_share)
    return lambda: block(x, mask=mask)


def sampler_mixer_op(rng, rows, dead_share):
    block = MixerBlock(M, D, token_expansion=0.5, channel_expansion=1.0, rng=rng)
    x = randn(rng, rows, M, D)
    mask = candidate_mask(rng, rows, dead_share)
    return lambda: block(F.concatenate([x], out=block.input_buffer(rows)), mask=mask)


def sampler_candidates(rng, rows: int, dead_share: float) -> NeighborBatch:
    mask = candidate_mask(rng, rows, dead_share)
    return NeighborBatch(
        root_nodes=rng.integers(0, 1000, rows), root_times=np.full(rows, 100.0),
        nodes=np.where(mask, rng.integers(1, 50, (rows, M)), 0),
        eids=np.where(mask, rng.integers(1, 10 ** 4, (rows, M)), 0),
        times=np.where(mask, rng.uniform(1.0, 99.0, (rows, M)), 0.0), mask=mask)


def sampler_encode_op(rng, rows, dead_share):
    sampler = AdaptiveNeighborSampler(0, EDGE_DIM, M, seed=0)
    candidates = sampler_candidates(rng, rows, dead_share)
    edge_feat = randn(rng, rows, M, EDGE_DIM).data * candidates.mask[..., None]
    return lambda: sampler.encode(candidates, edge_feat, None)


def sampler_head_op(rng, rows, dead_share):
    scores = randn(rng, rows, M)
    mask = candidate_mask(rng, rows, dead_share)
    noise = rng.gumbel(size=(rows, M))
    live = np.arange(rows)
    return lambda: F.sampler_head(scores, mask, BUDGET, 1.0, noise, live, rows, 1e-20)[0]


def time_encoding_op(rng, rows, learnable):
    encoder = LearnableTimeEncoder(TIME_DIM, rng=rng) if learnable \
        else FixedTimeEncoder(TIME_DIM)
    dt = rng.uniform(0.0, 2.6e6, (rows, M))
    return lambda: encoder(dt)


def sampler_op(rng, rows, dead_share):
    sampler = AdaptiveNeighborSampler(0, EDGE_DIM, M, seed=0)
    assert sampler.enc_dim == D
    candidates = sampler_candidates(rng, rows, dead_share)
    edge_feat = randn(rng, rows, M, EDGE_DIM).data * candidates.mask[..., None]
    return lambda: sampler(candidates, BUDGET, edge_feat=edge_feat).log_prob


def graphmixer_aggregate_op(rng, rows, variant):
    """GraphMixer's aggregate on the zero state, as ``serve_openloop`` and
    ``train_mixer_baseline`` run it: a serve flush's rows (R = 3) and a
    training batch's (R = 600)."""
    model = GraphMixer(0, EDGE_DIM, hidden_dim=HIDDEN, time_dim=TIME_DIM,
                       num_neighbors=BUDGET, dropout=0.0, rng=rng)
    hop = padded_hop(rng, rows)
    return lambda: model.aggregate(1, None, None, hop)


def padded_hop(rng, rows: int) -> HopData:
    """A gated hop of ``BUDGET`` neighbors per row, ``PADDED_SHARE`` of the
    slots padded, with edge features."""
    mask = rng.random((rows, BUDGET)) >= PADDED_SHARE
    hop = HopData(
        batch=NeighborBatch(
            root_nodes=rng.integers(0, 1000, rows), root_times=np.full(rows, 100.0),
            nodes=np.where(mask, rng.integers(1, 50, (rows, BUDGET)), 0),
            eids=np.where(mask, rng.integers(1, 10 ** 4, (rows, BUDGET)), 0),
            times=np.where(mask, rng.uniform(1.0, 99.0, (rows, BUDGET)), 0.0), mask=mask),
        edge_feat=randn(rng, rows, BUDGET, EDGE_DIM).data * mask[..., None])
    hop.make_gate()
    return hop


def tgat_aggregate_op(rng, rows, live_h):
    model = TGAT(0, EDGE_DIM, hidden_dim=HIDDEN, time_dim=TIME_DIM, dropout=0.0, rng=rng)
    hop = padded_hop(rng, rows)
    h_target = h_neighbors = None                   # the zero state
    if live_h:
        h_target = randn(rng, rows, HIDDEN)
        h_neighbors = randn(rng, rows, BUDGET, HIDDEN)
    return lambda: model.aggregate(1, h_target, h_neighbors, hop)


#: name -> (factory, {variant label: the factory's third argument}, the row
#: counts it runs at — ``None``: the ``--sizes``)
OPS = {
    "layer_norm": (layer_norm_op, {"dead0": 0.0}, None),
    "linear": (linear_op, {"dead0": 0.0}, None),
    "mixer_block": (mixer_op, DEAD_SHARES, None),
    "sampler_encode": (sampler_encode_op, {"dead0": 0.0}, (289, 1174)),
    "sampler_mixer": (sampler_mixer_op, {"dead0": 0.0}, (289, 1174)),
    "sampler_head": (sampler_head_op, {"dead0": 0.0}, (289, 1174)),
    "adaptive_sampler": (sampler_op, DEAD_SHARES, None),
    "tgat_aggregate": (tgat_aggregate_op, {"zero_state": False, "live_h": True}, None),
    "graphmixer_aggregate": (graphmixer_aggregate_op, {"zero_state": None}, (3, 600)),
    "time_encoding": (time_encoding_op, {"fixed": False, "learnable": True}, (1500,)),
}


def eval_levels_cell(tracer: Tracer, repeats: int) -> dict:
    """``score_link_queries`` on one whole ``train_tgat_taser`` evaluation."""
    spec = TRAIN_SPECS["train_tgat_taser"]
    config = TaserConfig(**dict(MODEL, **spec["config"]))
    trainer = TaserTrainer(load_dataset(spec["dataset"], scale=spec["scale"],
                                        seed=0), config)
    trainer.train_epoch()
    scorer = trainer.make_evaluator()
    graph, edges = trainer.graph, scorer._select_edges("test")
    queries = (graph.src[edges], graph.dst[edges], graph.ts[edges],
               scorer.negatives.sample_matrix(edges.size, config.eval_negatives,
                                              exclude=graph.dst[edges]))
    bound = evaluator.SCORING_TILE_ROWS
    minibatch = trainer.prep.prepare_eval(*queries, rng=np.random.default_rng(0)
                                          ).minibatch
    levels = [{"rows": int(hop.inverse.size), "targets": hop.num_targets,
               "tiles": -(-hop.num_targets // bound)} for hop in minibatch.hops]

    def score():
        return score_link_queries(trainer.prep, trainer.backbone,
                                  trainer.predictor, *queries, scorer.rng)
    cell = measure(score, tracer, repeats)
    by_bound = {}
    try:
        for rows in (bound // 2, bound, 2 * bound):
            evaluator.SCORING_TILE_ROWS = rows
            by_bound[str(rows)] = measure(score, tracer, repeats)["ns_per_op"]
    finally:
        evaluator.SCORING_TILE_ROWS = bound
    return dict(cell, edges=int(edges.size), tile_rows=bound,
                ns_by_tile_rows=by_bound, levels=levels)


def train_levels_cell() -> dict:
    """Rows and distinct targets per level, summed over one epoch of
    ``train_tgat_taser`` training batches."""
    spec = TRAIN_SPECS["train_tgat_taser"]
    trainer = TaserTrainer(load_dataset(spec["dataset"], scale=spec["scale"],
                                        seed=0),
                           TaserConfig(**dict(MODEL, **spec["config"])))
    build, batches = trainer.generator.build, []

    def counted(*args, **kwargs):
        batches.append(build(*args, **kwargs))
        return batches[-1]
    trainer.generator.build = counted
    trainer.train_epoch()
    levels = [{"rows": sum(int(batch.hops[level].inverse.size) for batch in batches),
               "targets": sum(batch.hops[level].num_targets for batch in batches)}
              for level in range(trainer.generator.num_layers)]
    return {"batches": len(batches), "levels": levels}


def calls_of(run) -> int:
    """Python and C function calls ``run()`` makes (a ``sys.setprofile``
    counter: every ``call`` and ``c_call`` event)."""
    calls = [0]

    def count(frame, event, arg):
        if event == "call" or event == "c_call":
            calls[0] += 1
    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls[0] - 1                             # the setprofile(None) call


def serve_flush_cell(repeats: int) -> dict:
    """One ``ServeEngine.flush`` of 1, 3 and 10 queries on the
    ``serve_openloop`` configuration — GraphMixer trained one epoch on a
    wikipedia prefix, an engine built as that workload builds it — timed
    and call-counted per flush, each flush on fresh queries."""
    spec, config = resolve(SERVE_SPEC, smoke=False)
    graph = load_dataset(spec["dataset"], scale=1.0, seed=0)
    warm_events = int(graph.num_edges * spec["warm_fraction"])
    trainer = TaserTrainer(graph.select_events(np.arange(warm_events)),
                           TaserConfig(**config))
    trainer.train_epoch()
    engine = ServeEngine.from_trainer(trainer, max_batch=spec["max_batch"],
                                      queue_depth=spec["queue_depth"], staleness_time=0.0)
    nodes = trainer.graph.num_nodes
    rng = np.random.default_rng(0)
    stream = itertools.cycle(range(warm_events, graph.num_edges))

    def submit(count: int) -> None:
        for _ in range(count):
            e = next(stream)
            engine.submit(LinkQuery(int(graph.src[e]) % nodes,
                                    int(rng.integers(0, nodes)), float(graph.ts[e])))

    cell = {}
    for count in (1, 3, 10):
        submit(count)
        engine.flush()                              # warm this flush shape
        submit(count)
        calls = calls_of(engine.flush)
        times = []
        for _ in range(repeats):
            submit(count)
            start = time.perf_counter_ns()
            engine.flush()
            times.append(time.perf_counter_ns() - start)
        cell[f"q{count}"] = {"us_per_flush": statistics.median(times) / 1e3,
                             "calls_per_flush": calls}
    return cell


def measure(run, tracer: Tracer, repeats: int) -> dict:
    """Median ns and kernel output bytes of one ``run()``."""
    run()                                           # warm caches and lazy set-up
    tracer.install()
    before = tracer.total("tensor.kernel_out_bytes") or 0
    run()
    out_bytes = (tracer.total("tensor.kernel_out_bytes") or 0) - before
    tracer.uninstall()
    times = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        kept = run()
        times.append(time.perf_counter_ns() - start)
        del kept
    return {"ns_per_op": statistics.median(times), "out_bytes_per_op": out_bytes}


def bench(sizes, repeats: int) -> dict:
    tracer = Tracer()
    tracer.bind(SimpleNamespace(array_backend=get_backend()))
    cells: dict = {}
    for name, (factory, variants, fixed_sizes) in OPS.items():
        for rows in fixed_sizes or sizes:
            for label, variant in variants.items():
                forward = factory(np.random.default_rng(0), rows, variant)
                out = forward()
                coeff = randn(np.random.default_rng(1), *out.shape, requires_grad=False)

                def forward_nograd():
                    with no_grad():
                        return forward()

                def forward_backward():
                    out = forward()
                    (out * coeff).sum().backward()
                    return out

                cell = {"forward": measure(forward, tracer, repeats),
                        "forward_nograd": measure(forward_nograd, tracer, repeats)}
                line = (f"  {name:<17} R={rows:<5} {label:<10}"
                        f" fwd {cell['forward']['ns_per_op'] / 1e6:8.3f} ms"
                        f" {cell['forward']['out_bytes_per_op'] / 2 ** 20:7.2f} MB |"
                        f" nograd {cell['forward_nograd']['ns_per_op'] / 1e6:8.3f} ms")
                if out.requires_grad:
                    both = cell["forward_backward"] = measure(forward_backward, tracer,
                                                              repeats)
                    line += (f" | fwd+bwd {both['ns_per_op'] / 1e6:8.3f} ms"
                             f" {both['out_bytes_per_op'] / 2 ** 20:7.2f} MB")
                cells.setdefault(name, {}).setdefault(f"R{rows}", {})[label] = cell
                print(line)
    cell = cells["serve_flush"] = serve_flush_cell(max(100, 20 * repeats))
    print("  serve_flush       " + "  ".join(
        f"{label}: {one['us_per_flush']:7.1f} us {one['calls_per_flush']:4d} calls"
        for label, one in cell.items()))
    cell = cells["eval_levels"] = eval_levels_cell(tracer, repeats)
    print(f"  eval_levels       {cell['edges']} edges      nograd "
          f"{cell['ns_per_op'] / 1e6:8.3f} ms at {cell['tile_rows']} rows per tile ("
          + ", ".join(f"{rows}: {ns / 1e6:.1f} ms"
                      for rows, ns in cell["ns_by_tile_rows"].items())
          + "); rows -> targets in tiles per level: " + ", ".join(
              f"{level['rows']} -> {level['targets']} in {level['tiles']}"
              for level in cell["levels"]))
    cell = cells["train_levels"] = train_levels_cell()
    print(f"  train_levels      {cell['batches']} batches    rows -> targets per "
          "level: " + ", ".join(f"{level['rows']} -> {level['targets']}"
                                for level in cell["levels"]))
    return cells


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES),
                        help="row counts R to run (default: 300 1500 6000)")
    parser.add_argument("--repeats", type=int, default=9,
                        help="timed calls per cell; the median is recorded")
    args = parser.parse_args(argv)
    compute_dtype = np.dtype(repro.tensor.COMPUTE_DTYPE).name
    print(f"bench_layers: m={M} d={D} compute_dtype={compute_dtype}")
    cells = bench(args.sizes, args.repeats)
    path = emit_bench_json("layers", {
        "m": M, "d": D, "budget": BUDGET, "hidden": HIDDEN, "edge_dim": EDGE_DIM,
        "time_dim": TIME_DIM, "repeats": args.repeats,
        "compute_dtype": compute_dtype, "cells": cells})
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
