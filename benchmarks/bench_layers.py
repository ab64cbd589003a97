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
live previous-layer state (layer 2).  Per cell it records

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

One more cell, ``eval_chunk``, times the unit ``evaluate("test")`` repeats
on that workload: one no-grad scoring chunk of 10 test edges x 51 roots (src,
dst, 49 negatives) through ``score_link_queries`` on the ``train_tgat_taser``
configuration after one training epoch, and records the rows per level of
its forward-only batch: ``per_row`` (what a batch without dedup holds),
``rows`` (the slots that reach the level) and ``targets`` (its distinct
``(node, t)`` queries, the rows the level computes).

It localises a regression the end-to-end benchmark shows in a step total to
a layer; it asserts nothing about speed.  Writes ``BENCH_layers.json``::

    PYTHONPATH=src python benchmarks/bench_layers.py [--sizes 300 1500 6000]
"""

from __future__ import annotations

import argparse
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
from workloads import MODEL, TRAIN_SPECS  # noqa: E402

import repro.tensor  # noqa: E402
from repro.bench import emit_bench_json  # noqa: E402
from repro.core import (AdaptiveNeighborSampler, TaserConfig,  # noqa: E402
                        TaserTrainer)
from repro.eval.evaluator import (SCORING_CHUNK_ROOTS,  # noqa: E402
                                  score_link_queries)
from repro.graph import load_dataset  # noqa: E402
from repro.models import TGAT, HopData  # noqa: E402
from repro.nn import MixerBlock  # noqa: E402
from repro.sampling import NeighborBatch  # noqa: E402
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


def sampler_op(rng, rows, dead_share):
    sampler = AdaptiveNeighborSampler(0, EDGE_DIM, M, seed=0)
    assert sampler.enc_dim == D
    mask = candidate_mask(rng, rows, dead_share)
    candidates = NeighborBatch(
        root_nodes=rng.integers(0, 1000, rows), root_times=np.full(rows, 100.0),
        nodes=np.where(mask, rng.integers(1, 50, (rows, M)), 0),
        eids=np.where(mask, rng.integers(1, 10 ** 4, (rows, M)), 0),
        times=np.where(mask, rng.uniform(1.0, 99.0, (rows, M)), 0.0), mask=mask)
    edge_feat = randn(rng, rows, M, EDGE_DIM).data * mask[..., None]
    return lambda: sampler(candidates, BUDGET, edge_feat=edge_feat).log_prob


def tgat_aggregate_op(rng, rows, live_h):
    model = TGAT(0, EDGE_DIM, hidden_dim=HIDDEN, time_dim=TIME_DIM, dropout=0.0, rng=rng)
    mask = rng.random((rows, BUDGET)) >= PADDED_SHARE
    hop = HopData(
        batch=NeighborBatch(
            root_nodes=rng.integers(0, 1000, rows), root_times=np.full(rows, 100.0),
            nodes=np.where(mask, rng.integers(1, 50, (rows, BUDGET)), 0),
            eids=np.where(mask, rng.integers(1, 10 ** 4, (rows, BUDGET)), 0),
            times=np.where(mask, rng.uniform(1.0, 99.0, (rows, BUDGET)), 0.0), mask=mask),
        edge_feat=randn(rng, rows, BUDGET, EDGE_DIM).data * mask[..., None])
    hop.make_gate()
    h_target = h_neighbors = None                   # the zero state
    if live_h:
        h_target = randn(rng, rows, HIDDEN)
        h_neighbors = randn(rng, rows, BUDGET, HIDDEN)
    return lambda: model.aggregate(1, h_target, h_neighbors, hop)


#: name -> (factory, {variant label: the factory's third argument})
OPS = {
    "layer_norm": (layer_norm_op, {"dead0": 0.0}),
    "linear": (linear_op, {"dead0": 0.0}),
    "mixer_block": (mixer_op, DEAD_SHARES),
    "adaptive_sampler": (sampler_op, DEAD_SHARES),
    "tgat_aggregate": (tgat_aggregate_op, {"zero_state": False, "live_h": True}),
}


def eval_chunk_cell(tracer: Tracer, repeats: int) -> dict:
    """``score_link_queries`` on one ``train_tgat_taser`` scoring chunk."""
    spec = TRAIN_SPECS["train_tgat_taser"]
    config = TaserConfig(**dict(MODEL, **spec["config"]))
    trainer = TaserTrainer(load_dataset(spec["dataset"], scale=spec["scale"],
                                        seed=0), config)
    trainer.train_epoch()
    evaluator = trainer.make_evaluator()
    graph, test = trainer.graph, trainer.split.test_idx
    edges = test[np.linspace(0, test.size - 1,
                             SCORING_CHUNK_ROOTS // (2 + config.eval_negatives)
                             ).astype(np.int64)]
    queries = (graph.src[edges], graph.dst[edges], graph.ts[edges],
               evaluator.negatives.sample_matrix(edges.size, config.eval_negatives,
                                                 exclude=graph.dst[edges]))
    with trainer.finder.draws_from(evaluator.rng):
        minibatch = trainer.prep.prepare_eval(*queries).minibatch
        levels = [{"per_row": minibatch.batch_size * config.num_neighbors ** level,
                   "rows": int(hop.inverse.size), "targets": hop.num_targets}
                  for level, hop in enumerate(minibatch.hops)]
        cell = measure(lambda: score_link_queries(
            trainer.prep, trainer.backbone, trainer.predictor, *queries),
            tracer, repeats)
    return dict(cell, edges=int(edges.size), levels=levels)


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
    for name, (factory, variants) in OPS.items():
        for rows in sizes:
            for label, variant in variants.items():
                forward = factory(np.random.default_rng(0), rows, variant)
                coeff = randn(np.random.default_rng(1), *forward().shape,
                              requires_grad=False)

                def forward_nograd():
                    with no_grad():
                        return forward()

                def forward_backward():
                    out = forward()
                    (out * coeff).sum().backward()
                    return out

                cell = {"forward": measure(forward, tracer, repeats),
                        "forward_nograd": measure(forward_nograd, tracer, repeats),
                        "forward_backward": measure(forward_backward, tracer, repeats)}
                cells.setdefault(name, {}).setdefault(f"R{rows}", {})[label] = cell
                print(f"  {name:<17} R={rows:<5} {label:<10}"
                      f" fwd {cell['forward']['ns_per_op'] / 1e6:8.3f} ms"
                      f" {cell['forward']['out_bytes_per_op'] / 2 ** 20:7.2f} MB |"
                      f" nograd {cell['forward_nograd']['ns_per_op'] / 1e6:8.3f} ms |"
                      f" fwd+bwd {cell['forward_backward']['ns_per_op'] / 1e6:8.3f} ms"
                      f" {cell['forward_backward']['out_bytes_per_op'] / 2 ** 20:7.2f} MB")
    cell = cells["eval_chunk"] = eval_chunk_cell(tracer, repeats)
    print(f"  eval_chunk        {cell['edges']} edges     "
          f" nograd {cell['ns_per_op'] / 1e6:8.3f} ms, per-row -> rows -> targets"
          " per level: " + ", ".join(
              f"{level['per_row']} -> {level['rows']} -> {level['targets']}"
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
