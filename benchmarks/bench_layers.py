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

One more cell, ``eval_levels``, times the forward-only scoring call
(``score_link_queries``) of the two workloads that score: per workload one
whole no-grad call — on ``train_tgat_taser``, what its ``evaluate("test")``
runs after one training epoch (100 test edges x 51 roots: src, dst, 49
negatives); on ``stream_prequential``, the prequential scoring of its first
chunk (256 events x 51 roots) on the warm prefix — at the tile bound
``SCORING_TILE_ROWS`` and at half and twice it: wall ns
(``ns_by_tile_rows``) against the bytes ``tracemalloc`` traces at the
call's peak above what was live before it (``peak_bytes_by_tile_rows``),
the two sides of the bound.  At the bound it adds the process CPU time of
the same calls (``cpu_ns_per_op``, every thread's) and the scoring threads
its widest level runs on (``pool_threads``): CPU over wall near 1 on more
than one thread means the threads did not overlap.
Per level of the call's forward-only batch it records ``rows`` (the slots
that reach the level), ``targets`` (its distinct ``(node, t)`` queries, the
rows the level computes), ``tiles`` (how many tiles run them) and
``live_token_fraction`` (the mean of the candidate mask over the rows the
adaptive sampler scores: the share of its mixer block's tokens that are not
masked; ``None`` without a sampler).  Beside it, ``train_levels`` counts the
same ``rows``, ``targets`` and ``live_token_fraction`` per level, summed
over one epoch of ``train_tgat_taser``'s training batches (counts only, no
timing).

``tcsr_build`` times T-CSR construction on the graphs the four end-to-end
workloads build one of (the serve engine's is the warm prefix) and on one
graph of 70 000 nodes, past the 16-bit node key: ns per ``build_tcsr``, ns per
``StreamingTCSR.from_graph(...).snapshot()`` (a ``build_tcsr`` plus a wrap)
and µs per event appended in chunks of 100 and 200 events (a serve ingest
block, a stream chunk), each append including its merge into a fresh
compact T-CSR.

``train_step_memory`` follows the step configurations of the two train
workloads (tgat + TASER and the GraphMixer baseline, seed 0, after one
warm-up epoch) through ``MEMORY_STEPS`` steps run as the training loop runs
them, the previous batch still referenced while the next is prepared.  With
``tracemalloc`` tracing numpy's allocations and its peak reset at the start
of each step, it records the step's traced peak bytes by two phase
boundaries — the batch prepared (``prep``), the step's backward half, the
model loss and then the sampler's sample loss back-propagated
(``backward``; the baseline has no sample loss) — the bytes still traced
once the step is applied and dropped (``live_bytes_after_step``) and,
over the same number of untraced steps, ``minor_faults_per_step``
(``getrusage``).  Medians over the steps.  The payload's
``allocator_policy`` is ``repro.ALLOCATOR_POLICY``: the faults depend on it.

Two cells cover the serve path.  ``graphmixer_aggregate`` times
``GraphMixer.aggregate`` on the zero state at a serve flush's rows (R = 3)
and a training batch's (R = 600).  ``serve_flush`` times one
``ServeEngine.flush`` of 1, 3 and 10 queries on the ``serve_openloop``
configuration and counts its Python + C calls (``calls_per_flush``, a
``sys.setprofile`` counter) and, of those, the Python frames of the
``repro`` package (``repro_calls_per_flush``).  ``serve_engine`` times one
``ServeEngine.from_trainer`` on that workload's warm graph and records the
bytes ``tracemalloc`` traces the engine holding fresh and after one
100-event ingest (``fresh_bytes``, ``bytes_after_ingest``).

Two cells cover prep at R = 6, 64, 512 and 3 000 rows: ``finder_sample``
(one ``GPUNeighborFinder.sample`` of m = 10 candidates, ``recent`` and
``uniform``) and ``edge_gather`` (one ``FeatureStore.slice_edge_features``
of its candidates).  The small sizes show the constant cost of a call, the
large ones the scoring tiles' and training batches' gathers.

It localises a regression the end-to-end benchmark shows in a step total to
a layer; it asserts nothing about speed.  Writes ``BENCH_layers.json``::

    PYTHONPATH=src python benchmarks/bench_layers.py [--sizes 300 1500 6000]
"""

from __future__ import annotations

import argparse
import itertools
import os
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

# Before numpy: one BLAS thread, as ``benchmarks/e2e/run.py`` pins it — the
# cells localise what that benchmark measures, and on a host with fewer
# cores than BLAS threads a float32 GEMM of >= 1 000 rows stalls for 8 ms in
# the multi-threaded path (the ``linear`` R=300 cell read 8.0 / 80 ms).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

from tracer import Tracer  # noqa: E402
from workloads import (MODEL, SERVE_SPEC, STREAM_SPEC, TRAIN_SPECS,  # noqa: E402
                       resolve)

import repro  # noqa: E402
import repro.tensor  # noqa: E402
from repro.bench import emit_bench_json  # noqa: E402
from repro.core import (AdaptiveNeighborSampler, StreamingTrainer,  # noqa: E402
                        TaserConfig, TaserTrainer, split_warmup)
from repro.device import FeatureStore  # noqa: E402
from repro.encoders import FixedTimeEncoder, LearnableTimeEncoder  # noqa: E402
from repro.eval import evaluator, score_link_queries  # noqa: E402
from repro.graph import (StreamingTCSR, TemporalGraph, build_tcsr,  # noqa: E402
                         load_dataset)
from repro.models import TGAT, GraphMixer, HopData  # noqa: E402
from repro.nn import MixerBlock  # noqa: E402
from repro.sampling import GPUNeighborFinder, NeighborBatch  # noqa: E402
from repro.serve import LinkQuery, ServeEngine  # noqa: E402
from repro.tensor import Tensor, get_backend, no_grad  # noqa: E402
from repro.tensor import functional as F  # noqa: E402

M, D, EDGE_DIM, BUDGET = 10, 34, 32, 5
HIDDEN, TIME_DIM, PADDED_SHARE = 32, 16, 0.15
SIZES = (300, 1500, 6000)
#: rows of the prep cells: a serve flush's levels (6, 64), a scoring tile
#: (512) and a training batch's second hop (3 000).
PREP_ROWS = (6, 64, 512, 3000)
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
    draws = np.random.default_rng(0)
    return lambda: sampler(candidates, BUDGET, edge_feat=edge_feat,
                           rng=draws).log_prob


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
    """One whole scoring call per workload that scores: a ``train_tgat_taser``
    evaluation and a ``stream_prequential`` chunk."""
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
    cells = {"train_tgat_taser": scoring_cell(trainer.prep, trainer.backbone,
                                              trainer.predictor, queries, scorer.rng,
                                              trainer.generator.adaptive_sampler,
                                              tracer, repeats)}

    spec, config = resolve(STREAM_SPEC, smoke=False)
    graph = load_dataset(spec["dataset"], scale=spec["scale"], seed=0)
    warm, stream = split_warmup(graph, warmup_events=int(graph.num_edges
                                                         * spec["warm_fraction"]),
                                chunk_size=spec["chunk"], max_chunks=1)
    trainer = StreamingTrainer(warm, TaserConfig(**config), window_events=spec["window"],
                               prequential_max_events=spec["prequential_max_events"])
    chunk = next(iter(stream))
    picks = np.linspace(0, chunk.num_events - 1,
                        spec["prequential_max_events"]).astype(np.int64)
    queries = (chunk.src[picks], chunk.dst[picks], chunk.ts[picks],
               trainer.prequential_negatives.sample_matrix(
                   picks.size, trainer.config.eval_negatives, exclude=chunk.dst[picks]))
    cells["stream_prequential"] = scoring_cell(
        trainer.prep, trainer.backbone, trainer.predictor, queries,
        trainer.prequential_rng, None, tracer, repeats)
    return cells


def scoring_cell(prep, backbone, predictor, queries: tuple, rng,
                 sampler: Optional[AdaptiveNeighborSampler], tracer: Tracer,
                 repeats: int) -> dict:
    """``score_link_queries`` on ``queries``: wall and CPU time at the tile
    bound, wall time and traced peak bytes at half, at and at twice it, and
    the forward-only batch's levels."""
    bound = evaluator.SCORING_TILE_ROWS

    def prepare():
        return prep.prepare_eval(*queries, rng=np.random.default_rng(0)).minibatch
    if sampler is None:
        minibatch, live = prepare(), itertools.repeat((0, 0))
    else:
        minibatch, live = live_tokens(sampler, prepare)
    levels = [{"rows": int(hop.inverse.size), "targets": hop.num_targets,
               "tiles": -(-hop.num_targets // bound),
               "live_token_fraction": valid / slots if slots else None}
              for hop, (valid, slots) in zip(minibatch.hops, live)]
    del minibatch

    def score():
        return score_link_queries(prep, backbone, predictor, *queries, rng)
    cell = measure(score, tracer, repeats, cpu=True)
    by_bound, peaks = {}, {}
    try:
        for rows in (bound // 2, bound, 2 * bound):
            evaluator.SCORING_TILE_ROWS = rows
            by_bound[str(rows)] = measure(score, tracer, repeats)["ns_per_op"]
            peaks[str(rows)] = traced_peak(score)
    finally:
        evaluator.SCORING_TILE_ROWS = bound
    return dict(cell, edges=int(queries[0].size), tile_rows=bound,
                pool_threads=evaluator._pool_size(max(level["tiles"] for level in levels)),
                ns_by_tile_rows=by_bound, peak_bytes_by_tile_rows=peaks, levels=levels)


def traced_peak(run) -> int:
    """Bytes ``tracemalloc`` traces at the peak of one ``run()`` above those
    live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def live_tokens(sampler: AdaptiveNeighborSampler, run) -> tuple:
    """``(run(), counts)``: ``counts`` holds, per call of ``sampler`` during
    ``run()`` in call order, the valid candidates of the rows it scores (the
    rows with at least one) and their candidate slots — the live and all
    tokens its mixer block runs on."""
    forward, counts = sampler.forward, []

    def counted(candidates, *args, **kwargs):
        scored = candidates.mask[candidates.mask.any(axis=1)]
        counts.append((int(scored.sum()), int(scored.size)))
        return forward(candidates, *args, **kwargs)
    sampler.forward = counted
    try:
        return run(), counts
    finally:
        del sampler.forward


def train_levels_cell() -> dict:
    """Rows, distinct targets and the sampler's live-token fraction per
    level, summed over one epoch of ``train_tgat_taser`` training batches."""
    spec = TRAIN_SPECS["train_tgat_taser"]
    trainer = TaserTrainer(load_dataset(spec["dataset"], scale=spec["scale"],
                                        seed=0),
                           TaserConfig(**dict(MODEL, **spec["config"])))
    build, batches = trainer.generator.build, []

    def counted(*args, **kwargs):
        batches.append(build(*args, **kwargs))
        return batches[-1]
    trainer.generator.build = counted
    _, live = live_tokens(trainer.generator.adaptive_sampler, trainer.train_epoch)
    layers = trainer.generator.num_layers
    # A training batch draws each level in one sampler call, level by level.
    assert len(live) == layers * len(batches)
    levels = [{"rows": sum(int(batch.hops[level].inverse.size) for batch in batches),
               "targets": sum(batch.hops[level].num_targets for batch in batches),
               "live_token_fraction": (sum(valid for valid, _ in live[level::layers])
                                       / sum(slots for _, slots in live[level::layers]))}
              for level in range(layers)]
    return {"batches": len(batches), "levels": levels}


def calls_of(run) -> tuple:
    """``(calls, repro_calls)``: the Python and C function calls ``run()``
    makes (a ``sys.setprofile`` counter: every ``call`` and ``c_call``
    event), and how many of them are Python frames of the ``repro`` package
    (independent of the NumPy version, whose own Python layers vary)."""
    calls = [0, 0]
    package = os.path.dirname(repro.__file__) + os.sep

    def count(frame, event, arg):
        if event == "call" or event == "c_call":
            calls[0] += 1
            if event == "call" and frame.f_code.co_filename.startswith(package):
                calls[1] += 1
    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls[0] - 1, calls[1]                   # less the setprofile(None) call


def median_ns(run, repeats: int) -> float:
    """Median wall-clock nanoseconds of one ``run()`` after a warm call."""
    run()
    times = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        run()
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times)


def prep_cells(repeats: int) -> dict:
    """``finder_sample`` and ``edge_gather`` at ``PREP_ROWS`` rows.

    ``finder_sample`` is one ``GPUNeighborFinder.sample`` of ``R`` random
    ``(node, t)`` event endpoints of ``train_tgat_taser``'s wikipedia graph
    for ``M`` candidates each, under ``recent`` (what serving draws) and
    ``uniform``; ``edge_gather`` one ``FeatureStore.slice_edge_features`` of
    the ``(R, M)`` candidates ``uniform`` returns (no edge cache, as a serve
    engine's store)."""
    graph = load_dataset(TRAIN_SPECS["train_tgat_taser"]["dataset"], scale=1.0, seed=0)
    tcsr, store = build_tcsr(graph), FeatureStore(graph)
    rng = np.random.default_rng(0)
    finders = {policy: GPUNeighborFinder(tcsr, policy=policy)
               for policy in ("recent", "uniform")}
    cells: dict = {"finder_sample": {}, "edge_gather": {}}
    for rows in PREP_ROWS:
        events = rng.integers(0, graph.num_edges, rows)
        nodes = np.where(rng.random(rows) < 0.5, graph.src[events], graph.dst[events])
        times = graph.ts[events]
        for policy, finder in finders.items():
            draws = np.random.default_rng(1)
            cells["finder_sample"].setdefault(f"R{rows}", {})[policy] = median_ns(
                lambda: finder.sample(nodes, times, M, draws), repeats)
        batch = finders["uniform"].sample(nodes, times, M, np.random.default_rng(1))
        cells["edge_gather"][f"R{rows}"] = median_ns(
            lambda: store.slice_edge_features(batch.eids, batch.mask), repeats)
    return cells


#: the graphs the end-to-end workloads build a T-CSR of, as ``(dataset,
#: scale, events kept)``: the two training graphs, the stream graph and the
#: warm prefix ``serve_openloop`` builds its engine on at ``--seconds 15``
#: (its scale fits the 13 400 query events that follow the prefix, as the
#: workload computes it).
TCSR_GRAPHS = {"train_tgat_taser": ("wikipedia", 1.0, None),
               "train_mixer_baseline": ("reddit", 2.0, None),
               "stream_prequential": ("wikipedia", 4.0, None),
               "serve_openloop": ("wikipedia", 13400 / 0.4 / 6000 * 1.01 + 0.01,
                                  -13400)}
#: events per append of the cell's chunked ingest: a serve ingest block and a
#: stream chunk.
APPEND_CHUNKS = (100, 200)


def e2e_graph(name: str) -> tuple:
    """``(graph, events)``: the dataset of e2e workload
    ``name`` (seed 0) and how many of its first events that workload builds
    a T-CSR of."""
    dataset, scale, events = TCSR_GRAPHS[name]
    graph = load_dataset(dataset, scale=scale, seed=0)
    return graph, len(range(graph.num_edges)[:events])


def tcsr_graphs() -> dict:
    """The e2e workloads' T-CSR graphs (seed 0) and one of 70 000 nodes, past
    the 16-bit node key, with as many events as the stream graph."""
    graphs = {}
    for name in TCSR_GRAPHS:
        graph, events = e2e_graph(name)
        graphs[name] = graph.select_events(np.arange(events))
    rng, nodes, events = np.random.default_rng(0), 70_000, graphs["stream_prequential"].num_edges
    graphs["nodes70000"] = TemporalGraph(
        src=rng.integers(0, nodes, events), dst=rng.integers(0, nodes, events),
        ts=np.sort(rng.random(events)), num_nodes=nodes)
    return graphs


def tcsr_build_cell(repeats: int) -> dict:
    """Per graph: ns per ``build_tcsr``, ns per
    ``StreamingTCSR.from_graph(...).snapshot()`` (``build_tcsr`` plus a wrap)
    and µs per event appended in chunks of ``APPEND_CHUNKS`` events onto a
    T-CSR seeded with the first 30 % of the events (the stream workload's
    warm prefix); an append merges its chunk into a fresh compact T-CSR."""
    cell = {}
    for name, graph in tcsr_graphs().items():
        warm = graph.select_events(np.arange(int(0.3 * graph.num_edges)))
        appended = graph.num_edges - warm.num_edges
        per_event = {}
        for chunk in APPEND_CHUNKS:
            times = []
            for _ in range(repeats):
                stcsr = StreamingTCSR.from_graph(warm)
                start = time.perf_counter_ns()
                for lo in range(warm.num_edges, graph.num_edges, chunk):
                    stcsr.append(graph.src[lo:lo + chunk], graph.dst[lo:lo + chunk],
                                 graph.ts[lo:lo + chunk])
                times.append(time.perf_counter_ns() - start)
            per_event[f"chunk{chunk}"] = statistics.median(times) / 1e3 / appended
        cell[name] = {
            "nodes": graph.num_nodes, "events": graph.num_edges,
            "build_tcsr_ns": median_ns(lambda: build_tcsr(graph), repeats),
            "from_graph_snapshot_ns": median_ns(
                lambda: StreamingTCSR.from_graph(graph).snapshot(), repeats),
            "append_us_per_event": per_event}
    return cell


#: training steps per ``train_step_memory`` pass, after a warm-up epoch.
MEMORY_STEPS = 10


def run_steps(trainer: TaserTrainer, steps: int, boundary) -> None:
    """``steps`` training steps as ``train_epoch`` runs them — the previous
    batch stays referenced while the next one is prepared — calling
    ``boundary(phase)`` at each phase boundary of each step."""
    trainer._begin_epoch()
    batches = trainer.engine.epoch(steps)
    for _ in range(steps):
        boundary("start")
        prepared = next(batches)
        boundary("prep")
        step = trainer._backward(prepared)
        boundary("backward")
        trainer._apply(step)
        del step
        boundary("step")


def train_step_memory_cell() -> dict:
    """Per train workload's step configuration (seed 0, after one warm-up
    epoch): the traced peak bytes of a step at its phase boundaries, the
    bytes live after it and its minor page faults, medians over
    ``MEMORY_STEPS`` steps."""
    cell = {}
    for name in ("train_tgat_taser", "train_mixer_baseline"):
        spec = TRAIN_SPECS[name]
        trainer = TaserTrainer(load_dataset(spec["dataset"], scale=spec["scale"], seed=0),
                               TaserConfig(**dict(MODEL, **spec["config"])))
        trainer.train_epoch()

        faults = []

        def count_faults(phase):
            if phase in ("start", "step"):
                faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        run_steps(trainer, MEMORY_STEPS, count_faults)

        peaks: dict = {}

        def trace(phase):
            if phase == "start":
                tracemalloc.reset_peak()
            elif phase == "step":
                peaks.setdefault("live_bytes_after_step", []).append(
                    tracemalloc.get_traced_memory()[0])
            else:
                peaks.setdefault(f"peak_bytes_after_{phase}", []).append(
                    tracemalloc.get_traced_memory()[1])
        tracemalloc.start()
        try:
            run_steps(trainer, MEMORY_STEPS, trace)
        finally:
            tracemalloc.stop()
        per_step = [end - start for start, end in zip(faults[::2], faults[1::2])]
        cell[name] = dict({key: statistics.median(values) for key, values in peaks.items()},
                          minor_faults_per_step=statistics.median(per_step))
    return cell


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
                                      queue_depth=spec["queue_depth"])
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
        calls, repro_calls = calls_of(engine.flush)
        times = []
        for _ in range(repeats):
            submit(count)
            start = time.perf_counter_ns()
            engine.flush()
            times.append(time.perf_counter_ns() - start)
        cell[f"q{count}"] = {"us_per_flush": statistics.median(times) / 1e3,
                             "calls_per_flush": calls,
                             "repro_calls_per_flush": repro_calls}
    return cell


def serve_engine_cell(repeats: int) -> dict:
    """``ServeEngine.from_trainer`` on ``serve_openloop``'s warm graph (the
    engine built as that workload builds it, over an untrained trainer of
    its configuration): ns per construction, and the bytes ``tracemalloc``
    traces the engine holding when fresh and after one ingest of the
    workload's ingest block (100 events) that follows the prefix."""
    spec, config = resolve(SERVE_SPEC, smoke=False)
    graph, warm_events = e2e_graph("serve_openloop")
    trainer = TaserTrainer(graph.select_events(np.arange(warm_events)),
                           TaserConfig(**config))

    def build():
        return ServeEngine.from_trainer(trainer, max_batch=spec["max_batch"],
                                        queue_depth=spec["queue_depth"])
    block = slice(warm_events, warm_events + spec["ingest_block"])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        engine = build()
        fresh = tracemalloc.get_traced_memory()[0] - base
        engine.ingest(graph.src[block], graph.dst[block], graph.ts[block],
                      None if graph.edge_feat is None else graph.edge_feat[block])
        ingested = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return {"nodes": graph.num_nodes, "events": warm_events,
            "from_trainer_ns": median_ns(build, repeats),
            "fresh_bytes": fresh, "bytes_after_ingest": ingested,
            "ingest_events": spec["ingest_block"]}


def measure(run, tracer: Tracer, repeats: int, cpu: bool = False) -> dict:
    """Median ns and kernel output bytes of one ``run()``; with ``cpu``, also
    the median process CPU ns of the same calls (every thread's)."""
    run()                                           # warm caches and lazy set-up
    tracer.install()
    before = tracer.total("tensor.kernel_out_bytes") or 0
    run()
    out_bytes = (tracer.total("tensor.kernel_out_bytes") or 0) - before
    tracer.uninstall()
    times, cpu_times = [], []
    for _ in range(repeats):
        start, cpu_start = time.perf_counter_ns(), time.process_time_ns()
        kept = run()
        times.append(time.perf_counter_ns() - start)
        cpu_times.append(time.process_time_ns() - cpu_start)
        del kept
    cell = {"ns_per_op": statistics.median(times), "out_bytes_per_op": out_bytes}
    if cpu:
        cell["cpu_ns_per_op"] = statistics.median(cpu_times)
    return cell


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
    cells.update(prep_cells(max(100, 20 * repeats)))
    for rows in PREP_ROWS:
        sample = cells["finder_sample"][f"R{rows}"]
        print(f"  prep              R={rows:<5} finder_sample recent "
              f"{sample['recent'] / 1e3:8.1f} us uniform {sample['uniform'] / 1e3:8.1f} us"
              f" | edge_gather {cells['edge_gather'][f'R{rows}'] / 1e3:8.1f} us")
    cell = cells["tcsr_build"] = tcsr_build_cell(max(20, 2 * repeats))
    for name, one in cell.items():
        print(f"  tcsr_build        {name:<20} V={one['nodes']:<6} E={one['events']:<6}"
              f" build_tcsr {one['build_tcsr_ns'] / 1e6:6.3f} ms | from_graph+snapshot"
              f" {one['from_graph_snapshot_ns'] / 1e6:6.3f} ms | append " + " ".join(
                  f"{chunk} {us:.2f}" for chunk, us in one["append_us_per_event"].items())
              + " us/event")
    cell = cells["train_step_memory"] = train_step_memory_cell()
    for name, one in cell.items():
        print(f"  train_step_memory {name:<20} traced peak MB after prep "
              f"{one['peak_bytes_after_prep'] / 2 ** 20:6.2f} | backward "
              f"{one['peak_bytes_after_backward'] / 2 ** 20:6.2f} | live after step "
              f"{one['live_bytes_after_step'] / 2 ** 20:6.2f} | "
              f"{one['minor_faults_per_step']:.0f} minor faults per step")
    cell = cells["serve_flush"] = serve_flush_cell(max(100, 20 * repeats))
    print("  serve_flush       " + "  ".join(
        f"{label}: {one['us_per_flush']:7.1f} us {one['calls_per_flush']:4d} calls"
        f" ({one['repro_calls_per_flush']} in repro)" for label, one in cell.items()))
    cell = cells["serve_engine"] = serve_engine_cell(max(20, 2 * repeats))
    print(f"  serve_engine      V={cell['nodes']:<6} E={cell['events']:<6} from_trainer "
          f"{cell['from_trainer_ns'] / 1e6:6.3f} ms | traced MB fresh "
          f"{cell['fresh_bytes'] / 2 ** 20:6.2f} | after a {cell['ingest_events']}-event "
          f"ingest {cell['bytes_after_ingest'] / 2 ** 20:6.2f}")
    cells["eval_levels"] = eval_levels_cell(tracer, repeats)
    for name, cell in cells["eval_levels"].items():
        print(f"  eval_levels       {name:<18} {cell['edges']} edges nograd "
              f"{cell['ns_per_op'] / 1e6:8.3f} ms wall {cell['cpu_ns_per_op'] / 1e6:8.3f} ms "
              f"CPU on {cell['pool_threads']} threads at {cell['tile_rows']} rows per tile ("
              + ", ".join(f"{rows}: {ns / 1e6:.1f} ms {peak / 2 ** 20:.2f} MB peak"
                          for (rows, ns), peak in zip(cell["ns_by_tile_rows"].items(),
                                                      cell["peak_bytes_by_tile_rows"].values()))
              + "); rows -> targets in tiles per level: " + ", ".join(
                  f"{level['rows']} -> {level['targets']} in {level['tiles']}"
                  + ("" if level["live_token_fraction"] is None
                     else f" ({level['live_token_fraction']:.3f} live)")
                  for level in cell["levels"]))
    cell = cells["train_levels"] = train_levels_cell()
    print(f"  train_levels      {cell['batches']} batches    rows -> targets per "
          "level: " + ", ".join(f"{level['rows']} -> {level['targets']}"
                                f" ({level['live_token_fraction']:.3f} live)"
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
        "compute_dtype": compute_dtype, "allocator_policy": repro.ALLOCATOR_POLICY,
        "cells": cells})
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
