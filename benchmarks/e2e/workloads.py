"""The four workloads of the end-to-end benchmark: train x2, stream, serve.

Each ``run_*`` function is the load generator *and* the measuring stick for
one workload.  It makes the inputs from the workload seed (dataset, arrival
schedule, candidate draws — the program's own ``TaserConfig.seed`` stays at its
default), constructs the program object several times (``setup_s``), warms it up
untimed, runs a fixed amount of work and times every op from outside with one
clock read at a once-per-op public call.  Work is a *count*, sized so the
timed section lasts about ``--seconds`` on the builder's host (see
``REFERENCE_SECONDS``): two commits then run the same steps, the loss/score
digests repeat exactly and a faster program shows as lower medians rather
than as more samples.  A deadline of twice the budget stops a run that is far
slower than planned (the result is then marked ``truncated`` and fails).

The traced pass (``tracer`` given) does the same work but alternates blocks of
ops with the tracer installed and uninstalled, so the per-layer numbers and the
tracing overhead come from one process.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core import (StreamingTrainer, TaserConfig, TaserTrainer,
                        split_warmup)
from repro.graph import load_dataset
from repro.serve import LinkQuery, ServeEngine, scores_hash

from tracer import STEP, Tracer

_now = time.perf_counter

#: the work counts below are sized so the timed section takes about this many
#: seconds on the builder's host; ``--seconds`` scales them linearly.
REFERENCE_SECONDS = 20.0

#: model dimensions shared by all workloads: the ``repro`` CLI's defaults.
MODEL = dict(hidden_dim=32, time_dim=16, num_neighbors=5, num_candidates=10,
             lr=2e-3, dropout=0.0, cache_ratio=0.2, finder="gpu",
             batch_engine="sync")

#: seconds one run may spend waiting for the host to calm down (QuietGate).
QUIET_PATIENCE = 45.0
QUIET_PATIENCE_SMOKE = 1.0

#: back-to-back constructions before the run; more follow during it.
SETUP_FIRST = 3


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def ms(seconds) -> float:
    return float(seconds) * 1e3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


_PROBE = [np.random.default_rng(0).standard_normal((192, 192)) for _ in range(3)]
_PROBE_STREAM = np.ones(1 << 20)        # 8 MB: past the caches


def probe(repeats: int, reduce=np.median) -> float:
    """Milliseconds of a fixed unit of work — an interpreter loop, a
    cache-resident matmul and a pass over 8 MB — that says how fast the host
    is right now, whatever the program under test does."""
    a, b, c = _PROBE
    times = []
    for _ in range(repeats):
        t0 = _now()
        total = 0
        for i in range(1500):
            total += i * i
        (a @ b + c).sum()
        _PROBE_STREAM.sum()
        times.append(_now() - t0)
    return ms(reduce(times))


class QuietGate:
    """Holds the next block of ops while the host is badly disturbed.

    The builder's host has spells in which everything — this fixed probe
    included, in wall *and* CPU time — runs slower: mild ones (1.2-1.3x, a
    large share of the time) that the medians and the bounds absorb, and
    rare severe ones (1.8-2x for up to a minute) of which two runs among ten
    are enough to push a quartile distance past any bound.  Before each block
    of ops the gate runs the probe; while it reads more than ``tolerance``
    times the fastest reading of this process it sleeps and probes again, for
    at most ``patience`` seconds per run.  What is then measured is still the
    program's own wall-clock, taken when the machine is not busy with someone
    else's work; how long the run waited is reported (``host.quiet_wait_s``).
    """

    def __init__(self, patience: float, tolerance: float = 1.5) -> None:
        self.patience = patience
        self.tolerance = tolerance
        self.best = probe(15, min)
        self.waited = 0.0

    def wait(self) -> None:
        start = _now()
        while True:
            now = probe(15, min)
            self.best = min(self.best, now)
            if (now <= self.tolerance * self.best
                    or self.waited + (_now() - start) >= self.patience):
                break
            time.sleep(0.25)
        self.waited += _now() - start


def scaled(count_at_reference: int, seconds: float, floor: int) -> int:
    return max(floor, int(round(count_at_reference * seconds / REFERENCE_SECONDS)))


def digest_of(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def metric(value, unit: str, samples: int = 1) -> dict:
    return {"value": None if value is None else float(value), "unit": unit,
            "samples": int(samples)}


class Blocks:
    """Alternates the tracer on and off between blocks of ops.

    Without a tracer every block is untraced.  Even blocks are traced, so a
    pass that has at least two blocks yields both kinds.
    """

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer
        self.index = 0

    def next(self) -> bool:
        traced = self.tracer is not None and self.index % 2 == 0
        self.index += 1
        if self.tracer is not None:
            (self.tracer.install if traced else self.tracer.uninstall)()
        return traced


class Setup:
    """Times constructions of the program object, spread over the run.

    ``start()`` builds it ``SETUP_FIRST`` times back to back before anything
    else runs (the last one is the program the workload then drives);
    ``again()`` builds and discards one more at points the workload picks
    through its timed section, because a host spell of a few seconds would
    otherwise own every sample.  Dataset generation and warm-up are the load
    generator's and are not part of it.
    """

    def __init__(self, build: Callable[[], object], tracer: Optional[Tracer]):
        self.build = build
        self.tracer = tracer
        self.seconds: List[float] = []

    def _once(self):
        tracer = self.tracer
        span = None
        if tracer is not None and tracer.installed:
            phase, tracer.phase = tracer.phase, "setup"
            span = tracer.open("setup")
        t0 = _now()
        built = self.build()
        self.seconds.append(_now() - t0)
        if span is not None:
            tracer.close(span)
            tracer.phase = phase
        return built

    def start(self) -> list:
        """The traced pass constructs under the tracer (that is where the
        T-CSR build shows), binds the last object and leaves the tracer
        uninstalled for the warm-up."""
        tracer = self.tracer
        if tracer is not None:
            tracer.install()
        objects = [self._once() for _ in range(SETUP_FIRST)]
        if tracer is not None:
            tracer.uninstall()
            tracer.bind(objects[-1])
            tracer.phase = "warmup"
        return objects

    def again(self) -> None:
        self._once()


def resolve(spec: dict, smoke: bool):
    """``(spec, TaserConfig kwargs)`` with the smoke overrides folded in."""
    spec = dict(spec)
    config = dict(MODEL, **spec["config"])
    if smoke:
        tiny = dict(spec["smoke"])
        config.update(tiny.pop("config", {}))
        spec.update(tiny)
    return spec, config


class Outcome:
    """What one pass of one workload measured."""

    def __init__(self, tracer: Optional[Tracer], smoke: bool) -> None:
        self.tracer = tracer
        self.end_to_end: Dict[str, dict] = {}
        self.per_layer: Dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.checks: Dict[str, bool] = {}
        self.digest = ""
        self.info: Dict[str, object] = {}
        #: raw per-op seconds behind the end-to-end timings, kept for --out.
        self.samples: Dict[str, List[float]] = {}
        self.calib_before = probe(15)
        self.quiet = QuietGate(patience=QUIET_PATIENCE_SMOKE if smoke
                               else QUIET_PATIENCE)
        self._gc0 = gc.get_stats()[2]["collections"]
        self.rss_after_warmup = 0.0
        self.warmup_s = 0.0

    def finish(self, setup: Setup, op_s, infer_s, mrr: float,
               events_per_op: float, traced_flags=None) -> None:
        """Fill the metrics every workload shares."""
        op_s = np.asarray(op_s, dtype=np.float64)
        flags = (np.zeros(op_s.size, dtype=bool) if traced_flags is None
                 else np.asarray(traced_flags, dtype=bool))
        self.samples.update(setup_s=list(setup.seconds), op_s=op_s.tolist(),
                            infer_s=list(infer_s))
        e2e = self.end_to_end
        e2e["setup_s"] = metric(np.median(setup.seconds), "s", len(setup.seconds))
        e2e["peak_rss_mb"] = metric(peak_rss_mb(), "MB")
        e2e["op_ms_p50"] = metric(ms(np.median(op_s)), "ms", op_s.size)
        e2e["infer_ms_p50"] = metric(ms(np.median(infer_s)), "ms", len(infer_s))
        self.checks["no_failed_ops"] = self.failed == 0
        self.info["quiet_wait_s"] = round(self.quiet.waited, 3)
        if self.tracer is None:
            return

        # Timing diagnostics come from the blocks that ran with the tracer
        # uninstalled; the traced blocks only say what tracing costs.
        plain, traced = op_s[~flags], op_s[flags]
        layer = self.per_layer
        layer["eval.mrr"] = metric(mrr, "1")
        p50 = float(np.median(plain))
        layer["proc.op_ms_mean"] = metric(ms(plain.mean()), "ms", plain.size)
        layer["proc.op_ms_p90"] = metric(ms(pct(plain, 90)), "ms", plain.size)
        layer["proc.slow_op_frac"] = metric(float((plain > 2 * p50).mean()),
                                            "1", plain.size)
        layer["proc.events_per_s_mean"] = metric(
            events_per_op * plain.size / plain.sum(), "1/s", plain.size)
        layer["proc.rss_growth_mb"] = metric(
            peak_rss_mb() - self.rss_after_warmup, "MB")
        layer["proc.gc_gen2_collections"] = metric(
            gc.get_stats()[2]["collections"] - self._gc0, "count")
        layer["proc.warmup_s"] = metric(self.warmup_s, "s")
        layer["trace.overhead_frac"] = metric(
            float(np.median(traced)) / p50 - 1.0 if traced.size else None,
            "1", traced.size)
        layer["trace.spans"] = metric(len(self.tracer.spans), "count")
        layer["host.calib_ms_before"] = metric(self.calib_before, "ms")
        layer["host.calib_ms_after"] = metric(probe(15), "ms")
        layer["host.quiet_wait_s"] = metric(self.quiet.waited, "s")
        problems = self.tracer.check()
        self.checks["trace_sound"] = not problems
        if problems:
            self.info["trace_problems"] = problems


def layer_metrics(tracer: Tracer, op: str, phases, training: bool = True
                  ) -> Dict[str, dict]:
    """Per-op layer times and counts of the traced ``op`` spans in ``phases``;
    ``training`` adds the layers only a training loop runs.

    A span or count that never occurred yields ``None`` (never 0): the caller
    decides whether that layer was supposed to run.
    """
    seconds = tracer.layer_seconds(op, phases)
    ops = int(seconds.get("__ops__", 0))
    wall = seconds.get("__wall__", 0.0)

    def per_op(*names):
        present = [n for n in names if n in seconds]
        return metric(ms(sum(seconds[n] for n in present) / ops)
                      if present and ops else None, "ms", ops)

    def count_per_op(key, unit="count", scale=1.0):
        total = tracer.total(key, phases)
        return metric(total * scale / ops if ops and total is not None else None,
                      unit, ops)

    def ratio(top, bottom, unit="1"):
        a, b = tracer.total(top, phases), tracer.total(bottom, phases)
        return metric(a / b if a is not None and b else None, unit, b or 0)

    prep = ("core.prep", "sampling.sample", "device.gather", "eval.negatives",
            "core.engine_wait", "core.selector")
    glue = seconds.get(op, 0.0) + (seconds.get(STEP, 0.0) if op != STEP else 0.0)
    out = {
        "sampling.sample_ms_per_op": per_op("sampling.sample"),
        "sampling.calls_per_op": count_per_op("sampling.calls"),
        "sampling.roots_per_op": count_per_op("sampling.roots"),
        "device.gather_ms_per_op": per_op("device.gather"),
        "device.ids_requested_per_op": count_per_op("device.ids_requested"),
        "device.ids_unique_per_op": count_per_op("device.ids_unique"),
        "device.dedup_ratio": ratio("device.ids_requested", "device.ids_unique"),
        "device.gather_mb_per_op": count_per_op("device.gather_bytes", "MB",
                                                1.0 / 2 ** 20),
        "core.prep_ms_per_op": per_op("core.prep"),
        "core.prep_share": metric(
            sum(seconds.get(n, 0.0) for n in prep) / wall if wall else None,
            "1", ops),
        "models.forward_ms_per_op": per_op("models.forward"),
        "models.roots_per_forward": ratio("models.roots", "models.forwards",
                                          "count"),
        "tensor.kernel_calls_per_op": count_per_op("tensor.kernel_calls"),
        "tensor.matmul_calls_per_op": count_per_op("tensor.matmul_calls"),
        "tensor.kernel_out_mb_per_op": count_per_op("tensor.kernel_out_bytes",
                                                    "MB", 1.0 / 2 ** 20),
        "trace.unattributed_frac": metric(glue / wall if wall else None, "1", ops),
    }
    if training:
        hits = tracer.total("device.cache_hits", phases) or 0
        lookups = hits + (tracer.total("device.cache_misses", phases) or 0)
        out.update({
            "core.engine_wait_ms_per_op": per_op("core.engine_wait"),
            "core.selector_ms_per_op": per_op("core.selector"),
            "eval.negatives_ms_per_op": per_op("eval.negatives"),
            "tensor.backward_ms_per_op": per_op("tensor.backward"),
            "optim.step_ms_per_op": per_op("optim.step"),
            "device.cache_hit_rate": metric(
                hits / lookups if lookups else None, "1", lookups),
        })
    return out


def setup_layer_metrics(tracer: Tracer) -> Dict[str, dict]:
    seconds = tracer.layer_seconds("setup")
    ops = int(seconds.get("__ops__", 0))
    graph = [v for k, v in seconds.items() if k.startswith("graph.")]
    return {"graph.tcsr_build_ms": metric(
        ms(sum(graph) / ops) if graph and ops else None, "ms", ops)}


def graph_write_metrics(tracer: Tracer, phases) -> Dict[str, dict]:
    """T-CSR writes between reads: append cost per event, snapshot median."""
    appends = tracer.durations("graph.append", phases)
    events = tracer.total("graph.events_appended", phases)
    snapshots = tracer.durations("graph.snapshot", phases)
    return {
        "graph.append_us_per_event": metric(
            sum(appends) * 1e6 / events if events else None, "us", events or 0),
        "graph.snapshot_ms_p50": metric(
            ms(np.median(snapshots)) if snapshots else None, "ms", len(snapshots)),
    }


# ---------------------------------------------------------------------------
# train_tgat_taser / train_mixer_baseline
# ---------------------------------------------------------------------------

TRAIN_SPECS = {
    # The paper's headline configuration: the only workload where the
    # adaptive sampler, its encoders and the sample loss run.
    "train_tgat_taser": dict(
        dataset="wikipedia", scale=1.0, epochs=5, min_epochs=5, evals=5,
        block=5, mrr_floor=0.10,
        # MRR over 100 edges has a standard deviation of 0.03 across seeds
        # around 0.19, too close to the floor for a check that must never
        # fail a sound run: one untimed evaluation over 300 edges decides.
        check_edges=300,
        config=dict(backbone="tgat", adaptive_minibatch=True,
                    adaptive_neighbor=True, batch_size=100,
                    max_batches_per_epoch=10, eval_max_edges=100),
        smoke=dict(scale=0.2, epochs=2, evals=2, block=1, check_edges=None,
                   config=dict(batch_size=30, max_batches_per_epoch=3,
                               eval_max_edges=15))),
    # The plain single-worker baseline: chronological selector, feature
    # cache on, no adaptive sampler — forward/backward on large arrays.
    "train_mixer_baseline": dict(
        dataset="reddit", scale=2.0, epochs=6, min_epochs=1, evals=5,
        block=8, mrr_floor=0.25, check_edges=None,
        config=dict(backbone="graphmixer", adaptive_minibatch=False,
                    adaptive_neighbor=False, batch_size=200),
        smoke=dict(scale=0.1, epochs=2, evals=2, block=2,
                   config=dict(batch_size=100, eval_max_edges=40))),
}


def run_train(name: str, seed: int, seconds: float, tracer: Optional[Tracer],
              smoke: bool) -> Outcome:
    spec, config = resolve(TRAIN_SPECS[name], smoke)
    epochs = (spec["epochs"] if smoke
              else scaled(spec["epochs"], seconds, spec["min_epochs"]))
    out = Outcome(tracer, smoke)
    deadline = _now() + 60.0 + 2.0 * seconds + QUIET_PATIENCE

    graph = load_dataset(spec["dataset"], scale=spec["scale"], seed=seed)
    cfg = TaserConfig(**config)
    setup = Setup(lambda: TaserTrainer(graph, cfg), tracer)
    trainer = setup.start()[-1]

    # One clock read per step, at the loop's request for the next batch; the
    # same boundary is where the traced pass switches the tracer on and off.
    engine = trainer.engine
    blocks = Blocks(tracer)
    marks: List[float] = []
    flags: List[bool] = []
    state = {"timed": False, "traced": False}

    def clocked_epoch(max_batches=None):
        toggling = state["timed"] and tracer is not None
        if toggling:
            tracer.install()        # so that the iterator is the traced one
        batches = iter(type(engine).epoch(engine, max_batches))
        if toggling and not state["traced"]:
            tracer.uninstall()
        while True:
            if state["timed"] and len(flags) % spec["block"] == 0:
                state["traced"] = blocks.next()
            marks.append(_now())
            try:
                prepared = next(batches)
            except StopIteration:
                return
            flags.append(state["traced"])
            yield prepared
    engine.epoch = clocked_epoch

    t0 = _now()
    trainer.train_epoch()
    out.warmup_s = _now() - t0
    out.rss_after_warmup = peak_rss_mb()

    # evaluate("test") runs after some of the timed epochs, not in one burst
    # at the end: the host has slow spells of seconds, and samples spread over
    # the whole run see them in proportion.
    evals = min(spec["evals"], epochs)
    eval_after = {int(round((i + 1) * epochs / evals)) for i in range(evals)}
    if tracer is not None and evals < 2:
        raise ValueError("the traced pass needs a traced and a plain evaluate")
    eval_blocks = Blocks(tracer)
    step_s: List[float] = []
    losses: List[float] = []
    eval_s: List[float] = []
    eval_traced: List[bool] = []
    mrrs: List[float] = []
    state["timed"] = True
    del flags[:]
    for epoch in range(1, epochs + 1):
        if _now() > deadline:
            out.info["truncated"] = True
            break
        if tracer is not None:
            tracer.phase = "timed"
        out.quiet.wait()
        del marks[:]
        stats = trainer.train_epoch()
        step_s.extend(np.diff(marks))
        losses.extend(stats.batch_losses)
        setup.again()
        if epoch in eval_after:
            if tracer is not None:
                tracer.phase = "eval"
            eval_traced.append(eval_blocks.next())
            out.quiet.wait()
            t0 = _now()
            report = trainer.evaluate("test")
            eval_s.append(_now() - t0)
            mrrs.append(float(report["mrr"]))
    step_traced = list(flags)
    if tracer is not None:
        tracer.uninstall()
    if spec["check_edges"]:
        mrrs.append(float(trainer.evaluate(
            "test", max_edges=spec["check_edges"])["mrr"]))
    out.attempted += len(losses) + len(mrrs)
    out.failed += int(np.sum(~np.isfinite(losses)) + np.sum(~np.isfinite(mrrs)))

    mrr = mrrs[-1]
    out.digest = digest_of(losses, mrrs)
    out.checks["mrr_floor"] = smoke or mrr >= spec["mrr_floor"]
    out.checks["not_truncated"] = "truncated" not in out.info
    out.info.update(steps=len(step_s), epochs=epochs, test_mrr=mrr,
                    final_loss=losses[-1] if losses else None,
                    engine=trainer.engine.effective_mode,
                    array_backend=trainer.array_backend.name,
                    prep_backend=trainer.prep.name,
                    precision=trainer.precision.tier)
    plain_eval = [s for s, t in zip(eval_s, eval_traced) if not t]
    out.finish(setup, step_s, plain_eval, mrr,
               events_per_op=cfg.batch_size, traced_flags=step_traced)
    if tracer is None:
        return out

    layer = out.per_layer
    timed = ("timed",)
    layer.update(setup_layer_metrics(tracer))
    layer.update(layer_metrics(tracer, STEP, timed))
    if cfg.adaptive_neighbor:
        by = tracer.layer_seconds(STEP, timed)
        steps = int(by.get("__ops__", 0))
        for key in ("core.as_forward", "core.as_backward"):
            layer[f"{key}_ms_per_op"] = metric(
                ms(by[key] / steps) if key in by and steps else None, "ms", steps)
        layer["core.as_share"] = metric(
            (by.get("core.as_forward", 0.0) + by.get("core.as_backward", 0.0))
            / by["__wall__"] if steps else None, "1", steps)
        candidates = tracer.total("core.as_candidates", timed)
        layer["core.as_candidates_per_op"] = metric(
            candidates / steps if candidates and steps else None, "count", steps)
    evals = tracer.layer_seconds("eval.evaluate", ("eval",))
    eval_wall = evals.get("__wall__", 0.0)
    edges = min(cfg.eval_max_edges, trainer.split.num_test)
    layer["eval.edges_per_s"] = metric(
        edges / float(np.median(plain_eval)), "1/s", len(plain_eval))
    layer["eval.prep_share"] = metric(
        sum(evals.get(n, 0.0) for n in ("core.prep", "sampling.sample",
                                        "device.gather", "eval.negatives"))
        / eval_wall if eval_wall else None, "1", int(evals.get("__ops__", 0)))
    return out


# ---------------------------------------------------------------------------
# stream_prequential
# ---------------------------------------------------------------------------

STREAM_SPEC = dict(
    dataset="wikipedia", scale=4.0, warm_fraction=0.3, chunk=200, window=400,
    prequential_max_events=256, untimed_cycles=4, cycles=80, min_cycles=50,
    setup_every=10, gate_every=5, mrr_floor=0.15,
    config=dict(backbone="graphmixer", adaptive_minibatch=False,
                adaptive_neighbor=False, batch_size=200),
    smoke=dict(scale=0.4, untimed_cycles=1, cycles=6, chunk=100, window=200,
               setup_every=2, gate_every=2))


def run_stream(name: str, seed: int, seconds: float, tracer: Optional[Tracer],
               smoke: bool) -> Outcome:
    spec, config = resolve(STREAM_SPEC, smoke)
    cycles = (spec["cycles"] if smoke
              else scaled(spec["cycles"], seconds, spec["min_cycles"]))
    out = Outcome(tracer, smoke)
    deadline = _now() + 60.0 + 2.0 * seconds + QUIET_PATIENCE

    graph = load_dataset(spec["dataset"], scale=spec["scale"], seed=seed)
    cfg = TaserConfig(**config)
    warm_events = int(graph.num_edges * spec["warm_fraction"])
    warm, stream = split_warmup(graph, warmup_events=warm_events,
                                chunk_size=spec["chunk"],
                                max_chunks=spec["untimed_cycles"] + cycles)
    source = {"graph": warm}
    setup = Setup(
        lambda: StreamingTrainer(
            source["graph"], cfg, window_events=spec["window"],
            prequential_max_events=spec["prequential_max_events"]), tracer)
    trainer = setup.start()[-1]
    # Ingestion grows ``warm`` in place: the constructions that happen during
    # the run get a pristine copy of the same prefix.
    source["graph"] = split_warmup(graph, warmup_events=warm_events)[0]

    blocks = Blocks(tracer)
    cycle_s: List[float] = []
    cycle_traced: List[bool] = []
    traced = False
    t_warm = _now()
    trainer.train_epoch()
    for index, chunk in enumerate(stream):
        timed = index >= spec["untimed_cycles"]
        if index == spec["untimed_cycles"]:
            out.warmup_s = _now() - t_warm
            out.rss_after_warmup = peak_rss_mb()
            if tracer is not None:
                tracer.phase = "timed"
        if timed and _now() > deadline:
            out.info["truncated"] = True
            break
        if timed:
            if len(cycle_s) % spec["gate_every"] == 0:
                out.quiet.wait()
            traced = blocks.next()
        span = tracer.open("cycle") if traced else None
        t0 = _now()
        stats = trainer.step(chunk, train_passes=1)
        elapsed = _now() - t0
        if span is not None:
            tracer.close(span)
        if timed:
            cycle_s.append(elapsed)
            cycle_traced.append(traced)
            if len(cycle_s) % spec["setup_every"] == 0:
                setup.again()
            batch_losses = [l for s in stats.train_stats for l in s.batch_losses]
            out.attempted += 1
            out.failed += int(not (np.isfinite(stats.prequential_mrr)
                                   and np.all(np.isfinite(batch_losses))))
    if tracer is not None:
        tracer.uninstall()

    result = trainer.result()
    history = result.history[spec["untimed_cycles"]:]
    mrr = float(result.prequential_mrr)
    out.digest = digest_of(
        result.mrr_over_time,
        [l for h in result.history for s in h.train_stats for l in s.batch_losses])
    out.checks["mrr_floor"] = smoke or mrr >= spec["mrr_floor"]
    out.checks["not_truncated"] = "truncated" not in out.info
    out.info.update(cycles=len(cycle_s), prequential_mrr=mrr,
                    events_ingested=result.events_ingested,
                    array_backend=trainer.array_backend.name,
                    prep_backend=trainer.prep.name)
    plain = ~np.asarray(cycle_traced, dtype=bool)
    score_s = [h.eval_seconds for h, keep in zip(history, plain) if keep]
    out.finish(setup, cycle_s, score_s, mrr,
               events_per_op=spec["chunk"], traced_flags=cycle_traced)
    if tracer is None:
        return out

    layer = out.per_layer
    layer.update(setup_layer_metrics(tracer))
    timed = ("timed",)
    layer.update(layer_metrics(tracer, "cycle", timed))
    layer.update(graph_write_metrics(tracer, timed))
    for key, field in (("core.stream_eval", "eval_seconds"),
                       ("core.stream_ingest", "ingest_seconds"),
                       ("core.stream_train", "train_seconds")):
        values = [getattr(h, field) for h, keep in zip(history, plain) if keep]
        layer[f"{key}_ms_p50"] = metric(ms(np.median(values)), "ms", len(values))
    return out


# ---------------------------------------------------------------------------
# serve_openloop
# ---------------------------------------------------------------------------

SERVE_SPEC = dict(
    dataset="wikipedia", warm_fraction=0.6, max_batch=32, queue_depth=4096,
    per_event=5, ingest_block=100, replay_queries=2000,
    # (name, queries per second, share of --seconds); then the closed loop.
    # The host has slow spells of seconds, so the phases come in rounds:
    # every phase's samples are spread over the whole run.
    phases=(("r2000", 2000.0, 0.75), ("r8000", 8000.0, 0.125)),
    full_queries_per_second=2000, full_chunk=1600, rounds=10, slices=2,
    mrr_floor=0.5,
    config=dict(backbone="graphmixer", adaptive_minibatch=False,
                adaptive_neighbor=False, batch_size=200,
                max_batches_per_epoch=20),
    smoke=dict(seconds=1.6, replay_queries=200, full_chunk=320, rounds=2,
               config=dict(batch_size=100, max_batches_per_epoch=5)))


def run_serve(name: str, seed: int, seconds: float, tracer: Optional[Tracer],
              smoke: bool) -> Outcome:
    spec, config = resolve(SERVE_SPEC, smoke)
    seconds = spec.get("seconds", seconds)
    out = Outcome(tracer, smoke)
    per_event, block = spec["per_event"], spec["ingest_block"]

    # -- load generator: dataset, warm model, query stream, arrival schedule --
    rounds = spec["rounds"]
    plan = []          # (phase, rate, events per round)
    for phase, rate, share in spec["phases"]:
        events = int(rate * share * seconds / per_event / rounds) // block * block
        plan.append((phase, rate, max(block, events)))
    chunk_events = spec["full_chunk"] // per_event
    full_chunks = max(1, int(round(spec["full_queries_per_second"] * seconds
                                   / spec["full_chunk"] / rounds)))
    needed = rounds * (sum(p[2] for p in plan) + full_chunks * chunk_events)
    base_events = 6000          # wikipedia at scale 1.0
    scale = needed / (1.0 - spec["warm_fraction"]) / base_events * 1.01 + 0.01
    graph = load_dataset(spec["dataset"], scale=scale, seed=seed)
    if not graph.is_chronological:
        graph = graph.sort_by_time()
    warm_events = graph.num_edges - needed
    warm = graph.select_events(np.arange(warm_events))
    cfg = TaserConfig(**config)
    t0 = _now()
    trainer = TaserTrainer(warm, cfg)
    trainer.train_epoch()
    out.info["warm_train_s"] = _now() - t0

    rng = np.random.default_rng([seed, 0x5e7e])
    nodes = warm.num_nodes
    suffix = np.arange(warm_events, graph.num_edges)
    src = graph.src[suffix] % nodes
    ts = graph.ts[suffix]
    dst = np.concatenate([(graph.dst[suffix] % nodes)[:, None],
                          rng.integers(0, nodes, (suffix.size, per_event - 1))],
                         axis=1)

    def queries_of(lo: int, hi: int) -> List[LinkQuery]:
        return [LinkQuery(int(src[e]), int(d), float(ts[e]))
                for e in range(lo, hi) for d in dst[e]]

    def build():
        return ServeEngine.from_trainer(
            trainer, max_batch=spec["max_batch"],
            queue_depth=spec["queue_depth"], staleness_time=0.0)

    setup = Setup(build, tracer)
    engines = setup.start()

    # Warm-up doubles as the replay contract: two fresh engines serve the
    # same first queries and must return bitwise-equal scores.  In the traced
    # pass the second one runs under the wrappers, so equality also shows
    # that they do not perturb the program.
    t0 = _now()
    replay = queries_of(0, spec["replay_queries"] // per_event)
    hashes = [scores_hash(engines[0].serve(replay))]
    if tracer is not None:
        tracer.install()
    hashes.append(scores_hash(engines[1].serve(replay)))
    if tracer is not None:
        tracer.uninstall()
    out.checks["replay_hash_equal"] = hashes[0] == hashes[1]
    engine = engines[-1]
    del engines
    out.warmup_s = _now() - t0
    out.rss_after_warmup = peak_rss_mb()

    # One clock read either side of every flush, wherever it is called from.
    flushes: List[tuple] = []       # (start, end, results, phase, traced)
    state = {"phase": "warmup", "traced": False}

    def clocked_flush():
        f0 = _now()
        results = type(engine).flush(engine)
        flushes.append((f0, _now(), len(results), state["phase"], state["traced"]))
        return results
    engine.flush = clocked_flush

    all_scores = np.full((suffix.size, per_event), np.nan)
    latency: Dict[str, list] = {p[0]: [] for p in plan}
    waits: Dict[str, list] = {p[0]: [] for p in plan}
    lags: List[np.ndarray] = []
    ingest_s: List[float] = []
    blocks = Blocks(tracer)

    def record(results, first_event: int, first_seq: int) -> None:
        for r in results:
            local = r.seq - first_seq
            ok = r.status == "ok" and r.score is not None and 0.0 <= r.score <= 1.0
            out.attempted += 1
            if ok:
                all_scores[first_event + local // per_event,
                           local % per_event] = r.score
            else:
                out.failed += 1

    def enter(phase: str) -> None:
        state["phase"] = phase
        if tracer is not None:
            tracer.phase = phase

    def open_loop(phase: str, rate: float, first: int, events: int) -> None:
        """Poisson arrivals at ``rate``: a single-threaded driver submits every
        query whose due time has passed, then flushes whatever is pending
        (sleeping only when nothing is due); after every ``block`` events'
        queries are answered it ingests those events.  Latency is completion
        minus *due* time, so a stall is charged to the queries behind it."""
        queries = queries_of(first, first + events)
        count = len(queries)
        due = np.cumsum(rng.exponential(1.0 / rate, count))
        lat, wait, lag = np.zeros(count), np.zeros(count), np.zeros(count)
        first_seq = engine.serve_stats.submitted
        enter(phase)
        sent = done = ingested = 0
        slice_seconds = due[-1] / spec["slices"]
        slice_index = -1
        start = _now()
        while done < count:
            t = _now() - start
            if int(t / slice_seconds) != slice_index:
                slice_index = int(t / slice_seconds)
                state["traced"] = blocks.next()
            upto = int(np.searchsorted(due, t, side="right"))
            for q in range(sent, upto):
                immediate = engine.submit(queries[q])
                if immediate is not None:
                    record([immediate], first, first_seq)
                    done += 1
            lag[sent:upto] = t - due[sent:upto]
            sent = upto
            if sent > done:
                results = engine.flush()
                f0, f1 = flushes[-1][0] - start, flushes[-1][1] - start
                record(results, first, first_seq)
                for r in results:
                    lat[r.seq - first_seq] = f1 - due[r.seq - first_seq]
                    wait[r.seq - first_seq] = f0 - due[r.seq - first_seq]
                done += len(results)
                while (ingested + 1) * block * per_event <= done:
                    lo = suffix[first + ingested * block]
                    hi = lo + block
                    i0 = _now()
                    engine.ingest(graph.src[lo:hi] % nodes,
                                  graph.dst[lo:hi] % nodes, graph.ts[lo:hi],
                                  None if graph.edge_feat is None
                                  else graph.edge_feat[lo:hi])
                    ingest_s.append(_now() - i0)
                    ingested += 1
            else:
                time.sleep(max(0.0, due[sent] - (_now() - start)))
        latency[phase].append(lat)
        waits[phase].append(wait)
        lags.append(lag)

    cursor = 0
    full_wall = 0.0
    full_served = 0
    full_events: List[int] = []
    for _ in range(rounds):
        out.quiet.wait()
        for phase, rate, events in plan:
            open_loop(phase, rate, cursor, events)
            cursor += events
        # Closed loop, one client: the next chunk goes in when the last is done.
        enter("full")
        t0 = _now()
        for _ in range(full_chunks):
            state["traced"] = blocks.next()
            queries = queries_of(cursor, cursor + chunk_events)
            first_seq = engine.serve_stats.submitted
            record(engine.serve(queries), cursor, first_seq)
            full_events.extend(range(cursor, cursor + chunk_events))
            full_served += len(queries)
            cursor += chunk_events
        full_wall += _now() - t0
        setup.again()
    if tracer is not None:
        tracer.uninstall()
    latency = {k: np.concatenate(v) for k, v in latency.items()}
    waits = {k: np.concatenate(v) for k, v in waits.items()}

    # -- metrics ---------------------------------------------------------------
    scored = ~np.isnan(all_scores).any(axis=1)
    ranks = 1 + (all_scores[scored, 1:] > all_scores[scored, :1]).sum(axis=1)
    mrr = float((1.0 / ranks).mean())
    # Open-loop scores depend on which ingests had landed when a flush ran,
    # which is timing; the replay and the closed loop (all ingests done, exact
    # cache) are deterministic up to BLAS blocking in the last bits.
    out.digest = digest_of([int(hashes[0], 16)],
                           np.round(all_scores[full_events], 6))
    out.checks["mrr_floor"] = smoke or mrr >= spec["mrr_floor"]
    out.checks["all_answered"] = bool(scored.all())

    def flush_s(phase, traced=False, full_only=False):
        return [f[1] - f[0] for f in flushes
                if f[3] == phase and f[4] == traced
                and (not full_only or f[2] == spec["max_batch"])]

    main = plan[0][0]
    flags = [f[4] for f in flushes if f[3] == main]
    main_flush = [f[1] - f[0] for f in flushes if f[3] == main]
    full_flush = flush_s("full", full_only=True)
    stats = engine.stats()
    # Which queries share a flush is timing, so counts per flush and the
    # open-loop scores do not repeat exactly; only the digest does.
    out.info.update(exact_counts=False,
                    served=stats["served"], flushes=stats["flushes"],
                    serve_mrr=mrr, scale=scale,
                    array_backend=stats["array_backend"],
                    prep_backend=stats["prep_backend"])
    out.finish(setup, main_flush, full_flush, mrr,
               events_per_op=float(np.mean([f[2] for f in flushes
                                            if f[3] == main])),
               traced_flags=flags)
    # What a client sees is a query's latency from its due time, not a flush.
    out.samples["flush_s"] = out.samples["op_s"]
    out.samples["op_s"] = latency[main].tolist()
    out.end_to_end["op_ms_p50"] = metric(
        ms(np.median(latency[main])), "ms", latency[main].size)
    if tracer is None:
        return out

    layer = out.per_layer
    layer.update(setup_layer_metrics(tracer))
    layer.update(layer_metrics(tracer, "serve.flush", (main,), training=False))
    layer.update(graph_write_metrics(tracer, [p[0] for p in plan]))
    by = tracer.layer_seconds("serve.flush", (main,))
    ops = int(by.get("__ops__", 0))

    def per_flush(*names):
        present = [n for n in names if n in by]
        return metric(ms(sum(by[n] for n in present) / ops)
                      if present and ops else None, "ms", ops)

    layer["serve.self_ms_per_flush"] = per_flush("serve.flush")
    layer["serve.prep_ms_per_flush"] = per_flush(
        "core.prep", "sampling.sample", "device.gather")
    layer["serve.model_ms_per_flush"] = per_flush("models.forward")
    layer["serve.embcache_ms_per_flush"] = per_flush("serve.embcache")
    endpoints = stats["embeddings_reused"] + stats["embeddings_computed"]
    layer["serve.embcache_hit_rate"] = metric(
        stats["embeddings_reused"] / endpoints, "1", endpoints)
    layer["serve.unique_endpoints_per_query"] = metric(
        stats["embeddings_computed"] / stats["served"], "count", stats["served"])
    layer["serve.ingest_ms_p50"] = metric(ms(np.median(ingest_s)), "ms",
                                          len(ingest_s))
    layer["serve.capacity_qps"] = metric(
        spec["max_batch"] / float(np.median(full_flush)), "1/s", len(full_flush))
    layer["serve.closed_loop_qps"] = metric(full_served / full_wall, "1/s",
                                            full_served)
    layer[f"serve.flush_ms_p50.full"] = metric(
        ms(np.median(full_flush)), "ms", len(full_flush))
    for phase, _, _ in plan:
        plain = flush_s(phase)
        sizes = [f[2] for f in flushes if f[3] == phase]
        lat = latency[phase]
        layer[f"serve.flush_ms_p50.{phase}"] = metric(
            ms(np.median(plain)), "ms", len(plain))
        layer[f"serve.batch_mean.{phase}"] = metric(np.mean(sizes), "count",
                                                    len(sizes))
        layer[f"serve.queue_wait_ms_p50.{phase}"] = metric(
            ms(np.median(waits[phase])), "ms", lat.size)
        layer[f"serve.lat_ms_p50.{phase}"] = metric(ms(np.median(lat)), "ms",
                                                    lat.size)
        layer[f"serve.lat_ms_p95.{phase}"] = metric(ms(pct(lat, 95)), "ms",
                                                    lat.size)
    layer[f"serve.lat_ms_p99.{main}"] = metric(ms(pct(latency[main], 99)), "ms",
                                               latency[main].size)
    all_lag = np.concatenate(lags)
    layer["serve.gen_lag_ms_p95"] = metric(ms(pct(all_lag, 95)), "ms",
                                           all_lag.size)
    return out


RUNNERS = {"train_tgat_taser": run_train, "train_mixer_baseline": run_train,
           "stream_prequential": run_stream, "serve_openloop": run_serve}
