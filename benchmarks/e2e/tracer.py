"""Outside-in tracer for the end-to-end benchmark's traced pass.

The program under ``src/repro`` is not edited: for the traced pass only, this
module replaces the public callables at each layer boundary (on their classes,
their modules, or — for the array backend's kernels — the active backend
instance) with wrappers that record one span per call.  Spans live in memory
(``[name, start, end, parent, phase]``, parent taken from a stack) and are
written as a Chrome trace when the run ends.  A layer's *self time* is its
span's duration minus the part its direct children cover, so layer times are
additive and whatever no wrapper covers shows up as the op's own self time
(``trace.unattributed_frac``).

``install()`` / ``uninstall()`` are cheap attribute swaps, so a workload
alternates traced and untraced blocks of ops inside one process and reads the
tracing overhead off the same host state.
"""

from __future__ import annotations

import inspect
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Union

_MISSING = object()
_now = time.perf_counter

#: span of one training step: opened by the traced ``engine.epoch`` iterator
#: when the loop asks for a batch, closed when it asks for the next one.
STEP = "core.train_step"

#: array-backend attributes that are lifecycle hooks, not kernels.
_BACKEND_LIFECYCLE = {"begin_batch", "workspace_snapshot", "new_arena",
                      "arena_scope", "arena_stats"}


def _subclass_tree(base: type) -> List[type]:
    seen, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


class Tracer:
    """Span recorder plus the set of patches that feed it."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1, phase]`` per span.
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: event/byte/call counts taken at the same boundaries as the spans,
        #: keyed ``(phase, name)``.
        self.counts: Counter = Counter()
        #: label stamped on every span and count (``setup``, ``timed`` ...).
        self._phase = "setup"
        #: kernel calls / matmul calls / output bytes since the last fold: the
        #: kernel wrappers are the hottest, so they bump a list, not a dict.
        self._kernels = [0, 0, 0]
        #: ``(owner, attribute, wrapper)`` triples; ``_saved`` while installed.
        self._patches: List[tuple] = []
        self._saved: List[object] = []
        self.installed = False
        #: the constructed program object (trainer / engine), bound late so
        #: wrappers can tell the sampler's optimiser from the model's.
        self.program = None
        self._sample_loss_id: Optional[int] = None

    @property
    def phase(self) -> str:
        return self._phase

    @phase.setter
    def phase(self, name: str) -> None:
        self._fold_kernels()
        self._phase = name

    def _fold_kernels(self) -> None:
        for key, amount in zip(("tensor.kernel_calls", "tensor.matmul_calls",
                                "tensor.kernel_out_bytes"), self._kernels):
            if amount:
                self.counts[self._phase, key] += amount
        self._kernels[:] = [0, 0, 0]

    # -- spans -----------------------------------------------------------------

    def open(self, name: str) -> int:
        stack = self._stack
        index = len(self.spans)
        self.spans.append([name, _now(), 0.0, stack[-1] if stack else -1,
                           self._phase])
        stack.append(index)
        return index

    def count(self, key: str, amount=1) -> None:
        self.counts[self._phase, key] += amount

    def total(self, key: str, phases: Optional[Iterable[str]] = None):
        """Summed count of ``key`` over ``phases`` (all phases when None);
        ``None`` when it was never counted there."""
        self._fold_kernels()
        keep = None if phases is None else set(phases)
        found = [v for (phase, k), v in self.counts.items()
                 if k == key and (keep is None or phase in keep)]
        return sum(found) if found else None

    def close(self, index: int) -> None:
        self.spans[index][2] = _now()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of "
                               f"order (top was {self.spans[popped][0]!r})")

    def wrap(self, orig: Callable, name: Union[str, Callable],
             after: Optional[Callable] = None) -> Callable:
        """A wrapper recording one span per call of ``orig``.

        ``name`` is the span name or a function of the call's positional
        arguments returning it; ``after(args, kwargs, result)`` runs once the
        span is closed (counts are taken there, outside the timed interval).
        """
        tracer = self
        main = threading.get_ident()

        def traced(*args, **kwargs):
            # The span stack is the main thread's; work a worker thread does
            # shows up as the main thread's wait, not as spans.
            if threading.get_ident() != main:
                return orig(*args, **kwargs)
            index = tracer.open(name if isinstance(name, str) else name(args))
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = orig
        return traced

    # -- patch registry --------------------------------------------------------

    def patch(self, owner, attr: str, name, after=None, static=False) -> None:
        """Register ``owner.attr`` (class, module or instance) for tracing."""
        wrapper = self.wrap(getattr(owner, attr), name, after)
        self._patches.append((owner, attr,
                              staticmethod(wrapper) if static else wrapper))

    def patch_tree(self, base: type, attr: str, name, after=None) -> None:
        """Patch ``attr`` on every class under ``base`` that defines it."""
        for cls in _subclass_tree(base):
            if attr in cls.__dict__:
                self.patch(cls, attr, name, after)

    def install(self) -> None:
        if self.installed:
            return
        self._saved = []
        for owner, attr, wrapper in self._patches:
            self._saved.append(vars(owner).get(attr, _MISSING))
            setattr(owner, attr, wrapper)
        self.installed = True

    def uninstall(self) -> None:
        if not self.installed:
            return
        for (owner, attr, _), saved in zip(reversed(self._patches),
                                           reversed(self._saved)):
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)
        self.installed = False

    # -- the program's layer boundaries ----------------------------------------

    def patch_program(self) -> None:
        """Register every layer boundary of ``repro`` (needs no instance)."""
        from repro.core import (minibatch_selector, neighbor_sampler, pipeline,
                                prefetcher, prep, streaming)
        from repro.core import trainer as trainer_mod
        from repro.device import cache as device_cache
        from repro.device import memory
        from repro.eval import evaluator, negative_sampling
        from repro.graph import tcsr, temporal_graph
        from repro.models import base as models_base
        from repro.models import edge_predictor
        from repro.optim import optimizers
        from repro.sampling import base as sampling_base
        from repro.serve import cache as serve_cache
        from repro.serve import engine as serve_engine
        from repro.tensor import functional
        from repro.tensor import tensor as tensor_mod

        count = self.count

        # graph ---------------------------------------------------------------
        # Importers hold ``build_tcsr`` by name, so patch their namespaces too.
        for module in (tcsr, trainer_mod):
            self.patch(module, "build_tcsr", "graph.tcsr_build")
        self.patch(tcsr.StreamingTCSR, "from_graph", "graph.tcsr_build",
                   static=True)
        self.patch(tcsr.StreamingTCSR, "snapshot", "graph.snapshot")

        def appended(args, kwargs, result):
            count("graph.events_appended", int(len(args[1])))
        self.patch(tcsr.StreamingTCSR, "append", "graph.append", appended)
        self.patch(temporal_graph.TemporalGraph, "append_events", "graph.append")

        # sampling ------------------------------------------------------------
        def sampled(args, kwargs, result):
            count("sampling.calls", 1)
            count("sampling.roots", int(len(args[1])))
        self.patch_tree(sampling_base.NeighborFinder, "sample",
                        "sampling.sample", sampled)

        # device --------------------------------------------------------------
        def gather(orig, row_bytes_of=None):
            def counted(store, *args, **kwargs):
                stats = store.stats
                before = (stats.ids_requested, stats.ids_unique,
                          stats.cache_hits, stats.cache_misses)
                result = orig(store, *args, **kwargs)
                unique = stats.ids_unique - before[1]
                count("device.ids_requested", stats.ids_requested - before[0])
                count("device.ids_unique", unique)
                count("device.cache_hits", stats.cache_hits - before[2])
                count("device.cache_misses", stats.cache_misses - before[3])
                if row_bytes_of is not None:
                    count("device.gather_bytes", unique * row_bytes_of(store))
                return result
            return counted

        store = memory.FeatureStore
        self._patches.append((store, "slice_edge_features", self.wrap(
            gather(store.slice_edge_features, lambda s: s.edge_bytes_per_row),
            "device.gather")))
        self._patches.append((store, "slice_node_features", self.wrap(
            gather(store.slice_node_features), "device.gather")))
        self.patch_tree(device_cache.FeatureCache, "grow", "device.cache_grow")

        # core: prep runtime, engines, selector, negatives ----------------------
        for attr in ("assemble_train", "assemble_eval", "finish",
                     "prepare_train", "prepare_eval"):
            self.patch_tree(prep.PrepPipeline, attr, "core.prep")
        for attr in ("build", "layer_candidates", "slice_root_features"):
            self.patch(pipeline.MiniBatchGenerator, attr, "core.prep")
        for cls in _subclass_tree(prefetcher.BatchEngine):
            if "epoch" in cls.__dict__:
                self._patches.append((cls, "epoch",
                                      self._traced_epoch(cls.epoch)))
        for attr in ("update", "sample_batch"):
            self.patch_tree(minibatch_selector.MiniBatchSelector, attr,
                            "core.selector")
        for attr in ("sample", "sample_matrix"):
            self.patch(negative_sampling.NegativeSampler, attr, "eval.negatives")

        # core: adaptive sampler -------------------------------------------------
        def selected(args, kwargs, result):
            count("core.as_candidates", int(args[1].nodes.size))
        self.patch(neighbor_sampler.AdaptiveNeighborSampler, "forward",
                   "core.as_forward", selected)

        def sample_loss_built(args, kwargs, result):
            self._sample_loss_id = None if result is None else id(result)
        self.patch(trainer_mod, "build_sample_loss", "core.as_backward",
                   sample_loss_built)

        # models / tensor / optim ------------------------------------------------
        def embedded(args, kwargs, result):
            count("models.forwards", 1)
            count("models.roots", int(args[1].root_nodes.size))
        self.patch_tree(models_base.TGNNBackbone, "embed", "models.forward",
                        embedded)
        self.patch(edge_predictor.EdgePredictor, "forward", "models.forward")
        for attr in ("binary_cross_entropy_with_logits", "sigmoid"):
            self.patch(functional, attr, "models.forward")

        def backward_name(args):
            return ("core.as_backward" if id(args[0]) == self._sample_loss_id
                    else "tensor.backward")
        self.patch(tensor_mod.Tensor, "backward", backward_name)

        def optimizer_name(args):
            # ``args[0]`` is the optimiser (zero_grad/step) or its parameter
            # list (clip_grad_norm); the sampler's belong to the AS update.
            sampler_opt = getattr(self.program, "sampler_optimizer", None)
            mine = sampler_opt is not None and (
                args[0] is sampler_opt or args[0] is sampler_opt.params)
            return "core.as_backward" if mine else "optim.step"
        for attr in ("zero_grad", "step"):
            self.patch_tree(optimizers.Optimizer, attr, optimizer_name)
        self.patch(trainer_mod, "clip_grad_norm", optimizer_name)

        # eval / stream / serve ---------------------------------------------------
        self.patch(evaluator.LinkPredictionEvaluator, "evaluate", "eval.evaluate")
        self.patch(streaming.StreamingTrainer, "prequential_eval",
                   "core.stream_eval")
        self.patch(streaming.StreamingTrainer, "ingest", "core.stream_ingest")
        self.patch(streaming.StreamingTrainer, "train_epoch", "core.stream_train")

        self.patch(serve_engine.ServeEngine, "flush", "serve.flush")
        self.patch(serve_engine.ServeEngine, "ingest", "serve.ingest")
        for attr in ("lookup", "insert", "grow"):
            self.patch_tree(serve_cache.NodeEmbeddingCache, attr,
                            "serve.embcache")

    def bind(self, program) -> None:
        """Attach the constructed program and count its backend's kernels.

        Kernels get counting wrappers only (calls, matmuls, output bytes): a
        span per kernel would cost more than many of the kernels do.
        """
        self.program = program
        backend = program.array_backend
        kernels = self._kernels

        def counting(orig, is_matmul):
            def counted(*args, **kwargs):
                out = orig(*args, **kwargs)
                kernels[0] += 1
                if is_matmul:
                    kernels[1] += 1
                if type(out) is tuple:
                    for part in out:
                        kernels[2] += getattr(part, "nbytes", 0)
                else:
                    kernels[2] += getattr(out, "nbytes", 0)
                return out
            return counted

        was_installed = self.installed
        self.uninstall()
        for attr, _ in inspect.getmembers(type(backend), inspect.isfunction):
            if not attr.startswith("_") and attr not in _BACKEND_LIFECYCLE:
                self._patches.append((backend, attr, counting(
                    getattr(backend, attr), attr == "matmul")))
        if was_installed:
            self.install()

    def _traced_epoch(self, orig: Callable) -> Callable:
        """``engine.epoch`` whose iterator marks step and wait boundaries.

        Whether a step is recorded is decided when the loop asks for its
        batch, so a workload can switch the tracer on and off between the
        steps of one epoch.
        """
        tracer = self

        def epoch(engine, max_batches=None):
            batches = iter(orig(engine, max_batches))
            while True:
                on = tracer.installed
                if on:
                    step = tracer.open(STEP)
                    wait = tracer.open("core.engine_wait")
                try:
                    item = next(batches)
                except StopIteration:
                    # The loop asked once more than there were batches:
                    # that request is no step.
                    if on:
                        tracer.close(wait)
                        tracer.close(step)
                        del tracer.spans[step:]
                    return
                if on:
                    tracer.close(wait)
                try:
                    yield item
                finally:
                    if on:
                        tracer.close(step)

        epoch.__wrapped__ = orig
        return epoch

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> List[float]:
        """Self time of every span: duration minus its direct children's."""
        spans = self.spans
        own = [s[2] - s[1] for s in spans]
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def roots_of(self) -> List[int]:
        """Index of each span's outermost ancestor (itself for a root)."""
        roots: List[int] = []
        for index, span in enumerate(self.spans):
            parent = span[3]
            roots.append(index if parent < 0 else roots[parent])
        return roots

    def layer_seconds(self, op: str, phases: Optional[Iterable[str]] = None
                      ) -> Dict[str, float]:
        """Self seconds per span name, over the trees rooted at ``op`` spans.

        Returns the per-name totals plus ``"__wall__"`` (summed ``op`` span
        durations) and ``"__ops__"`` (their number).
        """
        spans, own, roots = self.spans, self.self_times(), self.roots_of()
        keep = None if phases is None else set(phases)
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, parent, phase) in enumerate(spans):
            root = spans[roots[index]]
            if root[0] != op or (keep is not None and root[4] not in keep):
                continue
            totals[name] += own[index]
            if parent < 0:
                totals["__wall__"] += end - start
                totals["__ops__"] += 1
        return totals

    def durations(self, name: str, phases: Optional[Iterable[str]] = None
                  ) -> List[float]:
        keep = None if phases is None else set(phases)
        return [s[2] - s[1] for s in self.spans
                if s[0] == name and (keep is None or s[4] in keep)]

    def check(self) -> List[str]:
        """Structural problems of the recorded spans (empty when sound)."""
        problems = []
        if self._stack:
            problems.append(f"{len(self._stack)} spans never closed")
        for (name, start, end, parent, _), own in zip(self.spans,
                                                      self.self_times()):
            if end < start:
                problems.append(f"span {name} ends before it starts")
            if parent >= 0:
                p = self.spans[parent]
                if start < p[1] or end > p[2]:
                    problems.append(f"span {name} leaves its parent {p[0]}")
            if own < -1e-6:
                problems.append(f"span {name} has negative self time {own}")
        return problems[:20]

    def write_chrome_trace(self, path: str) -> None:
        """Complete events (``ph: X``) in microseconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        roots = self.roots_of()
        events = [{"name": name, "ph": "X", "pid": 0, "tid": 0,
                   "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                   "args": {"id": index, "parent": parent, "root": roots[index],
                            "phase": phase}}
                  for index, (name, start, end, parent, phase)
                  in enumerate(self.spans)]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
