"""Pluggable gradient communication for the sharded trainer's barrier.

PR 3's barrier moved gradients the simplest way that could work: every
worker's :class:`~repro.distributed.worker.GradList` crosses the pool
boundary as a pickled list of arrays (both directions, every step), and the
master reduces them parameter-by-parameter in a Python loop
(:func:`average_gradients`).  That was fine at W = 1 and is the measured
bottleneck at scale — so this module makes the *gradient comms* a runtime
dimension of its own, selected exactly like the precision tier (flag > environment > default, through the shared
:class:`repro.core.registry.Registry`):

``pickle``
    The reference transport, byte-for-byte the PR 3 behaviour: grad lists
    travel through the worker pool's normal argument/result channel (pickled
    for the process pool), and the master reduces with
    :func:`average_gradients` — the semantics anchor.

``shm``
    Flat-bucket comms.  A :class:`GradientBucket` — a fixed layout computed
    once from the replica's parameter shapes — packs a ``GradList``
    (including its ``None`` mask) into **one contiguous buffer of the
    compute dtype** (float32: half the bytes per barrier float64 moved);
    the barrier reduction becomes ``W - 1`` vectorised adds plus one scale
    over that buffer instead of a per-parameter Python loop.  Process pools
    get a :class:`SharedMemoryComms` transport: per-worker
    ``multiprocessing.shared_memory`` segments plus one averaged segment per
    bucket, so children write gradients in place and read the average back
    with the pipe carrying only tiny control messages — no array pickling in
    either direction.  Thread/serial pools get :class:`InProcessComms`, the
    same bucket protocol over plain in-process numpy buffers (zero-copy by
    construction).

Bitwise contract
----------------
Both transports produce **bitwise-identical** loss/MRR trajectories at every
worker count and pool backend.  The reduction accumulates contributions in
fixed shard order in both paths; inside the flat buffer, parameters that a
worker reported as ``None`` are packed as ``-0.0`` — the exact additive
identity of IEEE-754 round-to-nearest (``-0.0 + x == x`` bit for bit for
every ``x``, including ``-0.0`` itself) — so the element-wise flat sum
reproduces :func:`average_gradients`'s "copy the first contributor, add the
rest" result exactly, including negative-zero gradient entries.  The
``comms_equivalence`` hash pair in ``BENCH_shard_scaling.json`` gates this
(see ``tools/bench_gate.py`` ``REQUIRED_HASH_PAIRS``).

Shared-memory lifecycle
-----------------------
The master creates every segment, workers attach by name and never unlink.
``GradientComms.shutdown`` (called from ``ShardedTrainer.shutdown``, which
runs on context-manager exit even when a worker crashed mid-barrier) closes
and unlinks all segments; unlinking is idempotent, so a crash between
creation and attach leaks nothing.  Workers attach with a raw
``shm_open`` + ``mmap`` (no ``SharedMemory`` object), keeping the
``resource_tracker`` out of the children entirely — child-exit teardown can
neither clobber the master's bookkeeping nor spuriously unlink live
segments (Python < 3.13 would track attachments too).

Extension recipe: implement the :class:`GradientComms` protocol (``step`` /
``epoch_stats`` / ``shutdown``) and ``register_comms("mine", factory)``
where ``factory(pool, layout_provider)`` returns your transport; select it
via ``--comms mine`` / ``REPRO_COMMS=mine`` / ``TaserConfig.comms``.
"""

from __future__ import annotations

import os
import secrets
import time
from multiprocessing import shared_memory
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import tensor as _tensor
from ..core.registry import Registry

__all__ = [
    "COMMS_ENV_VAR",
    "DEFAULT_COMMS",
    "GradList",
    "GradientBucket",
    "GradientComms",
    "InProcessComms",
    "PickleComms",
    "SharedMemoryComms",
    "average_gradients",
    "available_comms",
    "gradlist_nbytes",
    "make_comms",
    "register_comms",
    "resolve_comms_name",
]

DEFAULT_COMMS = "pickle"
COMMS_ENV_VAR = "REPRO_COMMS"

#: gradient lists are aligned with ``optimizer.params``; ``None`` marks a
#: parameter that received no gradient this step.  (Mirror of
#: ``repro.distributed.worker.GradList`` — defined here too so this module
#: stays import-light for ``TaserConfig``'s lazy validation.)
GradList = List[Optional[np.ndarray]]


def average_gradients(grad_lists: List[GradList],
                      denominator: Optional[int] = None) -> GradList:
    """Deterministically average aligned gradient lists.

    Sums in the given (shard) order, treats ``None`` entries as zero, and
    divides by ``denominator`` (default: number of lists).  A parameter whose
    gradient is ``None`` in *every* list stays ``None`` so optimisers skip it
    — exactly the single-worker behaviour when ``len(grad_lists) == 1``.

    This is the **reference anchor** of the comms layer: every transport's
    reduction must match it bitwise.  The single-list case (W = 1, and the
    sampler barrier with one contributor) returns private copies directly —
    ``x / 1.0 == x`` bit for bit, so skipping the divide pass changes
    nothing but the per-batch cost.
    """
    if not grad_lists:
        raise ValueError("no gradient lists to average")
    denom = float(denominator if denominator is not None else len(grad_lists))
    if len(grad_lists) == 1 and denom == 1.0:
        # W = 1 early-out: averaging one list is the identity; copy (never
        # alias — callers mutate the result in place) and skip the
        # copy-and-divide pass the general path pays per parameter.
        return [None if g is None else np.array(g, copy=True)
                for g in grad_lists[0]]
    averaged: GradList = []
    for i in range(len(grad_lists[0])):
        acc: Optional[np.ndarray] = None
        for grads in grad_lists:
            g = grads[i]
            if g is None:
                continue
            if acc is None:
                acc = np.array(g, copy=True)
            else:
                acc += g
        averaged.append(None if acc is None else acc / denom)
    return averaged


def gradlist_nbytes(grads: Sequence[Optional[np.ndarray]]) -> int:
    """Array payload bytes of one gradient list (``None`` entries are free)."""
    return int(sum(g.nbytes for g in grads if g is not None))


# ---------------------------------------------------------------------------
# flat bucket
# ---------------------------------------------------------------------------


class GradientBucket:
    """Fixed flat-buffer layout for a ``GradList`` over known parameter shapes.

    Layout of the buffer (one per worker, plus one averaged), whose
    :attr:`dtype` is ``repro.tensor.COMPUTE_DTYPE`` at construction — the
    dtype of the gradients it carries — and which every view of it (plain,
    ``shared_memory``, ``mmap``) follows::

        [ mask: P slots ][ param 0 data ][ param 1 data ] ... [ param P-1 ]
          1.0 present        size_0 floats   size_1 floats
          0.0 absent

    * :meth:`pack` writes a ``GradList`` into the buffer: present gradients
      are copied in C order (any input layout — transposed/sliced views are
      fine), absent ones fill their slice with ``-0.0``, the IEEE additive
      identity, so summing buffers element-wise reproduces
      :func:`average_gradients` bitwise (see the module docstring).
    * :meth:`reduce` accumulates packed buffers **in the given order** with
      ``W - 1`` whole-buffer adds and one scale — the vectorised barrier.
      The mask region sums to per-parameter contributor counts (scaled by
      the same divide, which preserves its sign).
    * :meth:`unpack` returns zero-copy views into the buffer (``None`` where
      the mask count is zero); callers that mutate gradients copy first,
      exactly as the pickle path always has.
    """

    def __init__(self, shapes: Sequence[Tuple[int, ...]]) -> None:
        self.shapes: List[Tuple[int, ...]] = [tuple(int(d) for d in s)
                                              for s in shapes]
        self.num_params = len(self.shapes)
        self.sizes = [int(np.prod(s, dtype=np.int64)) if s else 1
                      for s in self.shapes]
        offsets = []
        cursor = self.num_params  # data region starts after the mask slots
        for size in self.sizes:
            offsets.append(cursor)
            cursor += size
        self.offsets = offsets
        self.total_floats = cursor
        self.dtype = np.dtype(_tensor.COMPUTE_DTYPE)
        self.nbytes = self.total_floats * self.dtype.itemsize

    def allocate(self) -> np.ndarray:
        """A fresh zeroed buffer of this bucket's layout."""
        return np.zeros(self.total_floats, dtype=self.dtype)

    def pack(self, grads: GradList, out: np.ndarray) -> np.ndarray:
        """Write ``grads`` (with its ``None`` mask) into flat buffer ``out``."""
        if len(grads) != self.num_params:
            raise ValueError(f"expected {self.num_params} gradients, "
                             f"got {len(grads)}")
        mask = out[:self.num_params]
        for i, g in enumerate(grads):
            view = out[self.offsets[i]:self.offsets[i] + self.sizes[i]]
            if g is None:
                mask[i] = 0.0
                view.fill(-0.0)
            else:
                mask[i] = 1.0
                np.copyto(view.reshape(self.shapes[i]), g)
        return out

    def unpack(self, flat: np.ndarray) -> GradList:
        """Views into ``flat`` per parameter; ``None`` where no contributor."""
        mask = flat[:self.num_params]
        grads: GradList = []
        for i in range(self.num_params):
            if mask[i] > 0.0:
                view = flat[self.offsets[i]:self.offsets[i] + self.sizes[i]]
                grads.append(view.reshape(self.shapes[i]))
            else:
                grads.append(None)
        return grads

    def reduce(self, buffers: Sequence[np.ndarray], out: np.ndarray,
               denominator: Optional[int] = None) -> np.ndarray:
        """Average packed ``buffers`` into ``out``, accumulating in order.

        Element-wise this is exactly :func:`average_gradients`: ``-0.0``
        packed for absent gradients is the bitwise-neutral element of the
        sum, and the single scale matches the reference's per-parameter
        divide (skipped when the denominator is 1 — ``x / 1.0 == x``).
        """
        if not buffers:
            raise ValueError("no gradient buffers to reduce")
        denom = float(denominator if denominator is not None
                      else len(buffers))
        np.copyto(out, buffers[0])
        for buf in buffers[1:]:
            np.add(out, buf, out=out)
        if denom != 1.0:
            np.divide(out, denom, out=out)
        return out

    def unpack_averaged(self, flat: np.ndarray) -> GradList:
        """Alias of :meth:`unpack` — after :meth:`reduce`, mask slots hold
        ``count / denom`` which is positive iff any worker contributed."""
        return self.unpack(flat)


# ---------------------------------------------------------------------------
# transports
# ---------------------------------------------------------------------------


class GradientComms:
    """One barrier step's gradient exchange, behind a swappable transport.

    The sharded trainer drives :meth:`step` once per global step; the
    transport owns how gradients reach the master and how the average
    reaches the workers.  Accounting contract (``epoch_stats``):

    ``reduce_seconds``
        master time spent averaging (Python loop or vectorised adds);
    ``transport_seconds``
        what moving the gradients costs the master.  On the **process pool**
        this is the pipe I/O of every barrier exchange — argument pickling +
        pipe writes on dispatch, pipe reads + result unpickling once a reply
        is ready (``WorkerPool.run_timed``) — which deliberately excludes
        the wait for worker compute: with ``W`` children on fewer cores the
        scheduler serializes that wait, and a wall-clock measure would
        charge it to whichever transport ran, drowning the signal.  On the
        in-process pools it is the exchange wall time minus the worker-side
        in-method compute those calls report (queue handoff);
    ``barrier_bytes_moved``
        gradient array bytes handed across the pool interface (pickled for
        the process pool); zero-copy transports move none.

    ``sync_seconds`` as reported by the trainer is
    ``reduce_seconds + transport_seconds``.
    """

    name = "abstract"

    def __init__(self, pool) -> None:
        self.pool = pool
        self.num_workers = int(pool.num_workers)
        # The serial pool runs workers back-to-back in the caller's thread,
        # so its pool.run wall time is the *sum* of worker compute; the
        # concurrent pools overlap workers, so the barrier waits for the max.
        self._serial = getattr(pool, "backend", "") == "serial"
        # Process pools report marshalling (pipe I/O) directly; see
        # epoch_stats docstring for why that beats wall - compute there.
        self._piped = getattr(pool, "backend", "") == "process"
        self.reset_stats()

    # -- protocol ---------------------------------------------------------------

    def step(self) -> None:
        """Backward on all workers -> reduce -> apply (model, then sampler)."""
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release transport resources (shared-memory segments, buffers)."""

    # -- accounting -------------------------------------------------------------

    def reset_stats(self) -> None:
        self.reduce_seconds = 0.0
        self.transport_seconds = 0.0
        self.barrier_bytes_moved = 0

    def epoch_stats(self) -> Dict[str, float]:
        """Per-epoch comms accounting; resets the counters."""
        stats = {
            "comms": self.name,
            "reduce_seconds": float(self.reduce_seconds),
            "transport_seconds": float(self.transport_seconds),
            "barrier_bytes_moved": int(self.barrier_bytes_moved),
        }
        self.reset_stats()
        return stats

    def _worker_seconds(self, timings: Sequence[float]) -> float:
        return float(sum(timings) if self._serial else max(timings))

    def _run_io(self, method: str, args_list=None) -> Tuple[List, float]:
        """``pool.run`` plus master-side marshalling seconds (0 in-process).

        Falls back to plain ``run`` for pools without ``run_timed`` (e.g.
        test doubles registered through :func:`register_comms`).
        """
        runner = getattr(self.pool, "run_timed", None)
        if runner is None:
            return self.pool.run(method, args_list), 0.0
        return runner(method, args_list)

    def _timed_exchange(self, method: str, args_list=None) -> List:
        """Run a timed worker method, booking its cost as transport.

        Process pool: the pipe I/O reported by ``run_timed`` (see
        ``epoch_stats``).  In-process pools: exchange wall minus the
        worker-side compute the methods report — they return
        ``(value, seconds)`` with ``seconds`` measured around the whole
        in-worker body, so the difference is queue handoff.
        """
        t0 = time.perf_counter()
        replies, io = self._run_io(method, args_list)
        wall = time.perf_counter() - t0
        values = [value for value, _ in replies]
        if self._piped:
            self.transport_seconds += io
        else:
            compute = self._worker_seconds([seconds for _, seconds in replies])
            self.transport_seconds += max(0.0, wall - compute)
        return values

    def _check_backward(self, flags: Sequence[bool]) -> None:
        exhausted = [i for i, ok in enumerate(flags) if not ok]
        if exhausted:
            raise RuntimeError(
                f"shard worker(s) {exhausted} exhausted their batch schedule "
                "mid-epoch — the sharded trainer sizes epochs to the smallest "
                "shard, so this indicates a scheduling bug")


class PickleComms(GradientComms):
    """Reference transport: grad lists through the pool channel, loop reduce.

    Byte-for-byte the PR 3 barrier — workers return gradient *copies*
    through ``model_backward``, the master averages with
    :func:`average_gradients` and broadcasts the averaged list back through
    ``apply_model`` / ``apply_sampler`` arguments.  On the process pool each
    of those crossings pickles every array; on thread/serial pools the lists
    pass by reference (the bytes are still counted — they are the payload
    the transport is asked to move).
    """

    name = "pickle"

    def step(self) -> None:
        w = self.num_workers
        # The backward call is dominated by batch compute (not subtractable
        # in-process, so not transport-timed there), but on the process pool
        # its replies carry the full gradient lists — that unpickling is the
        # worker -> master leg of the transport and is I/O-timed.
        grad_lists, io = self._run_io("model_backward")
        if self._piped:
            self.transport_seconds += io
        self._check_backward([g is not None for g in grad_lists])
        self.barrier_bytes_moved += sum(gradlist_nbytes(g) for g in grad_lists)

        t0 = time.perf_counter()
        averaged = average_gradients(grad_lists, denominator=w)
        self.reduce_seconds += time.perf_counter() - t0
        self.barrier_bytes_moved += w * gradlist_nbytes(averaged)

        sampler_replies = self._timed_exchange(
            "barrier_apply_model", [(averaged,)] * w)
        contributors = [g for g in sampler_replies if g is not None]
        if contributors:
            self.barrier_bytes_moved += sum(gradlist_nbytes(g)
                                            for g in contributors)
            t0 = time.perf_counter()
            averaged_s = average_gradients(contributors,
                                           denominator=len(contributors))
            self.reduce_seconds += time.perf_counter() - t0
            self.barrier_bytes_moved += w * gradlist_nbytes(averaged_s)
            self._timed_exchange("barrier_apply_sampler", [(averaged_s,)] * w)


class _BucketComms(GradientComms):
    """Shared machinery of the flat-bucket transports.

    Subclasses provide the buffers (plain arrays in-process, shared-memory
    views across processes) via :meth:`_allocate` and the per-worker attach
    spec via :meth:`_attach_spec`; everything else — packing protocol,
    vectorised reduce, sampler sub-barrier — is transport-independent.
    """

    def __init__(self, pool, layout_provider: Callable[[], Dict]) -> None:
        super().__init__(pool)
        layout = layout_provider()
        self.model_bucket = GradientBucket(layout["model"])
        self.sampler_bucket = (GradientBucket(layout["sampler"])
                               if layout.get("sampler") else None)
        self._allocate()
        self.pool.run("comms_attach",
                      [(self._attach_spec(i),) for i in range(self.num_workers)])

    # -- buffer provisioning (overridden by the shm transport) -------------------

    def _allocate(self) -> None:
        self.model_bufs = [self.model_bucket.allocate()
                           for _ in range(self.num_workers)]
        self.model_avg = self.model_bucket.allocate()
        if self.sampler_bucket is not None:
            self.sampler_bufs = [self.sampler_bucket.allocate()
                                 for _ in range(self.num_workers)]
            self.sampler_avg = self.sampler_bucket.allocate()
        else:
            self.sampler_bufs = []
            self.sampler_avg = None

    def _attach_spec(self, index: int) -> Dict:
        return {
            "kind": "inprocess",
            "model_shapes": self.model_bucket.shapes,
            "sampler_shapes": (self.sampler_bucket.shapes
                               if self.sampler_bucket is not None else None),
            "model_buf": self.model_bufs[index],
            "model_avg": self.model_avg,
            "sampler_buf": (self.sampler_bufs[index]
                            if self.sampler_bucket is not None else None),
            "sampler_avg": self.sampler_avg,
        }

    # -- barrier ----------------------------------------------------------------

    def step(self) -> None:
        w = self.num_workers
        flags, io = self._run_io("comms_model_backward")
        if self._piped:
            self.transport_seconds += io
        self._check_backward(flags)

        t0 = time.perf_counter()
        self.model_bucket.reduce(self.model_bufs, out=self.model_avg,
                                 denominator=w)
        self.reduce_seconds += time.perf_counter() - t0

        has_sampler = self._timed_exchange("comms_apply_model")
        contributors = [i for i, flag in enumerate(has_sampler) if flag]
        if contributors:
            t0 = time.perf_counter()
            self.sampler_bucket.reduce(
                [self.sampler_bufs[i] for i in contributors],
                out=self.sampler_avg, denominator=len(contributors))
            self.reduce_seconds += time.perf_counter() - t0
            self._timed_exchange("comms_apply_sampler")


class InProcessComms(_BucketComms):
    """Zero-copy bucket transport for the serial/thread pools.

    Workers share the master's address space, so the per-worker flat buffers
    *are* the transport: workers pack into them in place, the master reduces
    into the averaged buffer, workers unpack views of it.  Nothing crosses a
    serialization boundary — ``barrier_bytes_moved`` stays 0.  The pool's
    queue handoff provides the happens-before edges: workers write their own
    buffer before replying, the master reduces only after every reply.
    """

    name = "shm"


class SharedMemoryComms(_BucketComms):
    """Shared-memory bucket transport for the process pool.

    The master creates ``W`` per-worker segments plus one averaged segment
    per bucket (model, and sampler for adaptive configs); children attach by
    name.  Per barrier the pipe carries only method names and tiny flags —
    gradients never serialize.  See the module docstring for the lifecycle
    and crash-cleanup rules.
    """

    name = "shm"

    SEGMENT_PREFIX = "rcomms"

    def __init__(self, pool, layout_provider: Callable[[], Dict]) -> None:
        self._segments: List[shared_memory.SharedMemory] = []
        self._segment_names: List[str] = []
        self._token = secrets.token_hex(3)
        try:
            super().__init__(pool, layout_provider)
        except BaseException:
            self.shutdown()
            raise

    def _segment(self, tag: str, nbytes: int) -> shared_memory.SharedMemory:
        name = f"{self.SEGMENT_PREFIX}_{os.getpid():x}_{self._token}_{tag}"
        seg = shared_memory.SharedMemory(name=name, create=True,
                                         size=max(nbytes, 8))
        self._segments.append(seg)
        self._segment_names.append(seg.name)
        return seg

    def _view(self, seg: shared_memory.SharedMemory,
              bucket: GradientBucket) -> np.ndarray:
        view = np.ndarray((bucket.total_floats,), dtype=bucket.dtype,
                          buffer=seg.buf)
        view.fill(0.0)
        return view

    def _allocate(self) -> None:
        self.model_bufs = [
            self._view(self._segment(f"m{i}", self.model_bucket.nbytes),
                       self.model_bucket)
            for i in range(self.num_workers)]
        self.model_avg = self._view(
            self._segment("ma", self.model_bucket.nbytes), self.model_bucket)
        if self.sampler_bucket is not None:
            self.sampler_bufs = [
                self._view(self._segment(f"s{i}", self.sampler_bucket.nbytes),
                           self.sampler_bucket)
                for i in range(self.num_workers)]
            self.sampler_avg = self._view(
                self._segment("sa", self.sampler_bucket.nbytes),
                self.sampler_bucket)
        else:
            self.sampler_bufs = []
            self.sampler_avg = None

    def _attach_spec(self, index: int) -> Dict:
        n = self.num_workers
        return {
            "kind": "shm",
            "model_shapes": self.model_bucket.shapes,
            "sampler_shapes": (self.sampler_bucket.shapes
                               if self.sampler_bucket is not None else None),
            "model_buf": self._segment_names[index],
            "model_avg": self._segment_names[n],
            "sampler_buf": (self._segment_names[n + 1 + index]
                            if self.sampler_bucket is not None else None),
            "sampler_avg": (self._segment_names[2 * n + 1]
                            if self.sampler_bucket is not None else None),
        }

    def shutdown(self) -> None:
        """Close and unlink every segment (idempotent, crash-safe).

        Runs from ``ShardedTrainer.shutdown`` on every exit path — normal
        teardown *and* the context-manager unwind after a worker crash — so
        no ``/dev/shm`` entry outlives the trainer.  ``FileNotFoundError``
        is tolerated: a segment may already be gone if the resource tracker
        reaped it after an abnormal exit.
        """
        # Numpy views into seg.buf must be dropped before close() or the
        # memoryview export keeps the mapping alive and close() raises.
        self.model_bufs = []
        self.model_avg = None
        self.sampler_bufs = []
        self.sampler_avg = None
        segments, self._segments = self._segments, []
        for seg in segments:
            try:
                seg.close()
            except (OSError, BufferError):  # pragma: no cover - defensive
                pass
            try:
                seg.unlink()
            except FileNotFoundError:
                pass


class WorkerCommsEndpoint:
    """Worker-side view of the flat-bucket transport.

    Built from the attach spec the master broadcasts: either direct buffer
    references (in-process) or shared-memory segment names.  Attaching maps
    the named segment with ``shm_open`` + ``mmap`` directly, deliberately
    *without* :class:`multiprocessing.shared_memory.SharedMemory`: on
    Python < 3.13 an attaching ``SharedMemory`` registers the segment with
    the worker's resource tracker, and whether that tracker is the master's
    (fork after the master's tracker started) or a private one (spawn, or
    fork before it started) decides between clobbering the master's
    bookkeeping and a spurious leak-unlink at child exit.  A raw mapping
    touches no tracker in either case.  :meth:`close` unmaps only — the
    segments belong to the master, which alone unlinks.
    """

    def __init__(self, spec: Dict) -> None:
        self.model_bucket = GradientBucket(spec["model_shapes"])
        self.sampler_bucket = (GradientBucket(spec["sampler_shapes"])
                               if spec.get("sampler_shapes") else None)
        self._mappings: List = []
        if spec["kind"] == "shm":
            self.model_buf = self._attach(spec["model_buf"], self.model_bucket)
            self.model_avg = self._attach(spec["model_avg"], self.model_bucket)
            if self.sampler_bucket is not None:
                self.sampler_buf = self._attach(spec["sampler_buf"],
                                                self.sampler_bucket)
                self.sampler_avg = self._attach(spec["sampler_avg"],
                                                self.sampler_bucket)
            else:
                self.sampler_buf = None
                self.sampler_avg = None
        else:
            self.model_buf = spec["model_buf"]
            self.model_avg = spec["model_avg"]
            if self.sampler_bucket is not None:
                self.sampler_buf = spec["sampler_buf"]
                self.sampler_avg = spec["sampler_avg"]
            else:
                self.sampler_buf = None
                self.sampler_avg = None

    def _attach(self, name: str, bucket: GradientBucket) -> np.ndarray:
        import _posixshmem  # the module shared_memory itself maps through
        import mmap

        fd = _posixshmem.shm_open(
            name if name.startswith("/") else "/" + name,
            os.O_RDWR, mode=0o600)
        try:
            mapping = mmap.mmap(fd, max(bucket.nbytes, 8))
        finally:
            os.close(fd)
        self._mappings.append(mapping)
        return np.frombuffer(mapping, dtype=bucket.dtype,
                             count=bucket.total_floats)

    def close(self) -> None:
        self.model_buf = None
        self.model_avg = None
        self.sampler_buf = None
        self.sampler_avg = None
        mappings, self._mappings = self._mappings, []
        for mapping in mappings:
            try:
                mapping.close()
            except (OSError, BufferError):  # pragma: no cover - defensive
                pass


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

#: shared name->factory store + flag > REPRO_COMMS > default resolution
#: (see :class:`repro.core.registry.Registry`).
_REGISTRY: "Registry[GradientComms]" = Registry(
    "gradient comms", env_var=COMMS_ENV_VAR, default=DEFAULT_COMMS,
    plural="transports",
    hint=f"pick one via --comms, TaserConfig.comms or {COMMS_ENV_VAR}")


def register_comms(name: str,
                   factory: Callable[..., GradientComms]) -> None:
    """Register a comms factory under ``name`` (overwrites silently).

    ``factory`` is called as ``factory(pool, layout_provider)`` where
    ``layout_provider()`` returns ``{"model": [shapes], "sampler": [shapes]
    or None}`` fetched from worker 0 (replicas are identical, so worker 0
    speaks for all); transports that don't need the layout never call it.
    """
    _REGISTRY.register(name, factory)


def available_comms() -> Tuple[str, ...]:
    """Registered gradient-comms names, sorted."""
    return _REGISTRY.names()


def resolve_comms_name(name: Optional[str] = None) -> str:
    """Resolve a comms name: explicit > ``REPRO_COMMS`` env > ``"pickle"``.

    Raises ``ValueError`` with the registered names when the resolved name
    is unknown, so config/CLI validation can surface an actionable message.
    """
    return _REGISTRY.resolve(name)


def make_comms(name: Optional[str], pool,
               layout_provider: Callable[[], Dict]) -> GradientComms:
    """Build the named transport over ``pool`` (flag > env > default)."""
    factory = _REGISTRY.get(name)
    return factory(pool, layout_provider)


def _make_pickle(pool, layout_provider) -> GradientComms:
    return PickleComms(pool)


def _make_shm(pool, layout_provider) -> GradientComms:
    """Flat-bucket comms: shared memory across processes, zero-copy
    in-process buffers under the serial/thread pools (same bucket API)."""
    if getattr(pool, "backend", "") == "process":
        return SharedMemoryComms(pool, layout_provider)
    return InProcessComms(pool, layout_provider)


register_comms("pickle", _make_pickle)
register_comms("shm", _make_shm)
