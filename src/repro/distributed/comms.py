"""The sharded trainer's gradient barrier: flat buckets, one transport.

Every barrier step moves each worker's gradients (a :data:`GradList`) to
the master and the average back.  A :class:`GradientBucket` — a fixed layout computed once from the
replica's parameter shapes — packs a ``GradList`` (including its ``None``
mask) into **one contiguous buffer of the compute dtype**; the master's
reduction is ``W - 1`` vectorised adds plus one scale over those buffers.
:class:`GradientComms` owns one buffer per worker plus one averaged buffer
per bucket (model, and sampler for adaptive configs), from one of two
providers chosen by the pool backend:

``process``
    ``multiprocessing.shared_memory`` segments: children write gradients in
    place and read the average back, and the pipe carries only method names
    and tiny flags — no array pickling in either direction.
``serial`` / ``thread``
    Plain numpy arrays in the master's address space, which the workers
    share: the buffers *are* the transport (zero-copy by construction).  The
    pool's queue handoff provides the happens-before edges — workers write
    their own buffer before replying, the master reduces only after every
    reply.

Bitwise contract
----------------
The reduction accumulates contributions in fixed shard order, so every
trajectory is identical across the three pools and equal to the reference
:func:`average_gradients` loop.  Inside the flat buffer, parameters that a
worker reported as ``None`` are packed as ``-0.0`` — the exact additive
identity of IEEE-754 round-to-nearest (``-0.0 + x == x`` bit for bit for
every ``x``, including ``-0.0`` itself) — so the element-wise flat sum
reproduces :func:`average_gradients`'s "copy the first contributor, add the
rest" result exactly, including negative-zero gradient entries.  The
``comms_equivalence`` hash pair in ``BENCH_shard_scaling.json`` gates the
two providers against each other (see ``tools/bench_gate.py``
``REQUIRED_HASH_PAIRS``).

Shared-memory lifecycle
-----------------------
The master creates every segment, workers attach by name and never unlink.
:meth:`GradientComms.shutdown` (called from ``ShardedTrainer.shutdown``,
which runs on context-manager exit even when a worker crashed mid-barrier)
closes and unlinks all segments; unlinking is idempotent, so a crash between
creation and attach leaks nothing.  Workers attach with a raw ``shm_open`` +
``mmap`` (no ``SharedMemory`` object), keeping the ``resource_tracker`` out
of the children entirely — child-exit teardown can neither clobber the
master's bookkeeping nor spuriously unlink live segments (Python < 3.13
would track attachments too).
"""

from __future__ import annotations

import os
import secrets
import time
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import tensor as _tensor

__all__ = [
    "GradList",
    "GradientBucket",
    "GradientComms",
    "WorkerCommsEndpoint",
    "average_gradients",
]

#: gradient lists are aligned with ``optimizer.params``; ``None`` marks a
#: parameter that received no gradient this step.
GradList = List[Optional[np.ndarray]]


def average_gradients(grad_lists: List[GradList],
                      denominator: Optional[int] = None) -> GradList:
    """Deterministically average aligned gradient lists.

    Sums in the given (shard) order, treats ``None`` entries as zero, and
    divides by ``denominator`` (default: number of lists).  A parameter whose
    gradient is ``None`` in *every* list stays ``None`` so optimisers skip it
    — exactly the single-worker behaviour when ``len(grad_lists) == 1``.

    This is the **reference** the bucket reduction must match bitwise.  The
    single-list case (W = 1, and the sampler barrier with one contributor)
    returns private copies directly — ``x / 1.0 == x`` bit for bit, so
    skipping the divide pass changes nothing.
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
      the mask count is zero); callers that mutate gradients copy first.
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
        """Views into ``flat`` per parameter; ``None`` where no contributor.

        After :meth:`reduce` the mask slots hold ``count / denom``, which is
        positive iff any worker contributed, so this also unpacks averages.
        """
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


# ---------------------------------------------------------------------------
# master side
# ---------------------------------------------------------------------------


class GradientComms:
    """One barrier step's gradient exchange over flat buckets.

    Built over a live worker pool: worker 0 reports the parameter shapes
    (replicas are identical, so it speaks for all), the buffers come from
    the provider the pool backend selects (see the module docstring), and
    every worker is attached to its own buffer and the averaged one.  The
    sharded trainer drives :meth:`step` once per global step.  Accounting
    contract (:meth:`epoch_stats`):

    ``reduce_seconds``
        master time spent in the vectorised adds;
    ``transport_seconds``
        what moving the gradients costs the master.  On the **process pool**
        this is the pipe I/O of every barrier exchange — argument pickling +
        pipe writes on dispatch, pipe reads + result unpickling once a reply
        is ready (``WorkerPool.run_timed``) — which deliberately excludes
        the wait for worker compute: with ``W`` children on fewer cores the
        scheduler serializes that wait, and a wall-clock measure would
        charge it to the transport, drowning the signal.  On the in-process
        pools it is the exchange wall time minus the worker-side in-method
        compute those calls report (queue handoff).

    ``sync_seconds`` as reported by the trainer is
    ``reduce_seconds + transport_seconds``.
    """

    SEGMENT_PREFIX = "rcomms"

    def __init__(self, pool) -> None:
        self.pool = pool
        self.num_workers = int(pool.num_workers)
        # The serial pool runs workers back-to-back in the caller's thread,
        # so its pool.run wall time is the *sum* of worker compute; the
        # concurrent pools overlap workers, so the barrier waits for the max.
        self._serial = pool.backend == "serial"
        # Process pools report marshalling (pipe I/O) directly and need
        # buffers both sides can map.
        self._piped = pool.backend == "process"
        self._segments: List[shared_memory.SharedMemory] = []
        self._segment_names: List[str] = []
        self._token = secrets.token_hex(3)
        self.reset_stats()
        try:
            layout = pool.run_one(0, "comms_layout")
            self.model_bucket = GradientBucket(layout["model"])
            self.sampler_bucket = (GradientBucket(layout["sampler"])
                                   if layout.get("sampler") else None)
            bufs, model_handles = self._provide(self.model_bucket, "m")
            self.model_bufs, self.model_avg = bufs[:-1], bufs[-1]
            self.sampler_bufs, self.sampler_avg = [], None
            sampler_handles = [None] * (self.num_workers + 1)
            if self.sampler_bucket is not None:
                bufs, sampler_handles = self._provide(self.sampler_bucket, "s")
                self.sampler_bufs, self.sampler_avg = bufs[:-1], bufs[-1]
            pool.run("comms_attach", [({
                "kind": "shm" if self._piped else "inprocess",
                "model_shapes": self.model_bucket.shapes,
                "sampler_shapes": (self.sampler_bucket.shapes
                                   if self.sampler_bucket is not None
                                   else None),
                "model_buf": model_handles[i],
                "model_avg": model_handles[-1],
                "sampler_buf": sampler_handles[i],
                "sampler_avg": sampler_handles[-1],
            },) for i in range(self.num_workers)])
        except BaseException:
            self.shutdown()
            raise

    # -- buffer providers ---------------------------------------------------------

    def _provide(self, bucket: GradientBucket,
                 tag: str) -> Tuple[List[np.ndarray], List]:
        """``W + 1`` zeroed buffers (the averaged one last) and the handles
        workers attach them by: the arrays themselves in-process, segment
        names across processes."""
        if not self._piped:
            bufs = [bucket.allocate() for _ in range(self.num_workers + 1)]
            return bufs, bufs
        bufs, names = [], []
        for i in range(self.num_workers + 1):
            name = (f"{self.SEGMENT_PREFIX}_{os.getpid():x}_{self._token}_"
                    f"{tag}{i}")
            seg = shared_memory.SharedMemory(name=name, create=True,
                                             size=max(bucket.nbytes, 8))
            self._segments.append(seg)
            self._segment_names.append(seg.name)
            view = np.ndarray((bucket.total_floats,), dtype=bucket.dtype,
                              buffer=seg.buf)
            view.fill(0.0)
            bufs.append(view)
            names.append(seg.name)
        return bufs, names

    # -- barrier ----------------------------------------------------------------

    def step(self) -> None:
        """Backward on all workers -> reduce -> apply (model, then sampler)."""
        w = self.num_workers
        flags, io = self.pool.run_timed("comms_model_backward")
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

    def shutdown(self) -> None:
        """Drop the buffers; close and unlink every segment (idempotent,
        crash-safe).

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

    # -- accounting -------------------------------------------------------------

    def reset_stats(self) -> None:
        self.reduce_seconds = 0.0
        self.transport_seconds = 0.0

    def epoch_stats(self) -> Dict[str, float]:
        """Per-epoch barrier accounting; resets the counters."""
        stats = {"reduce_seconds": float(self.reduce_seconds),
                 "transport_seconds": float(self.transport_seconds)}
        self.reset_stats()
        return stats

    def _timed_exchange(self, method: str) -> List:
        """Run a timed worker method, booking its cost as transport.

        Process pool: the pipe I/O reported by ``run_timed`` (see
        :meth:`epoch_stats`).  In-process pools: exchange wall minus the
        worker-side compute the methods report — they return ``(value,
        seconds)`` with ``seconds`` measured around the whole in-worker
        body, so the difference is queue handoff.
        """
        t0 = time.perf_counter()
        replies, io = self.pool.run_timed(method)
        wall = time.perf_counter() - t0
        if self._piped:
            self.transport_seconds += io
        else:
            timings = [seconds for _, seconds in replies]
            compute = sum(timings) if self._serial else max(timings)
            self.transport_seconds += max(0.0, wall - compute)
        return [value for value, _ in replies]

    @staticmethod
    def _check_backward(flags: Sequence[bool]) -> None:
        exhausted = [i for i, ok in enumerate(flags) if not ok]
        if exhausted:
            raise RuntimeError(
                f"shard worker(s) {exhausted} exhausted their batch schedule "
                "mid-epoch — the sharded trainer sizes epochs to the smallest "
                "shard, so this indicates a scheduling bug")


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


class WorkerCommsEndpoint:
    """Worker-side view of the flat buckets.

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
        self.sampler_buf = None
        self.sampler_avg = None
        if spec["kind"] == "shm":
            self.model_buf = self._attach(spec["model_buf"], self.model_bucket)
            self.model_avg = self._attach(spec["model_avg"], self.model_bucket)
            if self.sampler_bucket is not None:
                self.sampler_buf = self._attach(spec["sampler_buf"],
                                                self.sampler_bucket)
                self.sampler_avg = self._attach(spec["sampler_avg"],
                                                self.sampler_bucket)
        else:
            self.model_buf = spec["model_buf"]
            self.model_avg = spec["model_avg"]
            if self.sampler_bucket is not None:
                self.sampler_buf = spec["sampler_buf"]
                self.sampler_avg = spec["sampler_avg"]

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
