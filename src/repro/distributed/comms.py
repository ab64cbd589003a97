"""The sharded trainer's gradient barrier: flat buckets in shared mappings.

Every barrier step moves each worker's gradients (a :data:`GradList`) to
the master and the average back.  A :class:`GradientBucket` — a fixed
layout computed once from the master replica's parameter shapes — packs a
``GradList`` (including its ``None`` mask) into **one contiguous buffer of
the compute dtype**; the master's reduction is ``W - 1`` vectorised adds
plus one scale over those buffers.

:class:`GradientComms` owns one buffer per worker plus one averaged buffer
per bucket (model, and sampler for adaptive configs), each an anonymous
``MAP_SHARED`` mapping.  They are created *before* the worker pool starts,
and every :class:`~repro.distributed.worker.ShardTask` carries its worker's
buffer and the averaged one: children forked by the process pool inherit
the very mappings the master reduces over, and the serial pool's workers
use the same arrays in-process.  Workers write their gradients in place and
read the average back, so the pool channel carries only method names and
tiny flags.  The pool's request/reply round-trip orders the accesses: a
worker writes its buffer before replying, and the master reduces only after
every reply.  Nothing is named, so nothing needs unlinking: a mapping dies
with the last process that maps it.

Bitwise contract
----------------
The reduction accumulates contributions in fixed shard order, so every
trajectory is identical across both pools and equal to the reference
:func:`average_gradients` loop.  Inside the flat buffer, parameters that a
worker reported as ``None`` are packed as ``-0.0`` — the exact additive
identity of IEEE-754 round-to-nearest (``-0.0 + x == x`` bit for bit for
every ``x``, including ``-0.0`` itself) — so the element-wise flat sum
reproduces :func:`average_gradients`'s "copy the first contributor, add the
rest" result exactly, including negative-zero gradient entries.  The
``comms_equivalence`` hash pair in ``BENCH_shard_scaling.json`` gates the
serial pool against the process pool (see ``tools/bench_gate.py``
``REQUIRED_HASH_PAIRS``).
"""

from __future__ import annotations

import mmap
import time
from dataclasses import dataclass
from itertools import zip_longest
from typing import List, Optional, Sequence, Tuple

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
    result never aliases an input: callers mutate it in place.
    """
    if not grad_lists:
        raise ValueError("no gradient lists to average")
    denom = float(denominator if denominator is not None else len(grad_lists))
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
    dtype of the gradients it carries::

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
        """A fresh zeroed buffer of this bucket's layout, viewing an
        anonymous shared mapping: a process forked after this call reads
        and writes the same memory."""
        mapping = mmap.mmap(-1, max(self.nbytes, 1))
        return np.frombuffer(mapping, dtype=self.dtype,
                             count=self.total_floats)

    def check_shapes(self, shapes: Sequence[Tuple[int, ...]],
                     what: str) -> None:
        """Raise ``ValueError`` naming the first parameter of ``shapes``
        that does not match this layout."""
        shapes = [tuple(int(d) for d in s) for s in shapes]
        for i, (got, want) in enumerate(zip_longest(shapes, self.shapes)):
            if got != want:
                raise ValueError(
                    f"{what} parameter {i} has shape {got}, but the gradient "
                    f"bucket expects {want}: every replica must be built "
                    "from the master's config")

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

    Built before the worker pool, from the parameter shapes of the master's
    own replica (every replica is built from the same config over the same
    node universe, so the shapes are everyone's); :meth:`endpoint` hands
    each shard task its buffers, and the sharded trainer drives
    :meth:`step` over the pool once per global step.
    """

    def __init__(self, model_shapes: Sequence[Tuple[int, ...]],
                 sampler_shapes: Optional[Sequence[Tuple[int, ...]]],
                 num_workers: int) -> None:
        self.num_workers = int(num_workers)
        self.model_bucket = GradientBucket(model_shapes)
        self.sampler_bucket = (GradientBucket(sampler_shapes)
                               if sampler_shapes else None)
        self.model_bufs = [self.model_bucket.allocate()
                           for _ in range(self.num_workers)]
        self.model_avg = self.model_bucket.allocate()
        self.sampler_bufs: List[np.ndarray] = []
        self.sampler_avg: Optional[np.ndarray] = None
        if self.sampler_bucket is not None:
            self.sampler_bufs = [self.sampler_bucket.allocate()
                                 for _ in range(self.num_workers)]
            self.sampler_avg = self.sampler_bucket.allocate()

    @classmethod
    def for_replica(cls, trainer, num_workers: int) -> "GradientComms":
        """Buckets laid out over ``trainer``'s optimiser parameters."""
        return cls(*_optimizer_shapes(trainer), num_workers)

    def endpoint(self, index: int) -> "WorkerCommsEndpoint":
        """Worker ``index``'s view: its own buffers and the averaged ones."""
        sampler = self.sampler_bucket is not None
        return WorkerCommsEndpoint(
            model_bucket=self.model_bucket,
            model_buf=self.model_bufs[index], model_avg=self.model_avg,
            sampler_bucket=self.sampler_bucket,
            sampler_buf=self.sampler_bufs[index] if sampler else None,
            sampler_avg=self.sampler_avg)

    # -- barrier ----------------------------------------------------------------

    def step(self, pool) -> float:
        """Backward on all workers -> reduce -> apply (model, then sampler).

        Returns the master's reduce seconds (``time.perf_counter``); the
        round trips to the workers are not in it.
        """
        self._check_backward(pool.run("comms_model_backward"))
        t0 = time.perf_counter()
        self.model_bucket.reduce(self.model_bufs, out=self.model_avg,
                                 denominator=self.num_workers)
        seconds = time.perf_counter() - t0

        has_sampler = pool.run("comms_apply_model")
        contributors = [i for i, flag in enumerate(has_sampler) if flag]
        if contributors:
            t0 = time.perf_counter()
            self.sampler_bucket.reduce(
                [self.sampler_bufs[i] for i in contributors],
                out=self.sampler_avg, denominator=len(contributors))
            seconds += time.perf_counter() - t0
            pool.run("comms_apply_sampler")
        return seconds

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


@dataclass
class WorkerCommsEndpoint:
    """One worker's buffers: its own per bucket, and the averaged ones.

    Created by :meth:`GradientComms.endpoint` before the pool starts and
    carried by the worker's shard task, so a forked child holds views of
    the master's mappings.
    """

    model_bucket: GradientBucket
    model_buf: np.ndarray
    model_avg: np.ndarray
    sampler_bucket: Optional[GradientBucket] = None
    sampler_buf: Optional[np.ndarray] = None
    sampler_avg: Optional[np.ndarray] = None

    def check_layout(self, trainer) -> None:
        """Raise ``ValueError`` unless ``trainer``'s optimiser parameters
        have the buckets' shapes.  The layout comes from the master's
        replica; a worker built from another config would pack past (or
        short of) it."""
        model, sampler = _optimizer_shapes(trainer)
        self.model_bucket.check_shapes(model, "model")
        (self.sampler_bucket or GradientBucket([])).check_shapes(
            sampler or [], "sampler")


def _optimizer_shapes(trainer) -> Tuple[List[Tuple[int, ...]],
                                        Optional[List[Tuple[int, ...]]]]:
    """Parameter shapes of ``trainer``'s model and sampler optimisers
    (``None`` for the sampler when the config has no adaptive sampler)."""
    sampler = trainer.sampler_optimizer
    return ([p.data.shape for p in trainer.model_optimizer.params],
            [p.data.shape for p in sampler.params]
            if sampler is not None else None)
