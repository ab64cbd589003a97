"""Pluggable array backends for the autodiff engine's hot paths.

Every ndarray operation the :class:`~repro.tensor.tensor.Tensor` engine (and
the layers built on it) performs in a forward or backward pass dispatches
through the *active* :class:`ArrayBackend`.  The backend is the seam where
optimised kernels — and, later, real accelerator backends — plug in without
touching model code, mirroring how the multi-backend inference stacks route
every op through a swappable device layer.

Two backends ship with the repo:

``reference``
    :class:`ReferenceBackend` — the engine's original NumPy behaviour,
    verbatim.  Every op allocates its result the way plain ``numpy``
    expressions do.  This is the semantics anchor: all other backends are
    defined as *bitwise-identical* to it.

``fused``
    :class:`FusedBackend` — the same arithmetic in the same op order, but the
    hot forward/backward kernels (softmax attention, GELU, sinusoidal time
    encodings, the GEMMs inside the composite kernels) run as
    ``out=``/in-place NumPy calls over per-shape preallocated
    :class:`WorkspaceArena` buffers.  The composite LayerNorm / Linear /
    mixer-block kernels are inherited from the reference unchanged.
    Identical op order means loss/MRR trajectories stay **bitwise-identical**
    to the reference while temporary allocations are cut on every batch.

Bitwise-equality contract
-------------------------
A backend may change *where* results are materialised (fresh allocation vs
reused workspace buffer) but never *what* is computed: the sequence of
floating-point operations, their operand order and their rounding must match
the reference exactly.  ``out=`` variants of NumPy ufuncs satisfy this by
construction; anything else (reassociated sums, fast-math approximations)
belongs in a new backend name, not in ``fused``.

Workspace-reuse contract
------------------------
:class:`WorkspaceArena` buffers live for exactly one *batch*: consumers call
:meth:`ArrayBackend.begin_batch` at a point where the previous batch's
computation graph is provably dead (the trainer does this at the top of each
training step, the evaluators before each scoring batch), which returns every
checked-out buffer to the per-shape free lists.  Arrays that must outlive the
batch (accumulated evaluation scores, diagnostics) must be copied out by the
consumer.  The *active* arena is thread-local, so concurrent shard workers
never share buffers; owners that interleave several graphs on one thread
(each trainer replica under the serial worker pool) hold a private arena via
:meth:`ArrayBackend.new_arena` and install it with
:meth:`ArrayBackend.arena_scope` around their compute, so one replica's
batch boundary can never recycle another's pending gradients.

Selecting a backend
-------------------
``get_backend()`` / ``set_backend(name)`` manage the process-global active
backend.  Resolution order for the default: an explicit name (the
``--backend`` CLI flag / ``TaserConfig.array_backend``) > the
``REPRO_BACKEND`` environment variable > ``"reference"``.  Worker processes
re-resolve from the :class:`~repro.core.config.TaserConfig` they receive, so
process pools re-install the backend in the child.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "ArrayBackend",
    "ReferenceBackend",
    "FusedBackend",
    "WorkspaceArena",
    "available_backends",
    "register_backend",
    "resolve_backend_name",
    "get_backend",
    "set_backend",
    "use_backend",
    "DEFAULT_BACKEND",
    "BACKEND_ENV_VAR",
]

DEFAULT_BACKEND = "reference"
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: buffers tracked per arena between resets; beyond this, takes fall back to
#: untracked fresh allocations so a consumer that never resets (a thread that
#: only ever produces batches, a long gradcheck loop) cannot leak the arena.
MAX_TRACKED_BUFFERS = 8192

#: cap on the bytes an arena may keep on its free lists.  Shapes drift over a
#: long run (partial batches, streaming windows, evaluation chunk sizes), and
#: free lists are keyed by exact shape — without a cap the arena would retain
#: every buffer of every shape ever seen.  Buffers past the cap are simply
#: dropped to the garbage collector (counted in ``workspace_dropped``); one
#: batch's working set is orders of magnitude below this.
MAX_FREE_BYTES = 256 * 1024 * 1024

#: cap on the bytes an arena may hold checked-out between resets — the byte
#: companion of MAX_TRACKED_BUFFERS, bounding what a never-resetting consumer
#: can pin through few-but-huge buffers.  Takes past either cap return plain
#: untracked allocations (GC-managed) without touching the free lists.
MAX_IN_USE_BYTES = 1024 * 1024 * 1024

#: output-element floor below which the fused backend skips the arena and
#: evaluates the reference expression instead.  ``take`` pays a lock plus a
#: free-list lookup (a few microseconds) per checkout, while numpy allocates
#: a small array in well under a microsecond — so for small outputs the
#: "saved" allocation costs more than it saves.  The measured crossover on
#: the CPU bench host sits between 16K and 256K float64 elements; prep-side
#: index/score/delta arrays are far below the floor, propagation feature
#: blocks far above it.  The bypass is bitwise-safe: fast-path eligibility
#: already requires C-contiguous operands, so the reference expression
#: produces identical values in an identical layout.  The gate is on the
#: *output* size — ``fixed_time_encoding`` expands a small ``dt`` into a
#: large encoding and must keep its buffer.
ARENA_MIN_ELEMENTS = 16384

_F64 = np.dtype(np.float64)
_BOOL = np.dtype(np.bool_)
_F64_STR = _F64.str


# ---------------------------------------------------------------------------
# workspace arena
# ---------------------------------------------------------------------------


class WorkspaceArena:
    """Per-shape free lists of preallocated scratch/output buffers.

    One arena serves one thread (the :class:`FusedBackend` keeps them in
    thread-local storage).  Two checkout modes:

    * :meth:`take` — a buffer that *escapes* the kernel (a tensor's data, a
      gradient).  Tracked until :meth:`reset` returns it to the free lists;
      the caller must guarantee the previous batch's graph is dead before
      resetting.
    * :meth:`scratch` / :meth:`give_back` — a pure temporary that never
      leaves the kernel; returned to the free lists immediately.

    Counters record the reuse the arena achieved (``reused`` is the number of
    allocations saved); they feed ``EpochStats`` and the benchmark JSON.
    """

    __slots__ = ("_free", "_in_use", "_free_bytes", "_in_use_bytes",
                 "allocated", "reused", "untracked", "bytes_reused", "dropped",
                 "resets", "_lock")

    def __init__(self) -> None:
        # Checkout/release and the reuse counters are guarded by a lock: the
        # prep worker pool hands each worker a private arena, but epoch-stats
        # readers (and defensive consumers) may touch an arena from another
        # thread, and an uncoordinated take/reset interleaving could hand the
        # same free-list buffer out twice.  The lock is uncontended in the
        # single-thread steady state, so the cost is a few ns per checkout.
        self._lock = threading.Lock()
        self._free: Dict[Tuple[Tuple[int, ...], str], List[np.ndarray]] = {}
        self._in_use: List[np.ndarray] = []
        self._free_bytes = 0    # bytes currently parked on the free lists
        self._in_use_bytes = 0  # bytes currently checked out and tracked
        self.allocated = 0      # fresh np.empty calls
        self.reused = 0         # checkouts served from a free list
        self.untracked = 0      # takes past the in-use caps (not reusable)
        self.bytes_reused = 0
        self.dropped = 0        # buffers released past MAX_FREE_BYTES
        self.resets = 0

    # -- checkout ------------------------------------------------------------

    def _checkout(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        key = (shape, _F64_STR if dtype is np.float64 else np.dtype(dtype).str)
        free = self._free.get(key)
        if free:
            buf = free.pop()
            self._free_bytes -= buf.nbytes
            self.reused += 1
            self.bytes_reused += buf.nbytes
            return buf
        self.allocated += 1
        return np.empty(shape, dtype=dtype)

    def _release(self, buf: np.ndarray) -> None:
        """Park a buffer on its free list, or drop it past the byte cap."""
        if self._free_bytes + buf.nbytes > MAX_FREE_BYTES:
            self.dropped += 1
            return
        self._free_bytes += buf.nbytes
        self._free.setdefault((buf.shape, buf.dtype.str), []).append(buf)

    def take(self, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """Check out a buffer that stays live until the next :meth:`reset`.

        Past either in-use cap the arena stops participating: it hands out a
        plain untracked allocation *without* draining a free list (a popped
        buffer would never be re-released, permanently shrinking the pool),
        so a consumer that never resets degrades to ordinary numpy
        allocation instead of pinning memory for the process lifetime.
        """
        with self._lock:
            if (len(self._in_use) >= MAX_TRACKED_BUFFERS
                    or self._in_use_bytes >= MAX_IN_USE_BYTES):
                self.untracked += 1
                self.allocated += 1
                return np.empty(shape, dtype=dtype)
            buf = self._checkout(shape if type(shape) is tuple else tuple(shape), dtype)
            self._in_use.append(buf)
            self._in_use_bytes += buf.nbytes
            return buf

    def scratch(self, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """Check out a kernel-internal temporary; pair with :meth:`give_back`."""
        with self._lock:
            return self._checkout(tuple(shape), dtype)

    def give_back(self, buf: np.ndarray) -> None:
        """Return a :meth:`scratch` buffer (which never escaped its kernel)."""
        with self._lock:
            self._release(buf)

    def reset(self) -> None:
        """Return every tracked buffer to the free lists (batch boundary)."""
        with self._lock:
            for buf in self._in_use:
                self._release(buf)
            self._in_use.clear()
            self._in_use_bytes = 0
            self.resets += 1

    # -- accounting ----------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {
            "workspace_allocated": self.allocated,
            "workspace_reused": self.reused,
            "workspace_bytes_reused": self.bytes_reused,
            "workspace_untracked": self.untracked,
            "workspace_dropped": self.dropped,
            "workspace_resets": self.resets,
        }


# ---------------------------------------------------------------------------
# backend protocol + reference implementation (the semantics anchor)
# ---------------------------------------------------------------------------


class ArrayBackend:
    """Protocol of an array backend: lifecycle hooks + the kernel surface.

    The kernel surface (primitives, reductions, gradient plumbing and the
    fused composite kernels) is *defined* by :class:`ReferenceBackend`'s
    method set — a new backend subclasses it and overrides whatever it can
    serve better, inheriting reference semantics for the rest.  Only the two
    lifecycle hooks below have meaningful defaults at this level.
    """

    name = "abstract"

    def begin_batch(self) -> None:
        """Batch boundary: the previous batch's graph is provably dead.

        Backends with reusable workspaces reclaim the *active* arena's
        buffers here; the reference backend does nothing.
        """

    def workspace_snapshot(self) -> Dict[str, int]:
        """The active arena's workspace-reuse counters (zero when no arena)."""
        return {"workspace_allocated": 0, "workspace_reused": 0,
                "workspace_bytes_reused": 0, "workspace_untracked": 0,
                "workspace_dropped": 0, "workspace_resets": 0}

    # -- arena ownership ------------------------------------------------------
    # Consumers that interleave several computation graphs on one thread
    # (the serial worker pool runs every shard replica in the caller's
    # thread) must give each graph owner its own arena: a worker A's pending
    # gradients would otherwise be recycled by worker B's batch boundary.

    def new_arena(self) -> Optional[WorkspaceArena]:
        """A private workspace arena for one graph owner (None: no arenas)."""
        return None

    @contextlib.contextmanager
    def arena_scope(self, arena: Optional[WorkspaceArena]):
        """Install ``arena`` as this thread's active arena for the block."""
        yield arena

    def arena_stats(self, arena: Optional[WorkspaceArena]) -> Dict[str, int]:
        """Reuse counters of ``arena`` (falls back to the active arena)."""
        if arena is not None:
            return arena.stats()
        return self.workspace_snapshot()


class ReferenceBackend(ArrayBackend):
    """The engine's original NumPy behaviour, verbatim.

    Every method is the exact expression the autodiff engine historically
    inlined; other backends override them with allocation-avoiding variants
    that must stay bitwise-identical (see the module docstring's contract).
    """

    name = "reference"

    # -- element-wise primitives ---------------------------------------------

    def add(self, a, b):
        return np.add(a, b)

    def subtract(self, a, b):
        return np.subtract(a, b)

    def multiply(self, a, b):
        return np.multiply(a, b)

    def divide(self, a, b):
        return np.divide(a, b)

    def negative(self, x):
        return np.negative(x)

    def power(self, x, exponent):
        return np.power(x, exponent)

    def exp(self, x):
        return np.exp(x)

    def log(self, x):
        return np.log(x)

    def sqrt(self, x):
        return np.sqrt(x)

    def cos(self, x):
        return np.cos(x)

    def sin(self, x):
        return np.sin(x)

    def absolute(self, x):
        return np.abs(x)

    def sign(self, x):
        return np.sign(x)

    def maximum(self, a, b):
        return np.maximum(a, b)

    def clip(self, x, low, high):
        return np.clip(x, low, high)

    def where(self, cond, a, b):
        return np.where(cond, a, b)

    def matmul(self, a, b):
        return np.matmul(a, b)

    def concatenate(self, arrays, axis: int = -1):
        return np.concatenate(arrays, axis=axis)

    # -- reductions ----------------------------------------------------------

    def sum(self, x, axis=None, keepdims: bool = False):
        return np.sum(x, axis=axis, keepdims=keepdims)

    def mean(self, x, axis=None, keepdims: bool = False):
        return np.mean(x, axis=axis, keepdims=keepdims)

    def amax(self, x, axis=None, keepdims: bool = False):
        return np.max(x, axis=axis, keepdims=keepdims)

    # -- gradient plumbing ---------------------------------------------------

    def grad_zeros(self, like: np.ndarray) -> np.ndarray:
        """Zero-initialised float64 gradient buffer shaped/laid-out like
        ``like`` (K-order, exactly what ``np.zeros_like`` has always done —
        gradient-buffer layout feeds downstream pairwise-summed reductions)."""
        return np.zeros_like(like, dtype=np.float64)

    def index_add(self, like: np.ndarray, index, grad) -> np.ndarray:
        """Scatter-add ``grad`` into a zeroed buffer (fancy-index backward)."""
        out = np.zeros_like(like, dtype=np.float64)
        np.add.at(out, index, grad)
        return out

    def broadcast_grad(self, grad, shape) -> np.ndarray:
        """Materialise ``grad`` broadcast to ``shape`` (reduction backward)."""
        return np.broadcast_to(grad, shape).astype(np.float64)

    # -- fused composite kernels (one autograd node each) --------------------

    def softmax_forward(self, x: np.ndarray, axis: int) -> np.ndarray:
        shifted = x - x.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=axis, keepdims=True)

    def softmax_backward(self, g: np.ndarray, y: np.ndarray, axis: int) -> np.ndarray:
        dot = (g * y).sum(axis=axis, keepdims=True)
        return y * (g - dot)

    def log_softmax_forward(self, x: np.ndarray, axis: int) -> np.ndarray:
        shifted = x - x.max(axis=axis, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        return shifted - lse

    def log_softmax_backward(self, g: np.ndarray, soft: np.ndarray,
                             axis: int) -> np.ndarray:
        return g - soft * g.sum(axis=axis, keepdims=True)

    def sigmoid_forward(self, x: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-x))

    def sigmoid_backward(self, g: np.ndarray, y: np.ndarray) -> np.ndarray:
        return g * y * (1.0 - y)

    def tanh_forward(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x)

    def tanh_backward(self, g: np.ndarray, y: np.ndarray) -> np.ndarray:
        return g * (1.0 - y ** 2)

    def gelu_forward(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """GELU (sigmoid approximation); returns ``(y, s)`` with the gate
        ``s = sigmoid(1.702 x)`` saved for the backward pass."""
        s = 1.0 / (1.0 + np.exp(-1.702 * x))
        return x * s, s

    def gelu_backward(self, g: np.ndarray, x: np.ndarray,
                      s: np.ndarray) -> np.ndarray:
        return g * (s + 1.702 * x * s * (1.0 - s))

    def relu_forward(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        mask = x > 0
        return x * mask, mask

    def relu_backward(self, g: np.ndarray, mask: np.ndarray) -> np.ndarray:
        return g * mask

    def leaky_relu_forward(self, x: np.ndarray,
                           slope: float) -> Tuple[np.ndarray, np.ndarray]:
        mask = x > 0
        return np.where(mask, x, x * slope), mask

    def leaky_relu_backward(self, g: np.ndarray, mask: np.ndarray,
                            slope: float) -> np.ndarray:
        return g * np.where(mask, 1.0, slope)

    def fixed_time_encoding(self, dt: np.ndarray,
                            omega: np.ndarray) -> np.ndarray:
        """GraphMixer's fixed sinusoidal encoding ``cos(dt[..., None] * omega)``."""
        return np.cos(dt[..., None] * omega)

    # -- composite layer kernels (one autograd node each) --------------------
    # LayerNorm, Linear and the mixer block are one kernel pair each,
    # *inherited* by every backend rather than overridden: both backends then
    # run the same arithmetic by construction.  The kernels own what they
    # return and update only buffers they allocated themselves — never the
    # ``g`` they receive (see "Gradient ownership" in :mod:`repro.tensor.tensor`).

    def layer_norm_forward(self, x: np.ndarray, w: np.ndarray, b: np.ndarray,
                           eps: float
                           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Layer norm over the last axis; returns ``(out, xhat, rstd)``.

        ``xhat`` (the normalised input) and ``rstd`` (``1 / sqrt(var + eps)``,
        one value per row) are all the backward pass needs; ``xhat`` and
        ``out`` are the only full-size arrays allocated.
        """
        xhat, rstd = self._standardize(x, eps)
        out = xhat * w
        out += b
        return out, xhat, rstd

    def layer_norm_backward(self, g: np.ndarray, xhat: np.ndarray,
                            rstd: np.ndarray, w: np.ndarray, need_x: bool
                            ) -> Tuple[Optional[np.ndarray], np.ndarray,
                                       np.ndarray]:
        """``(gx, gw, gb)`` of :meth:`layer_norm_forward`; ``gx`` is ``None``
        unless ``need_x``.

        ``gx = rstd * (g*w - mean(g*w) - xhat * mean(g*w*xhat))`` with both
        means over the last axis.
        """
        # einsum cannot sum an ellipsis away, so the row axes get letters.
        rows = "abcdefgh"[:g.ndim - 1]
        gw = np.einsum(f"{rows}i,{rows}i->i", g, xhat)
        gb = g.sum(axis=tuple(range(g.ndim - 1)))
        if not need_x:
            return None, gw, gb
        # C order whatever the layout of ``g`` (a transpose downstream hands
        # back a strided view): the in-place passes below then run contiguously.
        gx = np.multiply(g, w, order="C")
        return self._standardize_backward(gx, xhat, rstd), gw, gb

    @staticmethod
    def _standardize(x: np.ndarray, eps: float, out: Optional[np.ndarray] = None
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """``(xhat, rstd)``: ``x`` with zero mean and unit variance over the
        last axis (written into ``out`` when given) and the per-row
        ``1 / sqrt(var + eps)``."""
        xhat = np.subtract(x, x.mean(axis=-1, keepdims=True), out=out)
        rstd = np.einsum("...i,...i->...", xhat, xhat)[..., None]
        rstd /= x.shape[-1]
        rstd += eps
        np.sqrt(rstd, out=rstd)
        np.divide(1.0, rstd, out=rstd)
        xhat *= rstd
        return xhat, rstd

    @staticmethod
    def _standardize_backward(gxhat: np.ndarray, xhat: np.ndarray, rstd: np.ndarray,
                              scratch: Optional[np.ndarray] = None) -> np.ndarray:
        """Input gradient of :meth:`_standardize`, computed in place in
        ``gxhat`` — a buffer the caller owns, as it does ``scratch``, which
        takes the one full-size temporary."""
        proj = np.einsum("...i,...i->...", gxhat, xhat)[..., None]
        proj /= gxhat.shape[-1]
        gxhat -= gxhat.mean(axis=-1, keepdims=True)
        gxhat -= np.multiply(xhat, proj, out=scratch)
        gxhat *= rstd
        return gxhat

    def linear_forward(self, a2d: np.ndarray, w: np.ndarray,
                       b: Optional[np.ndarray]) -> np.ndarray:
        """``a2d @ w.T + b`` for ``a2d`` ``(N, k)`` and ``w`` ``(m, k)``: one
        GEMM, the bias added in place into its fresh output."""
        out = self.matmul(a2d, w.T)
        if b is not None:
            out += b
        return out

    def linear_backward(self, g2d: np.ndarray, a2d: np.ndarray, w: np.ndarray,
                        need_a: bool, need_w: bool, need_b: bool
                        ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray],
                                   Optional[np.ndarray]]:
        """``(ga, gw, gb)`` of :meth:`linear_forward`, each only if needed."""
        ga = self.matmul(g2d, w) if need_a else None
        gw = self.matmul(g2d.T, a2d) if need_w else None
        gb = g2d.sum(axis=0) if need_b else None
        return ga, gw, gb

    # -- MLP-Mixer block (one autograd node) ---------------------------------
    # Written to minimise full-size passes, not to mirror the composition:
    # neither layer norm materialises its affine output, token mixing is a
    # batched ``W @ x`` on the native (R, m, d) layout, and every in-place
    # update targets a buffer the kernel allocated itself.  ``params`` is the
    # block's twelve parameter arrays in registration order.

    @staticmethod
    def _gelu_gate(a: np.ndarray) -> np.ndarray:
        """``sigmoid(1.702 a)``, built in place in one fresh buffer."""
        s = np.multiply(a, -1.702)
        np.exp(s, out=s)
        s += 1.0
        np.divide(1.0, s, out=s)
        return s

    @staticmethod
    def _gelu_backward(gy: np.ndarray, y: np.ndarray, s: np.ndarray,
                       keep: Optional[np.ndarray]) -> np.ndarray:
        """``gy *= keep * gelu'(a)`` in place, from the retained ``y = a s
        keep`` and gate ``s``: ``keep gelu'(a) = keep s + 1.702 y (1 - s)``.
        Returns the scratch buffer it built the factor in, now dead."""
        t = np.subtract(1.0, s)
        t *= y
        t *= 1.702
        t += s if keep is None else s * keep
        gy *= t
        return t

    def mixer_block_forward(self, x: np.ndarray, fmask: Optional[np.ndarray],
                            params, keep_t: Optional[np.ndarray],
                            keep_c: Optional[np.ndarray], eps: float,
                            retain: bool):
        """One MLP-Mixer block on ``x`` ``(R, m, d)``; returns ``(out, saved)``.

        ``fmask`` is the ``(R, m, 1)`` float validity mask (or ``None``),
        ``keep_t`` ``(R, h_t, d)`` / ``keep_c`` ``(R, m, h_c)`` the scaled
        dropout keep-masks (or ``None``).  With ``retain`` the backward pass's
        inputs come back in ``saved`` — per sub-block the normalised input,
        its ``rstd``, the GELU output (written over its pre-activation) and
        the gate; without it ``saved`` is ``None`` and every intermediate is
        released the moment it is dead.
        """
        gam_t, bet_t, w1t, b1t, w2t, b2t, gam_c, bet_c, w1c, b1c, w2c, b2c = params
        x0 = x if fmask is None else x * fmask
        # Token mixing.  W1 @ (xhat * gamma + beta) = (W1 @ xhat) * gamma +
        # rowsum(W1) (x) beta: the affine lands on the half-size hidden.
        xhat, rstd = self._standardize(x0, eps)
        a = self.matmul(w1t, xhat)
        a *= gam_t
        a += w1t.sum(axis=1)[:, None] * bet_t + b1t[:, None]
        s = self._gelu_gate(a)
        y = np.multiply(a, s, out=a)
        if keep_t is not None:
            y *= keep_t
        x1 = self.matmul(w2t, y)
        x1 += b2t[:, None]
        x1 += x0
        saved = (fmask, xhat, rstd, y, s, keep_t) if retain else None
        # A full-size buffer that is dead by now, when there is one, takes
        # the second normalised input.
        spare = xhat if not retain else (None if fmask is None else x0)
        del x0, xhat, a, s, y
        # Channel mixing.  (xhat * gamma + beta) @ W1.T = xhat @ (W1 * gamma).T
        # + W1 @ beta: the affine folds into fc1.
        xhat, rstd = self._standardize(x1, eps, out=spare)
        a = self.matmul(xhat.reshape(-1, xhat.shape[-1]), (w1c * gam_c).T)
        a += w1c @ bet_c + b1c
        s = self._gelu_gate(a)
        y = np.multiply(a, s, out=a)
        if keep_c is not None:
            y *= keep_c.reshape(y.shape)
        if retain:
            saved += (xhat, rstd, y, s, keep_c)
        del spare, xhat, a, s
        out = self.matmul(y, w2c.T).reshape(x1.shape)
        out += b2c
        out += x1
        if fmask is not None:
            out *= fmask
        return out, saved

    def mixer_block_backward(self, g: np.ndarray, saved, params, need) -> list:
        """Gradients of :meth:`mixer_block_forward` w.r.t. ``(x, *params)``;
        ``need[i]`` says whether entry ``i`` is wanted (``None`` otherwise):
        0 is ``x``, 1-6 the token sub-block's ``gamma, beta, W1, b1, W2, b2``,
        7-12 the channel sub-block's.

        With ``P = ga.T @ xhat`` the small ``(h, d)`` product of the channel
        sub-block and ``gb' = ga.sum(0)``, the folded affine unfolds as
        ``dW1 = P * gamma + gb' (x) beta``, ``dgamma = sum_h(P * W1)`` and
        ``dbeta = gb' @ W1``; the token sub-block does the same from
        ``Q[h, m, c] = sum_r ga[r, h, c] xhat[r, m, c]``.
        """
        (fmask, xhat_t, rstd_t, y_t, s_t, keep_t,
         xhat_c, rstd_c, y_c, s_c, keep_c) = saved
        gam_t, bet_t, w1t, b1t, w2t, b2t, gam_c, bet_c, w1c, b1c, w2c, b2c = params
        rows, m, d = xhat_t.shape
        grads = [None] * 13
        gx2 = g if fmask is None else np.multiply(g, fmask, order="C")

        # Channel sub-block: out = x1 + gelu(xhat_c @ W1'.T + b1') @ W2.T + b2.
        g2d = gx2.reshape(-1, d)
        if need[11]:
            grads[11] = self.matmul(g2d.T, y_c)
        if need[12]:
            grads[12] = g2d.sum(axis=0)
        ga = self.matmul(g2d, w2c)
        scratch = self._gelu_backward(
            ga, y_c, s_c, None if keep_c is None else keep_c.reshape(y_c.shape))
        gb = ga.sum(axis=0)
        if need[7] or need[9]:
            small = self.matmul(ga.T, xhat_c.reshape(-1, d))
            if need[7]:
                grads[7] = (small * w1c).sum(axis=0)
            if need[9]:
                small *= gam_c
                small += gb[:, None] * bet_c
                grads[9] = small
        if need[8]:
            grads[8] = gb @ w1c
        if need[10]:
            grads[10] = gb
        if not any(need[:7]):
            return grads
        gx1 = self.matmul(ga, w1c * gam_c).reshape(rows, m, d)
        # Dead buffers serve as the layer-norm backward's temporary: the GELU
        # scratch here when it has the size, the masked ``g`` further down.
        self._standardize_backward(
            gx1, xhat_c, rstd_c,
            scratch.reshape(gx1.shape) if scratch.size == gx1.size else None)
        gx1 += gx2
        scratch = None if fmask is None else gx2
        del ga, g2d, gx2

        # Token sub-block: x1 = x0 + W2 @ gelu((W1 @ xhat_t) * gamma + c) + b2.
        if need[5]:
            grads[5] = self.matmul(gx1, y_t.swapaxes(1, 2)).sum(axis=0)
        if need[6]:
            grads[6] = gx1.sum(axis=(0, 2))
        ga = self.matmul(w2t.T, gx1)
        self._gelu_backward(ga, y_t, s_t, keep_t)
        gc = ga.sum(axis=0)
        if need[1] or need[3]:
            small = np.einsum("rhc,rmc->hmc", ga, xhat_t)
            if need[1]:
                grads[1] = np.einsum("hmc,hm->c", small, w1t)
            if need[3]:
                grads[3] = small @ gam_t + (gc @ bet_t)[:, None]
        if need[2]:
            grads[2] = w1t.sum(axis=1) @ gc
        if need[4]:
            grads[4] = gc.sum(axis=1)
        if need[0]:
            ga *= gam_t
            gx = self._standardize_backward(self.matmul(w1t.T, ga), xhat_t, rstd_t,
                                            scratch)
            gx += gx1
            if fmask is not None:
                gx *= fmask
            grads[0] = gx
        return grads

    # -- TGAT temporal-attention aggregate (one autograd node) ---------------
    # Time encoding -> message -> K|V -> masked multi-head attention of one
    # query per row -> ``w_out`` -> merge MLP.  The message ``h || edge ||
    # Phi(dt)`` is never built: K|V is the sum of one GEMM per part over the
    # matching weight columns, a part that is absent (``None``: the zero
    # state, no edge features) costs nothing in either pass, and the gate
    # scales the head contractions instead of the message, ``(g m) @ W =
    # g (m @ W)``.  ``params`` is the fourteen parameter arrays in
    # registration order: the time encoder's ``w, b``, then weight and bias of
    # ``w_q, w_k, w_v, w_out, merge1, merge2``.  ``w_k``'s bias shifts every
    # score of a row by the same ``q . b_k``, which the softmax cancels: it
    # enters neither pass and its gradient is exactly zero.

    def temporal_attention_forward(self, delta: np.ndarray, mask: np.ndarray,
                                   edge: Optional[np.ndarray],
                                   h_target: Optional[np.ndarray],
                                   h_neighbors: Optional[np.ndarray],
                                   gate: Optional[np.ndarray], params, num_heads: int,
                                   keep_attn: Optional[np.ndarray],
                                   keep_merge: Optional[np.ndarray], retain: bool):
        """TGAT's aggregate of ``n`` neighbors per row; returns ``(out, attn,
        saved)`` with ``out`` ``(R, d)`` and ``attn`` the ``(R, heads, n)``
        attention weights.

        ``delta`` ``(R, n)`` are the relative timespans, ``mask`` the boolean
        validity of each slot, ``edge`` ``(R, n, d_e)`` the edge features,
        ``h_target`` ``(R, d)`` / ``h_neighbors`` ``(R, n, d)`` the
        previous-layer states (``None``: all zero), ``gate`` the ``(R, n)``
        per-neighbor message scale, ``keep_attn`` / ``keep_merge`` the
        ``(R, d)`` scaled dropout keep-masks after ``w_out`` and inside the
        merge MLP.  With ``retain`` the backward pass's inputs come back in
        ``saved``; without it ``saved`` is ``None`` and the encoding and K|V
        are released the moment they are dead.
        """
        tw, tb, wq, bq, wk, _, wv, bv, wo, bo, m1, c1, m2, c2 = params
        rows, n = delta.shape
        width, d_t = wo.shape[0], tw.shape[0]
        d_h = wq.shape[1] - d_t
        heads = (num_heads, width // num_heads)

        te = delta[..., None] * tw
        te += tb
        np.cos(te, out=te)
        wkv = np.concatenate((wk, wv))
        kv = self.matmul(te.reshape(-1, d_t), wkv[:, -d_t:].T)
        if edge is not None:
            kv += self.matmul(edge.reshape(rows * n, -1), wkv[:, d_h:-d_t].T)
        if h_neighbors is not None:
            kv += self.matmul(h_neighbors.reshape(-1, d_h), wkv[:, :d_h].T)
        kv = kv.reshape(rows, n, 2, *heads)
        saved = (delta, edge, h_target, h_neighbors, gate, te, kv) if retain else None
        del te

        # The query's time half encodes a zero timespan: cos(b) for every row.
        q = self.matmul(wq[:, d_h:], np.cos(tb))
        q += bq
        if h_target is not None:
            q = q + self.matmul(h_target, wq[:, :d_h].T)
        q = np.broadcast_to(q.reshape(-1, *heads), (rows, *heads))
        sp = np.einsum("rhd,rjhd->rhj", q, kv[:, :, 0])
        attn = sp * (1.0 / np.sqrt(heads[1]))
        if gate is not None:
            attn *= gate[:, None, :]
        attn += np.where(mask, 0.0, -1e30)[:, None, :]
        attn -= attn.max(axis=-1, keepdims=True)
        np.exp(attn, out=attn)
        attn /= attn.sum(axis=-1, keepdims=True)
        # A row with no valid slot softmaxes to uniform; the mask zeroes it.
        attn *= mask[:, None, :]
        att = np.einsum("rhj,rjhd->rhd",
                        attn if gate is None else attn * gate[:, None, :], kv[:, :, 1])
        att += attn.sum(axis=-1)[..., None] * bv.reshape(heads)
        att = att.reshape(rows, width)
        del kv

        o = self.matmul(att, wo.T)
        o += bo
        if keep_attn is not None:
            o *= keep_attn
        y = self.matmul(o, m1[:, :width].T)
        if h_target is not None:
            y += self.matmul(h_target, m1[:, width:].T)
        y += c1
        np.maximum(y, 0.0, out=y)
        if keep_merge is not None:
            y *= keep_merge
        out = self.matmul(y, m2.T)
        out += c2
        if retain:
            saved += (q, sp, attn, att, o, y, keep_attn, keep_merge)
        return out, attn, saved

    def temporal_attention_backward(self, g: np.ndarray, saved, params, need) -> list:
        """Gradients of :meth:`temporal_attention_forward` w.r.t. ``(h_target,
        h_neighbors, gate, *params)``; ``need[i]`` says whether entry ``i`` is
        wanted (``None`` otherwise).

        With ``gkv`` the gradient at the pre-gate K|V, each weight-column
        block of ``w_k`` / ``w_v`` is ``gkv.T @ part`` and only the parts that
        have one get an input gradient: ``gkv @ W[:, t]`` for the time
        encoding always, ``gkv @ W[:, h]`` for a live ``h_neighbors`` that
        requires it, nothing for the edge features.  The gate's gradient
        needs no pass over K|V: it is ``sum_h (gw * attn + gs * sp)`` with
        ``gw`` / ``gs`` the gradients at the gated weights and scores.
        """
        (delta, edge, h_target, h_neighbors, gate, te, kv,
         q, sp, attn, att, o, y, keep_attn, keep_merge) = saved
        tw, tb, wq, _, wk, bk, wv, _, wo, _, m1, _, m2, _ = params
        rows, n = delta.shape
        width, d_t = wo.shape[0], tw.shape[0]
        d_h = wq.shape[1] - d_t
        heads = kv.shape[3:]
        grads = [None] * 17

        # Merge MLP and w_out, on (R, d) arrays.
        grads[15], grads[16] = self.matmul(g.T, y), g.sum(axis=0)
        gz = self.matmul(g, m2)
        gz *= y > 0
        if keep_merge is not None:
            gz *= keep_merge
        grads[13] = np.zeros_like(m1)
        grads[13][:, :width] = self.matmul(gz.T, o)
        if h_target is not None:
            grads[13][:, width:] = self.matmul(gz.T, h_target)
        grads[14] = gz.sum(axis=0)
        go = self.matmul(gz, m1[:, :width])
        if keep_attn is not None:
            go *= keep_attn
        grads[11], grads[12] = self.matmul(go.T, att), go.sum(axis=0)
        gatt = self.matmul(go, wo).reshape(rows, *heads)
        grads[10] = np.einsum("rh,rhd->hd", attn.sum(axis=-1), gatt).reshape(width)

        # Attention.  ``b_v``'s share of the weight gradient is constant over
        # a row's slots, so the softmax backward cancels it like ``b_k``.
        gw = np.einsum("rhd,rjhd->rhj", gatt, kv[:, :, 1])
        gs = gw if gate is None else gw * gate[:, None, :]
        gs = gs - np.einsum("rhj,rhj->rh", gs, attn)[..., None]
        gs *= attn
        gs *= 1.0 / np.sqrt(heads[1])
        if need[2]:
            grads[2] = (gw * attn + gs * sp).sum(axis=1)
        wgt = attn
        if gate is not None:
            gs *= gate[:, None, :]
            wgt = attn * gate[:, None, :]
        gkv = np.empty_like(kv)
        np.multiply(gs.swapaxes(1, 2)[..., None], q[:, None], out=gkv[:, :, 0])
        np.multiply(wgt.swapaxes(1, 2)[..., None], gatt[:, None], out=gkv[:, :, 1])
        gkv = gkv.reshape(rows * n, 2 * width)

        # Query: its time half is the constant cos(b).
        gq = np.einsum("rhj,rjhd->rhd", gs, kv[:, :, 0]).reshape(rows, width)
        grads[6] = gq.sum(axis=0)
        grads[5] = np.zeros_like(wq)
        grads[5][:, d_h:] = np.outer(grads[6], np.cos(tb))
        if h_target is not None:
            grads[5][:, :d_h] = self.matmul(gq.T, h_target)
        if need[0]:
            grads[0] = self.matmul(gz, m1[:, width:])
            grads[0] += self.matmul(gq, wq[:, :d_h])

        # K|V projection, one column block per message part.
        wkv = np.concatenate((wk, wv))
        if need[7] or need[9]:
            gwkv = np.zeros_like(wkv)
            gwkv[:, -d_t:] = self.matmul(gkv.T, te.reshape(-1, d_t))
            if edge is not None:
                gwkv[:, d_h:-d_t] = self.matmul(gkv.T, edge.reshape(rows * n, -1))
            if h_neighbors is not None:
                gwkv[:, :d_h] = self.matmul(gkv.T, h_neighbors.reshape(-1, d_h))
            grads[7], grads[9] = gwkv[:width], gwkv[width:]
        grads[8] = np.zeros_like(bk)
        if need[1]:
            grads[1] = self.matmul(gkv, wkv[:, :d_h]).reshape(rows, n, d_h)

        # Time encoder: d cos(phase) = -sin(phase), the phase rebuilt here.
        if need[3] or need[4]:
            gphase = delta[..., None] * tw
            gphase += tb
            np.sin(gphase, out=gphase)
            gphase *= self.matmul(gkv, wkv[:, -d_t:]).reshape(rows, n, d_t)
            grads[3] = -np.einsum("rjt,rj->t", gphase, delta)
            grads[4] = -gphase.sum(axis=(0, 1))
            grads[4] -= np.sin(tb) * (grads[6] @ wq[:, d_h:])
        return [grad if wanted else None for grad, wanted in zip(grads, need)]


# ---------------------------------------------------------------------------
# fused backend — same ops, out=/in-place over workspace arenas
# ---------------------------------------------------------------------------


def _reduced_shape(shape: Tuple[int, ...], axis,
                   keepdims: bool) -> Optional[Tuple[int, ...]]:
    """Result shape of a reduction over ``axis``; None when not arena-eligible."""
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    try:
        axes = tuple(a % len(shape) for a in axes)
    except ZeroDivisionError:  # 0-d input
        return None
    if keepdims:
        return tuple(1 if i in axes else s for i, s in enumerate(shape))
    out = tuple(s for i, s in enumerate(shape) if i not in axes)
    return out if out else None


class FusedBackend(ReferenceBackend):
    """Allocation-avoiding kernels over per-shape workspace arenas.

    Every override performs the *same* NumPy operations in the *same* order
    as :class:`ReferenceBackend` — only the destination of each result
    changes, from a fresh allocation to an ``out=`` workspace buffer.  Mixed
    or non-float64 operands fall back to the reference expression (the
    engine standardises on float64, so the hot path is always eligible).
    """

    name = "fused"

    def __init__(self) -> None:
        self._tls = threading.local()

    # -- arena plumbing ------------------------------------------------------

    @property
    def arena(self) -> WorkspaceArena:
        """The active arena: the scoped one, else this thread's default."""
        arena = getattr(self._tls, "arena", None)
        if arena is None:
            arena = self._tls.arena = WorkspaceArena()
        return arena

    def begin_batch(self) -> None:
        self.arena.reset()

    def workspace_snapshot(self) -> Dict[str, int]:
        return self.arena.stats()

    def new_arena(self) -> WorkspaceArena:
        return WorkspaceArena()

    @contextlib.contextmanager
    def arena_scope(self, arena: Optional[WorkspaceArena]):
        if arena is None:
            yield None
            return
        previous = getattr(self._tls, "arena", None)
        self._tls.arena = arena
        try:
            yield arena
        finally:
            self._tls.arena = previous

    def _out(self, shape, dtype=np.float64) -> np.ndarray:
        return self.arena.take(shape, dtype)

    # -- eligibility helpers -------------------------------------------------
    # Three things gate the fast paths:
    #
    # * Overhead — at CPU-benchmark scales most arrays are small, so a couple
    #   of microseconds of shape/dtype negotiation per op (np.broadcast_shapes
    #   alone costs ~2us) can cancel the allocation win.  Equal-shape float64
    #   pairs and array-scalar pairs — the overwhelming majority of hot-path
    #   calls — take a buffer with no negotiation at all.
    #
    # * Output size — checkouts below ARENA_MIN_ELEMENTS skip the arena
    #   entirely (see the constant's rationale); each fast path guards on the
    #   would-be output's element count via ``_worth``.
    #
    # * Layout fidelity — ufuncs *without* ``out=`` propagate the input's
    #   memory order (K-order): ``np.add(x.T, 0.0)`` yields an F-layout
    #   array.  A C-contiguous workspace buffer would silently change the
    #   layout a downstream pairwise-summed reduction sees, and pairwise
    #   summation segments strided and contiguous buffers differently —
    #   a one-ulp divergence from the reference.  Every array operand must
    #   therefore be C-contiguous for an ``out=`` buffer to be used; other
    #   layouts fall back to the reference expression (matmul and the
    #   reductions are exempt: their outputs are C-contiguous either way).

    @staticmethod
    def _f64(x) -> bool:
        return (isinstance(x, np.ndarray) and x.dtype == _F64 and x.ndim > 0
                and x.flags.c_contiguous)

    @staticmethod
    def _worth(size: int) -> bool:
        """Whether an output of ``size`` elements is worth an arena checkout."""
        return size >= ARENA_MIN_ELEMENTS

    def _binary(self, ufunc, ref, a, b):
        """``ufunc(a, b)`` into a workspace buffer when the result is float64."""
        if isinstance(a, np.ndarray) and a.dtype == _F64 and a.ndim > 0 \
                and a.flags.c_contiguous:
            if isinstance(b, np.ndarray):
                if b.shape == a.shape and (b.dtype == _F64 or b.dtype == _BOOL) \
                        and b.flags.c_contiguous:
                    if not self._worth(a.size):
                        return ref(a, b)
                    return ufunc(a, b, out=self.arena.take(a.shape))
            elif isinstance(b, (int, float)):
                if not self._worth(a.size):
                    return ref(a, b)
                return ufunc(a, b, out=self.arena.take(a.shape))
        elif isinstance(a, (int, float)) and self._f64(b):
            if not self._worth(b.size):
                return ref(a, b)
            return ufunc(a, b, out=self.arena.take(b.shape))
        # General (broadcasting / mixed-dtype) path.
        if not isinstance(a, np.ndarray) or not isinstance(b, np.ndarray):
            return ref(a, b)
        if not ((a.dtype == _F64 or a.dtype == _BOOL)
                and (b.dtype == _F64 or b.dtype == _BOOL)
                and (a.dtype == _F64 or b.dtype == _F64)
                and a.flags.c_contiguous and b.flags.c_contiguous):
            return ref(a, b)
        try:
            shape = np.broadcast_shapes(a.shape, b.shape)
        except ValueError:
            return ref(a, b)
        if shape == ():
            return ref(a, b)
        size = 1
        for dim in shape:
            size *= dim
        if not self._worth(size):
            return ref(a, b)
        return ufunc(a, b, out=self.arena.take(shape))

    def _unary(self, ufunc, ref, x):
        if not self._f64(x) or not self._worth(x.size):
            return ref(x)
        return ufunc(x, out=self.arena.take(x.shape))

    # -- element-wise primitives ---------------------------------------------

    def add(self, a, b):
        return self._binary(np.add, super().add, a, b)

    def subtract(self, a, b):
        return self._binary(np.subtract, super().subtract, a, b)

    def multiply(self, a, b):
        return self._binary(np.multiply, super().multiply, a, b)

    def divide(self, a, b):
        return self._binary(np.divide, super().divide, a, b)

    def power(self, x, exponent):
        return self._binary(np.power, super().power, x, exponent)

    def maximum(self, a, b):
        return self._binary(np.maximum, super().maximum, a, b)

    def negative(self, x):
        return self._unary(np.negative, super().negative, x)

    def exp(self, x):
        return self._unary(np.exp, super().exp, x)

    def log(self, x):
        return self._unary(np.log, super().log, x)

    def sqrt(self, x):
        return self._unary(np.sqrt, super().sqrt, x)

    def cos(self, x):
        return self._unary(np.cos, super().cos, x)

    def sin(self, x):
        return self._unary(np.sin, super().sin, x)

    def absolute(self, x):
        return self._unary(np.abs, super().absolute, x)

    def clip(self, x, low, high):
        if not self._f64(x) or not self._worth(x.size):
            return super().clip(x, low, high)
        return np.clip(x, low, high, out=self._out(x.shape))

    def matmul(self, a, b):
        if (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == _F64 and b.dtype == _F64
                and a.ndim >= 2 and b.ndim >= 2):
            batch_a, batch_b = a.shape[:-2], b.shape[:-2]
            if batch_a == batch_b:
                batch = batch_a
            else:
                try:
                    batch = np.broadcast_shapes(batch_a, batch_b)
                except ValueError:
                    return super().matmul(a, b)
            shape = batch + (a.shape[-2], b.shape[-1])
            size = 1
            for dim in shape:
                size *= dim
            if not self._worth(size):
                return super().matmul(a, b)
            return np.matmul(a, b, out=self.arena.take(shape))
        return super().matmul(a, b)

    def concatenate(self, arrays, axis: int = -1):
        arrays = list(arrays)
        if not arrays or not all(self._f64(a) for a in arrays):
            return super().concatenate(arrays, axis=axis)
        first = arrays[0].shape
        try:
            ax = axis % len(first)
        except ZeroDivisionError:
            return super().concatenate(arrays, axis=axis)
        rest = first[:ax] + first[ax + 1:]
        if any(a.ndim != len(first) or a.shape[:ax] + a.shape[ax + 1:] != rest
               for a in arrays[1:]):
            return super().concatenate(arrays, axis=axis)
        shape = first[:ax] + (sum(a.shape[ax] for a in arrays),) + first[ax + 1:]
        size = 1
        for dim in shape:
            size *= dim
        if not self._worth(size):
            return super().concatenate(arrays, axis=axis)
        return np.concatenate(arrays, axis=axis, out=self._out(shape))

    # -- reductions ----------------------------------------------------------

    def _reduce(self, fn, ref, x, axis, keepdims):
        if not self._f64(x) or axis is None:
            return ref(x, axis=axis, keepdims=keepdims)
        shape = _reduced_shape(x.shape, axis, keepdims)
        if shape is None:
            return ref(x, axis=axis, keepdims=keepdims)
        size = 1
        for dim in shape:
            size *= dim
        if not self._worth(size):
            return ref(x, axis=axis, keepdims=keepdims)
        return fn(x, axis=axis, keepdims=keepdims, out=self._out(shape))

    def sum(self, x, axis=None, keepdims: bool = False):
        return self._reduce(np.sum, super().sum, x, axis, keepdims)

    def mean(self, x, axis=None, keepdims: bool = False):
        return self._reduce(np.mean, super().mean, x, axis, keepdims)

    # -- gradient plumbing ---------------------------------------------------

    def grad_zeros(self, like: np.ndarray) -> np.ndarray:
        # Workspace buffers are C-contiguous; only substitute one when the
        # reference np.zeros_like would be C-contiguous too.
        if (isinstance(like, np.ndarray) and like.flags.c_contiguous
                and self._worth(like.size)):
            buf = self._out(like.shape)
            buf.fill(0.0)
            return buf
        return super().grad_zeros(like)

    def index_add(self, like: np.ndarray, index, grad) -> np.ndarray:
        out = self.grad_zeros(like)
        np.add.at(out, index, grad)
        return out

    def broadcast_grad(self, grad, shape) -> np.ndarray:
        # Arena-serve only the no-op broadcast (a plain astype copy, which is
        # C-contiguous in the reference too).  A real broadcast keeps the
        # reference expression: its K-order astype preserves the broadcast
        # stride pattern, and forcing a C buffer would change the layout a
        # downstream pairwise-summed reduction sees (one-ulp divergence).
        if self._f64(grad) and grad.shape == tuple(shape) \
                and self._worth(grad.size):
            out = self._out(grad.shape)
            np.copyto(out, grad)
            return out
        return super().broadcast_grad(grad, shape)

    # -- fused composite kernels ---------------------------------------------
    # Each kernel chains the reference expression's ufuncs through one (or
    # two) workspace buffers; op order is identical, so outputs are bitwise
    # equal while the reference's N temporaries collapse to the buffers below.

    def softmax_forward(self, x: np.ndarray, axis: int) -> np.ndarray:
        if not self._f64(x) or not self._worth(x.size):
            return super().softmax_forward(x, axis)
        out = self._out(x.shape)
        np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
        np.exp(out, out=out)
        np.divide(out, out.sum(axis=axis, keepdims=True), out=out)
        return out

    def softmax_backward(self, g: np.ndarray, y: np.ndarray, axis: int) -> np.ndarray:
        if not (self._f64(g) and self._f64(y) and self._worth(y.size)):
            return super().softmax_backward(g, y, axis)
        out = self._out(y.shape)
        np.multiply(g, y, out=out)
        dot = out.sum(axis=axis, keepdims=True)
        np.subtract(g, dot, out=out)
        np.multiply(y, out, out=out)
        return out

    def log_softmax_forward(self, x: np.ndarray, axis: int) -> np.ndarray:
        if not self._f64(x) or not self._worth(x.size):
            return super().log_softmax_forward(x, axis)
        out = self._out(x.shape)
        np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
        e = self.arena.scratch(x.shape)
        np.exp(out, out=e)
        lse = np.log(e.sum(axis=axis, keepdims=True))
        self.arena.give_back(e)
        np.subtract(out, lse, out=out)
        return out

    def log_softmax_backward(self, g: np.ndarray, soft: np.ndarray,
                             axis: int) -> np.ndarray:
        if not (self._f64(g) and self._f64(soft) and self._worth(g.size)):
            return super().log_softmax_backward(g, soft, axis)
        out = self._out(g.shape)
        np.multiply(soft, g.sum(axis=axis, keepdims=True), out=out)
        np.subtract(g, out, out=out)
        return out

    def sigmoid_forward(self, x: np.ndarray) -> np.ndarray:
        if not self._f64(x) or not self._worth(x.size):
            return super().sigmoid_forward(x)
        out = self._out(x.shape)
        np.negative(x, out=out)
        np.exp(out, out=out)
        np.add(1.0, out, out=out)
        np.divide(1.0, out, out=out)
        return out

    def sigmoid_backward(self, g: np.ndarray, y: np.ndarray) -> np.ndarray:
        if not (self._f64(g) and self._f64(y) and self._worth(y.size)):
            return super().sigmoid_backward(g, y)
        out = self._out(y.shape)
        np.multiply(g, y, out=out)
        t = self.arena.scratch(y.shape)
        np.subtract(1.0, y, out=t)
        np.multiply(out, t, out=out)
        self.arena.give_back(t)
        return out

    def tanh_forward(self, x: np.ndarray) -> np.ndarray:
        return self._unary(np.tanh, super().tanh_forward, x)

    def tanh_backward(self, g: np.ndarray, y: np.ndarray) -> np.ndarray:
        if not (self._f64(g) and self._f64(y) and self._worth(y.size)):
            return super().tanh_backward(g, y)
        out = self._out(y.shape)
        np.power(y, 2, out=out)
        np.subtract(1.0, out, out=out)
        np.multiply(g, out, out=out)
        return out

    def gelu_forward(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        if not self._f64(x) or not self._worth(x.size):
            return super().gelu_forward(x)
        s = self._out(x.shape)          # retained: the backward pass reads it
        np.multiply(-1.702, x, out=s)
        np.exp(s, out=s)
        np.add(1.0, s, out=s)
        np.divide(1.0, s, out=s)
        out = self._out(x.shape)
        np.multiply(x, s, out=out)
        return out, s

    def gelu_backward(self, g: np.ndarray, x: np.ndarray,
                      s: np.ndarray) -> np.ndarray:
        if not (self._f64(g) and self._f64(x) and self._f64(s)
                and self._worth(x.size)):
            return super().gelu_backward(g, x, s)
        out = self._out(x.shape)
        np.multiply(1.702, x, out=out)
        np.multiply(out, s, out=out)
        t = self.arena.scratch(x.shape)
        np.subtract(1.0, s, out=t)
        np.multiply(out, t, out=out)
        self.arena.give_back(t)
        np.add(s, out, out=out)
        np.multiply(g, out, out=out)
        return out

    def relu_forward(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        if not self._f64(x) or not self._worth(x.size):
            return super().relu_forward(x)
        mask = x > 0
        return np.multiply(x, mask, out=self._out(x.shape)), mask

    def relu_backward(self, g: np.ndarray, mask: np.ndarray) -> np.ndarray:
        return self.multiply(g, mask)

    def fixed_time_encoding(self, dt: np.ndarray,
                            omega: np.ndarray) -> np.ndarray:
        if not (self._f64(dt) and self._f64(omega)
                and self._worth(dt.size * omega.shape[-1])):
            return super().fixed_time_encoding(dt, omega)
        out = self._out(dt.shape + (omega.shape[-1],))
        np.multiply(dt[..., None], omega, out=out)
        np.cos(out, out=out)
        return out


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# Imported here, after the backend classes, so this module stays importable
# even when ``repro.core``'s package init is what (indirectly) triggered our
# own import: the registry submodule is a dependency-free leaf, and by this
# point every class a partially-initialised importer could need is defined.
from ..core.registry import Registry  # noqa: E402

#: the shared name->factory store + flag > REPRO_BACKEND > default resolution
#: (see :class:`repro.core.registry.Registry`).  Singleton instances and the
#: process-global active backend stay here: they are array-backend semantics
#: (warmed-up workspace arenas survive re-installs), not registry semantics.
_REGISTRY: "Registry[ArrayBackend]" = Registry(
    "array backend", env_var=BACKEND_ENV_VAR, default=DEFAULT_BACKEND,
    hint="pick one via --backend, TaserConfig.array_backend or "
         f"{BACKEND_ENV_VAR}")
_INSTANCES: Dict[str, ArrayBackend] = {}
_ACTIVE: Optional[ArrayBackend] = None


def register_backend(name: str, factory: Callable[[], ArrayBackend]) -> None:
    """Register a backend factory under ``name`` (overwrites silently).

    Overwriting evicts any cached instance of the old factory — and
    re-installs under the new one if it was the active backend — so the
    replacement actually takes effect instead of the singleton cache serving
    the stale instance forever.
    """
    global _ACTIVE
    _REGISTRY.register(name, factory)
    stale = _INSTANCES.pop(name, None)
    if stale is not None and _ACTIVE is stale:
        _ACTIVE = None
        set_backend(name)


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return _REGISTRY.names()


def resolve_backend_name(name: Optional[str] = None) -> str:
    """Resolve a backend name: explicit > ``REPRO_BACKEND`` env > default.

    Raises ``ValueError`` with the registered names when the resolved name is
    unknown, so config/CLI validation can surface an actionable message.
    """
    return _REGISTRY.resolve(name)


def set_backend(name: str) -> ArrayBackend:
    """Install the named backend as the process-global active backend.

    Backend instances are per-name singletons so a re-install keeps the
    fused backend's warmed-up workspace arenas.
    """
    global _ACTIVE
    name = resolve_backend_name(name)
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = _INSTANCES[name] = _REGISTRY.get(name)()
    _ACTIVE = instance
    return instance


def get_backend() -> ArrayBackend:
    """The active backend (lazily honouring ``REPRO_BACKEND`` on first use)."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = set_backend(resolve_backend_name(None))
    return _ACTIVE


@contextlib.contextmanager
def use_backend(name: str):
    """Context manager: install ``name``, restore the previous backend after."""
    previous = get_backend()
    backend = set_backend(name)
    try:
        yield backend
    finally:
        set_backend(previous.name)


register_backend("reference", ReferenceBackend)
register_backend("fused", FusedBackend)
