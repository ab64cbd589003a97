"""The array runtime: every kernel of the autodiff engine, over NumPy.

Every ndarray operation the :class:`~repro.tensor.tensor.Tensor` engine (and
the layers built on it) performs in a forward or backward pass goes through
the one :class:`ReferenceBackend` instance that :func:`get_backend` returns.
The class *is* the kernel surface: element-wise primitives, reductions,
gradient plumbing and the composite forward / backward kernel pairs
(LayerNorm, Linear, the MLP-Mixer block, TGAT's temporal attention) that back
one autograd node each.  Every kernel allocates its result and owns what it
returns; none writes into the ``g`` it receives (see "Gradient ownership" in
:mod:`repro.tensor.tensor`).

There is one runtime and nothing to select.  What the seam is for is
*observation*: callers resolve a kernel by attribute lookup on the instance at
call time (``get_backend().matmul(a, b)``, never a bound method cached at
import), so a tracer can count or time kernels by setting wrappers on that
instance — ``benchmarks/e2e/tracer.py`` wraps every public function of the
class this way.  Two rules keep that count honest: every public method of
:class:`ReferenceBackend` is a kernel (helpers are underscore-prefixed;
``tests/test_backend.py`` holds the list), and composite kernels run their
GEMMs through ``self.matmul`` so they are counted too.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["ReferenceBackend", "MixedDtypeError", "get_backend"]


class MixedDtypeError(TypeError):
    """A composite kernel was handed floating arrays of more than one dtype."""


class ReferenceBackend:
    """The kernel surface of the autodiff engine, as plain NumPy expressions.

    No kernel names a dtype: a result has the dtype of the kernel's floating
    inputs, whatever it is.  The one exception is the time-encoding *phase*
    ``dt * w + b`` (:meth:`_time_phase`), double precision whatever the dtype
    of ``w``: timespans reach 1e6-1e7, and float32's 24 bits would lose the
    phase before the cosine is taken.
    """

    name = "reference"

    @staticmethod
    def _one_float_dtype(like: np.ndarray, *others: Optional[np.ndarray]) -> None:
        """Raise :class:`MixedDtypeError` unless the floating arrays among
        ``others`` have the dtype of the floating array ``like``.  The
        composite kernels update buffers in place, and an in-place ``a *= b``
        casts ``b``'s contribution to ``a.dtype`` without complaint — mixed
        inputs would silently compute part of the kernel in the narrower
        type."""
        dtype = like.dtype
        for a in others:
            if a is not None and a.dtype != dtype and a.dtype.kind == "f":
                raise MixedDtypeError(
                    f"composite kernel got both {dtype} and {a.dtype} inputs; "
                    "cast them to one dtype at the boundary that produced them")

    @staticmethod
    def _time_phase(dt: np.ndarray, w: np.ndarray,
                    b: Optional[np.ndarray] = None) -> np.ndarray:
        """The time-encoding phase ``dt[..., None] * w + b``, in float64."""
        phase = np.multiply(dt[..., None], w, dtype=np.float64)
        if b is not None:
            phase += b
        return phase

    def _time_encoding(self, dt: np.ndarray, w: np.ndarray, b: Optional[np.ndarray],
                       dtype) -> np.ndarray:
        """``cos(dt[..., None] * w + b)`` as a ``dtype`` array: the cosine is
        taken of the float64 phase, then cast."""
        phase = self._time_phase(dt, w, b)
        return np.cos(phase, out=phase).astype(dtype, copy=False)

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
        """Zero-initialised gradient buffer with the shape, dtype and layout
        of ``like`` (K-order, exactly what ``np.zeros_like`` has always done —
        gradient-buffer layout feeds downstream pairwise-summed reductions)."""
        return np.zeros_like(like)

    def index_add(self, like: np.ndarray, index, grad) -> np.ndarray:
        """Scatter-add ``grad`` into a zeroed buffer (fancy-index backward)."""
        out = np.zeros_like(like)
        np.add.at(out, index, grad)
        return out

    def broadcast_grad(self, grad, shape) -> np.ndarray:
        """Materialise ``grad`` broadcast to ``shape`` (reduction backward)."""
        return np.broadcast_to(grad, shape).copy(order="K")

    # -- softmax / activation kernels (one autograd node each) ---------------

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

    def fixed_time_encoding(self, dt: np.ndarray, omega: np.ndarray,
                            dtype) -> np.ndarray:
        """GraphMixer's fixed sinusoidal encoding ``cos(dt[..., None] * omega)``
        as a ``dtype`` array (:meth:`_time_encoding`)."""
        return self._time_encoding(dt, omega, None, dtype)

    def time_encoding_forward(self, dt: np.ndarray, w: np.ndarray,
                              b: np.ndarray) -> np.ndarray:
        """TGAT's learnable encoding ``cos(dt[..., None] * w + b)`` in the
        dtype of ``w`` (:meth:`_time_encoding`)."""
        return self._time_encoding(dt, w, b, w.dtype)

    def time_encoding_backward(self, g: np.ndarray, dt: np.ndarray, w: np.ndarray,
                               b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(gw, gb)`` of :meth:`time_encoding_forward`, reduced from the
        float64 phase and cast once."""
        gphase = self._time_phase(dt, w, b)
        np.sin(gphase, out=gphase)
        gphase *= g
        gphase = gphase.reshape(-1, w.shape[0])
        gw = -(dt.reshape(-1) @ gphase)
        gb = -gphase.sum(axis=0)
        return gw.astype(w.dtype, copy=False), gb.astype(b.dtype, copy=False)

    # -- composite layer kernels (one autograd node each) --------------------
    # LayerNorm, Linear, the mixer block and the temporal attention are one
    # kernel pair each.  The kernels own what they return and update only
    # buffers they allocated themselves — never the ``g`` they receive (see
    # "Gradient ownership" in :mod:`repro.tensor.tensor`).

    def layer_norm_forward(self, x: np.ndarray, w: np.ndarray, b: np.ndarray,
                           eps: float
                           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Layer norm over the last axis; returns ``(out, xhat, rstd)``.

        ``xhat`` (the normalised input) and ``rstd`` (``1 / sqrt(var + eps)``,
        one value per row) are all the backward pass needs; ``xhat`` and
        ``out`` are the only full-size arrays allocated.
        """
        self._one_float_dtype(x, w, b)
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
        self._one_float_dtype(a2d, w, b)
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
        self._one_float_dtype(x, fmask, keep_t, keep_c, *params)
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

        ``delta`` ``(R, n)`` are the relative timespans (float64 timestamps
        differences, whatever the dtype of everything else: only the cosine of
        their phase is a model quantity), ``mask`` the boolean
        validity of each slot, ``edge`` ``(R, n, d_e)`` the edge features,
        ``h_target`` ``(R, d)`` / ``h_neighbors`` ``(R, n, d)`` the
        previous-layer states (``None``: all zero), ``gate`` the ``(R, n)``
        per-neighbor message scale, ``keep_attn`` / ``keep_merge`` the
        ``(R, d)`` scaled dropout keep-masks after ``w_out`` and inside the
        merge MLP.  With ``retain`` the backward pass's inputs come back in
        ``saved``; without it ``saved`` is ``None`` and the encoding and K|V
        are released the moment they are dead.
        """
        self._one_float_dtype(params[0], edge, h_target, h_neighbors, gate,
                              keep_attn, keep_merge, *params[1:])
        tw, tb, wq, bq, wk, _, wv, bv, wo, bo, m1, c1, m2, c2 = params
        rows, n = delta.shape
        width, d_t = wo.shape[0], tw.shape[0]
        d_h = wq.shape[1] - d_t
        heads = (num_heads, width // num_heads)

        te = self._time_encoding(delta, tw, tb, tw.dtype)
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
        # A Python float: a numpy scalar is strong under NEP 50 and would
        # promote the product.
        attn = sp * float(1.0 / np.sqrt(heads[1]))
        if gate is not None:
            attn *= gate[:, None, :]
        attn += np.where(mask, attn.dtype.type(0.0), attn.dtype.type(-1e30))[:, None, :]
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
        gs *= float(1.0 / np.sqrt(heads[1]))
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
            # Reduced from the float64 phase, cast once.
            gphase = self._time_phase(delta, tw, tb)
            np.sin(gphase, out=gphase)
            gphase *= self.matmul(gkv, wkv[:, -d_t:]).reshape(rows, n, d_t)
            gtb = -gphase.sum(axis=(0, 1))
            gtb -= np.sin(tb) * (grads[6] @ wq[:, d_h:])
            grads[3] = (-np.einsum("rjt,rj->t", gphase, delta)).astype(tw.dtype,
                                                                       copy=False)
            grads[4] = gtb.astype(tb.dtype, copy=False)
        return [grad if wanted else None for grad, wanted in zip(grads, need)]


_BACKEND = ReferenceBackend()


def get_backend() -> ReferenceBackend:
    """The process's one array runtime instance."""
    return _BACKEND
