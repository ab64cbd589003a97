"""The array runtime: every kernel of the autodiff engine, over NumPy.

Every ndarray operation the :class:`~repro.tensor.tensor.Tensor` engine (and
the layers built on it) performs in a forward or backward pass goes through
the one :class:`ReferenceBackend` instance that :func:`get_backend` returns.
The class *is* the kernel surface: element-wise primitives, reductions,
gradient plumbing and the composite forward / backward kernel pairs
(LayerNorm, Linear, the MLP-Mixer block, TGAT's temporal attention, the
adaptive sampler's encoder and head, ...) that back one autograd node each.
Every kernel allocates its result and owns what it returns; none writes into
the ``g`` it receives (see "Gradient ownership" in :mod:`repro.tensor.tensor`).

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


def _is_basic(item) -> bool:
    """Whether ``item`` indexes basically: a slice, ``Ellipsis`` or an integer
    (not a bool, which NumPy reads as a mask)."""
    return (item is Ellipsis or isinstance(item, (slice, int, np.integer))
            and not isinstance(item, bool))


class ReferenceBackend:
    """The kernel surface of the autodiff engine, as plain NumPy expressions.

    No kernel names a dtype: a result has the dtype of the kernel's floating
    inputs, whatever it is.  The one exception is the time-encoding *phase*
    ``dt * w + b`` (:meth:`_reduced_phase`), built and reduced into
    ``[-pi, pi]`` in double precision whatever the dtype of ``w``: timespans
    reach 1e6-1e7, and float32's 24 bits would lose the phase before the
    cosine is taken.  Once reduced it is cast, and its cosine and sine are
    taken in the compute dtype.
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
    def _reduced_phase(dt: np.ndarray, w: np.ndarray, b: Optional[np.ndarray],
                       dtype) -> np.ndarray:
        """The time-encoding phase ``dt[..., None] * w + b`` as a ``dtype``
        array, reduced into ``[-pi, pi]`` before the cast.

        The phase is built in float64 and ``2 pi rint(phase / 2 pi)`` is
        subtracted in float64, so the cast rounds a number of magnitude at
        most pi, whatever the timespan: a float32 cosine or sine of the result
        is within 2e-7 of the float64 function of the unreduced phase (the
        bound of ``tests/test_compute_dtype.py::TestTimePhasePrecision`` is
        1e-6).  An unreduced float32 phase would be off by radians at a
        timespan of 1e7.
        """
        phase = np.multiply(dt[..., None], w, dtype=np.float64)
        if b is not None:
            phase += b
        turns = np.multiply(phase, 1.0 / (2.0 * np.pi))
        np.rint(turns, out=turns)
        turns *= -2.0 * np.pi
        phase += turns
        del turns
        return phase.astype(dtype, copy=False)

    def _time_encoding(self, dt: np.ndarray, w: np.ndarray, b: Optional[np.ndarray],
                       dtype) -> np.ndarray:
        """``cos(dt[..., None] * w + b)`` as a ``dtype`` array: the cosine of
        the reduced phase, taken in ``dtype``."""
        phase = self._reduced_phase(dt, w, b, dtype)
        return np.cos(phase, out=phase)

    def _time_encoding_grads(self, g: np.ndarray, dt: np.ndarray, w: np.ndarray,
                             b: Optional[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
        """``(gw, gb)`` of :meth:`_time_encoding` under the output gradient
        ``g``: ``d cos = -sin``, the sine taken of the reduced phase in the
        dtype of ``g``; ``g sin`` is formed in the float64 of the timespans
        ``dt``, and both reductions over its rows are one float64 product
        with the rows ``dt`` and ``1`` (the caller casts the result once)."""
        sine = self._reduced_phase(dt, w, b, g.dtype)
        np.sin(sine, out=sine)
        gphase = np.multiply(sine, g, dtype=dt.dtype).reshape(-1, w.shape[0])
        gw, gb = np.stack((dt.reshape(-1), np.ones(dt.size))) @ gphase
        return -gw, -gb

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

    def absolute(self, x):
        return np.abs(x)

    def sign(self, x):
        return np.sign(x)

    def maximum(self, a, b):
        return np.maximum(a, b)

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

    # -- gradient plumbing ---------------------------------------------------

    def grad_zeros(self, like: np.ndarray) -> np.ndarray:
        """Zero-initialised gradient buffer with the shape, dtype and layout
        of ``like`` (K-order, exactly what ``np.zeros_like`` has always done —
        gradient-buffer layout feeds downstream pairwise-summed reductions)."""
        return np.zeros_like(like)

    def index_add(self, like: np.ndarray, index, grad) -> np.ndarray:
        """Scatter-add ``grad`` into a zeroed buffer (``__getitem__``'s
        backward).

        A basic index (ints, slices and ``Ellipsis`` only) names each element
        once, so it adds in place through the view; an array index may repeat
        elements and goes through ``np.add.at``.  Both add ``0.0 + grad``
        per element: the results are bitwise equal.
        """
        out = np.zeros_like(like)
        if all(map(_is_basic, index if type(index) is tuple else (index,))):
            out[index] += grad
        else:
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
        # The factor in the dtype of ``g``: bare Python numbers would make it
        # a double-precision array and widen the gradient.
        one = g.dtype.type
        return g * np.where(mask, one(1.0), one(slope))

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
        """``(gw, gb)`` of :meth:`time_encoding_forward`
        (:meth:`_time_encoding_grads`)."""
        gw, gb = self._time_encoding_grads(g, dt, w, b)
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

    #: per normalised axis (the last / the leading): the einsum of a dot
    #: product over it, and the index that restores it as a length-1 axis.
    _DOT = {-1: ("...i,...i->...", (Ellipsis, None)), 0: ("i...,i...->...", None)}

    @staticmethod
    def _mean(x: np.ndarray, axis: int) -> np.ndarray:
        """``x.mean(axis, keepdims=True)`` without ``np.mean``'s Python-level
        set-up, which outweighs the arithmetic on a serve flush's rows."""
        total = np.add.reduce(x, axis=axis, keepdims=True)
        total /= x.shape[axis]
        return total

    @classmethod
    def _standardize(cls, x: np.ndarray, eps: float, out: Optional[np.ndarray] = None,
                     axis: int = -1) -> Tuple[np.ndarray, np.ndarray]:
        """``(xhat, rstd)``: ``x`` with zero mean and unit variance over
        ``axis`` — the last (row-major) or the leading (channel-major) —
        written into ``out`` when given, and the ``1 / sqrt(var + eps)`` of
        each vector, with ``axis`` kept as a length-1 axis."""
        spec, keep = cls._DOT[axis]
        xhat = np.subtract(x, cls._mean(x, axis), out=out)
        rstd = np.einsum(spec, xhat, xhat)[keep]
        rstd /= x.shape[axis]
        rstd += eps
        np.sqrt(rstd, out=rstd)
        np.divide(1.0, rstd, out=rstd)
        xhat *= rstd
        return xhat, rstd

    @classmethod
    def _standardize_backward(cls, gxhat: np.ndarray, xhat: np.ndarray, rstd: np.ndarray,
                              scratch: Optional[np.ndarray] = None,
                              axis: int = -1, out: Optional[np.ndarray] = None
                              ) -> np.ndarray:
        """Input gradient of :meth:`_standardize` over ``axis``, computed in
        place in ``gxhat`` — a buffer the caller owns, as it does ``scratch``,
        which takes the one full-size temporary.

        With ``out`` (channel-major only, ``axis=0``; it may be the leading
        slice of ``gxhat`` itself) just the leading ``len(out)`` channels are
        formed, into ``out``: both channel means still read every channel of
        ``gxhat``."""
        spec, keep = cls._DOT[axis]
        proj = np.einsum(spec, gxhat, xhat)[keep]
        proj /= gxhat.shape[axis]
        mean = cls._mean(gxhat, axis)
        if out is None:
            out = gxhat
        else:
            live = len(out)
            gxhat, xhat = gxhat[:live], xhat[:live]
            scratch = None if scratch is None else scratch[:live]
        np.subtract(gxhat, mean, out=out)
        out -= np.multiply(xhat, proj, out=scratch)
        out *= rstd
        return out

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
    # Channel-major: the pair computes on ``X``, the ``(d, m, R)`` transpose of
    # the block's ``(R, m, d)`` input (``a.transpose(2, 1, 0)`` both ways), and
    # hands back the transposes of what it computes.  A per-token statistic
    # then runs along the long ``m R`` axis: layer-norm means and variances
    # and the mask are passes over ``d`` contiguous rows, channel mixing is one
    # 2-D GEMM on ``(d, m R)``, token mixing a ``W @ X`` batched over
    # channels, and bias gradients are contiguous sums.  Written to minimise
    # full-size passes, not to mirror the composition: neither layer norm
    # materialises its affine output and every in-place update targets a
    # buffer the kernel allocated itself.  ``params`` is the block's twelve
    # parameter arrays in registration order.

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

    @staticmethod
    def _channel_major(a: Optional[np.ndarray],
                       fmask: Optional[np.ndarray] = None) -> Optional[np.ndarray]:
        """A fresh C-contiguous copy of the ``(d, m, R)`` transpose of an
        ``(R, m, d)`` array, times the channel-major ``fmask`` when given
        (``None`` passes through)."""
        if a is None:
            return None
        at = a.transpose(2, 1, 0)
        return np.array(at, order="C") if fmask is None else \
            np.multiply(at, fmask, order="C")

    #: rows per column block of a forward-only channel sub-block: its layer
    #: norm and GEMMs run over at most ``m`` times this many columns of the
    #: ``(d, m R)`` tokens at a time, so the ``(h_c, m R)`` hidden layer never
    #: exists whole.  A block computes each column as the one-block form does
    #: only if OpenBLAS runs it through the same kernel: the blocks of one
    #: call are equal to within 16 columns, so each holds more than half the
    #: bound (single-precision GEMMs of at most 1e6 multiply-adds take a
    #: small-matrix kernel), and every block edge is a multiple of 16 columns,
    #: so the last block alone has the one-block form's column tail (the
    #: double-precision 4-column tail kernel differs).
    MIXER_BLOCK_ROWS = 384

    def mixer_block_forward(self, x: np.ndarray, fmask: Optional[np.ndarray],
                            params, keep_t: Optional[np.ndarray],
                            keep_c: Optional[np.ndarray], eps: float,
                            retain: bool):
        """One MLP-Mixer block on ``x`` ``(R, m, d)``; returns ``(out, saved)``
        with ``out`` the ``(R, m, d)`` transpose of a C-contiguous ``(d, m,
        R)`` array.

        ``x`` is read through its channel-major transpose.  With ``retain``
        the block computes in a masked copy of it, contiguous when ``x`` is
        laid out that way already (``MixerBlock.input_buffer``), transposing
        otherwise.  A forward-only block reads a channel-major ``x`` in place
        and takes its buffer over: it is masked in place, takes the residual
        and becomes the output, so the caller's values are gone (any other
        layout goes through one transposing copy, and ``x`` is left as it
        was).  ``fmask`` is the ``(R, m, 1)`` float
        validity mask (or ``None``), read in place when it is the transpose
        of a C-contiguous ``(1, m, R)`` array, ``keep_t`` ``(R, h_t, d)`` / ``keep_c``
        ``(R, m, h_c)`` the scaled dropout keep-masks (or ``None``).  With
        ``retain`` the backward pass's inputs come back in ``saved`` — per
        sub-block the normalised input, its ``rstd``, the GELU output (written
        over its pre-activation) and the gate, all channel-major; without it
        ``saved`` is ``None``, every intermediate is released the moment it
        is dead and the channel sub-block runs over column blocks of at most
        :attr:`MIXER_BLOCK_ROWS` rows.  Every dot product keeps its length,
        so the blocks change no value.
        """
        self._one_float_dtype(x, fmask, keep_t, keep_c, *params)
        gam_t, bet_t, w1t, b1t, w2t, b2t, gam_c, bet_c, w1c, b1c, w2c, b2c = params
        if fmask is not None:
            fmask = np.ascontiguousarray(fmask.transpose(2, 1, 0))
        keep_t = self._channel_major(keep_t)
        if retain:
            x = self._channel_major(x, fmask)
        else:
            x = np.ascontiguousarray(x.transpose(2, 1, 0))
            if fmask is not None:
                x *= fmask
        d, m, rows = x.shape
        # Token mixing.  W1 @ (xhat * gamma + beta) = (W1 @ xhat) * gamma +
        # rowsum(W1) (x) beta: the affine lands on the half-size hidden.
        xhat, rstd = self._standardize(x, eps, axis=0)
        a = self.matmul(w1t, xhat)
        if not retain:
            del xhat
        a *= gam_t[:, None, None]
        a += (bet_t[:, None] * np.add.reduce(w1t, axis=1) + b1t)[..., None]
        s = self._gelu_gate(a)
        y = np.multiply(a, s, out=a)
        if keep_t is not None:
            y *= keep_t
        saved = (fmask, xhat, rstd, y, s, keep_t) if retain else None
        del a, s
        # The residual lands in the input's buffer: ``x + t`` is ``t + x`` to
        # the bit.
        t = self.matmul(w2t, y)
        del y
        t += b2t[:, None]
        x += t
        del t
        # Channel mixing, over column blocks of the ``(d, m R)`` tokens: the
        # layer norm is per column.  (W1 * gamma) @ xhat + W1 @ beta: the
        # affine folds into fc1.
        w1g, b1g = w1c * gam_c, (w1c @ bet_c + b1c)[:, None]
        if keep_c is not None:
            keep_c = self._channel_major(keep_c).reshape(len(w1c), -1)
        flat = x.reshape(d, -1)
        width = flat.shape[1]
        blocks = 1 if retain else -(-width // (self.MIXER_BLOCK_ROWS * m))
        edges = [width * block // blocks // 16 * 16 for block in range(blocks)] + [width]
        for start, stop in zip(edges, edges[1:]):
            cols = slice(start, stop)
            xhat, rstd = self._standardize(flat[:, cols], eps, axis=0)
            a = self.matmul(w1g, xhat)
            if not retain:
                del xhat
            a += b1g
            s = self._gelu_gate(a)
            y = np.multiply(a, s, out=a)
            if keep_c is not None:
                y *= keep_c[:, cols]
            if retain:
                saved += (xhat.reshape(d, m, rows), rstd.reshape(1, m, rows), y, s, keep_c)
            del a, s
            out = self.matmul(w2c, y)
            del y
            out += b2c[:, None]
            flat[:, cols] += out
            del out
        if fmask is not None:
            x *= fmask
        return x.transpose(2, 1, 0), saved

    def mixer_block_backward(self, g: np.ndarray, saved, params, need) -> list:
        """Gradients of :meth:`mixer_block_forward` w.r.t. ``(x, *params)``;
        ``need[i]`` says whether entry ``i`` is wanted (``None`` otherwise):
        0 is ``x`` (the ``(R, m, d)`` transpose of a channel-major array), 1-6
        the token sub-block's ``gamma, beta, W1, b1, W2, b2``, 7-12 the
        channel sub-block's.

        ``need[0]`` may also be a channel count: the input gradient is then
        wanted on the leading ``need[0]`` channels only (``True``: all ``d``).
        Below ``d`` only that leading slice of the channel-major gradient is
        formed and the other channels read exactly zero; the token layer
        norm's channel means still read all ``d`` channels.

        With ``P = ga @ xhat.T`` the small ``(h, d)`` product of the channel
        sub-block and ``gb' = ga.sum(1)``, the folded affine unfolds as
        ``dW1 = P * gamma + gb' (x) beta``, ``dgamma = sum_h(P * W1)`` and
        ``dbeta = gb' @ W1``; the token sub-block does the same from the
        channel-batched ``Q[c] = ga[c] @ xhat[c].T``.
        """
        (fmask, xhat_t, rstd_t, y_t, s_t, keep_t,
         xhat_c, rstd_c, y_c, s_c, keep_c) = saved
        gam_t, bet_t, w1t, b1t, w2t, b2t, gam_c, bet_c, w1c, b1c, w2c, b2c = params
        d, m, rows = xhat_t.shape
        grads = [None] * 13
        gx2 = self._channel_major(g, fmask)

        # Channel sub-block: out = x1 + W2 @ gelu(W1' @ xhat_c + b1') + b2.
        g2d = gx2.reshape(d, -1)
        if need[11]:
            grads[11] = self.matmul(g2d, y_c.T)
        if need[12]:
            grads[12] = g2d.sum(axis=1)
        ga = self.matmul(w2c.T, g2d)
        scratch = self._gelu_backward(ga, y_c, s_c, keep_c)
        gb = ga.sum(axis=1)
        if need[7] or need[9]:
            small = self.matmul(ga, xhat_c.reshape(d, -1).T)
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
        gx1 = self.matmul((w1c * gam_c).T, ga).reshape(d, m, rows)
        # Dead buffers serve as the layer-norm backward's temporary: the GELU
        # scratch here when it has the size, the transposed ``g`` further down.
        self._standardize_backward(
            gx1, xhat_c, rstd_c,
            scratch.reshape(gx1.shape) if scratch.size == gx1.size else None, axis=0)
        gx1 += gx2
        scratch = gx2
        del ga, g2d, gx2

        # Token sub-block: x1 = x0 + W2 @ gelu((W1 @ xhat_t) * gamma + c) + b2.
        if need[5]:
            grads[5] = self.matmul(gx1, y_t.swapaxes(1, 2)).sum(axis=0)
        if need[6]:
            grads[6] = gx1.sum(axis=(0, 2))
        ga = self.matmul(w2t.T, gx1)
        self._gelu_backward(ga, y_t, s_t, keep_t)
        gc = ga.sum(axis=2)
        if need[1] or need[3]:
            small = self.matmul(ga, xhat_t.swapaxes(1, 2))
            if need[1]:
                grads[1] = np.einsum("chm,hm->c", small, w1t)
            if need[3]:
                grads[3] = np.einsum("chm,c->hm", small, gam_t) + (bet_t @ gc)[:, None]
        if need[2]:
            grads[2] = gc @ w1t.sum(axis=1)
        if need[4]:
            grads[4] = gc.sum(axis=0)
        if need[0]:
            ga *= gam_t[:, None, None]
            gxhat = self.matmul(w1t.T, ga)
            live = d if need[0] is True else need[0]
            head = self._standardize_backward(gxhat, xhat_t, rstd_t, scratch, axis=0,
                                              out=None if live == d else gxhat[:live])
            gxhat[live:] = 0.0
            head += gx1[:live]
            if fmask is not None:
                head *= fmask
            grads[0] = gxhat.transpose(2, 1, 0)
        return grads

    # -- adaptive sampler: encoder and head (one autograd node each) ---------
    # One hop of the sampler is four nodes: encode -> mixer block -> decoder
    # -> head.  The encoder writes every part of ``h(u) || h(v,u,t) || TE(dt)
    # || FE(freq) || IE(u)`` straight into the block's channel-major ``(d, m,
    # R)`` input; only the GELU projections carry parameters, and they come
    # first, so the block's input gradient is wanted on a leading channel
    # slice.  The head turns the decoder's scores into the selection and the
    # log-probabilities the REINFORCE loss differentiates.

    def sampler_encode_forward(self, out: np.ndarray, feats, params, delta: np.ndarray,
                               omega: np.ndarray, nodes: np.ndarray, mask: np.ndarray,
                               inv_wavelength: Optional[np.ndarray], identity: bool,
                               retain: bool):
        """Write the sampler's neighbor encoding of ``R`` rows of ``m``
        candidates into ``out``, a C-contiguous ``(d, m, R)`` array; returns
        ``saved``, ``None`` unless ``retain``.

        Channels in order: one projection ``gelu(x @ W.T + b)`` per ``(R, m,
        k)`` array ``x`` of ``feats`` (``params`` holds each one's ``W, b``),
        the fixed time encoding ``cos(delta * omega)`` of the ``(R, m)``
        timespans, the frequency encoding of each valid candidate's count in
        its row (``inv_wavelength``; ``None``: left out) and, with
        ``identity``, the ``m`` same-node indicators of the valid pairs.
        Counts and indicators read one pairwise equality of ``nodes`` under
        ``mask``.
        """
        self._one_float_dtype(out, *feats, *params)
        m, rows = out.shape[1:]
        start, saved = 0, []
        for x, w, b in zip(feats, params[0::2], params[1::2]):
            x2d = x.reshape(-1, x.shape[-1])
            a = self.matmul(x2d, w.T)
            a += b
            s = self._gelu_gate(a)
            y = np.multiply(a, s, out=a)
            stop = start + w.shape[0]
            out[start:stop] = y.reshape(rows, m, -1).transpose(2, 1, 0)
            saved.append((x2d, y, s))
            start = stop
        # The phase omega (x) delta, built channel-major: the timespans enter
        # as the (1, m, R) factor, so every pass runs along the rows.
        stop = start + omega.shape[0]
        phase = self._reduced_phase(omega[:, None], delta.T[None], None, out.dtype)
        np.cos(phase, out=out[start:stop])
        start = stop
        k = 0 if inv_wavelength is None else inv_wavelength.shape[0]
        if k or identity:
            # An invalid slot gets an id no other slot has (-1 - its column),
            # so off the diagonal equality is "same node, both valid"; the
            # diagonal is then set to "valid".
            ids = np.where(mask, nodes, -1 - np.arange(m)).T.copy()
            same = out[start + k:start + k + m] if identity else \
                np.empty((m, m, rows), dtype=out.dtype)
            np.equal(ids[:, None], ids[None], out=same)
            same[np.arange(m), np.arange(m)] = mask.T
            if k:
                counts = np.add.reduce(same, axis=0).astype(np.intp)
                np.take(self._frequency_table(m, inv_wavelength, out.dtype), counts,
                        axis=1, out=out[start:start + k], mode="clip")
        return saved if retain else None

    @staticmethod
    def _frequency_table(m: int, inv_wavelength: np.ndarray, dtype) -> np.ndarray:
        """The ``(k, m + 1)`` frequency encoding of the counts ``0..m``:
        channels alternate ``sin`` / ``cos`` of ``count * inv_wavelength``,
        a pair sharing one wavelength (Eq. 12)."""
        k = inv_wavelength.shape[0]
        angles = np.multiply.outer(inv_wavelength[0::2].astype(dtype),
                                   np.arange(m + 1, dtype=dtype))
        table = np.empty((k, m + 1), dtype=dtype)
        table[0::2] = np.sin(angles)
        table[1::2] = np.cos(angles[:k // 2])
        return table

    def sampler_encode_backward(self, g: np.ndarray, saved, params, need) -> list:
        """Gradients of :meth:`sampler_encode_forward` w.r.t. ``params``;
        ``need[i]`` says whether entry ``i`` is wanted (``None`` otherwise).
        ``g`` is the ``(R, m, d)`` transpose of the channel-major gradient of
        ``out``; only its leading projection channels are read."""
        self._one_float_dtype(g, *params)
        gcm = g.transpose(2, 1, 0)
        grads = [None] * len(params)
        start = 0
        for i, (x2d, y, s) in enumerate(saved):
            stop = start + y.shape[1]
            gy = np.array(gcm[start:stop].transpose(2, 1, 0), order="C").reshape(y.shape)
            self._gelu_backward(gy, y, s, None)
            if need[2 * i]:
                grads[2 * i] = self.matmul(gy.T, x2d)
            if need[2 * i + 1]:
                grads[2 * i + 1] = gy.sum(axis=0)
            start = stop
        return grads

    def sampler_head_forward(self, scores: np.ndarray, mask: np.ndarray, budget: int,
                             temperature: float, noise: Optional[np.ndarray],
                             live: np.ndarray, num_rows: int, floor: float,
                             retain: bool):
        """Scores ``(L, m)`` of the ``L`` live rows ``live`` of an ``R =
        num_rows`` batch to the selection of ``budget`` candidates per row;
        returns ``(log_prob, columns, selected, probs, saved)``, ``saved``
        ``None`` unless ``retain``.

        ``q = softmax(scores / temperature)`` over each row's valid
        candidates (``mask``), then Gumbel-top-``budget`` over ``log
        max(q, floor) + noise`` (``noise`` ``(L, m)``; ``None``: greedy), a
        stable sort with the masked candidates last.  ``columns`` ``(R,
        budget)`` are the picked candidates, ``selected`` their validity,
        ``log_prob`` their ``log(q + floor)`` and ``probs`` ``(R, m)`` is
        ``q``; a row outside ``live`` reads columns ``0..budget-1``, selected
        False, ``log_prob = log(floor)`` and probability 0.
        """
        m = scores.shape[1]
        dtype = scores.dtype.type
        # Candidate-major (m, L): each row's reductions over its m candidates
        # run along the rows, and the linear decoder's scores are laid out so.
        valid = np.ascontiguousarray(mask.T)
        q = np.multiply(scores.T, 1.0 / temperature, order="C")
        q += np.where(valid, dtype(0.0), dtype(-1e30))
        q -= q.max(axis=0)
        np.exp(q, out=q)
        q /= q.sum(axis=0)
        keys = np.log(np.maximum(q, floor))
        if noise is not None:
            # Out of place: the noise is not rounded into the keys' dtype.
            keys = keys + noise.T
        keys[~valid] = -np.inf
        picked = np.argsort(-keys, axis=0, kind="stable")[:budget]
        q_sel = np.take_along_axis(q, picked, axis=0)
        hit = np.take_along_axis(valid, picked, axis=0)
        selected = np.zeros((num_rows, budget), dtype=bool)
        selected[live] = hit.T
        columns = np.tile(np.arange(budget), (num_rows, 1))
        columns[live] = picked.T
        log_prob = np.full((num_rows, budget), np.log(floor), dtype=q.dtype)
        log_prob[live] = np.log(q_sel + floor).T
        probs = np.zeros((num_rows, m), dtype=q.dtype)
        probs[live] = q.T
        saved = (q, live, picked, hit, q_sel) if retain else None
        return log_prob, columns, selected, probs, saved

    def sampler_head_backward(self, g: np.ndarray, saved, temperature: float,
                              floor: float) -> np.ndarray:
        """Gradient of :meth:`sampler_head_forward`'s ``log_prob`` w.r.t. the
        scores, in closed form: with ``a = g / (q_sel + floor)`` placed at the
        selected valid columns (0 elsewhere, where ``q`` is 0 or nothing was
        picked), ``d scores = q * (a - sum_k q_k a_k) / temperature``.
        Returned as the ``(L, m)`` transpose of a C-contiguous array."""
        q, live, picked, hit, q_sel = saved
        self._one_float_dtype(q, g)
        a_sel = np.divide(g[live].T, q_sel + floor, where=hit, out=np.zeros_like(q_sel))
        a = np.zeros_like(q)
        np.put_along_axis(a, picked, a_sel, axis=0)
        a -= (a * q).sum(axis=0)
        a *= q
        a *= 1.0 / temperature
        return a.T

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

        # Time encoder, the phase rebuilt here; the query's cos(b) adds to b's.
        if need[3] or need[4]:
            gtw, gtb = self._time_encoding_grads(
                self.matmul(gkv, wkv[:, -d_t:]).reshape(rows, n, d_t), delta, tw, tb)
            gtb -= np.sin(tb) * (grads[6] @ wq[:, d_h:])
            grads[3] = gtw.astype(tw.dtype, copy=False)
            grads[4] = gtb.astype(tb.dtype, copy=False)
        return [grad if wanted else None for grad, wanted in zip(grads, need)]

    # -- GraphMixer aggregate (one autograd node) ----------------------------
    # Fixed time encoding -> message -> ``message_proj`` -> mixer block ->
    # mean over the valid tokens -> ``out_proj`` over ``pooled || h_target``.
    # As in the temporal attention, the message ``h || edge || Phi(dt)`` is
    # never built: the tokens are the sum of one GEMM per present part over
    # its weight columns, scaled by the gate before the bias, ``(g m) @ W =
    # g (m @ W)``, and an absent part (``None``: the zero state, no edge
    # features) costs nothing in either pass; its weight columns get an
    # exact-zero gradient.  The mixer block is the pair above.  ``params`` is
    # the sixteen parameter arrays in registration order: ``message_proj``'s
    # weight and bias, the block's twelve, ``out_proj``'s weight and bias.

    def graphmixer_aggregate_forward(self, delta: np.ndarray, mask: np.ndarray,
                                     edge: Optional[np.ndarray],
                                     h_target: Optional[np.ndarray],
                                     h_neighbors: Optional[np.ndarray],
                                     gate: Optional[np.ndarray], params, omega: np.ndarray,
                                     keep_t: Optional[np.ndarray],
                                     keep_c: Optional[np.ndarray], eps: float,
                                     retain: bool):
        """GraphMixer's aggregate of ``n`` neighbors per row; returns ``(out,
        saved)`` with ``out`` ``(R, d)``.

        ``delta`` ``(R, n)`` are the relative timespans (in the timestamps'
        own precision), ``omega`` the fixed encoding's frequencies, ``mask``
        the boolean validity of each slot, ``edge`` ``(R, n, d_e)`` the edge
        features, ``h_target`` ``(R, d)`` / ``h_neighbors`` ``(R, n, d)`` the
        layer-0 states (``None``: all zero), ``gate`` the ``(R, n)``
        per-neighbor message scale, ``keep_t`` / ``keep_c`` the mixer block's
        scaled dropout keep-masks.  With ``retain`` the backward pass's inputs
        come back in ``saved``; without it ``saved`` is ``None``.
        """
        wm, bm, wo, bo = params[0], params[1], params[14], params[15]
        # The block's own kernel checks its parameters and the keep-masks
        # against the tokens, which are built in ``wm``'s dtype.
        self._one_float_dtype(wm, edge, h_target, h_neighbors, gate, bm, wo, bo)
        rows, n = delta.shape
        width, d_t = wm.shape[0], omega.shape[0]

        te = self._time_encoding(delta, omega, None, wm.dtype)
        summed = self.matmul(te.reshape(-1, d_t), wm[:, -d_t:].T)
        if not retain:
            te = None
        if edge is not None:
            summed += self.matmul(edge.reshape(rows * n, -1), wm[:, width:-d_t].T)
        if h_neighbors is not None:
            summed += self.matmul(h_neighbors.reshape(rows * n, width), wm[:, :width].T)
        summed = summed.reshape(rows, n, width)
        # The tokens and the mask are built channel-major, the transpose the
        # block reads: the only copy of the tokens is this one, and a
        # forward-only block computes in it.
        if gate is None:
            tokens = np.add(summed.T, bm[:, None, None], order="C")
        else:
            tokens = np.multiply(summed.T, gate.T, order="C")
            tokens += bm[:, None, None]
        if gate is None or not retain:
            summed = None
        fmask = mask.T.astype(wm.dtype, order="C")[None].transpose(2, 1, 0)
        mixed, block = self.mixer_block_forward(tokens.T, fmask, params[2:14], keep_t,
                                                keep_c, eps, retain)
        del tokens
        # The block zeroes the masked tokens, so the mean over the valid ones
        # is a token sum over the valid count.
        count = np.maximum(np.add.reduce(mask, axis=1, keepdims=True), 1).astype(wm.dtype)
        pooled = np.add.reduce(mixed, axis=1)
        pooled /= count
        out = self.matmul(pooled, wo[:, :width].T)
        if h_target is not None:
            out += self.matmul(h_target, wo[:, width:].T)
        out += bo
        saved = None
        if retain:
            saved = (edge, h_target, h_neighbors, gate, te, summed, block, count, pooled)
        return out, saved

    def graphmixer_aggregate_backward(self, g: np.ndarray, saved, params, need) -> list:
        """Gradients of :meth:`graphmixer_aggregate_forward` w.r.t.
        ``(h_target, h_neighbors, gate, *params)``; ``need[i]`` says whether
        entry ``i`` is wanted (``None`` otherwise).

        With ``gt`` the gradient at the gated tokens, ``message_proj``'s
        weight-column block of each present part is ``(gate gt).T @ part``,
        its bias gradient ``sum gt``, and the gate's ``sum_c gt * summed``
        over the pre-gate token sum.
        """
        edge, h_target, h_neighbors, gate, te, summed, block, count, pooled = saved
        wm, wo = params[0], params[14]
        rows, n = te.shape[:2]
        width, d_t = wm.shape[0], te.shape[2]
        grads = [None] * 19

        # out_proj over pooled || h_target, on (R, d) arrays.
        grads[17] = np.zeros_like(wo)
        grads[17][:, :width] = self.matmul(g.T, pooled)
        if h_target is not None:
            grads[17][:, width:] = self.matmul(g.T, h_target)
        grads[18] = g.sum(axis=0)
        if need[0]:
            grads[0] = self.matmul(g, wo[:, width:])
        gpooled = self.matmul(g, wo[:, :width])
        gpooled /= count

        # The mean: every token of a row gets the row's pooled gradient.
        need_tokens = any(need[1:5])
        mixer = self.mixer_block_backward(
            np.broadcast_to(gpooled[:, None, :], (rows, n, width)), block,
            params[2:14], [need_tokens, *need[5:17]])
        grads[5:17] = mixer[1:]
        gt = mixer[0]
        if gt is not None:
            grads[4] = gt.sum(axis=(0, 1))
            if need[2]:
                grads[2] = np.einsum("rjc,rjc->rj", gt, summed)
            gs = (gt if gate is None else
                  np.multiply(gt, gate[..., None], order="C")).reshape(-1, width)
            if need[3]:
                grads[3] = np.zeros_like(wm)
                grads[3][:, -d_t:] = self.matmul(gs.T, te.reshape(-1, d_t))
                if edge is not None:
                    grads[3][:, width:-d_t] = self.matmul(gs.T, edge.reshape(rows * n, -1))
                if h_neighbors is not None:
                    grads[3][:, :width] = self.matmul(gs.T, h_neighbors.reshape(-1, width))
            if need[1]:
                grads[1] = self.matmul(gs, wm[:, :width]).reshape(rows, n, width)
        return [grad if wanted else None for grad, wanted in zip(grads, need)]

    # -- edge predictor (one autograd node) ----------------------------------
    # ``out(relu(src_proj(h_src) + dst_proj(h_dst)))``, in the composed
    # nodes' op order — each GEMM, bias add, sum and mask in the same form —
    # so both passes are bitwise those of the composition.  ``params`` is the
    # six parameter arrays in registration order: weight and bias of
    # ``src_proj``, ``dst_proj``, ``out``.

    def edge_predictor_forward(self, h_src: np.ndarray, h_dst: np.ndarray, params,
                               retain: bool):
        """Logits ``(B,)`` of ``B`` embedding pairs; returns ``(out, saved)``,
        ``saved`` ``None`` unless ``retain``."""
        ws, bs, wd, bd, wo, bo = params
        self._one_float_dtype(ws, h_src, h_dst, *params)
        src = h_src.reshape(-1, h_src.shape[-1])
        dst = h_dst.reshape(-1, h_dst.shape[-1])
        hidden = self.matmul(src, ws.T)
        hidden += bs
        other = self.matmul(dst, wd.T)
        other += bd
        hidden += other
        del other
        live = hidden > 0
        hidden *= live
        out = self.matmul(hidden, wo.T)
        out += bo
        saved = (src, dst, hidden, live) if retain else None
        return out.reshape(-1), saved

    def edge_predictor_backward(self, g: np.ndarray, saved, params, need) -> list:
        """Gradients of :meth:`edge_predictor_forward` w.r.t. ``(h_src, h_dst,
        *params)`` (the states in their 2-D row form); ``need[i]`` says
        whether entry ``i`` is wanted (``None`` otherwise)."""
        src, dst, hidden, live = saved
        ws, _, wd, _, wo, _ = params
        grads = [None] * 8
        g2d = g.reshape(-1, wo.shape[0])
        if need[6]:
            grads[6] = self.matmul(g2d.T, hidden)
        if need[7]:
            grads[7] = g2d.sum(axis=0)
        gz = self.matmul(g2d, wo)
        gz *= live
        for state, w, first in ((src, ws, 0), (dst, wd, 1)):
            if need[first]:
                grads[first] = self.matmul(gz, w)
            if need[2 + 2 * first]:
                grads[2 + 2 * first] = self.matmul(gz.T, state)
            if need[3 + 2 * first]:
                grads[3 + 2 * first] = gz.sum(axis=0)
        return grads


_BACKEND = ReferenceBackend()


def get_backend() -> ReferenceBackend:
    """The process's one array runtime instance."""
    return _BACKEND
