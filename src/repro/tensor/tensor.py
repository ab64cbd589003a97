"""Reverse-mode automatic differentiation on top of numpy.

This module provides the :class:`Tensor` class, a thin wrapper around
``numpy.ndarray`` that records the computation graph of every operation so
that gradients can be back-propagated with :meth:`Tensor.backward`.

The engine substitutes for the PyTorch autograd used by the original TASER
implementation.  It supports exactly the set of operations required by the
TGNN backbones (TGAT, GraphMixer), the adaptive neighbor sampler, and the
REINFORCE-style sample loss:

* broadcasting element-wise arithmetic,
* matrix multiplication (including batched ``@``),
* reductions (``sum``, ``mean``, ``max``),
* shape manipulation (``reshape``, ``transpose``, ``concatenate``, indexing),
* the non-linearities used by the models (``sigmoid``, ``tanh``, ``relu``,
  ``leaky_relu``, ``gelu``, ``softmax``, ``cos``, ``sin``, ``exp``, ``log``).

Design notes
------------
The implementation follows the vectorisation idioms from the HPC guides: all
forward/backward rules are expressed as whole-array numpy operations, no
Python-level loops over elements.  Gradient flow through integer
fancy-indexing (used for feature gathering) is implemented with ``np.add.at``
so repeated indices accumulate correctly — the same semantics as an embedding
gather.

Graph lifetime
--------------
The graph is acyclic: a node references its parents (``_prev`` and whatever
its backward rule captured), never itself — a rule receives the node's
gradient as its argument (``node._backward(node.grad)``) instead of closing
over the node.  A graph therefore dies by reference counting the moment the
last tensor referencing it (a loss, a ``TrainStep``) goes out of scope; the
cyclic collector has nothing to find.  Interior ``.grad`` arrays stay
readable after :meth:`Tensor.backward` for as long as their tensor lives
(the sample loss reads ``embeddings.grad`` and the hop gates' gradients).

Gradient ownership
------------------
Nodes are visited in reverse topological order, so a node's gradient is final
before its rule hands it to the node's parents.  Copying it for the common
case of a single consumer is therefore pointless:

* an *interior* node **borrows** its first contribution (the array itself,
  possibly a view of, or the same buffer as, its consumer's gradient);
* the next contribution is added out of place (``grad = grad + g``); the node
  then owns that buffer and accumulates further contributions in place —
  until its own rule hands the buffer on, which makes it shared again (only
  a repeated ``backward()`` over the same graph gets that far);
* a *leaf* always **copies** — optimisers, ``clip_grad_norm`` and gradient
  buckets scale and overwrite leaf gradients in place, which must never reach
  through to another tensor's gradient.

Hence no backward rule may write into the gradient it receives.

GEMM-shaped linears
-------------------
:func:`linear` — and ``(..., n, k) @ (k, m)``, which is the same node with
the right operand as the transposed weight — runs as one ``(N, k) @ (k, m)``
GEMM with ``N`` the product of the leading axes, and its weight gradient as
one ``(m, N) @ (N, k)`` product.  numpy would loop over per-sample GEMMs
forward and the broadcast rule would materialise a per-sample weight gradient
only to sum it.

Composite kernels
-----------------
:func:`linear`, :func:`layer_norm`, :func:`mixer_block` and
:func:`temporal_attention` are one graph node each with an analytic backward,
over a forward / backward kernel pair on the array backend; the kernels
compute only the gradients whose tensor requires one and never write into the
``g`` they receive.  The
primitive-composed forms (``x @ W.T + b``, ``mean`` / ``sub`` / ``sqrt`` /
``div``, the mixer block's modules, TGAT's concatenated messages and
per-head matmuls) agree with them to the last few ulps and live on as test
oracles.

Backend dispatch
----------------
Every ndarray computation in the forward rules and backward closures goes
through the one :class:`~repro.tensor.backend.ReferenceBackend` instance
(:func:`~repro.tensor.backend.get_backend`) rather than calling numpy
directly, and looks the kernel up on that instance at call time — which is
what lets a tracer count kernel calls by wrapping the instance's attributes.
Shape-only views (``reshape``, ``transpose``, ``expand_dims``) stay plain
numpy: they move no data.

Numeric types
-------------
Nothing here names a dtype.  An ndarray keeps the dtype it arrives with
through every op, gradient and accumulation; a Python number combined with a
tensor takes that tensor's dtype; only data that is not an array yet (lists,
bare scalars handed to :class:`Tensor`) becomes
``repro.tensor.COMPUTE_DTYPE``, read at call time.  The program feeds the
engine float32 arrays, the gradient checks double-precision ones, and both
run the same rules.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

import repro.tensor as _pkg  # COMPUTE_DTYPE is read there at call time

from .backend import get_backend

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

# ---------------------------------------------------------------------------
# global autograd switch (mirrors torch.no_grad)
# ---------------------------------------------------------------------------

_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables graph construction.

    Inside a ``with no_grad():`` block every created :class:`Tensor` has
    ``requires_grad=False`` and no backward closure is recorded.  Used by the
    evaluator and by the neighbor finders, which never need gradients.
    """

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _GRAD_ENABLED


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

ArrayLike = Union[np.ndarray, float, int, list, tuple]


def _as_array(data: ArrayLike, dtype=None) -> np.ndarray:
    """``data`` as an ndarray: numpy data (arrays, and the numpy scalars full
    reductions return) keeps its dtype, anything else becomes
    ``COMPUTE_DTYPE``; an explicit ``dtype`` overrides both."""
    if isinstance(data, np.ndarray):
        arr = data
        if dtype is not None and arr.dtype != dtype:
            arr = arr.astype(dtype)
        return arr
    if dtype is None and not isinstance(data, np.generic):
        dtype = _pkg.COMPUTE_DTYPE
    return np.asarray(data, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so its shape matches ``shape`` (reverse of broadcasting)."""
    if grad.shape == shape:
        return grad
    B = get_backend()
    # Sum over leading dimensions that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = B.sum(grad, axis=tuple(range(extra)))
    # Sum over dimensions that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = B.sum(grad, axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# Tensor
# ---------------------------------------------------------------------------


class Tensor:
    """A numpy-backed tensor that supports reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload, stored as ``numpy.ndarray``.  An array keeps its
        dtype; anything else (a list, a Python number) becomes
        ``repro.tensor.COMPUTE_DTYPE`` — float32 in the program, double
        precision while the test suite builds a gradient check.
    dtype:
        Cast the payload to this dtype instead (a copy only if it differs).
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "_op",
                 "_grad_shared", "__weakref__")

    def __init__(self, data: ArrayLike, requires_grad: bool = False, dtype=None):
        self.data: np.ndarray = _as_array(data, dtype)
        self.requires_grad: bool = bool(requires_grad) and _GRAD_ENABLED
        self.grad: Optional[np.ndarray] = None
        #: backward rule ``rule(grad_of_this_node)``; it must not reference
        #: this node (see "Graph lifetime" in the module docstring).
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._prev: Tuple["Tensor", ...] = ()
        self._op: str = ""
        self._grad_shared: bool = False

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=_pkg.COMPUTE_DTYPE),
                      requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape, dtype=_pkg.COMPUTE_DTYPE),
                      requires_grad=requires_grad)

    @staticmethod
    def randn(*shape: int, rng: Optional[np.random.Generator] = None,
              scale: float = 1.0, requires_grad: bool = False) -> "Tensor":
        rng = rng if rng is not None else np.random.default_rng()
        return Tensor(rng.standard_normal(shape) * scale, requires_grad=requires_grad,
                      dtype=_pkg.COMPUTE_DTYPE)

    @staticmethod
    def ensure(value: Union["Tensor", ArrayLike]) -> "Tensor":
        """Coerce ``value`` to a Tensor (no-op when it already is one)."""
        return value if isinstance(value, Tensor) else Tensor(value)

    def _operand(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        """``other`` as the second operand of a binary op on ``self``: a
        Python number (or a list of them) takes this tensor's dtype, so a
        constant never decides the dtype of a result."""
        if isinstance(other, Tensor):
            return other
        if isinstance(other, np.ndarray):
            return Tensor(other)
        return Tensor(other, dtype=self.data.dtype)

    # -- introspection ---------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def numpy(self) -> np.ndarray:
        """Return the underlying array (detached; shares memory with the
        tensor, so copy it before writing to it)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}, "
                f"op={self._op or 'leaf'})")

    def __len__(self) -> int:
        return len(self.data)

    # -- graph plumbing --------------------------------------------------------

    def _make(self, data: np.ndarray, parents: Sequence["Tensor"], op: str) -> "Tensor":
        """Create a result tensor wired into the graph when grads are enabled."""
        req = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=req)
        if req:
            out._prev = tuple(parents)
            out._op = op
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Accumulate ``grad`` into ``self.grad`` (see "Gradient ownership").

        An interior node borrows its first contribution, pays one
        out-of-place add for the next, and accumulates in place after that:
        ``_grad_shared`` says whether another tensor may alias the buffer.

        A leaf materialises its first contribution as ``grad + 0.0`` — one
        pass instead of zero-filling a buffer and adding into it.  This is
        bitwise-identical to the zero-buffer form (IEEE-754 addition of +0
        normalises signed zeros exactly the same way) *including the buffer
        layout* — which is why the fast path requires a C-contiguous ``grad``
        matching a C-contiguous ``data``: ``np.add`` without ``out=``
        propagates the input's K-order, and a layout change would re-segment
        downstream pairwise-summed reductions (e.g. the gradient-norm clip)
        by one ulp.  Later contributions accumulate in place.
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            whole = isinstance(grad, np.ndarray) and grad.shape == self.data.shape
            if whole and self._backward is not None:
                self.grad = grad
                self._grad_shared = True
                return
            B = get_backend()
            if whole and grad.flags.c_contiguous and self.data.flags.c_contiguous:
                self.grad = B.add(grad, 0.0)
            else:
                self.grad = B.grad_zeros(self.data)
                self.grad += grad
        elif self._grad_shared:
            self.grad = get_backend().add(self.grad, grad)
            self._grad_shared = False
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to ``None``."""
        self.grad = None
        self._grad_shared = False

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Back-propagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Incoming gradient.  Defaults to ``1`` which requires the tensor
            to be a scalar (the usual loss case).
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a gradient argument requires a scalar tensor")
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad, self.data.dtype)
            if grad.shape != self.data.shape:
                grad = np.broadcast_to(grad, self.data.shape).copy(order="K")

        # Topological sort of the graph reachable from ``self``.
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        # Reverse topological order: a node's gradient is final before its
        # rule passes it on, which is what lets parents borrow it.
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node._grad_shared = True

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._operand(other)
        out = self._make(get_backend().add(self.data, other.data), (self, other), "add")
        if out.requires_grad:
            def _backward(g):
                if self.requires_grad:
                    self._accumulate(_unbroadcast(g, self.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(g, other.shape))
            out._backward = _backward
        return out

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._operand(other)
        out = self._make(get_backend().subtract(self.data, other.data), (self, other), "sub")
        if out.requires_grad:
            def _backward(g):
                if self.requires_grad:
                    self._accumulate(_unbroadcast(g, self.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(get_backend().negative(g),
                                                   other.shape))
            out._backward = _backward
        return out

    def __rsub__(self, other):
        return self._operand(other).__sub__(self)

    def __neg__(self) -> "Tensor":
        out = self._make(get_backend().negative(self.data), (self,), "neg")
        if out.requires_grad:
            def _backward(g):
                self._accumulate(get_backend().negative(g))
            out._backward = _backward
        return out

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._operand(other)
        out = self._make(get_backend().multiply(self.data, other.data), (self, other), "mul")
        if out.requires_grad:
            def _backward(g):
                B = get_backend()
                if self.requires_grad:
                    self._accumulate(_unbroadcast(B.multiply(g, other.data),
                                                  self.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(B.multiply(g, self.data),
                                                   other.shape))
            out._backward = _backward
        return out

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._operand(other)
        out = self._make(get_backend().divide(self.data, other.data), (self, other), "div")
        if out.requires_grad:
            def _backward(g):
                B = get_backend()
                if self.requires_grad:
                    self._accumulate(_unbroadcast(B.divide(g, other.data),
                                                  self.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(
                        B.divide(B.multiply(B.negative(g), self.data),
                                 B.power(other.data, 2)),
                        other.shape))
            out._backward = _backward
        return out

    def __rtruediv__(self, other):
        return self._operand(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out = self._make(get_backend().power(self.data, exponent), (self,), "pow")
        if out.requires_grad:
            def _backward(g):
                B = get_backend()
                self._accumulate(B.multiply(B.multiply(g, exponent),
                                            B.power(self.data, exponent - 1)))
            out._backward = _backward
        return out

    def __matmul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._operand(other)
        a, b = self.data, other.data
        if a.ndim > 2 and b.ndim == 2:
            # A shared right operand makes the leading axes plain rows: the
            # product is the linear node with ``b`` as the transposed weight.
            return linear(self, other.T)
        out = self._make(get_backend().matmul(a, b), (self, other), "matmul")
        if out.requires_grad:
            def _backward(g):
                B = get_backend()
                if self.requires_grad:
                    if a.ndim == 1 and b.ndim == 1:
                        ga = B.multiply(g, b)
                    elif b.ndim == 1:
                        # a: (..., n, k) @ b: (k,) -> out: (..., n)
                        ga = B.multiply(g[..., None], b)
                    elif a.ndim == 1:
                        # a: (k,), b: (..., k, m), out: (..., m)
                        ga = np.einsum("...m,...km->k", g, b)
                    else:
                        # a: (..., n, k), b: (..., k, m)
                        ga = B.matmul(g, np.swapaxes(b, -1, -2))
                    self._accumulate(_unbroadcast(ga, a.shape))
                if other.requires_grad:
                    if a.ndim == 1 and b.ndim == 1:
                        gb = B.multiply(g, a)
                    elif a.ndim == 1:
                        # a: (k,), b: (..., k, m), out: (..., m)
                        gb = B.multiply(a[:, None], g[..., None, :])
                    elif b.ndim == 1:
                        # a: (..., n, k), b: (k,), out: (..., n)
                        gb = B.sum(B.multiply(a, g[..., None]).reshape(-1, a.shape[-1]),
                                   axis=0)
                    else:
                        gb = B.matmul(np.swapaxes(a, -1, -2), g)
                    other._accumulate(_unbroadcast(gb, b.shape))
            out._backward = _backward
        return out

    # comparisons produce plain boolean arrays (no gradient)
    def __gt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data > other

    def __lt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data < other

    def __ge__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data >= other

    def __le__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data <= other

    # -- reductions --------------------------------------------------------------

    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
            keepdims: bool = False) -> "Tensor":
        out = self._make(get_backend().sum(self.data, axis=axis, keepdims=keepdims),
                         (self,), "sum")
        if out.requires_grad:
            def _backward(g):
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis=axis)
                self._accumulate(get_backend().broadcast_grad(g, self.shape))
            out._backward = _backward
        return out

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
             keepdims: bool = False) -> "Tensor":
        out = self._make(get_backend().mean(self.data, axis=axis, keepdims=keepdims),
                         (self,), "mean")
        if out.requires_grad:
            if axis is None:
                count = self.data.size
            else:
                axes = (axis,) if isinstance(axis, int) else axis
                count = int(np.prod([self.shape[a] for a in axes]))

            def _backward(g):
                B = get_backend()
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis=axis)
                self._accumulate(B.divide(B.broadcast_grad(g, self.shape), count))
            out._backward = _backward
        return out

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        data = get_backend().amax(self.data, axis=axis, keepdims=keepdims)
        out = self._make(data, (self,), "max")
        if out.requires_grad:
            def _backward(g):
                B = get_backend()
                d = data
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis=axis)
                    d = np.expand_dims(d, axis=axis)
                mask = (self.data == d).astype(g.dtype)
                mask /= np.maximum(mask.sum(axis=axis, keepdims=True) if axis is not None
                                   else mask.sum(), 1.0)
                self._accumulate(B.multiply(mask, g))
            out._backward = _backward
        return out

    # -- shape ops ------------------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self._make(self.data.reshape(shape), (self,), "reshape")
        if out.requires_grad:
            def _backward(g):
                self._accumulate(g.reshape(self.shape))
            out._backward = _backward
        return out

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes_t = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes_t = tuple(axes[0])
        else:
            axes_t = tuple(axes)
        out = self._make(self.data.transpose(axes_t), (self,), "transpose")
        if out.requires_grad:
            inverse = tuple(np.argsort(axes_t))

            def _backward(g):
                self._accumulate(g.transpose(inverse))
            out._backward = _backward
        return out

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(*axes)

    def __getitem__(self, index) -> "Tensor":
        out = self._make(self.data[index], (self,), "getitem")
        if out.requires_grad:
            def _backward(g):
                self._accumulate(get_backend().index_add(self.data, index,
                                                         g))
            out._backward = _backward
        return out

    def expand_dims(self, axis: int) -> "Tensor":
        out = self._make(np.expand_dims(self.data, axis), (self,), "expand_dims")
        if out.requires_grad:
            def _backward(g):
                self._accumulate(np.squeeze(g, axis=axis))
            out._backward = _backward
        return out

    def squeeze(self, axis: Optional[int] = None) -> "Tensor":
        out = self._make(np.squeeze(self.data, axis=axis), (self,), "squeeze")
        if out.requires_grad:
            def _backward(g):
                self._accumulate(g.reshape(self.shape))
            out._backward = _backward
        return out

    def broadcast_to(self, shape: Tuple[int, ...]) -> "Tensor":
        out = self._make(np.broadcast_to(self.data, shape).copy(), (self,), "broadcast_to")
        if out.requires_grad:
            def _backward(g):
                self._accumulate(_unbroadcast(g, self.shape))
            out._backward = _backward
        return out

    # -- elementwise non-linearities -------------------------------------------------

    def exp(self) -> "Tensor":
        data = get_backend().exp(self.data)
        out = self._make(data, (self,), "exp")
        if out.requires_grad:
            def _backward(g):
                self._accumulate(get_backend().multiply(g, data))
            out._backward = _backward
        return out

    def log(self) -> "Tensor":
        out = self._make(get_backend().log(self.data), (self,), "log")
        if out.requires_grad:
            def _backward(g):
                self._accumulate(get_backend().divide(g, self.data))
            out._backward = _backward
        return out

    def sqrt(self) -> "Tensor":
        data = get_backend().sqrt(self.data)
        out = self._make(data, (self,), "sqrt")
        if out.requires_grad:
            def _backward(g):
                B = get_backend()
                self._accumulate(B.divide(B.multiply(g, 0.5),
                                          B.maximum(data, 1e-12)))
            out._backward = _backward
        return out

    def abs(self) -> "Tensor":
        out = self._make(get_backend().absolute(self.data), (self,), "abs")
        if out.requires_grad:
            def _backward(g):
                B = get_backend()
                self._accumulate(B.multiply(g, B.sign(self.data)))
            out._backward = _backward
        return out

    def cos(self) -> "Tensor":
        out = self._make(get_backend().cos(self.data), (self,), "cos")
        if out.requires_grad:
            def _backward(g):
                B = get_backend()
                self._accumulate(B.multiply(B.negative(g), B.sin(self.data)))
            out._backward = _backward
        return out

    def sin(self) -> "Tensor":
        out = self._make(get_backend().sin(self.data), (self,), "sin")
        if out.requires_grad:
            def _backward(g):
                B = get_backend()
                self._accumulate(B.multiply(g, B.cos(self.data)))
            out._backward = _backward
        return out

    def tanh(self) -> "Tensor":
        data = get_backend().tanh_forward(self.data)
        out = self._make(data, (self,), "tanh")
        if out.requires_grad:
            def _backward(g):
                self._accumulate(get_backend().tanh_backward(g, data))
            out._backward = _backward
        return out

    def sigmoid(self) -> "Tensor":
        data = get_backend().sigmoid_forward(self.data)
        out = self._make(data, (self,), "sigmoid")
        if out.requires_grad:
            def _backward(g):
                self._accumulate(get_backend().sigmoid_backward(g, data))
            out._backward = _backward
        return out

    def relu(self) -> "Tensor":
        data, mask = get_backend().relu_forward(self.data)
        out = self._make(data, (self,), "relu")
        if out.requires_grad:
            def _backward(g):
                self._accumulate(get_backend().relu_backward(g, mask))
            out._backward = _backward
        return out

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        data, mask = get_backend().leaky_relu_forward(self.data, negative_slope)
        out = self._make(data, (self,), "leaky_relu")
        if out.requires_grad:
            def _backward(g):
                self._accumulate(get_backend().leaky_relu_backward(
                    g, mask, negative_slope))
            out._backward = _backward
        return out

    def gelu(self) -> "Tensor":
        """GELU with the sigmoid approximation ``x * sigmoid(1.702 x)``.

        The sigmoid form (Hendrycks & Gimpel, 2016) is within 1e-2 of the
        exact GELU and costs a single ``exp`` per element, which matters here
        because the MLP-Mixer blocks apply it to the largest activations in
        the model.
        """
        x = self.data
        data, s = get_backend().gelu_forward(x)
        out = self._make(data, (self,), "gelu")
        if out.requires_grad:
            def _backward(g):
                self._accumulate(get_backend().gelu_backward(g, x, s))
            out._backward = _backward
        return out

    def clip(self, low: float, high: float) -> "Tensor":
        data = get_backend().clip(self.data, low, high)
        out = self._make(data, (self,), "clip")
        if out.requires_grad:
            mask = (self.data >= low) & (self.data <= high)

            def _backward(g):
                self._accumulate(get_backend().multiply(g, mask))
            out._backward = _backward
        return out

    # -- reductions along neighbourhood axes used by aggregators ----------------------

    def softmax(self, axis: int = -1) -> "Tensor":
        data = get_backend().softmax_forward(self.data, axis)
        out = self._make(data, (self,), "softmax")
        if out.requires_grad:
            def _backward(g):
                self._accumulate(get_backend().softmax_backward(g, data, axis))
            out._backward = _backward
        return out

    def log_softmax(self, axis: int = -1) -> "Tensor":
        data = get_backend().log_softmax_forward(self.data, axis)
        out = self._make(data, (self,), "log_softmax")
        if out.requires_grad:
            soft = get_backend().exp(data)

            def _backward(g):
                self._accumulate(get_backend().log_softmax_backward(g, soft,
                                                                    axis))
            out._backward = _backward
        return out


# ---------------------------------------------------------------------------
# free functions over Tensors
# ---------------------------------------------------------------------------


def concatenate(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing back to each."""
    tensors = [Tensor.ensure(t) for t in tensors]
    data = get_backend().concatenate([t.data for t in tensors], axis=axis)
    req = _GRAD_ENABLED and any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=req)
    if req:
        out._prev = tuple(tensors)
        out._op = "concatenate"
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def _backward(g):
            for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    idx = [slice(None)] * data.ndim
                    idx[axis] = slice(int(start), int(stop))
                    t._accumulate(g[tuple(idx)])
        out._backward = _backward
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis``."""
    tensors = [Tensor.ensure(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)
    req = _GRAD_ENABLED and any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=req)
    if req:
        out._prev = tuple(tensors)
        out._op = "stack"

        def _backward(g):
            grads = np.moveaxis(g, axis, 0)
            for t, g in zip(tensors, grads):
                if t.requires_grad:
                    t._accumulate(g)
        out._backward = _backward
    return out


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ W^T + b`` (PyTorch weight layout ``(out, in)``).

    One graph node over the backend's ``linear_forward`` / ``linear_backward``
    kernels: the leading axes of ``x`` are flattened into the rows of one
    GEMM (see "GEMM-shaped linears" in the module docstring), the bias is
    added in place into its output, and the backward pass computes only the
    gradients whose tensor requires one.
    """
    parents = (x, weight) if bias is None else (x, weight, bias)
    a, w = x.data, weight.data
    a2d = a.reshape(-1, a.shape[-1])
    data = get_backend().linear_forward(a2d, w, None if bias is None else bias.data)
    out = x._make(data.reshape(a.shape[:-1] + (w.shape[0],)), parents, "linear")
    if out.requires_grad:
        def _backward(g):
            ga, gw, gb = get_backend().linear_backward(
                g.reshape(-1, w.shape[0]), a2d, w, x.requires_grad,
                weight.requires_grad, bias is not None and bias.requires_grad)
            if ga is not None:
                x._accumulate(ga.reshape(a.shape))
            if gw is not None:
                weight._accumulate(gw)
            if gb is not None:
                bias._accumulate(gb)
        out._backward = _backward
    return out


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last axis with a learnable affine.

    One graph node with an analytic backward, over the backend's
    ``layer_norm_forward`` / ``layer_norm_backward`` kernels; the node
    retains the normalised input
    and the per-row reciprocal standard deviation, and skips the input
    gradient when ``x`` does not require one.  The primitive-composed form
    (``mean`` / ``sub`` / ``mul`` / ``sqrt`` / ``div``) is the test oracle.
    """
    data, xhat, rstd = get_backend().layer_norm_forward(x.data, weight.data,
                                                        bias.data, eps)
    out = x._make(data, (x, weight, bias), "layer_norm")
    if out.requires_grad:
        def _backward(g):
            gx, gw, gb = get_backend().layer_norm_backward(
                g, xhat, rstd, weight.data, x.requires_grad)
            if gx is not None:
                x._accumulate(gx)
            weight._accumulate(gw)
            bias._accumulate(gb)
        out._backward = _backward
    return out


def mixer_block(x: Tensor, fmask: Optional[np.ndarray], params: Sequence[Tensor],
                keep_t: Optional[np.ndarray] = None,
                keep_c: Optional[np.ndarray] = None, eps: float = 1e-5) -> Tensor:
    """One MLP-Mixer block — token mixing then channel mixing, each a
    pre-norm GELU feed-forward with a residual — on ``x`` ``(R, m, d)``.

    One graph node over the backend's ``mixer_block_forward`` /
    ``mixer_block_backward`` kernels, with ``(x, *params)`` as parents.
    ``params`` is the block's twelve parameters in registration order (per
    sub-block: norm weight and bias, ``fc1`` and ``fc2`` weight and bias),
    ``fmask`` the ``(R, m, 1)`` float validity mask applied to the input and
    the output, ``keep_t`` ``(R, h_t, d)`` / ``keep_c`` ``(R, m, h_c)`` the
    scaled dropout keep-masks of the two hidden layers.  The composition of
    ``layer_norm`` / ``linear`` / ``gelu`` it replaces is the test oracle.
    """
    parents = (x, *params)
    arrays = [p.data for p in params]
    req = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    data, saved = get_backend().mixer_block_forward(x.data, fmask, arrays, keep_t,
                                                    keep_c, eps, req)
    out = Tensor(data, requires_grad=req)
    if req:
        out._prev = parents
        out._op = "mixer_block"

        def _backward(g):
            grads = get_backend().mixer_block_backward(
                g, saved, arrays, [p.requires_grad for p in parents])
            for parent, grad in zip(parents, grads):
                if grad is not None:
                    parent._accumulate(grad)
        out._backward = _backward
    return out


def temporal_attention(delta: np.ndarray, mask: np.ndarray,
                       edge_feat: Optional[np.ndarray], h_target: Optional[Tensor],
                       h_neighbors: Optional[Tensor], gate: Optional[Tensor],
                       params: Sequence[Tensor], num_heads: int,
                       keep_attn: Optional[np.ndarray] = None,
                       keep_merge: Optional[np.ndarray] = None
                       ) -> Tuple[Tensor, np.ndarray]:
    """TGAT's temporal-attention aggregate of ``n`` sampled neighbors per row
    — learnable time encoding of ``delta`` ``(R, n)``, messages ``h || edge ||
    Phi(dt)`` scaled by ``gate``, masked multi-head attention from the query
    ``h_target || Phi(0)``, output projection and the merge MLP over
    ``attended || h_target``.  Returns the ``(R, d)`` result and the
    ``(R, heads, n)`` attention weights (a plain array).

    One graph node over the backend's ``temporal_attention_forward`` /
    ``temporal_attention_backward`` kernels, with those of ``(h_target,
    h_neighbors, gate, *params)`` that are given as parents.  ``params`` is
    the time encoder's ``w, b`` followed by the layer's twelve parameters in
    registration order; ``h_target`` / ``h_neighbors`` are ``None`` for the
    *zero state* (no node features below layer 1), whose weight columns are
    then never multiplied; ``keep_attn`` / ``keep_merge`` are the ``(R, d)``
    scaled dropout keep-masks.  The composition of ``linear`` / ``matmul`` /
    ``masked_softmax`` nodes it replaces is the test oracle.
    """
    slots = (h_target, h_neighbors, gate, *params)
    arrays = [p.data for p in params]
    need = [s is not None and s.requires_grad for s in slots]
    req = _GRAD_ENABLED and any(need)
    data, attn, saved = get_backend().temporal_attention_forward(
        delta, mask, edge_feat, *(None if s is None else s.data for s in slots[:3]),
        arrays, num_heads, keep_attn, keep_merge, req)
    out = Tensor(data, requires_grad=req)
    if req:
        out._prev = tuple(s for s in slots if s is not None)
        out._op = "temporal_attention"

        def _backward(g):
            grads = get_backend().temporal_attention_backward(g, saved, arrays, need)
            for slot, grad in zip(slots, grads):
                if grad is not None:
                    slot._accumulate(grad)
        out._backward = _backward
    return out, attn


def scatter_rows(src: Tensor, index: np.ndarray, num_rows: int,
                 fill: float = 0.0) -> Tensor:
    """Rows of ``src`` placed at ``index`` of a ``(num_rows, ...)`` tensor.

    The inverse of row indexing ``full[index]`` for distinct ``index``: rows
    not named hold ``fill`` and receive no gradient.
    """
    data = np.full((num_rows,) + src.shape[1:], fill, dtype=src.dtype)
    data[index] = src.data
    out = src._make(data, (src,), "scatter_rows")
    if out.requires_grad:
        def _backward(g):
            src._accumulate(g[index])
        out._backward = _backward
    return out


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Element-wise select; ``condition`` is a plain boolean array."""
    a, b = Tensor.ensure(a), Tensor.ensure(b)
    cond = condition.data if isinstance(condition, Tensor) else np.asarray(condition)
    data = get_backend().where(cond, a.data, b.data)
    req = _GRAD_ENABLED and (a.requires_grad or b.requires_grad)
    out = Tensor(data, requires_grad=req)
    if req:
        out._prev = (a, b)
        out._op = "where"

        def _backward(g):
            B = get_backend()
            if a.requires_grad:
                a._accumulate(_unbroadcast(B.multiply(g, cond), a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(B.multiply(g, ~cond), b.shape))
        out._backward = _backward
    return out
