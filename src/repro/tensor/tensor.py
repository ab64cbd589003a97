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
* reductions (``sum``, ``mean``),
* shape manipulation (``reshape``, ``transpose``, ``concatenate``, indexing),
* the non-linearities used by the models (``sigmoid``, ``tanh``, ``relu``,
  ``leaky_relu``, ``gelu``, ``softmax``, ``exp``, ``log``).

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
The graph is acyclic by construction: a node joins it only in the
:class:`Tensor` constructor, as ``Tensor(data, parents=..., op=..., rule=...)``,
and the rule — ``rule(g)`` returns one gradient (or ``None``) per parent — is
built before the node exists, so it can capture the parents and the forward's
arrays but never its own output.  The constructor wires ``_prev`` and a
``_backward`` that hands each parent its gradient, in parent order, after the
rule has returned them all.  A graph therefore dies by reference counting the
moment the last tensor referencing it (a loss, a ``TrainStep``) goes out of
scope; the cyclic collector has nothing to find.

A graph is also single-use: :meth:`Tensor.backward` drops each node's rule
and its ``_prev`` links right after the rule has run, so the arrays the rule
captured (a composite kernel's ``saved`` activations) die at their last use,
while the node is still referenced — a sampler graph hanging off a
``PreparedBatch`` no longer outlives its step.  Every node keeps its
``.data`` and ``.grad`` (the sample loss reads ``embeddings.grad`` and the
hop gates' gradients after the model backward).  A ``backward()`` whose walk
reaches a consumed node raises :class:`GraphConsumedError` before it writes
any gradient: a second ``loss.backward()``, or a second loss sharing an
interior node with a back-propagated one, would otherwise return partial
gradients.  There is no ``retain_graph``; build the graph again.  Graphs that
share only leaves (the model loss and the sample loss share parameters) are
unaffected.

Gradient ownership
------------------
Nodes are visited in reverse topological order, so a node's gradient is final
before its rule hands it to the node's parents.  Copying it for the common
case of a single consumer is therefore pointless:

* an *interior* node **borrows** its first contribution (the array itself,
  possibly a view of, or the same buffer as, its consumer's gradient);
* the next contribution is added out of place (``grad = grad + g``); the node
  then owns that buffer and accumulates further contributions in place.  Its
  own rule then hands the buffer on, and the node takes no further
  contribution: the graph is consumed (see "Graph lifetime");
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
:func:`linear`, :func:`layer_norm`, :func:`mixer_block`,
:func:`temporal_attention`, :func:`graphmixer_aggregate`,
:func:`edge_predictor` and the adaptive sampler's :func:`sampler_encode` and
:func:`sampler_head` are one graph node each with an analytic backward,
over a forward / backward kernel pair on the array backend; the kernels
compute only the gradients whose tensor requires one and never write into the
``g`` they receive.  The
primitive-composed forms (``x @ W.T + b``, ``mean`` / ``sub`` / ``sqrt`` /
``div``, the mixer block's modules, TGAT's and GraphMixer's concatenated
messages, per-head matmuls, the sampler's encoder modules and its
softmax / log / gather tail) agree with them to the last few ulps — the edge
predictor's bit for bit — and live on as test oracles.

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

from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

import repro.tensor as _pkg  # COMPUTE_DTYPE is read there at call time

from .backend import get_backend

__all__ = ["Tensor", "GraphConsumedError", "no_grad", "is_grad_enabled"]


class GraphConsumedError(RuntimeError):
    """:meth:`Tensor.backward` reached a node whose graph an earlier
    ``backward()`` already consumed (see "Graph lifetime")."""


def _consumed(grad) -> None:
    """The rule of a node whose graph has been back-propagated."""
    raise GraphConsumedError(
        "backward() reached a node of a graph that an earlier backward() "
        "consumed; a graph is back-propagated once (build it again)")

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
        self._was_enabled = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._was_enabled


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


def _route(parents: Sequence[Optional["Tensor"]], rule, grad: np.ndarray) -> None:
    """A node's backward: hand each parent its gradient from ``rule(grad)``,
    in parent order, once the rule has returned them all."""
    for parent, g in zip(parents, rule(grad)):
        if g is not None:
            parent._accumulate(g)


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
        :meth:`backward` (a leaf; a node derives it from its parents).
    parents, op, rule:
        Make the tensor a graph node — the only way one is made (see "Graph
        lifetime").  ``parents`` are the operands, a ``None`` entry an absent
        one; ``rule(g)`` returns one gradient or ``None`` per entry of
        ``parents`` given the node's gradient ``g``, and must not write into
        ``g``.  The node joins the graph only while grads are enabled and a
        parent requires one; otherwise it is a leaf holding ``data``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "_op",
                 "_grad_shared", "__weakref__")

    def __init__(self, data: ArrayLike, requires_grad: bool = False, dtype=None, *,
                 parents: Sequence[Optional["Tensor"]] = (), op: str = "",
                 rule: Optional[Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]]
                 = None):
        # An array as it is (every kernel result) needs no conversion.
        self.data: np.ndarray = data if dtype is None and type(data) is np.ndarray \
            else _as_array(data, dtype)
        self.requires_grad: bool = bool(requires_grad) and _GRAD_ENABLED
        self.grad: Optional[np.ndarray] = None
        #: ``_backward(grad_of_this_node)`` hands each parent its gradient; it
        #: holds the parents and the rule, never this node.
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._prev: Tuple["Tensor", ...] = ()
        self._op: str = ""
        self._grad_shared: bool = False
        if parents and _GRAD_ENABLED:
            # A leaf, unless a parent requires a gradient.
            for parent in parents:
                if parent is not None and parent.requires_grad:
                    break
            else:
                return

            self.requires_grad = True
            self._backward = partial(_route, parents, rule)
            self._prev = tuple(parents) if None not in parents else \
                tuple([p for p in parents if p is not None])
            self._op = op

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

        # Topological sort of the graph reachable from ``self``.  A consumed
        # node stops the walk before any gradient is written.
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
            if node._backward is _consumed:
                _consumed(None)
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        # Reverse topological order: a node's gradient is final before its
        # rule passes it on, which is what lets parents borrow it.  Once the
        # rule has run the node lets go of it and of its parents, so what the
        # rule captured dies here (see "Graph lifetime").
        for node in reversed(topo):
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node.grad)
                node._backward = _consumed
                node._prev = ()

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._operand(other)

        def rule(g):
            return (_unbroadcast(g, self.shape) if self.requires_grad else None,
                    _unbroadcast(g, other.shape) if other.requires_grad else None)
        return Tensor(get_backend().add(self.data, other.data), parents=(self, other),
                      op="add", rule=rule)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._operand(other)

        def rule(g):
            return (_unbroadcast(g, self.shape) if self.requires_grad else None,
                    _unbroadcast(get_backend().negative(g), other.shape)
                    if other.requires_grad else None)
        return Tensor(get_backend().subtract(self.data, other.data),
                      parents=(self, other), op="sub", rule=rule)

    def __rsub__(self, other):
        return self._operand(other).__sub__(self)

    def __neg__(self) -> "Tensor":
        return Tensor(get_backend().negative(self.data), parents=(self,), op="neg",
                      rule=lambda g: (get_backend().negative(g),))

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._operand(other)

        def rule(g):
            B = get_backend()
            return (_unbroadcast(B.multiply(g, other.data), self.shape)
                    if self.requires_grad else None,
                    _unbroadcast(B.multiply(g, self.data), other.shape)
                    if other.requires_grad else None)
        return Tensor(get_backend().multiply(self.data, other.data),
                      parents=(self, other), op="mul", rule=rule)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._operand(other)

        def rule(g):
            B = get_backend()
            return (_unbroadcast(B.divide(g, other.data), self.shape)
                    if self.requires_grad else None,
                    _unbroadcast(B.divide(B.multiply(B.negative(g), self.data),
                                          B.power(other.data, 2)), other.shape)
                    if other.requires_grad else None)
        return Tensor(get_backend().divide(self.data, other.data),
                      parents=(self, other), op="div", rule=rule)

    def __rtruediv__(self, other):
        return self._operand(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")

        def rule(g):
            B = get_backend()
            return (B.multiply(B.multiply(g, exponent), B.power(self.data, exponent - 1)),)
        return Tensor(get_backend().power(self.data, exponent), parents=(self,),
                      op="pow", rule=rule)

    def __matmul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._operand(other)
        a, b = self.data, other.data
        if a.ndim > 2 and b.ndim == 2:
            # A shared right operand makes the leading axes plain rows: the
            # product is the linear node with ``b`` as the transposed weight.
            return linear(self, other.T)

        def rule(g):
            B = get_backend()
            ga = gb = None
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
                ga = _unbroadcast(ga, a.shape)
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
                gb = _unbroadcast(gb, b.shape)
            return ga, gb
        return Tensor(get_backend().matmul(a, b), parents=(self, other), op="matmul",
                      rule=rule)

    # -- reductions --------------------------------------------------------------

    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
            keepdims: bool = False) -> "Tensor":
        def rule(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            return (get_backend().broadcast_grad(g, self.shape),)
        return Tensor(get_backend().sum(self.data, axis=axis, keepdims=keepdims),
                      parents=(self,), op="sum", rule=rule)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
             keepdims: bool = False) -> "Tensor":
        def rule(g):
            B = get_backend()
            if axis is None:
                count = self.data.size
            else:
                axes = (axis,) if isinstance(axis, int) else axis
                count = int(np.prod([self.shape[a] for a in axes]))
                if not keepdims:
                    g = np.expand_dims(g, axis=axis)
            return (B.divide(B.broadcast_grad(g, self.shape), count),)
        return Tensor(get_backend().mean(self.data, axis=axis, keepdims=keepdims),
                      parents=(self,), op="mean", rule=rule)

    # -- shape ops ------------------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Tensor(self.data.reshape(shape), parents=(self,), op="reshape",
                      rule=lambda g: (g.reshape(self.shape),))

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes_t = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes_t = tuple(axes[0])
        else:
            axes_t = tuple(axes)
        return Tensor(self.data.transpose(axes_t), parents=(self,), op="transpose",
                      rule=lambda g: (g.transpose(tuple(np.argsort(axes_t))),))

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(*axes)

    def __getitem__(self, index) -> "Tensor":
        return Tensor(self.data[index], parents=(self,), op="getitem",
                      rule=lambda g: (get_backend().index_add(self.data, index, g),))

    def broadcast_to(self, shape: Tuple[int, ...]) -> "Tensor":
        return Tensor(np.broadcast_to(self.data, shape).copy(), parents=(self,),
                      op="broadcast_to", rule=lambda g: (_unbroadcast(g, self.shape),))

    # -- elementwise non-linearities -------------------------------------------------

    def exp(self) -> "Tensor":
        data = get_backend().exp(self.data)
        return Tensor(data, parents=(self,), op="exp",
                      rule=lambda g: (get_backend().multiply(g, data),))

    def log(self) -> "Tensor":
        return Tensor(get_backend().log(self.data), parents=(self,), op="log",
                      rule=lambda g: (get_backend().divide(g, self.data),))

    def sqrt(self) -> "Tensor":
        data = get_backend().sqrt(self.data)

        def rule(g):
            B = get_backend()
            return (B.divide(B.multiply(g, 0.5), B.maximum(data, 1e-12)),)
        return Tensor(data, parents=(self,), op="sqrt", rule=rule)

    def abs(self) -> "Tensor":
        def rule(g):
            B = get_backend()
            return (B.multiply(g, B.sign(self.data)),)
        return Tensor(get_backend().absolute(self.data), parents=(self,), op="abs",
                      rule=rule)

    def tanh(self) -> "Tensor":
        data = get_backend().tanh_forward(self.data)
        return Tensor(data, parents=(self,), op="tanh",
                      rule=lambda g: (get_backend().tanh_backward(g, data),))

    def sigmoid(self) -> "Tensor":
        data = get_backend().sigmoid_forward(self.data)
        return Tensor(data, parents=(self,), op="sigmoid",
                      rule=lambda g: (get_backend().sigmoid_backward(g, data),))

    def relu(self) -> "Tensor":
        data, mask = get_backend().relu_forward(self.data)
        return Tensor(data, parents=(self,), op="relu",
                      rule=lambda g: (get_backend().relu_backward(g, mask),))

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        data, mask = get_backend().leaky_relu_forward(self.data, negative_slope)
        return Tensor(data, parents=(self,), op="leaky_relu",
                      rule=lambda g: (get_backend().leaky_relu_backward(
                          g, mask, negative_slope),))

    def gelu(self) -> "Tensor":
        """GELU with the sigmoid approximation ``x * sigmoid(1.702 x)``.

        The sigmoid form (Hendrycks & Gimpel, 2016) is within 1e-2 of the
        exact GELU and costs a single ``exp`` per element, which matters here
        because the MLP-Mixer blocks apply it to the largest activations in
        the model.
        """
        x = self.data
        data, s = get_backend().gelu_forward(x)
        return Tensor(data, parents=(self,), op="gelu",
                      rule=lambda g: (get_backend().gelu_backward(g, x, s),))

    # -- reductions along neighbourhood axes used by aggregators ----------------------

    def softmax(self, axis: int = -1) -> "Tensor":
        data = get_backend().softmax_forward(self.data, axis)
        return Tensor(data, parents=(self,), op="softmax",
                      rule=lambda g: (get_backend().softmax_backward(g, data, axis),))



# ---------------------------------------------------------------------------
# free functions over Tensors
# ---------------------------------------------------------------------------


def concatenate(tensors: Sequence[Tensor], axis: int = -1,
                out: Optional[np.ndarray] = None) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing back to each.

    With ``out`` — an array of the result's shape and dtype in whatever memory
    layout its consumer reads (``MixerBlock.input_buffer``) — the parts are
    copied straight into it and the result wraps it; a dtype mismatch raises
    instead of casting.
    """
    tensors = [Tensor.ensure(t) for t in tensors]
    arrays = [t.data for t in tensors]
    data = get_backend().concatenate(arrays, axis=axis) if out is None else \
        np.concatenate(arrays, axis=axis, out=out, casting="no")

    def rule(g):
        idx = [slice(None)] * g.ndim
        grads, start = [], 0
        for t in tensors:
            stop = start + t.data.shape[axis]
            idx[axis] = slice(start, stop)
            grads.append(g[tuple(idx)] if t.requires_grad else None)
            start = stop
        return grads
    return Tensor(data, parents=tensors, op="concatenate", rule=rule)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ W^T + b`` (PyTorch weight layout ``(out, in)``).

    One graph node over the backend's ``linear_forward`` / ``linear_backward``
    kernels: the leading axes of ``x`` are flattened into the rows of one
    GEMM (see "GEMM-shaped linears" in the module docstring), the bias is
    added in place into its output, and the backward pass computes only the
    gradients whose tensor requires one.
    """
    a, w = x.data, weight.data
    a2d = a.reshape(-1, a.shape[-1])
    data = get_backend().linear_forward(a2d, w, None if bias is None else bias.data)

    def rule(g):
        ga, gw, gb = get_backend().linear_backward(
            g.reshape(-1, w.shape[0]), a2d, w, x.requires_grad,
            weight.requires_grad, bias is not None and bias.requires_grad)
        return None if ga is None else ga.reshape(a.shape), gw, gb
    return Tensor(data.reshape(a.shape[:-1] + (w.shape[0],)), parents=(x, weight, bias),
                  op="linear", rule=rule)


#: the variance floor of every layer norm: ``layer_norm`` and both norms of
#: a mixer block (GraphMixer's included).
LAYER_NORM_EPS = 1e-5


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Layer normalisation over the last axis with a learnable affine.

    One graph node with an analytic backward, over the backend's
    ``layer_norm_forward`` / ``layer_norm_backward`` kernels; the node
    retains the normalised input
    and the per-row reciprocal standard deviation, and skips the input
    gradient when ``x`` does not require one.  The primitive-composed form
    (``mean`` / ``sub`` / ``mul`` / ``sqrt`` / ``div``) is the test oracle.
    """
    data, xhat, rstd = get_backend().layer_norm_forward(x.data, weight.data,
                                                        bias.data, LAYER_NORM_EPS)
    return Tensor(data, parents=(x, weight, bias), op="layer_norm",
                  rule=lambda g: get_backend().layer_norm_backward(
                      g, xhat, rstd, weight.data, x.requires_grad))


def mixer_block(x: Tensor, fmask: Optional[np.ndarray], params: Sequence[Tensor],
                keep_t: Optional[np.ndarray] = None,
                keep_c: Optional[np.ndarray] = None,
                live_channels: Optional[int] = None) -> Tensor:
    """One MLP-Mixer block — token mixing then channel mixing, each a
    pre-norm GELU feed-forward with a residual — on ``x`` ``(R, m, d)``.

    One graph node over the backend's ``mixer_block_forward`` /
    ``mixer_block_backward`` kernels, with ``(x, *params)`` as parents.
    ``params`` is the block's twelve parameters in registration order (per
    sub-block: norm weight and bias, ``fc1`` and ``fc2`` weight and bias),
    ``fmask`` the ``(R, m, 1)`` float validity mask applied to the input and
    the output, ``keep_t`` ``(R, h_t, d)`` / ``keep_c`` ``(R, m, h_c)`` the
    scaled dropout keep-masks of the two hidden layers.  With
    ``live_channels`` only the leading channels of ``x``'s gradient are
    formed, the rest reading zero: channels that nothing upstream takes a
    gradient from need none (the adaptive sampler's fixed encodings).  The
    composition of ``layer_norm`` / ``linear`` / ``gelu`` it replaces is the
    test oracle.  Under ``no_grad`` an ``x`` laid out channel-major
    (``MixerBlock.input_buffer``) is taken over: the result is computed in
    its buffer, so ``x`` must not be read afterwards.
    """
    parents = (x, *params)
    arrays = [p.data for p in params]
    need = [p.requires_grad for p in parents] if _GRAD_ENABLED else ()
    req = any(need)
    if req and need[0] and live_channels is not None:
        need[0] = live_channels
    data, saved = get_backend().mixer_block_forward(x.data, fmask, arrays, keep_t,
                                                    keep_c, LAYER_NORM_EPS, req)
    return Tensor(data, parents=parents, op="mixer_block",
                  rule=lambda g: get_backend().mixer_block_backward(g, saved, arrays, need))


def sampler_encode(out: np.ndarray, feats: Sequence[np.ndarray],
                   params: Sequence[Tensor], delta: np.ndarray, omega: np.ndarray,
                   nodes: np.ndarray, mask: np.ndarray,
                   inv_wavelength: Optional[np.ndarray], identity: bool) -> Tensor:
    """The adaptive sampler's neighbor encoding ``h(u) || h(v,u,t) || TE(dt)
    || FE(freq) || IE(u)`` of ``R`` rows of ``m`` candidates, written into
    ``out`` — an ``(R, m, d)`` array laid out channel-major
    (``MixerBlock.input_buffer``) — and returned as a tensor over it.

    One graph node over the backend's ``sampler_encode_forward`` /
    ``sampler_encode_backward`` kernels, with ``params`` — weight and bias of
    each GELU projection of ``feats`` — as parents.  ``delta`` ``(R, m)`` are
    the timespans of the fixed time encoding ``cos(delta * omega)``,
    ``nodes`` / ``mask`` the candidates' ids and validity behind the
    frequency encoding (``inv_wavelength``; ``None``: left out) and, with
    ``identity``, the identity encoding.  Only the projections carry
    parameters, and they lead: the backward reads only those channels of
    its gradient.  The concatenation of the encoder modules it replaces is
    the test oracle.
    """
    arrays = [p.data for p in params]
    need = [p.requires_grad for p in params] if _GRAD_ENABLED else ()
    saved = get_backend().sampler_encode_forward(
        out.transpose(2, 1, 0), feats, arrays, delta, omega, nodes, mask,
        inv_wavelength, identity, any(need))
    return Tensor(out, parents=params, op="sampler_encode",
                  rule=lambda g: get_backend().sampler_encode_backward(
                      g, saved, arrays, need))


def sampler_head(scores: Tensor, mask: np.ndarray, budget: int, temperature: float,
                 noise: Optional[np.ndarray], live: np.ndarray, num_rows: int,
                 floor: float) -> Tuple[Tensor, np.ndarray, np.ndarray, np.ndarray]:
    """The adaptive sampler's selection from the decoder's ``(L, m)``
    scores of the live rows ``live`` of an ``R = num_rows`` batch: ``q =
    masked_softmax(scores / temperature)``, Gumbel-top-``budget`` columns
    under ``noise`` (``None``: greedy) and ``log(q + floor)`` of the
    selected, scattered to all ``R`` rows.  Returns ``(log_prob, columns,
    selected, probs)``: the ``(R, budget)`` log-probabilities as a tensor,
    the picked columns and their validity, and ``q`` as an ``(R, m)`` array.

    One graph node over the backend's ``sampler_head_forward`` /
    ``sampler_head_backward`` kernels with ``scores`` as its parent; the
    backward is the closed form of the composed ``mul`` / ``masked_softmax``
    / ``log`` / ``getitem`` chain it replaces (the test oracle).
    """
    req = _GRAD_ENABLED and scores.requires_grad
    log_prob, columns, selected, probs, saved = get_backend().sampler_head_forward(
        scores.data, mask, budget, temperature, noise, live, num_rows, floor, req)
    out = Tensor(log_prob, parents=(scores,), op="sampler_head",
                 rule=lambda g: (get_backend().sampler_head_backward(
                     g, saved, temperature, floor),))
    return out, columns, selected, probs


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
    need = [s is not None and s.requires_grad for s in slots] if _GRAD_ENABLED else ()
    data, attn, saved = get_backend().temporal_attention_forward(
        delta, mask, edge_feat, *(None if s is None else s.data for s in slots[:3]),
        arrays, num_heads, keep_attn, keep_merge, any(need))
    out = Tensor(data, parents=slots, op="temporal_attention",
                 rule=lambda g: get_backend().temporal_attention_backward(
                     g, saved, arrays, need))
    return out, attn


def graphmixer_aggregate(delta: np.ndarray, mask: np.ndarray,
                         edge_feat: Optional[np.ndarray], h_target: Optional[Tensor],
                         h_neighbors: Optional[Tensor], gate: Optional[Tensor],
                         params: Sequence[Tensor], omega: np.ndarray,
                         keep_t: Optional[np.ndarray] = None,
                         keep_c: Optional[np.ndarray] = None) -> Tensor:
    """GraphMixer's aggregate of ``n`` sampled neighbors per row — fixed time
    encoding ``cos(delta * omega)``, messages ``h || edge || Phi(dt)`` scaled
    by ``gate`` through ``message_proj``, one MLP-Mixer block over the masked
    tokens, the mean over the valid ones and ``out_proj`` over ``pooled ||
    h_target``.  Returns the ``(R, d)`` result.

    One graph node over the backend's ``graphmixer_aggregate_forward`` /
    ``graphmixer_aggregate_backward`` kernels, with those of ``(h_target,
    h_neighbors, gate, *params)`` that are given as parents.  ``params`` is
    ``message_proj``'s weight and bias, the block's twelve parameters and
    ``out_proj``'s weight and bias; ``h_target`` / ``h_neighbors`` are
    ``None`` for the zero state, whose weight columns are then never
    multiplied; ``keep_t`` / ``keep_c`` are the block's scaled dropout
    keep-masks.  The composition of ``linear`` / ``mixer_block`` / ``sum``
    nodes over the concatenated messages it replaces is the test oracle.
    """
    slots = (h_target, h_neighbors, gate, *params)
    arrays = [p.data for p in params]
    need = [s is not None and s.requires_grad for s in slots] if _GRAD_ENABLED else ()
    data, saved = get_backend().graphmixer_aggregate_forward(
        delta, mask, edge_feat, None if h_target is None else h_target.data,
        None if h_neighbors is None else h_neighbors.data,
        None if gate is None else gate.data, arrays, omega, keep_t, keep_c,
        LAYER_NORM_EPS, any(need))
    return Tensor(data, parents=slots, op="graphmixer_aggregate",
                  rule=lambda g: get_backend().graphmixer_aggregate_backward(
                      g, saved, arrays, need))


def edge_predictor(h_src: Tensor, h_dst: Tensor, params: Sequence[Tensor]) -> Tensor:
    """Logits ``out(relu(src_proj(h_src) + dst_proj(h_dst)))`` of ``B``
    embedding pairs, shape ``(B,)``.

    One graph node over the backend's ``edge_predictor_forward`` /
    ``edge_predictor_backward`` kernels, with ``(h_src, h_dst, *params)`` as
    parents; ``params`` is the weight and bias of ``src_proj``, ``dst_proj``
    and ``out``.  Both passes run the composed nodes' ops in their order, so
    the composition — the test oracle — agrees bit for bit.
    """
    parents = (h_src, h_dst, *params)
    arrays = [p.data for p in params]
    need = [p.requires_grad for p in parents] if _GRAD_ENABLED else ()
    data, saved = get_backend().edge_predictor_forward(h_src.data, h_dst.data, arrays,
                                                       any(need))

    def rule(g):
        grads = get_backend().edge_predictor_backward(g, saved, arrays, need)
        return [None if grad is None else grad.reshape(parent.shape)
                for parent, grad in zip(parents, grads)]
    return Tensor(data, parents=parents, op="edge_predictor", rule=rule)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Element-wise select; ``condition`` is a plain boolean array."""
    a, b = Tensor.ensure(a), Tensor.ensure(b)
    cond = condition.data if isinstance(condition, Tensor) else np.asarray(condition)

    def rule(g):
        B = get_backend()
        return (_unbroadcast(B.multiply(g, cond), a.shape) if a.requires_grad else None,
                _unbroadcast(B.multiply(g, ~cond), b.shape) if b.requires_grad else None)
    return Tensor(get_backend().where(cond, a.data, b.data), parents=(a, b), op="where",
                  rule=rule)
