"""Property-based tests (hypothesis) for the autograd engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.optim import clip_grad_norm
from repro.tensor import GraphConsumedError, Tensor, concatenate
from repro.tensor import functional as F
from repro.tensor.gradcheck import gradcheck

finite_floats = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False,
                          allow_infinity=False)


def small_matrix(rows=st.integers(1, 4), cols=st.integers(1, 4)):
    return st.tuples(rows, cols).flatmap(
        lambda shape: arrays(np.float64, shape, elements=finite_floats))


@settings(max_examples=25, deadline=None)
@given(small_matrix())
def test_softmax_is_distribution(data):
    probs = Tensor(data).softmax(axis=-1).data
    assert np.all(probs >= 0)
    assert np.allclose(probs.sum(axis=-1), 1.0)


@settings(max_examples=25, deadline=None)
@given(small_matrix())
def test_sigmoid_symmetry(data):
    x = Tensor(data)
    assert np.allclose(x.sigmoid().data + (-x).sigmoid().data, 1.0)


@settings(max_examples=25, deadline=None)
@given(small_matrix(), small_matrix())
def test_add_commutes_and_mul_distributes(a, b):
    # Broadcast to a common shape by trimming to the smaller one.
    rows = min(a.shape[0], b.shape[0])
    cols = min(a.shape[1], b.shape[1])
    a, b = a[:rows, :cols], b[:rows, :cols]
    ta, tb = Tensor(a), Tensor(b)
    assert np.allclose((ta + tb).data, (tb + ta).data)
    assert np.allclose(((ta + tb) * 2.0).data, (ta * 2.0 + tb * 2.0).data)


@settings(max_examples=20, deadline=None)
@given(small_matrix())
def test_sum_mean_consistency(data):
    x = Tensor(data)
    assert np.isclose(float(x.mean().data), float(x.sum().data) / data.size)


@settings(max_examples=15, deadline=None)
@given(arrays(np.float64, (3, 3), elements=finite_floats))
def test_gradcheck_random_composite(data):
    """The chain sigmoid(x) * tanh(x) + softmax always gradchecks."""
    x = Tensor(data, requires_grad=True)
    gradcheck(lambda a: (a.sigmoid() * a.tanh()).sum() + a.softmax(-1).sum(), [x],
              atol=1e-3, rtol=1e-2)


@settings(max_examples=20, deadline=None)
@given(arrays(np.float64, (4, 3), elements=finite_floats),
       arrays(np.float64, (3, 2), elements=finite_floats))
def test_matmul_grad_shapes(a, b):
    ta = Tensor(a, requires_grad=True)
    tb = Tensor(b, requires_grad=True)
    (ta @ tb).sum().backward()
    assert ta.grad.shape == a.shape
    assert tb.grad.shape == b.shape
    # d(sum(AB))/dA = 1 @ B^T  (rows identical)
    assert np.allclose(ta.grad, np.tile(b.sum(axis=1), (4, 1)))


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5))
def test_backward_of_ones_like_sum_is_ones(rows, cols):
    x = Tensor(np.random.default_rng(0).standard_normal((rows, cols)),
               requires_grad=True)
    x.sum().backward()
    assert np.allclose(x.grad, np.ones((rows, cols)))


# ---------------------------------------------------------------------------
# gradient ownership: interior nodes borrow, second contribution copies,
# leaves own
# ---------------------------------------------------------------------------

def copy_on_first_accumulate(self, grad):
    """Oracle ``Tensor._accumulate``: every node materialises its own buffer
    on the first contribution and adds into it afterwards — no borrowing, so
    no aliasing is possible by construction."""
    if not self.requires_grad:
        return
    if self.grad is None:
        self.grad = np.zeros_like(self.data, dtype=np.float64)
    self.grad += grad


# Every op maps (2, 3) operands to a (2, 3) result, so any node can feed any
# later op: fan-out (a node consumed 1-3 times, ``x + x``) comes from the
# drawn operand indices.  Values are small integers, which keeps every sum
# and product exact — gradients are then independent of summation order and
# layout, and "bitwise-equal to the oracle" tests aliasing, not rounding.
DAG_OPS = {
    "add": lambda a, b, leaves: a + b,
    "sub": lambda a, b, leaves: a - b,
    "add_self": lambda a, b, leaves: a + a,
    "mul_leaf": lambda a, b, leaves: a * leaves[0],
    "bcast_row": lambda a, b, leaves: a + leaves[1],             # (3,)
    "bcast_col": lambda a, b, leaves: b * leaves[2],             # (2, 1)
    "reshape_view": lambda a, b, leaves: a.reshape(3, 2).reshape(2, 3) + b,
    "transpose_view": lambda a, b, leaves: a.transpose().reshape(2, 3),
    "double_transpose": lambda a, b, leaves: a.transpose().transpose(),
    "slice_rotate": lambda a, b, leaves: concatenate([a[:, 1:], b[:, :1]], axis=1),
    "concat_slice": lambda a, b, leaves: concatenate([a, b], axis=0)[1:3],
    "strided_slice": lambda a, b, leaves: concatenate([a, b], axis=1)[:, ::2],
    "fancy_repeat": lambda a, b, leaves: a[np.array([1, 1])] + b[np.array([0, 1])],
    "flat_matmul": lambda a, b, leaves: (
        a.reshape(1, 2, 3) @ leaves[3]).reshape(2, 3),           # (3, 3)
    "negate": lambda a, b, leaves: -a,
    # The composite nodes; layer norm draws weight and bias from one leaf, so
    # a single rule contributes twice to it.  (Its square root is inexact,
    # but engine and oracle run the same float operations in the same order.)
    "linear": lambda a, b, leaves: F.linear(a, leaves[3], leaves[1]),
    "layer_norm": lambda a, b, leaves: F.layer_norm(a + b, leaves[1], leaves[1]),
}

LEAF_SHAPES = [(2, 3), (3,), (2, 1), (3, 3)]
small_ints = st.integers(-2, 2).map(float)
dag_programs = st.lists(
    st.tuples(st.sampled_from(sorted(DAG_OPS)), st.integers(0, 64),
              st.integers(0, 64)),
    min_size=1, max_size=7)


def run_dag(leaf_values, program, sinks, passes):
    leaves = [Tensor(v.copy(), requires_grad=True) for v in leaf_values]
    nodes = [leaves[0] + 0.0]
    for op, i, j in program:
        nodes.append(DAG_OPS[op](nodes[i % len(nodes)], nodes[j % len(nodes)],
                                 leaves))
    loss = nodes[-1].sum()
    for s in sinks:
        loss = loss + nodes[s % len(nodes)].sum()
    loss.backward()
    if passes == 2:
        # The first pass consumed the graph: a second one raises before it
        # writes into any buffer the first pass handed on.
        before = [None if t.grad is None else t.grad.copy() for t in leaves + nodes]
        with pytest.raises(GraphConsumedError):
            loss.backward()
        for t, grad in zip(leaves + nodes, before):
            assert (t.grad is None) == (grad is None)
            if grad is not None:
                assert t.grad.tobytes() == grad.tobytes()
    return leaves, nodes


@settings(max_examples=150, deadline=None)
@given(st.tuples(*[arrays(np.float64, shape, elements=small_ints)
                   for shape in LEAF_SHAPES]),
       dag_programs, st.lists(st.integers(0, 64), max_size=2),
       st.integers(1, 2))
def test_gradient_ownership_matches_copy_on_first_oracle(leaf_values, program,
                                                         sinks, passes):
    leaves, nodes = run_dag(leaf_values, program, sinks, passes)

    engine_accumulate = Tensor._accumulate
    Tensor._accumulate = copy_on_first_accumulate
    try:
        oracle_leaves, oracle_nodes = run_dag(leaf_values, program, sinks,
                                              passes)
    finally:
        Tensor._accumulate = engine_accumulate

    for leaf, oracle in zip(leaves, oracle_leaves):
        assert (leaf.grad is None) == (oracle.grad is None)
        if leaf.grad is not None:
            assert leaf.grad.tobytes() == oracle.grad.tobytes()
    for node, oracle in zip(nodes, oracle_nodes):
        assert (node.grad is None) == (oracle.grad is None)
        if node.grad is not None:
            assert np.array_equal(node.grad, oracle.grad)

    # Leaves own their buffers: shared with no other leaf, no interior node.
    leaf_grads = [leaf.grad for leaf in leaves if leaf.grad is not None]
    interior_grads = [node.grad for node in nodes if node.grad is not None]
    for i, grad in enumerate(leaf_grads):
        assert not any(np.shares_memory(grad, other)
                       for other in leaf_grads[i + 1:] + interior_grads)

    # ... so scaling leaf gradients in place reaches no interior gradient.
    before = [grad.copy() for grad in interior_grads]
    clip_grad_norm(leaves, 1e-3)
    for grad, saved in zip(interior_grads, before):
        assert np.array_equal(grad, saved)
