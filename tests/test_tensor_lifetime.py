"""Graph-lifetime contract of the autograd engine: graphs are acyclic and are
freed by reference counting, with the cyclic collector switched off."""

import contextlib
import gc
import weakref

import numpy as np
import pytest

from repro.core import TaserConfig, TaserTrainer
from repro.tensor import Tensor
from repro.tensor import functional as F


@contextlib.contextmanager
def collector_off():
    """Run the block with the cyclic garbage collector disabled."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def live_tensors() -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is Tensor)


def build_graph():
    """A graph touching every closure family: matmul (2-D and flattened),
    broadcasting arithmetic, views, fancy and basic indexing, reductions,
    non-linearities and the free functions."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((4, 3, 5)), requires_grad=True)
    w = Tensor(rng.standard_normal((5, 6)), requires_grad=True)
    bias = Tensor(rng.standard_normal(6), requires_grad=True)
    h = (x @ w + bias).gelu()                               # flattened matmul
    att = (h @ h.swapaxes(1, 2)).softmax(axis=-1)           # batched matmul
    mixed = (att @ h).reshape(12, 6).transpose()[:, ::2]
    parts = F.concatenate([mixed, mixed * 2.0 - 1.0], axis=0)
    stacked = F.stack([parts, parts.tanh()], axis=0)
    picked = stacked[:, np.array([0, 0, 3])]
    gated = F.where(picked.data > 0, picked, picked.sigmoid())
    normed = F.layer_norm(gated, Tensor(np.ones(6), requires_grad=True),
                          Tensor(np.zeros(6), requires_grad=True))
    loss = ((normed.exp().log() / 3.0) ** 2).mean() + gated.max() \
        + gated.abs().sqrt().sum(axis=0).mean() + (-gated).clip(-1, 1).sum() \
        + gated.relu().leaky_relu().log_softmax(axis=-1).mean() \
        + gated.cos().sin().expand_dims(0).squeeze(0).broadcast_to((2, 2, 3, 6)).sum()
    interior = [h, att, mixed, parts, stacked, picked, gated, normed]
    return (x, w, bias), interior, loss


@pytest.mark.parametrize("run_backward", [False, True])
def test_graph_dies_with_its_last_reference(run_backward):
    with collector_off():
        leaves, interior, loss = build_graph()
        if run_backward:
            loss.backward()
            assert all(leaf.grad is not None for leaf in leaves)
        refs = [weakref.ref(t) for t in interior + [loss]]
        data_refs = [weakref.ref(t.data) for t in interior]
        del interior, loss
        assert all(ref() is None for ref in refs)
        # The activations go with the tensors: no rule keeps them alive.
        assert all(ref() is None for ref in data_refs)
        # Leaves (and their gradients) are untouched by the graph's death.
        if run_backward:
            assert all(np.isfinite(leaf.grad).all() for leaf in leaves)


def test_interior_grads_stay_readable_after_backward():
    """``backward`` releases nothing: the sample loss reads interior
    gradients (``embeddings.grad``, the hop gates) afterwards."""
    leaves, interior, loss = build_graph()
    loss.backward()
    for node in interior:
        assert node.grad is not None and node.grad.shape == node.shape


def test_double_backward_over_graphs_sharing_leaves():
    """Model loss then sample loss: two graphs, one set of parameters."""
    rng = np.random.default_rng(1)
    x1 = Tensor(rng.standard_normal((3, 4, 5)))
    x2 = Tensor(rng.standard_normal((7, 5)))

    def first(w, b):
        return ((x1 @ w + b).tanh() ** 2).sum()

    def second(w, b):
        return ((x2 @ w).sigmoid() * b).mean()

    def params():
        r = np.random.default_rng(2)
        return (Tensor(r.standard_normal((5, 2)), requires_grad=True),
                Tensor(r.standard_normal(2), requires_grad=True))

    separate = []
    for loss_fn in (first, second):
        w, b = params()
        loss_fn(w, b).backward()
        separate.append((w.grad.copy(), b.grad.copy()))

    with collector_off():
        w, b = params()
        first(w, b).backward()
        held = w.grad
        second(w, b).backward()
        # Leaves own their buffer and accumulate into it in place.
        assert w.grad is held
        assert np.array_equal(w.grad, separate[0][0] + separate[1][0])
        assert np.array_equal(b.grad, separate[0][1] + separate[1][1])


@pytest.mark.parametrize("variant", [
    dict(backbone="tgat", adaptive_minibatch=True, adaptive_neighbor=True,
         sample_loss="tgat_analytic"),
    dict(backbone="graphmixer", adaptive_minibatch=False,
         adaptive_neighbor=False),
])
def test_training_steps_leave_no_tensor_garbage(small_graph, variant):
    config = TaserConfig(hidden_dim=8, time_dim=4, num_neighbors=3,
                         num_candidates=6, batch_size=32, dropout=0.0,
                         max_batches_per_epoch=1, eval_max_edges=10, seed=0,
                         **variant)
    trainer = TaserTrainer(small_graph, config)
    with collector_off():
        counts = []
        for _ in range(3):
            stats = trainer.train_epoch()
            assert len(stats.batch_losses) == 1
            counts.append(live_tensors())
        assert counts[1] == counts[2], counts
        # Nothing was waiting for the cyclic collector.
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            leaked = [obj for obj in gc.garbage if type(obj) is Tensor]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert not leaked, f"{len(leaked)} tensors were only reachable from a cycle"
