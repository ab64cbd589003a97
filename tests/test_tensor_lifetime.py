"""Graph-lifetime contract of the autograd engine: graphs are acyclic and are
freed by reference counting, with the cyclic collector switched off; a
backward consumes its graph, so what the rules captured dies at its last
use; and the program objects that hold graphs (trainers, the serving engine)
are acyclic too."""

import ast
import contextlib
import gc
import pathlib
import weakref

import numpy as np
import pytest

import repro
from repro.core import StreamingTrainer, TaserConfig, TaserTrainer, split_warmup
from repro.serve import LinkQuery, ServeEngine
from repro.tensor import GraphConsumedError, Tensor, get_backend, no_grad
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
    stacked = F.concatenate([parts.reshape(1, 12, 6),
                             parts.tanh().reshape(1, 12, 6)], axis=0)
    picked = stacked[:, np.array([0, 0, 3])]
    gated = F.where(picked.data > 0, picked, picked.sigmoid())
    normed = F.layer_norm(gated, Tensor(np.ones(6), requires_grad=True),
                          Tensor(np.zeros(6), requires_grad=True))
    loss = ((normed.exp().log() / 3.0) ** 2).mean() \
        + gated.abs().sqrt().sum(axis=0).mean() \
        + gated.relu().leaky_relu().softmax(axis=-1).mean() \
        + gated.broadcast_to((2, 2, 3, 6)).sum()
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


#: The attributes that make a tensor a graph node.
WIRING = {"_prev", "_op", "_backward"}


class _WiringWrites(ast.NodeVisitor):
    """``(scope, attribute)`` of every store into a wiring attribute —
    assignment, augmented or annotated assignment, or ``setattr`` with a
    literal name — where ``scope`` is the dotted class / function path."""

    def __init__(self):
        self.scope, self.found = [], []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()
    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Store) and node.attr in WIRING:
            self.found.append((".".join(self.scope), node.attr))
        self.generic_visit(node)

    def visit_Call(self, node):
        if (isinstance(node.func, ast.Name) and node.func.id == "setattr"
                and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
                and node.args[1].value in WIRING):
            self.found.append((".".join(self.scope), node.args[1].value))
        self.generic_visit(node)


def test_only_the_constructor_wires_a_node():
    """A node joins the graph in ``Tensor.__init__`` and leaves it in
    ``Tensor.backward``; no other code in the package writes ``_prev``,
    ``_op`` or ``_backward``.  A rule is built before its node, so it cannot
    close over its own output: the acyclic-graph rule holds by construction."""
    package = pathlib.Path(repro.__file__).parent
    stray = []
    for path in sorted(package.rglob("*.py")):
        visitor = _WiringWrites()
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        module = path.relative_to(package).as_posix()
        stray += [(module, scope, attr) for scope, attr in visitor.found
                  if not (module == "tensor/tensor.py"
                          and scope in ("Tensor.__init__", "Tensor.backward"))]
    assert stray == []


def test_a_node_skips_absent_parents_and_routes_each_gradient():
    """``None`` parents are absent: they are not linked and get nothing; the
    rule's gradients reach the others in parent order.  Without grads, or
    with no parent requiring one, the result is a leaf."""
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3))
    calls = []

    def rule(g):
        calls.append(g)
        return None, g * 2.0, g * 3.0
    out = Tensor(np.zeros(3), parents=(None, a, b), op="probe", rule=rule)
    assert out.requires_grad and out._op == "probe" and out._prev == (a, b)
    out.backward(np.ones(3))
    assert len(calls) == 1 and np.array_equal(a.grad, np.full(3, 2.0))
    assert b.grad is None
    with no_grad():
        leaves = [Tensor(np.zeros(3), parents=(None, a), op="probe", rule=rule)]
    leaves.append(Tensor(np.zeros(3), parents=(None, b), op="probe", rule=rule))
    for leaf in leaves:
        assert not leaf.requires_grad and leaf._prev == () and leaf._op == ""
        assert leaf._backward is None


def test_interior_grads_stay_readable_after_backward():
    """``backward`` consumes the graph but leaves every node its ``.data``
    and ``.grad``: the sample loss reads interior gradients
    (``embeddings.grad``, the hop gates) afterwards."""
    leaves, interior, loss = build_graph()
    loss.backward()
    for node in interior:
        assert node.grad is not None and node.grad.shape == node.shape


def test_second_backward_of_one_graph_raises():
    leaves, interior, loss = build_graph()
    loss.backward()
    grads = [leaf.grad.copy() for leaf in leaves]
    with pytest.raises(GraphConsumedError):
        loss.backward()
    # It raised before writing into any gradient.
    for leaf, grad in zip(leaves, grads):
        assert np.array_equal(leaf.grad, grad)


def test_second_loss_sharing_an_interior_node_raises():
    """Without the error the second root would skip the consumed subgraph and
    leave the leaves partial gradients."""
    rng = np.random.default_rng(3)
    w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    shared = (Tensor(rng.standard_normal((5, 4))) @ w).tanh()
    first, second = (shared * 2.0).sum(), shared.sigmoid().mean()
    first.backward()
    grad = w.grad.copy()
    with pytest.raises(GraphConsumedError):
        second.backward()
    assert np.array_equal(w.grad, grad)
    # A new graph over the same leaves back-propagates as before.
    (Tensor(rng.standard_normal((5, 4))) @ w).sum().backward()


def test_backward_frees_saved_activations_of_a_live_root(monkeypatch):
    """The arrays a composite node saved for its backward die during the
    backward, while the root (and so, before, the whole graph) is alive."""
    backend = get_backend()
    forward = backend.layer_norm_forward
    saved = []

    def recording(*args):
        out, xhat, rstd = forward(*args)
        saved.extend([weakref.ref(xhat), weakref.ref(rstd)])
        return out, xhat, rstd
    monkeypatch.setattr(backend, "layer_norm_forward", recording)
    with collector_off():
        leaves, interior, loss = build_graph()
        assert saved and all(ref() is not None for ref in saved)
        loss.backward()
        assert all(ref() is None for ref in saved)
        assert loss.data is not None and all(n.grad is not None for n in interior)


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


#: the backend's composite forward kernels and the position of the backward
#: pass's ``saved`` in each one's result tuple (a slice: layer norm's is two
#: arrays; ``None``: the result is ``saved``).
SAVING_KERNELS = {
    "mixer_block_forward": slice(1, 2),
    "sampler_encode_forward": None,
    "sampler_head_forward": slice(4, 5),
    "temporal_attention_forward": slice(2, 3),
    "graphmixer_aggregate_forward": slice(1, 2),
    "edge_predictor_forward": slice(1, 2),
    "layer_norm_forward": slice(1, 3),
}


def _arrays(obj):
    if isinstance(obj, (tuple, list)):
        return [a for item in obj for a in _arrays(item)]
    return [obj] if isinstance(obj, np.ndarray) else []


def _root(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return id(a)


def record_saved_activations(monkeypatch):
    """Weak references to every array a composite forward saves for its
    backward that it computed itself: neither one of its inputs (the
    batch's features, masks, timespans; the parameters) nor one of its
    outputs (a node's ``.data``, TGAT's attention weights), nor a view of
    one."""
    backend = get_backend()
    refs = []

    def recording(kernel, where):
        def run(*args):
            result = kernel(*args)
            saved = result if where is None else result[where]
            outputs = () if where is None else result[:where.start] + result[where.stop:]
            foreign = {_root(a) for a in _arrays(args) + _arrays(outputs)}
            refs.extend(weakref.ref(a) for a in _arrays(saved)
                        if _root(a) not in foreign)
            return result
        return run
    for name, where in SAVING_KERNELS.items():
        monkeypatch.setattr(backend, name, recording(getattr(backend, name), where))
    return refs


STEP_VARIANTS = [
    dict(backbone="tgat", adaptive_minibatch=True, adaptive_neighbor=True,
         sample_loss="tgat_analytic"),
    dict(backbone="graphmixer", adaptive_minibatch=False, adaptive_neighbor=False),
]


def step_config(**variant):
    return TaserConfig(hidden_dim=8, time_dim=4, num_neighbors=3, num_candidates=6,
                       batch_size=32, dropout=0.0, max_batches_per_epoch=1,
                       eval_max_edges=10, seed=0, **variant)


@pytest.mark.parametrize("variant", STEP_VARIANTS, ids=["tgat_taser", "graphmixer"])
def test_step_leaves_no_saved_activation_behind(small_graph, variant, monkeypatch):
    """As in the training loop, the batch is still referenced after its step
    (until the next one replaces it); nothing its graphs saved is alive —
    not the sampler's encoder and mixer activations either, which hang off
    the batch's ``log_prob``."""
    trainer = TaserTrainer(small_graph, step_config(**variant))
    refs = record_saved_activations(monkeypatch)
    with collector_off():
        for prepared in trainer.engine.epoch(1):
            trainer._train_prepared(prepared)
            assert refs
            alive = [ref() for ref in refs if ref() is not None]
            assert not alive, [(a.shape, a.dtype) for a in alive]


def _cyclic_garbage(make):
    """What the cyclic collector finds once the object ``make()`` returned
    (and used) is dropped: the objects it could only free as a cycle."""
    obj = make()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        del obj
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.mark.parametrize("variant", STEP_VARIANTS, ids=["tgat_taser", "graphmixer"])
def test_dropped_trainer_is_not_cyclic_garbage(small_graph, variant):
    def trained():
        trainer = TaserTrainer(small_graph, step_config(**variant))
        trainer.train_epoch()
        return trainer
    garbage = _cyclic_garbage(trained)
    assert not garbage, sorted({type(o).__name__ for o in garbage})


def test_dropped_streaming_trainer_is_not_cyclic_garbage(small_graph):
    def streamed():
        warm, stream = split_warmup(small_graph, warmup_events=600, chunk_size=100,
                                    max_chunks=3)
        trainer = StreamingTrainer(warm, step_config(**STEP_VARIANTS[1]),
                                   window_events=200, prequential_max_events=50)
        trainer.train_epoch()
        trainer.run(stream, train_passes=1)
        return trainer
    garbage = _cyclic_garbage(streamed)
    assert not garbage, sorted({type(o).__name__ for o in garbage})


def test_dropped_serve_engine_is_not_cyclic_garbage(small_graph):
    trainer = TaserTrainer(small_graph, step_config(**STEP_VARIANTS[1]))
    trainer.train_epoch()

    def serving():
        engine = ServeEngine.from_trainer(trainer, max_batch=8)
        for i in range(5):
            engine.submit(LinkQuery(int(small_graph.src[-i - 1]),
                                    int(small_graph.dst[-i - 1]),
                                    float(small_graph.ts[-1])))
        engine.flush()
        return engine
    garbage = _cyclic_garbage(serving)
    assert not garbage, sorted({type(o).__name__ for o in garbage})
