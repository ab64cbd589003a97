"""Definitions that no command, benchmark or workload reached are gone.

Each ``(owner, name)`` pair names a module, class or function and a name it
no longer defines: a module attribute, a class member (``object``'s own
members do not count, so ``Tensor.__gt__`` is checked on ``Tensor`` itself)
or a keyword parameter of a callable.  The three parameters were knobs that
only one value ever reached; their value is now a constant.  The last group
went when training took the level-wise batch: the recursion lives on in
``tests/recursive_oracle.py`` as an oracle.
"""

import importlib
import inspect

import pytest

GONE = {
    "repro.optim": ["schedulers", "StepLR", "CosineLR", "SGD"],
    "repro.optim.optimizers": ["SGD"],
    "repro.nn": ["MLP", "Sequential", "Activation", "Identity"],
    "repro.nn.layers": ["MLP", "Sequential", "Activation", "Identity"],
    "repro.nn.module:Module": ["num_parameters"],
    "repro.tensor": ["stack"],
    "repro.tensor.tensor": ["stack"],
    "repro.tensor.tensor:Tensor": ["sin", "cos", "clip", "max", "log_softmax",
                                   "squeeze", "expand_dims", "__gt__", "__lt__",
                                   "__ge__", "__le__"],
    "repro.tensor.functional": ["stack", "cross_entropy", "mse_loss", "softmax",
                                "log_softmax", "relu", "leaky_relu", "gelu",
                                "tanh"],
    "repro.tensor.backend:ReferenceBackend": ["sin", "cos", "clip", "amax",
                                              "log_softmax_forward",
                                              "log_softmax_backward"],
    "repro.utils": ["RngMixin", "seed_everything"],
    "repro.utils.rng": ["RngMixin", "seed_everything"],
    "repro.utils.timer:Timer": ["counts", "total"],
    "repro.core": ["asdict_shallow"],
    "repro.core.config": ["asdict_shallow"],
    "repro.encoders": ["sort_by_recency"],
    "repro.encoders.identity_encoding": ["sort_by_recency"],
    "repro.graph": ["perturb_edge_features", "drop_events"],
    "repro.graph.noise": ["perturb_edge_features", "drop_events"],
    "repro.graph.temporal_graph:TemporalGraph": ["time_slice", "latest_events",
                                                 "timespan"],
    "repro.graph.splits:TemporalSplit": ["boundaries"],
    "repro.graph.tcsr:TCSR": ["degree", "degrees"],
    "repro.graph.tcsr:StreamingTCSR": ["compact", "last_timestamp",
                                       "physical_size", "add_reverse"],
    "repro.graph.tcsr:StreamingTCSR.from_graph": ["add_reverse"],
    "repro.graph.tcsr:build_tcsr": ["add_reverse"],
    "repro.graph.tcsr:_half_edges": ["add_reverse"],
    "repro.bench": ["geometric_mean"],
    "repro.bench.harness": ["geometric_mean"],
    "repro.device.memory:FeatureStore": ["cost_model", "node_features_on_device"],
    "repro.core.trainer": ["TransferCostModel"],
    "repro.serve.engine": ["TransferCostModel"],
    # One embedding path: training batches are level-wise too.
    "repro.models.base:TGNNBackbone": ["_embed_recursive", "_embed_levels"],
    "repro.core.pipeline:MiniBatchGenerator": ["_build_levels"],
    "repro.models.minibatch:HopData": ["candidates"],
    "repro.models.minibatch:MiniBatch": ["root_node_feat"],
}


def _resolve(owner):
    module_name, _, path = owner.partition(":")
    target = importlib.import_module(module_name)
    for attr in filter(None, path.split(".")):
        target = getattr(target, attr)
    return target


def _defines(target, name):
    if inspect.isclass(target):
        return any(name in vars(klass) for klass in target.__mro__
                   if klass is not object)
    if callable(target):
        return name in inspect.signature(target).parameters
    return hasattr(target, name) or name in getattr(target, "__all__", ())


@pytest.mark.parametrize("owner, name", [(owner, name) for owner, names in
                                         GONE.items() for name in names])
def test_deleted(owner, name):
    target = _resolve(owner)
    assert not _defines(target, name)
    if inspect.isclass(target):
        assert name not in inspect.signature(target).parameters
