"""Definitions that no command, benchmark or workload reached are gone.

Each ``(owner, name)`` pair names a module, class or function and a name it
no longer defines: a module attribute, a class member (``object``'s own
members do not count, so ``Tensor.__gt__`` is checked on ``Tensor`` itself)
or a keyword parameter of a callable.  The three parameters were knobs that
only one value ever reached; their value is now a constant.  One group
went when training took the level-wise batch: the recursion lives on in
``tests/recursive_oracle.py`` as an oracle.  The last went with the one RNG
protocol: no finder or adaptive sampler holds a generator, which
``test_no_component_holds_a_generator`` checks on instances, since an
instance attribute is not a class member.  With the one epoch protocol the
shard worker lost its own step and its loss lists (the latter checked on an
instance by ``test_shard_worker_holds_no_epoch_state``), and with the one
barrier clock its pack clock, the pool's timed call and the sharded epoch's
restated numbers went.  With the two-half step (backward, then apply) the
sampler's own step half and the worker's three-call protocol went.  With the
columnar serve pass the engine queues no object per query
(``test_serve_queue_holds_no_per_query_objects``).  A cache keeps no hit
account: it has one probe, and its caller counts hits from the mask.  The
command line is one parser with a subcommand per workload.  A live history's
T-CSR is one compact T-CSR that each append merges into a fresh one, so the
slack heap, its segment bookkeeping and its snapshot cache went (the
instance attributes are checked by ``test_the_streaming_tcsr_holds_no_heap``).
The T-CSR answers batched pivot queries itself, with keys it builds once, so
the finder's key preparation and the unused integer-rank probe went.
Serving computes every endpoint at its own query time, so the embedding
cache's store, staleness bounds and eviction went with the engine's knobs
for them.  Each fixed value lives in one place: an option that no caller set
to anything but its default is a constant of the one component that reads
it, and ``config.epochs`` is the only setter of the epoch count.  An event
log is in time order by construction, so its re-sort went.
"""

import importlib
import inspect

import numpy as np
import pytest

GONE = {
    "repro.optim": ["schedulers", "StepLR", "CosineLR", "SGD"],
    "repro.optim.optimizers": ["SGD"],
    "repro.nn": ["MLP", "Sequential", "Activation", "Identity"],
    "repro.nn.layers": ["MLP", "Sequential", "Activation", "Identity"],
    "repro.nn.module:Module": ["num_parameters"],
    "repro.tensor": ["stack"],
    "repro.tensor.tensor": ["stack"],
    # One way to make a graph node: the ``Tensor`` constructor
    # (``test_only_the_constructor_wires_a_node`` checks the package).
    "repro.tensor.tensor:Tensor": ["sin", "cos", "clip", "max", "log_softmax",
                                   "squeeze", "expand_dims", "__gt__", "__lt__",
                                   "__ge__", "__le__", "_make"],
    "repro.tensor.functional": ["stack", "cross_entropy", "mse_loss", "softmax",
                                "log_softmax", "relu", "leaky_relu", "gelu",
                                "tanh"],
    "repro.tensor.backend:ReferenceBackend": ["sin", "cos", "clip", "amax",
                                              "log_softmax_forward",
                                              "log_softmax_backward"],
    "repro.utils": ["RngMixin", "seed_everything"],
    "repro.utils.rng": ["RngMixin", "seed_everything"],
    "repro.utils.timer:Timer": ["counts", "total", "add"],
    "repro.core": ["asdict_shallow", "sensitivity_sample_loss",
                   "tgat_analytic_sample_loss"],
    "repro.core.config": ["asdict_shallow"],
    "repro.encoders": ["sort_by_recency"],
    "repro.encoders.identity_encoding": ["sort_by_recency"],
    "repro.graph": ["perturb_edge_features", "drop_events"],
    "repro.graph.noise": ["perturb_edge_features", "drop_events"],
    # An event log is in time order by construction: nothing re-sorts one.
    "repro.graph.temporal_graph:TemporalGraph": ["time_slice", "latest_events",
                                                 "timespan", "sort_by_time"],
    "repro.graph.splits:TemporalSplit": ["boundaries"],
    # One T-CSR probe: ``TCSR.pivots`` searches the keys the T-CSR builds
    # once, and a finder holds only its T-CSR and policy
    # (``test_the_finder_holds_only_its_tcsr_and_policy``).
    "repro.graph.tcsr:TCSR": ["degree", "degrees", "_probe_keys", "_probe_cache"],
    "repro.graph.tcsr": ["_ranges"],
    "repro.graph.tcsr:StreamingTCSR": ["compact", "last_timestamp",
                                       "physical_size", "add_reverse",
                                       "_grow_segments", "_reserve", "GROWTH",
                                       "MIN_SEGMENT_CAPACITY",
                                       "initial_capacity"],
    "repro.graph.tcsr:StreamingTCSR.from_graph": ["add_reverse"],
    "repro.graph.tcsr:build_tcsr": ["add_reverse"],
    "repro.graph.tcsr:_half_edges": ["add_reverse"],
    "repro.bench": ["geometric_mean"],
    "repro.bench.harness": ["geometric_mean"],
    "repro.device.memory:FeatureStore": ["cost_model", "node_features_on_device"],
    "repro.core.trainer": ["TransferCostModel"],
    "repro.serve.engine": ["TransferCostModel", "_Pending"],
    # One embedding path: training batches are level-wise too.
    "repro.models.base:TGNNBackbone": ["_embed_recursive", "_embed_levels"],
    "repro.core.pipeline:MiniBatchGenerator": ["_build_levels"],
    "repro.models.minibatch:HopData": ["candidates"],
    "repro.models.minibatch:MiniBatch": ["root_node_feat"],
    # One RNG protocol: every draw of a tile comes from the tile's generator.
    "repro.sampling.base:NeighborFinder": ["rng", "seed"],
    "repro.sampling.gpu_finder:GPUNeighborFinder": ["rng", "seed", "batched_pivots",
                                                    "_prepare_keys"],
    "repro.bench.finders:OriginalNeighborFinder": ["rng", "seed"],
    "repro.bench.finders:TGLNeighborFinder": ["rng", "seed"],
    "repro.core.neighbor_sampler:AdaptiveNeighborSampler": ["_select_rng",
                                                            "decoder_hidden"],
    "repro.core.neighbor_sampler:AdaptiveNeighborSampler.forward": ["greedy"],
    "repro.core.sample_loss": ["sensitivity_sample_loss",
                               "tgat_analytic_sample_loss"],
    # One epoch protocol: the trainer writes the step halves once.
    # A step is backward, then apply; a sharded step is one exchange.
    "repro.core.trainer:TaserTrainer": ["_model_step", "_sampler_backward",
                                        "_model_backward", "_apply_model",
                                        "_sampler_step", "_build_tcsr"],
    "repro.core.trainer:TrainStep": ["minibatch", "embeddings"],
    "repro.distributed.worker:ShardWorker": [
        "comms_model_backward", "comms_apply_model", "comms_apply_sampler",
        "_backward", "_apply_model_grads", "_apply_sampler_grads"],
    "repro.distributed.comms:GradientComms": ["_timed_exchange", "epoch_stats",
                                              "reset_stats", "_check_backward"],
    "repro.graph.sharding:TemporalShardPlan": ["shard_graphs"],
    # One columnar serve pass: the pending queue is columns, scored by
    # ``ServeEngine._score``.
    # Every endpoint is computed at its own query time: the embedding cache
    # holds nothing, and ``staleness_time`` only accepts 0.0.
    "repro.serve.engine:ServeEngine": ["_flush_pending", "_score_chunk",
                                       "_refresh", "staleness_events",
                                       "cache_nodes", "events_observed"],
    "repro.serve": ["NodeEmbeddingCache"],
    "repro.serve.cache:NodeEmbeddingCache.lookup": ["times", "now_event"],
    "repro.serve.engine:ServeResult": ["cache_hits"],
    "repro.serve.engine:ServeStats": ["embeddings_reused"],
    # A cache holds and replaces; its caller counts the hits from the mask of
    # the one deduplicated probe (``test_cache_bookkeeping_is_bounded``
    # checks that no instance keeps a hit counter).
    "repro.device.cache:FeatureCache": ["hit_rate_history", "lookup_unique",
                                        "_record_unique", "current_hit_rate"],
    "repro.device.cache:FeatureCache.lookup": ["edge_ids"],
    "repro.device.cache:DynamicFeatureCache": ["_record_unique"],
    "repro.serve.cache:NodeEmbeddingCache": ["hit_rate_history", "grow",
                                             "end_epoch", "current_hit_rate",
                                             "insert", "_install", "num_cached",
                                             "cached_nodes", "num_nodes", "capacity",
                                             "staleness_events", "staleness_time"],
    "repro.device.memory:SliceStats": ["as_dict"],
    "repro.device.costmodel:TransferCostModel.pcie_time": ["num_requests"],
    "repro.device.costmodel:TransferCostModel.vram_time": ["num_requests"],
    "repro.core.streaming:StreamingTrainer.run": ["max_chunks"],
    # One allocator policy, applied at ``import repro``; the engine holds the
    # prep pipeline, not the trainer (no trainer <-> engine cycle).
    "repro.eval.evaluator": ["_one_malloc_arena", "_M_ARENA_MAX"],
    "repro.core.prefetcher:BatchEngine": ["trainer"],
    # One barrier clock: the master times only its reduce (``runtime["SYNC"]``),
    # the pool has one call, and a shard task carries its graph.
    "repro.distributed.pool:WorkerPool": ["run_timed"],
    "repro.distributed.pool:ProcessWorkerPool": ["run_timed", "_recv_wait"],
    "repro.distributed.trainer:ShardedEpochStats": [
        "sync_seconds", "global_steps", "reduce_seconds", "transport_seconds",
        "pack_seconds"],
    "repro.distributed.worker:ShardTask": ["src", "dst", "ts", "num_nodes",
                                           "edge_feat", "node_feat", "meta",
                                           "build_graph"],
    # One way to grow a live history: the mini-batch generator holds the
    # T-CSR and grows it (``test_the_live_history_lives_in_the_generator``
    # checks the instance attributes).
    "repro.core.streaming:StreamingTrainer": ["_build_tcsr"],
    # One ``repro`` parser, one subcommand per workload: the bare runner was
    # ``repro train --workers 1``, and the four Table I rows are
    # ``repro.core.config.VARIANTS``; ``fit`` labels a result by its config.
    "repro.cli": ["run", "build_train_parser", "build_stream_parser",
                  "build_serve_parser", "_train_main", "_stream_main",
                  "_serve_main", "_add_training_cell_args", "_taser_config",
                  "VARIANT_FLAGS"],
    "repro.core.trainer:train_and_evaluate": ["variant", "epochs"],
    # One place per fixed value: TASER's hyperparameters are constants of
    # the component that reads them, and the epoch count is the config's.
    "repro.core.config:TaserConfig": ["num_heads", "gamma", "sample_alpha",
                                      "sample_beta", "grad_clip", "cache_epsilon"],
    "repro.core.trainer:TaserTrainer.fit": ["epochs"],
    "repro.distributed.trainer:ShardedTrainer.fit": ["epochs"],
    "repro.models:make_backbone": ["num_heads"],
    "repro.core.decoders:make_decoder": ["hidden_dim"],
    "repro.core.decoders:GATDecoder": ["hidden_dim"],
    "repro.core.decoders:GATv2Decoder": ["hidden_dim"],
    "repro.core.decoders:TransformerDecoder": ["hidden_dim"],
    "repro.encoders.time_encoding:FixedTimeEncoder": ["alpha", "beta"],
    "repro.encoders.frequency_encoding:FrequencyEncoder": ["base"],
    "repro.device.costmodel:TransferCostModel": [
        "pcie_bandwidth", "vram_bandwidth", "pcie_latency", "vram_latency",
        "pcie_row_overhead", "vram_row_overhead"],
    "repro.optim.optimizers:Adam": ["betas", "eps"],
    "repro.nn.layers:LayerNorm": ["eps"],
    "repro.nn.init:xavier_uniform": ["gain"],
    "repro.nn.module:Parameter.__init__": ["requires_grad"],
    "repro.nn.module:Module.load_state_dict": ["strict"],
    "repro.tensor.tensor:layer_norm": ["eps"],
    "repro.tensor.tensor:mixer_block": ["eps"],
    "repro.tensor.tensor:graphmixer_aggregate": ["eps"],
    "repro.bench.harness:attach_scaling_efficiency": ["tolerance"],
    "repro.graph.datasets:dataset_table": ["seed"],
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


def test_no_component_holds_a_generator():
    from repro.bench.finders import OriginalNeighborFinder, TGLNeighborFinder
    from repro.core import AdaptiveNeighborSampler
    from repro.graph import TemporalGraph, build_tcsr
    from repro.sampling import GPUNeighborFinder

    tcsr = build_tcsr(TemporalGraph(num_nodes=3, src=np.array([0]),
                                    dst=np.array([1]), ts=np.array([1.0])))
    components = [finder(tcsr, policy) for policy in ("uniform", "recent")
                  for finder in (GPUNeighborFinder, OriginalNeighborFinder,
                                 TGLNeighborFinder)]
    components.append(AdaptiveNeighborSampler(0, 2, 4))
    for component in components:
        held = [name for name, value in vars(component).items()
                if isinstance(value, (np.random.Generator, np.random.BitGenerator))]
        assert held == [], (type(component).__name__, held)


def test_the_finder_holds_only_its_tcsr_and_policy():
    from repro.graph import TemporalGraph, build_tcsr
    from repro.sampling import GPUNeighborFinder

    tcsr = build_tcsr(TemporalGraph(num_nodes=3, src=np.array([0]),
                                    dst=np.array([1]), ts=np.array([1.0])))
    assert set(vars(GPUNeighborFinder(tcsr))) == {"tcsr", "policy"}
    assert not hasattr(tcsr, "_probe_cache")


def test_shard_worker_holds_no_epoch_state():
    from repro.core import TaserConfig
    from repro.distributed import ShardTask, ShardWorker
    from repro.graph import CTDGConfig, generate_ctdg

    graph = generate_ctdg(CTDGConfig(num_src=10, num_dst=8, num_events=300,
                                     edge_dim=4, seed=0))
    config = TaserConfig(hidden_dim=8, time_dim=4, num_neighbors=2,
                         num_candidates=4, batch_size=50)
    worker = ShardWorker(ShardTask(
        config=config, shard_index=0, num_shards=1, cache_capacity=0,
        graph=graph))
    worker.begin_epoch(1)
    held = {"_losses", "_sample_losses", "_pack_seconds"} & set(vars(worker))
    assert held == set()


def test_serve_queue_holds_no_per_query_objects():
    from repro.core import TaserConfig, TaserTrainer
    from repro.graph import CTDGConfig, generate_ctdg
    from repro.serve import LinkQuery, ServeEngine

    graph = generate_ctdg(CTDGConfig(num_src=10, num_dst=8, num_events=300,
                                     edge_dim=4, seed=0))
    config = TaserConfig(backbone="graphmixer", hidden_dim=8, time_dim=4,
                         num_neighbors=2, batch_size=50, adaptive_minibatch=False,
                         adaptive_neighbor=False)
    engine = ServeEngine.from_trainer(TaserTrainer(graph, config))
    t = float(graph.ts.max())
    for i in range(3):
        assert engine.submit(LinkQuery(i, 10 + i, t, deadline=1.0)) is None

    def per_query(value):
        items = value if isinstance(value, (list, tuple)) else ()
        return any(isinstance(item, LinkQuery) or hasattr(item, "query")
                   for item in items)
    held = [name for name, value in vars(engine).items() if per_query(value)]
    assert held == []
    columns = [value for value in vars(engine).values() if isinstance(value, np.ndarray)]
    assert len(columns) >= 6
    assert all(column.dtype.kind in "if" for column in columns)


def test_the_live_history_lives_in_the_generator():
    """No trainer or engine holds a T-CSR of its own, a finder policy beside
    its finder's, or an epoch history: the generator holds the T-CSR, whose
    streaming wrapper is its finder's T-CSR until an ingest, and
    ``train_epoch`` returns its stats."""
    from repro.core import StreamingTrainer, TaserConfig, TaserTrainer
    from repro.distributed import ShardedTrainer
    from repro.graph import CTDGConfig, generate_ctdg
    from repro.serve import ServeEngine

    graph = generate_ctdg(CTDGConfig(num_src=10, num_dst=8, num_events=300,
                                     edge_dim=4, seed=0))
    config = TaserConfig(backbone="graphmixer", hidden_dim=8, time_dim=4,
                         num_neighbors=2, batch_size=50, adaptive_minibatch=False,
                         adaptive_neighbor=False)
    trainer = TaserTrainer(graph, config)
    owners = [trainer, StreamingTrainer(graph, config),
              ServeEngine.from_trainer(trainer)]
    with ShardedTrainer(graph, config, backend="serial") as sharded:
        owners.append(sharded)
    for owner in owners:
        held = {"tcsr", "stcsr", "history", "finder_policy"} & set(vars(owner))
        assert held == set(), type(owner).__name__
    assert all(owner.generator.stcsr.snapshot() is owner.generator.finder.tcsr
               for owner in owners[:3])


def test_the_streaming_tcsr_holds_no_heap():
    """A streaming T-CSR holds one compact T-CSR, its event count and its
    last timestamp: no slack heap, segment bookkeeping or snapshot cache."""
    from repro.graph import StreamingTCSR, TemporalGraph

    stcsr = StreamingTCSR.from_graph(TemporalGraph(
        num_nodes=3, src=np.array([0]), dst=np.array([1]), ts=np.array([1.0])))
    stcsr.append(np.array([1]), np.array([2]), np.array([2.0]))
    gone = {"_seg_start", "_seg_len", "_seg_cap", "_heap_end", "_indices",
            "_eid", "_ts", "_snapshot"}
    assert gone & set(vars(stcsr)) == set()
    assert [value for value in vars(stcsr).values()
            if isinstance(value, np.ndarray)] == []
