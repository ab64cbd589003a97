"""Prep-backend runtime: registry, batched T-CSR probing, bitwise equality.

Three layers of coverage for ``repro.core.prep_backend`` and the fused
backend's sampling kernel (``repro.sampling.fused_probe``):

* mechanics — registry/env resolution, config/CLI validation with actionable
  errors, and factory construction through every consumer entry point;
* kernel equality — hypothesis property tests asserting the vectorised
  ``TCSR.pivots`` matches the scalar ``pivot`` on duplicate-timestamp
  segments, and that the batched probe finder's candidate batches (and the
  prepared batches downstream of gather/encode) are bitwise-equal to the
  per-query reference across batch sizes, budgets, empty neighborhoods and
  duplicate-timestamp edges — with the shared RNG stream staying in lockstep
  across successive calls;
* trainer equality — full runs under both prep backends must produce
  identical loss-trajectory hashes and MRR through the sync/aot
  engines, the streaming trainer and the W=1 sharded path.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.breakdown import loss_trajectory_hash
from repro.core import (FusedPrepPipeline, PrepPipeline, StreamingTrainer,
                        TaserConfig, TaserTrainer, available_prep_backends,
                        make_prep_pipeline, resolve_prep_backend_name,
                        split_warmup)
from repro.distributed import ShardedTrainer
from repro.graph.tcsr import TCSR
from repro.sampling import BatchedProbeFinder, OriginalNeighborFinder

# Reused determinism helpers from the sharded-trainer suite (same graphs,
# same tiny configs, same trajectory extraction).
from test_distributed import _losses, shard_graph, tiny_config  # noqa: F401


# ----------------------------------------------------------------- registry

class TestRegistry:
    def test_backends_registered(self):
        assert set(available_prep_backends()) >= {"reference", "fused"}

    def test_resolution_order(self, monkeypatch):
        monkeypatch.delenv("REPRO_PREP_BACKEND", raising=False)
        assert resolve_prep_backend_name(None) == "reference"
        assert resolve_prep_backend_name("fused") == "fused"
        monkeypatch.setenv("REPRO_PREP_BACKEND", "fused")
        assert resolve_prep_backend_name(None) == "fused"
        # explicit beats environment
        assert resolve_prep_backend_name("reference") == "reference"

    def test_unknown_name_lists_backends(self, monkeypatch):
        with pytest.raises(ValueError, match="registered backends"):
            resolve_prep_backend_name("turbo")
        monkeypatch.setenv("REPRO_PREP_BACKEND", "warp9")
        with pytest.raises(ValueError, match="registered backends"):
            resolve_prep_backend_name(None)

    def test_factory_builds_named_pipeline(self, shard_graph):  # noqa: F811
        trainer = TaserTrainer(shard_graph, tiny_config(finder="original"))
        for name, cls in (("reference", PrepPipeline),
                          ("fused", FusedPrepPipeline)):
            prep = make_prep_pipeline(name, trainer.generator,
                                      trainer.negative_sampler,
                                      graph=trainer.graph, split=trainer.split,
                                      selector=trainer.selector)
            assert type(prep) is cls
            assert prep.name == name

    def test_config_validates_prep_backend(self, monkeypatch):
        with pytest.raises(ValueError, match="registered backends"):
            TaserConfig(prep_backend="bogus")
        monkeypatch.setenv("REPRO_PREP_BACKEND", "bogus")
        with pytest.raises(ValueError, match="registered backends"):
            TaserConfig()
        monkeypatch.setenv("REPRO_PREP_BACKEND", "fused")
        assert TaserConfig().resolved_prep_backend == "fused"
        assert TaserConfig(prep_backend="reference").resolved_prep_backend \
            == "reference"

    def test_cli_flag_validates_at_parse_time(self, capsys):
        from repro.cli import build_parser
        parser = build_parser()
        assert parser.parse_args(["--prep-backend", "fused"]).prep_backend \
            == "fused"
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["--prep-backend", "tpu"])
        assert exc.value.code == 2
        assert "registered backends" in capsys.readouterr().err

    def test_cli_env_validated_at_parse_time(self, monkeypatch, capsys):
        from repro.cli import main
        monkeypatch.setenv("REPRO_PREP_BACKEND", "nope")
        with pytest.raises(SystemExit) as exc:
            main(["--epochs", "1"])
        assert exc.value.code == 2
        assert "registered backends" in capsys.readouterr().err

    def test_trainer_installs_configured_backend(self, shard_graph):  # noqa: F811
        # Pin the backend explicitly: the CI matrix runs the whole suite
        # under REPRO_PREP_BACKEND=fused, where the env default is not
        # "reference".
        ref = TaserTrainer(shard_graph,
                           tiny_config(finder="original",
                                       prep_backend="reference"))
        assert type(ref.prep) is PrepPipeline and ref.prep.name == "reference"
        fused = TaserTrainer(shard_graph,
                             tiny_config(finder="original",
                                         prep_backend="fused"))
        assert type(fused.prep) is FusedPrepPipeline
        assert isinstance(fused.prep.generator.finder, BatchedProbeFinder)
        stats = fused.train_epoch()
        assert stats.prep_backend == "fused"


# -------------------------------------------------- duplicate-heavy T-CSRs

def _tcsr_from_events(num_nodes, events):
    """Build a (single-direction) TCSR from (node, ts) event pairs."""
    events = sorted(enumerate(events), key=lambda e: (e[1][0], e[1][1], e[0]))
    per_node = {v: [] for v in range(num_nodes)}
    for eid, (node, ts) in events:
        per_node[node].append((ts, eid))
    indptr = [0]
    indices, eids, tss = [], [], []
    for v in range(num_nodes):
        for ts, eid in per_node[v]:
            indices.append((v + 1) % num_nodes)
            eids.append(eid)
            tss.append(ts)
        indptr.append(len(indices))
    return TCSR(indptr=np.asarray(indptr), indices=np.asarray(indices),
                eid=np.asarray(eids), ts=np.asarray(tss),
                num_nodes=num_nodes)


# Few distinct timestamps over many events -> heavy duplication, the case a
# float composite key can get wrong and the rank-based key must get right.
dup_events = st.lists(
    st.tuples(st.integers(0, 7), st.sampled_from([0.0, 1.0, 1.0 + 2**-40,
                                                  2.0, 5.0, 5.0, 9.0])),
    min_size=0, max_size=60)
query_times = st.sampled_from([0.0, 1.0, 1.0 + 2**-40, 2.0, 3.5, 5.0, 9.0,
                               100.0])


class TestBatchedPivots:
    @given(dup_events, st.lists(st.tuples(st.integers(0, 7), query_times),
                                min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_pivots_match_scalar_path(self, events, queries):
        tcsr = _tcsr_from_events(8, events)
        nodes = np.asarray([q[0] for q in queries], dtype=np.int64)
        times = np.asarray([q[1] for q in queries], dtype=np.float64)
        batched = tcsr.pivots(nodes, times)
        scalar = np.asarray([tcsr.pivot(int(v), float(t))
                             for v, t in zip(nodes, times)])
        np.testing.assert_array_equal(batched, scalar)

    def test_pivots_empty_query(self):
        tcsr = _tcsr_from_events(8, [(0, 1.0), (0, 1.0), (3, 2.0)])
        out = tcsr.pivots(np.empty(0, dtype=np.int64), np.empty(0))
        assert out.shape == (0,) and out.dtype == np.int64


# ------------------------------------------------- batched probe finder

class TestBatchedProbeFinder:
    @given(dup_events,
           st.lists(st.tuples(st.integers(0, 7), query_times),
                    min_size=1, max_size=16),
           st.integers(1, 5),
           st.sampled_from(["recent", "uniform", "inverse_timespan"]),
           st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal_and_rng_lockstep(self, events, queries, budget,
                                            policy, seed):
        tcsr = _tcsr_from_events(8, events)
        ref = OriginalNeighborFinder(tcsr, policy=policy, seed=seed)
        fused = BatchedProbeFinder(
            OriginalNeighborFinder(tcsr, policy=policy, seed=seed))
        nodes = np.asarray([q[0] for q in queries], dtype=np.int64)
        times = np.asarray([q[1] for q in queries], dtype=np.float64)
        # Two successive calls: equality of the second proves the shared RNG
        # stream advanced identically during the first.
        for _ in range(2):
            a = ref.sample(nodes, times, budget)
            b = fused.sample(nodes, times, budget)
            for field in ("root_nodes", "root_times", "nodes", "eids",
                          "times", "mask"):
                np.testing.assert_array_equal(getattr(a, field),
                                              getattr(b, field), err_msg=field)
            b.check_padding()

    def test_delegates_non_original_finders(self, small_tcsr):
        from repro.sampling import GPUNeighborFinder
        base = GPUNeighborFinder(small_tcsr, policy="recent", seed=0)
        fused = BatchedProbeFinder(base)
        nodes = np.arange(5, dtype=np.int64)
        times = np.full(5, 1e12)
        a = base.sample(nodes, times, 3)
        # Fresh wrapper around a fresh base: same outputs via delegation.
        b = BatchedProbeFinder(
            GPUNeighborFinder(small_tcsr, policy="recent", seed=0)).sample(
                nodes, times, 3)
        np.testing.assert_array_equal(a.nodes, b.nodes)
        assert fused.name.startswith("fused-probe[")


# ----------------------------------------------- prepared-batch equality

def _assert_prepared_equal(a, b):
    """Recursively compare two PreparedBatch/MiniBatch-ish objects bitwise."""
    assert type(a) is type(b)
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            _assert_prepared_equal(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, np.ndarray):
        np.testing.assert_array_equal(a, b)
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_prepared_equal(x, y)
    elif isinstance(a, dict):
        assert a.keys() == b.keys()
        for k in a:
            _assert_prepared_equal(a[k], b[k])
    else:
        assert a == b


class TestPreparedBatchEquality:
    @pytest.mark.parametrize("backbone", ["tgat", "graphmixer"])
    def test_train_batches_bitwise_equal(self, shard_graph, backbone):  # noqa: F811
        def batches(prep_backend):
            trainer = TaserTrainer(
                shard_graph, tiny_config(backbone=backbone, finder="original",
                                         prep_backend=prep_backend))
            return [trainer.prep.prepare_train(idx)
                    for idx in trainer.prep.schedule(max_batches=3)]

        for ref, fused in zip(batches("reference"), batches("fused")):
            _assert_prepared_equal(ref, fused)

    def test_eval_batches_bitwise_equal(self, shard_graph):  # noqa: F811
        def prepared(prep_backend):
            trainer = TaserTrainer(
                shard_graph, tiny_config(finder="original",
                                         prep_backend=prep_backend))
            split = trainer.split
            idx = split.val_idx[:60]
            src = trainer.graph.src[idx]
            dst = trainer.graph.dst[idx]
            ts = trainer.graph.ts[idx]
            rng = np.random.default_rng(3)
            negs = rng.integers(0, trainer.graph.num_nodes, (idx.size, 5))
            return trainer.prep.prepare_eval(src, dst, ts, negs)

        _assert_prepared_equal(prepared("reference"), prepared("fused"))


# ------------------------------------------------- trajectory equality

class TestTrajectoryEquality:
    @pytest.mark.parametrize("mode", ["sync", "aot"])
    def test_engines_hash_identical_across_prep_backends(self, shard_graph,  # noqa: F811
                                                         mode):
        def run(prep_backend):
            cfg = tiny_config(finder="original", batch_engine=mode,
                              prep_backend=prep_backend)
            return loss_trajectory_hash(_losses(TaserTrainer(shard_graph, cfg)))

        assert run("reference") == run("fused")

    def test_streaming_hash_identical(self, shard_graph):  # noqa: F811
        def run(prep_backend):
            warm, stream = split_warmup(shard_graph, 600, chunk_size=250,
                                        max_chunks=2)
            trainer = StreamingTrainer(
                warm, tiny_config(finder="original",
                                  prep_backend=prep_backend),
                window_events=500)
            result = trainer.run(stream)
            losses = [e.batch_losses for s in result.history
                      for e in s.train_stats]
            return (loss_trajectory_hash(losses),
                    [s.prequential_mrr for s in result.history])

        assert run("reference") == run("fused")

    def test_w1_sharded_hash_identical(self, shard_graph):  # noqa: F811
        def run(prep_backend):
            cfg = tiny_config(finder="original", prep_backend=prep_backend)
            with ShardedTrainer(shard_graph, cfg, num_workers=1,
                                backend="serial") as trainer:
                return loss_trajectory_hash(_losses(trainer))

        assert run("reference") == run("fused")

    def test_mrr_identical_end_to_end(self, shard_graph):  # noqa: F811
        def run(prep_backend):
            cfg = tiny_config(finder="original", prep_backend=prep_backend,
                              epochs=1)
            result = TaserTrainer(shard_graph, cfg).fit()
            return result.val_mrr, result.test_mrr

        assert run("reference") == run("fused")
