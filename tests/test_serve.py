"""Tests for the serving layer: ServeEngine.

Covers the edge cases the serving contracts hinge on — empty flushes,
out-of-universe queries, queries for nodes with no history at time ``t``,
queue-full shedding under both admission policies, deadline expiry on the
injected clock — and the deterministic replay contract: bitwise-identical
scores across runs.
"""

import copy
import os
import sys
from enum import IntEnum

import numpy as np
import pytest

import repro
from repro.core import StreamingTrainer, TaserConfig, TaserTrainer, split_warmup
from repro.graph import StreamingTCSR
from repro.serve import LinkQuery, ServeEngine, VirtualClock, scores_hash
from repro.sampling import unique_targets


@pytest.fixture(scope="module")
def trained(small_graph):
    config = TaserConfig(hidden_dim=16, time_dim=8, num_neighbors=3,
                         num_candidates=6, batch_size=150, epochs=1,
                         max_batches_per_epoch=4, adaptive_minibatch=False,
                         adaptive_neighbor=False, seed=3)
    trainer = TaserTrainer(small_graph, config)
    trainer.train_epoch()
    return trainer


@pytest.fixture(scope="module")
def queries(small_graph):
    rng = np.random.default_rng(17)
    n = small_graph.num_nodes
    t_hi = float(small_graph.ts.max())
    return [LinkQuery(int(rng.integers(0, n)), int(rng.integers(0, n)),
                      t_hi * (0.5 + 0.5 * float(rng.random())))
            for _ in range(30)]


class _Node(IntEnum):
    TWO = 2


def make_engine(trained, **kwargs):
    kwargs.setdefault("max_batch", 8)
    kwargs.setdefault("clock", VirtualClock())
    return ServeEngine.from_trainer(trained, **kwargs)


class TestUniqueEndpoints:
    """Serve computes a flush's distinct endpoints with the forward-only
    batch's per-level dedup primitive."""

    @pytest.mark.parametrize("size", [1, 2, 7, 64])
    def test_matches_unique_over_the_stacked_pair(self, size):
        rng = np.random.default_rng(size)
        nodes = rng.integers(0, 4, size)
        times = rng.integers(0, 3, size).astype(np.float64) * 0.5
        key = np.stack([nodes.astype(np.float64), times])
        want, inverse = np.unique(key, axis=1, return_inverse=True)
        got_nodes, got_times, got_inverse = unique_targets(nodes, times)
        assert np.array_equal(got_nodes, want[0].astype(np.int64))
        assert np.array_equal(got_times, want[1])
        assert np.array_equal(got_inverse, inverse.reshape(-1))
        assert got_nodes.dtype == nodes.dtype and got_times.dtype == times.dtype


class TestServeEngineEdgeCases:
    def test_empty_flush(self, trained):
        engine = make_engine(trained)
        assert engine.flush() == []
        assert engine.stats()["forward_batches"] == 0

    def test_invalid_nodes_rejected_not_crashed(self, trained):
        engine = make_engine(trained)
        results = engine.serve([LinkQuery(-1, 3, 1.0),
                                LinkQuery(2, 10 ** 9, 1.0),
                                LinkQuery(1, 3, float("nan")),
                                LinkQuery(2, 3, float("inf")),
                                LinkQuery(2, 3, float("-inf")),
                                # not integers: never truncated to a node
                                LinkQuery(3.9, 7, 1.0),
                                LinkQuery(True, 7, 1.0),
                                LinkQuery(2, np.float64(3.0), 1.0),
                                LinkQuery(2, 3, 1.0),
                                LinkQuery(np.int32(2), np.int64(3), 1.0),
                                LinkQuery(_Node.TWO, 3, 1.0)])
        assert [r.status for r in results] == ["invalid"] * 8 + ["ok"] * 3
        assert engine.stats()["invalid"] == 8
        assert results[-1].score == results[-2].score == results[-3].score

    @pytest.mark.parametrize("t, deadline", [
        ("5", None), (None, None), (1 + 2j, None), (np.datetime64(5, "s"), None),
        (5.0, "soon"), (5.0, float("nan")), (5.0, 1 + 2j)],
        ids=["str", "none", "complex", "datetime64", "deadline-str", "deadline-nan",
             "deadline-complex"])
    def test_a_time_that_is_not_a_real_number_is_invalid(self, trained, t, deadline):
        """Such a time, or deadline, used to raise out of ``submit`` after
        the query was counted: the counters stopped adding up, and its
        sequence number never got a result.  A NaN deadline was queued,
        never expired and was scored."""
        engine = make_engine(trained)

        def balanced():
            s = engine.serve_stats
            return s.submitted == (s.served + s.shed + s.expired + s.invalid
                                   + engine._count)
        rejected = engine.submit(LinkQuery(1, 2, t, deadline))
        assert (rejected.seq, rejected.status) == (0, "invalid")
        assert engine.submit(LinkQuery(1, 2, 5.0)) is None
        assert balanced()
        assert [(r.seq, r.status) for r in engine.flush()] == [(1, "ok")]
        assert balanced() and engine.serve_stats.submitted == 2

    def test_ingest_rejects_non_integer_ids(self, trained):
        engine = make_engine(trained)
        before = engine.graph.num_edges
        last = float(engine.graph.ts[-1])
        feat = np.zeros((1, engine.graph.edge_dim), dtype=np.float32)
        held = engine.generator.finder.tcsr
        with pytest.raises(ValueError, match="integers"):
            engine.ingest(np.array([1.7]), np.array([2.2]), np.array([last + 1.0]), feat)
        assert engine.graph.num_edges == before
        assert engine.generator.stcsr.snapshot() is held

    def test_unseen_node_at_time_t(self, trained):
        # At t = first timestamp no node has any history yet: the temporal
        # neighborhood is empty and the score must still be a probability.
        t0 = float(trained.graph.ts.min())
        engine = make_engine(trained)
        results = engine.serve([LinkQuery(0, 1, t0)])
        assert results[0].status == "ok"
        assert 0.0 <= results[0].score <= 1.0

    def test_queue_full_shed_policy(self, trained):
        engine = make_engine(trained, queue_depth=2, admission="shed")
        q = LinkQuery(1, 2, 100.0)
        outcomes = [engine.submit(q) for _ in range(4)]
        assert outcomes[0] is None and outcomes[1] is None
        assert outcomes[2].status == "shed" and outcomes[3].status == "shed"
        done = engine.flush()
        assert [r.status for r in done] == ["ok", "ok"]
        assert engine.stats()["shed"] == 2

    def test_queue_full_wait_policy_drains(self, trained):
        engine = make_engine(trained, queue_depth=2, admission="wait")
        q = LinkQuery(1, 2, 100.0)
        for _ in range(5):
            assert engine.submit(q) is None  # backpressure, never rejected
        results = engine.flush()
        assert len(results) == 5
        assert [r.seq for r in results] == sorted(r.seq for r in results)
        assert engine.stats()["shed"] == 0

    def test_deadline_expiry_on_injected_clock(self, trained):
        engine = make_engine(trained, clock=VirtualClock(tick=1.0))
        submitted = [LinkQuery(1, 2, 100.0, deadline=0.5),
                     LinkQuery(3, 4, 100.0, deadline=100.0),
                     LinkQuery(5, 6, 100.0)]  # no deadline: never expires
        for query in submitted:
            engine.submit(query)
        results = engine.flush()
        assert [r.status for r in results] == ["expired", "ok", "ok"]
        assert engine.stats()["expired"] == 1
        # Each result carries its query back, rebuilt from the columns.
        assert [r.query for r in results] == submitted
        assert results[2].query.deadline is None

    def test_ingest_copies_graph_and_refreshes(self, trained):
        before = trained.graph.num_edges
        engine = make_engine(trained)
        last = float(engine.graph.ts[-1])
        engine.ingest(np.array([0, 1]), np.array([1, 2]),
                      np.array([last + 1.0, last + 2.0]),
                      np.zeros((2, engine.graph.edge_dim), dtype=np.float32))
        assert engine.graph.num_edges == before + 2
        assert trained.graph.num_edges == before  # caller's graph untouched
        results = engine.serve([LinkQuery(0, 1, last + 3.0)])
        assert results[0].status == "ok"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_ingest_rejects_a_non_finite_time(self, trained, bad):
        """A NaN slips past a ``<`` chronology check, and an inf would make
        every later finite ingest fail: both are rejected, leaving the
        history as it was."""
        engine = make_engine(trained)
        before = engine.graph.num_edges
        last = float(engine.graph.ts[-1])
        feat = np.zeros((1, engine.graph.edge_dim), dtype=np.float32)
        held = engine.generator.finder.tcsr
        with pytest.raises(ValueError, match="finite"):
            engine.ingest(np.array([0]), np.array([1]), np.array([bad]), feat)
        assert engine.graph.num_edges == before
        assert engine.generator.stcsr.snapshot() is held
        engine.ingest(np.array([0]), np.array([1]), np.array([last + 1.0]), feat)
        assert engine.generator.stcsr.num_events == engine.graph.num_edges == before + 1

    def test_a_rejected_first_ingest_of_nan_features_changes_no_score(
            self, trained, queries):
        """An all-NaN feature chunk used to be accepted, and every later
        score that sampled it read ``nan``.  Rejected at the first ingest, it
        leaves the log and the T-CSR as they were: the engine then ingests
        and scores bitwise like a twin that never saw the bad chunk."""
        engine, twin = make_engine(trained), make_engine(trained)
        last = float(engine.graph.ts[-1])
        dim = engine.graph.edge_dim
        held = engine.generator.finder.tcsr
        with pytest.raises(ValueError, match="edge features must be finite"):
            engine.ingest(np.array([0, 1]), np.array([1, 2]),
                          np.array([last + 1.0, last + 2.0]),
                          np.full((2, dim), np.nan, dtype=np.float32))
        assert engine.graph.num_edges == trained.graph.num_edges
        assert engine.generator.stcsr.snapshot() is held
        good = (np.array([0, 1]), np.array([1, 2]),
                np.array([last + 1.0, last + 2.0]),
                np.ones((2, dim), dtype=np.float32))
        engine.ingest(*good)
        twin.ingest(*good)
        late = [LinkQuery(q.src, q.dst, last + 3.0) for q in queries]
        results = engine.serve(late)
        assert all(r.status == "ok" and np.isfinite(r.score) for r in results)
        assert scores_hash(results) == scores_hash(twin.serve(late))

    def test_constructor_validation(self, trained):
        with pytest.raises(ValueError, match="max_batch"):
            make_engine(trained, max_batch=0)
        with pytest.raises(ValueError, match="queue_depth"):
            make_engine(trained, queue_depth=0)
        with pytest.raises(ValueError, match="admission"):
            make_engine(trained, admission="drop")
        with pytest.raises(ValueError, match="tick"):
            VirtualClock(tick=0.0)

    @pytest.mark.parametrize("tick", [float("nan"), float("inf"), -1e-3, "1"])
    def test_a_virtual_clock_tick_must_be_finite_and_positive(self, tick):
        """Under a NaN or infinite tick every reading is NaN or infinite,
        ``now - enqueued > deadline`` never holds, and a replay with deadlines
        never sheds a query."""
        with pytest.raises(ValueError, match="tick"):
            VirtualClock(tick=tick)

    def test_results_in_submission_order(self, trained, queries):
        engine = make_engine(trained, max_batch=4)
        results = engine.serve(queries)
        assert len(results) == len(queries)
        assert [r.seq for r in results] == list(range(len(queries)))
        assert [r.query for r in results] == queries

    def test_stats_payload(self, trained, queries):
        engine = make_engine(trained, max_batch=4)
        engine.serve(queries)
        stats = engine.stats()
        assert stats["served"] == len(queries)
        assert stats["forward_batches"] >= len(queries) // 4
        assert 0.0 < stats["batch_occupancy"] <= 1.0
        assert stats["embeddings_reused"] == 0
        assert 0 < stats["embeddings_computed"] <= 2 * len(queries)
        assert not any(key.startswith("embedding_cache") for key in stats)

    def test_engine_has_no_precision_argument(self, trained):
        with pytest.raises(TypeError):
            make_engine(trained, precision="fp32")
        assert "precision" not in make_engine(trained).stats()


class TestServeDeterminism:
    # One prep path; the id is the name the frozen e2e benchmark records.
    @pytest.mark.parametrize("prep_name", ["reference"])
    def test_replay_bitwise_per_cell(self, trained, queries, prep_name):
        def run():
            engine = make_engine(trained)
            assert engine.prep.name == prep_name
            return scores_hash(engine.serve(queries))

        assert run() == run()

    def test_default_engine_is_the_uncached_engine_bitwise(self, trained, queries):
        """The default engine is the ``staleness_time=0.0`` engine the e2e
        benchmark builds, score for score, and it reuses no embedding."""
        default = make_engine(trained, max_batch=4)
        got = default.serve(queries + queries)
        want = make_engine(trained, max_batch=4,
                           staleness_time=0.0).serve(queries + queries)
        assert scores_hash(got) == scores_hash(want)
        assert default.stats()["embeddings_reused"] == 0

    def test_a_flush_draws_one_seed_per_level_tile_and_ingest_none(self, trained,
                                                                     queries):
        """The engine's generator is its one random stream: a flush's build
        takes one raw draw per level (one tile each) to seed that level's
        draws, and an ingest neither draws from it nor restarts it."""
        engine = make_engine(trained, max_batch=8, finder_policy="uniform")
        layers = engine.generator.num_layers
        assert layers == 2
        want = copy.deepcopy(engine.rng)
        engine.serve(queries[:8])
        want.bit_generator.random_raw(layers)
        assert engine.rng.bit_generator.state == want.bit_generator.state
        last = float(engine.graph.ts[-1])
        engine.ingest(np.array([0]), np.array([1]), np.array([last + 1.0]),
                      np.zeros((1, engine.graph.edge_dim), dtype=np.float32))
        assert engine.rng.bit_generator.state == want.bit_generator.state

    def test_ingest_does_not_restart_the_draws(self, trained, queries):
        """Under ``uniform``, a query scored again after an ingest of later
        events gets the score it gets without the ingest: the draws go on
        from where the first flush left them."""
        def twice(ingest):
            engine = make_engine(trained, finder_policy="uniform")
            first = engine.serve(queries[:1])[0].score
            if ingest:
                last = float(engine.graph.ts[-1])
                engine.ingest(np.array([0]), np.array([1]), np.array([last + 1.0]),
                              np.zeros((1, engine.graph.edge_dim), dtype=np.float32))
            return first, engine.serve(queries[:1])[0].score
        plain, ingested = twice(False), twice(True)
        assert plain[0] != plain[1]
        assert ingested == plain

    def test_flush_restores_each_modules_mode(self, trained, queries):
        engine = make_engine(trained)
        backbone = [m for _, m in trained.backbone.named_modules()]
        predictor = [m for _, m in trained.predictor.named_modules()]
        assert list(engine._modules) == backbone + predictor
        seen = []
        embed = trained.backbone.embed

        def spying(minibatch, *rest):
            seen.append({m.training for m in engine._modules})
            return embed(minibatch, *rest)
        # mixed modes: the backbone training, the predictor in eval
        trained.backbone.train(True)
        trained.predictor.train(False)
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(trained.backbone, "embed", spying)
                engine.serve(queries[:3])
            after = [m.training for m in engine._modules]
        finally:
            trained.backbone.train(False)
        assert seen == [{False}]
        assert after == [True] * len(backbone) + [False] * len(predictor)


class TestColumnarCore:
    def test_flush_scores_through_score(self, trained, queries):
        """A flush is ``_score`` over slices of the pending columns: the same
        links scored directly give the flush's scores and logits, bit for
        bit."""
        flushed = make_engine(trained, max_batch=len(queries)).serve(queries)
        src = np.array([q.src for q in queries])
        dst = np.array([q.dst for q in queries])
        t = np.array([q.t for q in queries])
        scores, logits = make_engine(trained)._score(src, dst, t)
        assert scores.tolist() == [r.score for r in flushed]
        assert logits.tolist() == [r.logit for r in flushed]

    def test_queue_grows_past_its_first_columns(self, trained, queries):
        engine = make_engine(trained, max_batch=4, queue_depth=64)
        for query in queries:
            assert engine.submit(query) is None
        results = engine.flush()
        assert [r.seq for r in results] == list(range(len(queries)))
        assert [r.query for r in results] == queries
        assert [r.batch_size for r in results] == [4] * 28 + [2] * 2

    def test_a_failing_slice_loses_only_itself(self, trained, queries):
        """A slice leaves the queue before it is scored: when scoring it
        raises, the results drained by backpressure and the rows behind it
        survive, and the next flush delivers them with later queries."""
        engine = make_engine(trained, max_batch=2, queue_depth=4)
        for query in queries[:8]:
            assert engine.submit(query) is None     # the 5th drains 4
        score, calls = engine._score, []

        def failing(*args):
            calls.append(len(calls))
            if len(calls) == 1:
                raise RuntimeError("scoring failed")
            return score(*args)
        engine._score = failing
        with pytest.raises(RuntimeError, match="scoring failed"):
            engine.flush()
        assert engine.submit(queries[8]) is None
        results = engine.flush()
        assert [r.seq for r in results] == [0, 1, 2, 3, 6, 7, 8]
        assert [r.query for r in results] == [queries[i] for i in (0, 1, 2, 3, 6, 7, 8)]
        assert {r.status for r in results} == {"ok"}
        assert engine.flush() == []


#: the event arrays an engine reads through views of its source's.
EVENT_ARRAYS = ("src", "dst", "ts", "edge_feat")
TCSR_ARRAYS = ("indptr", "indices", "eid", "ts")


class TestSharedHistory:
    """An engine copies no history until it ingests: its event log is
    read-only views of the source's arrays and its generator's streaming
    T-CSR is the finder's compact T-CSR; the first accepted ingest moves the
    log into private buffers, and each merges its chunk into a fresh T-CSR."""

    def test_a_fresh_engine_shares_the_trainers_events(self, trained):
        engine = make_engine(trained)
        for name in EVENT_ARRAYS:
            assert np.shares_memory(getattr(engine.graph, name),
                                    getattr(trained.graph, name)), name
        assert engine.generator.stcsr.snapshot() is engine.generator.finder.tcsr
        want = StreamingTCSR.from_graph(trained.graph).snapshot()
        for name in TCSR_ARRAYS:
            got = getattr(engine.generator.finder.tcsr, name)
            assert got.dtype == getattr(want, name).dtype, name
            assert got.tobytes() == getattr(want, name).tobytes(), name

    def test_writing_through_the_shared_arrays_raises(self, trained):
        engine = make_engine(trained)
        for name in EVENT_ARRAYS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(engine.graph, name)[0] = 0
        assert trained.graph.src.flags.writeable

    def test_the_first_ingest_copies_and_leaves_the_trainer_as_it_was(self, trained):
        graph = {name: getattr(trained.graph, name).copy() for name in EVENT_ARRAYS}
        source = trained.generator.finder.tcsr
        tcsr = {name: getattr(source, name).copy() for name in TCSR_ARRAYS}
        engine = make_engine(trained)
        last = float(engine.graph.ts[-1])
        engine.ingest(np.array([0]), np.array([1]), np.array([last + 1.0]),
                      np.ones((1, engine.graph.edge_dim), dtype=np.float32))
        assert engine.generator.stcsr.num_events == engine.graph.num_edges \
            == graph["src"].size + 1
        assert trained.generator.stcsr.snapshot() is source
        assert trained.generator.finder.tcsr is source
        for name in EVENT_ARRAYS:
            assert not np.shares_memory(getattr(engine.graph, name),
                                        getattr(trained.graph, name)), name
            assert getattr(trained.graph, name).tobytes() == graph[name].tobytes(), name
        for name in TCSR_ARRAYS:
            assert getattr(source, name).tobytes() == tcsr[name].tobytes(), name

    def test_an_engine_keeps_its_history_while_a_streaming_trainer_ingests(
            self, small_graph, queries):
        """The streaming trainer appends to its graph in place (after its
        first append, into buffers with room to spare): the engine's views
        stop at the rows it was built over, so it scores bitwise like a twin
        built over a private copy of them."""
        config = TaserConfig(backbone="graphmixer", adaptive_minibatch=False,
                             adaptive_neighbor=False, hidden_dim=8, time_dim=4,
                             num_neighbors=3, batch_size=64,
                             max_batches_per_epoch=2, seed=5)
        warm, stream = split_warmup(small_graph, warmup_events=600, chunk_size=100)
        chunks = iter(stream)
        trainer = StreamingTrainer(warm, config, window_events=300)
        trainer.ingest(next(chunks))
        engine = make_engine(trainer)
        copied = trainer.graph.select_events(np.arange(trainer.graph.num_edges))
        twin = ServeEngine(copied, trainer.backbone, trainer.predictor, max_batch=8,
                           clock=VirtualClock(), num_layers=config.num_layers,
                           num_neighbors=config.num_neighbors, seed=config.seed)
        assert np.shares_memory(engine.graph.src, trainer.graph.src)
        for _ in range(2):
            trainer.ingest(next(chunks))
        assert trainer.graph.num_edges == copied.num_edges + 200
        assert engine.graph.num_edges == copied.num_edges
        assert scores_hash(engine.serve(queries)) == scores_hash(twin.serve(queries))


#: Python frames under ``repro`` that a 3-query flush on a one-layer
#: GraphMixer enters (96 on Python 3.11; 3.12 inlines comprehensions, so it
#: counts fewer).  The count was 124 before the pending queue became columns.
FLUSH_FRAME_BUDGET = 96


class TestFlushCallBudget:
    def test_three_query_flush(self, small_graph):
        """The fixed cost of a flush, counted as ``sys.setprofile`` ``call``
        events whose code lives in the ``repro`` package: NumPy's own
        Python layers differ between versions, so they are not counted."""
        config = TaserConfig(backbone="graphmixer", hidden_dim=16, time_dim=8,
                             num_neighbors=5, batch_size=150,
                             max_batches_per_epoch=2, adaptive_minibatch=False,
                             adaptive_neighbor=False, seed=3)
        trainer = TaserTrainer(small_graph, config)
        trainer.train_epoch()
        engine = ServeEngine.from_trainer(trainer)
        t = float(small_graph.ts.max())

        def submit():
            for i in range(3):
                engine.submit(LinkQuery(i, 40 + i, t))
        submit()
        engine.flush()                              # warm this flush shape
        submit()
        package = os.path.dirname(repro.__file__) + os.sep
        frames = [0]

        def count(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(package):
                frames[0] += 1
        sys.setprofile(count)
        try:
            results = engine.flush()
        finally:
            sys.setprofile(None)
        assert [r.status for r in results] == ["ok"] * 3
        assert frames[0] <= FLUSH_FRAME_BUDGET, frames[0]
