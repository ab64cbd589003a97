"""A state machine over the live history: an event log, its streaming T-CSR,
the snapshot and the finder that reads it.

A streaming trainer and the serving engines built from it each hold one live
history, grown only by :meth:`MiniBatchGenerator.ingest
<repro.core.pipeline.MiniBatchGenerator.ingest>`.  Hypothesis interleaves
ingests (valid and rejected) into the trainer and into engines, engine
construction, scoring and training windows, and checks after every step:

* every generator's finder reads the snapshot of its streaming T-CSR,
  bitwise equal to ``build_tcsr`` of its log;
* every log holds exactly the events accepted into it, so an engine's ingest
  never changes its source's arrays and a source's ingest never changes an
  engine's;
* an engine that has accepted a chunk shares no array with any other log;
* a rejected chunk leaves the log and the T-CSR as they were, planted
  labels included;
* a log's planted labels are absent or cover exactly its events (an accepted
  chunk carries none, so it clears them);
* an engine scores bitwise like a twin built over a private copy of its
  source's log and fed the same chunks.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import (Bundle, RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.core import EventChunk, StreamingTrainer, TaserConfig, split_warmup
from repro.graph import CTDGConfig, build_tcsr, generate_ctdg
from repro.serve import LinkQuery, ServeEngine, VirtualClock, scores_hash

GRAPH = generate_ctdg(CTDGConfig(num_src=12, num_dst=8, num_events=200,
                                 num_communities=2, edge_dim=4, seed=3,
                                 name="live-history"))
CONFIG = TaserConfig(backbone="graphmixer", adaptive_minibatch=False,
                     adaptive_neighbor=False, hidden_dim=8, time_dim=4,
                     num_neighbors=3, batch_size=32, max_batches_per_epoch=2,
                     eval_negatives=3, seed=1)
EVENT_ARRAYS = ("src", "dst", "ts", "edge_feat")
TCSR_ARRAYS = ("indptr", "indices", "eid", "ts")
#: how a chunk is spoiled so that ingestion rejects it.
REJECTIONS = ("nan time", "float ids", "earlier than the log", "unsorted",
              "nan features")
MAX_ENGINES = 3


def make_chunk(graph, size, seed, rejection):
    """``size`` events after ``graph``'s last one, spoiled by ``rejection``
    unless it is ``None``.
    Sources come from three hot nodes, so a few segments take most of each
    chunk."""
    rng = np.random.default_rng(seed)
    size = max(size, 2) if rejection == "unsorted" else size
    last = float(graph.ts[-1])
    src = rng.integers(0, 3, size)
    dst = rng.integers(0, graph.num_nodes, size)
    ts = last + np.cumsum(rng.integers(0, 3, size)).astype(np.float64)
    feat = rng.standard_normal((size, graph.edge_dim)).astype(np.float32)
    if rejection == "nan time":
        ts[-1] = np.nan
    elif rejection == "float ids":
        src = src + 0.5
    elif rejection == "earlier than the log":
        ts -= ts[-1] - last + 1.0
    elif rejection == "unsorted":
        ts[0] = ts[-1] + 1.0
    elif rejection == "nan features":
        feat[-1, 0] = np.nan
    return src, dst, ts, feat


def events_of(graph):
    return {name: getattr(graph, name).copy() for name in EVENT_ARRAYS}


def appended(events, src, dst, ts, feat):
    return {"src": np.concatenate([events["src"], src]),
            "dst": np.concatenate([events["dst"], dst]),
            "ts": np.concatenate([events["ts"], ts]),
            "edge_feat": np.concatenate([events["edge_feat"], feat])}


def tcsr_bytes(tcsr):
    return [getattr(tcsr, name).tobytes() for name in TCSR_ARRAYS]


class Engine:
    """An engine, its twin over a private copy of the source's log, and the
    events each should hold."""

    def __init__(self, trainer):
        self.engine = ServeEngine.from_trainer(trainer, max_batch=4,
                                               clock=VirtualClock())
        private = trainer.graph.select_events(np.arange(trainer.graph.num_edges))
        self.twin = ServeEngine.from_trainer(
            SimpleNamespace(config=trainer.config, graph=private,
                            backbone=trainer.backbone, predictor=trainer.predictor,
                            sampler=trainer.sampler),
            max_batch=4, clock=VirtualClock())
        self.events = events_of(trainer.graph)
        self.ingested = False


class LiveHistoryMachine(RuleBasedStateMachine):
    engines = Bundle("engines")

    def __init__(self):
        super().__init__()
        warm, _ = split_warmup(GRAPH, warmup_events=60)
        self.trainer = StreamingTrainer(warm, CONFIG, window_events=40,
                                        prequential_max_events=8)
        self.events = events_of(self.trainer.graph)
        self.all_engines = []

    def _rejected(self, owner, ingest, rejection, size, seed):
        """Feed a bad chunk to ``ingest``: it raises, and ``owner``'s log and
        T-CSR are as they were."""
        generator = owner.generator
        stcsr, held = generator.stcsr, generator.stcsr.snapshot()
        before = (stcsr.num_events, tcsr_bytes(held))
        log = events_of(owner.graph)
        labels = owner.graph.labels
        chunk = make_chunk(owner.graph, size, seed, rejection)
        try:
            ingest(*chunk)
        except ValueError:
            pass
        else:
            raise AssertionError(f"a chunk with {rejection} was accepted")
        assert generator.stcsr is stcsr and stcsr.snapshot() is held
        assert (stcsr.num_events, tcsr_bytes(held)) == before
        for name, array in log.items():
            assert getattr(owner.graph, name).tobytes() == array.tobytes(), name
        assert owner.graph.labels is labels

    # -- rules ---------------------------------------------------------------

    def _trainer_ingest(self, src, dst, ts, feat):
        self.trainer.ingest(EventChunk(src, dst, ts, feat))

    @rule(size=st.integers(1, 8), seed=st.integers(0, 2 ** 16))
    def trainer_ingest(self, size, seed):
        chunk = make_chunk(self.trainer.graph, size, seed, None)
        self._trainer_ingest(*chunk)
        self.events = appended(self.events, *chunk)

    @rule(size=st.integers(1, 8), seed=st.integers(0, 2 ** 16),
          rejection=st.sampled_from(REJECTIONS))
    def trainer_ingest_rejected(self, size, seed, rejection):
        self._rejected(self.trainer, self._trainer_ingest, rejection, size, seed)

    @precondition(lambda self: len(self.all_engines) < MAX_ENGINES)
    @rule(target=engines)
    def from_trainer(self):
        engine = Engine(self.trainer)
        self.all_engines.append(engine)
        return engine

    @rule(engine=engines, size=st.integers(1, 8), seed=st.integers(0, 2 ** 16))
    def engine_ingest(self, engine, size, seed):
        chunk = make_chunk(engine.engine.graph, size, seed, None)
        engine.engine.ingest(*chunk)
        engine.twin.ingest(*chunk)
        engine.events = appended(engine.events, *chunk)
        engine.ingested = True

    @rule(engine=engines, size=st.integers(1, 8), seed=st.integers(0, 2 ** 16),
          rejection=st.sampled_from(REJECTIONS))
    def engine_ingest_rejected(self, engine, size, seed, rejection):
        self._rejected(engine.engine, engine.engine.ingest, rejection, size, seed)

    @rule(engine=engines, count=st.integers(1, 6), seed=st.integers(0, 2 ** 16))
    def submit_and_flush(self, engine, count, seed):
        rng = np.random.default_rng(seed)
        graph = engine.engine.graph
        times = float(graph.ts[-1]) + rng.uniform(-20.0, 1.0, count)
        queries = [LinkQuery(int(s), int(d), float(t)) for s, d, t in zip(
            rng.integers(0, graph.num_nodes, count),
            rng.integers(0, graph.num_nodes, count), times)]
        got, want = (scores_hash(e.serve(queries))
                     for e in (engine.engine, engine.twin))
        assert got == want
        stats = engine.engine.serve_stats
        assert stats.submitted == stats.served + stats.invalid

    @rule()
    def train_window(self):
        self.trainer.train_epoch()

    # -- invariants ----------------------------------------------------------

    def _owners(self):
        yield self.trainer, self.events
        for engine in self.all_engines:
            yield engine.engine, engine.events
            yield engine.twin, engine.events

    @invariant()
    def every_log_holds_what_it_accepted(self):
        for owner, events in self._owners():
            for name, array in events.items():
                assert getattr(owner.graph, name).tobytes() == array.tobytes(), name

    @invariant()
    def every_log_has_labels_for_its_events_or_none(self):
        for owner, _ in self._owners():
            labels = owner.graph.labels
            assert labels is None or labels.shape == (owner.graph.num_edges,)

    @invariant()
    def every_finder_reads_a_rebuild_of_its_log(self):
        for owner, _ in self._owners():
            generator = owner.generator
            snapshot = generator.finder.tcsr
            assert tcsr_bytes(snapshot) == tcsr_bytes(build_tcsr(owner.graph))
            assert generator.stcsr.num_events == owner.graph.num_edges
            assert snapshot is generator.stcsr.snapshot()

    @invariant()
    def an_engine_that_ingested_shares_nothing(self):
        logs = [owner.graph for owner, _ in self._owners()]
        for engine in self.all_engines:
            if not engine.ingested:
                continue
            mine = engine.engine.graph
            for other in logs:
                if other is mine:
                    continue
                for name in EVENT_ARRAYS:
                    assert not np.shares_memory(getattr(mine, name),
                                                getattr(other, name)), name


LiveHistoryMachine.TestCase.settings = settings(
    max_examples=50, stateful_step_count=20, deadline=None, database=None,
    derandomize=True)
TestLiveHistory = LiveHistoryMachine.TestCase
