"""The program still offers every name the frozen end-to-end benchmark reads.

``benchmarks/e2e`` is byte-frozen: its tracer patches layer boundaries of
``repro`` by name and its serve workload passes arguments and reads stats
keys that only one-value shims keep alive.  Without these tests, removing a
shim shows up only when the e2e smoke run fails.
"""

import sys
from pathlib import Path

import pytest

from repro.core import TaserConfig, TaserTrainer
from repro.graph import TemporalGraph
from repro.serve import LinkQuery, ServeEngine, VirtualClock

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
sys.path.insert(0, str(E2E))

from tracer import Tracer  # noqa: E402

#: the ``ServeEngine.stats()`` keys ``benchmarks/e2e/workloads.py`` reads.
WORKLOAD_STATS = {"served", "flushes", "embeddings_reused", "embeddings_computed",
                  "array_backend", "prep_backend"}


@pytest.fixture(scope="module")
def trainer(small_graph):
    config = TaserConfig(backbone="graphmixer", hidden_dim=8, time_dim=4,
                         num_neighbors=3, batch_size=150, max_batches_per_epoch=2,
                         adaptive_minibatch=False, adaptive_neighbor=False, seed=3)
    return TaserTrainer(small_graph, config)


def test_the_workloads_module_imports():
    import workloads  # noqa: F401


def test_every_patched_name_resolves():
    tracer = Tracer()
    tracer.patch_program()
    assert tracer._patches


def test_a_traced_serve_times_the_embedding_cache_inside_a_flush(trainer):
    engine = ServeEngine.from_trainer(trainer, max_batch=8, clock=VirtualClock(),
                                      staleness_time=0.0)
    t = float(trainer.graph.ts.max())
    tracer = Tracer()
    tracer.patch_program()
    tracer.install()
    try:
        results = engine.serve([LinkQuery(i, 40 + i, t) for i in range(5)])
    finally:
        tracer.uninstall()
    assert [r.status for r in results] == ["ok"] * 5
    parents = [tracer.spans[span[3]][0] for span in tracer.spans
               if span[0] == "serve.embcache"]
    assert parents == ["serve.flush"]


def test_staleness_time_accepts_only_zero(trainer):
    ServeEngine.from_trainer(trainer, staleness_time=0.0)
    for bound in (1.0, None, float("nan")):
        with pytest.raises(ValueError, match="staleness_time"):
            ServeEngine.from_trainer(trainer, staleness_time=bound)


def test_a_graph_reads_as_chronological(small_graph):
    """The serve workload sorts a graph unless ``is_chronological``; every
    log is in time order by construction, so it is the constant ``True``."""
    assert TemporalGraph.is_chronological is True
    assert small_graph.is_chronological is True


def test_stats_hold_the_keys_the_serve_workload_reads(trainer):
    engine = ServeEngine.from_trainer(trainer, clock=VirtualClock())
    engine.serve([LinkQuery(1, 41, float(trainer.graph.ts.max()))])
    stats = engine.stats()
    assert WORKLOAD_STATS <= set(stats)
    assert (stats["served"], stats["embeddings_computed"]) == (1, 2)
    assert stats["embeddings_reused"] == 0
