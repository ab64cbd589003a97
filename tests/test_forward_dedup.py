"""Forward-only mini-batches compute each ``(node, t)`` once per hop.

``MiniBatchGenerator.build(train=False)`` builds every hop on the distinct
queries of its level and keeps one inverse index per level; the exact-value
tests below pin both on a hand-built graph, in the style of PyG's sampler
test.  The per-row forward-only batch — what scoring built before — lives on
here only, as the oracle the deduplicated scores are held to.
"""

import numpy as np
import pytest

from repro.core import MiniBatchGenerator, TaserConfig, TaserTrainer
from repro.device import FeatureStore
from repro.eval import ranking_report, score_link_queries
from repro.graph import TemporalGraph, build_tcsr
from repro.models import HopData, MiniBatch
from repro.sampling import PAD_NODE, flatten_frontier, make_finder

# Node 3 is reached at t = 2.0 both from node 1 (event 1) and from node 4
# (event 2); node 0 has no events.
EVENTS = dict(src=[1, 1, 4, 4], dst=[2, 3, 3, 2], ts=[1.0, 2.0, 2.0, 3.0])
# (1, 5.0) is asked twice; (2, 1.5) and (2, 2.0) each have one neighbor.
ROOTS = np.array([1, 4, 1, 2, 2])
TIMES = np.array([5.0, 5.0, 5.0, 1.5, 2.0])


@pytest.fixture(scope="module")
def tiny():
    graph = TemporalGraph(num_nodes=5, **EVENTS,
                          edge_feat=np.arange(8, dtype=np.float32).reshape(4, 2))
    return MiniBatchGenerator(make_finder("gpu", build_tcsr(graph), policy="recent"),
                              FeatureStore(graph), num_layers=2, num_neighbors=2,
                              num_candidates=2)


class TestExactTargets:
    def test_roots_collapse_to_their_distinct_queries(self, tiny):
        hop = tiny.build(ROOTS, TIMES, train=False).hops[0]
        assert hop.batch.root_nodes.tolist() == [1, 2, 2, 4]
        assert hop.batch.root_times.tolist() == [5.0, 1.5, 2.0, 5.0]
        assert hop.inverse.tolist() == [0, 3, 0, 1, 2]
        # Most recent first: (1, 5.0) -> 3@2.0, 2@1.0; (4, 5.0) -> 2@3.0, 3@2.0.
        assert hop.batch.nodes.tolist() == [[3, 2], [1, 0], [1, 0], [2, 3]]
        assert hop.batch.mask.tolist() == [[True, True], [True, False],
                                           [True, False], [True, True]]

    def test_frontier_slots_collapse_to_their_distinct_queries(self, tiny):
        first, second = tiny.build(ROOTS, TIMES, train=False).hops
        slots = list(zip(*flatten_frontier(first.batch)))
        assert slots == [(3, 2.0), (2, 1.0), (1, 1.0), (0, 0.0),
                         (1, 1.0), (0, 0.0), (2, 3.0), (3, 2.0)]
        assert second.batch.root_nodes.tolist() == [PAD_NODE, 1, 2, 2, 3]
        assert second.batch.root_times.tolist() == [0.0, 1.0, 1.0, 3.0, 2.0]
        # Both dead slots share the one (PAD_NODE, 0.0) target; the two
        # routes to node 3 at t = 2.0 share another.
        assert second.inverse.tolist() == [4, 2, 1, 0, 1, 0, 3, 4]
        assert second.batch.mask.tolist() == [[False, False], [False, False],
                                              [False, False], [True, False],
                                              [False, False]]

    def test_training_batches_keep_one_target_per_row(self, tiny):
        mb = tiny.build(ROOTS, TIMES, train=True)
        mb.check_invariants()
        assert [hop.num_targets for hop in mb.hops] == [5, 10]
        assert all(hop.inverse is None for hop in mb.hops)


class TestInverseInvariants:
    def test_deduplicated_batch_passes(self, tiny):
        tiny.build(ROOTS, TIMES, train=False).check_invariants()

    @pytest.mark.parametrize("corrupt", ["misroute", "unreached", "short",
                                         "repeat"])
    def test_corrupt_inverse_detected(self, tiny, corrupt):
        mb = tiny.build(ROOTS, TIMES, train=False)
        hop = mb.hops[1]
        if corrupt == "misroute":        # slot 0 is (3, 2.0), not (2, 1.0)
            hop.inverse[0] = 2
        elif corrupt == "unreached":     # nothing reaches (2, 3.0) any more
            hop.inverse[6] = 4
        elif corrupt == "short":
            hop.inverse = hop.inverse[:-1]
        else:                            # a second copy of (3, 2.0)
            batch = hop.batch.select(np.zeros((5, 2), dtype=np.int64))
            batch.root_nodes[3], batch.root_times[3] = 3, 2.0
            mb.hops[1] = HopData(batch=batch, inverse=hop.inverse)
        with pytest.raises(AssertionError):
            mb.check_invariants()


# ---------------------------------------------------------------------------
# oracle: the per-row forward-only batch
# ---------------------------------------------------------------------------

def per_row_build(gen, roots, times):
    """One target per row at every hop, greedy selection: the forward-only
    batch as it was built before deduplication."""
    mb = MiniBatch(root_nodes=roots, root_times=times,
                   root_node_feat=gen.slice_root_features(roots))
    nodes = roots
    for _ in range(gen.num_layers):
        stage = gen.layer_candidates(nodes, times)
        hop = HopData(batch=stage.candidates, edge_feat=stage.edge_feat,
                      neigh_node_feat=stage.neigh_node_feat,
                      target_node_feat=stage.target_node_feat)
        if gen.uses_adaptive_sampling:
            columns = gen.adaptive_sampler(
                stage.candidates, gen.num_neighbors, edge_feat=stage.edge_feat,
                neigh_node_feat=stage.neigh_node_feat,
                target_node_feat=stage.target_node_feat, greedy=True).columns
            hop.batch = stage.candidates.select(columns)
            hop.edge_feat = gen._gather_columns(stage.edge_feat, columns)
            hop.neigh_node_feat = gen._gather_columns(stage.neigh_node_feat,
                                                      columns)
        mb.hops.append(hop)
        nodes, times = flatten_frontier(hop.batch)
    return mb


class PerRowPrep:
    """A prep runtime whose evaluation batches are the per-row oracle's."""

    def __init__(self, prep):
        self.prep = prep

    def prepare_eval(self, src, dst, ts, negatives):
        prepared = self.prep.assemble_eval(src, dst, ts, negatives)
        prepared.minibatch = per_row_build(self.prep.generator, prepared.roots,
                                           prepared.times)
        return prepared


#: float32 logits of the same queries through GEMMs of other row counts:
#: the BLAS blocks rows differently, which moves the last bits.
LOGIT_ATOL = 1e-5

ORACLE_VARIANTS = {
    "tgat+adaptive": dict(backbone="tgat", adaptive_minibatch=True,
                          adaptive_neighbor=True, finder_policy="recent"),
    "graphmixer": dict(backbone="graphmixer", adaptive_minibatch=False,
                       adaptive_neighbor=False),
}


@pytest.mark.parametrize("variant", sorted(ORACLE_VARIANTS))
def test_recent_scores_equal_the_per_row_oracle(small_graph, variant):
    config = TaserConfig(hidden_dim=8, time_dim=4, num_neighbors=3,
                         num_candidates=6, batch_size=64, dropout=0.0,
                         max_batches_per_epoch=2, seed=0,
                         **ORACLE_VARIANTS[variant])
    trainer = TaserTrainer(small_graph, config)
    trainer.train_epoch()
    edges = trainer.split.test_idx[:40]
    graph = trainer.graph
    negatives = trainer.make_evaluator().negatives.sample_matrix(
        edges.size, 9, exclude=graph.dst[edges])
    queries = (graph.src[edges], graph.dst[edges], graph.ts[edges], negatives)

    # Repeated queries at every level, or the comparison shows nothing.
    mb = trainer.prep.prepare_eval(*queries).minibatch
    for hop in mb.hops:
        assert hop.num_targets < hop.inverse.size

    deduplicated = score_link_queries(trainer.prep, trainer.backbone,
                                      trainer.predictor, *queries)
    per_row = score_link_queries(PerRowPrep(trainer.prep), trainer.backbone,
                                 trainer.predictor, *queries)
    for got, want in zip(deduplicated, per_row):
        np.testing.assert_allclose(got, want, rtol=0, atol=LOGIT_ATOL)
    assert ranking_report(*deduplicated) == ranking_report(*per_row)
