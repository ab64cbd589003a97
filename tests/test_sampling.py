"""Tests for the three temporal neighbor finders and multi-hop expansion."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import build_tcsr, CTDGConfig, generate_ctdg
from repro.sampling import (make_finder, OriginalNeighborFinder, TGLNeighborFinder,
                            GPUNeighborFinder, sample_multi_hop, flatten_frontier,
                            NeighborBatch)

FINDERS = ["original", "tgl", "gpu"]
POLICIES = ["uniform", "recent", "inverse_timespan"]


def query_batch(graph, count=200, seed=0):
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, graph.num_edges, count)
    return graph.src[idx], graph.ts[idx]


def chronological_queries(graph, count=300):
    return graph.src[:count], graph.ts[:count]


class TestNeighborBatch:
    def test_delta_and_counts(self, small_graph, small_tcsr):
        nodes, times = query_batch(small_graph)
        nb = make_finder("gpu", small_tcsr).sample(nodes, times, 7)
        delta = nb.delta_t()
        assert np.all(delta[nb.mask] > 0)
        assert np.all(delta[~nb.mask] == 0)
        assert np.all(nb.valid_counts() == nb.mask.sum(axis=1))

    def test_frequencies_count_repeats(self):
        nb = NeighborBatch(
            root_nodes=np.array([0]), root_times=np.array([10.0]),
            nodes=np.array([[3, 3, 4, 0]]), eids=np.zeros((1, 4), dtype=np.int64),
            times=np.array([[1.0, 2.0, 3.0, 0.0]]),
            mask=np.array([[True, True, True, False]]))
        freq = nb.frequencies()
        assert freq.tolist() == [[2, 2, 1, 0]]

    def test_select_columns(self, small_graph, small_tcsr):
        nodes, times = query_batch(small_graph, 50)
        nb = make_finder("gpu", small_tcsr).sample(nodes, times, 6)
        cols = np.tile(np.array([2, 0, 1]), (nb.batch_size, 1))
        sub = nb.select(cols)
        assert sub.budget == 3
        assert np.array_equal(sub.nodes[:, 0], nb.nodes[:, 2])

    def test_check_invariants_catches_future_neighbor(self):
        nb = NeighborBatch(
            root_nodes=np.array([0]), root_times=np.array([1.0]),
            nodes=np.array([[3]]), eids=np.array([[0]]),
            times=np.array([[5.0]]), mask=np.array([[True]]))
        with pytest.raises(AssertionError):
            nb.check_invariants()


class TestFinderCorrectness:
    @pytest.mark.parametrize("kind", FINDERS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_causality_and_shapes(self, small_graph, small_tcsr, kind, policy):
        nodes, times = chronological_queries(small_graph)
        finder = make_finder(kind, small_tcsr, policy=policy, seed=0)
        nb = finder.sample(nodes, times, 8)
        nb.check_invariants()
        assert nb.nodes.shape == (nodes.size, 8)

    @pytest.mark.parametrize("kind", FINDERS)
    def test_recent_policy_equivalence(self, small_graph, small_tcsr, kind):
        """All finders must return exactly the same most-recent neighbors."""
        nodes, times = chronological_queries(small_graph)
        reference = make_finder("original", small_tcsr, policy="recent").sample(
            nodes, times, 5)
        other = make_finder(kind, small_tcsr, policy="recent").sample(nodes, times, 5)
        assert np.array_equal(reference.mask, other.mask)
        assert np.array_equal(reference.eids[reference.mask], other.eids[other.mask])

    @pytest.mark.parametrize("kind", FINDERS)
    def test_uniform_no_duplicates(self, small_graph, small_tcsr, kind):
        nodes, times = chronological_queries(small_graph)
        nb = make_finder(kind, small_tcsr, policy="uniform", seed=1).sample(nodes, times, 6)
        for i in range(nb.batch_size):
            eids = nb.eids[i][nb.mask[i]]
            assert eids.size == np.unique(eids).size

    def test_uniform_takes_all_when_few(self, small_graph, small_tcsr):
        """A node with fewer past interactions than the budget returns all of them."""
        nodes, times = chronological_queries(small_graph, 100)
        budget = 50
        nb = make_finder("gpu", small_tcsr, policy="uniform").sample(nodes, times, budget)
        counts = small_tcsr.pivots(nodes, times) - small_tcsr.indptr[nodes]
        expected = np.minimum(counts, budget)
        assert np.array_equal(nb.valid_counts(), expected)

    def test_uniform_distribution_is_uniform(self, small_graph, small_tcsr):
        """Chi-square-style check: every candidate is sampled with similar frequency."""
        deg = np.diff(small_tcsr.indptr)
        v = int(np.argmax(deg))
        t = float(small_tcsr.ts[small_tcsr.indptr[v + 1] - 1]) + 1.0
        finder = make_finder("gpu", small_tcsr, policy="uniform", seed=3)
        trials = 800
        nb = finder.sample(np.full(trials, v), np.full(trials, t), 5)
        pivot = small_tcsr.pivot(v, t)
        population = pivot - small_tcsr.indptr[v]
        counts = np.bincount(nb.eids[nb.mask], minlength=small_graph.num_edges)
        sampled_counts = counts[counts > 0]
        expected = trials * 5 / population
        # Every candidate should appear, and no candidate should dominate.
        assert (counts > 0).sum() >= 0.9 * population
        assert sampled_counts.max() < 4 * expected

    def test_inverse_timespan_prefers_recent(self, small_graph, small_tcsr):
        deg = np.diff(small_tcsr.indptr)
        v = int(np.argmax(deg))
        t = float(small_tcsr.ts[small_tcsr.indptr[v + 1] - 1]) + 1.0
        finder = make_finder("gpu", small_tcsr, policy="inverse_timespan", seed=0)
        nb = finder.sample(np.full(300, v), np.full(300, t), 5)
        uni = make_finder("gpu", small_tcsr, policy="uniform", seed=0).sample(
            np.full(300, v), np.full(300, t), 5)
        assert nb.delta_t()[nb.mask].mean() < uni.delta_t()[uni.mask].mean()

    def test_gpu_matches_original_pivots(self, small_graph, small_tcsr):
        nodes, times = query_batch(small_graph, 300, seed=5)
        gpu = GPUNeighborFinder(small_tcsr)
        pivots = gpu.batched_pivots(nodes, times)
        expected = small_tcsr.pivots(nodes, times)
        assert np.array_equal(pivots, expected)

    @pytest.mark.parametrize("drift", [0.05, -0.05])
    def test_gpu_pivots_exact_whatever_the_keys_round_to(
            self, small_graph, small_tcsr, drift):
        """Entry keys pushed late (early) land the search before (after) the
        pivot; the timestamp walk repairs either direction."""
        nodes, times = query_batch(small_graph, 300, seed=5)
        gpu = GPUNeighborFinder(small_tcsr)
        gpu._keys = gpu._keys + drift * gpu._offset
        expected = small_tcsr.pivots(nodes, times)
        raw = np.searchsorted(gpu._keys, nodes * gpu._offset
                              + (times - gpu._t_min))
        assert ((raw < expected) if drift > 0 else (raw > expected)).any()
        assert np.array_equal(gpu.batched_pivots(nodes, times), expected)

    def test_query_beyond_horizon(self, small_graph, small_tcsr):
        """Queries later than every event see the whole neighborhood."""
        t_max = small_graph.ts.max() + 100.0
        nodes = np.arange(min(20, small_graph.num_nodes))
        nb = make_finder("gpu", small_tcsr, policy="recent").sample(
            nodes, np.full(nodes.size, t_max), 4)
        degrees = np.diff(small_tcsr.indptr)[nodes]
        assert np.array_equal(nb.valid_counts(), np.minimum(degrees, 4))

    def test_cold_start_node_empty_neighborhood(self, small_graph, small_tcsr):
        """Querying at time zero returns an empty, fully-masked neighborhood."""
        nb = make_finder("gpu", small_tcsr).sample(np.array([0, 1]), np.array([0.0, 0.0]), 5)
        assert not nb.mask.any()

    def test_unknown_finder_kind(self, small_tcsr):
        with pytest.raises(ValueError):
            make_finder("cuda", small_tcsr)
        with pytest.raises(ValueError):
            make_finder("gpu", small_tcsr, policy="bogus")


class TestTGLRestrictions:
    def test_strict_mode_rejects_out_of_order_queries(self, small_graph, small_tcsr):
        finder = TGLNeighborFinder(small_tcsr, strict=True)
        v = int(small_graph.src[500])
        finder.sample(np.array([v]), np.array([small_graph.ts[500]]), 4)
        with pytest.raises(ValueError):
            finder.sample(np.array([v]), np.array([small_graph.ts[500] - 50.0]), 4)

    def test_backward_query_fallback_matches_reference(self, small_graph, small_tcsr):
        """Non-strict mode answers backward queries correctly via the slow path."""
        finder = TGLNeighborFinder(small_tcsr, policy="recent")
        ref = OriginalNeighborFinder(small_tcsr, policy="recent")
        v = int(small_graph.src[800])
        late, early = float(small_graph.ts[800]), float(small_graph.ts[800]) / 3.0
        finder.sample(np.array([v]), np.array([late]), 5)
        a = finder.sample(np.array([v]), np.array([early]), 5)
        b = ref.sample(np.array([v]), np.array([early]), 5)
        assert np.array_equal(a.eids[a.mask], b.eids[b.mask])

    def test_reset_allows_restart(self, small_graph, small_tcsr):
        finder = TGLNeighborFinder(small_tcsr)
        nodes, times = chronological_queries(small_graph, 100)
        finder.sample(nodes, times, 4)
        finder.reset()
        nb = finder.sample(nodes, times, 4)
        nb.check_invariants()

    def test_pointer_matches_binary_search(self, small_graph, small_tcsr):
        """The amortised pointer must land on the same pivot as a fresh search."""
        finder = TGLNeighborFinder(small_tcsr, policy="recent")
        ref = OriginalNeighborFinder(small_tcsr, policy="recent")
        nodes, times = chronological_queries(small_graph, 400)
        a = finder.sample(nodes, times, 6)
        b = ref.sample(nodes, times, 6)
        assert np.array_equal(a.eids[a.mask], b.eids[b.mask])


class TestMultiHop:
    def test_shapes_cascade(self, small_graph, small_tcsr):
        roots, times = query_batch(small_graph, 30)
        hops = sample_multi_hop(make_finder("gpu", small_tcsr), roots, times, [5, 3])
        assert hops[0].nodes.shape == (30, 5)
        assert hops[1].nodes.shape == (150, 3)

    def test_frontier_times_are_hop_interaction_times(self, small_graph, small_tcsr):
        roots, times = query_batch(small_graph, 20)
        hops = sample_multi_hop(make_finder("gpu", small_tcsr), roots, times, [4, 4])
        nodes, next_times = flatten_frontier(hops[0])
        assert np.array_equal(hops[1].root_times, next_times)
        # hop-2 neighbors are strictly older than the hop-1 interaction they hang off.
        hops[1].check_invariants()

    def test_padded_frontier_produces_empty_neighborhoods(self, small_graph, small_tcsr):
        roots = np.array([int(small_graph.src[0])])
        times = np.array([float(small_graph.ts[0]) + 1e-9])
        hops = sample_multi_hop(make_finder("gpu", small_tcsr), roots, times, [6, 2])
        invalid_rows = ~hops[0].mask.reshape(-1)
        assert not hops[1].mask[invalid_rows].any()


@settings(max_examples=10, deadline=None)
@given(budget=st.integers(1, 12), seed=st.integers(0, 50))
def test_property_gpu_finder_valid_sample(budget, seed):
    """For random budgets/seeds the GPU finder output always satisfies:
    causality, no duplicate event per row, and count == min(degree_before_t, budget)."""
    graph = generate_ctdg(CTDGConfig(num_src=15, num_dst=10, num_events=300, seed=3))
    tcsr = build_tcsr(graph)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, graph.num_edges, 40)
    nodes, times = graph.src[idx], graph.ts[idx]
    nb = make_finder("gpu", tcsr, policy="uniform", seed=seed).sample(nodes, times, budget)
    nb.check_invariants()
    counts = tcsr.pivots(nodes, times) - tcsr.indptr[nodes]
    assert np.array_equal(nb.valid_counts(), np.minimum(counts, budget))
    for i in range(nb.batch_size):
        eids = nb.eids[i][nb.mask[i]]
        assert eids.size == np.unique(eids).size
