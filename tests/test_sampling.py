"""Tests for the neighbor finder, its two baseline fixtures and multi-hop
expansion."""

import dataclasses
import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
import repro.sampling
from repro import cli
from repro.bench import quick_config
from repro.bench.breakdown import runtime_breakdown
from repro.bench.finders import OriginalNeighborFinder, TGLNeighborFinder
from repro.core import AdaptiveMiniBatchSelector, ChronologicalSelector, TaserConfig
from repro.core.minibatch_selector import MiniBatchSelector
from repro.graph import build_tcsr, CTDGConfig, generate_ctdg, load_dataset
from repro.sampling import (GPUNeighborFinder, sample_multi_hop, flatten_frontier,
                            NeighborBatch)

FINDERS = {"original": OriginalNeighborFinder, "tgl": TGLNeighborFinder,
           "gpu": GPUNeighborFinder}
POLICIES = ["uniform", "recent"]


def query_batch(graph, count=200, seed=0):
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, graph.num_edges, count)
    return graph.src[idx], graph.ts[idx]


def chronological_queries(graph, count=300):
    return graph.src[:count], graph.ts[:count]


def scalar_pivots(tcsr, nodes, times):
    """The reference: one scalar ``TCSR.pivot`` per query."""
    return np.array([tcsr.pivot(int(v), float(t)) for v, t in zip(nodes, times)],
                    dtype=np.int64)


class TestNeighborBatch:
    def test_delta_and_counts(self, small_graph, small_tcsr):
        nodes, times = query_batch(small_graph)
        nb = GPUNeighborFinder(small_tcsr).sample(nodes, times, 7, np.random.default_rng(0))
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
        nb = GPUNeighborFinder(small_tcsr).sample(nodes, times, 6, np.random.default_rng(0))
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
        finder = FINDERS[kind](small_tcsr, policy=policy)
        nb = finder.sample(nodes, times, 8, np.random.default_rng(0))
        nb.check_invariants()
        assert nb.nodes.shape == (nodes.size, 8)

    @pytest.mark.parametrize("kind", FINDERS)
    def test_recent_policy_equivalence(self, small_graph, small_tcsr, kind):
        """All finders must return exactly the same most-recent neighbors."""
        nodes, times = chronological_queries(small_graph)
        reference = OriginalNeighborFinder(small_tcsr, policy="recent").sample(
            nodes, times, 5, np.random.default_rng(0))
        other = FINDERS[kind](small_tcsr, policy="recent").sample(
            nodes, times, 5, np.random.default_rng(0))
        assert np.array_equal(reference.mask, other.mask)
        assert np.array_equal(reference.eids[reference.mask], other.eids[other.mask])

    @pytest.mark.parametrize("kind", FINDERS)
    def test_uniform_no_duplicates(self, small_graph, small_tcsr, kind):
        nodes, times = chronological_queries(small_graph)
        nb = FINDERS[kind](small_tcsr, policy="uniform").sample(
            nodes, times, 6, np.random.default_rng(1))
        for i in range(nb.batch_size):
            eids = nb.eids[i][nb.mask[i]]
            assert eids.size == np.unique(eids).size

    def test_uniform_takes_all_when_few(self, small_graph, small_tcsr):
        """A node with fewer past interactions than the budget returns all of them."""
        nodes, times = chronological_queries(small_graph, 100)
        budget = 50
        nb = GPUNeighborFinder(small_tcsr, policy="uniform").sample(
            nodes, times, budget, np.random.default_rng(0))
        counts = small_tcsr.pivots(nodes, times) - small_tcsr.indptr[nodes]
        expected = np.minimum(counts, budget)
        assert np.array_equal(nb.valid_counts(), expected)

    def test_uniform_distribution_is_uniform(self, small_graph, small_tcsr):
        """Chi-square-style check: every candidate is sampled with similar frequency."""
        deg = np.diff(small_tcsr.indptr)
        v = int(np.argmax(deg))
        t = float(small_tcsr.ts[small_tcsr.indptr[v + 1] - 1]) + 1.0
        finder = GPUNeighborFinder(small_tcsr, policy="uniform")
        trials = 800
        nb = finder.sample(np.full(trials, v), np.full(trials, t), 5,
                           np.random.default_rng(3))
        pivot = small_tcsr.pivot(v, t)
        population = pivot - small_tcsr.indptr[v]
        counts = np.bincount(nb.eids[nb.mask], minlength=small_graph.num_edges)
        sampled_counts = counts[counts > 0]
        expected = trials * 5 / population
        # Every candidate should appear, and no candidate should dominate.
        assert (counts > 0).sum() >= 0.9 * population
        assert sampled_counts.max() < 4 * expected

    def test_gpu_matches_original_pivots(self, small_graph, small_tcsr):
        nodes, times = query_batch(small_graph, 300, seed=5)
        assert np.array_equal(small_tcsr.pivots(nodes, times),
                              scalar_pivots(small_tcsr, nodes, times))

    @pytest.mark.parametrize("drift", [0.05, -0.05])
    def test_gpu_pivots_exact_whatever_the_keys_round_to(
            self, small_graph, small_tcsr, drift):
        """Entry keys pushed late (early) land the search before (after) the
        pivot; the timestamp walk repairs either direction."""
        nodes, times = query_batch(small_graph, 300, seed=5)
        tcsr = dataclasses.replace(small_tcsr)
        tcsr._keys = tcsr._keys + drift * tcsr._offset
        expected = scalar_pivots(small_tcsr, nodes, times)
        raw = np.searchsorted(tcsr._keys, nodes * tcsr._offset
                              + (times - tcsr._t_min))
        assert ((raw < expected) if drift > 0 else (raw > expected)).any()
        assert np.array_equal(tcsr.pivots(nodes, times), expected)

    def test_finder_bytes_per_entry(self):
        """Bytes a finder over wikipedia x1.0 holds beyond ``indptr``, and its
        traced construction peak, per T-CSR entry: 40.0 held when the finder
        kept its own node and key arrays beside the T-CSR."""
        graph = load_dataset("wikipedia", scale=1.0, seed=0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            finder = GPUNeighborFinder(build_tcsr(graph))
            held, peak = (b - base for b in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        entries = finder.tcsr.num_entries
        held_per_entry = (held - finder.tcsr.indptr.nbytes) / entries
        assert held_per_entry <= 36, f"{held_per_entry:.1f} B per entry held"
        assert peak / entries <= 65, f"{peak / entries:.1f} B per entry at peak"

    def test_query_beyond_horizon(self, small_graph, small_tcsr):
        """Queries later than every event see the whole neighborhood."""
        t_max = small_graph.ts.max() + 100.0
        nodes = np.arange(min(20, small_graph.num_nodes))
        nb = GPUNeighborFinder(small_tcsr, policy="recent").sample(
            nodes, np.full(nodes.size, t_max), 4, np.random.default_rng(0))
        degrees = np.diff(small_tcsr.indptr)[nodes]
        assert np.array_equal(nb.valid_counts(), np.minimum(degrees, 4))

    def test_cold_start_node_empty_neighborhood(self, small_graph, small_tcsr):
        """Querying at time zero returns an empty, fully-masked neighborhood."""
        nb = GPUNeighborFinder(small_tcsr).sample(np.array([0, 1]), np.array([0.0, 0.0]),
                                                  5, np.random.default_rng(0))
        assert not nb.mask.any()

    def test_unknown_finder_kind(self, small_tcsr):
        with pytest.raises(ValueError):
            TaserConfig(finder="cuda")
        for policy in ("bogus", "inverse_timespan"):
            with pytest.raises(ValueError):
                GPUNeighborFinder(small_tcsr, policy=policy)


class TestTGLRestrictions:
    def test_strict_mode_rejects_out_of_order_queries(self, small_graph, small_tcsr):
        finder = TGLNeighborFinder(small_tcsr, strict=True)
        v = int(small_graph.src[500])
        rng = np.random.default_rng(0)
        finder.sample(np.array([v]), np.array([small_graph.ts[500]]), 4, rng)
        with pytest.raises(ValueError):
            finder.sample(np.array([v]), np.array([small_graph.ts[500] - 50.0]), 4, rng)

    def test_backward_query_fallback_matches_reference(self, small_graph, small_tcsr):
        """Non-strict mode answers backward queries correctly via the slow path."""
        finder = TGLNeighborFinder(small_tcsr, policy="recent")
        ref = OriginalNeighborFinder(small_tcsr, policy="recent")
        v = int(small_graph.src[800])
        late, early = float(small_graph.ts[800]), float(small_graph.ts[800]) / 3.0
        rng = np.random.default_rng(0)
        finder.sample(np.array([v]), np.array([late]), 5, rng)
        a = finder.sample(np.array([v]), np.array([early]), 5, rng)
        b = ref.sample(np.array([v]), np.array([early]), 5, rng)
        assert np.array_equal(a.eids[a.mask], b.eids[b.mask])

    def test_reset_allows_restart(self, small_graph, small_tcsr):
        finder = TGLNeighborFinder(small_tcsr)
        nodes, times = chronological_queries(small_graph, 100)
        rng = np.random.default_rng(0)
        finder.sample(nodes, times, 4, rng)
        finder.reset()
        nb = finder.sample(nodes, times, 4, rng)
        nb.check_invariants()

    def test_pointer_matches_binary_search(self, small_graph, small_tcsr):
        """The amortised pointer must land on the same pivot as a fresh search."""
        finder = TGLNeighborFinder(small_tcsr, policy="recent")
        ref = OriginalNeighborFinder(small_tcsr, policy="recent")
        nodes, times = chronological_queries(small_graph, 400)
        rng = np.random.default_rng(0)
        a = finder.sample(nodes, times, 6, rng)
        b = ref.sample(nodes, times, 6, rng)
        assert np.array_equal(a.eids[a.mask], b.eids[b.mask])


class TestMultiHop:
    def test_shapes_cascade(self, small_graph, small_tcsr):
        roots, times = query_batch(small_graph, 30)
        hops = sample_multi_hop(GPUNeighborFinder(small_tcsr), roots, times, [5, 3],
                                np.random.default_rng(0))
        assert hops[0].nodes.shape == (30, 5)
        assert hops[1].nodes.shape == (150, 3)

    def test_frontier_times_are_hop_interaction_times(self, small_graph, small_tcsr):
        roots, times = query_batch(small_graph, 20)
        hops = sample_multi_hop(GPUNeighborFinder(small_tcsr), roots, times, [4, 4],
                                np.random.default_rng(0))
        nodes, next_times = flatten_frontier(hops[0])
        assert np.array_equal(hops[1].root_times, next_times)
        # hop-2 neighbors are strictly older than the hop-1 interaction they hang off.
        hops[1].check_invariants()

    def test_padded_frontier_produces_empty_neighborhoods(self, small_graph, small_tcsr):
        roots = np.array([int(small_graph.src[0])])
        times = np.array([float(small_graph.ts[0]) + 1e-9])
        hops = sample_multi_hop(GPUNeighborFinder(small_tcsr), roots, times, [6, 2],
                                np.random.default_rng(0))
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
    nb = GPUNeighborFinder(tcsr, policy="uniform").sample(nodes, times, budget,
                                                           np.random.default_rng(seed))
    nb.check_invariants()
    counts = tcsr.pivots(nodes, times) - tcsr.indptr[nodes]
    assert np.array_equal(nb.valid_counts(), np.minimum(counts, budget))
    for i in range(nb.batch_size):
        eids = nb.eids[i][nb.mask[i]]
        assert eids.size == np.unique(eids).size


class TestOneFinder:
    """TASER's block-centric finder is the runtime's only finder; the
    paper's two baselines are benchmark fixtures, and the factory, flags and
    chronological-order plumbing that served them are gone."""

    def test_packages_export_no_baseline_finder(self):
        for module in (repro, repro.sampling):
            for gone in ("make_finder", "TGLNeighborFinder",
                         "OriginalNeighborFinder"):
                assert not hasattr(module, gone), (module.__name__, gone)
                assert gone not in module.__all__

    def test_no_chronological_order_members(self):
        from repro.sampling import NeighborFinder
        for gone in ("requires_chronological", "reset", "name"):
            assert not hasattr(NeighborFinder, gone), gone
            assert not hasattr(GPUNeighborFinder, gone), gone
        for selector in (MiniBatchSelector, ChronologicalSelector,
                         AdaptiveMiniBatchSelector):
            for gone in ("requires_chronological",
                         "requires_chronological_finder"):
                assert not hasattr(selector, gone), (selector.__name__, gone)

    def test_baseline_finder_config_rejected_naming_only_gpu(self):
        for gone in ("tgl", "original"):
            with pytest.raises(ValueError, match="'gpu' is the only") as info:
                TaserConfig(finder=gone, adaptive_minibatch=False)
            assert gone not in str(info.value).replace(f"'{gone}'", "", 1)
        assert TaserConfig().finder == "gpu"

    def test_finder_flag_is_gone(self, capsys):
        for command in ("train", "stream", "serve"):
            with pytest.raises(SystemExit) as info:
                cli.build_parser().parse_args([command, "--finder", "gpu"])
            assert info.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_engine_takes_no_finder(self):
        from repro.serve import ServeEngine
        params = inspect.signature(ServeEngine.__init__).parameters
        assert "finder" not in params and "finder_policy" in params

    def test_breakdown_row_runs_the_injected_finder(self, small_graph):
        """A row replays under its injected finder and differs from the
        default finder's row, so a swap that is lost cannot pass."""
        config = quick_config("graphmixer", finder_policy="uniform",
                              adaptive_minibatch=False, adaptive_neighbor=False,
                              epochs=1, max_batches_per_epoch=2, hidden_dim=8,
                              time_dim=4, num_neighbors=3, num_candidates=3,
                              eval_max_edges=10)

        def row_hash(**finder):
            return runtime_breakdown(small_graph, config, "x", **finder).loss_hash
        original = row_hash(finder=OriginalNeighborFinder)
        assert row_hash(finder=OriginalNeighborFinder) == original
        assert row_hash() == row_hash(finder=GPUNeighborFinder) != original
