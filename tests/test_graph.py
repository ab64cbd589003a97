"""Tests for the temporal graph container, T-CSR, splits and noise utilities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import (TemporalGraph, build_tcsr, chronological_split, CTDGConfig,
                         generate_ctdg, measure_noise, inject_random_edges,
                         perturb_edge_features, drop_events, load_dataset,
                         dataset_config, dataset_table, DATASET_NAMES)
from repro.graph.tcsr import TCSR
from repro.sampling import GPUNeighborFinder, OriginalNeighborFinder


def tiny_graph():
    return TemporalGraph(
        src=np.array([0, 1, 0, 2, 1]),
        dst=np.array([1, 2, 2, 0, 0]),
        ts=np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
        num_nodes=3,
        edge_feat=np.arange(10, dtype=np.float32).reshape(5, 2),
    )


class TestTemporalGraph:
    def test_basic_properties(self):
        g = tiny_graph()
        assert g.num_edges == 5
        assert g.edge_dim == 2 and g.node_dim == 0
        assert g.is_chronological
        assert len(g) == 5

    def test_validation_shape_mismatch(self):
        with pytest.raises(ValueError):
            TemporalGraph(src=np.array([0]), dst=np.array([1, 2]),
                          ts=np.array([0.0]), num_nodes=3)

    def test_validation_node_id_range(self):
        with pytest.raises(ValueError):
            TemporalGraph(src=np.array([5]), dst=np.array([0]),
                          ts=np.array([0.0]), num_nodes=3)

    def test_validation_edge_feat_rows(self):
        with pytest.raises(ValueError):
            TemporalGraph(src=np.array([0]), dst=np.array([1]), ts=np.array([0.0]),
                          num_nodes=2, edge_feat=np.zeros((2, 3), dtype=np.float32))

    def test_sort_by_time(self):
        g = TemporalGraph(src=np.array([0, 1]), dst=np.array([1, 0]),
                          ts=np.array([5.0, 1.0]), num_nodes=2)
        assert not g.is_chronological
        s = g.sort_by_time()
        assert s.is_chronological
        assert s.src[0] == 1

    def test_time_slice_and_latest(self):
        g = tiny_graph()
        assert g.time_slice(2.0, 4.0).num_edges == 2
        assert g.latest_events(2).num_edges == 2
        assert g.latest_events(100).num_edges == 5

    def test_select_events_keeps_features(self):
        g = tiny_graph()
        sub = g.select_events(np.array([0, 2]))
        assert sub.num_edges == 2
        assert np.allclose(sub.edge_feat, g.edge_feat[[0, 2]])

    def test_degree_and_repeat(self):
        g = tiny_graph()
        deg = g.degree_counts()
        assert deg.sum() == 2 * g.num_edges
        # (0,2) appears once, (0,1)... no repeated (src,dst) pairs here.
        assert g.repeat_ratio() == 0.0

    def test_statistics_keys(self):
        stats = tiny_graph().statistics()
        assert {"num_nodes", "num_edges", "edge_dim", "node_dim",
                "repeat_ratio", "max_degree"} <= set(stats)


class TestTCSR:
    def test_invariants(self, small_tcsr):
        small_tcsr.check_invariants()

    def test_bidirectional_entry_count(self, small_graph, small_tcsr):
        assert small_tcsr.num_entries == 2 * small_graph.num_edges

    def test_neighborhood_views_sorted(self, small_tcsr):
        for node in range(0, small_tcsr.num_nodes, 7):
            _, _, ts = small_tcsr.neighborhood(node)
            assert np.all(np.diff(ts) >= 0)

    def test_pivot_counts_past_only(self, small_graph, small_tcsr):
        g, tcsr = small_graph, small_tcsr
        v = int(g.src[100])
        t = float(g.ts[100])
        pivot = tcsr.pivot(v, t)
        _, _, ts = tcsr.neighborhood(v)
        lo = tcsr.indptr[v]
        local = pivot - lo
        assert np.all(ts[:local] < t)
        assert local == ts.size or ts[local] >= t

    def test_pivots_batch_matches_scalar(self, small_graph, small_tcsr):
        nodes = small_graph.src[:50]
        times = small_graph.ts[:50]
        batch = small_tcsr.pivots(nodes, times)
        scalar = np.array([small_tcsr.pivot(int(v), float(t))
                           for v, t in zip(nodes, times)])
        assert np.array_equal(batch, scalar)

    def test_no_reverse_option(self, small_graph):
        tcsr = build_tcsr(small_graph, add_reverse=False)
        tcsr.check_invariants()
        assert tcsr.num_entries == small_graph.num_edges

    def test_eid_maps_to_original_edge(self, small_graph, small_tcsr):
        nbr, eid, ts = small_tcsr.neighborhood(int(small_graph.src[0]))
        assert np.all((small_graph.ts[eid] == ts))


# -------------------------------------------------- duplicate-heavy T-CSRs

def _tcsr_from_events(num_nodes, events):
    """Build a (single-direction) TCSR from (node, ts) event pairs."""
    events = sorted(enumerate(events), key=lambda e: (e[1][0], e[1][1], e[0]))
    per_node = {}
    for eid, (node, ts) in events:
        per_node.setdefault(node, []).append((ts, eid))
    indptr = [0]
    indices, eids, tss = [], [], []
    for v in range(num_nodes):
        for ts, eid in per_node.get(v, ()):
            indices.append((v + 1) % num_nodes)
            eids.append(eid)
            tss.append(ts)
        indptr.append(len(indices))
    return TCSR(indptr=np.asarray(indptr), indices=np.asarray(indices),
                eid=np.asarray(eids), ts=np.asarray(tss, dtype=np.float64),
                num_nodes=num_nodes)


def _assert_gpu_finder_exact(tcsr, nodes, times, budget):
    """The default finder's float-key search lands on the exact pivots, and
    under ``recent`` its batches equal the per-query finder's bitwise."""
    nodes = np.asarray(nodes, dtype=np.int64)
    times = np.asarray(times, dtype=np.float64)
    gpu = GPUNeighborFinder(tcsr, policy="recent")
    np.testing.assert_array_equal(gpu.batched_pivots(nodes, times),
                                  tcsr.pivots(nodes, times))
    got = gpu.sample(nodes, times, budget)
    want = OriginalNeighborFinder(tcsr, policy="recent").sample(nodes, times,
                                                                budget)
    for field in ("nodes", "eids", "times", "mask"):
        np.testing.assert_array_equal(getattr(got, field),
                                      getattr(want, field), err_msg=field)
    return got


# Few distinct timestamps over many events -> heavy duplication, the case a
# float composite key can get wrong and the rank-based key must get right.
dup_events = st.lists(
    st.tuples(st.integers(0, 7), st.sampled_from([0.0, 1.0, 1.0 + 2**-40,
                                                  2.0, 5.0, 5.0, 9.0])),
    min_size=0, max_size=60)
query_times = st.sampled_from([0.0, 1.0, 1.0 + 2**-40, 2.0, 3.5, 5.0, 9.0,
                               100.0])
dup_queries = st.lists(st.tuples(st.integers(0, 7), query_times),
                       min_size=1, max_size=20)


class TestBatchedPivots:
    @given(dup_events, dup_queries)
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

    # Node ids offset by 10^4 push ``node * offset`` past the point where its
    # ulp exceeds the 2^-40 timestamp gap, so the float key is really stressed.
    @given(st.sampled_from([0, 10**4]), dup_events, dup_queries,
           st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_gpu_finder_matches_exact_pivots(self, shift, events, queries,
                                             budget):
        tcsr = _tcsr_from_events(shift + 8,
                                 [(shift + v, t) for v, t in events])
        _assert_gpu_finder_exact(tcsr, [shift + q[0] for q in queries],
                                 [q[1] for q in queries], budget)

    def test_gpu_finder_keeps_history_behind_large_node_ids(self):
        t = 1.0 + 2**-40
        tcsr = _tcsr_from_events(
            2000, [(1500, 0.0), (1500, 1.0), (1500, t), (1500, 9.0)])
        got = _assert_gpu_finder_exact(tcsr, [1500], [t], 3)
        assert got.mask.tolist() == [[True, True, False]]

    def test_gpu_finder_keeps_history_at_epoch_second_timestamps(self):
        # A ten-year log over 10^5 nodes: millisecond gaps fall below the
        # key's ulp (2^-8 s at 3e13).
        t0, node = 1.6e9, 10**5 - 1
        tcsr = _tcsr_from_events(
            10**5, [(0, t0 - 3e8),
                    (node, t0), (node, t0 + .001), (node, t0 + .002)])
        times = [t0 + .001, t0 + .002, t0 + .003]
        got = _assert_gpu_finder_exact(tcsr, [node] * 3, times, 3)
        assert got.valid_counts().tolist() == [1, 2, 3]


class TestSplits:
    def test_ratios(self, small_graph):
        split = chronological_split(small_graph, 0.6, 0.2)
        split.check_invariants()
        total = split.num_train + split.num_val + split.num_test
        assert total == small_graph.num_edges
        assert abs(split.num_train / total - 0.6) < 0.02

    def test_chronological_ordering(self, small_split):
        g = small_split.graph
        assert g.ts[small_split.train_idx].max() <= g.ts[small_split.test_idx].min()

    def test_max_events_cap(self, small_graph):
        split = chronological_split(small_graph, 0.6, 0.2, max_events=500)
        assert split.num_train + split.num_val + split.num_test == 500
        # history before the cap stays in the graph
        assert split.graph.num_edges == small_graph.num_edges

    def test_invalid_ratios(self, small_graph):
        with pytest.raises(ValueError):
            chronological_split(small_graph, 0.8, 0.3)
        with pytest.raises(ValueError):
            chronological_split(small_graph, 0.0, 0.2)


class TestGenerators:
    def test_determinism(self):
        cfg = CTDGConfig(num_src=20, num_dst=10, num_events=300, seed=5)
        g1, g2 = generate_ctdg(cfg), generate_ctdg(cfg)
        assert np.array_equal(g1.src, g2.src)
        assert np.array_equal(g1.ts, g2.ts)
        assert np.allclose(g1.edge_feat, g2.edge_feat)

    def test_chronological_output(self, small_graph):
        assert small_graph.is_chronological

    def test_bipartite_partition_respected(self, small_graph):
        n_src = small_graph.meta["num_src"]
        assert small_graph.src.max() < n_src
        assert small_graph.dst.min() >= n_src

    def test_noise_fraction_close_to_config(self):
        cfg = CTDGConfig(num_src=50, num_dst=30, num_events=4000, noise_prob=0.3,
                         repeat_prob=0.0, seed=2)
        g = generate_ctdg(cfg)
        frac = measure_noise(g).noise_edge_fraction
        assert abs(frac - 0.3) < 0.05

    def test_drift_creates_stale_edges(self):
        cfg = CTDGConfig(num_src=50, num_dst=30, num_events=3000, drift_fraction=1.0,
                         noise_prob=0.0, repeat_prob=0.5, seed=3)
        report = measure_noise(generate_ctdg(cfg))
        assert report.stale_edge_fraction > 0.05

    def test_repeat_prob_increases_repeat_ratio(self):
        low = generate_ctdg(CTDGConfig(num_src=40, num_dst=40, num_events=2000,
                                       repeat_prob=0.0, seed=4)).repeat_ratio()
        high = generate_ctdg(CTDGConfig(num_src=40, num_dst=40, num_events=2000,
                                        repeat_prob=0.7, seed=4)).repeat_ratio()
        assert high > low

    def test_unipartite_no_node_split(self, featured_graph):
        assert not featured_graph.meta["bipartite"]
        assert featured_graph.node_feat is not None
        assert featured_graph.node_feat.shape == (featured_graph.num_nodes,
                                                  featured_graph.node_dim)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CTDGConfig(num_src=1)
        with pytest.raises(ValueError):
            CTDGConfig(noise_prob=2.0)

    def test_activity_skew_gini(self):
        flat = generate_ctdg(CTDGConfig(num_src=60, num_dst=30, num_events=3000,
                                        activity_skew=0.1, seed=5))
        skewed = generate_ctdg(CTDGConfig(num_src=60, num_dst=30, num_events=3000,
                                          activity_skew=1.8, seed=5))
        assert measure_noise(skewed).degree_gini > measure_noise(flat).degree_gini


class TestDatasets:
    def test_all_presets_load(self):
        for name in DATASET_NAMES:
            cfg = dataset_config(name, scale=0.05)
            assert cfg.name == name
        g = load_dataset("wikipedia", scale=0.05)
        assert g.num_edges > 0

    def test_table2_profile(self):
        table = dataset_table(scale=0.05)
        assert set(table) == set(DATASET_NAMES)
        # Feature-presence profile matches the paper's Table II.
        assert table["wikipedia"]["node_dim"] == 0 and table["wikipedia"]["edge_dim"] > 0
        assert table["flights"]["edge_dim"] == 0 and table["flights"]["node_dim"] > 0
        assert table["gdelt"]["edge_dim"] > 0 and table["gdelt"]["node_dim"] > 0
        # Relative sizes increase along the paper's ordering.
        assert table["wikipedia"]["num_edges"] < table["reddit"]["num_edges"] \
            < table["gdelt"]["num_edges"]

    def test_unknown_dataset(self):
        with pytest.raises(ValueError):
            dataset_config("imaginary")
        with pytest.raises(ValueError):
            dataset_config("wikipedia", scale=0)

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_scale_multiplies_event_counts_linearly(self, name):
        base = dataset_config(name, scale=1.0).num_events
        for scale in (0.1, 0.5, 2.0):
            cfg = dataset_config(name, scale=scale)
            assert cfg.num_events == int(base * scale)
            g = generate_ctdg(cfg)
            assert g.num_edges == cfg.num_events

    @pytest.mark.parametrize("scale", [0.05, 0.5, 2.0])
    def test_scaled_presets_split_validly(self, scale):
        for name in ("wikipedia", "flights"):
            g = load_dataset(name, scale=scale, seed=1)
            split = chronological_split(g)
            split.check_invariants()
            assert split.num_train + split.num_val + split.num_test == g.num_edges
            assert split.num_train > 0 and split.num_test > 0

    def test_scale_grows_node_counts_sublinearly(self):
        small = load_dataset("wikipedia", scale=0.25, seed=0)
        large = load_dataset("wikipedia", scale=4.0, seed=0)
        # Nodes follow sqrt(scale): a 16x event gap is a ~4x node gap, so
        # density (events per node) grows with scale, as in real graphs.
        assert large.num_nodes < 16 * small.num_nodes
        assert large.num_edges / large.num_nodes > small.num_edges / small.num_nodes


class TestNoiseInjection:
    def test_inject_random_edges(self, small_graph):
        noisy = inject_random_edges(small_graph, 0.5, seed=1)
        assert noisy.num_edges == int(round(1.5 * small_graph.num_edges))
        assert noisy.is_chronological
        assert noisy.edge_feat.shape[0] == noisy.num_edges
        # the injected events are flagged
        assert noisy.meta["event_is_noise"].sum() > small_graph.meta["event_is_noise"].sum()

    def test_inject_zero_fraction_is_identity(self, small_graph):
        assert inject_random_edges(small_graph, 0.0) is small_graph

    def test_perturb_edge_features(self, small_graph):
        noisy = perturb_edge_features(small_graph, 1.0, seed=2)
        assert not np.allclose(noisy.edge_feat, small_graph.edge_feat)
        assert np.array_equal(noisy.src, small_graph.src)

    def test_perturb_requires_features(self):
        g = TemporalGraph(src=np.array([0]), dst=np.array([1]), ts=np.array([0.0]),
                          num_nodes=2)
        with pytest.raises(ValueError):
            perturb_edge_features(g, 1.0)

    def test_drop_events(self, small_graph):
        dropped = drop_events(small_graph, 0.3, seed=3)
        assert dropped.num_edges < small_graph.num_edges
        with pytest.raises(ValueError):
            drop_events(small_graph, 1.0)
