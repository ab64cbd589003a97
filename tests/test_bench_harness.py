"""Tests for the benchmark harness and the runtime-breakdown tooling."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench import (VARIANTS, emit_bench_json, format_table,
                         quick_config, variant_config, run_variant,
                         system_configurations)
from repro.bench.breakdown import (BreakdownRow, normalise_runtime,
                                    per_row_targets, runtime_breakdown)
from repro.bench.finders import OriginalNeighborFinder
from repro.sampling import GPUNeighborFinder
from repro.graph import CTDGConfig, generate_ctdg


class TestHarnessConfig:
    def test_variants_cover_table1_rows(self):
        assert set(VARIANTS) == {"Baseline", "w/ Ada. Mini-Batch",
                                 "w/ Ada. Neighbor", "TASER"}

    def test_variant_config_flags(self):
        cfg = variant_config("w/ Ada. Neighbor", "tgat")
        assert not cfg.adaptive_minibatch and cfg.adaptive_neighbor
        cfg = variant_config("TASER", "graphmixer", epochs=2)
        assert cfg.adaptive_minibatch and cfg.adaptive_neighbor and cfg.epochs == 2
        with pytest.raises(ValueError):
            variant_config("TGL", "tgat")

    def test_quick_config_overrides(self):
        cfg = quick_config("tgat", hidden_dim=8, num_neighbors=3, num_candidates=6)
        assert cfg.backbone == "tgat" and cfg.hidden_dim == 8

    def test_run_variant_with_injected_graph(self):
        graph = generate_ctdg(CTDGConfig(num_src=30, num_dst=20, num_events=600,
                                         edge_dim=8, seed=1))
        result = run_variant("wikipedia", "Baseline", "graphmixer", graph=graph,
                             epochs=1, max_batches_per_epoch=2, hidden_dim=8,
                             time_dim=4, num_neighbors=3, num_candidates=6,
                             eval_max_edges=20, eval_negatives=5)
        assert result.variant == "Baseline"
        assert 0.0 <= result.test_mrr <= 1.0


class TestFormatting:
    def test_format_table_alignment_and_missing(self):
        rows = {"A": {"x": 1.0, "y": 2.0}, "B": {"x": 3.0}}
        text = format_table(rows, value_format="{:.1f}", title="T")
        assert "T" in text and "1.0" in text and "3.0" in text and "-" in text


class TestBenchJson:
    def test_emit_bench_json_writes_wrapped_record(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_OUTPUT", str(tmp_path))
        path = emit_bench_json("smoke", {"speedup": 2.0})
        assert path == tmp_path / "BENCH_smoke.json"
        record = json.loads(path.read_text())
        assert record["benchmark"] == "smoke"
        assert record["results"] == {"speedup": 2.0}
        assert "scale" in record and "unix_time" in record

    def test_no_engine_knob(self, tmp_path, monkeypatch):
        """The benchmark engine variable is gone: the record carries no
        engine key and a leftover variable configures nothing."""
        import repro.bench
        monkeypatch.setenv("REPRO_BENCH_OUTPUT", str(tmp_path))
        monkeypatch.setenv("REPRO_BENCH_ENGINE", "aot")
        record = json.loads(emit_bench_json("smoke", {}).read_text())
        assert set(record) == {"benchmark", "scale", "unix_time", "results"}
        assert quick_config("graphmixer").batch_engine == "sync"
        for gone in ("bench_engine", "engine_mode_comparison"):
            assert not hasattr(repro.bench, gone), gone


class TestBreakdown:
    def test_row_properties(self):
        row = BreakdownRow(label="x", nf=1.0, adaptive=0.5, fs=1.5, pp=1.0)
        assert row.total == pytest.approx(4.0)
        assert row.minibatch_generation_fraction == pytest.approx(2.5 / 4.0)
        assert set(row.as_dict()) == {"NF", "AS", "FS", "PP", "Total"}

    def test_normalise_runtime_adds_simulated_seconds_itself(self):
        """The measured ``FS`` is converted to device seconds and the
        modelled ``FS_sim_seconds`` added on top, nothing subtracted."""
        runtime = {"NF": 6.4, "AS": 3.2, "FS": 1.28, "FS_sim_seconds": 0.5,
                   "PP": 12.8}
        phases = normalise_runtime(runtime, GPUNeighborFinder, 64.0)
        assert phases == pytest.approx({"NF": 0.1, "AS": 0.05,
                                        "FS": 0.5 + 0.02, "PP": 0.2})
        host = normalise_runtime(runtime, OriginalNeighborFinder, 64.0)
        assert host["NF"] == 6.4

    def test_system_configurations_rows(self):
        base = quick_config("graphmixer")
        rows = system_configurations(base)
        labels = [label for label, _, _ in rows]
        assert labels == ["Baseline", "+GPU NF", "+10% Cache", "+20% Cache", "+30% Cache"]
        assert rows[0][2] is OriginalNeighborFinder and rows[0][1].cache_ratio == 0.0
        assert all(finder is GPUNeighborFinder for _, _, finder in rows[1:])
        assert rows[-1][1].cache_ratio == pytest.approx(0.3)

    def test_runtime_breakdown_scaling(self):
        graph = generate_ctdg(CTDGConfig(num_src=30, num_dst=20, num_events=600,
                                         edge_dim=8, seed=2))
        config = quick_config("graphmixer", adaptive_minibatch=False,
                              adaptive_neighbor=False, epochs=1,
                              max_batches_per_epoch=2, hidden_dim=8, time_dim=4,
                              num_neighbors=3, num_candidates=6, eval_max_edges=10)
        slow = runtime_breakdown(graph, config, "x", device_speedup=1.0)
        fast = runtime_breakdown(graph, config, "x", device_speedup=100.0)
        assert fast.pp < slow.pp
        with pytest.raises(ValueError):
            runtime_breakdown(graph, config, "x", device_speedup=0.0)

    def test_per_row_levels_keep_repeats_and_padding(self):
        """Fig. 1's original-TGAT baseline: ``per_row`` levels query every
        row, repeats and padded slots included, so they request more feature
        ids than the runtime's distinct levels and replay under the seed."""
        nodes, times = np.array([3, 1, 3]), np.array([2.0, 1.0, 2.0])
        got = per_row_targets(nodes, times)
        assert [a.tolist() for a in got] == [[3, 1, 3], [2.0, 1.0, 2.0], [0, 1, 2]]
        graph = generate_ctdg(CTDGConfig(num_src=30, num_dst=20, num_events=600,
                                         edge_dim=8, seed=2))
        config = quick_config("tgat", adaptive_minibatch=False,
                              adaptive_neighbor=False, epochs=1,
                              max_batches_per_epoch=2, hidden_dim=8, time_dim=4,
                              num_neighbors=3, num_candidates=6, eval_max_edges=10)
        distinct = runtime_breakdown(graph, config, "x")
        per_row = runtime_breakdown(graph, config, "x", per_row=True)
        assert per_row.ids_requested > distinct.ids_requested
        assert runtime_breakdown(graph, config, "x", per_row=True).loss_hash \
            == per_row.loss_hash


class TestScalingEfficiency:
    """Regression tests for the shard-scaling efficiency sanity check.

    BENCH_shard_scaling.json once recorded W=2 efficiency 1.44: the W=1
    baseline was timed first without any warm-up, so it alone paid the
    one-time numpy/allocator costs (see docs/BENCHMARKS.md, "Warm-up
    ordering").  ``attach_scaling_efficiency`` now flags any per-worker
    efficiency above 1.0 + tolerance as a mis-measured baseline.
    """

    def test_flags_superlinear_efficiency(self):
        from repro.bench import attach_scaling_efficiency
        workers = {"1": {"trained_events_per_second": 1000.0},
                   "2": {"trained_events_per_second": 2880.0}}
        violations = attach_scaling_efficiency(workers)
        assert workers["2"]["efficiency"] == pytest.approx(1.44)
        assert len(violations) == 1 and "W=2" in violations[0]
        assert "warm-up" in violations[0]

    def test_accepts_sane_scaling(self):
        from repro.bench import attach_scaling_efficiency
        workers = {"1": {"trained_events_per_second": 1000.0},
                   "2": {"trained_events_per_second": 1900.0},
                   "4": {"trained_events_per_second": 3000.0}}
        assert attach_scaling_efficiency(workers) == []
        assert workers["1"]["efficiency"] == pytest.approx(1.0)
        assert workers["2"]["speedup_vs_w1"] == pytest.approx(1.9)
        assert workers["4"]["efficiency"] == pytest.approx(0.75)

    def test_tolerance_boundary(self):
        from repro.bench import EFFICIENCY_TOLERANCE, attach_scaling_efficiency
        at_edge = 2.0 * (1.0 + EFFICIENCY_TOLERANCE)
        workers = {"1": {"trained_events_per_second": 1.0},
                   "2": {"trained_events_per_second": at_edge}}
        assert attach_scaling_efficiency(workers) == []
        workers = {"1": {"trained_events_per_second": 1.0},
                   "2": {"trained_events_per_second": at_edge * 1.01}}
        assert len(attach_scaling_efficiency(workers)) == 1

    def test_requires_w1_baseline(self):
        from repro.bench import attach_scaling_efficiency
        with pytest.raises(ValueError, match="W=1 baseline"):
            attach_scaling_efficiency(
                {"2": {"trained_events_per_second": 5.0}})


class TestBenchHistory:
    """``BENCH_history.jsonl``: one line of e2e headline medians per PR."""

    def test_lines_parse_and_name_only_catalogued_metrics(self):
        root = Path(__file__).resolve().parent.parent
        catalogue = json.loads((root / "BENCHMARK.json").read_text())
        workloads = {w["name"] for w in catalogue["workloads"]}
        metrics = {m["name"] for m in catalogue["end_to_end"]}
        lines = (root / "BENCH_history.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert records and all(line.strip() for line in lines)
        prs = [record["pr"] for record in records]
        assert prs == sorted(set(prs)), "one line per PR, in PR order"
        for record in records:
            assert record["source"] and record["what"]
            # ``parent``, when present, holds the same day's parent-side
            # medians in the schema of ``workloads``: a within-day ratio
            # needs both sides.
            for side in ("workloads", "parent"):
                if side == "parent" and side not in record:
                    continue
                assert record[side] and set(record[side]) <= workloads
                for medians in record[side].values():
                    assert medians and set(medians) <= metrics
                    assert all(isinstance(v, (int, float)) and v > 0
                               for v in medians.values())
            if "parent" in record:
                assert set(record["parent"]) == set(record["workloads"])
