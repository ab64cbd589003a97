"""Tests for graph serialisation and the command-line experiment runner."""

import inspect
import json
import re

import numpy as np
import pytest

from repro import cli
from repro.cli import build_parser, main, run
from repro.graph import CTDGConfig, generate_ctdg
from repro.graph.io import save_graph, load_graph


class TestGraphIO:
    def test_roundtrip_preserves_events_and_features(self, tmp_path, small_graph):
        path = save_graph(small_graph, tmp_path / "graph")
        assert path.suffix == ".npz"
        loaded = load_graph(path)
        assert loaded.num_nodes == small_graph.num_nodes
        assert np.array_equal(loaded.src, small_graph.src)
        assert np.array_equal(loaded.dst, small_graph.dst)
        assert np.allclose(loaded.ts, small_graph.ts)
        assert np.allclose(loaded.edge_feat, small_graph.edge_feat)

    def test_roundtrip_preserves_planted_metadata(self, tmp_path, small_graph):
        loaded = load_graph(save_graph(small_graph, tmp_path / "meta.npz"))
        assert np.array_equal(loaded.meta["event_is_noise"],
                              small_graph.meta["event_is_noise"])
        assert loaded.meta["bipartite"] == small_graph.meta["bipartite"]
        assert isinstance(loaded.meta["config"], CTDGConfig)
        assert loaded.meta["config"].num_events == small_graph.meta["config"].num_events

    def test_roundtrip_node_features(self, tmp_path, featured_graph):
        loaded = load_graph(save_graph(featured_graph, tmp_path / "feat.npz"))
        assert np.allclose(loaded.node_feat, featured_graph.node_feat)

    def test_graph_without_edge_features(self, tmp_path):
        g = generate_ctdg(CTDGConfig(num_src=10, num_dst=5, num_events=50,
                                     edge_dim=0, node_dim=4, seed=0))
        loaded = load_graph(save_graph(g, tmp_path / "noedge.npz"))
        assert loaded.edge_feat is None
        assert loaded.node_feat is not None


class TestCLI:
    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.dataset == "wikipedia"
        assert args.variant == "taser"

    def test_parser_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--dataset", "imaginary"])

    def test_run_baseline_tiny(self):
        args = build_parser().parse_args([
            "--dataset", "wikipedia", "--scale", "0.05",
            "--backbone", "graphmixer", "--variant", "baseline",
            "--epochs", "1", "--max-batches-per-epoch", "2",
            "--hidden-dim", "8", "--time-dim", "4",
            "--num-neighbors", "3", "--num-candidates", "6",
            "--eval-max-edges", "20", "--eval-negatives", "5",
        ])
        summary = run(args)
        assert summary["variant"] == "Baseline"
        assert 0.0 <= summary["test_mrr"] <= 1.0
        assert "PP" in summary["runtime_breakdown_seconds"]

    @pytest.mark.parametrize("build, readers", [
        (cli.build_parser, (cli.run, cli._taser_config, cli.main)),
        (cli.build_train_parser,
         (cli.run_train, cli._taser_config, cli._train_main)),
        (cli.build_stream_parser, (cli.run_stream, cli._stream_main)),
        (cli.build_serve_parser, (cli.run_serve, cli._serve_main)),
    ], ids=["default", "train", "stream", "serve"])
    def test_no_dead_flags(self, build, readers):
        """Every flag a parser accepts is read as ``args.<dest>`` by that
        command's run function, ``_model_config`` (which every command
        calls), ``_taser_config`` where the command calls it, or its
        ``main``; an accepted flag nothing reads is silently ignored."""
        code = "\n".join(inspect.getsource(fn)
                         for fn in readers + (cli._model_config,))
        dead = [action.dest for action in build()._actions
                if action.dest != "help"
                and not re.search(rf"\bargs\.{action.dest}\b", code)]
        assert dead == []

    def test_batch_engine_flag_plumbing(self, capsys):
        """``--batch-engine`` is gone from both training parsers, with every
        value it ever took, and no summary reports an engine."""
        for build in (build_parser, cli.build_train_parser):
            for gone in (["--batch-engine", "sync"], ["--batch-engine", "aot"],
                         ["--batch-engine", "prefetch"],
                         ["--prefetch-depth", "3"], ["--prep-pool-workers", "1"],
                         ["--prep-cache-mb", "64"], ["--prep-backend", "fused"],
                         ["--precision", "fp16"]):
                with pytest.raises(SystemExit) as info:
                    build().parse_args(gone)
                assert info.value.code == 2
                assert "unrecognized arguments" in capsys.readouterr().err
        assert "batch_engine" not in vars(build_parser().parse_args([]))
        for fn in (cli.run, cli.run_train, cli.run_stream, cli.main,
                   cli._train_main, cli._stream_main):
            assert "batch_engine" not in inspect.getsource(fn)

    @pytest.mark.parametrize("flag", ["--hidden-dim", "--time-dim",
                                      "--num-neighbors", "--num-candidates",
                                      "--batch-size", "--eval-negatives"])
    def test_model_size_flag_of_zero_rejected_at_parse_time(self, flag,
                                                            capsys):
        for build in (build_parser, cli.build_train_parser,
                      cli.build_stream_parser, cli.build_serve_parser):
            if flag not in build()._option_string_actions:
                continue
            with pytest.raises(SystemExit) as info:
                build().parse_args([flag, "0"])
            assert info.value.code == 2
            assert "must be >= 1" in capsys.readouterr().err

    def test_config_rejects_bad_engine_settings_with_actionable_errors(self):
        from repro.core import TaserConfig
        with pytest.raises(ValueError, match="choose 'sync'"):
            TaserConfig(batch_engine="warp")
        with pytest.raises(TypeError):       # the dimension is gone (PR 24)
            TaserConfig(prep_backend="fused")

    def test_main_json_output(self, capsys):
        code = main([
            "--scale", "0.05", "--variant", "ada-minibatch",
            "--epochs", "1", "--max-batches-per-epoch", "2",
            "--hidden-dim", "8", "--time-dim", "4",
            "--num-neighbors", "3", "--num-candidates", "6",
            "--eval-max-edges", "20", "--eval-negatives", "5",
            "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["variant"] == "w/ Ada. Mini-Batch"
        assert 0.0 <= payload["test_mrr"] <= 1.0


class TestTrainCLI:
    TRAIN_ARGS = [
        "train", "--dataset", "wikipedia", "--scale", "0.05",
        "--epochs", "1", "--max-batches-per-epoch", "2",
        "--batch-size", "64", "--hidden-dim", "8", "--time-dim", "4",
        "--num-neighbors", "3", "--num-candidates", "6",
        "--eval-max-edges", "20", "--eval-negatives", "5",
    ]

    def test_train_json_output(self, capsys):
        code = main(self.TRAIN_ARGS + ["--workers", "2",
                                       "--shard-policy", "hash", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workers"] == 2
        assert payload["shard_policy"] == "hash"
        assert payload["shard_plan"]["num_shards"] == 2
        assert sum(payload["shard_plan"]["shard_events"]) \
            == payload["shard_plan"]["num_events"]
        assert 0.0 <= payload["test_mrr"] <= 1.0
        assert "SYNC" in payload["runtime_breakdown_seconds"]

    def test_train_text_output(self, capsys):
        assert main(self.TRAIN_ARGS + ["--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "shards" in out
        assert "test MRR" in out

    def test_train_single_worker_matches_default_runner(self, capsys):
        """`repro train --workers 1` reproduces the default runner's loss."""
        shared = ["--dataset", "wikipedia", "--scale", "0.05",
                  "--variant", "baseline", "--epochs", "1",
                  "--max-batches-per-epoch", "2", "--batch-size", "64",
                  "--hidden-dim", "8", "--time-dim", "4",
                  "--num-neighbors", "3", "--num-candidates", "6",
                  "--eval-max-edges", "20", "--eval-negatives", "5", "--json"]
        assert main(shared) == 0
        single = json.loads(capsys.readouterr().out)
        assert main(["train", "--workers", "1", *shared]) == 0
        sharded = json.loads(capsys.readouterr().out)
        assert sharded["final_model_loss"] == single["final_model_loss"]

    def test_train_rejects_bad_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(self.TRAIN_ARGS + ["--workers", "0"])
        assert "must be >= 1" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(self.TRAIN_ARGS + ["--shard-policy", "roundrobin"])
        capsys.readouterr()
        for gone in (["--prep-backend", "fused"], ["--precision", "fp16"],
                     ["--worker-backend", "process"]):
            with pytest.raises(SystemExit):
                main(self.TRAIN_ARGS + gone)
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_train_ignores_a_stale_precision_variable(self, monkeypatch,
                                                      capsys):
        monkeypatch.setenv("REPRO_PRECISION", "bogus")
        assert main(self.TRAIN_ARGS + ["--workers", "1", "--json"]) == 0
        assert 0.0 <= json.loads(capsys.readouterr().out)["test_mrr"] <= 1.0


class TestStreamCLI:
    STREAM_ARGS = [
        "stream", "--dataset", "wikipedia", "--scale", "0.05",
        "--warmup-events", "150", "--chunk-size", "80",
        "--window-events", "150", "--batch-size", "64",
        "--hidden-dim", "8", "--time-dim", "4",
        "--num-neighbors", "3", "--num-candidates", "6",
        "--eval-negatives", "5", "--eval-events-per-chunk", "20",
    ]

    def test_stream_json_output(self, capsys):
        code = main(self.STREAM_ARGS + ["--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["chunks"] == 2
        assert payload["events_ingested"] == 150
        assert payload["events_per_second"] > 0
        assert payload["batches_per_second"] > 0
        assert 0.0 <= payload["prequential_mrr"] <= 1.0
        assert len(payload["mrr_over_time"]) == payload["chunks"]

    def test_stream_text_output(self, capsys):
        assert main(self.STREAM_ARGS) == 0
        out = capsys.readouterr().out
        assert "prequential MRR" in out
        assert "events ingested" in out

    def test_stream_rejects_aot_and_removed_flags(self, capsys):
        for gone in (["--batch-engine", "aot"], ["--batch-engine", "prefetch"],
                     ["--prefetch-depth", "2"], ["--prep-pool-workers", "1"],
                     ["--prep-cache-mb", "64"], ["--backend", "reference"],
                     ["--prep-backend", "fused"], ["--precision", "fp16"]):
            with pytest.raises(SystemExit):
                main(self.STREAM_ARGS + gone)
            capsys.readouterr()
        with pytest.raises(SystemExit):
            main(self.STREAM_ARGS + ["--drift-phases", "0"])
        assert "must be >= 1" in capsys.readouterr().err

    def test_stream_drift_scenario(self, capsys):
        code = main(["stream", "--dataset", "wikipedia", "--scale", "0.02",
                     "--drift-phases", "2", "--warmup-events", "100",
                     "--chunk-size", "70", "--window-events", "100",
                     "--batch-size", "50", "--hidden-dim", "8",
                     "--time-dim", "4", "--num-neighbors", "3",
                     "--num-candidates", "6", "--eval-negatives", "5",
                     "--eval-events-per-chunk", "15", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["drift_phases"] == 2
        assert payload["events_ingested"] == 140


class TestServeCLI:
    SERVE_ARGS = [
        "serve", "--dataset", "wikipedia", "--scale", "0.05",
        "--warmup-events", "200", "--warmup-epochs", "1",
        "--max-batches-per-epoch", "2", "--batch-size", "64",
        "--hidden-dim", "8", "--time-dim", "4",
        "--num-neighbors", "3", "--num-candidates", "6",
        "--num-queries", "60", "--max-batch", "8",
    ]

    def test_serve_json_output(self, capsys):
        code = main(self.SERVE_ARGS + ["--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_queries"] == 60
        assert payload["served"] == 60
        assert payload["qps"] > 0
        assert payload["latency_p50_ms"] > 0
        assert payload["latency_p99_ms"] >= payload["latency_p50_ms"]
        assert 0.0 < payload["batch_occupancy"] <= 1.0
        assert 0.0 <= payload["embedding_cache_hit_rate"] <= 1.0
        assert len(payload["scores_hash"]) == 16
        assert payload["replay_hash"] is None

    def test_serve_text_output(self, capsys):
        assert main(self.SERVE_ARGS) == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "latency" in out
        assert "embed cache" in out

    def test_serve_replay_bitwise(self, capsys):
        code = main(self.SERVE_ARGS + ["--replay", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["replay_hash"] == payload["scores_hash"]
        assert payload["replay_match"] is True

    def test_serve_rejects_bad_depth_and_batch(self, capsys):
        """--queue-depth / --max-batch fail at parse time, actionably."""
        with pytest.raises(SystemExit):
            main(self.SERVE_ARGS + ["--queue-depth", "0"])
        assert "must be >= 1" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(self.SERVE_ARGS + ["--max-batch", "0"])
        assert "must be >= 1" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(self.SERVE_ARGS + ["--max-batch", "many"])
        assert "expected an integer" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(self.SERVE_ARGS + ["--staleness-events", "-1"])
        assert "must be >= 0" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(self.SERVE_ARGS + ["--staleness-time", "-0.5"])
        assert "must be >= 0" in capsys.readouterr().err

    def test_serve_rejects_unknown_backends_at_parse_time(self, capsys):
        """--backend, --prep-backend and --precision are not flags at all."""
        for gone in (["--backend", "reference"], ["--prep-backend", "fused"],
                     ["--precision", "fp16"]):
            with pytest.raises(SystemExit):
                main(self.SERVE_ARGS + gone)
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_env_backend_validated_not_breaking_help(self, monkeypatch,
                                                           capsys):
        """No environment variable selects a serve backend any more, so a
        stale REPRO_PRECISION is not validated: the run succeeds, and --help
        still works (the train/stream contract)."""
        monkeypatch.setenv("REPRO_PRECISION", "bogus")
        assert main(self.SERVE_ARGS + ["--json"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--help"])
        assert exc.value.code == 0
        assert "--max-batch" in capsys.readouterr().out

    def test_serve_explicit_backend_beats_stale_env(self, monkeypatch, capsys):
        """The command line alone decides a serve run: a stale
        REPRO_PRECISION changes neither the payload's backend nor a score,
        and the payload names no tier."""
        assert main(self.SERVE_ARGS + ["--json"]) == 0
        clean = json.loads(capsys.readouterr().out)
        monkeypatch.setenv("REPRO_PRECISION", "bogus")
        assert main(self.SERVE_ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "precision" not in payload
        assert payload["array_backend"] == "reference"
        assert payload["scores_hash"] == clean["scores_hash"]
