"""Tests for graph serialisation and the command-line experiment runner."""

import argparse
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import cli
from repro.cli import build_parser, main
from repro.core import TaserConfig, TaserTrainer
from repro.graph import CTDGConfig, generate_ctdg, load_dataset
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


#: the ``repro`` subcommands, one per workload.
COMMANDS = ("train", "stream", "serve")


def subparser(command):
    """The parser of ``repro <command>``."""
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    return commands.choices[command]


class TestCLI:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.dataset == "wikipedia"
        assert args.variant == "baseline"
        assert args.workers == 2

    def test_parser_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--dataset", "imaginary"])

    def test_no_subcommand_is_a_usage_error(self, capsys):
        """``repro`` without a subcommand trains nothing: it exits 2 with a
        usage line naming the three commands."""
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2
        assert "{train,stream,serve}" in capsys.readouterr().err
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-m", "repro", "--dataset", "wikipedia"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "usage: repro" in proc.stderr
        assert "{train,stream,serve}" in proc.stderr

    def test_run_baseline_tiny(self):
        args = build_parser().parse_args([
            "train", "--workers", "1",
            "--dataset", "wikipedia", "--scale", "0.05",
            "--backbone", "graphmixer", "--variant", "baseline",
            "--epochs", "1", "--max-batches-per-epoch", "2",
            "--hidden-dim", "8", "--time-dim", "4",
            "--num-neighbors", "3", "--num-candidates", "6",
            "--eval-max-edges", "20", "--eval-negatives", "5",
        ])
        summary = args.run(args)
        assert summary["variant"] == "Baseline"
        assert 0.0 <= summary["test_mrr"] <= 1.0
        assert "PP" in summary["runtime_breakdown_seconds"]

    @pytest.mark.parametrize("command, readers", [
        ("train", (cli.run_train, cli._report_train)),
        ("stream", (cli.run_stream, cli._report_stream)),
        ("serve", (cli.run_serve, cli._report_serve)),
    ], ids=COMMANDS)
    def test_no_dead_flags(self, command, readers):
        """Every flag a subcommand accepts is read as ``args.<dest>`` by that
        command's run or report function, ``_model_config`` (which every
        command calls) or ``main``; an accepted flag nothing reads is
        silently ignored."""
        code = "\n".join(inspect.getsource(fn)
                         for fn in readers + (cli._model_config, cli.main))
        dead = [action.dest for action in subparser(command)._actions
                if action.dest != "help"
                and not re.search(rf"\bargs\.{action.dest}\b", code)]
        assert dead == []

    def test_batch_engine_flag_plumbing(self, capsys):
        """``--batch-engine`` is gone from the training command, with every
        value it ever took, and no summary reports an engine."""
        for gone in (["--batch-engine", "sync"], ["--batch-engine", "aot"],
                     ["--batch-engine", "prefetch"],
                     ["--prefetch-depth", "3"], ["--prep-pool-workers", "1"],
                     ["--prep-cache-mb", "64"], ["--prep-backend", "fused"],
                     ["--precision", "fp16"]):
            with pytest.raises(SystemExit) as info:
                build_parser().parse_args(["train", *gone])
            assert info.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
        assert "batch_engine" not in vars(build_parser().parse_args(["train"]))
        for fn in (cli.run_train, cli.run_stream, cli.main):
            assert "batch_engine" not in inspect.getsource(fn)

    @pytest.mark.parametrize("flag", ["--hidden-dim", "--time-dim",
                                      "--num-neighbors", "--num-candidates",
                                      "--batch-size", "--eval-negatives",
                                      "--max-batches-per-epoch",
                                      "--eval-max-edges", "--epochs"])
    def test_model_size_flag_of_zero_rejected_at_parse_time(self, flag,
                                                            capsys):
        for command in COMMANDS:
            if flag not in subparser(command)._option_string_actions:
                continue
            with pytest.raises(SystemExit) as info:
                build_parser().parse_args([command, flag, "0"])
            assert info.value.code == 2
            assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--scale", "0", "must be > 0"),
        ("--lr", "0", "must be > 0"),
        ("--rate", "0", "must be > 0"),
        ("--cache-ratio", "1.5", "must be in [0, 1]"),
        ("--seed", "-1", "must be >= 0"),
    ])
    def test_out_of_range_float_flag_rejected_at_parse_time(self, flag, value,
                                                            message, capsys):
        # Each used to surface as a ValueError traceback from load_dataset,
        # Adam, TaserConfig, EventStream or SeedSequence (0 is legal for
        # --cache-ratio and --seed).
        commands = [command for command in COMMANDS
                    if flag in subparser(command)._option_string_actions]
        assert commands
        for command in commands:
            with pytest.raises(SystemExit) as info:
                build_parser().parse_args([command, flag, value])
            assert info.value.code == 2
            assert message in capsys.readouterr().err

    def test_config_rejects_bad_engine_settings_with_actionable_errors(self):
        from repro.core import TaserConfig
        with pytest.raises(ValueError, match="choose 'sync'"):
            TaserConfig(batch_engine="warp")
        with pytest.raises(TypeError):       # the dimension is gone (PR 24)
            TaserConfig(prep_backend="fused")

    def test_main_json_output(self, capsys):
        code = main([
            "train", "--workers", "1",
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
        assert payload["allocator_policy"] == repro.ALLOCATOR_POLICY

    def test_allocator_policy_yields_to_a_malloc_tunable(self):
        """A glibc malloc tunable in the environment wins: the run reports
        the policy as skipped, and why."""
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
        env["MALLOC_TRIM_THRESHOLD_"] = "1073741824"
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "train", "--workers", "1",
             "--scale", "0.05", "--epochs", "1",
             "--max-batches-per-epoch", "1", "--hidden-dim", "8", "--time-dim", "4",
             "--num-neighbors", "3", "--num-candidates", "6",
             "--eval-max-edges", "10", "--eval-negatives", "3", "--json"],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        policy = json.loads(proc.stdout)["allocator_policy"]
        assert policy["applied"] is False
        assert "settings" not in policy
        if os.confstr("CS_GNU_LIBC_VERSION"):
            assert policy["reason"] == "environment sets MALLOC_TRIM_THRESHOLD_"


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
        assert payload["variant"] == "Baseline"
        assert payload["workers"] == 2
        assert payload["shard_policy"] == "hash"
        assert payload["shard_plan"]["num_shards"] == 2
        assert sum(payload["shard_plan"]["shard_events"]) \
            == payload["shard_plan"]["num_events"]
        assert 0.0 <= payload["test_mrr"] <= 1.0
        assert "SYNC" in payload["runtime_breakdown_seconds"]
        assert payload["allocator_policy"] == repro.ALLOCATOR_POLICY

    def test_train_text_output(self, capsys):
        assert main(self.TRAIN_ARGS + ["--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "shards" in out
        assert "test MRR" in out

    def test_train_single_worker_matches_trainer_fit(self, capsys):
        """`repro train --workers 1` reports what `TaserTrainer.fit` returns
        for the same flags."""
        assert main(self.TRAIN_ARGS + ["--workers", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        graph = load_dataset("wikipedia", scale=0.05, seed=0)
        config = TaserConfig(
            backbone="graphmixer", adaptive_minibatch=False,
            adaptive_neighbor=False, epochs=1, max_batches_per_epoch=2,
            batch_size=64, hidden_dim=8, time_dim=4, num_neighbors=3,
            num_candidates=6, eval_max_edges=20, eval_negatives=5,
            cache_ratio=0.2, lr=2e-3, seed=0, decoder="linear")
        result = TaserTrainer(graph, config).fit()
        assert payload["final_model_loss"] == result.history[-1].model_loss
        assert payload["test_mrr"] == result.test_mrr
        assert payload["variant"] == result.variant == "Baseline"

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
        assert payload["allocator_policy"] == repro.ALLOCATOR_POLICY

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
        assert payload["variant"] == "Baseline"
        assert payload["num_queries"] == 60
        assert payload["served"] == 60
        assert payload["qps"] > 0
        assert payload["latency_p50_ms"] > 0
        assert payload["latency_p99_ms"] >= payload["latency_p50_ms"]
        assert 0.0 < payload["batch_occupancy"] <= 1.0
        assert len(payload["scores_hash"]) == 16
        assert payload["replay_hash"] is None
        assert payload["allocator_policy"] == repro.ALLOCATOR_POLICY

    def test_serve_default_is_time_exact(self, capsys):
        """``repro serve`` computes every endpoint at its own query time: it
        reuses no embedding and has no flag that would."""
        assert main(self.SERVE_ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["embeddings_reused"] == 0
        assert not any(key.startswith(("staleness", "embedding_cache"))
                       for key in payload)
        for gone in (["--staleness-events", "5"], ["--staleness-time", "0"],
                     ["--cache-nodes", "0"]):
            with pytest.raises(SystemExit):
                main(self.SERVE_ARGS + gone)
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_text_output(self, capsys):
        assert main(self.SERVE_ARGS) == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "latency" in out
        assert "embed cache" not in out

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
