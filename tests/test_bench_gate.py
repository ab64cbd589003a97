"""The CI benchmark hash gate (tools/bench_gate.py).

Exercises the gate as a library (its ``main`` with explicit argv): the clean
and failing verdicts, baseline refresh and the determinism-hash rules.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_gate", Path(__file__).resolve().parents[1] / "tools" / "bench_gate.py")
bench_gate = importlib.util.module_from_spec(_SPEC)
sys.modules.setdefault("bench_gate", bench_gate)
_SPEC.loader.exec_module(bench_gate)


def _artifact(wall=1.0, run_hash="abc", replay_hash="abc"):
    return {
        "benchmark": "demo",
        "scale": 0.1,
        "unix_time": 0.0,
        "results": {
            "wall_seconds": wall,
            "determinism": {"hash": run_hash, "replay_hash": replay_hash},
        },
    }


def _write(directory: Path, payload, name="BENCH_demo.json"):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / name).write_text(json.dumps(payload))


@pytest.fixture
def dirs(tmp_path):
    return tmp_path / "current", tmp_path / "baselines"


def _gate(current, baselines, *extra):
    return bench_gate.main(["--current-dir", str(current),
                            "--baseline-dir", str(baselines), *extra])


class TestBenchGate:
    def test_clean_pass(self, dirs):
        current, baselines = dirs
        _write(current, _artifact())
        _write(baselines, _artifact())
        assert _gate(current, baselines) == 0

    def test_no_artifacts_is_usage_error(self, dirs):
        current, baselines = dirs
        current.mkdir(parents=True)
        assert _gate(current, baselines) == 2

    def test_determinism_mismatch_fails_even_at_smoke_scale(self, dirs):
        current, baselines = dirs
        _write(baselines, _artifact())
        _write(current, _artifact(run_hash="abc", replay_hash="xyz"))
        assert _gate(current, baselines) == 1

    def test_determinism_checked_even_without_baseline(self, dirs):
        current, baselines = dirs
        baselines.mkdir(parents=True)
        _write(current, _artifact(run_hash="abc", replay_hash="xyz"))
        assert _gate(current, baselines) == 1

    def test_missing_baseline_is_note_only(self, dirs):
        current, baselines = dirs
        baselines.mkdir(parents=True)
        _write(current, _artifact())
        assert _gate(current, baselines) == 0

    def test_update_refreshes_baselines(self, dirs):
        current, baselines = dirs
        _write(current, _artifact(wall=2.0))
        assert _gate(current, baselines, "--update") == 0
        recorded = json.loads((baselines / "BENCH_demo.json").read_text())
        assert recorded["results"]["wall_seconds"] == 2.0
        # After the refresh the same artifact gates clean.
        assert _gate(current, baselines) == 0

    @pytest.mark.parametrize("flag", ["--strict", "--threshold=0.25",
                                      "--min-seconds=0.005"])
    def test_timing_options_are_gone(self, dirs, flag):
        """Wall-clock timings are not compared: a 10x slower artifact
        gates clean, and the timing options are usage errors."""
        current, baselines = dirs
        _write(baselines, _artifact(wall=1.0))
        _write(current, _artifact(wall=10.0))
        assert _gate(current, baselines) == 0
        with pytest.raises(SystemExit) as info:
            _gate(current, baselines, flag)
        assert info.value.code == 2

    def test_walk_helpers(self):
        payload = {"a": {"b_seconds": 1.5, "list": [{"c": 2}]},
                   "determinism": {"hash": "x", "replay_hash": "y"}}
        pairs = list(bench_gate.walk_hash_pairs(payload))
        assert pairs == [("determinism", "x", "y")]

    def test_committed_baselines_gate_clean_against_themselves(self):
        """The baselines shipped in-repo must self-compare clean."""
        baselines = Path(__file__).resolve().parents[1] / "benchmarks" / "baselines"
        assert baselines.is_dir(), "benchmarks/baselines must be committed"
        assert bench_gate.main(["--current-dir", str(baselines),
                                "--baseline-dir", str(baselines)]) == 0


class TestRequiredHashPairs:
    """The contract pairs a benchmark may not silently stop emitting."""

    def test_registry_covers_fig1_serve_and_shards(self):
        assert bench_gate.REQUIRED_HASH_PAIRS["BENCH_serve_latency.json"] \
            == ("serve_determinism",)
        assert bench_gate.REQUIRED_HASH_PAIRS[
            "BENCH_fig1_breakdown_wikipedia.json"] \
            == ("determinism",)
        assert set(bench_gate.REQUIRED_HASH_PAIRS["BENCH_shard_scaling.json"]) \
            == {"determinism", "comms_equivalence", "comms_equivalence_adaptive"}
        assert len(bench_gate.REQUIRED_HASH_PAIRS) == 3

    def _fig1_artifact(self, replay="b"):
        return {
            "benchmark": "fig1_breakdown_wikipedia", "scale": 0.1,
            "unix_time": 0.0,
            "results": {
                "determinism": {"hash": "b", "replay_hash": replay},
            },
        }

    def test_fig1_pairs_present_and_equal_pass(self, dirs):
        current, baselines = dirs
        baselines.mkdir(parents=True)
        _write(current, self._fig1_artifact(),
               name="BENCH_fig1_breakdown_wikipedia.json")
        assert _gate(current, baselines) == 0

    def test_fig1_replay_mismatch_fails_at_every_scale(self, dirs):
        """A same-seed replay whose trajectory diverges from the first run's
        is a contract break."""
        current, baselines = dirs
        baselines.mkdir(parents=True)
        _write(current, self._fig1_artifact(replay="doctored"),
               name="BENCH_fig1_breakdown_wikipedia.json")
        assert _gate(current, baselines) == 1

    def test_fig1_pair_missing_fails_hard(self, dirs):
        current, baselines = dirs
        baselines.mkdir(parents=True)
        artifact = self._fig1_artifact()
        del artifact["results"]["determinism"]
        _write(current, artifact, name="BENCH_fig1_breakdown_wikipedia.json")
        assert _gate(current, baselines) == 1

    def _serve_artifact(self, run_hash="abc", replay_hash="abc"):
        return {
            "benchmark": "serve_latency", "scale": 0.1,
            "unix_time": 0.0,
            "results": {
                "serve_determinism": {"hash": run_hash,
                                      "replay_hash": replay_hash},
            },
        }

    def test_serve_pair_present_and_equal_passes(self, dirs):
        current, baselines = dirs
        baselines.mkdir(parents=True)
        _write(current, self._serve_artifact(),
               name="BENCH_serve_latency.json")
        assert _gate(current, baselines) == 0

    def test_serve_replay_mismatch_fails_at_every_scale(self, dirs):
        current, baselines = dirs
        baselines.mkdir(parents=True)
        _write(current, self._serve_artifact(replay_hash="doctored"),
               name="BENCH_serve_latency.json")
        assert _gate(current, baselines) == 1

    def test_serve_pair_missing_fails_hard(self, dirs):
        current, baselines = dirs
        baselines.mkdir(parents=True)
        artifact = self._serve_artifact()
        del artifact["results"]["serve_determinism"]
        _write(current, artifact, name="BENCH_serve_latency.json")
        assert _gate(current, baselines) == 1

    def _shard_artifact(self, comms_replay="traj", replay="det",
                        adaptive_replay="sampler"):
        return {
            "benchmark": "shard_scaling", "scale": 0.1,
            "unix_time": 0.0,
            "results": {
                "determinism": {"hash": "det", "replay_hash": replay},
                "comms_equivalence": {"hash": "traj",
                                      "replay_hash": comms_replay},
                "comms_equivalence_adaptive": {
                    "hash": "sampler", "replay_hash": adaptive_replay},
            },
        }

    def test_shard_pairs_present_and_equal_pass(self, dirs):
        current, baselines = dirs
        baselines.mkdir(parents=True)
        _write(current, self._shard_artifact(),
               name="BENCH_shard_scaling.json")
        assert _gate(current, baselines) == 0

    def test_shard_replay_mismatch_fails_at_every_scale(self, dirs):
        current, baselines = dirs
        baselines.mkdir(parents=True)
        _write(current, self._shard_artifact(replay="doctored"),
               name="BENCH_shard_scaling.json")
        assert _gate(current, baselines) == 1

    def test_shard_determinism_pair_missing_fails_hard(self, dirs):
        """A two-pair artifact that still carries one pair fails when the
        other goes missing."""
        current, baselines = dirs
        baselines.mkdir(parents=True)
        artifact = self._shard_artifact()
        del artifact["results"]["determinism"]
        _write(current, artifact, name="BENCH_shard_scaling.json")
        assert _gate(current, baselines) == 1

    def test_precision_pairs_present_and_equal_pass(self, dirs):
        """A BENCH_precision.json left over from an older checkout still
        passes: its equal pairs are walked like any others, and it is no
        longer required to carry them."""
        current, baselines = dirs
        baselines.mkdir(parents=True)
        artifact = {
            "benchmark": "precision", "scale": 0.1,
            "unix_time": 0.0,
            "results": {
                "fp32_equivalence": {"hash": "eq", "replay_hash": "eq"},
                "precision_determinism": {"hash": "abc",
                                          "replay_hash": "abc"},
            },
        }
        _write(current, artifact, name="BENCH_precision.json")
        assert _gate(current, baselines) == 0
        del artifact["results"]["precision_determinism"]
        _write(current, artifact, name="BENCH_precision.json")
        assert _gate(current, baselines) == 0

    def test_comms_replay_mismatch_fails_at_every_scale(self, dirs):
        """A shared-memory trajectory diverging from the in-process one
        breaks the buckets' bitwise contract."""
        current, baselines = dirs
        baselines.mkdir(parents=True)
        _write(current, self._shard_artifact(comms_replay="doctored"),
               name="BENCH_shard_scaling.json")
        assert _gate(current, baselines) == 1

    def test_comms_pair_missing_fails_hard(self, dirs):
        current, baselines = dirs
        baselines.mkdir(parents=True)
        artifact = self._shard_artifact()
        del artifact["results"]["comms_equivalence"]
        _write(current, artifact, name="BENCH_shard_scaling.json")
        assert _gate(current, baselines) == 1

    def test_adaptive_comms_replay_mismatch_fails_at_every_scale(self, dirs):
        """The adaptive cell exchanges the sampler's gradients too: a process
        pool whose sampler exchange diverges from the serial pool's fails."""
        current, baselines = dirs
        baselines.mkdir(parents=True)
        _write(current, self._shard_artifact(adaptive_replay="doctored"),
               name="BENCH_shard_scaling.json")
        assert _gate(current, baselines) == 1

    def test_adaptive_comms_pair_missing_fails_hard(self, dirs):
        current, baselines = dirs
        baselines.mkdir(parents=True)
        artifact = self._shard_artifact()
        del artifact["results"]["comms_equivalence_adaptive"]
        _write(current, artifact, name="BENCH_shard_scaling.json")
        assert _gate(current, baselines) == 1
