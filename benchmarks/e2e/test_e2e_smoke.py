"""Smoke test of the end-to-end benchmark (run explicitly, not tier-1):

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

Runs ``run.py --smoke`` once (tiny sizes, the same code paths) and checks the
shape of what it produces against ``BENCHMARK.json``.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def catalogue():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke_set(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "0",
         "--out", str(out)], cwd=str(ROOT), capture_output=True, text=True)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    with open(out / "results.seed0.json") as handle:
        return out, json.load(handle), done.stdout


def test_smoke_has_every_declared_metric_and_nothing_else(catalogue, smoke_set):
    _, results, _ = smoke_set
    assert results["correct"]
    assert set(results["workloads"]) == {w["name"] for w in catalogue["workloads"]}
    for kind in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in catalogue[kind]}
        for workload, body in results["workloads"].items():
            assert set(body[kind]) == set(declared), (workload, kind)
            for name, m in body[kind].items():
                assert m["unit"] == declared[name], (workload, name)
                assert isinstance(m["value"], float), (workload, name)
            assert body["failed"] == 0 and body["attempted"] >= 1
            assert all(body["checks"].values()), (workload, body["checks"])
    for workload, body in results["workloads"].items():
        assert all(m["value"] > 0 for m in body["end_to_end"].values()), workload


def test_names_fit_the_contract_charset(catalogue):
    names = ([w["name"] for w in catalogue["workloads"]]
             + [m["name"] for m in catalogue["end_to_end"]]
             + [m["name"] for m in catalogue["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in catalogue["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in catalogue["end_to_end"])


def test_traces_parse_and_spans_nest(catalogue, smoke_set):
    out, _, _ = smoke_set
    for workload in (w["name"] for w in catalogue["workloads"]):
        with open(out / f"trace.{workload}.json") as handle:
            events = json.load(handle)["traceEvents"]
        assert events, workload
        by_id = {e["args"]["id"]: e for e in events}
        children = {}
        for e in events:
            assert e["ph"] == "X" and e["dur"] >= 0
            parent = e["args"]["parent"]
            if parent >= 0:
                p = by_id[parent]         # every span closes under a parent
                assert p["ts"] <= e["ts"] + 1e-3
                assert e["ts"] + e["dur"] <= p["ts"] + p["dur"] + 1e-3
                children[parent] = children.get(parent, 0.0) + e["dur"]
        for span_id, covered in children.items():      # self times >= 0
            assert by_id[span_id]["dur"] - covered >= -1e-3


def test_single_pass_prints_the_contract_line(catalogue):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             "stream_prequential", "--seed", "3", "--seconds", "1", "--trace",
             str(trace), "--smoke"], cwd=str(ROOT), capture_output=True, text=True)
        assert done.returncode == 0, done.stderr[-2000:]
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["attempted"] >= 1
        assert set(last["metrics"]) == {m["name"] for m in catalogue[kind]}
        for m in last["metrics"].values():
            assert set(m) == {"value", "unit"}


def test_a_set_agrees_with_itself(smoke_set):
    out, _, _ = smoke_set
    path = str(out / "results.seed0.json")
    done = subprocess.run([sys.executable, str(HERE / "compare.py"), path, path],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is no program to measure: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "stream_prequential", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
