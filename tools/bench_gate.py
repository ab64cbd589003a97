#!/usr/bin/env python3
"""Benchmark hash gate: check the equivalence pairs of fresh ``BENCH_*.json``.

CI records every benchmark's results as machine-readable ``BENCH_*.json``
artifacts (see ``docs/BENCHMARKS.md``).  Any payload object carrying a
``hash`` / ``replay_hash`` pair (the benchmarks' run-vs-replay digests) must
have equal values, and the contract pairs listed in ``REQUIRED_HASH_PAIRS``
(the fig1 ``determinism`` pair, the serve ``serve_determinism`` pair, the
shard sweep's ``determinism`` pair and its ``comms_equivalence`` pair — the
serial pool's trajectories vs the process pool's) must also be *present* — a
benchmark that silently stops emitting one fails.  The digests are computed
within one run, so a finding is machine-independent and fails at every
scale.  Wall-clock timings are not compared: ``benchmarks/e2e`` is the
timing record.

The committed baselines in ``benchmarks/baselines/`` are the smoke-scale
record of those hashes that a change compares its fresh artifacts against.
Refreshing them after an intentional change::

    REPRO_BENCH_SCALE=0.1 REPRO_BENCH_EPOCHS=1 PYTHONPATH=src \
        python -m pytest benchmarks/bench_stream_throughput.py \
        benchmarks/bench_shard_scaling.py -q
    python tools/bench_gate.py --update

Exit codes: 0 = clean, 1 = a hash pair differs or is missing,
2 = usage error (e.g. no artifacts found at all).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

#: equivalence pairs that MUST be present in a fresh artifact.  The generic
#: walker checks any ``hash``/``replay_hash`` pair it *finds*; this map makes
#: silently dropping a contract pair (e.g. a refactor that stops emitting
#: ``comms_equivalence``) a hard failure instead of a silent pass.
REQUIRED_HASH_PAIRS: Dict[str, Tuple[str, ...]] = {
    "BENCH_fig1_breakdown_wikipedia.json": ("determinism",),
    "BENCH_serve_latency.json": ("serve_determinism",),
    "BENCH_shard_scaling.json": ("determinism", "comms_equivalence"),
}


def walk_hash_pairs(payload, prefix: str = "") -> Iterator[Tuple[str, str, str]]:
    """Yield ``(path, hash, replay_hash)`` for every determinism pair."""
    if isinstance(payload, dict):
        if "hash" in payload and "replay_hash" in payload:
            yield prefix, str(payload["hash"]), str(payload["replay_hash"])
        for key, value in payload.items():
            yield from walk_hash_pairs(value, f"{prefix}.{key}" if prefix else key)
    elif isinstance(payload, list):
        for i, value in enumerate(payload):
            yield from walk_hash_pairs(value, f"{prefix}[{i}]")


class Report:
    """Collects findings and renders the gate verdict."""

    def __init__(self) -> None:
        self.failures: List[str] = []
        self.notes: List[str] = []

    def render(self) -> int:
        for note in self.notes:
            print(f"  note: {note}")
        for failure in self.failures:
            print(f"  FAIL: {failure}")
        if self.failures:
            print(f"bench-gate: {len(self.failures)} finding(s) — failing")
            return 1
        print("bench-gate: clean")
        return 0


def check_determinism(name: str, current: Dict, report: Report) -> None:
    """Fail on any inconsistent or missing determinism pair in a fresh
    artifact (run-vs-replay digests computed *within* one benchmark run, so
    a mismatch is machine-independent evidence of a determinism break)."""
    pairs = list(walk_hash_pairs(current.get("results", {})))
    for path, run_hash, replay_hash in pairs:
        if run_hash != replay_hash:
            report.failures.append(
                f"{name}: determinism hash mismatch at '{path or '<root>'}': "
                f"run={run_hash} replay={replay_hash}")
    seen = {path for path, _, _ in pairs}
    for required in REQUIRED_HASH_PAIRS.get(name, ()):
        if required not in seen:
            report.failures.append(
                f"{name}: required equivalence pair '{required}' missing "
                "from the artifact — the benchmark must emit it")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate CI on the hash pairs of BENCH_*.json")
    parser.add_argument("--current-dir", type=Path, default=Path("."),
                        help="directory holding freshly emitted BENCH_*.json")
    parser.add_argument("--baseline-dir", type=Path,
                        default=Path("benchmarks/baselines"),
                        help="directory of committed baseline BENCH_*.json")
    parser.add_argument("--update", action="store_true",
                        help="copy current artifacts over the baselines "
                             "instead of checking them")
    args = parser.parse_args(argv)

    current_files = sorted(args.current_dir.glob("BENCH_*.json"))
    if not current_files:
        print(f"bench-gate: no BENCH_*.json found in {args.current_dir} "
              "(run the benchmark suite first)")
        return 2

    if args.update:
        args.baseline_dir.mkdir(parents=True, exist_ok=True)
        for path in current_files:
            shutil.copy(path, args.baseline_dir / path.name)
            print(f"bench-gate: baseline refreshed: {path.name}")
        return 0

    report = Report()
    print(f"bench-gate: checking the hash pairs of {len(current_files)} "
          f"artifact(s) in {args.current_dir}")
    for path in current_files:
        if not (args.baseline_dir / path.name).exists():
            report.notes.append(
                f"{path.name}: no committed baseline — run "
                f"'python tools/bench_gate.py --update' to record one")
        check_determinism(path.name, json.loads(path.read_text()), report)
    return report.render()


if __name__ == "__main__":
    sys.exit(main())
