#!/usr/bin/env python3
"""Benchmark regression gate: compare fresh ``BENCH_*.json`` against baselines.

CI records every benchmark's results as machine-readable ``BENCH_*.json``
artifacts (see ``docs/BENCHMARKS.md``); this tool turns those artifacts into
a *gate* by diffing them against the committed baselines in
``benchmarks/baselines/``:

* **timing regression** — any metric whose key ends in ``_seconds`` may not
  exceed its baseline by more than ``--threshold`` (default 25%); metrics
  ending in ``_per_second`` are throughput and may not *drop* by more than
  the threshold.  Metrics are matched by their dotted path inside the
  ``results`` payload, and baselines below ``--min-seconds`` are skipped as
  timer noise.
* **determinism mismatch** — any payload object carrying a ``hash`` /
  ``replay_hash`` pair (the benchmarks' run-vs-replay digests) must have
  equal values, and when a baseline records the pair the fresh ``hash``
  payload must still be self-consistent.  Contract pairs listed in
  ``REQUIRED_HASH_PAIRS`` (the fig1 ``determinism`` pair, the shard
  sweep's ``determinism`` pair and its ``comms_equivalence`` pair —
  the serial pool's trajectories vs the process pool's —, ...) must
  also be *present* in the fresh artifact — a benchmark that silently stops
  emitting one fails hard.

Enforcement: *timing* findings **fail** (exit 1) when
``REPRO_BENCH_SCALE >= 0.5`` or ``--strict`` is given, and are **warnings**
(exit 0) at smoke scale, where wall-clock numbers on shared CI runners are
too noisy to block a merge.  Determinism-hash mismatches are enforced at
*every* scale — the digests are computed within one run, so a mismatch is
machine-independent.  Timing baselines are only compared
when the fresh artifact was produced at the same ``scale`` as the baseline.

Refreshing baselines after an intentional performance change::

    REPRO_BENCH_SCALE=0.1 REPRO_BENCH_EPOCHS=1 PYTHONPATH=src \
        python -m pytest benchmarks/bench_stream_throughput.py \
        benchmarks/bench_shard_scaling.py -q
    python tools/bench_gate.py --update

Exit codes: 0 = clean (or warnings only), 1 = enforced regression,
2 = usage error (e.g. no artifacts found at all).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

THRESHOLD_DEFAULT = 0.25
MIN_SECONDS_DEFAULT = 5e-3

#: equivalence pairs that MUST be present in a fresh artifact.  The generic
#: walker checks any ``hash``/``replay_hash`` pair it *finds*; this map makes
#: silently dropping a contract pair (e.g. a refactor that stops emitting
#: ``comms_equivalence``) a hard failure instead of a silent pass.
REQUIRED_HASH_PAIRS: Dict[str, Tuple[str, ...]] = {
    "BENCH_fig1_breakdown_wikipedia.json": ("determinism",),
    "BENCH_serve_latency.json": ("serve_determinism",),
    "BENCH_shard_scaling.json": ("determinism", "comms_equivalence"),
}

def walk_numeric(payload, prefix: str = "") -> Iterator[Tuple[str, float]]:
    """Yield ``(dotted.path, value)`` for every numeric leaf of a payload."""
    if isinstance(payload, dict):
        for key, value in payload.items():
            yield from walk_numeric(value, f"{prefix}.{key}" if prefix else key)
    elif isinstance(payload, list):
        for i, value in enumerate(payload):
            yield from walk_numeric(value, f"{prefix}[{i}]")
    elif isinstance(payload, (int, float)) and not isinstance(payload, bool):
        yield prefix, float(payload)


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

    def __init__(self, enforce: bool) -> None:
        self.enforce = enforce
        self.failures: List[str] = []
        self.warnings: List[str] = []
        self.notes: List[str] = []

    def finding(self, message: str) -> None:
        (self.failures if self.enforce else self.warnings).append(message)

    def hard_finding(self, message: str) -> None:
        self.failures.append(message)

    def render(self) -> int:
        for note in self.notes:
            print(f"  note: {note}")
        for warning in self.warnings:
            print(f"  WARN: {warning}")
        for failure in self.failures:
            print(f"  FAIL: {failure}")
        if self.failures:
            print(f"bench-gate: {len(self.failures)} regression(s) — failing")
            return 1
        if self.warnings:
            print(f"bench-gate: {len(self.warnings)} warning(s) at smoke "
                  "scale — not enforced (see --strict)")
        else:
            print("bench-gate: clean")
        return 0


def check_determinism(name: str, current: Dict, report: Report) -> None:
    """Fail on any inconsistent determinism pair in a fresh artifact.

    The pairs are run-vs-replay digests computed *within* one benchmark run,
    so a mismatch is machine-independent evidence of a determinism break —
    it is enforced even at smoke scale, where only timings are warn-only.
    """
    pairs = list(walk_hash_pairs(current.get("results", {})))
    for path, run_hash, replay_hash in pairs:
        if run_hash != replay_hash:
            report.hard_finding(
                f"{name}: determinism hash mismatch at '{path or '<root>'}': "
                f"run={run_hash} replay={replay_hash}")
    seen = {path for path, _, _ in pairs}
    for required in REQUIRED_HASH_PAIRS.get(name, ()):
        if required not in seen:
            report.hard_finding(
                f"{name}: required equivalence pair '{required}' missing "
                "from the artifact — the benchmark must emit it")


def compare_file(name: str, current: Dict, baseline: Dict, report: Report,
                 threshold: float, min_seconds: float) -> None:
    """Diff one fresh artifact against its committed baseline."""
    check_determinism(name, current, report)

    if current.get("scale") != baseline.get("scale"):
        report.notes.append(
            f"{name}: baseline recorded at scale={baseline.get('scale')}, "
            f"current at scale={current.get('scale')} "
            "— timing comparison skipped")
        return

    base_metrics = dict(walk_numeric(baseline.get("results", {})))
    for path, value in walk_numeric(current.get("results", {})):
        base = base_metrics.get(path)
        if base is None:
            continue
        # Classify by the leaf key: "..._per_second" is throughput (higher is
        # better), anything mentioning "seconds" ("wall_seconds",
        # "epoch_seconds", "wall_seconds_per_epoch", ...) is a timing (lower
        # is better).  The throughput check runs first: "events_per_second"
        # also contains "second".
        leaf = path.split(".")[-1].split("[")[0]
        if "per_second" in leaf:
            if base <= 0:
                continue
            if value < base * (1.0 - threshold):
                report.finding(
                    f"{name}: throughput '{path}' dropped to "
                    f"{value / base:.2f}x of baseline "
                    f"({base:.1f}/s -> {value:.1f}/s)")
        elif "seconds" in leaf:
            if base < min_seconds:
                continue
            if value > base * (1.0 + threshold):
                report.finding(
                    f"{name}: '{path}' slowed down "
                    f"{value / base:.2f}x ({base:.4f}s -> {value:.4f}s, "
                    f"threshold {1.0 + threshold:.2f}x)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate CI on BENCH_*.json vs committed baselines")
    parser.add_argument("--current-dir", type=Path, default=Path("."),
                        help="directory holding freshly emitted BENCH_*.json")
    parser.add_argument("--baseline-dir", type=Path,
                        default=Path("benchmarks/baselines"),
                        help="directory of committed baseline BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=THRESHOLD_DEFAULT,
                        help="allowed fractional slowdown (default 0.25)")
    parser.add_argument("--min-seconds", type=float, default=MIN_SECONDS_DEFAULT,
                        help="ignore timings whose baseline is below this "
                             "(timer noise floor)")
    parser.add_argument("--strict", action="store_true",
                        help="enforce findings regardless of REPRO_BENCH_SCALE")
    parser.add_argument("--update", action="store_true",
                        help="copy current artifacts over the baselines "
                             "instead of comparing")
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

    scale = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    enforce = args.strict or scale >= 0.5
    report = Report(enforce=enforce)
    print(f"bench-gate: comparing {len(current_files)} artifact(s) against "
          f"{args.baseline_dir} (scale={scale}, "
          f"{'enforcing' if enforce else 'warn-only'})")

    for path in current_files:
        baseline_path = args.baseline_dir / path.name
        current = json.loads(path.read_text())
        if not baseline_path.exists():
            report.notes.append(
                f"{path.name}: no committed baseline — run "
                f"'python tools/bench_gate.py --update' to record one")
            # Still check the fresh artifact's determinism pairs (they
            # need no baseline).
            check_determinism(path.name, current, report)
            continue
        baseline = json.loads(baseline_path.read_text())
        compare_file(path.name, current, baseline, report,
                     args.threshold, args.min_seconds)

    return report.render()


if __name__ == "__main__":
    sys.exit(main())
