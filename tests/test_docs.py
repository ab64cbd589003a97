"""The design docs stop growing per-PR sections.

``docs/BENCHMARKS.md`` and ``docs/ARCHITECTURE.md`` keep, per benchmark and
per layer, the current record; a change's own record goes to CHANGES.md or
as a line in the benchmark's current record, and a superseded one moves to
``docs/benchmarks-history.md``.  So the headings of the two files that cite
a PR are an allowlist that may only lose entries: a heading missing from it
fails, an entry whose heading is gone must leave it, and no entry may cite a
PR after the last one that added such a heading.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: a markdown heading that cites a PR number.
PR_HEADING = re.compile(r"^#+ (.*\bPR (\d+).*)$", re.MULTILINE)

#: the last PR whose record got a heading of its own in these files.
LAST_HEADED_PR = 39

#: per file, every heading that cites a PR, in document order.
ALLOWED = {
    "docs/BENCHMARKS.md": (
        "`BENCH_shard_scaling.json` — `bench_shard_scaling.py` (PR 3)",
        "`BENCH_serve_latency.json` — `bench_serve_latency.py` (PR 7)",
        "`BENCH_stream_throughput.json` — `bench_stream_throughput.py` (PR 2)",
        "`BENCH_layers.json` — `bench_layers.py` (PR 15)",
        "`BENCH_history.jsonl` — e2e headline medians, one line per PR (PR 19)",
    ),
    "docs/ARCHITECTURE.md": (
        "Tensor layer: autograd engine (PR 13)",
        "Adaptive neighbor sampler: live rows only (PR 15)",
        "The adaptive sampler at its floor (PR 35)",
        "Array runtime (PR 5, collapsed to one backend in PR 21)",
        "Numeric types (PR 22)",
        "Prep runtime (PR 4)",
        "The one prep path (PR 24)",
        "Serving layer (PR 7)",
        "One feature width (PR 28)",
        "Scoring (eval layer, PR 39)",
        "Sharded data-parallel dataflow (PR 3)",
        "Gradient comms layer (PR 10, one transport since PR 25)",
        "Mask / padding (sampling layer, since PR 1)",
        "Run-vs-replay determinism (core layer, since PR 1)",
        "Autograd graph lifetime and gradient ownership (tensor layer, PR 13)",
        "Mixer layout (tensor / nn layers, PR 27)",
        "Adaptive sampler hop (core / tensor layers, PR 35)",
        "Reduced time phase (tensor layer, PR 27)",
        "T-CSR append-vs-rebuild equivalence (graph layer, PR 2)",
        "Data-parallel lockstep determinism (distributed layer, PR 3)",
        "Gradient-transport equivalence (distributed layer, PR 10)",
        "Thread-safe feature-slicing accounting (device layer, PR 3)",
    ),
}


def pr_headings(path: str) -> list:
    """Every heading of ``path`` that cites a PR, without its ``#`` marks."""
    text = (ROOT / path).read_text(encoding="utf-8")
    return [heading for heading, _ in PR_HEADING.findall(text)]


@pytest.mark.parametrize("path", sorted(ALLOWED))
class TestPerPRHeadings:
    def test_every_heading_is_allowed(self, path):
        added = [heading for heading in pr_headings(path)
                 if heading not in ALLOWED[path]]
        assert added == [], (
            f"{path} gained a per-PR heading: record the change in CHANGES.md "
            "or as a line of the benchmark's current record")

    def test_the_allowlist_holds_only_present_headings(self, path):
        present = set(pr_headings(path))
        assert [heading for heading in ALLOWED[path] if heading not in present] == []

    def test_no_entry_cites_a_later_pr(self, path):
        later = [heading for heading in ALLOWED[path]
                 if int(PR_HEADING.match(f"# {heading}").group(2)) > LAST_HEADED_PR]
        assert later == []
