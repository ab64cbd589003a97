"""The design docs stop growing per-PR sections.

``docs/BENCHMARKS.md`` and ``docs/ARCHITECTURE.md`` keep, per benchmark and
per layer, the current record; a change's own record goes to CHANGES.md or
as a line in the benchmark's current record, and a superseded one moves to
``docs/benchmarks-history.md``.  So the headings of the two files that cite
a PR are an allowlist that may only lose entries: a heading missing from it
fails, an entry whose heading is gone must leave it, and no entry may cite a
PR after the last one that added such a heading.

The ``## Contracts`` section of ``docs/ARCHITECTURE.md`` is an executable
index: every ``###`` contract names at least one test that enforces it, as
pytest prints its id (``tests/<file>.py::<Class>::<test>``), and every id it
names is a test that pytest collects.
"""

import ast
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


#: a test id as pytest prints it, in backticks: ``tests/<file>.py::<name>...``.
TEST_ID = re.compile(r"`(tests/[\w/]+\.py)((?:::\w+)+)`")


def contracts() -> dict:
    """Each ``###`` contract of ARCHITECTURE.md's ``## Contracts`` section:
    heading -> text."""
    text = (ROOT / "docs/ARCHITECTURE.md").read_text(encoding="utf-8")
    section = text.split("\n## Contracts\n", 1)[1].split("\n## ", 1)[0]
    parts = re.split(r"^### (.+)$", section, flags=re.MULTILINE)
    return dict(zip(parts[1::2], parts[2::2]))


def collected(path: str, names: list) -> bool:
    """Whether ``path::names`` is a test pytest collects by its default
    rules: a ``test*`` function, at module level or in a ``Test*`` class, or
    a ``Test*`` class holding one."""
    scope = ast.parse((ROOT / path).read_text(encoding="utf-8")).body
    node = None
    for name in names:
        node = next((n for n in scope if getattr(n, "name", None) == name), None)
        if isinstance(node, ast.ClassDef) and name.startswith("Test"):
            scope = node.body
        elif not (isinstance(node, ast.FunctionDef) and name.startswith("test")
                  and name == names[-1]):
            return False
    if isinstance(node, ast.ClassDef):
        return any(isinstance(n, ast.FunctionDef) and n.name.startswith("test")
                   for n in node.body)
    return True


CONTRACTS = contracts()


def test_the_contracts_section_is_found():
    assert {"Mask / padding (sampling layer, since PR 1)",
            "Thread-safe feature-slicing accounting (device layer, PR 3)"} <= set(CONTRACTS)


@pytest.mark.parametrize("heading", sorted(CONTRACTS))
def test_every_contract_cites_a_collected_test(heading):
    ids = TEST_ID.findall(CONTRACTS[heading])
    assert ids, f"contract {heading!r} cites no tests/...py::... id"
    unresolved = [path + rest for path, rest in ids
                  if not collected(path, rest.split("::")[1:])]
    assert unresolved == []
