"""The design docs stop growing per-PR sections.

``docs/BENCHMARKS.md`` and ``docs/ARCHITECTURE.md`` keep, per benchmark and
per layer, the current record; a change's own record goes to CHANGES.md or
as a line in the benchmark's current record, and a superseded one moves to
``docs/benchmarks-history.md``.  So the headings of the two files that cite
a PR are an allowlist that may only lose entries: a heading missing from it
fails, an entry whose heading is gone must leave it, and no entry may cite a
PR after the last one that added such a heading.

Each of the two files holds at most its line cap, a number that may only go
down: a record that a later one supersedes moves, verbatim, to
``docs/benchmarks-history.md``.

``docs/ARCHITECTURE.md`` is the map of the code: its ``##`` sections run
in dataflow order, one per layer, its module map and README's repository
layout name every package under ``src/repro``, and every section a
docstring under ``src/`` or ``tests/`` points at is one of its headings.

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


#: per file, the most lines it may hold; lower a cap when a file shrinks,
#: never raise one.
LINE_CAPS = {
    "docs/BENCHMARKS.md": 600,
    "docs/ARCHITECTURE.md": 988,
}


@pytest.mark.parametrize("path", sorted(LINE_CAPS))
def test_doc_stays_under_its_line_cap(path):
    lines = len((ROOT / path).read_text(encoding="utf-8").splitlines())
    assert lines <= LINE_CAPS[path], (
        f"{path} has {lines} lines, over its cap of {LINE_CAPS[path]}: move "
        "superseded records to docs/benchmarks-history.md")


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


#: the ``##`` sections of ARCHITECTURE.md: the map, then one per layer in
#: dataflow order, then the contracts and the extension points.
ARCHITECTURE_SECTIONS = (
    "Module map",
    "Dataflow: one training iteration",
    "Graph layer",
    "Sampling layer",
    "Device layer",
    "Prep layer",
    "Tensor layer",
    "Model layer: nn, encoders and models",
    "Eval layer: scoring",
    "Stream layer",
    "Serve layer",
    "Distributed layer",
    "Contracts",
    "Where to extend",
)

#: a docstring's pointer into ARCHITECTURE.md by section name.
SECTION_CITATION = re.compile(r'docs/ARCHITECTURE\.md`*,\s+"([^"]+)"')

PACKAGES = sorted(path.name for path in (ROOT / "src/repro").iterdir()
                  if (path / "__init__.py").exists())


def architecture() -> str:
    return (ROOT / "docs/ARCHITECTURE.md").read_text(encoding="utf-8")


def test_the_sections_follow_the_dataflow():
    assert tuple(re.findall(r"^## (.+)$", architecture(), re.MULTILINE)) \
        == ARCHITECTURE_SECTIONS


@pytest.mark.parametrize("package", PACKAGES)
def test_every_package_is_on_both_maps(package):
    """The module map and README's repository layout name every package."""
    module_map = architecture().split("\n## Module map\n", 1)[1].split("\n## ", 1)[0]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    layout = readme.split("\n## Repository layout\n", 1)[1].split("```")[1]
    name = re.compile(rf"src/repro/{package}\b")
    assert name.search(module_map), f"ARCHITECTURE.md's module map lacks {package}"
    assert name.search(layout), f"README's repository layout lacks {package}"


def test_every_cited_section_is_a_heading():
    headings = set(re.findall(r"^#+ (.+)$", architecture(), re.MULTILINE))
    cited = {}
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        for name in SECTION_CITATION.findall(path.read_text(encoding="utf-8")):
            cited.setdefault(" ".join(name.split()), []).append(
                str(path.relative_to(ROOT)))
    assert cited
    assert {name: paths for name, paths in cited.items()
            if name not in headings} == {}


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
