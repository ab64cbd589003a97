"""The markdown link checker (``tools/check_links.py``): file targets, and
anchors by GitHub's heading slug rule."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("check_links",
                                               ROOT / "tools" / "check_links.py")
check_links = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_links)


@pytest.mark.parametrize("heading, slug", [
    ("Graph layer", "graph-layer"),
    ("Mask / padding (sampling layer, since PR 1)",
     "mask--padding-sampling-layer-since-pr-1"),
    ("Mixer layout (tensor / nn layers, PR 27)",
     "mixer-layout-tensor--nn-layers-pr-27"),
    ("`BENCH_layers.json` — `bench_layers.py`", "bench_layersjson--bench_layerspy"),
    ("Prep-overlap decision (PR 18)", "prep-overlap-decision-pr-18"),
    ("See [the map](ARCHITECTURE.md)", "see-the-map"),
])
def test_slug_follows_githubs_rule(heading, slug):
    assert check_links.slug(heading) == slug


def test_repeated_headings_are_numbered_and_fenced_code_is_not_a_heading():
    text = ("# Top\n\n## Notes\n\n```bash\n# not a heading\n```\n\n"
            "### Notes\n\n## Notes ##\n")
    assert check_links.anchors(text) == {"top", "notes", "notes-1", "notes-2"}


def test_broken_anchors_are_reported(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "map.md").write_text("# Map\n\n## Graph layer\n\ntext\n")
    (tmp_path / "index.md").write_text(
        "# Index\n\n"
        "[ok](map.md) [ok](map.md#graph-layer) [ok](#index)\n"
        "[gone](map.md#graph-layer-pr-2) [gone](#nowhere) [gone](missing.md)\n"
        "```\n[skipped](#in-a-fence)\n```\n")
    broken = [target for target, _ in check_links.check_file(tmp_path / "index.md")]
    assert broken == ["map.md#graph-layer-pr-2", "#nowhere", "missing.md"]
    assert check_links.main([str(tmp_path / "index.md")]) == 1
    assert check_links.main([str(tmp_path / "map.md")]) == 0


def test_the_repository_docs_have_no_broken_link(monkeypatch):
    monkeypatch.chdir(ROOT)
    broken = {str(path): check_links.check_file(path)
              for path in check_links.collect_markdown(["README.md", "docs"])}
    assert {path: links for path, links in broken.items() if links} == {}
