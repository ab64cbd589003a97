#!/usr/bin/env python3
"""Markdown link checker for the docs CI job (stdlib only).

Usage::

    python tools/check_links.py README.md docs [more files or dirs ...]

Collects every ``*.md`` file from the given paths and verifies that each
relative link target — inline ``[text](target)`` and reference-style
``[label]: target`` definitions — resolves to an existing file or directory,
relative to the linking file.  External schemes (``http(s)://``, ``mailto:``)
are skipped.  An anchor — ``#anchor`` in the linking file, or
``file.md#anchor`` — must name a heading of its markdown target, by GitHub's
slug rule (:func:`slug`); headings inside fenced code do not count.

Exits non-zero listing every broken link.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

#: inline links [text](target); stops at the first unescaped closing paren.
INLINE_LINK = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
#: images ![alt](target) share the target syntax.
IMAGE_LINK = re.compile(r"\!\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
#: reference definitions: [label]: target
REFERENCE_DEF = re.compile(r"^\s*\[[^\]]+\]:\s+(\S+)", re.MULTILINE)
#: fenced code blocks are stripped before scanning (``` ... ```).
CODE_FENCE = re.compile(r"```.*?```", re.DOTALL)
#: an ATX heading line: ``## text``.
HEADING = re.compile(r"^#{1,6}[ \t]+(.+?)(?:[ \t]+#+)?[ \t]*$", re.MULTILINE)
#: an inline link or image inside a heading, which renders as its text.
HEADING_LINK = re.compile(r"!?\[([^\]]*)\]\([^)]*\)")

EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "ftp://")


def collect_markdown(paths: Iterable[str]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.md")))
        elif path.suffix.lower() == ".md" and path.exists():
            files.append(path)
        else:
            print(f"warning: skipping {raw} (not a markdown file or directory)")
    return files


def extract_targets(text: str) -> List[str]:
    text = CODE_FENCE.sub("", text)
    targets = INLINE_LINK.findall(text) + IMAGE_LINK.findall(text)
    targets += REFERENCE_DEF.findall(text)
    return targets


def slug(heading: str) -> str:
    """GitHub's anchor for a heading's text: links and code spans render as
    their text, then lowercase, drop every character but letters, digits,
    ``_``, ``-`` and spaces, and turn each space into ``-``."""
    text = HEADING_LINK.sub(r"\1", heading).replace("`", "").lower()
    return re.sub(r"[^\w\- ]", "", text).replace(" ", "-")


def anchors(text: str) -> Set[str]:
    """Every heading anchor of a markdown text; a repeated slug gets a
    ``-1``, ``-2``, ... suffix, as GitHub numbers them."""
    seen: Dict[str, int] = {}
    found = set()
    for heading in HEADING.findall(CODE_FENCE.sub("", text)):
        base = slug(heading)
        count = seen.get(base, 0)
        seen[base] = count + 1
        found.add(f"{base}-{count}" if count else base)
    return found


def check_file(path: Path) -> List[Tuple[str, str]]:
    """Return (target, reason) for every broken link in ``path``."""
    broken = []
    for target in extract_targets(path.read_text(encoding="utf-8")):
        if target.startswith(EXTERNAL_PREFIXES):
            continue
        file_part, _, anchor = target.partition("#")
        resolved = (path.parent / file_part).resolve() if file_part else path.resolve()
        try:
            resolved.relative_to(Path.cwd().resolve())
        except ValueError:
            # Escapes the repository: a GitHub-web-relative URL (e.g. the CI
            # badge's ../../actions/... path) that only resolves on github.com.
            continue
        if not resolved.exists():
            broken.append((target, f"missing: {resolved}"))
        elif (anchor and resolved.suffix.lower() == ".md"
              and anchor not in anchors(resolved.read_text(encoding="utf-8"))):
            broken.append((target, f"no heading '#{anchor}' in {resolved}"))
    return broken


def main(argv: List[str]) -> int:
    if not argv:
        print(__doc__)
        return 2
    files = collect_markdown(argv)
    if not files:
        print("error: no markdown files found")
        return 2
    failures = 0
    for path in files:
        for target, reason in check_file(path):
            print(f"{path}: broken link '{target}' ({reason})")
            failures += 1
    print(f"checked {len(files)} markdown file(s): "
          f"{failures} broken link(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
