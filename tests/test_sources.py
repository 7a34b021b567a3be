"""Every Python source of the project parses as Python 3.10, the oldest
version ``pyproject.toml`` supports, so a newer-only construct fails here
and not first on a 3.10 install."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_source_parses_as_python_3_10():
    folders = ("src", "tests", "perfbench", "tools")
    sources = sorted(path for folder in folders for path in (ROOT / folder).rglob("*.py"))
    assert {path.relative_to(ROOT).parts[0] for path in sources} == set(folders)
    failures = []
    for path in sources:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert not failures, failures
