"""Checks on the project's Python sources as text.

Every source parses as Python 3.10, the oldest version ``pyproject.toml``
supports, so a newer-only construct fails here and not first on a 3.10
install. Every public name of segforge has a caller outside the tests.
"""

from __future__ import annotations

import ast
import re
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


def _docstrings(tree: ast.Module) -> set[int]:
    """The ids of the docstring nodes of a module and its classes and functions."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.body and isinstance(node.body[0], ast.Expr) \
                and isinstance(node.body[0].value, ast.Constant) \
                and isinstance(node.body[0].value.value, str):
            found.add(id(node.body[0].value))
    return found


def _names(tree: ast.Module) -> list[tuple[int, str]]:
    """Each (line, name) that the code names: a name, an attribute, an imported
    name, or a word of a string constant that is not a docstring."""
    docstrings = _docstrings(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [part for alias in node.names for part in alias.name.split(".")]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docstrings:
            names = re.findall(r"\w+", node.value)
        else:
            continue
        found += [(node.lineno, name) for name in names]
    return found


def test_no_api_only_the_tests_use():
    """Every public function, class and method of segforge is named outside its
    own definition by segforge, the benchmark, the tools or ``pyproject.toml``;
    what only the tests name is not the product's."""
    sources = sorted(path for folder in ("src", "perfbench", "tools")
                     for path in (ROOT / folder).rglob("*.py"))
    definitions = []
    named: dict[str, list[tuple[Path, int]]] = {}
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.is_relative_to(ROOT / "src" / "segforge"):
            for node in tree.body:
                members = node.body if isinstance(node, ast.ClassDef) else []
                definitions += [(path, d) for d in [node, *members] if isinstance(
                    d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not d.name.startswith("_")]
        for line, name in _names(tree):
            named.setdefault(name, []).append((path, line))
    named_in_config = set(re.findall(r"\w+", (ROOT / "pyproject.toml").read_text(encoding="utf-8")))
    unused = [f"{path.relative_to(ROOT)}:{d.lineno}: {d.name}" for path, d in definitions
              if d.name not in named_in_config and not any(
                  where != path or not d.lineno <= line <= d.end_lineno
                  for where, line in named.get(d.name, []))]
    assert definitions
    assert not unused, unused
