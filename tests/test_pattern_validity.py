"""One module owns pattern validity: a ``Pattern`` checks the normal-form
rules when it is built, so no ``src/mbqc`` module other than ``patterns.py``
names the check (``_violations``) or the checkers it replaced (``validate``,
``require_valid``), as a name, an attribute, an import or an export string."""

from __future__ import annotations

import ast
from pathlib import Path

import mbqc

SRC = Path(mbqc.__file__).resolve().parent
OWNER = "patterns.py"
CHECK = "_violations"
NAMES = {CHECK, "validate", "require_valid"}


def _named(tree: ast.AST) -> list[tuple[int, str]]:
    out = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            name = n.id
        elif isinstance(n, ast.Attribute):
            name = n.attr
        elif isinstance(n, ast.alias):
            name = n.name
        elif isinstance(n, (ast.FunctionDef, ast.ClassDef)):
            name = n.name
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            name = n.value
        else:
            continue
        if name in NAMES:
            out.append((n.lineno, name))
    return out


def test_only_patterns_checks_pattern_validity():
    owner = _named(ast.parse((SRC / OWNER).read_text(encoding="utf-8")))
    assert {name for _, name in owner} == {CHECK}, f"{OWNER} no longer owns {CHECK}"
    outside = [
        f"{path.name}:{line} names {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != OWNER
        for line, name in _named(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not outside, "pattern validity checked outside patterns.py: " + ", ".join(outside)
