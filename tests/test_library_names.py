"""Every library definition has a caller: a top-level function or class in
``src/mbqc`` is exported by ``mbqc`` or named by the library or the
benchmark outside its own definition.  ``mbqc.oracles`` is exempt, because
its callers are the acceptance suite and the tests.  Every name a library
module imports at top level is used in that module."""

from __future__ import annotations

import ast
from pathlib import Path

import mbqc

SRC = Path(mbqc.__file__).resolve().parent
BENCH = SRC.parent.parent / "bench"


def _names(node: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name ``node`` loads, reads as an attribute or imports, outside ``skip``."""
    out: set[str] = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
        stack.extend(ast.iter_child_nodes(n))
    return out


def test_every_library_definition_is_exported_or_called():
    assert BENCH.is_dir(), BENCH
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    named = {path: _names(tree) for path, tree in trees.items()}
    for path in sorted(BENCH.glob("*.py")):
        named[path] = _names(ast.parse(path.read_text(encoding="utf-8")))
    uncalled = []
    for path, tree in trees.items():
        if path.name == "oracles.py":
            continue
        elsewhere = set(mbqc.__all__).union(*(names for p, names in named.items() if p != path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") or name in elsewhere or name in _names(tree, skip=node):
                continue
            uncalled.append(f"{path.name}:{node.lineno}: {name}")
    assert not uncalled, "defined but neither exported nor called: " + ", ".join(uncalled)


def test_every_top_level_import_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in loaded:
                    unused.append(f"{path.name}:{node.lineno}: {name}")
    assert not unused, "imported but never used: " + ", ".join(unused)
