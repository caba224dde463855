"""Each numerical tolerance has one name: a float literal below 1e-6 appears
in the library only where one of the named tolerance constants is assigned."""

from __future__ import annotations

import ast
from pathlib import Path

import mbqc

NAMED = {"DEFAULT_TOL", "NORM_FLOOR", "PHASE_TOL", "PAULI_ANGLE_TOL"}


def _is_small(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (float, complex))
        and 0 < abs(node.value) < 1e-6
    )


def test_small_float_literals_are_named_tolerances():
    stray, named = [], set()
    for path in sorted(Path(mbqc.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and target.id in NAMED and _is_small(node.value):
                    allowed.add(node.value)
                    named.add(target.id)
        stray += [
            f"{path.name}:{node.lineno}: {node.value!r}"
            for node in ast.walk(tree)
            if _is_small(node) and node not in allowed
        ]
    assert not stray, "unnamed tolerances: " + ", ".join(stray)
    assert named == NAMED
