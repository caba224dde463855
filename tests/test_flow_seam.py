"""One place enumerates correction sets: in ``mbqc.flows`` only the candidate
seam ``_Candidates`` names ``subsets``, so an algebraic finder that replaces
the enumeration replaces that class and nothing else."""

from __future__ import annotations

import ast
from pathlib import Path

import mbqc

FLOWS = Path(mbqc.__file__).resolve().parent / "flows.py"
SEAM = "_Candidates"


def _subsets_lines(node: ast.AST) -> list[int]:
    return [n.lineno for n in ast.walk(node) if isinstance(n, ast.Name) and n.id == "subsets"]


def test_only_the_candidate_seam_enumerates_subsets():
    tree = ast.parse(FLOWS.read_text(encoding="utf-8"))
    seams = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == SEAM]
    assert len(seams) == 1 and _subsets_lines(seams[0]), f"{SEAM} no longer enumerates subsets"
    outside = [
        f"flows.py:{line}"
        for node in tree.body
        if node is not seams[0] and not isinstance(node, ast.ImportFrom)
        for line in _subsets_lines(node)
    ]
    assert not outside, f"subsets used outside {SEAM}: " + ", ".join(outside)
