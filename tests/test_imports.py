"""The lazy package namespace, and which entry points leave numpy unloaded."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mbqc
from mbqc.angles import Angle
from mbqc.corpus import extended_flow_example
from mbqc.documents import certificate_to_json, dump_json, open_graph_to_json, pattern_to_json
from mbqc.flows import find_pauli_flow
from mbqc.notation import parse_pattern

# The public names and the submodule that defines each one.
PUBLIC = {
    "angles": ["Angle"],
    "bits": ["bit_list", "mask_of"],
    "errors": [
        "DocumentError", "DomainError", "InvariantViolationError", "MbqcError", "PatternSyntaxError",
        "PreconditionError", "ResourceLimitError",
    ],
    "flows": [
        "CorrectionFunction", "FlowCertificate", "StrictPartialOrder", "check_extended_pauli_flow",
        "check_gflow", "check_pauli_flow", "find_extended_pauli_flow", "find_inducing_certificate",
        "find_pauli_flow", "induced_pattern", "is_induced_by",
    ],
    "graphs": ["Axis", "Graph", "Label", "OpenGraph", "odd_neighborhood"],
    "notation": ["parse_pattern", "serialize_pattern"],
    "pauli": ["PauliOperator"],
    "patterns": ["MeasurementStep", "Pattern", "is_pauli_first", "underlying_open_graph"],
    "rewrite": ["PushChoice", "RewriteTrace", "normalize_pauli_first", "pauli_inversions", "push_step"],
    "simulate": [
        "BranchMap", "MeasurementBasisPair", "QuantumState", "Superoperator", "branch_map",
        "enumerate_projected_stabilizers", "graph_state", "is_robustly_deterministic",
        "measurement_basis", "plane_fixed_point", "semantics", "stabilizer_sign",
        "superoperator_equal",
    ],
}


def test_public_names_resolve_to_their_submodule_objects():
    names = {name for names in PUBLIC.values() for name in names}
    assert len(names) == 51
    assert set(mbqc.__all__) == names and len(mbqc.__all__) == 51
    assert names <= set(dir(mbqc))
    for module, module_names in PUBLIC.items():
        sub = importlib.import_module(f"mbqc.{module}")
        for name in module_names:
            assert getattr(mbqc, name) is getattr(sub, name), name
    with pytest.raises(AttributeError):
        mbqc.no_such_name


def _run_fresh(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this checkout's mbqc."""
    src = str(Path(mbqc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=120
    )


# Touches every public name and imports every submodule (the CLI included)
# before the acceptance suite.
_ORACLES_SCRIPT = """
import importlib, pkgutil, sys
import mbqc
for name in mbqc.__all__:
    getattr(mbqc, name)
for info in pkgutil.iter_modules(mbqc.__path__):
    if info.name not in ("acceptance", "oracles"):
        importlib.import_module("mbqc." + info.name)
assert "mbqc.oracles" not in sys.modules, "the library imported mbqc.oracles"
import mbqc.acceptance
assert "mbqc.oracles" in sys.modules, "mbqc.acceptance did not import mbqc.oracles"
"""


def test_only_the_acceptance_suite_imports_the_oracles():
    proc = _run_fresh(_ORACLES_SCRIPT)
    assert proc.returncode == 0, proc.stderr


# Runs in a fresh interpreter, because this one has loaded numpy already.
_SCRIPT = """
import contextlib, io, json, sys
import mbqc
assert "numpy" not in sys.modules, "import mbqc"
import mbqc.cli
assert "numpy" not in sys.modules, "import mbqc.cli"
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(mbqc.cli.main(argv))
    assert "numpy" not in sys.modules, argv
print(json.dumps(codes))
"""


def test_flow_subcommands_leave_numpy_unloaded(tmp_path):
    def write(name, doc) -> str:
        path = tmp_path / name
        path.write_text(dump_json(doc))
        return str(path)

    og, _ = extended_flow_example()
    pattern = parse_pattern("Z_3^{s2} M_2^Z Z_2^{s1} M_1^{YZ,t} E_{1,2} E_{2,3} N_1 N_2 N_3")
    pattern = pattern.bind({"t": Angle.of_real(0.613)})
    g = write("g.json", open_graph_to_json(og))
    c = write("c.json", certificate_to_json(find_pauli_flow(og)))
    p = write("p.json", pattern_to_json(pattern))
    runs = [
        (["check-flow", g, c], 0),
        (["find-flow", g, "--kind", "pauli"], 0),
        (["find-flow", g, "--kind", "epf"], 0),
        (["induce", g, c], 0),
        (["push-pauli", p], 0),
        (["corpus-verify", "--criteria", "x"], 2),
    ]
    proc = _run_fresh(_SCRIPT, json.dumps([argv for argv, _ in runs]))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [code for _, code in runs]
