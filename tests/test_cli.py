"""End-to-end CLI tests: exit codes and document plumbing."""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np
import pytest

from mbqc import Angle
from mbqc.acceptance import run_all
from mbqc.cli import main
from mbqc.corpus import extended_flow_example
from mbqc.documents import (
    certificate_to_json,
    dump_json,
    open_graph_to_json,
    pattern_from_json,
    pattern_to_json,
)
from mbqc.flows import FlowCertificate, StrictPartialOrder, find_pauli_flow, induced_pattern
from mbqc.graphs import Graph, Label, OpenGraph
from mbqc.notation import parse_pattern
from mbqc.patterns import MeasurementStep, Pattern

THETA = {"θ": Angle.of_real(0.613)}
SRC_A = "Z_3^{s2} M_2^Z Z_2^{s1} M_1^{YZ,θ} E_{1,2} E_{2,3} N_1 N_2 N_3"
SRC_B = "Z_3^{s2} M_2^Z Z_3^{s1} Z_2^{s1} M_1^{YZ,θ} E_{1,2} E_{2,3} N_1 N_2 N_3"


@pytest.fixture
def edge_graph_file(tmp_path):
    og = OpenGraph.make(Graph.make([1, 2], [(1, 2)]), [1], [2], {1: Label.XY})
    path = tmp_path / "edge.json"
    path.write_text(dump_json(open_graph_to_json(og)))
    return og, str(path)


def _write(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(dump_json(payload))
    return str(path)


def test_check_flow_valid(tmp_path, edge_graph_file, capsys):
    og, gpath = edge_graph_file
    cert = find_pauli_flow(og)
    cpath = _write(tmp_path, "cert.json", certificate_to_json(cert))
    assert main(["check-flow", gpath, cpath, "--kind", "pauli"]) == 0
    assert "valid" in capsys.readouterr().out


def test_check_flow_self_corrector(tmp_path, edge_graph_file, capsys):
    og, gpath = edge_graph_file
    bad = FlowCertificate.make("pauli", og, {1: 0}, StrictPartialOrder.make([1], []))
    cpath = _write(tmp_path, "bad.json", certificate_to_json(bad))
    assert main(["check-flow", gpath, cpath]) == 1
    out = capsys.readouterr().out
    assert "kappa_{1,1}" in out


def test_check_flow_missing_compensation(tmp_path, capsys):
    og, cert = extended_flow_example()
    gpath = _write(tmp_path, "g.json", open_graph_to_json(og))
    doc = certificate_to_json(cert)
    del doc["D"]
    cpath = _write(tmp_path, "c.json", doc)
    assert main(["check-flow", gpath, cpath, "--kind", "epf"]) == 1
    assert "compensation missing" in capsys.readouterr().out


def test_check_flow_epf_rejects_unordered_past_corrector(tmp_path, capsys):
    # 1 corrects 0 and 0 corrects 1, and the empty order relates neither:
    # both linear extensions induce non-deterministic patterns.
    og = OpenGraph.make(Graph.make([0, 1], [(0, 1)]), [], [], {0: Label.X, 1: Label.Z})
    doc = {"kind": "epf", "p": {"0": [1], "1": [1]}, "order": []}
    gpath = _write(tmp_path, "g.json", open_graph_to_json(og))
    assert main(["check-flow", gpath, _write(tmp_path, "c.json", doc), "--kind", "epf"]) == 1
    assert capsys.readouterr().out == "invalid: U_1 nonempty but vertex 1 is not plane-measured\n"


def test_check_flow_compensations_only_on_epf(tmp_path, edge_graph_file, capsys):
    og, gpath = edge_graph_file
    doc = certificate_to_json(find_pauli_flow(og))
    doc["D"] = {"0": [65535]}
    assert main(["check-flow", gpath, _write(tmp_path, "c.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: a pauli certificate takes no D\n"


def test_check_flow_malformed_input(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert main(["check-flow", str(path), str(path)]) == 2


def test_check_flow_kind_mismatch(tmp_path, edge_graph_file):
    og, gpath = edge_graph_file
    cert = find_pauli_flow(og)
    cpath = _write(tmp_path, "cert.json", certificate_to_json(cert))
    assert main(["check-flow", gpath, cpath, "--kind", "epf"]) == 2


def test_find_flow_emits_certificate(tmp_path, edge_graph_file, capsys):
    og, gpath = edge_graph_file
    assert main(["find-flow", gpath, "--kind", "pauli"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "pauli"
    assert doc["p"] == {"1": [2]}


def test_find_flow_epf_on_showcase(tmp_path, capsys):
    og, _ = extended_flow_example()
    gpath = _write(tmp_path, "g.json", open_graph_to_json(og))
    assert main(["find-flow", gpath, "--kind", "epf"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "epf"


def test_find_flow_none(tmp_path, capsys):
    og = OpenGraph.make(Graph.make([0], []), [], [], {0: Label.XY})
    gpath = _write(tmp_path, "g.json", open_graph_to_json(og))
    assert main(["find-flow", gpath, "--kind", "pauli"]) == 1
    assert capsys.readouterr().out.strip() == "none"


def test_find_flow_oversized(tmp_path, capsys):
    # Each finder's vertex bound is fixed: one vertex more exits 2.
    for kind, n, bound in (("pauli", 9, 8), ("epf", 7, 6)):
        og = OpenGraph.make(Graph.make(list(range(n)), []), [], list(range(n)), {})
        gpath = _write(tmp_path, f"g{n}.json", open_graph_to_json(og))
        assert main(["find-flow", gpath, "--kind", kind]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert f"bound is {bound}" in captured.err


def test_find_flow_max_vertices(tmp_path, capsys):
    # No option lifts or lowers a finder's bound; the fixed bounds admit the example.
    og, _ = extended_flow_example()
    gpath = _write(tmp_path, "g.json", open_graph_to_json(og))
    for kind, value in (("epf", "4"), ("pauli", "40")):
        with pytest.raises(SystemExit) as exc:
            main(["find-flow", gpath, "--kind", kind, "--max-vertices", value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: --max-vertices {value}" in captured.err
    assert main(["find-flow", gpath, "--kind", "pauli"]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "pauli"


def test_check_determinism_pair(tmp_path, capsys):
    a = parse_pattern(SRC_A).bind(THETA)
    b = parse_pattern(SRC_B).bind(THETA)
    apath = _write(tmp_path, "a.json", pattern_to_json(a))
    bpath = _write(tmp_path, "b.json", pattern_to_json(b))
    assert main(["check-determinism", apath]) == 0
    assert "robustly-deterministic: yes" in capsys.readouterr().out
    assert main(["check-determinism", bpath]) == 1
    out = capsys.readouterr().out
    assert "robustly-deterministic: no" in out
    assert "first failing step" in out
    failing = next(line for line in out.splitlines() if line.startswith("first failing step"))
    assert failing.startswith("first failing step: 0 (qubit 1, label YZ, metric frobenius, distance ")
    assert failing.endswith(", kraus rank 1)")
    distance = float(failing.split("distance ")[1].split(",")[0])
    assert distance > 0.1


def test_check_determinism_empty_pattern(tmp_path, capsys):
    pat = parse_pattern("E_{1,2} N_1 N_2")
    ppath = _write(tmp_path, "p.json", pattern_to_json(pat))
    assert main(["check-determinism", ppath]) == 0


def _chain(n, drop=False):
    """The pattern a flow p(u) = {u+1} induces on the path 0-...-(n-1), all
    XY; ``drop`` removes the X correction of its middle step."""
    labels = {u: Label.XY for u in range(n - 1)}
    og = OpenGraph.make(Graph.make(range(n), [(v, v + 1) for v in range(n - 1)]), [0], [n - 1], labels)
    total = list(range(n - 1))
    angles = {u: Angle.of_real(0.4 + 0.3 * u) for u in total}
    pat = induced_pattern(og, {u: 1 << (u + 1) for u in total}, StrictPartialOrder.chain(total), total, angles)
    if drop:
        steps = list(pat.steps)
        steps[n // 2] = dataclasses.replace(steps[n // 2], x_corr=0)
        pat = Pattern(pat.graph, pat.inputs, tuple(steps))
    return pat


def _star_centre_first(leaves):
    star = Graph.make(range(leaves + 1), [(0, v) for v in range(1, leaves + 1)])
    return Pattern.make(star, [], [MeasurementStep(v, Label.XY, Angle.ZERO) for v in range(leaves + 1)])


@pytest.mark.parametrize(
    "pattern, bound, code, width",
    [
        # The default bound of 12 is a bound on the qubits held at once.
        (_chain(40), None, 0, 3),
        (_chain(40, drop=True), None, 1, 3),
        # Measuring the centre first needs all 13 qubits at once.
        (_star_centre_first(12), None, 2, None),
        (_chain(5), "2", 2, None),
    ],
)
def test_check_determinism_live_width(tmp_path, monkeypatch, capsys, pattern, bound, code, width):
    if bound is None:
        monkeypatch.delenv("MBQC_MAX_QUBITS", raising=False)
    else:
        monkeypatch.setenv("MBQC_MAX_QUBITS", bound)
    ppath = _write(tmp_path, "p.json", pattern_to_json(pattern))
    assert main(["check-determinism", ppath]) == code
    captured = capsys.readouterr()
    if width is None:
        assert captured.out == "" and "live width" in captured.err
    else:
        assert captured.out.splitlines()[1] == f"live width: {width}"


def test_check_determinism_symbolic_angle_rejected(tmp_path):
    pat = parse_pattern("M_1^{XY,theta} E_{1,2} N_1 N_2")
    ppath = _write(tmp_path, "p.json", pattern_to_json(pat))
    assert main(["check-determinism", ppath]) == 2


def test_push_then_semantics_preserved(tmp_path, capsys):
    a = parse_pattern(SRC_A).bind(THETA)
    apath = _write(tmp_path, "a.json", pattern_to_json(a))
    assert main(["push-pauli", apath, "--emit-trace"]) == 0
    captured = capsys.readouterr()
    pushed = pattern_from_json(json.loads(captured.out))
    assert "case=iii" in captured.err
    ppath = _write(tmp_path, "pushed.json", pattern_to_json(pushed))

    assert main(["semantics", apath]) == 0
    choi_a = json.loads(capsys.readouterr().out)["choi"]
    assert main(["semantics", ppath]) == 0
    choi_p = json.loads(capsys.readouterr().out)["choi"]
    a_mat = np.array(choi_a, dtype=float)
    p_mat = np.array(choi_p, dtype=float)
    assert np.max(np.abs(a_mat - p_mat)) <= 1e-9


def test_push_all_strategy(tmp_path, capsys):
    b = parse_pattern(SRC_B).bind(THETA)
    bpath = _write(tmp_path, "b.json", pattern_to_json(b))
    assert main(["push-pauli", bpath, "--strategy", "all"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "pattern-set"
    assert len(doc["patterns"]) >= 2


def test_induce_then_check_determinism(tmp_path, capsys):
    og, cert = extended_flow_example()
    gpath = _write(tmp_path, "g.json", open_graph_to_json(og))
    cpath = _write(tmp_path, "c.json", certificate_to_json(cert))
    assert main(["induce", gpath, cpath]) == 0
    pat_doc = json.loads(capsys.readouterr().out)
    ppath = _write(tmp_path, "induced.json", pat_doc)
    assert main(["check-determinism", ppath]) == 0
    assert "robustly-deterministic: yes" in capsys.readouterr().out


def test_induce_with_explicit_angles(tmp_path, capsys):
    og, cert = extended_flow_example()
    gpath = _write(tmp_path, "g.json", open_graph_to_json(og))
    cpath = _write(tmp_path, "c.json", certificate_to_json(cert))
    angles = json.dumps({"0": {"real": 1.2}, "1": {"pi_mult": "1/3"}})
    assert main(["induce", gpath, cpath, "--angles", angles]) == 0
    doc = json.loads(capsys.readouterr().out)
    by_qubit = {s["qubit"]: s for s in doc["steps"]}
    assert by_qubit[1]["angle"] == {"pi_mult": "1/3"}


def test_induce_incompatible_total_order(tmp_path, capsys):
    og, cert = extended_flow_example()
    gpath = _write(tmp_path, "g.json", open_graph_to_json(og))
    cpath = _write(tmp_path, "c.json", certificate_to_json(cert))
    assert main(["induce", gpath, cpath, "--total-order", "3,2,1,0"]) == 2


def test_corpus_verify_single_criterion(capsys):
    assert main(["corpus-verify", "--criteria", "5"]) == 0
    out = capsys.readouterr().out
    assert "criterion  5: PASS" in out
    assert run_all([]) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["corpus-verify", "--criteria", "x"],
        ["corpus-verify", "--criteria", "11"],
        ["corpus-verify", "--criteria", "0,12"],
        ["corpus-verify", "--criteria", ","],
        ["corpus-verify", "--criteria", ""],
        ["induce", "G", "C", "--total-order", "a,b"],
        ["induce", "G", "C", "--angles", '{"x": {"real": 0.5}}'],
        ["induce", "G", "C", "--angles", '{"99": {"real": 0.5}}'],
        ["induce", "G", "C", "--angles", "[1, 2]"],
        ["induce", "G", "C", "--angles", "{not json"],
        ["induce", "G", "C", "--angles", '{"0": {"real": NaN}}'],
        ["induce", "G", "C", "--angles", '{"0": {"real": true}}'],
        ["induce", "G", "C", "--angles", '{"1": {"real": 0.5}, "01": {"real": 0.5}}'],
        ["induce", "G", "C", "--total-order", "0,+1,2,3"],
        ["corpus-verify", "--criteria", "+5"],
        ["check-flow", "G", "Q", "--kind", "gflow"],
        ["check-flow", "G", "P"],
        ["check-determinism", "C"],
        ["check-determinism", "P", "--tol=nan"],
        ["check-determinism", "P", "--tol=inf"],
        ["check-determinism", "P", "--tol=-1"],
        ["semantics", "G"],
        # Ids past int()'s 4,300-digit limit.
        ["induce", "G", "C", "--total-order", "1" * 5000],
        ["induce", "G", "C", "--angles", '{"' + "1" * 5000 + '": {"real": 0.5}}'],
        ["corpus-verify", "--criteria", "1" * 5000],
    ],
)
def test_malformed_arguments_exit_2(tmp_path, argv, capsys):
    og, cert = extended_flow_example()
    paths = {
        "G": _write(tmp_path, "g.json", open_graph_to_json(og)),
        "C": _write(tmp_path, "c.json", certificate_to_json(cert)),
        "Q": _write(tmp_path, "q.json", certificate_to_json(find_pauli_flow(og))),
        "P": _write(tmp_path, "p.json", pattern_to_json(parse_pattern(SRC_A).bind(THETA))),
    }
    assert main([paths.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "kind, mutate",
    [
        ("certificate", lambda d: d.update(kind=["epf"])),
        ("certificate", lambda d: d.update(order=[["x", 1]])),
        ("certificate", lambda d: d.update(order=[[0, None]])),
        ("certificate", lambda d: d.update(order=[[0, 1.5]])),
        ("certificate", lambda d: d["p"].update({"-1": [1]})),
        ("certificate", lambda d: d["D"].update({"01": [2]})),
        ("certificate", lambda d: d["p"].update({"1" * 5000: [1]})),  # past int()'s digit limit
        # Ids within the bound but outside the graph.
        ("certificate", lambda d: d["D"].update({"0": [65535]})),
        ("certificate", lambda d: d["D"].update({"9": [2]})),
        ("pattern", lambda d: d["steps"][0].update(qubit=-1)),
        ("pattern", lambda d: d["steps"][0].update(qubit=True)),
        ("pattern", lambda d: d["steps"][0].update(angle={"real": float("nan")})),
        ("pattern", lambda d: d["steps"][0].update(angle={"real": float("inf")})),
        # An isolated output above the id bound; the pattern is otherwise valid.
        ("pattern", lambda d: (d["vertices"].append(65536), d["outputs"].append(65536))),
    ],
)
def test_malformed_documents_exit_2(tmp_path, kind, mutate, capsys):
    og, cert = extended_flow_example()
    if kind == "certificate":
        doc = certificate_to_json(cert)
        argv = ["check-flow", _write(tmp_path, "g.json", open_graph_to_json(og))]
    else:
        doc = pattern_to_json(parse_pattern(SRC_A).bind(THETA))
        argv = ["check-determinism"]
    mutate(doc)
    assert main(argv + [_write(tmp_path, "doc.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("value", ["abc", "-3"])
def test_bad_max_qubits_variable_exits_2(tmp_path, monkeypatch, capsys, value):
    pat = parse_pattern(SRC_A).bind(THETA)
    ppath = _write(tmp_path, "p.json", pattern_to_json(pat))
    monkeypatch.setenv("MBQC_MAX_QUBITS", value)
    assert main(["check-determinism", ppath]) == 2
    assert "MBQC_MAX_QUBITS" in capsys.readouterr().err


@pytest.mark.parametrize("preset", [None, "4"])
def test_blas_threads_default_to_one(monkeypatch, capsys, preset):
    if preset is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    assert main(["corpus-verify", "--criteria", "x"]) == 2
    assert os.environ["OPENBLAS_NUM_THREADS"] == (preset or "1")
