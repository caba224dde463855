"""JSON document round-trip and error tests."""

from __future__ import annotations

import json

import pytest

from mbqc import Angle, DocumentError, find_pauli_flow
from mbqc.corpus import extended_flow_example, pattern_corpus
from mbqc.documents import (
    angle_from_json,
    angle_to_json,
    certificate_from_json,
    certificate_to_json,
    open_graph_from_json,
    open_graph_to_json,
    pattern_from_json,
    pattern_to_json,
)
from mbqc.flows import induced_pattern
from mbqc.graphs import MAX_VERTEX_ID
from mbqc.notation import parse_pattern


def test_open_graph_roundtrip():
    og, _ = extended_flow_example()
    doc = open_graph_to_json(og)
    assert doc["kind"] == "open-graph"
    assert open_graph_from_json(json.loads(json.dumps(doc))) == og


def test_pattern_roundtrip_corpus_sample():
    for i, pat in enumerate(pattern_corpus()):
        if i >= 200:
            break
        doc = pattern_to_json(pat)
        assert pattern_from_json(json.loads(json.dumps(doc))) == pat


def test_pattern_with_symbolic_angle_roundtrip():
    pat = parse_pattern("M_1^{XY,theta} E_{1,2} N_1 N_2")
    doc = pattern_to_json(pat)
    assert doc["steps"][0]["angle"] == {"var": "theta"}
    assert pattern_from_json(doc) == pat


def test_certificate_roundtrip():
    og, cert = extended_flow_example()
    doc = certificate_to_json(cert)
    assert doc["kind"] == "epf"
    assert doc["D"]["1"] == [2]
    back = certificate_from_json(json.loads(json.dumps(doc)), og)
    assert back == cert


def test_pauli_certificate_roundtrip():
    from mbqc import Graph, Label, OpenGraph

    og = OpenGraph.make(Graph.make([1, 2], [(1, 2)]), [1], [2], {1: Label.XY})
    cert = find_pauli_flow(og)
    doc = certificate_to_json(cert)
    assert doc["kind"] == "pauli" and "D" not in doc
    assert certificate_from_json(doc, og) == cert


def test_angle_forms_roundtrip():
    for angle in (Angle.ZERO, Angle.PI, Angle.of_pi("1/3"), Angle.of_real(1.25), Angle.variable("t")):
        assert angle_from_json(angle_to_json(angle)) == angle


@pytest.mark.parametrize(
    "payload",
    [
        {"pi_mult": "x/y"},
        {"real": "nope"},
        {"var": ""},
        {"pi_mult": "1/2", "real": 0.1},
        {"weird": 1},
        {"real": float("nan")},
        {"real": float("inf")},
        {"real": 10**400},
        {"real": True},
        {"pi_mult": True},
        {"pi_mult": float("inf")},
        {"var": "pi"},  # the notation reads these two as the angle pi
        {"var": "π"},
        {"var": "2t"},
        {"var": "t u"},
    ],
)
def test_bad_angles(payload):
    with pytest.raises(DocumentError):
        angle_from_json(payload)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(kind="nope"),
        lambda d: d.update(vertices=[0, 0]),
        lambda d: d.update(edges=[[0, 0]]),
        lambda d: d.update(labels={"7": "XY"}),
        lambda d: d.update(labels={"0": "Q"}),
        lambda d: d["labels"].update({"00": "YZ"}),
        lambda d: d.update(edges=[["a", 1]]),
        lambda d: d.update(edges=[[0, 1.7]]),
        lambda d: d.update(vertices=[0, True, 2, 3, 4]),
        # An isolated output above the id bound; the graph is otherwise valid.
        lambda d: (d["vertices"].append(MAX_VERTEX_ID + 1), d["outputs"].append(MAX_VERTEX_ID + 1)),
        lambda d: d["labels"].update({"9" * 5000: "XY"}),  # past int()'s digit limit
    ],
)
def test_bad_open_graph_documents(mutate):
    og, _ = extended_flow_example()
    doc = open_graph_to_json(og)
    mutate(doc)
    with pytest.raises(DocumentError):
        open_graph_from_json(doc)


def test_pattern_outputs_cross_check():
    pat = parse_pattern("M_1^X E_{1,2} N_1 N_2")
    doc = pattern_to_json(pat)
    doc["outputs"] = [1]
    with pytest.raises(DocumentError):
        pattern_from_json(doc)


def test_certificate_cyclic_order_rejected():
    og, cert = extended_flow_example()
    doc = certificate_to_json(cert)
    doc["order"] = [[0, 1], [1, 0]]
    with pytest.raises(DocumentError):
        certificate_from_json(doc, og)


def test_induced_pattern_document_roundtrip():
    og, cert = extended_flow_example()
    angles = {
        v: Angle.of_pi("1/4") if og.label(v).is_plane else Angle.ZERO
        for v in og.measured_vertices()
    }
    pat = induced_pattern(og, cert.p_map(), cert.order, [0, 1, 2, 3], angles)
    assert pattern_from_json(pattern_to_json(pat)) == pat
