"""JSON document formats for open graphs, patterns, and certificates.

Open graph::

    {"kind": "open-graph", "vertices": [0, 1], "edges": [[0, 1]],
     "inputs": [0], "outputs": [1], "labels": {"0": "XY"}}

A pattern document carries the same graph fields plus ``steps`` in execution
order; its ``outputs`` must equal the unmeasured vertices.  Angles are
``{"pi_mult": "1/4"}`` (exact), ``{"real": 0.25}``, or ``{"var": "theta"}``
for a free symbolic angle.  A certificate document's ``kind`` is the flow
kind (``epf``, ``pauli``, or ``gflow``); only an ``epf`` certificate carries
``D``, its compensation sets::

    {"kind": "epf", "p": {"0": [0, 4]}, "order": [[0, 1]], "D": {"1": [2]}}

Certificates do not embed their graph; parsing one requires the open graph
it refers to.  Vertex ids are JSON integers from 0 to ``MAX_VERTEX_ID``
(65,535: a vertex-set bitmask stays within 8 KB), or ASCII digits where they
are object keys; real angles are finite, and variables are names, not pi.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Callable, TypeVar

from .angles import Angle
from .bits import bit_list, mask_of
from .errors import DocumentError, DomainError
from .flows import FlowCertificate, StrictPartialOrder
from .graphs import MAX_VERTEX_ID, Graph, Label, OpenGraph, label_from_text, vertex_id_from_text
from .patterns import MeasurementStep, Pattern

#: Certificate document kind -> flow kind.
FLOW_KINDS = {"epf": "extended", "pauli": "pauli", "gflow": "gflow"}
_FLOW_NAMES = {v: k for k, v in FLOW_KINDS.items()}

_T = TypeVar("_T")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DocumentError(message)


def _id(x: Any, what: str) -> int:
    """A vertex id written as a JSON number: an integer from 0 to
    ``MAX_VERTEX_ID``, not a bool or a float."""
    ok = type(x) is int and 0 <= x <= MAX_VERTEX_ID
    _require(ok, f"{what}: expected an id up to {MAX_VERTEX_ID}, got {x!r}")
    return x


def id_from_text(text: str, what: str) -> int:
    """A vertex id written as a string (an object key or an argument): ASCII
    decimal digits naming an id of at most ``MAX_VERTEX_ID``."""
    v = vertex_id_from_text(text)
    _require(v is not None, f"{what}: expected an id up to {MAX_VERTEX_ID}, got {text[:20]!r}")
    return v


def _ids(payload: Any, what: str) -> list[int]:
    _require(isinstance(payload, list), f"{what} must be a list")
    return [_id(v, what) for v in payload]


def _id_set(payload: Any, what: str) -> int:
    return mask_of(_ids(payload, what))


def _id_pairs(payload: Any, what: str) -> list[tuple[int, int]]:
    _require(isinstance(payload, list), f"{what} must be a list of pairs")
    out = []
    for pair in payload:
        _require(isinstance(pair, list) and len(pair) == 2, f"{what} entries must be pairs")
        out.append((_id(pair[0], what), _id(pair[1], what)))
    return out


def id_map_from_json(payload: Any, what: str, read: Callable[[Any, str], _T]) -> dict[int, _T]:
    """An object keyed by vertex ids, each value read by ``read(value, what)``."""
    _require(isinstance(payload, dict), f"{what} must be an object")
    out = {
        id_from_text(key, f"{what} key"): read(value, f"{what}({key})")
        for key, value in payload.items()
    }
    _require(len(out) == len(payload), f"{what} repeats a vertex")
    return out


def _label_from_text(text: Any, what: str) -> Label:
    _require(isinstance(text, str), f"{what} must be a string")
    label = label_from_text(text)
    _require(label is not None, f"{what}: bad label {text!r}")
    return label


def angle_to_json(angle: Angle) -> dict[str, Any]:
    if angle.pi_mult is not None:
        return {"pi_mult": str(angle.pi_mult)}
    if angle.real is not None:
        return {"real": angle.real}
    return {"var": angle.var}


#: Angle form -> (the JSON types of its value, the constructor).
_ANGLE_FORMS: dict[str, tuple[tuple[type, ...], Callable[[Any], Angle]]] = {
    "pi_mult": ((str, int, float), lambda value: Angle.of_pi(Fraction(value))),
    "real": ((int, float), Angle.of_real),
    "var": ((str,), Angle.variable),
}


def angle_from_json(payload: Any) -> Angle:
    _require(isinstance(payload, dict) and len(payload) == 1, "angle must be a one-key object")
    key, value = next(iter(payload.items()))
    _require(key in _ANGLE_FORMS, f"unknown angle form {key!r}")
    types, make = _ANGLE_FORMS[key]
    _require(type(value) in types, f"bad {key} angle {value!r}")
    try:
        return make(value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:  # DomainError is a ValueError
        raise DocumentError(f"bad {key} angle: {exc}") from None


def open_graph_to_json(g: OpenGraph) -> dict[str, Any]:
    return {
        "kind": "open-graph",
        "vertices": list(g.graph.vertices),
        "edges": [list(e) for e in g.graph.edges],
        "inputs": bit_list(g.inputs),
        "outputs": bit_list(g.outputs),
        "labels": {str(v): lab.value for v, lab in sorted(g.label_of.items())},
    }


def _graph_fields(payload: dict[str, Any]) -> tuple[Graph, list[int], list[int]]:
    vertices = _ids(payload.get("vertices"), "vertices")
    _require(len(set(vertices)) == len(vertices), "duplicate vertices")
    edges = _id_pairs(payload.get("edges"), "edges")
    inputs = _ids(payload.get("inputs", []), "inputs")
    outputs = _ids(payload.get("outputs", []), "outputs")
    try:
        graph = Graph.make(vertices, edges)
    except Exception as exc:
        raise DocumentError(f"bad graph: {exc}") from None
    return graph, inputs, outputs


def open_graph_from_json(payload: dict[str, Any]) -> OpenGraph:
    _require(payload.get("kind") == "open-graph", "expected an open-graph document")
    graph, inputs, outputs = _graph_fields(payload)
    labels = id_map_from_json(payload.get("labels", {}), "labels", _label_from_text)
    try:
        return OpenGraph.make(graph, inputs, outputs, labels)
    except Exception as exc:
        raise DocumentError(f"bad open graph: {exc}") from None


def pattern_to_json(pat: Pattern) -> dict[str, Any]:
    return {
        "kind": "pattern",
        "vertices": list(pat.graph.vertices),
        "edges": [list(e) for e in pat.graph.edges],
        "inputs": bit_list(pat.inputs),
        "outputs": bit_list(pat.outputs),
        "steps": [
            {
                "qubit": s.qubit,
                "label": s.label.value,
                "angle": angle_to_json(s.angle),
                "x_corr": bit_list(s.x_corr),
                "z_corr": bit_list(s.z_corr),
            }
            for s in pat.steps
        ],
    }


def pattern_from_json(payload: dict[str, Any]) -> Pattern:
    _require(payload.get("kind") == "pattern", "expected a pattern document")
    graph, inputs, outputs = _graph_fields(payload)
    steps_raw = payload.get("steps")
    _require(isinstance(steps_raw, list), "steps must be a list")
    steps = []
    for i, raw in enumerate(steps_raw):
        _require(isinstance(raw, dict), f"step {i} must be an object")
        qubit = _id(raw.get("qubit"), f"step {i} qubit")
        label = _label_from_text(raw.get("label"), f"step {i} label")
        angle = angle_from_json(raw.get("angle"))
        x_corr = _id_set(raw.get("x_corr", []), f"step {i} x_corr")
        z_corr = _id_set(raw.get("z_corr", []), f"step {i} z_corr")
        steps.append(MeasurementStep(qubit, label, angle, x_corr, z_corr))
    pat = Pattern.make(graph, inputs, steps)
    _require(
        pat.outputs == mask_of(outputs),
        "outputs field does not match the unmeasured vertices",
    )
    return pat


def certificate_to_json(cert: FlowCertificate) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "kind": _FLOW_NAMES[cert.kind],
        "p": {str(u): bit_list(d) for u, d in cert.p},
        "order": [list(pair) for pair in cert.order.pairs],
    }
    if cert.kind == "extended":
        doc["D"] = {str(v): bit_list(d) for v, d in cert.compensations}
    return doc


def certificate_from_json(payload: dict[str, Any], graph: OpenGraph) -> FlowCertificate:
    kind_name = payload.get("kind")
    _require(
        isinstance(kind_name, str) and kind_name in FLOW_KINDS,
        f"unknown certificate kind {kind_name!r}",
    )
    p = id_map_from_json(payload.get("p"), "p", _id_set)
    pairs = _id_pairs(payload.get("order", []), "order")
    try:
        order = StrictPartialOrder.make(graph.measured, pairs)
    except Exception as exc:
        raise DocumentError(f"bad order: {exc}") from None
    comp = {}
    if "D" in payload:
        _require(kind_name == "epf", f"a {kind_name} certificate takes no D")
        comp = id_map_from_json(payload["D"], "D", _id_set)
    try:
        return FlowCertificate.make(FLOW_KINDS[kind_name], graph, p, order, comp)
    except DomainError as exc:
        raise DocumentError(f"bad certificate: {exc}") from None


def load_json(path: str) -> dict[str, Any]:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # bad syntax, bad UTF-8, or an integer past the digit limit
        raise DocumentError(f"{path}: invalid JSON ({exc})") from None
    _require(isinstance(payload, dict), f"{path}: document must be a JSON object")
    return payload


def dump_json(payload: dict[str, Any]) -> str:
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"
