"""Textual command notation for patterns.

Reads and writes the right-to-left command syntax, e.g.::

    Z_3^{s_2} M_2^Z Z_2^{s_1} M_1^{YZ,theta} E_{1,2} E_{2,3} N_1 N_2 N_3

Commands execute right to left: preparations N, entangling E, then
measurements M with their outcome-conditioned corrections X/Z written
immediately to their left.  Vertices never prepared are the inputs; an
optional trailing ``I_{...}`` token (an extension to the classic notation)
declares them explicitly so that patterns with isolated input qubits
survive a round trip.  Subscripts accept ``_{1,2}`` and, for single-digit
ids, the compact ``_{12}``; measurement superscripts accept ``{YZ,pi/4}``,
``{{X,Y},0}``, or a bare Pauli like ``Z``.  Ids and labels are read as in
the JSON documents, and an angle is a multiple of pi, a number, or a name.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .angles import Angle
from .bits import bit_list, mask_of
from .errors import DomainError, PatternSyntaxError
from .graphs import Graph, Label, label_from_text, vertex_id_from_text
from .patterns import MeasurementStep, Pattern

_TOKEN = re.compile(r"\s*([NEMXZI])")
_SUBSCRIPT = re.compile(r"_(?:(\d+)|\{([^{}]*)\})")
_SUPERSCRIPT = re.compile(r"\^(?:(\{(?:[^{}]|\{[^{}]*\})*\})|([^\s_^{}]+))")
_SIGNAL = re.compile(r"^s_?(\d+)$")
_PI_ANGLE = re.compile(r"^(-?[0-9]*)\*?(?:pi|π)(?:/([0-9]+))?$")
_NUMBER = re.compile(r"^-?\d+(\.\d+)?([eE][+-]?\d+)?$")


def _parse_ids(text: str, pos: int, compact: bool) -> list[int]:
    text = text.strip()
    if not text:
        raise PatternSyntaxError("empty subscript", pos)
    if "," in text:
        parts = [p.strip() for p in text.split(",")]
    elif compact and text.isdigit() and len(text) > 1:
        # Braced digit run like E_{12} or N_{123}: one vertex per digit.
        # Ids beyond 9 need commas (or the unbraced single-id form).
        parts = list(text)
    else:
        parts = [text]
    ids = [_vertex_id(p, pos) for p in parts]
    if len(set(ids)) != len(ids):
        raise PatternSyntaxError(f"repeated vertex in subscript {text!r}", pos)
    return ids


def _vertex_id(text: str, pos: int) -> int:
    v = vertex_id_from_text(text)
    if v is None:
        raise PatternSyntaxError(f"bad vertex id {text[:20]!r}", pos)
    return v


def parse_angle(text: str, pos: int = 0) -> Angle:
    text = text.strip()
    m = _PI_ANGLE.match(text)
    if m:
        num, den = m.group(1), m.group(2)
        try:
            mult = Fraction(-1 if num == "-" else int(num) if num else 1, int(den or 1))
        except (ValueError, ZeroDivisionError):  # a zero denominator, or past int()'s digit limit
            raise PatternSyntaxError(f"bad multiple of pi {text[:20]!r}", pos) from None
        return Angle.of_pi(mult)
    if _NUMBER.match(text):
        value = float(text)
        # Plain integers are exact multiples of pi^0: radians 0 is the
        # only Def-1-relevant case, keep it exact.
        if value == 0 and re.match(r"^-?\d+$", text):
            return Angle.of_pi(0)
        try:
            return Angle.of_real(value)
        except DomainError as exc:
            raise PatternSyntaxError(str(exc), pos) from None
    try:
        return Angle.variable(text)
    except DomainError:
        raise PatternSyntaxError(f"cannot parse angle {text[:20]!r}", pos) from None


def _parse_label(text: str, pos: int) -> Label:
    label = label_from_text(text.replace(",", "").replace(" ", ""))
    if label is None:
        raise PatternSyntaxError(f"bad measurement label {text!r}", pos)
    return label


def _parse_measurement_superscript(text: str, pos: int) -> tuple[Label, Angle]:
    text = text.strip()
    if text.startswith("{") and text.endswith("}"):
        text = text[1:-1].strip()
    if text.startswith("{"):
        end = text.find("}")
        if end < 0:
            raise PatternSyntaxError("unbalanced braces in measurement", pos)
        label = _parse_label(text[1:end], pos)
        rest = text[end + 1 :].strip()
    else:
        m = re.match(r"^[XYZ]+", text)
        if not m:
            raise PatternSyntaxError(f"bad measurement superscript {text!r}", pos)
        label = _parse_label(m.group(0), pos)
        rest = text[m.end() :].strip()
    if not rest:
        return label, Angle.ZERO
    if not rest.startswith(","):
        raise PatternSyntaxError(f"expected ',angle' in measurement, got {rest!r}", pos)
    return label, parse_angle(rest[1:], pos)


def parse_pattern(text: str) -> Pattern:
    """Parse command notation into a pattern.

    Rejects malformed input with the offending position; correction tokens
    must immediately precede the measurement consuming their signal.
    """
    pos = 0
    n = len(text)
    prepared: set[int] = set()
    declared_inputs: set[int] | None = None
    edges: list[tuple[int, int]] = []
    steps_rl: list[MeasurementStep] = []  # right-to-left (reverse execution)
    measured: set[int] = set()
    pending: list[tuple[str, list[int], int, int]] = []  # axis, targets, signal, pos

    def read_subscript(pos: int) -> tuple[list[int], int]:
        m = _SUBSCRIPT.match(text, pos)
        if not m:
            raise PatternSyntaxError("expected subscript", pos)
        if m.group(1) is not None:  # unbraced: always a single id
            ids = _parse_ids(m.group(1), pos, compact=False)
        else:
            ids = _parse_ids(m.group(2), pos, compact=True)
        return ids, m.end()

    def read_superscript(pos: int) -> tuple[str, int]:
        m = _SUPERSCRIPT.match(text, pos)
        if not m:
            raise PatternSyntaxError("expected superscript", pos)
        return (m.group(1)[1:-1] if m.group(1) else m.group(2)), m.end()

    any_token = False
    while pos < n:
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise PatternSyntaxError(f"unexpected input {text[pos:pos + 10]!r}", pos)
            break
        any_token = True
        cmd = m.group(1)
        here = m.start(1)
        pos = m.end()
        if cmd == "N":
            ids, pos = read_subscript(pos)
            for v in ids:
                if v in prepared:
                    raise PatternSyntaxError(f"vertex {v} prepared twice", here)
                prepared.add(v)
        elif cmd == "I":
            ids, pos = read_subscript(pos)
            if declared_inputs is not None:
                raise PatternSyntaxError("duplicate input declaration", here)
            declared_inputs = set(ids)
        elif cmd == "E":
            ids, pos = read_subscript(pos)
            if len(ids) != 2:
                raise PatternSyntaxError("entangling command needs two vertices", here)
            edges.append((ids[0], ids[1]))
        elif cmd == "M":
            ids, pos = read_subscript(pos)
            if len(ids) != 1:
                raise PatternSyntaxError("measurement needs a single vertex", here)
            (q,) = ids
            body, pos = read_superscript(pos)
            label, angle = _parse_measurement_superscript(body, here)
            if q in measured:
                raise PatternSyntaxError(f"qubit {q} measured twice", here)
            measured.add(q)
            x_corr = z_corr = 0
            for axis, targets, signal, cpos in pending:
                if signal != q:
                    raise PatternSyntaxError(
                        f"correction signal s_{signal} does not match measurement of {q}", cpos
                    )
                tmask = mask_of(targets)
                if axis == "X":
                    if x_corr & tmask:
                        raise PatternSyntaxError("duplicate X-correction target", cpos)
                    x_corr |= tmask
                else:
                    if z_corr & tmask:
                        raise PatternSyntaxError("duplicate Z-correction target", cpos)
                    z_corr |= tmask
            pending.clear()
            steps_rl.append(MeasurementStep(q, label, angle, x_corr, z_corr))
        else:  # X or Z correction
            ids, pos = read_subscript(pos)
            body, pos = read_superscript(pos)
            sig = _SIGNAL.match(body.strip())
            if not sig:
                raise PatternSyntaxError(f"bad correction signal {body!r}", here)
            pending.append((cmd, ids, _vertex_id(sig.group(1), here), here))
    if not any_token:
        raise PatternSyntaxError("empty pattern", 0)
    if pending:
        raise PatternSyntaxError("corrections without a following measurement", pending[0][3])

    corr_targets: set[int] = set()
    for s in steps_rl:
        corr_targets |= set(bit_list(s.x_corr | s.z_corr))
    mentioned = prepared | measured | {v for e in edges for v in e}
    unknown = corr_targets - mentioned - (declared_inputs or set())
    if unknown:
        raise PatternSyntaxError(f"unknown vertex reference {sorted(unknown)}", 0)
    vertices = mentioned | corr_targets | (declared_inputs or set())
    inputs = vertices - prepared if declared_inputs is None else declared_inputs
    if declared_inputs is not None and declared_inputs != vertices - prepared:
        raise PatternSyntaxError("declared inputs do not match the unprepared vertices", 0)
    graph = Graph.make(vertices, edges)
    return Pattern.make(graph, inputs, tuple(reversed(steps_rl)))


def _render_targets(mask: int) -> str:
    ids = bit_list(mask)
    if len(ids) == 1:
        return str(ids[0])
    return "{" + ",".join(str(i) for i in ids) + "}"


def serialize_pattern(pat: Pattern) -> str:
    """Render the right-to-left command notation (canonical form)."""
    parts: list[str] = []
    for s in reversed(pat.steps):
        if s.x_corr:
            parts.append(f"X_{_render_targets(s.x_corr)}^{{s_{s.qubit}}}")
        if s.z_corr:
            parts.append(f"Z_{_render_targets(s.z_corr)}^{{s_{s.qubit}}}")
        if s.label.is_pauli and s.angle == Angle.ZERO:
            parts.append(f"M_{s.qubit}^{s.label.value}")
        else:
            parts.append(f"M_{s.qubit}^{{{s.label.value},{s.angle}}}")
    for u, v in pat.graph.edges:
        parts.append(f"E_{{{u},{v}}}")
    for v in pat.graph.vertices:
        if not (pat.inputs >> v) & 1:
            parts.append(f"N_{v}")
    if pat.inputs:
        parts.append(f"I_{_render_targets(pat.inputs)}")
    return " ".join(parts)
