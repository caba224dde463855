"""Batch command-line frontend.

Exit codes: 0 when the queried property holds (or the command succeeded),
1 when the property fails, 2 on malformed input, unusable arguments, or a
resource bound.  Documents are UTF-8 JSON on stdout; rewrite traces go to
stderr.  The environment variable MBQC_MAX_QUBITS overrides the simulator
size bound: the most qubits ``check-determinism`` holds at once (its
``live width`` line), and the qubit count of ``semantics``.
OPENBLAS_NUM_THREADS defaults to 1: a second BLAS thread costs CPU and
saves no wall time on simulator-sized matrices.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Any

from .angles import Angle, default_angle
from .documents import (
    FLOW_KINDS,
    angle_from_json,
    certificate_from_json,
    certificate_to_json,
    dump_json,
    id_from_text,
    id_map_from_json,
    load_json,
    open_graph_from_json,
    pattern_from_json,
    pattern_to_json,
)
from .errors import DocumentError, MbqcError
from .flows import (
    certificate_violation,
    find_extended_pauli_flow,
    find_pauli_flow,
    induced_pattern,
)
from .patterns import Pattern


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _comma_ids(text: str, what: str) -> list[int]:
    """A comma-separated list of ids (vertices or criterion numbers); blank
    items are skipped."""
    return [id_from_text(x.strip(), what) for x in text.split(",") if x.strip()]


def _valid_pattern(path: str, numeric: bool = False) -> Pattern:
    """The pattern document at ``path``; with ``numeric``, also require every
    angle to be bound."""
    pat = pattern_from_json(load_json(path))
    if numeric and any(s.angle.is_symbolic for s in pat.steps):
        raise DocumentError("pattern has unbound angle variables")
    return pat


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def cmd_check_flow(args: argparse.Namespace) -> int:
    graph = open_graph_from_json(load_json(args.graph))
    cert = certificate_from_json(load_json(args.certificate), graph)
    if args.kind is not None and FLOW_KINDS[args.kind] != cert.kind:
        return _fail(f"certificate kind is {cert.kind!r}, not {FLOW_KINDS[args.kind]!r}")
    violation = certificate_violation(graph, cert)
    if violation is None:
        article = "an" if cert.kind == "extended" else "a"
        print(f"valid: certificate is {article} {cert.kind} flow of the graph")
        return 0
    print(f"invalid: {violation}")
    return 1


def cmd_find_flow(args: argparse.Namespace) -> int:
    graph = open_graph_from_json(load_json(args.graph))
    finder = find_pauli_flow if args.kind == "pauli" else find_extended_pauli_flow
    cert = finder(graph)
    if cert is None:
        print("none")
        return 1
    sys.stdout.write(dump_json(certificate_to_json(cert)))
    return 0


def cmd_check_determinism(args: argparse.Namespace) -> int:
    from .simulate import DEFAULT_TOL, is_robustly_deterministic

    if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0):
        return _fail(f"--tol must be finite and non-negative, got {args.tol!r}")
    pat = _valid_pattern(args.pattern, numeric=True)
    report = is_robustly_deterministic(pat, tol=DEFAULT_TOL if args.tol is None else args.tol)
    print(f"robustly-deterministic: {'yes' if report.ok else 'no'}")
    print(f"live width: {report.width}")
    for step in report.steps:
        eps = ", ".join(f"{e:.6g}" for e in step.epsilons)
        norms = ", ".join(f"{x:.6g}" for x in step.branch_norms)
        print(
            f"step {step.index}: qubit {step.qubit} label {step.label.value} "
            f"eps [{eps}] choi-distance {step.choi_distance:.3e} "
            f"branch-norms [{norms}] {'ok' if step.ok else 'VIOLATED'}"
        )
    failing = report.failing_step
    if failing is not None:
        print(
            f"first failing step: {failing.index} (qubit {failing.qubit}, label {failing.label.value}, metric "
            f"frobenius, distance {failing.choi_distance:.3e}, kraus rank {len(failing.branch_norms)})"
        )
    return 0 if report.ok else 1


def cmd_push_pauli(args: argparse.Namespace) -> int:
    from .rewrite import normalize_pauli_first, normalize_with_trace

    pat = _valid_pattern(args.pattern)
    if args.strategy == "first":
        out, trace = normalize_with_trace(pat)
        if args.emit_trace:
            for line in trace.lines():
                print(line, file=sys.stderr)
        sys.stdout.write(dump_json(pattern_to_json(out)))
        return 0
    forms = normalize_pauli_first(pat, "all")
    docs = [pattern_to_json(p) for p in sorted(forms, key=repr)]
    sys.stdout.write(dump_json({"kind": "pattern-set", "patterns": docs}))
    return 0


def cmd_semantics(args: argparse.Namespace) -> int:
    from .simulate import semantics

    sup = semantics(_valid_pattern(args.pattern, numeric=True))
    choi = [
        [[_sig12(z.real), _sig12(z.imag)] for z in row]
        for row in sup.choi
    ]
    doc = {
        "kind": "superoperator",
        "in_qubits": list(sup.in_qubits),
        "out_qubits": list(sup.out_qubits),
        "choi": choi,
    }
    sys.stdout.write(dump_json(doc))
    return 0


def _parse_angles(raw: str | None, graph) -> dict[int, Angle]:
    payload: Any = {}
    if raw and raw.startswith("@"):
        payload = load_json(raw[1:])
    elif raw:
        try:
            payload = json.loads(raw)
        except ValueError as exc:
            raise DocumentError(f"bad angles JSON: {exc}") from None
    angles = id_map_from_json(payload, "angles", lambda value, _: angle_from_json(value))
    measured = graph.measured_vertices()
    for v in angles:
        if v not in measured:
            raise DocumentError(f"angles key {v} is not a measured vertex")
    for v in measured:
        angles.setdefault(v, default_angle(graph.label(v)))
    return angles


def cmd_induce(args: argparse.Namespace) -> int:
    graph = open_graph_from_json(load_json(args.graph))
    cert = certificate_from_json(load_json(args.certificate), graph)
    angles = _parse_angles(args.angles, graph)
    if args.total_order:
        total = _comma_ids(args.total_order, "--total-order vertex")
    else:
        total = cert.order.canonical_extension()
    pat = induced_pattern(graph, cert.p_map(), cert.order, total, angles)
    sys.stdout.write(dump_json(pattern_to_json(pat)))
    return 0


def cmd_corpus_verify(args: argparse.Namespace) -> int:
    numbers = None
    if args.criteria is not None:
        numbers = _comma_ids(args.criteria, "criterion")
    # Imported after the parse, so that a non-integer exits 2 without numpy.
    from .acceptance import ALL_CRITERIA, run_all

    if numbers is not None and (not numbers or any(not 1 <= n <= len(ALL_CRITERIA) for n in numbers)):
        return _fail(f"criteria are numbered 1-{len(ALL_CRITERIA)}, got {args.criteria!r}")
    results = run_all(numbers)
    for result in results:
        print(result.line())
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mbqc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-flow", help="validate a flow certificate against a graph")
    p.add_argument("graph")
    p.add_argument("certificate")
    p.add_argument("--kind", choices=["gflow", "pauli", "epf"], default=None)
    p.set_defaults(fn=cmd_check_flow)

    p = sub.add_parser("find-flow", help="search for a flow certificate")
    p.add_argument("graph")
    p.add_argument("--kind", choices=["pauli", "epf"], required=True)
    p.set_defaults(fn=cmd_find_flow)

    p = sub.add_parser("check-determinism", help="robust-determinism oracle")
    p.add_argument("pattern")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(fn=cmd_check_determinism)

    p = sub.add_parser("push-pauli", help="normalize to a Pauli-first pattern")
    p.add_argument("pattern")
    p.add_argument("--strategy", choices=["first", "all"], default="first")
    p.add_argument("--emit-trace", action="store_true")
    p.set_defaults(fn=cmd_push_pauli)

    p = sub.add_parser("semantics", help="dump the Choi matrix of a pattern")
    p.add_argument("pattern")
    p.set_defaults(fn=cmd_semantics)

    p = sub.add_parser("induce", help="build the pattern induced by a certificate")
    p.add_argument("graph")
    p.add_argument("certificate")
    p.add_argument("--angles", default=None, help="JSON object or @file; vertex -> angle")
    p.add_argument("--total-order", default=None, help="comma-separated measurement order")
    p.set_defaults(fn=cmd_induce)

    p = sub.add_parser("corpus-verify", help="run the acceptance criteria")
    p.add_argument("--criteria", default=None, help="comma-separated criterion numbers")
    p.set_defaults(fn=cmd_corpus_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except MbqcError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
