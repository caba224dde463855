"""The acceptance suite: ten property-based criteria, one verdict each.

Each criterion returns a :class:`CriterionResult`; the CLI command
``corpus-verify`` and the pytest acceptance module both drive these
functions.  Scopes are pinned here and tolerances in ``simulate``; neither
is configurable.  The brute-force references that criteria 1 and 7 check
the library against live in ``oracles``, which only this module imports.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cache
from itertools import combinations, product

import numpy as np

from .angles import Angle
from .bits import iter_bits, mask_of, subsets
from .corpus import (
    all_graphs,
    all_open_graphs,
    all_partial_orders,
    angle_assignments,
    curated_open_graphs,
    extended_flow_example,
    pattern_corpus,
    random_open_graph,
    random_partial_order,
    random_valid_patterns,
)
from .errors import MbqcError, ResourceLimitError
from .flows import (
    StrictPartialOrder,
    check_extended_pauli_flow,
    check_pauli_flow,
    find_extended_pauli_flow,
    find_inducing_certificate,
    find_pauli_flow,
    induced_pattern,
    is_induced_by,
    kappa_row,
)
from .graphs import Axis, Label, OpenGraph, odd_neighborhood
from .notation import parse_pattern
from .oracles import (
    before_table,
    brute_force_projected_stabilizers,
    check_pauli_flow_original,
    pauli_flow_original_verdicts,
)
from .patterns import Pattern, is_pauli_first, underlying_open_graph, validate
from .rewrite import normalize_pauli_first, push_step
from .simulate import (
    NORM_FLOOR,
    PHASE_TOL,
    _proportional,
    apply_pauli,
    enumerate_projected_stabilizers,
    graph_state,
    is_robustly_deterministic,
    measurement_basis,
    plane_fixed_point,
    project,
    semantics,
    stabilizer_sign,
    superoperator_equal,
)


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:2d}: {status} - {self.title} ({self.detail})"


# ---------------------------------------------------------------------------
# 1. Equivalence of the two flow-condition formulations.


def _after_table(orders: list[StrictPartialOrder], measured: int) -> dict[int, dict[int, int]]:
    """``table[u][m]``: bitset (bit i for ``orders[i]``) of the orders placing mask ``m`` after ``u``."""
    return {
        u: {m: sum(1 << i for i, o in enumerate(orders) if not m & ~o.after(u)) for m in subsets(measured)}
        for u in iter_bits(measured)
    }


def criterion_1() -> CriterionResult:
    """Exhaustive (<=3 measured, inputs empty wlog) plus 1000 random 5-vertex."""
    checked = 0
    mismatches = 0
    tables: dict[int, tuple] = {}
    for og in all_open_graphs(3, with_inputs=False):
        measured = og.measured_vertices()
        if not measured:
            continue
        if og.measured not in tables:
            orders = all_partial_orders(measured)
            tables[og.measured] = len(orders), _after_table(orders, og.measured), before_table(orders, measured)
        n_orders, after, before = tables[og.measured]
        # Each p is judged under every order of the list at once, by lookups.
        passing = {u: {d: after[u][kappa_row(og, d, u)] for d in subsets(og.vmask)} for u in measured}
        for combo in product(subsets(og.vmask), repeat=len(measured)):
            p = dict(zip(measured, combo))
            fast = -1
            for u, d in p.items():
                fast &= passing[u][d]
            orig = pauli_flow_original_verdicts(og, p, before)
            checked += n_orders
            mismatches += (fast ^ orig).bit_count()
    rng = random.Random(99)
    for _ in range(1000):
        og = random_open_graph(rng, 5)
        measured = og.measured_vertices()
        if not measured:
            continue
        p = {u: rng.choice(list(subsets(og.non_inputs))) for u in measured}
        order = random_partial_order(rng, measured)
        checked += 1
        mismatches += check_pauli_flow(og, p, order) != check_pauli_flow_original(og, p, order)
    return CriterionResult(
        1,
        "flow condition equals its per-axis reformulation",
        mismatches == 0,
        f"{checked} instances, {mismatches} mismatches",
    )


# ---------------------------------------------------------------------------
# 2. Sufficiency: induced patterns of found extended flows are deterministic.


def criterion_2() -> CriterionResult:
    graphs = list(all_open_graphs(3)) + list(curated_open_graphs())
    with_flow = 0
    compensated = 0
    failures = 0
    tested = 0
    for og in graphs:
        cert = find_extended_pauli_flow(og)
        if cert is None:
            continue
        with_flow += 1
        compensated += bool(cert.compensations)
        total = cert.order.canonical_extension()
        for angles in angle_assignments(og):
            pat = induced_pattern(og, cert.p_map(), cert.order, total, angles)
            tested += 1
            if validate(pat) or not is_robustly_deterministic(pat):
                failures += 1
    return CriterionResult(
        2,
        "induced patterns of found extended flows are robustly deterministic",
        failures == 0 and with_flow > 0,
        f"{with_flow} graphs with a flow ({compensated} with compensations), "
        f"{tested} induced patterns, {failures} failures",
    )


# ---------------------------------------------------------------------------
# 3/4/9 share the enumerated pattern corpus.

@cache
def _corpus_with_verdicts() -> list[tuple[Pattern, bool, object]]:
    out = []
    for pat in pattern_corpus():
        rd = bool(is_robustly_deterministic(pat))
        cert = find_inducing_certificate(pat, "extended")
        out.append((pat, rd, cert))
    return out


def criterion_3() -> CriterionResult:
    data = _corpus_with_verdicts()
    mism = 0
    unsound = 0
    rd_count = 0
    for pat, rd, cert in data:
        rd_count += rd
        if rd != (cert is not None):
            mism += 1
        if cert is not None:
            if not is_induced_by(pat, cert) or not check_extended_pauli_flow(underlying_open_graph(pat), cert):
                unsound += 1
    return CriterionResult(
        3,
        "robust determinism iff induced by an extended flow (corpus)",
        mism == 0 and unsound == 0 and rd_count > 0,
        f"{len(data)} patterns, {rd_count} deterministic, {mism} mismatches, {unsound} unsound certificates",
    )


def criterion_4() -> CriterionResult:
    data = _corpus_with_verdicts()
    rd_patterns = [pat for pat, rd, _ in data if rd]
    theta = Angle.of_real(0.613)
    rd_patterns.append(
        parse_pattern(
            "Z_3^{s_2} M_2^Z Z_2^{s_1} M_1^{YZ,t} E_{1,2} E_{2,3} N_1 N_2 N_3"
        ).bind({"t": theta})
    )
    checked = 0
    bad_sem = 0
    bad_rd = 0
    for pat in rd_patterns:
        base = semantics(pat)
        for i, step in enumerate(pat.steps):
            if not step.label.is_pauli or i == 0 or not pat.steps[i - 1].label.is_plane:
                continue
            axes = pat.steps[i - 1].label.axes
            succs = set()
            for axis in axes:
                succs |= push_step(pat, step.qubit, plane_axis=axis)
            for succ in succs:
                checked += 1
                if not superoperator_equal(base, semantics(succ)):
                    bad_sem += 1
                if not is_robustly_deterministic(succ):
                    bad_rd += 1
    return CriterionResult(
        4,
        "pushes preserve semantics and determinism on deterministic patterns",
        bad_sem == 0 and bad_rd == 0 and checked > 0,
        f"{checked} successors, {bad_sem} semantic drifts, {bad_rd} determinism losses",
    )


# ---------------------------------------------------------------------------
# 5. The worked 3-qubit regression pair.


def criterion_5() -> CriterionResult:
    src_a = "Z_3^{s_2} M_2^Z Z_2^{s_1} M_1^{YZ,t} E_{1,2} E_{2,3} N_1 N_2 N_3"
    src_b = "Z_3^{s_2} M_2^Z Z_3^{s_1} Z_2^{s_1} M_1^{YZ,t} E_{1,2} E_{2,3} N_1 N_2 N_3"
    problems = []
    for theta in (0.613, math.pi / 5, 2.1):
        bind = {"t": Angle.of_real(theta)}
        a = parse_pattern(src_a).bind(bind)
        b = parse_pattern(src_b).bind(bind)
        if not is_robustly_deterministic(a):
            problems.append(f"pattern A not deterministic at {theta}")
        if is_robustly_deterministic(b):
            problems.append(f"pattern B deterministic at {theta}")
        na = normalize_pauli_first(a)
        nb = normalize_pauli_first(b)
        if na != nb:
            problems.append(f"normal forms differ at {theta}")
        if not is_pauli_first(na):
            problems.append("normal form not Pauli-first")
        if not is_robustly_deterministic(na):
            problems.append(f"normal form not deterministic at {theta}")
        # The reference normal form uses the Z mark on the plane qubit.
        stated = parse_pattern(
            "M_1^{YZ,t} Z_1^{s_2} Z_3^{s_2} M_2^Z E_{1,2} E_{2,3} N_1 N_2 N_3"
        ).bind(bind)
        if stated not in push_step(a, 2, plane_axis=Axis.Z):
            problems.append("stated normal form unreachable from A")
        if stated not in push_step(b, 2, plane_axis=Axis.Z):
            problems.append("stated normal form unreachable from B")
    return CriterionResult(
        5,
        "regression pair: only the first pattern is deterministic, same normal form",
        not problems,
        "; ".join(problems) if problems else "3 angles checked",
    )


# ---------------------------------------------------------------------------
# 6. Rewrite termination within the decreasing measure.


def criterion_6() -> CriterionResult:
    count = 10_000
    failures = 0
    checked = 0
    for pat in random_valid_patterns(count, max_qubits=6, seed=2024):
        checked += 1
        try:
            nf = normalize_pauli_first(pat)
        except ResourceLimitError:
            failures += 1
            continue
        if not is_pauli_first(nf) or validate(nf):
            failures += 1
    return CriterionResult(
        6,
        "normalization terminates within the measure and yields Pauli-first",
        failures == 0 and checked == count,
        f"{checked} random patterns, {failures} failures",
    )


# ---------------------------------------------------------------------------
# 7. Projected stabilizer enumeration equals brute force.


def criterion_7() -> CriterionResult:
    checked = 0
    skipped = 0
    mismatches = 0
    signed = [(axis, sign) for axis in Axis for sign in (1, -1)]
    for n in (1, 2, 3, 4):
        verts = list(range(n))
        for g in all_graphs(verts):
            asst_sets: list[list[int]] = [[]]
            asst_sets += [[v] for v in verts]
            asst_sets += [list(pair) for pair in combinations(verts, 2)]
            for vs in asst_sets:
                for combo in product(signed, repeat=len(vs)):
                    assignment = dict(zip(vs, combo))
                    try:
                        expected = enumerate_projected_stabilizers(g, assignment)
                    except MbqcError:
                        skipped += 1
                        continue
                    actual = brute_force_projected_stabilizers(g, assignment)
                    checked += 1
                    if expected != actual:
                        mismatches += 1
    return CriterionResult(
        7,
        "projected stabilizer sets equal brute force (graphs <= 4 vertices)",
        mismatches == 0 and checked > 0,
        f"{checked} instances, {skipped} non-strong projections skipped, {mismatches} mismatches",
    )


# ---------------------------------------------------------------------------
# 8. The four fixed-point equation suites.


def _eq1_suite() -> tuple[int, int]:
    rng = random.Random(31)
    checked = failures = 0
    for n in (2, 3, 4, 5):
        for g in all_graphs(list(range(n))):
            for imask in (0, 1):
                og = OpenGraph.make(g, imask, g.vmask, {})
                if imask:
                    state = np.array([rng.gauss(0, 1) + 1j * rng.gauss(0, 1) for _ in range(2)])
                    state /= np.linalg.norm(state)
                else:
                    state = None
                for d in subsets(og.non_inputs):
                    checked += 1
                    try:
                        stabilizer_sign(og, d, state)
                    except MbqcError:
                        failures += 1
    return checked, failures


def _eq2_suite() -> tuple[int, int]:
    checked = failures = 0
    for label in (Label.XY, Label.XZ, Label.YZ):
        for k in range(64):
            checked += 1
            try:
                plane_fixed_point(label, 2.0 * math.pi * k / 64.0)
            except MbqcError:
                failures += 1
    return checked, failures


def _project_many(vec, qubits, bras):
    for v in sorted(bras):
        vec, qubits = project(vec, qubits, v, bras[v])
    return vec, qubits


def _eq3_suite() -> tuple[int, int]:
    # The already-measured Pauli correctors absorb into their projectors with
    # the phase +-(i^{|X-side and Z-side overlap|}).
    rng = random.Random(57)
    checked = failures = 0
    graphs = [og for og in all_open_graphs(3, with_inputs=False)]
    rng.shuffle(graphs)
    used = 0
    for og in graphs:
        cert = find_pauli_flow(og)
        if cert is None:
            continue
        total = cert.order.canonical_extension()
        # Prefer Pauli-measured vertices early among unordered ones.
        total.sort(key=lambda v: (0 if og.label(v).is_pauli else 1))
        if not cert.order.refines_to(total):
            total = cert.order.canonical_extension()
        p = cert.p_map()
        paulis = mask_of(v for v in total if og.label(v).is_pauli)
        before = 0
        for u in total:
            # Capped per absorption, so the count does not depend on the
            # certificates find_pauli_flow returns.
            if used == 400:
                return checked, failures
            # b: the correctors of u already measured in a Pauli basis.
            pu = p[u]
            opu = odd_neighborhood(og, pu)
            b = (pu | opu) & before & paulis
            before |= 1 << u
            if not b:
                continue
            used += 1
            bx, bz = b & pu, b & opu
            dims = list(og.graph.vertices)
            bras = {}
            for v in iter_bits(b):
                angle = Angle.ZERO if rng.random() < 0.5 else Angle.PI
                bras[v] = measurement_basis(og.label(v), angle).plus
            for _ in range(3):
                vec = np.array(
                    [rng.gauss(0, 1) + 1j * rng.gauss(0, 1) for _ in range(1 << len(dims))]
                )
                vec /= np.linalg.norm(vec)
                lhs, _ = _project_many(apply_pauli(vec, tuple(dims), bx, bz), tuple(dims), bras)
                rhs, _ = _project_many(vec, tuple(dims), bras)
                checked += 1
                # _proportional would give two near-zero sides the phase 1.
                if np.linalg.norm(rhs) < NORM_FLOOR:
                    continue
                phase = _proportional(lhs, rhs, PHASE_TOL)
                expect = 1j ** ((bx & bz).bit_count() % 4)
                if phase is None or min(abs(phase - expect), abs(phase + expect)) > PHASE_TOL:
                    failures += 1
    return checked, failures


def _eq4_suite() -> tuple[int, int]:
    # Any single-qubit Pauli on a compensated plane vertex dissolves into a
    # global phase under the compensation-set projectors.
    rng = random.Random(91)
    checked = failures = 0
    instances = []
    og, cert = extended_flow_example()
    instances.append((og, cert))
    for other in all_open_graphs(3, with_inputs=False):
        cert2 = find_extended_pauli_flow(other)
        if cert2 is not None and cert2.compensations:
            instances.append((other, cert2))
        if len(instances) >= 12:
            break
    for og, cert in instances:
        for v, dv in cert.compensations:
            union = dv | odd_neighborhood(og, dv)
            bras = {}
            for w in iter_bits(union):
                lab = og.label(w)
                if lab.is_pauli:
                    alpha = 0.0 if rng.random() < 0.5 else math.pi
                else:
                    alpha = rng.uniform(0, 2 * math.pi)
                bras[w] = measurement_basis(lab, Angle.of_real(alpha)).plus
            verts = tuple(og.graph.vertices)
            base = graph_state(og.graph).vector
            for axis in Axis:
                for _ in range(2):
                    rx = rng.getrandbits(len(verts)) & og.vmask
                    rz = rng.getrandbits(len(verts)) & og.vmask
                    moved = apply_pauli(base, verts, rx, rz)
                    lhs, _ = _project_many(moved, verts, bras)
                    lv_x = (1 << v) if axis in (Axis.X, Axis.Y) else 0
                    lv_z = (1 << v) if axis in (Axis.Y, Axis.Z) else 0
                    rhs, _ = _project_many(apply_pauli(moved, verts, lv_x, lv_z), verts, bras)
                    checked += 1
                    if _proportional(lhs, rhs, PHASE_TOL) is None:
                        failures += 1
    return checked, failures


def criterion_8() -> CriterionResult:
    c1, f1 = _eq1_suite()
    c2, f2 = _eq2_suite()
    c3, f3 = _eq3_suite()
    c4, f4 = _eq4_suite()
    ok = f1 == f2 == f3 == f4 == 0 and min(c1, c2, c3, c4) > 0
    return CriterionResult(
        8,
        "fixed-point equation suites (stabilizer sign, plane axes, absorptions)",
        ok,
        f"stabilizer {c1}/{f1}f, plane {c2}/{f2}f, pauli-absorb {c3}/{f3}f, compensated {c4}/{f4}f",
    )


# ---------------------------------------------------------------------------
# 9. Necessity on the restricted corpora.


def criterion_9() -> CriterionResult:
    data = _corpus_with_verdicts()
    pf_checked = pf_missing = 0
    gf_checked = gf_missing = 0
    for pat, rd, _ in data:
        if not rd:
            continue
        labels = [s.label for s in pat.steps]
        if is_pauli_first(pat):
            pf_checked += 1
            cert = find_inducing_certificate(pat, "pauli")
            if cert is None or not check_pauli_flow(underlying_open_graph(pat), cert.p_map(), cert.order):
                pf_missing += 1
        if all(lab.is_plane for lab in labels):
            gf_checked += 1
            cert = find_inducing_certificate(pat, "gflow")
            if cert is None:
                gf_missing += 1
    return CriterionResult(
        9,
        "deterministic Pauli-first (plane-only) patterns have inducing plain (g)flows",
        pf_missing == 0 and gf_missing == 0 and pf_checked > 0 and gf_checked > 0,
        f"pauli-first {pf_checked}/{pf_missing} missing, plane-only {gf_checked}/{gf_missing} missing",
    )


# ---------------------------------------------------------------------------
# 10. The five-vertex showcase instance.


def criterion_10() -> CriterionResult:
    og, cert = extended_flow_example()
    problems = []
    if not check_extended_pauli_flow(og, cert):
        problems.append("reference certificate rejected")
    if check_pauli_flow(og, cert.p_map(), cert.order):
        problems.append("certificate pair unexpectedly is a plain flow")
    found = find_extended_pauli_flow(og)
    if found is None or not check_extended_pauli_flow(og, found):
        problems.append("search failed to find a valid extended flow")
    # Required clause, kept although it cannot hold: an open graph has an
    # extended flow iff it has a plain flow (pushing Pauli measurements
    # first preserves the open graph), so a graph-level "no plain flow"
    # verdict is impossible here.  The failure is deliberate.
    if find_pauli_flow(og) is not None:
        problems.append("find_pauli_flow returned a certificate (graph-level clause)")
    return CriterionResult(
        10,
        "showcase instance: certificate valid, not a plain flow pair",
        not problems,
        "; ".join(problems) if problems else "all clauses hold",
    )


ALL_CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
]


def run_all(numbers: list[int] | None = None) -> list[CriterionResult]:
    wanted = set(range(1, 11)) if numbers is None else set(numbers)
    return [fn() for i, fn in enumerate(ALL_CRITERIA, start=1) if i in wanted]
