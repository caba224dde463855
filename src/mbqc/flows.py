"""Corrector predicate and the three graph-flow conditions.

The central object is the corrector predicate: vertex ``v`` can serve in
correcting the measurement of ``u`` via a candidate set ``d`` when at least
one axis of ``v``'s label is compatible with ``v``'s role in the stabilizer
generated by ``d``.  One checker applies it to all three kinds: the past
correctors of ``u`` are its ``p(u)``-correctors that the order does not
place after ``u`` (unordered ones included).  ``u`` itself among them fails
every kind; any other fails Pauli flow and gflow, while extended Pauli flow
admits it when it is plane-measured and compensated at-or-before ``u``.
Gflow adds its per-plane clauses.

``find_pauli_flow`` and ``find_inducing_certificate`` choose each vertex's
correction set on its own, with no backtracking: their constraints only
weaken as the search advances (more vertices placed after ``u`` widen
``u``'s choices; a compensation that fits in a prefix of the order fits in
every longer one).  ``find_extended_pauli_flow`` still backtracks.

``kappa_row`` evaluates the predicate against every candidate ``v`` at
once with a handful of integer operations; the checker and the searches
all read it a row at a time.  The checker calls none of the searches'
compensation or choice code, so it judges their certificates on its own.
Criterion 1 checks its rule against the per-axis reformulation of the
flow condition in ``mbqc.oracles``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import permutations

from .angles import Angle
from .bits import iter_bits, mask_of, subsets
from .errors import DomainError, PreconditionError, ResourceLimitError
from .graphs import OpenGraph, odd_neighborhood
from .patterns import MeasurementStep, Pattern, underlying_open_graph

#: Correction function: measured vertex -> bitmask subset of the non-inputs.
CorrectionFunction = Mapping[int, int]


def _close(succ: dict[int, int]) -> dict[int, int]:
    """Transitive closure of successor bitmasks, in place (and returned)."""
    changed = True
    while changed:
        changed = False
        for u, acc in succ.items():
            closed = acc
            for w in iter_bits(acc):
                closed |= succ.get(w, 0)
            if closed != acc:
                succ[u] = closed
                changed = True
    return succ


@dataclass(frozen=True)
class StrictPartialOrder:
    """Strict partial order over the measured vertices, stored closed.

    ``after[u]`` is the bitmask of vertices strictly greater than ``u``.
    """

    domain: int
    pairs: tuple[tuple[int, int], ...]
    _after: Mapping[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        after = {v: 0 for v in iter_bits(self.domain)}
        for u, v in self.pairs:
            if u not in after or v not in after:
                raise DomainError(f"order pair ({u},{v}) outside the domain")
            after[u] |= 1 << v
        _close(after)
        # Reject cycles (including reflexive pairs).
        for u in after:
            if (after[u] >> u) & 1:
                raise DomainError(f"order has a cycle through {u}")
        closed = tuple(
            sorted((u, v) for u in after for v in iter_bits(after[u]))
        )
        object.__setattr__(self, "pairs", closed)
        object.__setattr__(self, "_after", after)

    @staticmethod
    def make(domain: Iterable[int] | int, pairs: Iterable[tuple[int, int]]) -> StrictPartialOrder:
        dmask = domain if isinstance(domain, int) else mask_of(domain)
        return StrictPartialOrder(dmask, tuple(pairs))

    @staticmethod
    def chain(sequence: Sequence[int]) -> StrictPartialOrder:
        """The total order given by the sequence."""
        pairs = [(u, v) for i, u in enumerate(sequence) for v in sequence[i + 1 :]]
        return StrictPartialOrder.make(sequence, pairs)

    def after(self, u: int) -> int:
        return self._after.get(u, 0)

    def less(self, u: int, v: int) -> bool:
        return bool((self._after.get(u, 0) >> v) & 1)

    def refines_to(self, total: Sequence[int]) -> bool:
        """True iff the total sequence is a linear extension."""
        pos = {v: i for i, v in enumerate(total)}
        return all(
            u in pos and v in pos and pos[u] < pos[v] for u, v in self.pairs
        )

    def canonical_extension(self) -> list[int]:
        """Deterministic linear extension: smallest available vertex first."""
        remaining = set(iter_bits(self.domain))
        out: list[int] = []
        while remaining:
            ready = sorted(
                v for v in remaining
                if all(not self.less(u, v) for u in remaining if u != v)
            )
            if not ready:  # unreachable: construction rejects cycles
                raise DomainError("order is cyclic")
            out.append(ready[0])
            remaining.remove(ready[0])
        return out


@dataclass(frozen=True)
class FlowCertificate:
    """A correction function with a compatible measurement order.

    ``compensations`` maps a past corrector ``v`` to its set D_v; only the
    extended kind takes any.
    """

    kind: str  # "gflow" | "pauli" | "extended"
    graph: OpenGraph
    p: tuple[tuple[int, int], ...]
    order: StrictPartialOrder
    compensations: tuple[tuple[int, int], ...] = ()
    _p: Mapping[int, int] = field(init=False, repr=False, compare=False)
    _comp: Mapping[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("gflow", "pauli", "extended"):
            raise DomainError(f"unknown flow kind {self.kind!r}")
        if self.compensations and self.kind != "extended":
            raise DomainError(f"a {self.kind} certificate takes no compensation sets")
        object.__setattr__(self, "p", tuple(sorted(self.p)))
        object.__setattr__(self, "compensations", tuple(sorted(self.compensations)))
        object.__setattr__(self, "_p", dict(self.p))
        object.__setattr__(self, "_comp", dict(self.compensations))

    @staticmethod
    def make(
        kind: str,
        graph: OpenGraph,
        p: Mapping[int, int],
        order: StrictPartialOrder,
        compensations: Mapping[int, int] | None = None,
    ) -> FlowCertificate:
        comp = tuple((compensations or {}).items())
        return FlowCertificate(kind, graph, tuple(p.items()), order, comp)

    def p_map(self) -> dict[int, int]:
        return dict(self._p)


def kappa_row(g: OpenGraph, d: int, u: int, odd_d: int | None = None) -> int:
    """Mask of all measured ``v`` that are ``d``-correctors of ``u``.

    Equals ``{v : kappa(u, v, d)}``: ``v`` is in the row iff some axis of its
    label matches its membership -- X in the odd neighborhood of ``d``, Y in
    ``d`` xor that neighborhood, Z in ``d`` itself -- each XORed with
    ``u == v``.  A set bit at ``u`` itself means the vertex would have to
    correct its own measurement.
    """
    if odd_d is None:
        odd_d = odd_neighborhood(g, d)
    bu = 1 << u
    row = (
        (g.x_labelled & (odd_d ^ bu))
        | (g.y_labelled & (d ^ odd_d ^ bu))
        | (g.z_labelled & (d ^ bu))
    )
    return row & g.measured


def _check_correction_function(g: OpenGraph, p: CorrectionFunction) -> None:
    if mask_of(p) != g.measured:
        raise DomainError("correction function domain must be the measured vertices")
    for u, d in p.items():
        if d & ~g.non_inputs or d & ~g.vmask:
            raise DomainError(f"p({u}) is not within the non-input vertices")


def check_pauli_flow(g: OpenGraph, p: CorrectionFunction, order: StrictPartialOrder) -> bool:
    """Flow condition: every corrector of ``u`` is measured strictly after it."""
    return _flow_violation(g, "pauli", p, order, {}) is None


def _plane_clause_holds(g: OpenGraph, u: int, d: int, odd_d: int) -> bool:
    """Gflow's plane clause at ``u`` for ``p(u) = d``: XY wants ``u`` in the odd
    neighborhood ``odd_d`` only, YZ in ``d`` only, XZ in both."""
    want = {"XY": (0, 1), "YZ": (1, 0), "XZ": (1, 1)}[g.label(u).value]
    return ((d >> u) & 1, (odd_d >> u) & 1) == want


def check_gflow(g: OpenGraph, p: CorrectionFunction, order: StrictPartialOrder) -> bool:
    """Plane-only flow: the flow condition plus per-plane membership clauses."""
    return _flow_violation(g, "gflow", p, order, {}) is None


def check_extended_pauli_flow(g: OpenGraph, cert: FlowCertificate) -> bool:
    """Extended flow condition for a certificate of kind "extended".

    Every past corrector ``v`` of ``u`` (a ``p(u)``-corrector not measured
    after ``u``, unordered ones included) other than ``u`` itself must be
    plane-measured and come with a compensation set D_v of non-inputs such
    that v lies in D_v or its odd neighborhood, that union avoids the
    outputs and holds no D_v-corrector of v, and every member of it is
    measured at-or-before ``u``.
    """
    if cert.kind != "extended":
        raise PreconditionError("certificate kind must be 'extended'")
    return certificate_violation(g, cert) is None


def certificate_violation(g: OpenGraph, cert: FlowCertificate) -> str | None:
    """First violated clause of the certificate's own kind, or None."""
    return _flow_violation(g, cert.kind, cert._p, cert.order, cert._comp)


def _flow_violation(
    g: OpenGraph,
    kind: str,
    p: CorrectionFunction,
    order: StrictPartialOrder,
    comps: Mapping[int, int],
) -> str | None:
    """The one flow rule behind every kind.

    For each measured ``u``, its past correctors are the ``p(u)``-correctors
    not measured after ``u``.  ``u`` itself among them is a violation for
    every kind; any other is one for a Pauli flow or a gflow, and must pass
    the compensation clause against ``u`` for an extended flow, with D_v
    read from ``comps``.  A gflow also checks its plane clause at ``u``.
    """
    _check_correction_function(g, p)
    if kind == "gflow":
        for v in g.measured_vertices():
            if g.label(v).is_pauli:
                raise PreconditionError(f"vertex {v} carries a Pauli label; gflow needs planes")
    at_or_before: dict[int, int] | None = None
    for u in sorted(p):
        d = p[u]
        odd_d = odd_neighborhood(g, d)
        past = kappa_row(g, d, u, odd_d) & ~order.after(u)
        if past:
            if (past >> u) & 1:
                return f"kappa_{{{u},{u}}} holds: {u} would correct itself"
            if kind != "extended":
                v = (past & -past).bit_length() - 1
                return f"kappa_{{{u},{v}}} holds but {u} is not before {v}"
            if at_or_before is None:
                at_or_before = {w: 1 << w for w in p}
                for w in p:
                    for x in iter_bits(order.after(w) & g.measured):
                        at_or_before[x] |= 1 << w
            for v in iter_bits(past):
                err = _compensation_violation(g, v, comps.get(v), u, at_or_before[u])
                if err is not None:
                    return err
        if kind == "gflow" and not _plane_clause_holds(g, u, d, odd_d):
            return f"plane clause for {g.label(u).value} fails at vertex {u}"
    return None


def _compensation_violation(
    g: OpenGraph, v: int, d: int | None, u: int, at_or_before_u: int
) -> str | None:
    """The clause a past corrector ``v`` of ``u`` must pass, with D_v = ``d``."""
    if not g.label(v).is_plane:
        return f"U_{v} nonempty but vertex {v} is not plane-measured"
    if d is None:
        return f"compensation missing for vertex {v}"
    if d & ~g.non_inputs or d & ~g.vmask:
        return f"D_{v} is not within the non-input vertices"
    union = d | odd_neighborhood(g, d)
    if not (union >> v) & 1:
        return f"vertex {v} is not covered by D_{v} or its odd neighborhood"
    if union & ~g.measured:
        return f"D_{v} union its odd neighborhood reaches output vertices"
    bad = kappa_row(g, d, v) & union
    if bad:
        return f"kappa_{{{v},{(bad & -bad).bit_length() - 1}}} holds for D_{v}"
    late = union & ~at_or_before_u
    if late:
        return f"D_{v} member {(late & -late).bit_length() - 1} is not measured at-or-before {u}"
    return None


# ---------------------------------------------------------------------------
# Certificate search (instance sizes are capped).

#: ``find_pauli_flow`` tabulates every correction set, 2^|non-inputs| of them.
PAULI_FLOW_MAX_VERTICES = 8
#: ``find_extended_pauli_flow`` backtracks over every total order.
EXTENDED_FLOW_MAX_VERTICES = 6


def _check_vertex_bound(g: OpenGraph, bound: int) -> None:
    if len(g.graph.vertices) > bound:
        raise ResourceLimitError(f"graph has {len(g.graph.vertices)} vertices; bound is {bound}")


def find_pauli_flow(g: OpenGraph) -> FlowCertificate | None:
    """A Pauli flow found by layer peeling, with the reachability order of its
    corrector graph; None when the graph has none.

    Each round places every vertex that has a correction set (first in
    canonical order) whose correctors are all placed already; they are the
    vertices that may be measured after it.  Placing vertices only widens
    that choice, so a vertex placeable now stays placeable later, and a
    round that places nothing proves that no flow exists.
    """
    _check_vertex_bound(g, PAULI_FLOW_MAX_VERTICES)
    odd = {d: odd_neighborhood(g, d) for d in subsets(g.non_inputs)}
    candidates = {
        u: [(d, kappa_row(g, d, u, od)) for d, od in odd.items()]
        for u in g.measured_vertices()
    }
    chosen_d: dict[int, int] = {}
    chosen_row: dict[int, int] = {}
    placed = 0
    while candidates:
        layer = {}
        for u, opts in candidates.items():
            for d, row in opts:
                if not row & ~placed:
                    layer[u] = d, row
                    break
        if not layer:
            return None
        for u, (d, row) in layer.items():
            del candidates[u]
            chosen_d[u] = d
            chosen_row[u] = row
            placed |= 1 << u
    pairs = [(u, v) for u, row in chosen_row.items() for v in iter_bits(row)]
    order = StrictPartialOrder.make(g.measured, pairs)
    return FlowCertificate.make("pauli", g, chosen_d, order)


def find_extended_pauli_flow(g: OpenGraph) -> FlowCertificate | None:
    """Exhaustive extended-flow search over total measurement orders.

    Orders are enumerated lexicographically; corrections are assigned from
    the last measured vertex backwards so each vertex's constraint can be
    checked (and its compensation found) as soon as its correction set is
    chosen.  No polynomial algorithm is known, hence the small bound.
    """
    _check_vertex_bound(g, EXTENDED_FLOW_MAX_VERTICES)
    measured = g.measured_vertices()
    if not measured:
        return FlowCertificate.make("extended", g, {}, StrictPartialOrder.make(0, ()))

    odd = {d: odd_neighborhood(g, d) for d in subsets(g.non_inputs)}
    all_d = list(odd)
    # The compensation search depends only on the vertex and the mask of
    # vertices measured early enough; memoized across orders.
    comp_cache: dict[tuple[int, int], int | None] = {}

    def compensation(v: int, allowed: int) -> int | None:
        key = (v, allowed)
        if key not in comp_cache:
            comp_cache[key] = _find_compensation_rel(g, odd, v, allowed)
        return comp_cache[key]

    for perm in permutations(measured):
        pos = {v: i for i, v in enumerate(perm)}
        prefix_masks = []
        acc = 0
        for v in perm:
            acc |= 1 << v
            prefix_masks.append(acc)
        chosen: dict[int, int] = {}
        rows: dict[int, int] = {}
        comps: dict[int, int] = {}

        def assign(j: int) -> bool:
            if j < 0:
                return True
            v = perm[j]
            bv = 1 << v
            for d in all_d:
                row_v = kappa_row(g, d, v, odd[d])
                u_set = [u for u in perm[j + 1 :] if (rows[u] >> v) & 1]
                if (row_v >> v) & 1:
                    u_set.append(v)
                if u_set:
                    if not g.label(v).is_plane or v in u_set:
                        continue
                    comp = compensation(v, prefix_masks[min(pos[u] for u in u_set)])
                    if comp is None:
                        continue
                    comps[v] = comp
                elif v in comps:
                    del comps[v]
                chosen[v] = d
                rows[v] = row_v
                if assign(j - 1):
                    return True
                del chosen[v], rows[v]
                comps.pop(v, None)
            return False

        if assign(len(perm) - 1):
            order = StrictPartialOrder.chain(perm)
            cert = FlowCertificate.make("extended", g, chosen, order, comps)
            return cert
    return None


# ---------------------------------------------------------------------------
# Induced patterns.


def _totals_future(g: OpenGraph, total: Sequence[int], u: int) -> int:
    # Vertices measured after u in the total order plus the outputs, which
    # are never measured and so count as after everything.
    fut = g.outputs
    seen = False
    for v in total:
        if seen:
            fut |= 1 << v
        elif v == u:
            seen = True
    return fut


def induced_pattern(
    g: OpenGraph,
    p: CorrectionFunction,
    order: StrictPartialOrder,
    total: Sequence[int],
    angles: Mapping[int, Angle],
) -> Pattern:
    """Pattern whose corrections are generated from (p, order).

    The X targets of u are the members of p(u) still unmeasured after u
    (later in the total order or outputs), the Z targets those of the odd
    neighborhood of p(u); the total order must refine the partial one.

    Filtering by the refined total rather than by the partial order itself
    matters only for pairs the partial order leaves unordered: dropping
    those corrections would silently lose determinism (a correction on an
    unordered-but-later vertex is still required), so the filter follows the
    order the measurements actually run in.
    """
    _check_correction_function(g, p)
    if sorted(total) != g.measured_vertices():
        raise DomainError("total order must enumerate the measured vertices")
    if not order.refines_to(total):
        raise DomainError("total order is incompatible with the partial order")
    steps = []
    for u in total:
        label = g.label(u)
        if u not in angles:
            raise DomainError(f"missing angle for vertex {u}")
        angle = angles[u]
        if label.is_pauli and not (angle.is_symbolic or angle.is_pauli_angle()):
            raise PreconditionError(f"Pauli-measured vertex {u} needs angle 0 or pi")
        fut = _totals_future(g, total, u)
        steps.append(
            MeasurementStep(
                u,
                label,
                angle,
                x_corr=p[u] & fut,
                z_corr=odd_neighborhood(g, p[u]) & fut,
            )
        )
    return Pattern(g.graph, g.inputs, tuple(steps))


def is_induced_by(pat: Pattern, cert: FlowCertificate) -> bool:
    """Whether the pattern's corrections equal the certificate's induced ones
    and its measurement order refines the certificate's order.
    """
    g = underlying_open_graph(pat)
    if g != cert.graph:
        raise DomainError("pattern and certificate have different open graphs")
    total = pat.measurement_order()
    return cert.order.refines_to(total) and pat == induced_pattern(
        g, cert.p_map(), cert.order, total, {s.qubit: s.angle for s in pat.steps}
    )


# ---------------------------------------------------------------------------
# Searching for a certificate that induces a *given* pattern.


def find_inducing_certificate(pat: Pattern, kind: str = "extended") -> FlowCertificate | None:
    """A flow certificate of the given kind that induces ``pat``, or None.

    The certificate order is the pattern's own measurement chain: among
    orders compatible with the pattern, the chain has the fewest vertices
    that might correct from the past and the largest at-or-before sets for
    compensations, so a certificate over any compatible partial order
    implies one over the chain.  Each vertex's candidate correction sets
    are those consistent with its X/Z targets (for gflow, also its plane
    clause); :func:`_choose_corrections` picks one per vertex.
    """
    if kind not in ("gflow", "pauli", "extended"):
        raise DomainError(f"unknown flow kind {kind!r}")
    g = underlying_open_graph(pat)
    seq = pat.measurement_order()
    if kind == "gflow" and any(g.label(v).is_pauli for v in seq):
        return None

    order = StrictPartialOrder.chain(seq)
    odd = {d: odd_neighborhood(g, d) for d in subsets(g.non_inputs)}

    cands: dict[int, list[tuple[int, int]]] = {}
    for s in pat.steps:
        u = s.qubit
        fut = _totals_future(g, seq, u)
        # X targets lie within p(u), which avoids the inputs; Z targets may
        # reach an input through Odd(p(u)).
        if s.x_corr & ~(fut & g.non_inputs) or s.z_corr & ~fut:
            return None
        free = g.non_inputs & g.measured & ~fut
        # No kind lets u correct itself; the plain kinds allow no past corrector.
        barred = 1 << u if kind == "extended" else ~order.after(u)
        opts = []
        for extra in subsets(free):
            d = s.x_corr | extra
            od = odd[d]
            if od & fut != s.z_corr:
                continue
            row = kappa_row(g, d, u, od)
            if row & barred:
                continue
            if kind == "gflow" and not _plane_clause_holds(g, u, d, od):
                continue
            opts.append((d, row))
        if not opts:
            return None
        cands[u] = opts

    chosen = _choose_corrections(g, seq, cands, odd)
    if chosen is None:
        return None
    p, comps = chosen
    return FlowCertificate.make(kind, g, p, order, comps)


def _choose_corrections(
    g: OpenGraph,
    seq: Sequence[int],
    cands: Mapping[int, Sequence[tuple[int, int]]],
    odd: Mapping[int, int],
) -> tuple[dict[int, int], dict[int, int]] | None:
    """Correction and compensation sets for the measurement chain ``seq``.

    ``cands[u]`` lists ``u``'s candidate ``(d, kappa_row)`` pairs in order of
    preference, self-correcting sets already dropped.  A past corrector
    ``v`` of ``u`` (in the row, earlier in ``seq``) must be plane-measured
    and have a compensation inside the prefix of ``seq`` ending at ``u``.
    That clause involves ``u``'s row alone, and a compensation that exists
    for a prefix exists for every longer one, so each vertex takes its first
    admissible candidate on its own.  ``D_v`` is the compensation at the
    prefix of the earliest ``u`` that needs ``v``.  Returns ``(p, D)``, or
    None when some vertex has no admissible candidate.
    """
    planes = mask_of(v for v in seq if g.label(v).is_plane)
    cache: dict[tuple[int, int], int | None] = {}

    def compensation(v: int, prefix: int) -> int | None:
        if (v, prefix) not in cache:
            cache[v, prefix] = _find_compensation_rel(g, odd, v, prefix)
        return cache[v, prefix]

    p: dict[int, int] = {}
    comps: dict[int, int] = {}
    before = 0
    for u in seq:
        prefix = before | 1 << u
        for d, row in cands[u]:
            past = row & before
            if not past & ~planes and all(
                compensation(v, prefix) is not None for v in iter_bits(past)
            ):
                break
        else:
            return None
        p[u] = d
        for v in iter_bits(past):
            comps.setdefault(v, compensation(v, prefix))
        before = prefix
    return p, comps


def _find_compensation_rel(
    g: OpenGraph, odd: Mapping[int, int], v: int, allowed: int
) -> int | None:
    bv = 1 << v
    for d, od in odd.items():
        union = d | od
        if not union & bv:
            continue
        if union & ~g.measured or union & ~allowed:
            continue
        if kappa_row(g, d, v, od) & union:
            continue
        return d
    return None
