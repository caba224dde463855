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
every longer one).  The same chooser finds an extended flow on a fixed
chain, which is how the pattern corpus gets its flow-induced patterns.
Only ``find_extended_pauli_flow``, which must try every total order, still
backtracks.

``kappa_row`` evaluates the predicate against every candidate ``v`` at
once with a handful of integer operations; the checker and the searches
all read it a row at a time.  ``_Candidates`` is the one place that
enumerates correction sets: every search takes its candidate rows and
compensation sets from it.  The checker calls none of it, nor the choice
code, so it judges the searches' certificates on its own.
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
        vmask = self.graph.vmask
        for name, sets in (("p", self.p), ("D", self.compensations)):
            for v, d in sets:
                if v < 0 or not (vmask >> v) & 1:
                    raise DomainError(f"{name} has a key outside the graph")
                if d & ~vmask:
                    raise DomainError(f"{name}({v}) names a vertex outside the graph")
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


class _Candidates:
    """The one place that enumerates correction sets, built once per open graph.

    ``odd`` holds the odd neighborhood of every set of non-inputs, in
    canonical :func:`subsets` order.  Every search takes its candidate rows
    from :meth:`rows` and its compensation sets from :meth:`compensation`.
    """

    def __init__(self, g: OpenGraph) -> None:
        self.g = g
        self.odd = {d: odd_neighborhood(g, d) for d in subsets(g.non_inputs)}
        self._comps: dict[tuple[int, int], int | None] = {}

    def rows(self, u: int, future: int = 0, x: int = 0, z: int = 0) -> list[tuple[int, int]]:
        """``u``'s ``(d, kappa_row)`` pairs over the sets ``d`` of non-inputs
        with ``d & future == x`` and ``Odd(d) & future == z``, in canonical
        order, without the sets that would make ``u`` correct itself; ``x``
        must lie within ``future``'s non-inputs.  The rows do not depend on
        the measurement order."""
        out = []
        for extra in subsets(self.g.non_inputs & ~future):
            d = x | extra
            od = self.odd[d]
            if od & future == z:
                row = kappa_row(self.g, d, u, od)
                if not (row >> u) & 1:
                    out.append((d, row))
        return out

    def compensation(self, v: int, allowed: int) -> int | None:
        """The first set D of non-inputs whose union with its odd neighborhood
        holds ``v``, lies within the measured vertices of ``allowed`` and holds
        no D-corrector of ``v``, or None.  Memoized: it depends on nothing else."""
        key = v, allowed
        if key not in self._comps:
            inside = allowed & self.g.measured
            self._comps[key] = None
            for d, od in self.odd.items():
                union = d | od
                if (union >> v) & 1 and not union & ~inside and not kappa_row(self.g, d, v, od) & union:
                    self._comps[key] = d
                    break
        return self._comps[key]


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
    seam = _Candidates(g)
    candidates = {u: seam.rows(u) for u in g.measured_vertices()}
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
    chosen.  The bound is small because the search walks up to n! orders
    before it can answer that there is no flow.
    """
    _check_vertex_bound(g, EXTENDED_FLOW_MAX_VERTICES)
    measured = g.measured_vertices()
    if not measured:
        return FlowCertificate.make("extended", g, {}, StrictPartialOrder.make(0, ()))

    seam = _Candidates(g)
    cands = {v: seam.rows(v) for v in measured}
    n = len(measured)
    for perm in permutations(measured):
        prefix_masks = []
        acc = 0
        for v in perm:
            acc |= 1 << v
            prefix_masks.append(acc)
        chosen: dict[int, int] = {}
        rows: dict[int, int] = {}
        comps: dict[int, int] = {}

        def assign(j: int) -> bool:
            # Nothing is undone on the way back: what a failed branch left
            # for a vertex is overwritten when the search returns to it.
            if j < 0:
                return True
            v = perm[j]
            for d, row_v in cands[v]:
                # The earliest later vertex that v would correct from the past.
                first = next((i for i in range(j + 1, n) if (rows[perm[i]] >> v) & 1), None)
                if first is None:
                    comps.pop(v, None)
                elif not g.label(v).is_plane:
                    continue
                else:
                    comp = seam.compensation(v, prefix_masks[first])
                    if comp is None:
                        continue
                    comps[v] = comp
                chosen[v] = d
                rows[v] = row_v
                if assign(j - 1):
                    return True
            return False

        if assign(n - 1):
            order = StrictPartialOrder.chain(perm)
            return FlowCertificate.make("extended", g, chosen, order, comps)
    return None


def _extended_flow_on_chain(g: OpenGraph, seq: Sequence[int]) -> FlowCertificate | None:
    """An extended flow whose order is the chain ``seq`` of the measured
    vertices, or None when the chain has none.

    It returns what ``find_extended_pauli_flow`` returns when that search
    succeeds on ``seq``: the backtracker tries each vertex's sets in the same
    order, and :func:`_choose_corrections` takes the first admissible one.
    """
    seam = _Candidates(g)
    chosen = _choose_corrections(seam, seq, {u: seam.rows(u) for u in seq})
    if chosen is None:
        return None
    p, comps = chosen
    return FlowCertificate.make("extended", g, p, StrictPartialOrder.chain(seq), comps)


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
    order the measurements actually run in.  A Pauli vertex's angle must be
    0, pi or a variable, or ``Pattern`` raises ``PreconditionError``.
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
        fut = _totals_future(g, total, u)
        steps.append(
            MeasurementStep(
                u,
                label,
                angles[u],
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

    seam = _Candidates(g)
    cands: dict[int, list[tuple[int, int]]] = {}
    for s in pat.steps:
        u = s.qubit
        fut = _totals_future(g, seq, u)
        # X targets lie within p(u), which avoids the inputs; Z targets may
        # reach an input through Odd(p(u)).
        if s.x_corr & ~(fut & g.non_inputs) or s.z_corr & ~fut:
            return None
        # The plain kinds allow no past corrector.
        barred = 0 if kind == "extended" else ~fut
        cands[u] = [
            (d, row)
            for d, row in seam.rows(u, fut, s.x_corr, s.z_corr)
            if not row & barred and (kind != "gflow" or _plane_clause_holds(g, u, d, seam.odd[d]))
        ]
        if not cands[u]:
            return None

    chosen = _choose_corrections(seam, seq, cands)
    if chosen is None:
        return None
    p, comps = chosen
    return FlowCertificate.make(kind, g, p, StrictPartialOrder.chain(seq), comps)


def _choose_corrections(
    seam: _Candidates, seq: Sequence[int], cands: Mapping[int, Sequence[tuple[int, int]]]
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
    planes = mask_of(v for v in seq if seam.g.label(v).is_plane)
    p: dict[int, int] = {}
    comps: dict[int, int] = {}
    before = 0
    for u in seq:
        prefix = before | 1 << u
        for d, row in cands[u]:
            past = row & before
            if not past & ~planes and all(
                seam.compensation(v, prefix) is not None for v in iter_bits(past)
            ):
                break
        else:
            return None
        p[u] = d
        for v in iter_bits(past):
            comps.setdefault(v, seam.compensation(v, prefix))
        before = prefix
    return p, comps
