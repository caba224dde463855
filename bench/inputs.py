"""Seeded inputs of the four workloads.

Every generator is a pure function of its seed: the same seed gives the same
op list, another seed another one.  The op lists are built so that their
total cost hardly depends on the seed (see README.md, "Workloads").
"""

from __future__ import annotations

import dataclasses
import math
import random
from collections.abc import Callable

from mbqc import corpus
from mbqc.angles import Angle
from mbqc.flows import FlowCertificate, StrictPartialOrder, induced_pattern
from mbqc.graphs import Graph, Label, OpenGraph
from mbqc.patterns import Pattern

from refcheck import RefGraph, ref_graph

# Labels that keep the flow p(u) = {f(u)} of a graph built by flow_graph():
# u lies in Odd(p(u)) and not in p(u), so every axis of X, Y and XY holds.
_FLOW_LABELS = (Label.XY, Label.X, Label.Y)

# determinism-wide shapes: (kind, qubits, copies per pass).  A 2-row ladder
# has two inputs, so 10 qubits there cost as much as 11 on a chain; a
# 12-qubit ladder would need two 8192^2 Choi matrices (about 2 GB).
WIDE_SHAPES = (
    ("chain", 8, 2),
    ("chain", 9, 2),
    ("chain", 10, 1),
    ("chain", 11, 1),
    ("ladder", 8, 2),
    ("ladder", 10, 1),
)

#: Share of each stratum of the pattern corpus drawn for determinism-corpus.
CORPUS_FRACTION = 1 / 8


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# Conversions to the reference checkers' plain data.


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def ref_of(og: OpenGraph) -> RefGraph:
    return ref_graph(
        og.graph.vertices,
        og.graph.edges,
        _bits(og.inputs),
        _bits(og.outputs),
        {v: lab.value for v, lab in og.labels},
    )


def ref_cert(cert: FlowCertificate) -> tuple[dict, list, dict]:
    """``(p, order pairs, compensations)`` of a certificate as plain data."""
    p = {u: frozenset(_bits(d)) for u, d in cert.p}
    comp = {v: frozenset(_bits(d)) for v, d in cert.compensations}
    return p, list(cert.order.pairs), comp


# ---------------------------------------------------------------------------
# Graphs.


def relabel(og: OpenGraph, perm: dict[int, int]) -> OpenGraph:
    """The same open graph with vertex ``v`` renamed ``perm[v]``."""
    g = Graph.make([perm[v] for v in og.graph.vertices], [(perm[a], perm[b]) for a, b in og.graph.edges])

    def mask(m: int) -> list[int]:
        return [perm[v] for v in _bits(m)]

    return OpenGraph.make(g, mask(og.inputs), mask(og.outputs), {perm[v]: lab for v, lab in og.labels})


def shuffled_names(rng: random.Random, og: OpenGraph) -> OpenGraph:
    names = list(og.graph.vertices)
    rng.shuffle(names)
    return relabel(og, dict(zip(og.graph.vertices, names)))


def flow_graph(rng: random.Random, n: int) -> tuple[OpenGraph, dict[int, int]]:
    """Random open graph on ``n`` vertices with a Pauli flow by construction.

    Vertex ``u`` is corrected by one later vertex ``f(u)`` (``f`` injective,
    ``u ~ f(u)``); an extra edge is kept only if every neighbour of ``f(u)``
    other than ``u`` is still measured after ``u``.  Returns the graph and
    ``p`` with ``p(u) = {f(u)}`` as masks, before the vertices are renamed.
    """
    n_out = rng.randint(1, 2)
    m = n - n_out
    used: set[int] = set()
    f: dict[int, int] = {}
    for u in reversed(range(m)):
        f[u] = rng.choice([w for w in range(u + 1, n) if w not in used])
        used.add(f[u])
    finv = {w: u for u, w in f.items()}

    def allowed(a: int, b: int) -> bool:
        # a ~ b puts b in N(a): fine unless a = f(u) and b is measured before u.
        for x, y in ((a, b), (b, a)):
            u = finv.get(x)
            if u is not None and y != u and y < m and y < u:
                return False
        return True

    edges = {(u, f[u]) for u in range(m)}
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in edges]
    rng.shuffle(pairs)
    for a, b in pairs:
        if rng.random() < 0.5 and allowed(a, b):
            edges.add((a, b))
    inputs = [v for v in range(m) if v not in used and rng.random() < 0.3]
    labels = {u: rng.choice(_FLOW_LABELS) for u in range(m)}
    og = OpenGraph.make(Graph.make(range(n), edges), inputs, range(m, n), labels)
    return og, {u: 1 << f[u] for u in range(m)}


@dataclasses.dataclass(frozen=True)
class FlowCase:
    graph: OpenGraph
    must_have_flow: bool
    source: str


#: Graphs kept per 5-vertex base of the curated family.  With all of them a
#: pass took about 22 s and the median op read 2.0 to 3.2 ms in five runs.
CURATED_5V_PER_BASE = 4


def flow_search_family() -> list[tuple[OpenGraph, bool, str]]:
    """The fixed graphs of flow-search: ``(graph, has a flow by construction, source)``.

    Every 4-vertex graph of the curated family and the first
    CURATED_5V_PER_BASE graphs of each 5-vertex base, 24 random 4-vertex
    graphs and 16 graphs with a flow by construction, both from fixed seeds,
    and the showcase graph.
    """
    out = []
    per_base: dict = {}
    for og in corpus.curated_open_graphs():
        key = (og.graph.edges, og.inputs, og.outputs)
        per_base[key] = per_base.get(key, 0) + 1
        if len(og.graph.vertices) == 4 or per_base[key] <= CURATED_5V_PER_BASE:
            out.append((og, False, "curated"))
    rng = random.Random("flow-search-family")
    out += [(corpus.random_open_graph(rng, 4), False, "random") for _ in range(24)]
    out += [(flow_graph(rng, 4 + i % 2)[0], True, "by-construction") for i in range(16)]
    out.append((corpus.extended_flow_example()[0], True, "showcase"))
    return out


def flow_search_cases(
    seed: int, generate: Callable = lambda name, fn: fn()
) -> list[FlowCase]:
    """The flow-search op list: the fixed family, renumbered and shuffled by the seed.

    The finders scan candidates in numeric vertex order, so a renumbered
    graph takes another search path and may get another certificate; a
    search that finds nothing does the same work under any numbering.
    Drawing the graphs themselves per seed moved the work at the median op
    by a third between seeds.  ``generate(name, fn)`` runs the corpus
    generators, so that a tracer can time them.
    """
    rng = _rng("flow-search", seed)
    family = generate("corpus.generate", flow_search_family)
    cases = [FlowCase(shuffled_names(rng, og), flow, source) for og, flow, source in family]
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# Patterns.


def _angle(rng: random.Random, label: Label) -> Angle:
    if label.is_pauli:
        return Angle.PI if rng.random() < 0.5 else Angle.ZERO
    return Angle.of_real(rng.uniform(0.0, 2.0 * math.pi))


def _wide_labels(rng: random.Random, measured: range) -> dict[int, Label]:
    # The oracle's work halves with each step, and a plane step costs three
    # times a Pauli step, so the first four steps are always XY: the labels
    # drawn later change the work of a pattern by a few percent at most.
    return {v: Label.XY if v < 4 else rng.choice(_FLOW_LABELS) for v in measured}


def flow_chain(rng: random.Random, n: int) -> tuple[OpenGraph, dict[int, int]]:
    """Path 0-1-...-(n-1), input 0, output n-1, flow p(u) = {u+1}."""
    g = Graph.make(range(n), [(v, v + 1) for v in range(n - 1)])
    labels = _wide_labels(rng, range(n - 1))
    return OpenGraph.make(g, [0], [n - 1], labels), {u: 1 << (u + 1) for u in range(n - 1)}


def flow_ladder(rng: random.Random, n: int) -> tuple[OpenGraph, dict[int, int]]:
    """Two-row cluster ladder, vertex 2c+r at column c and row r.

    Column 0 is the input, the last column the output; every column but the
    first keeps its rung with probability 1/2.  Flow p(u) = {u+2}, the next
    vertex along the row, whose other neighbours all lie in later columns.
    """
    cols = n // 2
    edges = [(2 * c + r, 2 * (c + 1) + r) for c in range(cols - 1) for r in (0, 1)]
    edges += [(2 * c, 2 * c + 1) for c in range(1, cols) if rng.random() < 0.5]
    measured = range(2 * cols - 2)
    labels = _wide_labels(rng, measured)
    og = OpenGraph.make(Graph.make(range(n), edges), [0, 1], [n - 2, n - 1], labels)
    return og, {u: 1 << (u + 2) for u in measured}


def induced(rng: random.Random, og: OpenGraph, p: dict[int, int]) -> Pattern:
    """The pattern induced by ``(p, ascending chain)`` with seeded angles."""
    total = sorted(p)
    angles = {v: _angle(rng, og.label(v)) for v in total}
    return induced_pattern(og, p, StrictPartialOrder.chain(total), total, angles)


def twin(rng: random.Random, pat: Pattern) -> Pattern:
    """``pat`` with one correction target dropped from a step in its second half.

    The oracle stops at the first failing step and its first steps cost the
    most, so a late drop keeps the cost of a twin close to its original's.
    The last step is spared: without its X correction the inducing-certificate
    search of an 11-qubit chain backtracks for over a minute.
    """
    n = len(pat.steps)
    late = [i for i, s in enumerate(pat.steps) if n // 2 <= i < n - 1 and s.x_corr | s.z_corr]
    i = rng.choice(late)
    s = pat.steps[i]
    targets = [("x", v) for v in _bits(s.x_corr)] + [("z", v) for v in _bits(s.z_corr)]
    side, v = rng.choice(targets)
    if side == "x":
        s = dataclasses.replace(s, x_corr=s.x_corr & ~(1 << v))
    else:
        s = dataclasses.replace(s, z_corr=s.z_corr & ~(1 << v))
    steps = pat.steps[:i] + (s,) + pat.steps[i + 1 :]
    return Pattern(pat.graph, pat.inputs, steps)


@dataclasses.dataclass(frozen=True)
class WideCase:
    pattern: Pattern
    flow_induced: bool
    shape: str


def wide_cases(seed: int) -> list[WideCase]:
    """determinism-wide op list: each shape's induced pattern and its twin."""
    rng = _rng("determinism-wide", seed)
    builders = {"chain": flow_chain, "ladder": flow_ladder}
    cases = []
    for kind, n, copies in WIDE_SHAPES:
        for _ in range(copies):
            og, p = builders[kind](rng, n)
            pat = induced(rng, og, p)
            cases.append(WideCase(pat, True, f"{kind}{n}"))
            cases.append(WideCase(twin(rng, pat), False, f"{kind}{n}-twin"))
    rng.shuffle(cases)
    return cases


def corpus_sample(
    seed: int, generate: Callable = lambda name, fn: fn()
) -> list[Pattern]:
    """A seeded draw of CORPUS_FRACTION of every stratum of the pattern corpus.

    A stratum is a (qubits, steps, inputs) size class, so every seed draws
    the same number of patterns of each size.
    """
    rng = _rng("determinism-corpus", seed)
    pats = generate("corpus.generate", lambda: list(corpus.pattern_corpus()))
    strata: dict[tuple[int, int, int], list[Pattern]] = {}
    for pat in pats:
        key = (pat.total_qubits(), len(pat.steps), pat.inputs.bit_count())
        strata.setdefault(key, []).append(pat)
    out = []
    for key in sorted(strata):
        group = strata[key]
        out += rng.sample(group, max(1, round(len(group) * CORPUS_FRACTION)))
    rng.shuffle(out)
    return out
