"""Deterministic instance generators for the verification suites.

Everything here is reproducible: exhaustive enumerations follow the
canonical vertex order and random families are seeded.  The acceptance
suite and the cross-validation tests share these generators.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Iterator, Sequence
from itertools import combinations, product

from .angles import Angle, default_angle
from .bits import bit_list, mask_of, subsets
from .flows import FlowCertificate, StrictPartialOrder, find_extended_pauli_flow, induced_pattern
from .graphs import ALL_LABELS, Graph, Label, OpenGraph
from .patterns import MeasurementStep, Pattern, validate

_INPUT_LABELS = (Label.X, Label.Y, Label.XY)


def all_graphs(vertices: Sequence[int]) -> Iterator[Graph]:
    """Every simple graph on the given vertices (all edge subsets)."""
    pairs = list(combinations(vertices, 2))
    for emask in range(1 << len(pairs)):
        yield Graph.make(vertices, [pairs[i] for i in range(len(pairs)) if (emask >> i) & 1])


def label_assignments(measured: Sequence[int], inputs: int = 0) -> Iterator[dict[int, Label]]:
    """Every measurement-label map; inputs only get XY-plane-compatible labels."""
    choices = [
        _INPUT_LABELS if (inputs >> v) & 1 else ALL_LABELS
        for v in measured
    ]
    for combo in product(*choices):
        yield dict(zip(measured, combo))


def all_open_graphs(max_vertices: int = 3, with_inputs: bool = True) -> Iterator[OpenGraph]:
    """Exhaustive open graphs on up to ``max_vertices`` vertices."""
    for n in range(1, max_vertices + 1):
        verts = list(range(n))
        for g in all_graphs(verts):
            for omask in range(1 << n):
                measured = [v for v in verts if not (omask >> v) & 1]
                imasks = range(1 << n) if with_inputs else (0,)
                for imask in imasks:
                    for labels in label_assignments(measured, imask):
                        yield OpenGraph.make(g, imask, omask, labels)


def extended_flow_example() -> tuple[OpenGraph, FlowCertificate]:
    """Five-vertex instance whose certificate reaches into the past.

    The correction function uses vertex 1 for the measurements of 2 and 3
    although 1 is measured before both, compensated by past Pauli sets; the
    pair is an extended flow of the graph but not a plain flow.
    """
    g = Graph.make([0, 1, 2, 3, 4], [(0, 1), (1, 2), (1, 3), (1, 4)])
    og = OpenGraph.make(
        g, [], [4], {0: Label.YZ, 1: Label.XY, 2: Label.X, 3: Label.Z}
    )
    order = StrictPartialOrder.chain([0, 1, 2, 3])
    p = {
        0: mask_of([0, 4]),
        1: mask_of([4]),
        2: mask_of([1]),
        3: mask_of([3]),
    }
    comp = {1: mask_of([2]), 0: mask_of([0, 2])}
    return og, FlowCertificate.make("extended", og, p, order, comp)


def curated_open_graphs() -> Iterator[OpenGraph]:
    """Documented 4- and 5-vertex families with seeded label sampling.

    Full enumeration at these sizes is far beyond the runtime budget; the
    family covers paths, stars, cycles, a complete graph, and the
    extended-flow example graph, each with a deterministic sample of label
    assignments (every sample also includes the all-XY and all-X maps).
    """
    rng = random.Random(7)
    bases: list[tuple[Graph, list[int], list[int]]] = []
    p4 = Graph.make([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3)])
    bases.append((p4, [], [3]))
    bases.append((p4, [0], [3]))
    star4 = Graph.make([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)])
    bases.append((star4, [], [3]))
    c4 = Graph.make([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3), (0, 3)])
    bases.append((c4, [], [2, 3]))
    k4 = Graph.make([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    bases.append((k4, [], [3]))
    p5 = Graph.make([0, 1, 2, 3, 4], [(0, 1), (1, 2), (2, 3), (3, 4)])
    bases.append((p5, [], [4]))
    bases.append((p5, [0], [4]))
    c5 = Graph.make([0, 1, 2, 3, 4], [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    bases.append((c5, [], [4]))
    fig_graph, _ = extended_flow_example()
    bases.append((fig_graph.graph, [], [4]))

    for g, ins, outs in bases:
        imask = mask_of(ins)
        omask = mask_of(outs)
        measured = [v for v in g.vertices if not (omask >> v) & 1]
        seen: set[tuple[Label, ...]] = set()
        samples = [(Label.XY,) * len(measured), (Label.X,) * len(measured)]
        while len(samples) < 40:
            combo = tuple(
                rng.choice(_INPUT_LABELS if (imask >> v) & 1 else ALL_LABELS)
                for v in measured
            )
            samples.append(combo)
        for combo in samples:
            if combo in seen:
                continue
            seen.add(combo)
            yield OpenGraph.make(g, imask, omask, dict(zip(measured, combo)))


def angle_assignments(og: OpenGraph, seed: int = 11) -> list[dict[int, Angle]]:
    """Three deterministic angle maps: ``default_angle``, then one that sets
    every Pauli to pi, then a seeded random one."""
    rng = random.Random((seed, og.graph.edges, og.labels).__repr__())
    zero = {v: default_angle(og.label(v)) for v in og.measured_vertices()}
    pauli_pi = {
        v: Angle.of_real(2.0 * math.pi * 5.0 / 7.0) if og.label(v).is_plane else Angle.PI
        for v in og.measured_vertices()
    }
    randomized = {
        v: Angle.of_real(rng.uniform(0.0, 2.0 * math.pi))
        if og.label(v).is_plane
        else (Angle.ZERO if rng.random() < 0.5 else Angle.PI)
        for v in og.measured_vertices()
    }
    return [zero, pauli_pi, randomized]


# ---------------------------------------------------------------------------
# Pattern corpus for the robust-determinism equivalence checks.


def _patterns_for_base(
    g: Graph, inputs: int, order: Sequence[int], corrections: str = "all"
) -> Iterator[Pattern]:
    """Patterns on a fixed base: all labels x correction assignments.

    Each angle is its label's ``default_angle``.  ``corrections`` is "all"
    (every assignment of at most two vertices per set) or "sampled" (the
    empty assignment, four seeded draws, and the induced sets of an extended
    flow when one exists -- guaranteeing deterministic positives).
    """
    vmask = g.vmask
    measured = list(order)
    rng = random.Random(5)
    for labels in label_assignments(measured, inputs):
        futures = []
        seen = 0
        for v in measured:
            seen |= 1 << v
            futures.append(vmask & ~seen)
        per_step_options = [[s for s in subsets(fut) if s.bit_count() <= 2] for fut in futures]
        angle_of = {v: default_angle(labels[v]) for v in measured}

        def build(corr: Sequence[tuple[int, int]]):
            steps = tuple(
                MeasurementStep(v, labels[v], angle_of[v], xc, zc)
                for v, (xc, zc) in zip(measured, corr)
            )
            return Pattern(g, inputs, steps)

        if corrections == "all":
            for combo in product(
                *[[(x, z) for x in opts for z in opts] for opts in per_step_options]
            ):
                yield build(combo)
            continue
        combos = {tuple((0, 0) for _ in measured)}
        for _ in range(4):
            combos.add(
                tuple(
                    (rng.choice(opts), rng.choice(opts))
                    for opts in per_step_options
                )
            )
        for combo in sorted(combos):
            yield build(combo)
        og = OpenGraph.make(g, inputs, vmask & ~mask_of(measured), labels)
        cert = find_extended_pauli_flow(og)
        if cert is not None:
            pat = induced_pattern(
                og, cert.p_map(), cert.order, cert.order.canonical_extension(), angle_of
            )
            if pat.measurement_order() == list(measured):
                yield pat


def pattern_corpus() -> Iterator[Pattern]:
    """The enumerated small-pattern corpus.

    Exhaustive over 2- and 3-qubit bases (all label assignments, all
    correction sets of at most two vertices per step) and a 4-qubit family
    with all label assignments and sampled corrections plus the induced
    sets of any extended flow.  Every yielded pattern is valid.
    """
    e2 = Graph.make([0, 1], [(0, 1)])
    d2 = Graph.make([0, 1], [])
    p3 = Graph.make([0, 1, 2], [(0, 1), (1, 2)])
    t3 = Graph.make([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
    h3 = Graph.make([0, 1, 2], [(0, 1)])
    p4 = Graph.make([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3)])
    s4 = Graph.make([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)])
    bases: list[tuple[Graph, int, list[int], str]] = [
        (e2, mask_of([0]), [0], "all"),
        (e2, 0, [0], "all"),
        (d2, 0, [0], "all"),
        (e2, 0, [0, 1], "all"),
        (p3, 0, [0, 1], "all"),
        (p3, 0, [1, 0], "all"),
        (p3, mask_of([0]), [0, 1], "all"),
        (t3, 0, [0, 1], "all"),
        (h3, 0, [0, 1], "all"),
        (p4, 0, [0, 1, 2], "sampled"),
        (s4, 0, [1, 2, 3], "sampled"),
    ]
    for g, inputs, order, mode in bases:
        for pat in _patterns_for_base(g, inputs, order, corrections=mode):
            if not validate(pat):
                yield pat


# ---------------------------------------------------------------------------
# Random valid patterns for the rewrite-termination suite.


def random_valid_pattern(rng: random.Random, max_qubits: int = 6) -> Pattern:
    n = rng.randint(2, max_qubits)
    verts = list(range(n))
    pairs = list(combinations(verts, 2))
    edges = [e for e in pairs if rng.random() < 0.45]
    g = Graph.make(verts, edges)
    n_measured = rng.randint(1, n)
    order = rng.sample(verts, n_measured)
    imask = 0
    for v in verts:
        if rng.random() < 0.3:
            imask |= 1 << v
    steps = []
    seen = 0
    for v in order:
        seen |= 1 << v
        if (imask >> v) & 1:
            label = rng.choice(_INPUT_LABELS)
        else:
            label = rng.choice(ALL_LABELS)
        if label.is_pauli:
            angle = Angle.ZERO if rng.random() < 0.5 else Angle.PI
        else:
            angle = Angle.of_real(rng.uniform(0.0, 2.0 * math.pi))
        future = g.vmask & ~seen
        fut_list = bit_list(future)
        x_corr = mask_of(rng.sample(fut_list, min(len(fut_list), rng.randint(0, 3))))
        z_corr = mask_of(rng.sample(fut_list, min(len(fut_list), rng.randint(0, 3))))
        steps.append(MeasurementStep(v, label, angle, x_corr, z_corr))
    return Pattern(g, imask, tuple(steps))


def random_valid_patterns(count: int, max_qubits: int = 6, seed: int = 2024) -> Iterator[Pattern]:
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        pat = random_valid_pattern(rng, max_qubits)
        if validate(pat):
            continue
        produced += 1
        yield pat


def random_open_graph(rng: random.Random, n: int) -> OpenGraph:
    """Random open graph with at least one measured vertex (inputs empty)."""
    verts = list(range(n))
    edges = [e for e in combinations(verts, 2) if rng.random() < 0.5]
    g = Graph.make(verts, edges)
    n_out = rng.randint(0, n - 1)
    outs = mask_of(rng.sample(verts, n_out))
    labels = {v: rng.choice(ALL_LABELS) for v in verts if not (outs >> v) & 1}
    return OpenGraph.make(g, 0, outs, labels)


def random_partial_order(rng: random.Random, domain: Iterable[int]) -> StrictPartialOrder:
    seq = list(domain)
    rng.shuffle(seq)
    pairs = []
    for i, u in enumerate(seq):
        for v in seq[i + 1 :]:
            if rng.random() < 0.5:
                pairs.append((u, v))
    return StrictPartialOrder.make(seq, pairs)


def all_partial_orders(domain: Sequence[int]) -> list[StrictPartialOrder]:
    """Every strict partial order on the domain (meant for tiny domains)."""
    pairs = [(u, v) for u in domain for v in domain if u != v]
    out = []
    for emask in range(1 << len(pairs)):
        rel = {pairs[i] for i in range(len(pairs)) if (emask >> i) & 1}
        if any((b, a) in rel for a, b in rel):
            continue
        closed = all((a, d) in rel for a, b in rel for c, d in rel if b == c)
        if closed:
            out.append(StrictPartialOrder.make(domain, rel))
    return out
