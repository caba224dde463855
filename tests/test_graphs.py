"""Vertex-set algebra, open-graph and label tests."""

from __future__ import annotations

import pytest

from mbqc import Axis, DomainError, Graph, Label, OpenGraph, mask_of, odd_neighborhood
from mbqc.bits import bit_list, subsets
from mbqc.corpus import all_graphs

PATH = Graph.make([1, 2, 3], [(1, 2), (2, 3)])
TRIANGLE = Graph.make([1, 2, 3], [(1, 2), (2, 3), (1, 3)])


def brute_odd(g: Graph, d: int) -> int:
    out = 0
    for v in g.vertices:
        count = sum(1 for w in bit_list(d) if (g.adj[w] >> v) & 1)
        if count % 2:
            out |= 1 << v
    return out


@pytest.mark.parametrize(
    "d, expected",
    [
        (mask_of([2]), [1, 3]),
        (0, []),
        # The naive guess {2} is wrong: vertex 2 has both of {1,3} as
        # neighbours, an even count; recomputed with brute_odd.
        (mask_of([1, 3]), []),
    ],
)
def test_odd_neighborhood_path(d, expected):
    assert bit_list(odd_neighborhood(PATH, d)) == expected
    assert odd_neighborhood(PATH, d) == brute_odd(PATH, d)


def test_odd_neighborhood_triangle():
    # d = {1,2}: vertices 1 and 2 each see one member of d, vertex 3 sees two.
    d = mask_of([1, 2])
    assert bit_list(odd_neighborhood(TRIANGLE, d)) == [1, 2]
    assert odd_neighborhood(TRIANGLE, d) == brute_odd(TRIANGLE, d)


def test_odd_neighborhood_domain_error():
    with pytest.raises(DomainError):
        odd_neighborhood(PATH, mask_of([7]))


def test_odd_linear_over_symmetric_difference():
    # GF(2)-linearity, exhaustive on all graphs with up to 5 vertices.
    for n in (2, 3, 4, 5):
        for g in all_graphs(list(range(n))):
            table = {d: odd_neighborhood(g, d) for d in subsets(g.vmask)}
            for a in subsets(g.vmask):
                for b in subsets(g.vmask):
                    assert table[a ^ b] == table[a] ^ table[b]


def test_d_meets_odd_d_evenly():
    for n in (2, 3, 4, 5):
        for g in all_graphs(list(range(n))):
            for d in subsets(g.vmask):
                assert (d & odd_neighborhood(g, d)).bit_count() % 2 == 0


def test_open_graph_invariants():
    g = Graph.make([0, 1], [(0, 1)])
    with pytest.raises(DomainError):
        OpenGraph.make(g, [0], [1], {0: Label.YZ})  # measured input off the XY plane
    with pytest.raises(DomainError):
        OpenGraph.make(g, [], [1], {})  # label missing for measured vertex
    with pytest.raises(DomainError):
        OpenGraph.make(g, [], [1], {0: Label.XY, 1: Label.X})  # label on an output
    og = OpenGraph.make(g, [0], [1], {0: Label.XY})
    assert og.measured_vertices() == [0]
    assert og.label(0) is Label.XY
    with pytest.raises(DomainError):
        og.label(1)


def test_graph_rejects_self_loops_and_unknown_edges():
    with pytest.raises(DomainError):
        Graph.make([0, 1], [(0, 0)])
    with pytest.raises(DomainError):
        Graph([0, 1], ((0, 2),))


def test_label_basics():
    assert Label.XY.axes == (Axis.X, Axis.Y)
    assert Label.Y.is_pauli and not Label.Y.is_plane
    assert Label.XZ.complement is Axis.Y
    assert Axis.Z in Label.YZ and Axis.X not in Label.YZ
    assert len(Label.XY) == 2
