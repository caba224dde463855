"""Open graphs and GF(2) vertex-set algebra.

An open graph bundles a simple undirected graph with input/output vertex
sets and a measurement label for every measured (non-output) vertex.  All
vertex sets are int bitmasks (see :mod:`mbqc.bits`); graphs are immutable
after construction so they can be shared freely.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from .bits import iter_bits, mask_of
from .errors import DomainError


class Axis(enum.Enum):
    """A Pauli axis."""

    X = "X"
    Y = "Y"
    Z = "Z"

    def __repr__(self) -> str:
        return f"Axis.{self.value}"


class Label(enum.Enum):
    """Measurement label: a single Pauli axis or a plane of two axes.

    Axis names are kept in the canonical X < Y < Z order.  ``axes``,
    ``is_pauli`` and ``is_plane`` are set once per member: the simulator and
    the flow finders read them in their inner loops.
    """

    axes: tuple[Axis, ...]
    is_pauli: bool
    is_plane: bool

    X = "X"
    Y = "Y"
    Z = "Z"
    XY = "XY"
    XZ = "XZ"
    YZ = "YZ"

    def __init__(self, value: str) -> None:
        self.axes = tuple(Axis(c) for c in value)
        self.is_pauli = len(value) == 1
        self.is_plane = len(value) == 2

    def __len__(self) -> int:
        return len(self.value)

    def __contains__(self, axis: object) -> bool:
        return isinstance(axis, Axis) and axis.value in self.value

    @property
    def complement(self) -> Axis:
        """The axis not in a plane label."""
        if not self.is_plane:
            raise DomainError(f"label {self.value} is not a plane")
        (missing,) = (a for a in Axis if a not in self)
        return missing


def label_from_text(text: str) -> Label | None:
    """The label whose axis letters ``text`` lists once each in any order, or None."""
    try:
        return Label("".join(sorted(text, key="XYZ".index)))
    except ValueError:
        return None


#: Largest vertex id that a document or a pattern text may name.  A vertex
#: set is a bitmask as wide as its largest id, so this keeps one within 8 KB.
MAX_VERTEX_ID = 65_535


def vertex_id_from_text(text: str) -> int | None:
    """The id that ``text`` spells in ASCII digits if it is at most ``MAX_VERTEX_ID``, else None."""
    digits = text.lstrip("0") or "0"  # int() refuses more than 4,300 digits
    ok = text.isascii() and text.isdigit() and len(digits) <= len(str(MAX_VERTEX_ID))
    return int(digits) if ok and int(digits) <= MAX_VERTEX_ID else None


PAULI_LABELS = (Label.X, Label.Y, Label.Z)
PLANE_LABELS = (Label.XY, Label.XZ, Label.YZ)
ALL_LABELS = PAULI_LABELS + PLANE_LABELS


@dataclass(frozen=True)
class Graph:
    """Simple undirected finite graph over small integer vertex ids."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    adj: Mapping[int, int] = field(init=False, repr=False, compare=False)
    vmask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        vmask = mask_of(self.vertices)
        adj = {v: 0 for v in self.vertices}
        for u, v in self.edges:
            if u == v:
                raise DomainError(f"self-loop at vertex {u}")
            if not (vmask >> u) & 1 or not (vmask >> v) & 1:
                raise DomainError(f"edge ({u},{v}) references unknown vertex")
            if (adj[u] >> v) & 1:
                raise DomainError(f"duplicate edge ({u},{v})")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "adj", adj)
        object.__setattr__(self, "vmask", vmask)

    @staticmethod
    def make(vertices: Iterable[int], edges: Iterable[tuple[int, int]]) -> Graph:
        """Build a graph with canonically sorted vertex and edge tuples."""
        vs = tuple(sorted(set(vertices)))
        es = tuple(sorted({(min(u, v), max(u, v)) for u, v in edges}))
        return Graph(vs, es)


def odd_neighborhood(g: Graph | OpenGraph, d: int) -> int:
    """Vertices with an odd number of neighbours in ``d``.

    Linear over symmetric difference: the result is the XOR of the
    neighborhoods of the members of ``d``.
    """
    graph = g.graph if isinstance(g, OpenGraph) else g
    if d & ~graph.vmask:
        raise DomainError("set contains vertices outside the graph")
    out = 0
    for v in iter_bits(d):
        out ^= graph.adj[v]
    return out


@dataclass(frozen=True)
class OpenGraph:
    """Graph plus inputs, outputs, and measurement labels on non-outputs."""

    graph: Graph
    inputs: int
    outputs: int
    labels: tuple[tuple[int, Label], ...]
    # Derived masks, excluded from equality/hash.
    label_of: Mapping[int, Label] = field(init=False, repr=False, compare=False)
    measured: int = field(init=False, repr=False, compare=False)
    non_inputs: int = field(init=False, repr=False, compare=False)
    x_labelled: int = field(init=False, repr=False, compare=False)
    y_labelled: int = field(init=False, repr=False, compare=False)
    z_labelled: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        vmask = self.graph.vmask
        if self.inputs & ~vmask:
            raise DomainError("inputs not a subset of the vertex set")
        if self.outputs & ~vmask:
            raise DomainError("outputs not a subset of the vertex set")
        measured = vmask & ~self.outputs
        label_of = dict(self.labels)
        if mask_of(label_of) != measured or len(label_of) != len(self.labels):
            raise DomainError("labels must be defined exactly on the non-output vertices")
        lx = ly = lz = 0
        for v, lab in label_of.items():
            if (self.inputs >> v) & 1 and Axis.Z in lab:
                raise DomainError(f"input vertex {v} must be measured within the XY plane")
            if Axis.X in lab:
                lx |= 1 << v
            if Axis.Y in lab:
                ly |= 1 << v
            if Axis.Z in lab:
                lz |= 1 << v
        object.__setattr__(self, "label_of", label_of)
        object.__setattr__(self, "measured", measured)
        object.__setattr__(self, "non_inputs", vmask & ~self.inputs)
        object.__setattr__(self, "x_labelled", lx)
        object.__setattr__(self, "y_labelled", ly)
        object.__setattr__(self, "z_labelled", lz)

    @staticmethod
    def make(
        graph: Graph,
        inputs: Iterable[int] | int,
        outputs: Iterable[int] | int,
        labels: Mapping[int, Label],
    ) -> OpenGraph:
        imask = inputs if isinstance(inputs, int) else mask_of(inputs)
        omask = outputs if isinstance(outputs, int) else mask_of(outputs)
        return OpenGraph(graph, imask, omask, tuple(sorted(labels.items())))

    @property
    def vmask(self) -> int:
        return self.graph.vmask

    def label(self, v: int) -> Label:
        try:
            return self.label_of[v]
        except KeyError:
            raise DomainError(f"vertex {v} is not measured") from None

    def measured_vertices(self) -> list[int]:
        return list(iter_bits(self.measured))
