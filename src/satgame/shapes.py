"""Recognisers for the small component shapes the games produce.

Shapes: cliques K_j (K_1, K_2, K_3 = triangle, ...), stars K_{1,m}, triangles
with j pendant edges at one vertex (T_j), and double stars D_{k,l} (a central
edge with k pendants on one end and l on the other).

Every question is asked of a component's record (`graph.Component`), which
is connected by construction. A connected graph's shape among these is fixed
by its degrees, and its label is kept on the record, so a child position
labels only the component that its move grew or merged.
"""

from __future__ import annotations

from .graph import Component, Frozen, bits


class ComponentLabel(Frozen):
    kind: str  # "clique" | "star" | "tpend" | "dstar" | "other"
    a: int
    b: int

    def __init__(self, kind: str, a: int = 0, b: int = 0) -> None:
        self.__dict__.update(kind=kind, a=a, b=b)

    def display(self) -> str:
        if self.kind == "clique":
            return f"K{self.a}"
        if self.kind == "star":
            return f"K1,{self.a}"
        if self.kind == "tpend":
            return f"T{self.a}"
        if self.kind == "dstar":
            return f"D{self.a},{self.b}"
        return "other"


CLIQUE1 = ComponentLabel("clique", 1)
CLIQUE2 = ComponentLabel("clique", 2)
TRIANGLE = ComponentLabel("clique", 3)
CLIQUE4 = ComponentLabel("clique", 4)
CHERRY = ComponentLabel("star", 2)  # the 3-vertex path
CLAW = ComponentLabel("star", 3)
PATH4 = ComponentLabel("dstar", 1, 1)  # the 4-vertex path
T1 = ComponentLabel("tpend", 1)
D12 = ComponentLabel("dstar", 1, 2)


def has_triangle(rec: Component) -> bool:
    local = rec.local
    return any(local[v] & local[w] for v, nbrs in enumerate(local) for w in bits(nbrs >> v << v))


def label_component(rec: Component) -> ComponentLabel:
    """The component's shape, computed on first use and kept on its record."""
    if rec.shape is None:
        rec.shape = _shape([nbrs.bit_count() for nbrs in rec.local])
    return rec.shape


def _shape(degs: list[int]) -> ComponentLabel:
    """The shape of a connected graph with these degrees."""
    s = len(degs)
    if sum(degs) == s * (s - 1):
        return ComponentLabel("clique", s)
    # Each leaf hangs on a non-leaf, and the graph is connected: one non-leaf
    # is a star's centre, two are adjacent centres, and of three, one that
    # is adjacent to every vertex (the hub) leaves the other two adjacent.
    core = sorted(d for d in degs if d >= 2)
    if len(core) == 1:
        return ComponentLabel("star", s - 1)
    if len(core) == 2:
        return ComponentLabel("dstar", core[0] - 1, core[1] - 1)
    if len(core) == 3 and core[2] == s - 1:
        return ComponentLabel("tpend", s - 3)
    return ComponentLabel("other")


def star_centres(rec: Component) -> tuple[int, ...]:
    """Attachment points that grow the star component into a larger star.

    K_2 admits either endpoint; K_{1,m} (m >= 2) only its centre; anything
    else returns no centres.
    """
    label = label_component(rec)
    if label == CLIQUE2:
        return rec.members
    if label.kind == "star":
        return tuple(v for v, nbrs in zip(rec.members, rec.local) if nbrs.bit_count() == label.a)
    return ()
