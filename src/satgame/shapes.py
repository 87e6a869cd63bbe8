"""Recognisers for the small component shapes the games produce.

Shapes: cliques K_j (K_1, K_2, K_3 = triangle, ...), stars K_{1,m}, triangles
with j pendant edges at one vertex (T_j), and double stars D_{k,l} (a central
edge with k pendants on one end and l on the other).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import Graph, bits, vertex_mask


@dataclass(frozen=True)
class ComponentLabel:
    kind: str  # "clique" | "star" | "tpend" | "dstar" | "other"
    a: int = 0
    b: int = 0

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


def has_triangle(g: Graph, mask: int) -> bool:
    for v in bits(mask):
        av = g.adj[v] & mask
        for w in bits(av):
            if w > v and g.adj[w] & av:
                return True
    return False


def label_component(g: Graph, members: Sequence[int]) -> ComponentLabel:
    ms = sorted(members)
    s = len(ms)
    mask = vertex_mask(ms)
    degs = {v: (g.adj[v] & mask).bit_count() for v in ms}
    inner_edges = sum(degs.values()) // 2
    if inner_edges == s * (s - 1) // 2:
        return ComponentLabel("clique", s)
    # star K_{1,m}: one centre of degree s-1, the rest leaves
    if inner_edges == s - 1:
        centres = [v for v in ms if degs[v] == s - 1]
        if centres and all(degs[v] == 1 for v in ms if v != centres[0]):
            return ComponentLabel("star", s - 1)
    # T_j: triangle plus j >= 1 pendants at a single triangle vertex
    pend = [v for v in ms if degs[v] == 1]
    core = [v for v in ms if degs[v] >= 2]
    if len(core) == 3 and len(pend) == s - 3 and inner_edges == s:
        hub = [v for v in core if degs[v] == s - 1]
        if len(hub) == 1 and g.is_clique_mask(vertex_mask(core)):
            if all(g.adj[p] & mask == 1 << hub[0] for p in pend):
                return ComponentLabel("tpend", s - 3)
    # D_{k,l}: adjacent centres x,y; every other vertex a pendant on one of them
    if len(core) == 2 and inner_edges == s - 1:
        x, y = core
        if g.has_edge(x, y) and all(
            g.adj[p] & mask in (1 << x, 1 << y) for p in pend
        ):
            k, l = degs[x] - 1, degs[y] - 1
            if k > l:
                k, l = l, k
            return ComponentLabel("dstar", k, l)
    return ComponentLabel("other")


def star_centres(g: Graph, members: Sequence[int]) -> tuple[int, ...]:
    """Attachment points that grow the star component into a larger star.

    K_2 admits either endpoint; K_{1,m} (m >= 2) only its centre; anything
    else returns no centres.
    """
    label = label_component(g, members)
    if label == CLIQUE2:
        return tuple(sorted(members))
    if label.kind == "star":
        mask = vertex_mask(members)
        return tuple(v for v in members if (g.adj[v] & mask).bit_count() == len(members) - 1)
    return ()

