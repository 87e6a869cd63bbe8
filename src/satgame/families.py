"""Forbidden families, freeness, and the one move-legality predicate.

A family is one of: all paths on k vertices are forbidden via the single
graph P_k; all trees on k vertices (equivalently: no component may reach k
vertices); a single star K_{1,s} (equivalently: max degree <= s-1); or an
explicit list of connected graphs checked by subgraph containment.

`creates_forbidden(g, family, e)` says whether adding the absent edge e = uv
to the family-free g breaks freeness, and `legal_moves` lists the absent
edges where it is false. Forbidden graphs are connected, so a new copy uses e
and lies in the component(s) of u and v. For P_k, an e joining components A
and B creates a P_k iff L_A(u) + L_B(v) >= k, where L_C(x) counts the
vertices of the longest path in C ending at x; an e inside a component of
fewer than k vertices is legal, and one inside a larger component runs an
exact DFS on that component alone. The memos live on the graph, never
process-wide: `Graph.memo["components"]`, and L_C(x) capped at k under
`Graph.memo[("path_end", k, x)]`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .graph import Graph, bits, from_graph6, to_graph6

Move = tuple[int, int]


@dataclass(frozen=True)
class PathFamily:
    k: int  # forbid the path on k vertices

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("path family needs k >= 2")


@dataclass(frozen=True)
class TreeFamily:
    k: int  # forbid every tree on k vertices

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("tree family needs k >= 2")


@dataclass(frozen=True)
class StarFamily:
    leaves: int  # forbid K_{1,leaves}

    def __post_init__(self) -> None:
        if self.leaves < 2:
            raise ValueError("star family needs at least 2 leaves")


@dataclass(frozen=True)
class ExplicitFamily:
    members: tuple[Graph, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("explicit family needs at least one member")
        for h in self.members:
            if h.n < 2 or h.m < 1:
                raise ValueError("explicit family members need at least one edge")
            if len(h.components()) != 1:
                raise ValueError("explicit family members must be connected")


ForbiddenFamily = Union[PathFamily, TreeFamily, StarFamily, ExplicitFamily]


def family_name(family: ForbiddenFamily) -> str:
    if isinstance(family, PathFamily):
        return f"P{family.k}"
    if isinstance(family, TreeFamily):
        return f"Trees:{family.k}"
    if isinstance(family, StarFamily):
        return f"Star:{family.leaves}"
    return "List:" + ",".join(to_graph6(h) for h in family.members)


def parse_family(text: str) -> ForbiddenFamily:
    """Parse "P4", "Pk:7", "Trees:5", "Star:4" or "List:<graph6>,<graph6>"."""
    text = text.strip()
    head, _, tail = text.partition(":")
    if head == "Pk":
        return PathFamily(int(tail))
    if head == "Trees":
        return TreeFamily(int(tail))
    if head == "Star":
        return StarFamily(int(tail))
    if head == "List":
        return ExplicitFamily(tuple(from_graph6(p) for p in tail.split(",")))
    if text.startswith("P") and text[1:].isdigit():
        return PathFamily(int(text[1:]))
    raise ValueError(f"unrecognised family spec {text!r}")


# --- path search ------------------------------------------------------------


def _longest_path_from(adj: tuple[int, ...], x: int, k: int) -> int:
    """Vertices on the longest simple path from x, capped at k. Exact DFS."""
    best = 1

    def extend(v: int, visited: int, length: int) -> bool:
        nonlocal best
        if length > best:
            best = length
            if best >= k:
                return True
        nb = adj[v] & ~visited
        while nb:
            low = nb & -nb
            nb ^= low
            w = low.bit_length() - 1
            if extend(w, visited | low, length + 1):
                return True
        return False

    extend(x, 1 << x, 1)
    return best


def _has_path_k(adj: tuple[int, ...], mask: int, k: int) -> bool:
    """True iff the component `mask` holds a simple path on k vertices."""
    return mask.bit_count() >= k and any(_longest_path_from(adj, x, k) >= k for x in bits(mask))


def _path_end(g: Graph, x: int, k: int) -> int:
    """L_C(x) of x's component C, capped at k, memoised on g."""
    key = ("path_end", k, x)
    length = g.memo.get(key)
    if length is None:
        length = g.memo[key] = _longest_path_from(g.adj, x, k)
    return length


def contains_subgraph(g: Graph, h: Graph) -> bool:
    """Does an injective map embed every edge of `h` into `g`?

    Backtracking over a connected expansion order of h, pruning candidates by
    degree. h must be connected and no larger than g.
    """

    if h.n > g.n:
        raise ValueError("pattern larger than host")
    if len(h.components()) != 1:
        raise ValueError("pattern must be connected")
    # order h's vertices so each (after the first) touches an earlier one
    start = max(range(h.n), key=lambda v: h.degree(v))
    order = [start]
    placed = 1 << start
    while len(order) < h.n:
        nxt = max(
            (v for v in range(h.n) if not placed >> v & 1 and h.adj[v] & placed),
            key=lambda v: (h.adj[v] & placed).bit_count(),
        )
        order.append(nxt)
        placed |= 1 << nxt
    hdeg = h.degrees()
    gdeg = g.degrees()
    pos = {v: i for i, v in enumerate(order)}
    image = [0] * h.n  # order index -> g vertex

    def assign(i: int, used: int) -> bool:
        if i == h.n:
            return True
        hv = order[i]
        # candidates must be adjacent (in g) to images of hv's placed neighbours
        cand = ~used & ((1 << g.n) - 1)
        for hw in bits(h.adj[hv]):
            j = pos[hw]
            if j < i:
                cand &= g.adj[image[j]]
        for gv in bits(cand):
            if gdeg[gv] < hdeg[hv]:
                continue
            image[i] = gv
            if assign(i + 1, used | (1 << gv)):
                return True
        return False

    return assign(0, 0)


# --- freeness and legality --------------------------------------------------


def is_free(g: Graph, family: ForbiddenFamily) -> bool:
    if isinstance(family, PathFamily):
        for mask in g.components().masks:
            if mask.bit_count() >= family.k and _has_path_k(g.adj, mask, family.k):
                return False
        return True
    if isinstance(family, TreeFamily):
        return all(mask.bit_count() < family.k for mask in g.components().masks)
    if isinstance(family, StarFamily):
        return g.max_degree() <= family.leaves - 1
    return not any(h.n <= g.n and contains_subgraph(g, h) for h in family.members)


def creates_forbidden(g: Graph, family: ForbiddenFamily, edge: Move) -> bool:
    """Would adding `edge` to the family-free graph `g` break freeness?

    Only the component(s) touched by the edge can host a new forbidden
    subgraph, so the search is restricted to them (see the module docstring).
    """

    u, v = edge
    if g.has_edge(u, v):
        raise ValueError(f"edge {u}-{v} already present")
    if isinstance(family, StarFamily):
        return g.degree(u) >= family.leaves - 1 or g.degree(v) >= family.leaves - 1
    cv = g.components()
    joins = cv.labels[u] != cv.labels[v]
    if isinstance(family, PathFamily):
        k = family.k
        if joins:
            return _path_end(g, u, k) + _path_end(g, v, k) >= k
        mask = cv.mask_of(u)
        return mask.bit_count() >= k and _has_path_k(g.add_edge(u, v).adj, mask, k)
    mu, mv = cv.mask_of(u), cv.mask_of(v)
    if isinstance(family, TreeFamily):
        return joins and mu.bit_count() + mv.bit_count() >= family.k
    sub = g.add_edge(u, v).induced(list(bits(mu | mv)))
    return any(h.n <= sub.n and contains_subgraph(sub, h) for h in family.members)


def legal_moves(g: Graph, family: ForbiddenFamily) -> list[Move]:
    """Absent edges whose addition keeps freeness, lexicographically ordered.

    Empty exactly when the family-free graph `g` is family-saturated.
    """
    return [e for e in g.absent_edges() if not creates_forbidden(g, family, e)]


def max_saturated_edges(family: ForbiddenFamily, n: int) -> int:
    """Admissible upper bound on the edge count of any family-free graph on n."""
    if isinstance(family, PathFamily):
        return n * (family.k - 1) // 2
    if isinstance(family, TreeFamily):
        k = family.k
        full, rem = divmod(n, k - 1)
        return full * (k - 1) * (k - 2) // 2 + rem * (rem - 1) // 2
    if isinstance(family, StarFamily):
        return n * (family.leaves - 1) // 2
    return n * (n - 1) // 2
