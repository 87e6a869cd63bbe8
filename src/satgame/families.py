"""Forbidden families, freeness, and the one move-legality predicate.

A family is one of: all paths on k vertices are forbidden via the single
graph P_k; all trees on k vertices (equivalently: no component may reach k
vertices); a single star K_{1,s} (equivalently: max degree <= s-1); or an
explicit list of connected graphs checked by subgraph containment.

Legality is one table per graph and family, `legal_rows`, of upper rows:
bit v of entry u is set iff u < v and adding the absent edge uv keeps the
family-free graph free, so its edges, read row by row and low bit first,
come in lex order. Forbidden graphs are connected, so a new copy uses uv
and lies in the component(s) of u and v. Stars are read off degrees. Trees
and paths share one join rule: x has a value, its component's size for
trees and for P_k the vertices L(x) of the longest path in its component
ending at x, and u joins v of another component iff their values sum below
k, with k capped at n + 1 as no value exceeds n. Inside a component every
absent edge is legal for trees, and for P_k its record says which are. For
an explicit family, each pattern is searched with one of its edges mapped
onto the new edge, and the table is that search on every absent edge.

The subgraph search reads a pattern only through a plan: for each
position of an order of its vertices, the earlier positions adjacent to it.
`contains_subgraph` and the search through a new edge run the same
backtracking loop over a host adjacency. An explicit family compiles its
plans once (`ExplicitFamily.anchored`): one flat tuple of (member size,
plan) pairs, one plan per orbit of anchor edges of each member, which the
search through uv reads with u and v placed first. The search never reads
an edge between placed positions, so legality reads g's own adjacency: no
child graph is built.

`move_reach(g, family, u, v)` bounds what a move can change: a legal edge
of g with both ends outside the reach of uv stays legal in g + uv.
`position_key(family, n)` keys a game's positions and says why it is exact.

`creates_forbidden(g, family, e)` reads one bit of the table; for an
explicit family it searches through e alone. `legal_moves` lists the
table's edges (`graph.row_edges`), and `is_saturated` asks whether there is
one. An explicit family's table folds one lazy walk of the absent pairs in
lex order (`_explicit_legal`), and `is_saturated` stops at its first item.

The table is kept on its graph (`Graph.memo`) per family. The P_k rows of a
component are kept on its record (`graph.Component`), which a child
position shares with its parent unless the move touched that component, so
a move costs at most one new set of rows. Behind the records, one bounded
process-wide cache holds the search of each k and isomorphism class, keyed
by the size and encoding of the record's canonical form (`Component.canon`)
and run on the adjacency that the encoding spells; the form's order maps
the answer back, so one relabelling serves the position keys and P_k rows.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Callable, Iterator, Sequence, Union

from .graph import (Component, Frozen, Graph, _decode, bits, from_graph6, norm_edge,
                    row_edges, to_graph6, vertex_mask)

Move = tuple[int, int]


class PathFamily(Frozen):
    k: int  # forbid the path on k vertices

    def __init__(self, k: int) -> None:
        if k < 2:
            raise ValueError("path family needs k >= 2")
        self.__dict__["k"] = k


class TreeFamily(Frozen):
    k: int  # forbid every tree on k vertices

    def __init__(self, k: int) -> None:
        if k < 2:
            raise ValueError("tree family needs k >= 2")
        self.__dict__["k"] = k


class StarFamily(Frozen):
    leaves: int  # forbid K_{1,leaves}

    def __init__(self, leaves: int) -> None:
        if leaves < 2:
            raise ValueError("star family needs at least 2 leaves")
        self.__dict__["leaves"] = leaves


class ExplicitFamily(Frozen):
    members: tuple[Graph, ...]

    def __init__(self, members: tuple[Graph, ...]) -> None:
        if not members:
            raise ValueError("explicit family needs at least one member")
        for h in members:
            if h.n < 2 or h.m < 1:
                raise ValueError("explicit family members need at least one edge")
            if len(h.components()) != 1:
                raise ValueError("explicit family members must be connected")
        self.__dict__["members"] = members

    @cached_property
    def anchored(self) -> tuple[tuple[int, Plan], ...]:
        """The (member size, plan) pairs that the search through a new edge
        tries, compiled once per family: each member's anchored plans
        (`_anchors`), members in order, each pair once. Not a field, so
        equality, hashing and repr see only the members."""
        return tuple(dict.fromkeys((h.n, plan) for h in self.members for plan in _anchors(h)))


ForbiddenFamily = Union[PathFamily, TreeFamily, StarFamily, ExplicitFamily]


def family_name(family: ForbiddenFamily) -> str:
    if isinstance(family, PathFamily):
        return f"P{family.k}"
    if isinstance(family, TreeFamily):
        return f"Trees:{family.k}"
    if isinstance(family, StarFamily):
        return f"Star:{family.leaves}"
    return "List:" + ",".join(to_graph6(h) for h in family.members)


_SIZED = {"Pk": PathFamily, "Trees": TreeFamily, "Star": StarFamily}


def parse_family(text: str) -> ForbiddenFamily:
    """Parse "P4", "Pk:7", "Trees:5", "Star:4" or "List:<graph6>,<graph6>"."""
    text = text.strip()
    head, _, tail = text.partition(":")
    if head == "List":
        return ExplicitFamily(tuple(from_graph6(p) for p in tail.split(",")))
    if text.startswith("P") and text[1:].isdigit():
        head, tail = "Pk", text[1:]
    if head not in _SIZED:
        raise ValueError(f"unrecognised family spec {text!r}")
    try:
        size = int(tail)
    except ValueError:
        raise ValueError(f"bad size {tail!r} in family spec {text!r}: want an integer") from None
    return _SIZED[head](size)


# --- path records -------------------------------------------------------------


def _longest_path_from(adj: tuple[int, ...], x: int, k: int, avoid: int = 0) -> int:
    """Vertices on the longest simple path from x missing `avoid`, capped at k."""
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

    extend(x, avoid | 1 << x, 1)
    return best


@lru_cache(maxsize=1 << 16)
def _shape_record(k: int, s: int, enc: bytes) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """P_k legality of the connected graph on 0..s-1 that `enc` spells
    (`graph._decode`); `_path_rows` asks once per k and isomorphism class.

    Returns (ends, inner): ends[x] is L(x) capped at k, and bit y of inner[x]
    is set iff the absent edge xy keeps the component free of P_k. A new P_k
    through xy is a path ending at x followed by a disjoint one starting at
    y, so each path from x is tried against every y not yet known to fail.
    """
    adj = _decode(s, enc)
    ends = tuple(_longest_path_from(adj, x, min(k, s)) for x in range(s))
    inner = [((1 << s) - 1) & ~adj[x] & ~(1 << x) for x in range(s)]
    if s < k:
        return ends, tuple(inner)
    if max(ends) >= k:  # the component already holds a P_k
        return ends, (0,) * s

    def extend(x: int, v: int, visited: int, length: int) -> None:
        # the path from x ends at v; partners y > x, so xy and yx are decided once
        if not inner[x] >> (x + 1):
            return
        need = k - length
        for y in bits(inner[x] >> (x + 1) << (x + 1) & ~visited):
            if ends[y] >= need and _longest_path_from(adj, y, need, visited) >= need:
                inner[x] ^= 1 << y
                inner[y] ^= 1 << x
        for w in bits(adj[v] & ~visited):
            extend(x, w, visited | 1 << w, length + 1)

    for x in range(s):
        extend(x, x, 1 << x, 1)
    return ends, tuple(inner)


def _path_rows(rec: Component, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """`_shape_record` of the record's class, inner rows in global bits, built
    once per record. Both are in canonical order: entry i is rec.members[order[i]]."""
    if rec.paths is None:
        rec.paths = {}
    rows = rec.paths.get(k)
    if rows is None:
        enc, order = rec.canon
        ends, inner = _shape_record(k, len(order), enc)
        bit = [1 << rec.members[j] for j in order]  # canonical bit i -> global bit
        glob = []
        for row in inner:
            mask = 0
            while row:
                low = row & -row
                mask |= bit[low.bit_length() - 1]
                row ^= low
            glob.append(mask)
        rows = rec.paths[k] = (ends, tuple(glob))
    return rows


# --- subgraph search ----------------------------------------------------------


# A plan of a pattern h orders its vertices, and entry i lists the earlier
# positions adjacent to position i: all that the search reads of h.
Plan = tuple[tuple[int, ...], ...]


@lru_cache(maxsize=1 << 10)
def _plan(h: Graph, first: tuple[int, ...]) -> Plan:
    """The plan of h that orders `first` first, then h's other vertices,
    each touching an earlier one, the one with most earlier neighbours
    first."""
    order = list(first)
    placed = vertex_mask(first)
    while len(order) < h.n:
        nxt = max(
            (v for v in range(h.n) if not placed >> v & 1 and h.adj[v] & placed),
            key=lambda v: (h.adj[v] & placed).bit_count(),
        )
        order.append(nxt)
        placed |= 1 << nxt
    pos = {v: i for i, v in enumerate(order)}
    return tuple(tuple(pos[w] for w in bits(h.adj[v]) if pos[w] < i)
                 for i, v in enumerate(order))


def _embeds(adj: Sequence[int], plan: Plan, placed: list[int], used: int) -> bool:
    """Can the images `placed` of the plan's first positions, whose vertex
    mask is `used`, extend to an injective map that sends every edge of the
    pattern into the host with adjacency `adj`? Backtracking in one loop:
    position i goes to an unused vertex adjacent to the images of the
    earlier positions in plan[i], least first, and returns to its untried
    candidates when the later positions fail. Edges among the placed
    positions are not checked."""
    size, base = len(plan), len(placed)
    image = placed + [0] * (size - base)
    untried = [0] * size  # untried[i]: candidates for position i not yet tried
    free = (1 << len(adj)) - 1
    i = base
    while i < size:
        cand = free & ~used
        for j in plan[i]:
            cand &= adj[image[j]]
        while not cand:  # back up to the last position with a candidate left
            i -= 1
            if i < base:
                return False
            used ^= 1 << image[i]
            cand = untried[i]
        low = cand & -cand
        untried[i] = cand ^ low
        image[i] = low.bit_length() - 1
        used |= low
        i += 1
    return True


def contains_subgraph(g: Graph, h: Graph) -> bool:
    """Does an injective map embed every edge of `h` into `g`?

    h must be connected and no larger than g.
    """
    if h.n > g.n:
        raise ValueError("pattern larger than host")
    if len(h.components()) != 1:
        raise ValueError("pattern must be connected")
    start = max(range(h.n), key=lambda v: h.degree(v))
    return _embeds(g.adj, _plan(h, (start,)), [], 0)


@lru_cache(maxsize=1 << 10)
def _anchors(h: Graph) -> tuple[Plan, ...]:
    """The plans of h that start on one ordered edge (a, b) from each orbit
    of h's automorphisms, which are the embeddings of h into itself."""
    reps: list[tuple[int, int]] = []
    for edge in h.edges():
        for a, b in (edge, edge[::-1]):
            if not any(_embeds(h.adj, _plan(h, rep), [a, b], 1 << a | 1 << b) for rep in reps):
                reps.append((a, b))
    return tuple(_plan(h, rep) for rep in reps)


# --- freeness and legality --------------------------------------------------


def is_free(g: Graph, family: ForbiddenFamily) -> bool:
    if isinstance(family, PathFamily):
        # a P_k has k - 1 edges and starts at a non-isolated vertex
        k, adj = family.k, g.adj
        return g.m < k - 1 or all(_longest_path_from(adj, x, k) < k for x in range(g.n) if adj[x])
    if isinstance(family, TreeFamily):
        return all(mask.bit_count() < family.k for mask in g.components().masks)
    if isinstance(family, StarFamily):
        return g.max_degree() <= family.leaves - 1
    return not any(h.n <= g.n and contains_subgraph(g, h) for h in family.members)


def _by_room(values: list[int], k: int) -> list[int]:
    """room -> mask of the vertices x with values[x] <= room, for room < k."""
    upto = [0] * k
    for x, val in enumerate(values):
        if val < k:
            upto[val] |= 1 << x
    for room in range(1, k):
        upto[room] |= upto[room - 1]
    return upto


def _explicit_creates(g: Graph, family: ExplicitFamily, u: int, v: int) -> bool:
    """Does some member embed into g + uv with one of its edges on uv? Each
    compiled plan (`ExplicitFamily.anchored`) of a member no larger than g
    is searched with its anchor edge placed on u and v. The edge uv need not
    be in g: the search never reads an edge between placed positions, so it
    reads g's own adjacency and no child is built."""
    n, adj, placed, used = g.n, g.adj, [u, v], 1 << u | 1 << v
    for size, plan in family.anchored:
        if size <= n and _embeds(adj, plan, placed, used):
            return True
    return False


def _explicit_legal(g: Graph, family: ExplicitFamily) -> Iterator[Move]:
    """The legal edges u < v of g in lex order, each searched when reached."""
    full = (1 << g.n) - 1
    for u, row in enumerate(g.adj):
        for v in bits(full & ~row & -(2 << u)):
            if not _explicit_creates(g, family, u, v):
                yield u, v


def _legal_masks(g: Graph, family: ForbiddenFamily) -> list[int]:
    """The upper rows of the legality table (see the module docstring)."""
    n, adj = g.n, g.adj
    if isinstance(family, ExplicitFamily):
        legal = [0] * n
        for u, v in _explicit_legal(g, family):
            legal[u] |= 1 << v
        return legal
    if isinstance(family, StarFamily):
        low = vertex_mask(x for x in range(n) if adj[x].bit_count() < family.leaves - 1)
        return [low & ~adj[x] & -(2 << x) if low >> x & 1 else 0 for x in range(n)]
    cv = g.components()
    comp = cv.mask_of
    if isinstance(family, TreeFamily):
        value = [mask.bit_count() for mask in comp]
        inner = [mask & ~adj[x] for x, mask in enumerate(comp)]
    else:
        value, inner = [1] * n, [0] * n  # an isolated vertex: L = 1 and no inner edge
        for rec in cv.records:
            if len(rec.members) > 1:
                for j, end, row in zip(rec.canon[1], *_path_rows(rec, family.k)):
                    value[rec.members[j]], inner[rec.members[j]] = end, row
    k = min(family.k, n + 1)
    upto = _by_room(value, k)
    return [(inner[x] | upto[max(k - 1 - value[x], 0)] & ~comp[x]) & -(2 << x) for x in range(n)]


def legal_rows(g: Graph, family: ForbiddenFamily) -> tuple[int, ...]:
    """The legality table of the family-free graph `g`, computed once per
    graph and family: bit v of entry u is set iff u < v and adding the
    absent edge uv keeps g free. Read row by row, low bit first, its edges
    come in lex order."""
    key = ("legal_table", family)
    table = g.memo.get(key)
    if table is None:
        table = g.memo[key] = tuple(_legal_masks(g, family))
    return table


def move_reach(g: Graph, family: ForbiddenFamily, u: int, v: int) -> int:
    """The vertex mask whose legal edges the legal move uv may spoil: every
    legal edge of the family-free graph `g` with both ends outside it is
    still legal in g + uv.

    Under Star:k legality reads degrees only, and uv raises just those of u
    and v, so the reach is {u, v}. Every other family forbids connected
    graphs only: paths, trees and stars are connected, and `ExplicitFamily`
    checks its members. A copy in g + uv + f that neither g + uv nor g + f
    holds uses both uv and f, and a shortest path inside it from {u, v} to
    an end of f is a path of g. So f meets the component of u or of v in g,
    and the reach is the union of the two.
    """
    if isinstance(family, StarFamily):
        return 1 << u | 1 << v
    mask_of = g.components().mask_of
    return mask_of[u] | mask_of[v]


def position_key(family: ForbiddenFamily, n: int) -> Callable[[Graph], bytes]:
    """The key of this family's positions on n vertices: family-free graphs
    with equal keys have equal remaining scores in every variant and for
    either side to move. Each key starts with n and fixes the edge count m,
    so max_saturated_edges - m is one admissible bound per key.

    The key is canonical (`Graph.canonical_key`), except in a star game.
    Under Star:k an absent edge uv of a free graph is legal iff u and v
    have degree below k-1 (`_legal_masks`), so a vertex of degree k-1 never
    gains an edge again, and neither its edges nor its presence change
    which moves are legal later. The remaining score is therefore a
    function of n and the residual: the subgraph induced on the vertices of
    degree below c = min(k-1, n), each coloured by its spare degree c-deg
    (`Graph.residual_key`). A cap of n or more never binds, so n stands for
    all of them and every spare fits a byte. And 2m = nc - (sum of spares).
    """
    if isinstance(family, StarFamily):
        cap = min(family.leaves - 1, n)
        return lambda g: g.residual_key(cap)
    return Graph.canonical_key


def creates_forbidden(g: Graph, family: ForbiddenFamily, edge: Move) -> bool:
    """Would adding `edge` to the family-free graph `g` break freeness?

    Reads one bit of `legal_rows`. An explicit family is searched through
    the edge alone, so a single query does not pay for every absent edge.
    """
    u, v = norm_edge(*edge)
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    if g.has_edge(u, v):
        raise ValueError(f"edge {u}-{v} already present")
    if isinstance(family, ExplicitFamily):
        return _explicit_creates(g, family, u, v)
    return not legal_rows(g, family)[u] >> v & 1


def legal_moves(g: Graph, family: ForbiddenFamily) -> list[Move]:
    """Absent edges whose addition keeps freeness, lexicographically ordered,
    listed from `legal_rows`.

    Empty exactly when the family-free graph `g` is family-saturated.
    """
    return row_edges(legal_rows(g, family))


def is_saturated(g: Graph, family: ForbiddenFamily) -> bool:
    """Does every absent edge break the freeness of the family-free graph `g`?

    An explicit family stops at the first legal edge; the others read
    `legal_rows`.
    """
    if isinstance(family, ExplicitFamily):
        return next(_explicit_legal(g, family), None) is None
    return not any(legal_rows(g, family))


def max_saturated_edges(family: ForbiddenFamily, n: int) -> int:
    """Admissible upper bound on the edge count of any family-free graph on
    n, never above n(n-1)/2."""
    if isinstance(family, PathFamily):
        return n * (min(family.k, n) - 1) // 2
    if isinstance(family, TreeFamily):
        k = family.k
        full, rem = divmod(n, k - 1)
        return full * (k - 1) * (k - 2) // 2 + rem * (rem - 1) // 2
    if isinstance(family, StarFamily):
        return n * (min(family.leaves, n) - 1) // 2
    return n * (n - 1) // 2
