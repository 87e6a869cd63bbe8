"""Immutable small simple graphs with bitset adjacency.

Vertices are 0..n-1 with n capped at 64 so each neighbourhood fits in one
machine word. Graphs are values: every mutation returns a fresh Graph, which
keeps game-tree branching free of aliasing bugs.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Sequence

MAX_VERTICES = 64


def bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def row_edges(rows: Sequence[int]) -> list[tuple[int, int]]:
    """The pairs u < v with bit v of rows[u] set, in lex order: the edges of
    an adjacency, or of a table of upper rows (`families.legal_rows`)."""
    edges = []
    for u, row in enumerate(rows):
        row &= -(2 << u)
        while row:
            low = row & -row
            edges.append((u, low.bit_length() - 1))
            row ^= low
    return edges


def vertex_mask(vertices: Iterable[int]) -> int:
    """Bitset with the bits of `vertices` set."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


class Frozen:
    """Base of the immutable value types. A subclass annotates its fields and
    writes them into `__dict__` in `__init__`; `_key` is then the tuple of
    their values in annotation order. Two values of one class are equal when
    their keys are, a value hashes as its key and shows as
    `Name(field=value, ...)`. Assigning or deleting an attribute raises
    AttributeError, but `cached_property` still fills `__dict__`."""

    def __init_subclass__(cls) -> None:
        # attrgetter, not a loop over the names: `play` compares ComponentLabels hot
        get = attrgetter(*cls.__annotations__)
        cls._key = property(get if len(cls.__annotations__) > 1 else lambda v: (get(v),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        fields = zip(type(self).__annotations__, self._key)
        return f"{type(self).__name__}({', '.join(f'{f}={v!r}' for f, v in fields)})"

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class Component:
    """One connected component. A child made by `Graph.add_edge` shares its
    parent's record for every component that the new edge leaves alone.

    `members` lists its vertices in increasing order and `local[i]` is the
    neighbourhood of members[i] with members[j] as bit j. The rest is
    derived from (mask, local) on first use: `canon`, the canonical form
    (encoding, order) in which local vertex order[i] is canonical vertex i,
    `shape`, the label that `shapes.label_component` keeps here,
    `traceability`, the pair (everywhere traceable, lex-least Hamiltonian
    path or None) that `everywhere_traceable` and `hamiltonian_path` read,
    and `paths[k]`, the P_k legality rows that `families` keeps in global
    bits (all but `canon` are None until asked for). A record is never
    changed once built, only filled in.
    """

    __slots__ = ("mask", "members", "local", "shape", "traceability", "paths", "_canon")

    def __init__(self, mask: int, members: tuple[int, ...], local: tuple[int, ...]):
        self.mask = mask
        self.members = members
        self.local = local
        self.shape = None
        self.traceability: Optional[tuple[bool, Optional[tuple[int, ...]]]] = None
        self.paths: Optional[dict[int, tuple]] = None
        self._canon: Optional[tuple[bytes, tuple[int, ...]]] = None

    @property
    def canon(self) -> tuple[bytes, tuple[int, ...]]:
        if self._canon is None:
            self._canon = _canon_component(self.local)
        return self._canon


class ComponentView:
    """Connected components of a Graph.

    `records` and `masks` are aligned and sorted by least member;
    `mask_of[v]` is the mask of v's component, so u and v share a component
    iff mask_of[u] == mask_of[v].
    """

    def __init__(self, records: tuple[Component, ...], masks: tuple[int, ...],
                 mask_of: tuple[int, ...]):
        self.records = records
        self.masks = masks
        self.mask_of = mask_of

    def __len__(self) -> int:
        return len(self.records)

    @staticmethod
    def of(adj: Sequence[int], within: Optional[int] = None) -> "ComponentView":
        """The components of the graph with adjacency `adj`, found from
        scratch; with `within`, those of the subgraph induced on that vertex
        mask (`mask_of` is 0 outside it)."""
        records = []
        mask_of = [0] * len(adj)
        unseen = (1 << len(adj)) - 1 if within is None else within
        while unseen:
            comp = unseen & -unseen
            frontier = comp
            while frontier:
                grow = 0
                for w in bits(frontier):
                    grow |= adj[w]
                frontier = grow & unseen & ~comp
                comp |= frontier
            members = tuple(bits(comp))
            for w in members:
                mask_of[w] = comp
            records.append(Component(comp, members, tuple(_local_adj(adj, members))))
            unseen &= ~comp
        return ComponentView(tuple(records), tuple(r.mask for r in records), tuple(mask_of))

    def plus_edge(self, adj: Sequence[int], u: int, v: int) -> "ComponentView":
        """The components once uv is added, where `adj` already holds uv.

        Every record but the one that gains uv is reused: a joining edge
        builds the merged record, an inner edge the grown one.
        """
        records, masks, mask_of = self.records, self.masks, self.mask_of
        a, b = mask_of[u], mask_of[v]
        i = masks.index(a)
        if a == b:
            rec = records[i]
            local = list(rec.local)
            x, y = rec.members.index(u), rec.members.index(v)
            local[x] |= 1 << y
            local[y] |= 1 << x
            grown = Component(a, rec.members, tuple(local))
            return ComponentView(records[:i] + (grown,) + records[i + 1:], masks, mask_of)
        j = masks.index(b)
        if j < i:
            i, j = j, i
        comp = a | b
        joined = tuple(sorted(records[i].members + records[j].members))
        merged = Component(comp, joined, tuple(_local_adj(adj, joined)))
        new_mask_of = list(mask_of)
        for w in joined:
            new_mask_of[w] = comp
        return ComponentView(
            records[:i] + (merged,) + records[i + 1:j] + records[j + 1:],
            masks[:i] + (comp,) + masks[i + 1:j] + masks[j + 1:],
            tuple(new_mask_of),
        )


class Graph(Frozen):
    """Simple undirected graph; `adj[v]` is the neighbour bitset of v.

    `memo` caches values derived from this graph alone, and a link to the
    parent's components until this graph's own are derived from it; it is
    not a field, so equality, hashing and repr see only (n, adj, m).
    """

    n: int
    adj: tuple[int, ...]
    m: int

    def __init__(self, n: int, adj: tuple[int, ...], m: int) -> None:
        self.__dict__.update(n=n, adj=adj, m=m)

    @cached_property
    def memo(self) -> dict:
        return {}

    @staticmethod
    def empty(n: int) -> "Graph":
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
        return Graph(n, (0,) * n, 0)

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        g = Graph.empty(n)
        for u, v in edges:
            g = g.add_edge(u, v)
        return g

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range 0..{self.n - 1}")

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    def add_edge(self, u: int, v: int) -> "Graph":
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if self.adj[u] >> v & 1:
            raise ValueError(f"edge {u}-{v} already present")
        adj = list(self.adj)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        child = Graph(self.n, tuple(adj), self.m + 1)
        memo = self.__dict__.get("memo")
        if memo is not None and "components" in memo:  # the child's are derived from these
            child.__dict__["memo"] = {"parent": (memo["components"], u, v)}
        return child

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(a.bit_count() for a in self.adj)

    def min_degree(self) -> int:
        return min(self.degrees())

    def max_degree(self) -> int:
        return max(self.degrees())

    def edges(self) -> list[tuple[int, int]]:
        return row_edges(self.adj)

    def absent_edges(self) -> list[tuple[int, int]]:
        return [
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if not self.adj[u] >> v & 1
        ]

    def isolated_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if not self.adj[v])

    def components(self) -> ComponentView:
        """Connected components, computed once per graph: from the parent's
        when `add_edge` made this graph from a parent whose components were
        known, else from scratch. The link to the parent's view is dropped."""
        memo = self.memo
        cv = memo.get("components")
        if cv is None:
            link = memo.pop("parent", None)
            if link is None:
                cv = ComponentView.of(self.adj)
            else:
                parent, u, v = link
                cv = parent.plus_edge(self.adj, u, v)
            memo["components"] = cv
        return cv

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Image under the permutation old-vertex -> perm[old-vertex]."""
        adj = [0] * self.n
        for v in range(self.n):
            for w in bits(self.adj[v]):
                adj[perm[v]] |= 1 << perm[w]
        return Graph(self.n, tuple(adj), self.m)

    def canonical_key(self) -> bytes:
        """Isomorphism-invariant key: equal keys iff the graphs are isomorphic."""
        return _join_key(self.n, ((len(r.members), r.canon[0]) for r in self.components().records))

    def residual_key(self, cap: int) -> bytes:
        """Key of the residual below degree `cap`: the subgraph induced on the
        vertices of degree below `cap`, each coloured by its spare degree
        (`cap` minus its degree). Equal keys iff the graphs have the same n
        and colour-preserving isomorphic residuals."""
        spare = [cap - a.bit_count() for a in self.adj]
        live = vertex_mask(v for v, s in enumerate(spare) if s > 0)
        return _join_key(self.n, (
            (len(r.members), _canon_component(r.local, tuple(spare[v] for v in r.members))[0])
            for r in ComponentView.of(self.adj, live).records))


def _join_key(n: int, parts: Iterable[tuple[int, bytes]]) -> bytes:
    """n followed by the sorted (size, encoding) pairs of the components."""
    out = bytearray([n])
    for size, enc in sorted(parts):
        out.append(size)
        out += enc
    return bytes(out)


def least_twins(adj: Sequence[int]) -> tuple[int, ...]:
    """The least twin of each vertex of the graph with adjacency `adj`.

    Twins are vertices with the same open, or the same closed,
    neighbourhood; an automorphism may permute each twin class freely.
    A vertex with an open twin has no other closed twin, so the classes
    never overlap.
    """
    first_open: dict[int, int] = {}
    first_closed: dict[int, int] = {}
    least = []
    for v, nbrs in enumerate(adj):
        twin = first_open.setdefault(nbrs, v)
        if twin == v:
            twin = first_closed.setdefault(nbrs | 1 << v, v)
        least.append(twin)
    return tuple(least)


def _local_adj(adj: Sequence[int], verts: Sequence[int]) -> list[int]:
    """Adjacency induced on `verts`, relabelled so that verts[i] is vertex i."""
    local_bit = {v: 1 << i for i, v in enumerate(verts)}
    local = []
    for v in verts:
        nbrs = 0
        for w in bits(adj[v]):
            nbrs |= local_bit.get(w, 0)
        local.append(nbrs)
    return local


# --- traceability -----------------------------------------------------------


def _path_ends(local: Sequence[int]) -> list[int]:
    """Endpoint DP over the vertex subsets of a component with adjacency
    `local` on 0..s-1: bit i of `ends[sub]` is set iff some path through
    exactly the vertices of `sub` ends at vertex i. A path reversed is a
    path, so the same bit says one starts there.
    """
    full = (1 << len(local)) - 1
    ends = [0] * (full + 1)
    for i in range(len(local)):
        ends[1 << i] = 1 << i
    for sub in range(1, full + 1):
        endset = ends[sub]
        if not endset:
            continue
        for e in bits(endset):
            for nb in bits(local[e] & ~sub):
                ends[sub | (1 << nb)] |= 1 << nb
    return ends


def _traceability(rec: Component) -> tuple[bool, Optional[tuple[int, ...]]]:
    """The record's `traceability`, filled from one endpoint DP on first use.

    The path walks greedily from the least possible start to the least next
    vertex that still starts a Hamiltonian path of the unvisited vertices,
    so the walk never needs to back up.
    """
    if rec.traceability is None:
        local = rec.local
        ends = _path_ends(local)
        full = rest = step = len(ends) - 1  # rest: unvisited; step: next candidates
        path = []
        while rest:
            choice = step & ends[rest]
            if not choice:
                break
            i = (choice & -choice).bit_length() - 1
            path.append(rec.members[i])
            rest ^= 1 << i
            step = local[i]
        rec.traceability = (ends[full] == full, None if rest else tuple(path))
    return rec.traceability


def everywhere_traceable(rec: Component) -> bool:
    """True iff every vertex of the component starts a Hamiltonian path of it."""
    return _traceability(rec)[0]


def hamiltonian_path(rec: Component) -> Optional[tuple[int, ...]]:
    """Lexicographically least Hamiltonian path of the component, or None."""
    return _traceability(rec)[1]


# --- canonical form ---------------------------------------------------------
#
# A graph is the disjoint union of its components, so its key is n followed by
# the (size, encoding) pairs of its components in sorted order. A component's
# encoding is its minimum adjacency encoding over the vertex orders that an
# individualisation/refinement search reaches. Refinement counts neighbours
# only against the cells that the previous round made (the splitter rounds
# of McKay & Piperno, cited below; see `_refine`), which gives the same
# ordered partitions, so the same bytes, as counting against every cell.
# After a vertex is individualised, the first round has one splitter, that
# vertex, and a count is one adjacency bit. Cells whose members are
# pairwise interchangeable (identical outside neighbourhoods, clique or
# independent inside) never branch: any order of such a cell gives the same
# encoding, so cliques, independent sets and star leaves cost nothing.
#
# The search may start from a vertex colouring (coloured refinement, as in
# McKay & Piperno, "Practical graph isomorphism, II", J. Symb. Comput. 2014):
# one cell per colour, in increasing colour order, so every order it reaches
# lists the colours ascending and the encoding is prefixed by the sorted
# colours. Without a colouring the search starts from one cell and the
# encoding has no prefix. `Graph.residual_key` colours by spare degree.
#
# Each component's canonical form (the encoding and the vertex order of the
# best leaf) is kept on its record (`Component`). Two bounded caches stand
# behind it. The first is keyed by the labelled adjacency (and colours) that
# the record carries. On a miss the vertices are sorted stably by (colour,
# degree, sorted neighbour degrees), and the second, keyed by the sorted
# adjacency and colours, holds the search itself, so relabellings that sort
# alike share one search. The encoding does not depend on labels, and the
# search's order composed with the sort still spells it. A move
# touches at most two components, so a child position derived from its
# parent's records (`ComponentView.plus_edge`) shares every other record,
# canonical form included, and only the merged or grown one needs a search.


def _refine(adj: Sequence[int], cells: list[list[int]], split: Sequence[int]) -> list[list[int]]:
    """The coarsest equitable refinement of the ordered partition `cells`,
    where `split` lists, ascending, the indices of the cells that can split
    another one; the others must already meet every cell with a constant
    count.

    Each round splits every cell by its members' neighbour counts against
    the round's splitters, the parts ordered by those counts read as a
    tuple, first splitter first. That gives the same ordered partition as
    counting against every cell in every round:
    - A cell that the previous round left whole was counted against in it,
      so it meets each cell of this round with a constant count: it splits
      nothing, and a constant entry never decides the tuples' order.
    - The counts against the parts of a cell that the previous round split
      sum to the constant count against the whole cell. So the count against
      the last part follows from the others and comes after them in the
      tuple; dropping it keeps the same groups in the same order.
    So each round's splitters are the parts made by the previous round, the
    last part of each split cell left out. At the root every cell is a
    splitter. After a vertex is individualised out of an equitable
    partition, only its singleton is; after an interchangeable cell is
    expanded, so are its new singletons except the last.
    """
    size = len(adj)
    while split and len(cells) < size:  # singletons split no further
        if len(split) == 1 and len(cells[split[0]]) == 1:
            # one splitter {w}: a count is whether w is a neighbour
            near = adj[cells[split[0]][0]]
        else:
            near = -1
            masks = [vertex_mask(cells[i]) for i in split]
        out: list[list[int]] = []
        split = []
        for c in cells:
            if len(c) == 1:
                out.append(c)
                continue
            if near >= 0:
                hit = [v for v in c if near >> v & 1]
                if hit and len(hit) < len(c):
                    split.append(len(out))
                    out.append([v for v in c if not near >> v & 1])
                    out.append(hit)
                else:
                    out.append(c)
                continue
            # neighbour counts per splitter packed 7 bits each, first
            # splitter most significant: a count is at most 63, so ints sort
            # as the tuples
            groups: dict[int, list[int]] = {}
            for v in c:
                av = adj[v]
                sig = 0
                for cm in masks:
                    sig = sig << 7 | (av & cm).bit_count()
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                out.append(c)
            else:
                split.extend(range(len(out), len(out) + len(groups) - 1))
                out.extend(groups[key] for key in sorted(groups))
        cells = out
    return cells


def _encode_order(adj: Sequence[int], order: list[int]) -> int:
    code = 0
    for i, v in enumerate(order):
        av = adj[v]
        for w in order[i + 1:]:
            code = code << 1 | (av >> w & 1)
    return code


def _decode(size: int, enc: bytes) -> tuple[int, ...]:
    """The adjacency on 0..size-1 whose `_encode_order` in the order
    0..size-1 is the uncoloured encoding `enc`."""
    code, adj = int.from_bytes(enc, "big"), [0] * size
    for t, (i, j) in enumerate(reversed(list(combinations(range(size), 2)))):
        if code >> t & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return tuple(adj)


@lru_cache(maxsize=1 << 16)
def _canon_component(adj: tuple[int, ...],
                     colours: Optional[tuple[int, ...]] = None) -> tuple[bytes, tuple[int, ...]]:
    """Canonical form (encoding, order) of the connected graph with
    adjacency `adj` on 0..s-1, in which vertex i has colour colours[i] (a
    byte); uncoloured when None. The encoding is the colour prefix, then
    `_encode_order(adj, order)`, and `adj` relabelled by order[i] -> i is
    `_decode` of it.

    The vertices are sorted stably by (colour, degree, sorted neighbour
    degrees), and `_canon_search` runs on the sorted copy; its order is
    mapped back through the sort."""
    deg = [a.bit_count() for a in adj]
    colour = colours or (0,) * len(adj)
    pre = sorted(range(len(adj)),
                 key=lambda v: (colour[v], deg[v], sorted([deg[w] for w in bits(adj[v])])))
    enc, order = _canon_search(tuple(_local_adj(adj, pre)),
                               None if colours is None else tuple(colours[v] for v in pre))
    return enc, tuple(pre[i] for i in order)


@lru_cache(maxsize=1 << 16)
def _canon_search(adj: tuple[int, ...],
                  colours: Optional[tuple[int, ...]] = None) -> tuple[bytes, tuple[int, ...]]:
    """`_canon_component` of the same input, found by the
    individualisation/refinement search: `order` lists the vertices of the
    first best leaf.

    A cell of twins (`least_twins`) is split into singletons at once, in any
    order, as an automorphism permutes it freely."""
    best: Optional[tuple[int, list[int]]] = None  # (code, order) of the best leaf
    least = least_twins(adj)

    def search(cells: list[list[int]], split: Sequence[int]) -> None:
        nonlocal best
        while True:
            cells = _refine(adj, cells, split)
            target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
            if target is None:
                order = [c[0] for c in cells]
                code = _encode_order(adj, order)
                if best is None or code < best[0]:
                    best = code, order
                return
            cell = cells[target]
            if len({least[v] for v in cell}) == 1:
                cells = cells[:target] + [[v] for v in cell] + cells[target + 1 :]
                split = range(target, target + len(cell) - 1)
                continue
            for v in cell:
                rest = [u for u in cell if u != v]
                search(cells[:target] + [[v], rest] + cells[target + 1 :], (target,))
            return

    s = len(adj)
    if colours is None:
        prefix, cells = b"", [list(range(s))]
    else:
        prefix = bytes(sorted(colours))
        cells = [[v for v in range(s) if colours[v] == c] for c in sorted(set(colours))]
    search(cells, range(len(cells)))
    assert best is not None
    code, order = best
    nbytes = (s * (s - 1) // 2 + 7) // 8
    return prefix + code.to_bytes(nbytes, "big"), tuple(order)


# --- graph6 I/O -------------------------------------------------------------


def to_graph6(g: Graph) -> str:
    if g.n <= 62:
        head = [g.n + 63]
    else:
        head = [126, ((g.n >> 12) & 63) + 63, ((g.n >> 6) & 63) + 63, (g.n & 63) + 63]
    chunk = 0
    nbits = 0
    body = []
    for v in range(1, g.n):
        for u in range(v):
            chunk = (chunk << 1) | (g.adj[u] >> v & 1)
            nbits += 1
            if nbits == 6:
                body.append(chunk + 63)
                chunk = 0
                nbits = 0
    if nbits:
        body.append((chunk << (6 - nbits)) + 63)
    return bytes(head + body).decode("ascii")


def from_graph6(text: str) -> Graph:
    text = text.strip()
    if text.startswith(">>graph6<<"):  # optional format header
        text = text[len(">>graph6<<"):]
    data = [b - 63 for b in text.encode("ascii")]
    if any(not 0 <= d <= 63 for d in data):
        raise ValueError("invalid graph6 character")
    if not data or data[0] == 63 and len(data) < 4:
        raise ValueError(f"graph6 text {text!r} is empty or truncated")
    if data[0] == 63:  # leading chr(126): long form
        if data[1] == 63:
            raise ValueError("graph6 eight-byte size form is not supported")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        if n <= 62:
            raise ValueError("graph6 long form used for a size below 63")
        data = data[4:]
    else:
        n = data[0]
        data = data[1:]
    need = n * (n - 1) // 2
    if len(data) != (need + 5) // 6:
        raise ValueError("graph6 payload has wrong length")
    if need % 6 and data[-1] & ((1 << (6 - need % 6)) - 1):
        raise ValueError("graph6 padding bits must be zero")
    g = Graph.empty(n)
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if data[idx // 6] >> (5 - idx % 6) & 1:
                g = g.add_edge(u, v)
            idx += 1
    return g

