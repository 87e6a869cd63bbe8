"""Deterministic strategies for both players, plus baseline opponents.

The published P4 and P5 strategies are rule tables. A rule is a small
function of a `_View` of the position (the graph, its components with their
shape labels, its isolated vertices) that returns candidate edges, all of
them absent. One driver, `_by_rules`, tries the rules in order and plays the
lexicographically least legal candidate of the first rule that has one;
when none has, it plays the least legal edge outside an optional `avoid`
rule's candidates. A rule that several strategies use is defined once.
The other strategies are plain functions of the state. Play is
reproducible, and every strategy returns a legal action (or a pass, where
allowed) even from states its rules were not designed around.

No strategy lists the legal moves. Each reads the graph's legality table,
`legal_rows`, whose row u holds the legal partners v > u; read row by row,
low bit first, as `graph.row_edges` lists them, its edges come in lex
order, so "least legal edge" is the first set bit. The random baseline
draws an index below the number of legal edges and takes that set bit, as
`random.choice` draws from that list. Greedy and the star strategy find
their best value from one mask per component size or per degree, then take
the lex-least edge of that value.
"""

from __future__ import annotations

import random
from functools import partial
from itertools import combinations
from typing import Callable, Iterable, Optional

from .engine import PASS, Action, GameState, Player, Variant
from .families import Move, TreeFamily, _by_room, legal_rows
from .graph import (Component, Frozen, Graph, bits, everywhere_traceable, hamiltonian_path,
                    norm_edge)
from .shapes import (CHERRY, CLAW, CLIQUE2, D12, PATH4, T1, ComponentLabel, has_triangle,
                     label_component, star_centres)
from .solver import best_action


class Strategy(Frozen):
    name: str
    decide: Callable[[GameState], Action]
    side: Optional[Player] = None  # None: usable by either player

    def __call__(self, state: GameState) -> Action:
        return self.decide(state)


def _rows(state: GameState) -> tuple[int, ...]:
    """`legal_rows` of a position that is not terminal."""
    rows = legal_rows(state.graph, state.family)
    if not any(rows):
        raise RuntimeError("asked to move in a terminal state")
    return rows


def _first(rows: Iterable[int]) -> Optional[Action]:
    """The lex-least edge of `rows`, or None when they are empty."""
    for u, row in enumerate(rows):
        if row:
            return Action((u, (row & -row).bit_length() - 1))
    return None


def _least_legal(state: GameState, exclude: Iterable[Move] = ()) -> Action:
    """Least legal edge outside `exclude`, or the least legal edge when all
    are excluded."""
    rows = _rows(state)
    skip = [0] * len(rows)
    for u, v in exclude:
        skip[u] |= 1 << v
    return _first(row & ~s for row, s in zip(rows, skip)) or _first(rows)


# --- path games: keep every component traceable from every vertex ------------


def _decide_traceable(state: GameState) -> Action:
    """Close a Hamiltonian path of a non-everywhere-traceable component into a
    cycle; otherwise pass (or play the least legal edge when passing is not
    available)."""
    rows = _rows(state)
    for rec in state.graph.components().records:
        if len(rec.members) > 2 and not everywhere_traceable(rec):
            path = hamiltonian_path(rec)
            if path is not None:
                u, v = norm_edge(path[0], path[-1])
                if rows[u] >> v & 1:
                    return Action((u, v))
    if state.variant is Variant.PROLONGER_MAY_PASS and state.to_move is Player.PROLONGER:
        return PASS
    return _least_legal(state)


# --- rule tables of the 4-path and 5-path games -----------------------------


class _View:
    """The position as the rules see it, built once per decision."""

    def __init__(self, g: Graph):
        self.g = g
        self.comps = [(rec, label_component(rec)) for rec in g.components().records]
        self.iso = [rec.members[0] for rec, _ in self.comps if len(rec.members) == 1]

    def shaped(self, label: ComponentLabel) -> list[Component]:
        return [rec for rec, lab in self.comps if lab == label]

    def deg(self, v: int) -> int:
        return self.g.adj[v].bit_count()

    def leaves(self, ms: Iterable[int]) -> list[int]:
        return [v for v in ms if self.deg(v) == 1]


Rule = Callable[[_View], list[Move]]


def _by_rules(*rules: Rule, avoid: Optional[Rule] = None) -> Callable[[GameState], Action]:
    """Least legal candidate of the first rule that has one; otherwise the
    least legal edge outside `avoid`'s candidates."""

    def decide(state: GameState) -> Action:
        view, rows = _View(state.graph), _rows(state)
        for rule in rules:
            legal = [(u, v) for u, v in rule(view) if rows[u] >> v & 1]
            if legal:
                return Action(min(legal))
        return _least_legal(state, avoid(view) if avoid else ())

    return decide


def _isolated_edge(v: _View) -> list[Move]:
    """Draw an edge between the two least isolated vertices."""
    return [(v.iso[0], v.iso[1])] if len(v.iso) >= 2 else []


def _edge_to_vertex(v: _View) -> list[Move]:
    """Join an isolated edge to an isolated vertex."""
    return [norm_edge(a, w) for rec in v.shaped(CLIQUE2) for a in rec.members for w in v.iso]


def _join_edges(v: _View) -> list[Move]:
    """Join two isolated edges into a 4-path."""
    k2 = v.shaped(CLIQUE2)
    return [norm_edge(a, b) for i, ra in enumerate(k2) for rb in k2[i + 1 :]
            for a in ra.members for b in rb.members]


def _close_cherry(v: _View) -> list[Move]:
    """Close a 3-vertex path into a triangle."""
    return [norm_edge(*v.leaves(rec.members)) for rec in v.shaped(CHERRY)]


def _grow_star(v: _View) -> list[Move]:
    """Attach an isolated vertex to a star's centre (either end of an edge)."""
    return [norm_edge(c, w) for rec, lab in v.comps if lab.kind == "star" or lab == CLIQUE2
            for c in star_centres(rec) for w in v.iso]


def _cherry_to_star(v: _View) -> list[Move]:
    """Grow a 3-vertex path into a 3-leaf star."""
    return [norm_edge(c, w) for rec in v.shaped(CHERRY) for c in star_centres(rec) for w in v.iso]


def _join_edges_when_no_spare(v: _View) -> list[Move]:
    """With no isolated vertex left, join two isolated edges into a 4-path."""
    return [] if v.iso else _join_edges(v)


def _grow_four_to_five(v: _View) -> list[Move]:
    """Grow a 4-vertex component into a 5-vertex one: a 4-path at an inner
    vertex, a 3-leaf star at a leaf, a pendant triangle at its hub."""
    out = []
    for rec, lab in v.comps:
        ms = rec.members
        if lab == PATH4:
            spots = [a for a in ms if v.deg(a) == 2]
        elif lab == CLAW:
            spots = v.leaves(ms)
        elif lab == T1:
            spots = [max(ms, key=v.deg)]
        else:
            continue
        out += [norm_edge(a, w) for a in spots for w in v.iso]
    return out


def _attach_to_large(v: _View) -> list[Move]:
    """Attach the least isolated vertex to a component of at least 5 vertices."""
    if not v.iso:
        return []
    return [norm_edge(a, v.iso[0]) for rec, _ in v.comps if len(rec.members) >= 5
            for a in rec.members]


def _join_cherry_centres(v: _View) -> list[Move]:
    """Join two 3-vertex paths centre to centre."""
    centres = [star_centres(rec)[0] for rec in v.shaped(CHERRY)]
    return [norm_edge(a, b) for i, a in enumerate(centres) for b in centres[i + 1 :]]


def _close_dangerous(v: _View) -> list[Move]:
    """Close the dangerous 4/5-vertex shapes into pendant triangles: in a
    D_{1,2} join the pendant of the degree-2 centre to the far centre; in a
    3-leaf star join two leaves."""
    out = []
    for rec, lab in v.comps:
        ms = rec.members
        if lab == D12:
            lone = next(a for a in ms
                        if v.deg(a) == 1 and v.deg(v.g.adj[a].bit_length() - 1) == 2)
            far = next(c for c in ms if v.deg(c) >= 2 and not v.g.has_edge(lone, c))
            out.append(norm_edge(lone, far))
        elif lab == CLAW:
            leaves = v.leaves(ms)
            out += [(a, b) for i, a in enumerate(leaves) for b in leaves[i + 1 :]]
    return out


def _complete_triangle(v: _View) -> list[Move]:
    """Complete a triangle inside a triangle-free component."""
    g, out = v.g, []
    for rec, _ in v.comps:
        if len(rec.members) >= 3 and not has_triangle(rec):
            out += [(a, b) for a in rec.members
                    for b in bits(~g.adj[a] & rec.mask & ~((1 << (a + 1)) - 1))
                    if g.adj[a] & g.adj[b]]
    return out


# --- the all-trees game -------------------------------------------------------


def _decide_prolonger_trees(state: GameState) -> Action:
    """Join the two components with the greatest total size not exceeding the
    component budget (forbidden tree size minus one)."""
    g = state.graph
    if not isinstance(state.family, TreeFamily):
        raise ValueError("tree-game strategy requires a tree family")
    budget = state.family.k - 1
    # records sort by least member, so max() keeps the pair of the greatest
    # total whose least members come first; its least edge joins those two
    pairs = [(len(a.members) + len(b.members), a.members[0], b.members[0])
             for a, b in combinations(g.components().records, 2)]
    fitting = [p for p in pairs if p[0] <= budget]
    if fitting:
        _, u, v = max(fitting, key=lambda p: p[0])
        # distinct components whose sizes sum below k: the edge is absent and legal
        return Action((u, v))
    return _least_legal(state)


# --- the star game ------------------------------------------------------------


def _decide_star_lex(state: GameState) -> Action:
    """Least legal edge under the key (min endpoint degree, max endpoint
    degree, endpoints): builds up degrees from the bottom."""
    rows = _rows(state)
    deg = state.graph.degrees()
    of_deg: dict[int, int] = {}
    for v, d in enumerate(deg):
        of_deg[d] = of_deg.get(d, 0) | 1 << v
    classes = sorted(of_deg)
    for i, d1 in enumerate(classes):
        for d2 in classes[i:]:
            # u of one degree of the class pairs with a partner of the other
            for u in bits(of_deg[d1] | of_deg[d2]):
                row = rows[u] & of_deg[d1 + d2 - deg[u]]
                if row:
                    return Action((u, (row & -row).bit_length() - 1))
    raise AssertionError("unreachable: _rows found a legal edge")


# --- baselines ----------------------------------------------------------------


def _state_rng(seed: int, state: GameState) -> random.Random:
    # pure function of (seed, position) so replays are reproducible
    edges = ",".join(f"{u}-{v}" for u, v in state.graph.edges())
    return random.Random(f"{seed}|{state.graph.n}|{state.to_move.value}|{edges}")


def _decide_random(seed: int, state: GameState) -> Action:
    """A uniform legal edge; `randrange(count)` draws as `choice` does from
    the list of all `count` legal edges in lex order."""
    rows = _rows(state)
    i = _state_rng(seed, state).randrange(sum(row.bit_count() for row in rows))
    for u, row in enumerate(rows):
        size = row.bit_count()
        if i < size:
            for _ in range(i):
                row &= row - 1
            return Action((u, (row & -row).bit_length() - 1))
        i -= size
    raise AssertionError("unreachable: i is below the number of legal edges")


def _decide_greedy(state: GameState, want_max: bool) -> Action:
    """Least legal edge that leaves the largest component smallest (or
    largest). An edge's value is `cur`, the largest size now, inside a
    component, and max(cur, |A| + |B|) joining components A and B."""
    rows = _rows(state)
    cv = state.graph.components()
    size = [mask.bit_count() for mask in cv.mask_of]
    of_size: dict[int, int] = {}
    for mask in cv.masks:
        of_size[mask.bit_count()] = of_size.get(mask.bit_count(), 0) | mask
    cur = max(of_size)
    inside = 0
    joins = dict.fromkeys(of_size, 0)  # size -> legal partners of those vertices elsewhere
    for u, row in enumerate(rows):
        inside |= row & cv.mask_of[u]
        joins[size[u]] |= row & ~cv.mask_of[u]
    values = {max(cur, a + b) for a, out in joins.items() for b, mask in of_size.items()
              if out & mask}
    if inside:
        values.add(cur)
    best = max(values) if want_max else min(values)
    if best == cur:  # inside a component, or joining sizes that sum to at most cur
        upto = _by_room(size, cur + 1)
        return _first(row & (cv.mask_of[u] | upto[cur - size[u]]) for u, row in enumerate(rows))
    return _first(row & ~cv.mask_of[u] & of_size.get(best - size[u], 0)
                  for u, row in enumerate(rows))


# --- registry -----------------------------------------------------------------


_STRATEGIES: dict[str, tuple[Callable[[GameState], Action], Optional[Player]]] = {
    "traceable": (_decide_traceable, Player.PROLONGER),
    "s-p4": (_by_rules(_cherry_to_star, _isolated_edge, _grow_star, _close_cherry),
             Player.SHORTENER),
    "p-p4": (_by_rules(_close_cherry, _edge_to_vertex, _grow_star, _isolated_edge),
             Player.PROLONGER),
    "s-p5": (_by_rules(_join_edges_when_no_spare, _grow_four_to_five, _edge_to_vertex,
                       _attach_to_large, _isolated_edge, _join_cherry_centres),
             Player.SHORTENER),
    # never grow a star into a larger star, even when falling back
    "p-p5": (_by_rules(_close_dangerous, _complete_triangle, _join_edges, _edge_to_vertex,
                       _isolated_edge, avoid=_grow_star),
             Player.PROLONGER),
    "p-trees": (_decide_prolonger_trees, Player.PROLONGER),
    "p-star": (_decide_star_lex, Player.PROLONGER),
    "greedy-min": (partial(_decide_greedy, want_max=False), None),
    "greedy-max": (partial(_decide_greedy, want_max=True), None),
}


def make_strategy(name: str, default_seed: int = 0) -> Strategy:
    """Resolve a strategy name: traceable, s-p4, p-p4, s-p5, p-p5, p-trees,
    p-star, random[:seed], greedy-min, greedy-max, optimal."""
    base, colon, arg = name.partition(":")
    if base == "random":
        try:
            seed = int(arg) if arg else default_seed
        except ValueError:
            raise ValueError(f"strategy {name!r}: seed {arg!r} is not an integer") from None
        return Strategy(f"random:{seed}", partial(_decide_random, seed))
    if base != "optimal" and base not in _STRATEGIES:
        raise ValueError(f"unknown strategy {name!r}")
    if colon:
        raise ValueError(f"strategy {name!r}: only random takes an argument")
    if base == "optimal":
        return Strategy("optimal", partial(best_action, table={}))
    return Strategy(base, *_STRATEGIES[base])
