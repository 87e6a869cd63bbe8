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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Callable, Iterable, Optional

from .engine import PASS, Action, GameState, Player, Variant
from .families import Move, TreeFamily, creates_forbidden, legal_moves
from .graph import Component, Graph, bits, everywhere_traceable, hamiltonian_path, norm_edge
from .shapes import CLIQUE2, ComponentLabel, has_triangle, label_component, star_centres
from .solver import best_action


@dataclass(frozen=True)
class Strategy:
    name: str
    decide: Callable[[GameState], Action]
    side: Optional[Player] = None  # None: usable by either player

    def __call__(self, state: GameState) -> Action:
        return self.decide(state)


def _moves(state: GameState) -> list[Move]:
    moves = legal_moves(state.graph, state.family)
    if not moves:
        raise RuntimeError("asked to move in a terminal state")
    return moves


def _least_legal(state: GameState, exclude: Iterable[Move] = ()) -> Action:
    """Least legal edge outside `exclude`, or the least legal edge when all
    are excluded."""
    moves = _moves(state)
    skip = set(exclude)
    return Action(next((e for e in moves if e not in skip), moves[0]))


# --- path games: keep every component traceable from every vertex ------------


def _decide_traceable(state: GameState) -> Action:
    """Close a Hamiltonian path of a non-everywhere-traceable component into a
    cycle; otherwise pass (or play the least legal edge when passing is not
    available)."""
    g = state.graph
    for rec in g.components().records:
        if len(rec.members) > 2 and not everywhere_traceable(rec):
            path = hamiltonian_path(rec)
            if path is not None:
                e = norm_edge(path[0], path[-1])
                if not creates_forbidden(g, state.family, e):
                    return Action(e)
    if state.variant is Variant.PROLONGER_MAY_PASS and state.to_move is Player.PROLONGER:
        return PASS
    return _least_legal(state)


# --- rule tables of the 4-path and 5-path games -----------------------------


_P3 = ComponentLabel("star", 2)  # the 3-vertex path, a cherry


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
        view = _View(state.graph)
        for rule in rules:
            legal = [e for e in rule(view) if not creates_forbidden(state.graph, state.family, e)]
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
    return [norm_edge(*v.leaves(rec.members)) for rec in v.shaped(_P3)]


def _grow_star(v: _View) -> list[Move]:
    """Attach an isolated vertex to a star's centre (either end of an edge)."""
    return [norm_edge(c, w) for rec, lab in v.comps if lab.kind == "star" or lab == CLIQUE2
            for c in star_centres(rec) for w in v.iso]


def _cherry_to_star(v: _View) -> list[Move]:
    """Grow a 3-vertex path into a 3-leaf star."""
    return [norm_edge(c, w) for rec in v.shaped(_P3) for c in star_centres(rec) for w in v.iso]


def _join_edges_when_no_spare(v: _View) -> list[Move]:
    """With no isolated vertex left, join two isolated edges into a 4-path."""
    return [] if v.iso else _join_edges(v)


def _grow_four_to_five(v: _View) -> list[Move]:
    """Grow a 4-vertex component into a 5-vertex one: a 4-path at an inner
    vertex, a 3-leaf star at a leaf, a pendant triangle at its hub."""
    out = []
    for rec, lab in v.comps:
        ms = rec.members
        if lab == ComponentLabel("dstar", 1, 1):  # 4-vertex path
            spots = [a for a in ms if v.deg(a) == 2]
        elif lab == ComponentLabel("star", 3):
            spots = v.leaves(ms)
        elif lab == ComponentLabel("tpend", 1):
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
    centres = [star_centres(rec)[0] for rec in v.shaped(_P3)]
    return [norm_edge(a, b) for i, a in enumerate(centres) for b in centres[i + 1 :]]


def _close_dangerous(v: _View) -> list[Move]:
    """Close the dangerous 4/5-vertex shapes into pendant triangles: in a
    D_{1,2} join the pendant of the degree-2 centre to the far centre; in a
    3-leaf star join two leaves."""
    out = []
    for rec, lab in v.comps:
        ms = rec.members
        if lab == ComponentLabel("dstar", 1, 2):
            lone = next(a for a in ms
                        if v.deg(a) == 1 and v.deg(v.g.adj[a].bit_length() - 1) == 2)
            far = next(c for c in ms if v.deg(c) >= 2 and not v.g.has_edge(lone, c))
            out.append(norm_edge(lone, far))
        elif lab == ComponentLabel("star", 3):
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
    deg = state.graph.degrees()

    def key(e: Move):
        du, dv = deg[e[0]], deg[e[1]]
        if du > dv:
            du, dv = dv, du
        return (du, dv, e[0], e[1])

    return Action(min(_moves(state), key=key))


# --- baselines ----------------------------------------------------------------


def _state_rng(seed: int, state: GameState) -> random.Random:
    # pure function of (seed, position) so replays are reproducible
    edges = ",".join(f"{u}-{v}" for u, v in state.graph.edges())
    return random.Random(f"{seed}|{state.graph.n}|{state.to_move.value}|{edges}")


def _decide_random(seed: int, state: GameState) -> Action:
    return Action(_state_rng(seed, state).choice(_moves(state)))


def _decide_greedy(state: GameState, want_max: bool) -> Action:
    moves = _moves(state)
    cv = state.graph.components()
    cur = max(mask.bit_count() for mask in cv.masks)

    def result_size(e: Move) -> int:
        mu, mv = cv.mask_of[e[0]], cv.mask_of[e[1]]
        if mu == mv:
            return cur
        return max(cur, mu.bit_count() + mv.bit_count())

    sign = -1 if want_max else 1
    return Action(min(moves, key=lambda e: (sign * result_size(e), e)))


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
