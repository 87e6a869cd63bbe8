"""Deterministic strategies for both players, plus baseline opponents.

Each strategy is a rule list tried in order; within a rule, candidate edges
are filtered for legality and the lexicographically least is played, so play
is reproducible. Every strategy falls back to the least legal edge (or a
pass, where allowed) so it always returns a legal action, even from states
its rules were not designed around.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from . import solver as _solver_mod
from .engine import PASS, Action, GameState, Player, Variant
from .families import Move, TreeFamily, creates_forbidden, legal_moves
from .graph import Graph, bits, everywhere_traceable, hamiltonian_path, norm_edge, vertex_mask
from .shapes import (
    CLIQUE2,
    ComponentLabel,
    label_component,
    star_centres,
    has_triangle,
)


@dataclass(frozen=True)
class Strategy:
    name: str
    decide: Callable[[GameState], Action]
    side: Optional[Player] = None  # None: usable by either player

    def __call__(self, state: GameState) -> Action:
        return self.decide(state)


def _least_legal(state: GameState, exclude: Iterable[Move] = ()) -> Action:
    """Least legal edge outside `exclude`, or the least legal edge when all
    are excluded."""
    moves = legal_moves(state.graph, state.family)
    if not moves:
        raise RuntimeError("asked to move in a terminal state")
    skip = set(exclude)
    return Action(next((e for e in moves if e not in skip), moves[0]))


def _pick(state: GameState, candidates: Iterable[Move]) -> Optional[Action]:
    """Least legal edge among `candidates`, which must all be absent."""
    legal = [e for e in candidates if not creates_forbidden(state.graph, state.family, e)]
    return Action(min(legal)) if legal else None


def _labelled_components(g: Graph) -> list[tuple[tuple[int, ...], ComponentLabel]]:
    return [(ms, label_component(g, ms)) for ms in g.components().members]


# --- path games: keep every component traceable from every vertex ------------


def _decide_traceable(state: GameState) -> Action:
    """Close a Hamiltonian path of a non-everywhere-traceable component into a
    cycle; otherwise pass (or play the least legal edge when passing is not
    available)."""
    g = state.graph
    for ms in g.components().members:
        if len(ms) > 2 and not everywhere_traceable(g, ms):
            path = hamiltonian_path(g, ms)
            if path is not None:
                e = norm_edge(path[0], path[-1])
                if not creates_forbidden(g, state.family, e):
                    return Action(e)
    if state.variant is Variant.PROLONGER_MAY_PASS and state.to_move is Player.PROLONGER:
        return PASS
    return _least_legal(state)


# --- the 4-vertex path game ---------------------------------------------------


def _decide_shortener_p4(state: GameState) -> Action:
    g = state.graph
    comps = _labelled_components(g)
    iso = [ms[0] for ms, lab in comps if lab.size == 1]
    p3 = [ms for ms, lab in comps if lab == ComponentLabel("star", 2)]
    # (i) grow a 3-vertex path into a 3-leaf star
    if iso and p3:
        centres = [c for ms in p3 for c in star_centres(g, ms)]
        act = _pick(state, (norm_edge(c, w) for c in centres for w in iso))
        if act:
            return act
    # (ii) isolated edge
    if len(iso) >= 2:
        act = _pick(state, [(iso[0], iso[1])])
        if act:
            return act
    # (iii) attach an isolated vertex to a star centre
    if iso:
        centres = [c for ms, lab in comps if lab.kind == "star" or lab == CLIQUE2
                   for c in star_centres(g, ms)]
        act = _pick(state, (norm_edge(c, w) for c in centres for w in iso))
        if act:
            return act
    # (iv) close a 3-vertex path into a triangle
    leafpairs = []
    for ms in p3:
        leaves = [v for v in ms if (g.adj[v] & vertex_mask(ms)).bit_count() == 1]
        leafpairs.append(norm_edge(*leaves))
    act = _pick(state, leafpairs)
    if act:
        return act
    return _least_legal(state)


def _decide_prolonger_p4(state: GameState) -> Action:
    g = state.graph
    comps = _labelled_components(g)
    iso = [ms[0] for ms, lab in comps if lab.size == 1]
    # (i) close a 3-vertex path component into a triangle
    cands = []
    for ms, lab in comps:
        if lab == ComponentLabel("star", 2):
            leaves = [v for v in ms if (g.adj[v] & vertex_mask(ms)).bit_count() == 1]
            cands.append(norm_edge(*leaves))
    act = _pick(state, cands)
    if act:
        return act
    # (ii) join an isolated edge and an isolated vertex
    if iso:
        k2 = [ms for ms, lab in comps if lab == CLIQUE2]
        act = _pick(state, (norm_edge(a, w) for ms in k2 for a in ms for w in iso))
        if act:
            return act
    # (iii) attach an isolated vertex to the centre of a star with >= 2 leaves
    if iso:
        centres = [c for ms, lab in comps if lab.kind == "star"
                   for c in star_centres(g, ms)]
        act = _pick(state, (norm_edge(c, w) for c in centres for w in iso))
        if act:
            return act
    # (iv) isolated edge
    if len(iso) >= 2:
        act = _pick(state, [(iso[0], iso[1])])
        if act:
            return act
    return _least_legal(state)


# --- the 5-vertex path game ---------------------------------------------------


def _decide_shortener_p5(state: GameState) -> Action:
    g = state.graph
    comps = _labelled_components(g)
    iso = [ms[0] for ms, lab in comps if lab.size == 1]
    k2 = [ms for ms, lab in comps if lab == CLIQUE2]
    # (i) with no isolated vertices, join two isolated edges into a 4-path
    if not iso and len(k2) >= 2:
        act = _pick(
            state,
            (norm_edge(a, b) for i, msa in enumerate(k2) for msb in k2[i + 1 :]
             for a in msa for b in msb),
        )
        if act:
            return act
    if iso:
        # (ii) grow a 4-vertex component into a 5-vertex one:
        # 4-path -> attach at an inner vertex; 3-leaf star -> attach at a leaf;
        # pendant triangle -> attach at its hub
        cands = []
        for ms, lab in comps:
            mask = vertex_mask(ms)
            if lab == ComponentLabel("dstar", 1, 1):  # 4-vertex path
                inner = [v for v in ms if (g.adj[v] & mask).bit_count() == 2]
                cands += [norm_edge(v, w) for v in inner for w in iso]
            elif lab == ComponentLabel("star", 3):
                leaves = [v for v in ms if (g.adj[v] & mask).bit_count() == 1]
                cands += [norm_edge(v, w) for v in leaves for w in iso]
            elif lab == ComponentLabel("tpend", 1):
                hub = max(ms, key=lambda v: (g.adj[v] & mask).bit_count())
                cands += [norm_edge(hub, w) for w in iso]
        act = _pick(state, cands)
        if act:
            return act
        # (iii) grow an isolated edge into a 3-vertex path
        act = _pick(state, (norm_edge(a, w) for ms in k2 for a in ms for w in iso))
        if act:
            return act
        # (iv) attach an isolated vertex to a component of >= 5 vertices
        w = iso[0]
        spots = [
            v
            for ms, lab in comps
            if len(ms) >= 5
            for v in ms
            if not creates_forbidden(g, state.family, norm_edge(v, w))
        ]
        if spots:
            return Action(norm_edge(min(spots), w))
        # (v) isolated edge
        if len(iso) >= 2:
            act = _pick(state, [(iso[0], iso[1])])
            if act:
                return act
    # (vi) join two 3-vertex paths centre-to-centre
    p3 = [ms for ms, lab in comps if lab == ComponentLabel("star", 2)]
    if len(p3) >= 2:
        centres = [star_centres(g, ms)[0] for ms in p3]
        act = _pick(
            state,
            (norm_edge(a, b) for i, a in enumerate(centres) for b in centres[i + 1 :]),
        )
        if act:
            return act
    # (vii) arbitrary
    return _least_legal(state)


def _star_growing_moves(g: Graph, comps) -> set[Move]:
    """Edges that would extend a star component into a larger star."""
    iso = {ms[0] for ms, lab in comps if lab.size == 1}
    out: set[Move] = set()
    for ms, lab in comps:
        for c in star_centres(g, ms):
            out.update(norm_edge(c, w) for w in iso)
    return out


def _decide_prolonger_p5(state: GameState) -> Action:
    g = state.graph
    comps = _labelled_components(g)
    iso = [ms[0] for ms, lab in comps if lab.size == 1]
    k2 = [ms for ms, lab in comps if lab == CLIQUE2]
    # (i) close the dangerous 4/5-vertex shapes into pendant triangles:
    # in a D_{1,2} join the lone pendant to the far centre; in a 3-leaf star
    # join two leaves
    cands = []
    for ms, lab in comps:
        mask = vertex_mask(ms)
        if lab == ComponentLabel("dstar", 1, 2):
            centres = [v for v in ms if (g.adj[v] & mask).bit_count() >= 2]
            # the pendant hanging off the degree-2 centre, joined to the far centre
            lone = next(
                v for v in ms
                if (g.adj[v] & mask).bit_count() == 1
                and (g.adj[(g.adj[v] & mask).bit_length() - 1] & mask).bit_count() == 2
            )
            far = next(c for c in centres if not g.has_edge(lone, c))
            cands.append(norm_edge(lone, far))
        elif lab == ComponentLabel("star", 3):
            leaves = sorted(v for v in ms if (g.adj[v] & mask).bit_count() == 1)
            cands += [norm_edge(a, b) for i, a in enumerate(leaves) for b in leaves[i + 1 :]]
    act = _pick(state, cands)
    if act:
        return act
    # (ii) complete a triangle inside any triangle-free component
    cands = []
    for ms, lab in comps:
        mask = vertex_mask(ms)
        if len(ms) >= 3 and not has_triangle(g, mask):
            for u in ms:
                for v in bits(~g.adj[u] & mask & ~((1 << (u + 1)) - 1)):
                    if g.adj[u] & g.adj[v] & mask:
                        cands.append((u, v))
    act = _pick(state, cands)
    if act:
        return act
    # (iii) join two isolated edges into a 4-path
    if len(k2) >= 2:
        act = _pick(
            state,
            (norm_edge(a, b) for i, msa in enumerate(k2) for msb in k2[i + 1 :]
             for a in msa for b in msb),
        )
        if act:
            return act
    # (iv) join an isolated edge and an isolated vertex
    if iso and k2:
        act = _pick(state, (norm_edge(a, w) for ms in k2 for a in ms for w in iso))
        if act:
            return act
    # (v) isolated edge
    if len(iso) >= 2:
        act = _pick(state, [(iso[0], iso[1])])
        if act:
            return act
    # (vi) arbitrary, but never grow a star into a larger star
    return _least_legal(state, exclude=_star_growing_moves(g, comps))


# --- the all-trees game -------------------------------------------------------


def _decide_prolonger_trees(state: GameState) -> Action:
    """Join the two components with the greatest total size not exceeding the
    component budget (forbidden tree size minus one)."""
    g = state.graph
    if not isinstance(state.family, TreeFamily):
        raise ValueError("tree-game strategy requires a tree family")
    budget = state.family.k - 1
    cv = g.components()
    best: Optional[tuple[int, int, int]] = None  # (-total, id_a, id_b)
    for i in range(len(cv.members)):
        for j in range(i + 1, len(cv.members)):
            total = len(cv.members[i]) + len(cv.members[j])
            if total <= budget:
                key = (-total, cv.members[i][0], cv.members[j][0])
                if best is None or key < best:
                    best = key
                    pair = (i, j)
    if best is not None:
        i, j = pair
        e = min(norm_edge(u, v) for u in cv.members[i] for v in cv.members[j])
        if not creates_forbidden(g, state.family, e):
            return Action(e)
    return _least_legal(state)


# --- the star game ------------------------------------------------------------


def _decide_star_lex(state: GameState) -> Action:
    """Least legal edge under the key (min endpoint degree, max endpoint
    degree, endpoints): builds up degrees from the bottom."""
    g = state.graph
    moves = legal_moves(g, state.family)
    if not moves:
        raise RuntimeError("asked to move in a terminal state")
    deg = g.degrees()

    def key(e: Move):
        du, dv = deg[e[0]], deg[e[1]]
        if du > dv:
            du, dv = dv, du
        return (du, dv, e[0], e[1])

    return Action(min(moves, key=key))


# --- baselines ----------------------------------------------------------------


def _state_rng(seed: int, state: GameState) -> random.Random:
    # pure function of (seed, position) so replays are reproducible
    edges = ",".join(f"{u}-{v}" for u, v in state.graph.edges())
    return random.Random(f"{seed}|{state.graph.n}|{state.to_move.value}|{edges}")


def _decide_random(seed: int, state: GameState) -> Action:
    moves = legal_moves(state.graph, state.family)
    if not moves:
        raise RuntimeError("asked to move in a terminal state")
    return Action(_state_rng(seed, state).choice(moves))


def _decide_greedy(state: GameState, want_max: bool) -> Action:
    g = state.graph
    moves = legal_moves(g, state.family)
    if not moves:
        raise RuntimeError("asked to move in a terminal state")
    cv = g.components()
    cur = max(len(ms) for ms in cv.members)

    def result_size(e: Move) -> int:
        if cv.labels[e[0]] == cv.labels[e[1]]:
            return cur
        return max(cur, cv.mask_of(e[0]).bit_count() + cv.mask_of(e[1]).bit_count())

    sign = -1 if want_max else 1
    return Action(min(moves, key=lambda e: (sign * result_size(e), e)))


def _decide_optimal(state: GameState, cache: dict) -> Action:
    return _solver_mod.best_action(state, table=cache)


# --- registry -----------------------------------------------------------------


def make_strategy(name: str, default_seed: int = 0) -> Strategy:
    """Resolve a strategy name: traceable, s-p4, p-p4, s-p5, p-p5, p-trees,
    p-star, random[:seed], greedy-min, greedy-max, optimal."""
    base, _, arg = name.partition(":")
    if base == "traceable":
        return Strategy("traceable", _decide_traceable, Player.PROLONGER)
    if base == "s-p4":
        return Strategy("s-p4", _decide_shortener_p4, Player.SHORTENER)
    if base == "p-p4":
        return Strategy("p-p4", _decide_prolonger_p4, Player.PROLONGER)
    if base == "s-p5":
        return Strategy("s-p5", _decide_shortener_p5, Player.SHORTENER)
    if base == "p-p5":
        return Strategy("p-p5", _decide_prolonger_p5, Player.PROLONGER)
    if base == "p-trees":
        return Strategy("p-trees", _decide_prolonger_trees, Player.PROLONGER)
    if base == "p-star":
        return Strategy("p-star", _decide_star_lex, Player.PROLONGER)
    if base == "random":
        seed = int(arg) if arg else default_seed
        return Strategy(f"random:{seed}", lambda s, _seed=seed: _decide_random(_seed, s))
    if base == "greedy-min":
        return Strategy("greedy-min", lambda s: _decide_greedy(s, want_max=False))
    if base == "greedy-max":
        return Strategy("greedy-max", lambda s: _decide_greedy(s, want_max=True))
    if base == "optimal":
        cache: dict = {}
        return Strategy("optimal", lambda s, _c=cache: _decide_optimal(s, _c))
    raise ValueError(f"unknown strategy {name!r}")


STRATEGY_NAMES = (
    "traceable", "s-p4", "p-p4", "s-p5", "p-p5", "p-trees", "p-star",
    "random:<seed>", "greedy-min", "greedy-max", "optimal",
)
