"""Exact game values by null-window tests over canonical positions.

Positions are graded by edge count so the game DAG is acyclic (a pass keeps
the graph but hands the move to the side that must add an edge). A value is
the remaining score. The table holds a (lower, upper) bound on it per
position, and an entry is exact when the two are equal. A position not yet
in the table is bounded by 0 and the family's saturation maximum minus its
edges; one with a legal move scores at least 1.

The one search, `_Search.bounded`, is a fail-soft test at one threshold
gamma: is the remaining score at least gamma? It walks the children that
`_actions` reads off the position's legality table (`legal_rows`), the
only code that chooses them: the scripted side's one action, or else the
first edge of each set of twin-equivalent edges in lex order, then a pass
where the variant allows one. `best` walks the same list, so the principal
variation is the lex-least optimal line.

`value` finds the exact score by MTD(f) (Plaat, Schaeffer, Pijls & de Bruin,
"Best-first fixed-depth minimax algorithms", Artif. Intell. 1996): a series
of null-window tests, each of which tightens the bounds in the table. The
first guess is the upper end of the theorem window that covers the game.
The guess steers only the search, never a value. Entries are keyed by the
game as well as the position, so one table may serve many games.

A position's key is `families.position_key` of its game, or the labelled
adjacency when a side is scripted, since a script sees labels. Move order,
twin pruning and `best` walk labelled graphs, so values and principal
variations do not depend on the key.

A child tested at threshold one only asks whether it is still open, and
one that provably is gets the bound 1 without being built: if g's rows
hold a legal edge with both ends outside the move's reach
(`families.move_reach`), g + uv keeps it. (A pass child is never tested at
threshold one: the loop runs only for gamma >= 2.) The bound is
fail-soft, so entries stay sound; searching fewer children changes
position counts, never a value or line.
"""

from __future__ import annotations

import math
import sys
import time
from typing import Callable, Optional

from .analysis import CapExceeded, window
from .engine import Action, GameState, Player, Variant
from .families import (
    ForbiddenFamily,
    Move,
    family_name,
    legal_rows,
    max_saturated_edges,
    move_reach,
    position_key,
)
from .graph import MAX_VERTICES, Frozen, Graph, least_twins, row_edges


class BudgetExceeded(RuntimeError):
    """Node or time budget ran out mid-solve."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind  # "nodes" | "time"


class SolveResult(Frozen):
    """A solved game's score, principal variation and positions expanded.
    Its principal variation is a list, so it does not hash."""

    score: int
    principal_variation: list[Action]
    positions_expanded: int


# (family name, variant): a table shared between games keeps them apart
Game = tuple[str, Variant]
# position key is the game's `position_key`, or the labelled adjacency when
# one side is scripted; each encodes n. The value is a (lower, upper) bound
# on the remaining score, exact when the two are equal.
PositionTable = dict[tuple[Game, object, Player], tuple[int, int]]
DEFAULT_N_CAP = 10


def _check_depth(n: int, family: ForbiddenFamily, variant: Variant, max_edges: int) -> None:
    """Raise `CapExceeded` when searching this game could outgrow the
    interpreter's recursion limit, which is left as it is.

    The bound is safe: each nested `_Search.bounded` is one frame and adds
    one of at most max_edges edges, or is a pass that Shortener must answer
    with one. At most three frames (of `result`, `best` and `value`) lie
    between the first of them and the frames in use now, and the deepest
    stacks at most 2 * MAX_VERTICES of its own calls: the canonical search
    nests once per vertex, nothing else more than a few.
    """
    plies = max_edges * (2 if variant is Variant.PROLONGER_MAY_PASS else 1)
    frames, frame = 0, sys._getframe()
    while frame is not None:
        frames, frame = frames + 1, frame.f_back
    limit = sys.getrecursionlimit()
    if frames + 3 + plies + 2 * MAX_VERTICES > limit:
        raise CapExceeded(f"n={n} {family_name(family)} may nest {plies} plies, "
                          f"too deep for the recursion limit {limit}")


def _keeps_an_edge(rows: tuple[int, ...], reach: int) -> bool:
    """Do the legality rows hold an edge with both ends outside `reach`?"""
    return any(row & ~reach for x, row in enumerate(rows) if not reach >> x & 1)


class _Search:
    """Null-window tests of one game on n vertices over a table of bounds,
    each at one threshold over the children that `_actions` gives.

    `key` maps a position to its table key, the game's `position_key`.
    With `fixed` given, `fixed_side` (given with it or not at all) plays
    `fixed(state)` and the other side's exact optimum is searched; the
    script sees labelled positions, so the table is keyed by the adjacency
    instead.
    """

    def __init__(
        self,
        n: int,
        family: ForbiddenFamily,
        variant: Variant,
        first_mover: Player,
        table: PositionTable,
        *,
        n_cap: int,
        node_cap: Optional[int],
        time_cap: Optional[float],
        fixed: Optional[Callable[[GameState], Action]] = None,
        fixed_side: Optional[Player] = None,
    ):
        if (fixed is None) is not (fixed_side is None):
            raise ValueError("a script needs the side it plays, and a side its script")
        if n > n_cap:
            raise CapExceeded(f"n={n} exceeds the solver cap {n_cap}")
        self.n, self.family, self.variant, self.first_mover = n, family, variant, first_mover
        self.game: Game = (family_name(family), variant)
        self.max_edges = max_saturated_edges(family, n)
        _check_depth(n, family, variant, self.max_edges)
        rep = window(family, variant, n)
        # the final score that MTD(f) tries first; any guess gives the same values
        self.guess = math.floor(rep.upper) if rep else self.max_edges
        self.table = table
        self.node_cap = node_cap
        self.deadline = None if time_cap is None else time.monotonic() + time_cap
        self.nodes = 0
        self.fixed, self.fixed_side = fixed, fixed_side
        self.key: Callable[[Graph], object] = (
            position_key(family, n) if fixed is None else lambda g: g.adj)

    def _actions(self, g: Graph, mover: Player, rows: tuple[int, ...]) -> list[Optional[Move]]:
        """The children of `g` in search order, given its `legal_rows`, with
        a pass as None: the scripted side's one action; otherwise the first
        legal edge in lex order of each twin class, then a pass where the
        variant allows one. Twins may be permuted freely within their class
        by an automorphism (`graph.least_twins`), so edges whose ends map to
        the same pair of least twins give isomorphic children, and every one
        after the first would be a table hit; a script sees labels, so with
        one every edge is a child."""
        may_pass = self.variant is Variant.PROLONGER_MAY_PASS and mover is Player.PROLONGER
        moves = row_edges(rows)
        if mover is self.fixed_side:
            action = self.fixed(GameState(g, mover, self.family, self.variant, self.first_mover))
            if action.edge not in moves and not (action.is_pass and may_pass):
                raise RuntimeError(f"scripted side played illegal {action} on {g.edges()}")
            return [action.edge]
        if not self.fixed:
            least = least_twins(g.adj)
            classes: dict[int, Move] = {}
            for u, v in moves:
                classes.setdefault(1 << least[u] | 1 << least[v], (u, v))
            moves = list(classes.values())
        return [*moves, None] if may_pass else moves

    def bounded(self, g: Graph, mover: Player, gamma: int) -> int:
        """Fail-soft null-window test of whether the remaining score of `g`
        with `mover` to move is at least gamma: a lower bound on it that is
        at least gamma, or an upper bound below gamma."""
        key = (self.game, self.key(g), mover)
        entry = self.table.get(key)
        lo, hi = entry or (0, self.max_edges - g.m)
        if lo >= gamma:
            return lo
        if hi < gamma:
            return hi
        if entry is None:
            self.nodes += 1
            if self.node_cap is not None and self.nodes > self.node_cap:
                raise BudgetExceeded("nodes", f"node cap {self.node_cap} exceeded")
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise BudgetExceeded("time", "time cap exceeded")
        rows = legal_rows(g, self.family)
        if not any(rows):
            self.table[key] = (0, 0)
            return 0
        lo = max(lo, 1)  # some side must still add an edge
        if lo >= gamma:
            self.table[key] = (lo, hi)
            return lo
        other = mover.other
        # Prolonger keeps the largest child and stops at one that reaches
        # gamma; Shortener keeps the least and stops at one below it
        prolonger = mover is Player.PROLONGER
        v = -1 if prolonger else self.max_edges + 1
        for e in self._actions(g, mover, rows):
            step = e is not None
            if step and gamma == 2 and _keeps_an_edge(rows, move_reach(g, self.family, *e)):
                w = 2  # the child is open, so it scores at least 1 and is not built
            else:
                w = step + self.bounded(g.add_edge(*e) if step else g, other, gamma - step)
            v = max(v, w) if prolonger else min(v, w)
            if (v >= gamma) is prolonger:
                break
        self.table[key] = (v, hi) if v >= gamma else (lo, v)
        return v

    def value(self, g: Graph, mover: Player) -> int:
        """Exact remaining score of `g` with `mover` to move, by MTD(f): each
        null-window test moves one end of the bracket to the returned bound."""
        lo, hi = 0, self.max_edges - g.m
        guess = min(max(self.guess - g.m, lo), hi)
        while lo < hi:
            gamma = max(guess, lo + 1)
            guess = self.bounded(g, mover, gamma)
            if guess < gamma:
                hi = guess
            else:
                lo = guess
        return lo

    def best(self, g: Graph, mover: Player, target: Optional[int] = None) -> Optional[Action]:
        """The first of `_actions` that keeps the remaining score at `target`
        (by default the value of `g`); None in a terminal position.

        A child of an edge scores at most target - 1 if Prolonger moves and at
        least target - 1 if Shortener does (target after a pass), so the
        action sought is the first whose child scores exactly that. Without
        a script this is the lex-least optimal edge, a pass only when no edge
        is optimal: an edge's earlier twins give isomorphic children, so the
        lex-least optimal edge is the first of its twin class, which
        `_actions` keeps.
        """
        rows = legal_rows(g, self.family)
        if not any(rows):
            return None
        if target is None:
            target = self.value(g, mover)
        prolonger = mover is Player.PROLONGER
        for e in self._actions(g, mover, rows):
            step = e is not None
            child, rest = (g.add_edge(*e) if step else g), target - step
            gamma = rest if prolonger else rest + 1
            if (self.bounded(child, mover.other, gamma) >= gamma) is prolonger:
                return Action(e)
        raise AssertionError("no action reproduces the solved value")

    def result(self) -> SolveResult:
        """The exact score of the game, and its line of `best` actions from
        the empty graph to a terminal one."""
        score = self.value(Graph.empty(self.n), self.first_mover)
        pv: list[Action] = []
        g, mover, rest = Graph.empty(self.n), self.first_mover, score
        while (action := self.best(g, mover, rest)) is not None:
            pv.append(action)
            if not action.is_pass:
                g = g.add_edge(*action.edge)
                rest -= 1
            mover = mover.other
        return SolveResult(score, pv, self.nodes)


def solve(
    n: int,
    family: ForbiddenFamily,
    variant: Variant = Variant.STANDARD,
    first_mover: Player = Player.PROLONGER,
    *,
    n_cap: int = DEFAULT_N_CAP,
    node_cap: Optional[int] = None,
    time_cap: Optional[float] = None,
    table: Optional[PositionTable] = None,
) -> SolveResult:
    """Exact score of the game on n vertices under optimal play by both sides.

    `table` may be shared between calls, also of different games."""
    return _Search(n, family, variant, first_mover, {} if table is None else table,
                   n_cap=n_cap, node_cap=node_cap, time_cap=time_cap).result()


def best_action(
    state: GameState,
    *,
    table: Optional[PositionTable] = None,
) -> Action:
    """Optimal action for the side to move (used by the 'optimal' strategy)."""
    search = _Search(state.graph.n, state.family, state.variant, state.first_mover,
                     {} if table is None else table,
                     n_cap=DEFAULT_N_CAP, node_cap=None, time_cap=None)
    action = search.best(state.graph, state.to_move)
    if action is None:
        raise RuntimeError("asked to move in a terminal state")
    return action


def best_response(
    n: int,
    family: ForbiddenFamily,
    variant: Variant,
    fixed: Callable[[GameState], Action],
    fixed_side: Player,
    first_mover: Player = Player.PROLONGER,
    *,
    n_cap: int = DEFAULT_N_CAP,
    node_cap: Optional[int] = None,
    time_cap: Optional[float] = None,
) -> SolveResult:
    """Exact optimum for the free side while `fixed_side` plays its script."""
    return _Search(n, family, variant, first_mover, {}, n_cap=n_cap, node_cap=node_cap,
                   time_cap=time_cap, fixed=fixed, fixed_side=fixed_side).result()

