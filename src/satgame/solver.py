"""Exact game values by memoised minimax over canonical positions.

Positions are graded by edge count so the game DAG is acyclic (a pass keeps
the graph but hands the move to the side that must add an edge). Values are
the exact remaining score; pruning only uses admissible bounds (a maximising
node stops at the family's saturation maximum, a minimising node at one more
edge), so every table entry is exact. Entries are keyed by the game as well as
the position, so one table may serve many games.
"""

from __future__ import annotations

import os
import struct
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Optional

from .engine import PASS, Action, GameState, Player, Variant
from .families import ForbiddenFamily, Move, family_name, legal_moves, max_saturated_edges
from .graph import Graph


class CapExceeded(RuntimeError):
    """The requested instance is larger than the configured vertex cap."""


class BudgetExceeded(RuntimeError):
    """Node or time budget ran out mid-solve."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind  # "nodes" | "time"


@dataclass
class SolveResult:
    score: int
    principal_variation: list[Action]
    positions_expanded: int
    elapsed: float


# (family name, variant): a table shared between games keeps them apart
Game = tuple[str, Variant]
# position key is the canonical key (or the labelled adjacency when one side
# is scripted); both encode n
PositionTable = dict[tuple[Game, object, Player], int]
DEFAULT_N_CAP = 10


def _order_moves(g: Graph, moves: list[Move], mover: Player) -> list[Move]:
    # Prolonger prefers joining components, Shortener closing them; this only
    # affects how early the admissible cutoffs fire.
    comp = g.components().mask_of
    joins_first = mover is Player.PROLONGER
    return sorted(moves, key=lambda e: ((comp[e[0]] == comp[e[1]]) == joins_first, e))


def _twin_distinct(g: Graph, moves: list[Move]) -> list[Move]:
    """The first of each set of twin-equivalent moves, in the given order.

    Twins (vertices with the same open, or the same closed, neighbourhood)
    may be permuted freely within their class by an automorphism, so two
    edges whose endpoints map to the same pair of least twins give
    isomorphic children.
    """
    first_open: dict[int, int] = {}
    first_closed: dict[int, int] = {}
    least = []
    for v, nbrs in enumerate(g.adj):
        twin = first_open.setdefault(nbrs, v)
        if twin == v:
            twin = first_closed.setdefault(nbrs | 1 << v, v)
        least.append(twin)
    seen = set()
    kept = []
    for u, v in moves:
        pair = 1 << least[u] | 1 << least[v]
        if pair not in seen:
            seen.add(pair)
            kept.append((u, v))
    return kept


class _Search:
    """Memoised minimax of one game on n vertices.

    With `fixed` given, `fixed_side` plays `fixed(state)` and the other
    side's exact optimum is searched; the script sees labelled
    positions, so the memo is keyed by the adjacency instead of the
    canonical form.
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
        if n > n_cap:
            raise CapExceeded(f"n={n} exceeds the solver cap {n_cap}")
        self.n, self.family, self.variant, self.first_mover = n, family, variant, first_mover
        self.game: Game = (family_name(family), variant)
        self.max_edges = max_saturated_edges(family, n)
        self.table = table
        self.node_cap = node_cap
        self.deadline = time.monotonic() + time_cap if time_cap else None
        self.nodes = 0
        self.fixed, self.fixed_side = fixed, fixed_side

    def _may_pass(self, mover: Player) -> bool:
        return self.variant is Variant.PROLONGER_MAY_PASS and mover is Player.PROLONGER

    def _state(self, g: Graph, mover: Player) -> GameState:
        return GameState(g, mover, self.family, self.variant, self.first_mover)

    def _expand(self, g: Graph, moves: list[Move], mover: Player) -> list[Move]:
        # Twin-equivalent children are isomorphic, so every one after the
        # first would be a table hit. A script sees labelled positions, so
        # with one the children are not interchangeable.
        moves = _order_moves(g, moves, mover)
        return moves if self.fixed else _twin_distinct(g, moves)

    def value(self, g: Graph, mover: Player) -> int:
        """Exact remaining score of `g` with `mover` to move."""
        key = (self.game, g.adj if self.fixed else g.canonical_key(), mover)
        hit = self.table.get(key)
        if hit is not None:
            return hit
        self.nodes += 1
        if self.node_cap is not None and self.nodes > self.node_cap:
            raise BudgetExceeded("nodes", f"node cap {self.node_cap} exceeded")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded("time", "time cap exceeded")
        moves = legal_moves(g, self.family)
        if not moves:
            value = 0
        elif mover is self.fixed_side:
            action = self.fixed(self._state(g, mover))
            if action.is_pass:
                if not self._may_pass(mover):
                    raise RuntimeError(f"scripted side passed illegally on {g.edges()}")
                value = self.value(g, mover.other)
            elif action.edge not in moves:
                raise RuntimeError(f"scripted side played illegal edge {action.edge} on {g.edges()}")
            else:
                value = 1 + self.value(g.add_edge(*action.edge), mover.other)
        elif mover is Player.PROLONGER:
            bound = self.max_edges - g.m
            value = -1
            for e in self._expand(g, moves, mover):
                value = max(value, 1 + self.value(g.add_edge(*e), mover.other))
                if value >= bound:
                    break
            if value < bound and self._may_pass(mover):
                value = max(value, self.value(g, mover.other))
        else:
            value = None
            for e in self._expand(g, moves, mover):
                child = 1 + self.value(g.add_edge(*e), mover.other)
                if value is None or child < value:
                    value = child
                if value <= 1:  # no cheaper finish exists: every move costs an edge
                    break
        self.table[key] = value
        return value

    def best(self, g: Graph, mover: Player) -> Optional[Action]:
        """The scripted action, or the lex-least optimal edge with a pass only
        when no edge reaches the value; None in a terminal position."""
        moves = legal_moves(g, self.family)
        if not moves:
            return None
        if mover is self.fixed_side:
            return self.fixed(self._state(g, mover))
        target = self.value(g, mover)
        for e in moves:
            if 1 + self.value(g.add_edge(*e), mover.other) == target:
                return Action(e)
        if self._may_pass(mover) and self.value(g, mover.other) == target:
            return PASS
        raise AssertionError("no action reproduces the solved value")

    def principal_variation(self) -> list[Action]:
        """The line of `best` actions from the empty graph to a terminal one."""
        pv: list[Action] = []
        g, mover = Graph.empty(self.n), self.first_mover
        while (action := self.best(g, mover)) is not None:
            pv.append(action)
            if not action.is_pass:
                g = g.add_edge(*action.edge)
            mover = mover.other
        return pv


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
    cache_path: Optional[str] = None,
) -> SolveResult:
    """Exact score of the game on n vertices under optimal play by both sides.

    `table` may be shared between calls, also of different games."""
    started = time.monotonic()
    if table is None:
        table = {}
    search = _Search(n, family, variant, first_mover, table,
                     n_cap=n_cap, node_cap=node_cap, time_cap=time_cap)
    if cache_path:
        table.update(load_table(cache_path, family, variant, n))
    score = search.value(Graph.empty(n), first_mover)
    pv = search.principal_variation()
    if cache_path:
        save_table(cache_path, family, variant, n, table)
    return SolveResult(score, pv, search.nodes, time.monotonic() - started)


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
) -> SolveResult:
    """Exact optimum for the free side while `fixed_side` plays its script."""
    started = time.monotonic()
    search = _Search(n, family, variant, first_mover, {}, n_cap=n_cap, node_cap=None,
                     time_cap=None, fixed=fixed, fixed_side=fixed_side)
    score = search.value(Graph.empty(n), first_mover)
    pv = search.principal_variation()
    return SolveResult(score, pv, search.nodes, time.monotonic() - started)


# --- optional on-disk cache ---------------------------------------------------

_MAGIC = b"SGC1"
_VARIANT_CODE = {Variant.STANDARD: 0, Variant.PROLONGER_MAY_PASS: 1}
_MOVER_BYTE = {Player.PROLONGER: b"\x00", Player.SHORTENER: b"\x01"}
_MOVER = {byte: mover for mover, byte in _MOVER_BYTE.items()}


def save_table(
    path: str, family: ForbiddenFamily, variant: Variant, n: int, table: PositionTable
) -> None:
    """Write the entries of one game on n vertices; a failed write leaves any
    earlier file at `path` as it was."""
    game = (family_name(family), variant)
    entries = sorted(
        ((key, mover, value) for (g, key, mover), value in table.items()
         if g == game and key[0] == n),
        key=lambda e: (e[0], e[1].value),
    )
    name = game[0].encode()
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack(">BBH", _VARIANT_CODE[variant], n, len(name)))
            fh.write(name)
            for key, mover, value in entries:
                fh.write(struct.pack(">H", len(key)))
                fh.write(key)
                fh.write(_MOVER_BYTE[mover])
                fh.write(struct.pack(">i", value))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_table(
    path: str, family: ForbiddenFamily, variant: Variant, n: int
) -> PositionTable:
    """Load a cache written by save_table, keyed as the solver keys it; a
    missing file is an empty table, and a file for different game parameters
    is ignored. A file that save_table cannot have written for this game
    raises ValueError."""
    if not os.path.exists(path):
        return {}
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _MAGIC:
        raise ValueError(f"{path} is not a solver cache file")
    off = 4

    def take(size: int) -> bytes:
        nonlocal off
        if off + size > len(data):
            raise ValueError(f"{path} is a truncated solver cache file")
        off += size
        return data[off - size : off]

    var_code, file_n, name_len = struct.unpack(">BBH", take(4))
    name = take(name_len).decode()
    game = (family_name(family), variant)
    if var_code != _VARIANT_CODE[variant] or file_n != n or name != game[0]:
        return {}
    table: PositionTable = {}
    while off < len(data):
        (key_len,) = struct.unpack(">H", take(2))
        key = take(key_len)
        if key[:1] != bytes([n]):
            raise ValueError(f"{path} holds a position key for another n")
        mover = _MOVER.get(take(1))
        if mover is None:
            raise ValueError(f"{path} holds an invalid mover byte")
        (value,) = struct.unpack(">i", take(4))
        if value < 0:
            raise ValueError(f"{path} holds a negative value")
        table[(game, key, mover)] = value
    return table
