"""Exact game values by memoised minimax over canonical positions.

Positions are graded by edge count so the game DAG is acyclic (a pass keeps
the graph but hands the move to the side that must add an edge). Values are
the exact remaining score; pruning only uses admissible bounds (a maximising
node stops at the family's saturation maximum, a minimising node at one more
edge), so every table entry is exact and parallel runs agree with serial
ones.
"""

from __future__ import annotations

import os
import struct
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

from .engine import (
    PASS,
    Action,
    GameState,
    Player,
    Variant,
    initial_state,
    is_terminal,
)
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


PositionTable = dict[tuple[bytes, Player], int]
DEFAULT_N_CAP = 10


class _Budget:
    def __init__(self, node_cap: Optional[int], time_cap: Optional[float]):
        self.node_cap = node_cap
        self.deadline = time.monotonic() + time_cap if time_cap else None
        self.nodes = 0

    def tick(self) -> None:
        self.nodes += 1
        if self.node_cap is not None and self.nodes > self.node_cap:
            raise BudgetExceeded("nodes", f"node cap {self.node_cap} exceeded")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded("time", "time cap exceeded")


def _order_moves(g: Graph, moves: list[Move], mover: Player) -> list[Move]:
    # Prolonger prefers joining components, Shortener closing them; this only
    # affects how early the admissible cutoffs fire.
    labels = g.components().labels
    joins_first = mover is Player.PROLONGER
    return sorted(moves, key=lambda e: ((labels[e[0]] == labels[e[1]]) == joins_first, e))


def _remaining(
    g: Graph,
    mover: Player,
    family: ForbiddenFamily,
    variant: Variant,
    max_edges: int,
    table: PositionTable,
    budget: _Budget,
) -> int:
    key = (g.canonical_key(), mover)
    hit = table.get(key)
    if hit is not None:
        return hit
    budget.tick()
    moves = legal_moves(g, family)
    if not moves:
        value = 0
    elif mover is Player.PROLONGER:
        bound = max_edges - g.m
        value = -1
        for e in _order_moves(g, moves, mover):
            child = 1 + _remaining(
                g.add_edge(*e), mover.other, family, variant, max_edges, table, budget
            )
            if child > value:
                value = child
            if value >= bound:
                break
        if value < bound and variant is Variant.PROLONGER_MAY_PASS:
            value = max(
                value,
                _remaining(g, mover.other, family, variant, max_edges, table, budget),
            )
    else:
        value = None
        for e in _order_moves(g, moves, mover):
            child = 1 + _remaining(
                g.add_edge(*e), mover.other, family, variant, max_edges, table, budget
            )
            if value is None or child < value:
                value = child
            if value <= 1:  # no cheaper finish exists: every move costs an edge
                break
    table[key] = value
    return value


def _pv_from_table(
    state: GameState,
    table: PositionTable,
    max_edges: int,
    budget: _Budget,
) -> list[Action]:
    """Deterministic optimal line: lex-least optimal edge, with a pass only
    when no edge achieves the value."""
    pv: list[Action] = []
    while True:
        g, mover = state.graph, state.to_move
        moves = legal_moves(g, state.family)
        if not moves:
            return pv
        target = _remaining(g, mover, state.family, state.variant, max_edges, table, budget)
        chosen: Optional[Action] = None
        for e in moves:
            child = 1 + _remaining(
                g.add_edge(*e), mover.other, state.family, state.variant,
                max_edges, table, budget,
            )
            if child == target:
                chosen = Action(e)
                break
        if chosen is None:
            if (
                state.variant is Variant.PROLONGER_MAY_PASS
                and mover is Player.PROLONGER
                and _remaining(g, mover.other, state.family, state.variant,
                               max_edges, table, budget) == target
            ):
                chosen = PASS
            else:
                raise AssertionError("no action reproduces the solved value")
        pv.append(chosen)
        state = GameState(
            g if chosen.is_pass else g.add_edge(*chosen.edge),
            mover.other, state.family, state.variant, state.first_mover,
        )


def solve(
    n: int,
    family: ForbiddenFamily,
    variant: Variant = Variant.STANDARD,
    first_mover: Player = Player.PROLONGER,
    *,
    n_cap: int = DEFAULT_N_CAP,
    node_cap: Optional[int] = None,
    time_cap: Optional[float] = None,
    workers: int = 1,
    table: Optional[PositionTable] = None,
    cache_path: Optional[str] = None,
) -> SolveResult:
    """Exact score of the game on n vertices under optimal play by both sides."""
    if n > n_cap:
        raise CapExceeded(f"n={n} exceeds the solver cap {n_cap}")
    started = time.monotonic()
    if table is None:
        table = {}
    if cache_path:
        table.update(load_table(cache_path, family, variant, n))
    budget = _Budget(node_cap, time_cap)
    max_edges = max_saturated_edges(family, n)
    root = Graph.empty(n)

    if workers > 1:
        moves = legal_moves(root, family)

        def eval_child(e: Move) -> int:
            return 1 + _remaining(
                root.add_edge(*e), first_mover.other, family, variant,
                max_edges, table, budget,
            )

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(eval_child, moves))
    score = _remaining(root, first_mover, family, variant, max_edges, table, budget)
    pv = _pv_from_table(
        initial_state(n, family, variant, first_mover), table, max_edges, budget
    )
    if cache_path:
        save_table(cache_path, family, variant, n, table)
    return SolveResult(score, pv, budget.nodes, time.monotonic() - started)


def best_action(
    state: GameState,
    *,
    table: Optional[PositionTable] = None,
    n_cap: int = DEFAULT_N_CAP,
    node_cap: Optional[int] = None,
    time_cap: Optional[float] = None,
) -> Action:
    """Optimal action for the side to move (used by the 'optimal' strategy)."""
    if state.graph.n > n_cap:
        raise CapExceeded(f"n={state.graph.n} exceeds the solver cap {n_cap}")
    if table is None:
        table = {}
    budget = _Budget(node_cap, time_cap)
    max_edges = max_saturated_edges(state.family, state.graph.n)
    g, mover = state.graph, state.to_move
    moves = legal_moves(g, state.family)
    if not moves:
        raise RuntimeError("asked to move in a terminal state")
    target = _remaining(g, mover, state.family, state.variant, max_edges, table, budget)
    for e in moves:
        child = 1 + _remaining(
            g.add_edge(*e), mover.other, state.family, state.variant,
            max_edges, table, budget,
        )
        if child == target:
            return Action(e)
    return PASS  # only reachable for the maximiser in the pass variant


# --- one side scripted --------------------------------------------------------


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
    """Exact optimum for the free side while `fixed_side` plays its script.

    The scripted side's choice is a function of the labelled position, so the
    memo is keyed by the full adjacency rather than the canonical form.
    """
    if n > n_cap:
        raise CapExceeded(f"n={n} exceeds the solver cap {n_cap}")
    started = time.monotonic()
    budget = _Budget(node_cap, time_cap)
    max_edges = max_saturated_edges(family, n)
    free_side = fixed_side.other
    table: dict[tuple[tuple[int, ...], Player], int] = {}

    def rem(g: Graph, mover: Player) -> int:
        key = (g.adj, mover)
        hit = table.get(key)
        if hit is not None:
            return hit
        budget.tick()
        moves = legal_moves(g, family)
        if not moves:
            value = 0
        elif mover is fixed_side:
            action = fixed(GameState(g, mover, family, variant, first_mover))
            if action.is_pass:
                if variant is not Variant.PROLONGER_MAY_PASS or mover is not Player.PROLONGER:
                    raise RuntimeError(f"scripted side passed illegally on {g.edges()}")
                value = rem(g, mover.other)
            else:
                e = action.edge
                if e not in moves:
                    raise RuntimeError(f"scripted side played illegal edge {e} on {g.edges()}")
                value = 1 + rem(g.add_edge(*e), mover.other)
        elif mover is Player.PROLONGER:
            bound = max_edges - g.m
            value = -1
            for e in _order_moves(g, moves, mover):
                value = max(value, 1 + rem(g.add_edge(*e), mover.other))
                if value >= bound:
                    break
            if value < bound and variant is Variant.PROLONGER_MAY_PASS:
                value = max(value, rem(g, mover.other))
        else:
            value = None
            for e in _order_moves(g, moves, mover):
                child = 1 + rem(g.add_edge(*e), mover.other)
                if value is None or child < value:
                    value = child
                if value <= 1:
                    break
        table[key] = value
        return value

    root = Graph.empty(n)
    score = rem(root, first_mover)

    # principal variation: scripted action on the fixed side, lex-least
    # optimal edge (pass only if forced) on the free side
    pv: list[Action] = []
    state = initial_state(n, family, variant, first_mover)
    while not is_terminal(state):
        g, mover = state.graph, state.to_move
        if mover is fixed_side:
            act = fixed(state)
        else:
            target = rem(g, mover)
            act = None
            for e in legal_moves(g, family):
                if 1 + rem(g.add_edge(*e), mover.other) == target:
                    act = Action(e)
                    break
            if act is None:
                act = PASS
        pv.append(act)
        state = GameState(
            g if act.is_pass else g.add_edge(*act.edge),
            mover.other, family, variant, first_mover,
        )
    return SolveResult(score, pv, budget.nodes, time.monotonic() - started)


# --- optional on-disk cache ---------------------------------------------------

_MAGIC = b"SGC1"
_VARIANT_CODE = {Variant.STANDARD: 0, Variant.PROLONGER_MAY_PASS: 1}


def save_table(
    path: str, family: ForbiddenFamily, variant: Variant, n: int, table: PositionTable
) -> None:
    name = family_name(family).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack(">B", _VARIANT_CODE[variant]))
        fh.write(struct.pack(">B", n))
        fh.write(struct.pack(">H", len(name)))
        fh.write(name)
        for (key, mover), value in sorted(table.items(), key=lambda kv: (kv[0][0], kv[0][1].value)):
            fh.write(struct.pack(">H", len(key)))
            fh.write(key)
            fh.write(b"\x00" if mover is Player.PROLONGER else b"\x01")
            fh.write(struct.pack(">i", value))


def load_table(
    path: str, family: ForbiddenFamily, variant: Variant, n: int
) -> PositionTable:
    """Load a cache written by save_table; a missing file is an empty table,
    and a file for different game parameters is ignored."""
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
    if var_code != _VARIANT_CODE[variant] or file_n != n or name != family_name(family):
        return {}
    table: PositionTable = {}
    while off < len(data):
        (key_len,) = struct.unpack(">H", take(2))
        key = take(key_len)
        mover = Player.PROLONGER if take(1) == b"\x00" else Player.SHORTENER
        (value,) = struct.unpack(">i", take(4))
        table[(key, mover)] = value
    return table
