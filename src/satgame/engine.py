"""The alternating edge-adding game, including the variant where the
maximising player may pass.

Two players take turns adding edges to an initially empty graph while it
stays free of the forbidden family; the game ends when the graph is
saturated. Prolonger maximises the final edge count, Shortener minimises it.
The score is the terminal edge count, so the standard game and the
pass-allowed variant are directly comparable (in the standard game it equals
the number of moves).
"""

from __future__ import annotations

import json
from enum import Enum
from typing import Optional, Protocol

from .families import (
    ForbiddenFamily,
    Move,
    creates_forbidden,
    family_name,
    is_saturated,
    parse_family,
)
from .graph import Frozen, Graph, from_graph6, norm_edge, to_graph6


class Player(Enum):
    PROLONGER = "P"
    SHORTENER = "S"

    @property
    def other(self) -> "Player":
        return Player.SHORTENER if self is Player.PROLONGER else Player.PROLONGER


class Variant(Enum):
    STANDARD = "standard"
    PROLONGER_MAY_PASS = "pass"


class Action(Frozen):
    edge: Optional[Move]  # None means pass

    def __init__(self, edge: Optional[Move]) -> None:
        self.__dict__["edge"] = edge

    @property
    def is_pass(self) -> bool:
        return self.edge is None

    @staticmethod
    def play(u: int, v: int) -> "Action":
        return Action(norm_edge(u, v))

    def __str__(self) -> str:
        return "pass" if self.edge is None else f"{self.edge[0]}-{self.edge[1]}"

    @staticmethod
    def parse(text: str) -> "Action":
        if text == "pass":
            return PASS
        u, _, v = text.partition("-")
        return Action.play(int(u), int(v))


PASS = Action(None)


class GameState(Frozen):
    graph: Graph
    to_move: Player
    family: ForbiddenFamily
    variant: Variant
    first_mover: Player

    def __init__(self, graph: Graph, to_move: Player, family: ForbiddenFamily,
                 variant: Variant = Variant.STANDARD,
                 first_mover: Player = Player.PROLONGER) -> None:
        self.__dict__.update(graph=graph, to_move=to_move, family=family, variant=variant,
                             first_mover=first_mover)


def initial_state(
    n: int,
    family: ForbiddenFamily,
    variant: Variant = Variant.STANDARD,
    first_mover: Player = Player.PROLONGER,
) -> GameState:
    return GameState(Graph.empty(n), first_mover, family, variant, first_mover)


class IllegalMoveError(Exception):
    pass


class IllegalStrategyActionError(IllegalMoveError):
    """A strategy returned an illegal action; carries the offending state."""

    def __init__(self, message: str, state: GameState, action: Action):
        super().__init__(message)
        self.state = state
        self.action = action


def is_terminal(state: GameState) -> bool:
    """Saturated: every absent edge would create a forbidden subgraph."""
    return is_saturated(state.graph, state.family)


def apply_action(state: GameState, action: Action) -> GameState:
    graph = state.graph
    if action.is_pass:
        if state.variant is not Variant.PROLONGER_MAY_PASS:
            raise IllegalMoveError("pass is only allowed in the pass variant")
        if state.to_move is not Player.PROLONGER:
            raise IllegalMoveError("only the maximising player may pass")
    else:
        u, v = action.edge
        try:
            if creates_forbidden(graph, state.family, norm_edge(u, v)):
                raise IllegalMoveError(f"edge {u}-{v} would create a forbidden subgraph")
            graph = graph.add_edge(u, v)
        except ValueError as exc:  # self-loop, duplicate edge, vertex out of range
            raise IllegalMoveError(str(exc)) from exc
    return GameState(graph, state.to_move.other, state.family, state.variant, state.first_mover)


class StrategyLike(Protocol):
    name: str

    def __call__(self, state: GameState) -> Action: ...


class GameRecord(Frozen):
    n: int
    family: ForbiddenFamily
    variant: Variant
    first_mover: Player
    actions: tuple[tuple[Player, Action], ...]
    terminal: Graph
    score: int

    def __init__(self, n: int, family: ForbiddenFamily, variant: Variant, first_mover: Player,
                 actions: tuple[tuple[Player, Action], ...], terminal: Graph,
                 score: int) -> None:
        self.__dict__.update(n=n, family=family, variant=variant, first_mover=first_mover,
                             actions=actions, terminal=terminal, score=score)

    def replay(self) -> list[GameState]:
        """All states G_0..G_T; raises if any recorded action is illegal.

        A record returned by `play` keeps the states it walked, each checked
        by `apply_action`, outside its fields; this is a new list of them.
        `from_json` keeps them the same way; a record built by its
        constructor is replayed from its actions.
        """
        kept = self.__dict__.get("states")
        if kept is not None:
            return list(kept)
        state = initial_state(self.n, self.family, self.variant, self.first_mover)
        states = [state]
        for player, action in self.actions:
            if player is not state.to_move:
                raise IllegalMoveError("recorded action out of turn")
            state = apply_action(state, action)
            states.append(state)
        return states

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "family": family_name(self.family),
                "variant": self.variant.value,
                "first": self.first_mover.value,
                "actions": [
                    {"player": p.value, "move": str(a)} for p, a in self.actions
                ],
                "score": self.score,
                "terminal_graph6": to_graph6(self.terminal),
            },
            separators=(",", ":"),
        )

    @staticmethod
    def from_json(line: str) -> "GameRecord":
        """The record on `line`, whose actions are replayed once and kept
        as its states. Raises IllegalMoveError, which is not a ValueError, if
        an action is illegal or out of turn; ValueError if the line is
        malformed, or if the actions do not end the game, or end it at
        another graph or score than the line records."""
        obj = json.loads(line)
        if type(obj) is not dict:
            raise ValueError(f"a record is a JSON object, not {type(obj).__name__}")
        for name, kind in (("n", int), ("family", str), ("variant", str), ("first", str),
                           ("actions", list), ("score", int), ("terminal_graph6", str)):
            if type(obj.get(name)) is not kind:
                raise ValueError(f"record field {name!r} is missing or not {kind.__name__}")
        for a in obj["actions"]:
            if type(a) is not dict or type(a.get("player")) is not str \
                    or type(a.get("move")) is not str:
                raise ValueError(f"action {a!r} lacks a string 'player' or 'move'")
        record = GameRecord(
            n=obj["n"],
            family=parse_family(obj["family"]),
            variant=Variant(obj["variant"]),
            first_mover=Player(obj["first"]),
            actions=tuple(
                (Player(a["player"]), Action.parse(a["move"])) for a in obj["actions"]
            ),
            terminal=from_graph6(obj["terminal_graph6"]),
            score=obj["score"],
        )
        states = record.replay()
        if not is_terminal(states[-1]):
            raise ValueError(f"actions stop after {len(record.actions)} moves, before the game ends")
        end = states[-1].graph
        if end != record.terminal or end.m != record.score:
            raise ValueError(
                f"actions end at {to_graph6(end)} with {end.m} edges, but the line "
                f"records {obj['terminal_graph6']} with score {record.score}"
            )
        record.__dict__["states"] = tuple(states)
        return record


def play(
    n: int,
    family: ForbiddenFamily,
    variant: Variant = Variant.STANDARD,
    first_mover: Player = Player.PROLONGER,
    strategy_p: Optional[StrategyLike] = None,
    strategy_s: Optional[StrategyLike] = None,
) -> GameRecord:
    """Run one full game and return its record.

    Each strategy must return a legal action for every non-terminal state it
    is handed; an illegal action aborts with the offending state attached.
    The record keeps the states the game walked, for `GameRecord.replay`.
    """
    if strategy_p is None or strategy_s is None:
        raise ValueError("both strategies are required")
    state = initial_state(n, family, variant, first_mover)
    states = [state]
    actions: list[tuple[Player, Action]] = []
    while not is_terminal(state):
        strat = strategy_p if state.to_move is Player.PROLONGER else strategy_s
        action = strat(state)
        try:
            nxt = apply_action(state, action)
        except IllegalMoveError as exc:
            raise IllegalStrategyActionError(
                f"strategy {strat.name!r} returned illegal action {action} "
                f"on graph {to_graph6(state.graph)} ({state.to_move.value} to move): {exc}",
                state,
                action,
            ) from exc
        actions.append((state.to_move, action))
        state = nxt
        states.append(state)
    record = GameRecord(
        n=n,
        family=family,
        variant=variant,
        first_mover=first_mover,
        actions=tuple(actions),
        terminal=state.graph,
        score=state.graph.m,
    )
    record.__dict__["states"] = tuple(states)
    return record
