import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satgame.engine import (
    PASS,
    Action,
    GameRecord,
    IllegalMoveError,
    IllegalStrategyActionError,
    Player,
    Variant,
    apply_action,
    initial_state,
    is_terminal,
    play,
)
from satgame.families import (
    PathFamily,
    StarFamily,
    TreeFamily,
    is_free,
    legal_moves,
    parse_family,
)
from satgame.graph import Graph, to_graph6
from satgame.strategies import _STRATEGIES, make_strategy

P4 = PathFamily(4)


class TestApply:
    def test_edge_toggles_mover(self):
        s = initial_state(4, P4)
        s2 = apply_action(s, Action.play(0, 1))
        assert s2.graph.m == 1 and s2.to_move is Player.SHORTENER

    def test_pass_in_standard_rejected(self):
        s = initial_state(4, P4)
        with pytest.raises(IllegalMoveError):
            apply_action(s, PASS)

    def test_pass_by_minimiser_rejected(self):
        s = initial_state(4, P4, Variant.PROLONGER_MAY_PASS, Player.SHORTENER)
        with pytest.raises(IllegalMoveError):
            apply_action(s, PASS)

    def test_pass_keeps_graph(self):
        s = initial_state(4, P4, Variant.PROLONGER_MAY_PASS, Player.PROLONGER)
        s2 = apply_action(s, PASS)
        assert s2.graph is s.graph and s2.to_move is Player.SHORTENER

    def test_illegal_edge_rejected(self):
        s = initial_state(4, P4)
        s = apply_action(s, Action.play(0, 1))
        s = apply_action(s, Action.play(2, 3))
        with pytest.raises(IllegalMoveError):
            apply_action(s, Action.play(1, 2))  # would create the 4-path


class TestTerminal:
    def test_matching_saturated(self):
        s = initial_state(4, P4)
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert is_terminal(s.__class__(g, Player.PROLONGER, P4))

    def test_empty_not_terminal(self):
        assert not is_terminal(initial_state(2, P4))

    def test_two_stars_not_terminal_for_longer_path(self):
        g = Graph.from_edges(8, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7)])
        s = initial_state(8, PathFamily(5)).__class__(g, Player.PROLONGER, PathFamily(5))
        assert not is_terminal(s)


class TestPlay:
    def test_three_vertices_always_complete(self):
        rec = play(3, P4, strategy_p=make_strategy("random:1"), strategy_s=make_strategy("random:2"))
        assert rec.score == 3

    def test_matching_game_forced(self):
        for pname, sname in [("random:5", "random:6"), ("greedy-max", "greedy-min")]:
            rec = play(4, TreeFamily(3), strategy_p=make_strategy(pname),
                       strategy_s=make_strategy(sname))
            assert rec.score == 2

    def test_five_vertex_path_game_score(self):
        rec = play(5, P4, strategy_p=make_strategy("random:1"), strategy_s=make_strategy("random:1"))
        assert rec.score == 4

    def test_terminal_graph_is_saturated_and_free(self):
        rec = play(9, PathFamily(5), strategy_p=make_strategy("greedy-max"),
                   strategy_s=make_strategy("s-p5"))
        assert is_free(rec.terminal, rec.family)
        assert legal_moves(rec.terminal, rec.family) == []

    def test_score_counts_edge_actions_only(self):
        rec = play(8, P4, Variant.PROLONGER_MAY_PASS, Player.PROLONGER,
                   make_strategy("traceable"), make_strategy("random:9"))
        edge_actions = sum(1 for _, a in rec.actions if not a.is_pass)
        assert rec.score == edge_actions == rec.terminal.m
        rec2 = play(8, P4, Variant.STANDARD, Player.SHORTENER,
                    make_strategy("p-p4"), make_strategy("s-p4"))
        assert rec2.score == len(rec2.actions)

    def test_replay_reproduces_terminal(self):
        rec = play(7, P4, strategy_p=make_strategy("p-p4"), strategy_s=make_strategy("s-p4"))
        states = rec.replay()
        assert states[-1].graph.adj == rec.terminal.adj

    def test_illegal_strategy_reported_with_state(self):
        from satgame.strategies import Strategy

        bad = Strategy("bad", lambda s: Action.play(0, 1))
        with pytest.raises(IllegalStrategyActionError) as err:
            play(4, P4, strategy_p=bad, strategy_s=bad)
        assert err.value.state is not None


class TestRecordSerialisation:
    def test_json_roundtrip(self):
        rec = play(6, StarFamily(3), strategy_p=make_strategy("p-star"),
                   strategy_s=make_strategy("random:4"))
        back = GameRecord.from_json(rec.to_json())
        assert back == rec

    def test_pass_actions_serialise(self):
        rec = play(6, P4, Variant.PROLONGER_MAY_PASS, Player.PROLONGER,
                   make_strategy("traceable"), make_strategy("random:2"))
        line = rec.to_json()
        assert '"pass"' in line
        assert GameRecord.from_json(line) == rec

    @pytest.mark.parametrize("field, value", [
        ("score", 99),
        ("score", 3),
        ("terminal_graph6", "E???"),
        ("terminal_graph6", "D??"),
        ("n", 7),
        ("n", 0),
    ])
    def test_tampered_line_rejected(self, field, value):
        rec = play(6, P4, strategy_p=make_strategy("p-p4"), strategy_s=make_strategy("s-p4"))
        assert rec.score == 4
        obj = json.loads(rec.to_json())
        obj[field] = value
        with pytest.raises(ValueError):
            GameRecord.from_json(json.dumps(obj))

    @pytest.mark.parametrize("tamper, message", [
        (lambda obj: {"n": 4}, "'family'"),
        (lambda obj: [], "JSON object"),
        (lambda obj: {**obj, "n": "6"}, "'n'"),
        (lambda obj: {**obj, "actions": 5}, "'actions'"),
        (lambda obj: {**obj, "actions": [{"move": "0-1"}, *obj["actions"][1:]]}, "'player'"),
        (lambda obj: {**obj, "actions": ["0-1", *obj["actions"][1:]]}, "'player'"),
        (lambda obj: {**obj, "family": 7}, "'family'"),
        (lambda obj: {**obj, "terminal_graph6": 5}, "'terminal_graph6'"),
    ], ids=["only-n", "array", "string-n", "integer-actions", "action-without-player",
            "action-not-object", "integer-family", "integer-graph6"])
    def test_malformed_line_raises_value_error(self, tamper, message):
        rec = play(6, P4, strategy_p=make_strategy("p-p4"), strategy_s=make_strategy("s-p4"))
        line = json.dumps(tamper(json.loads(rec.to_json())))
        with pytest.raises(ValueError, match=message):
            GameRecord.from_json(line)

    def test_unfinished_game_rejected(self):
        rec = play(6, P4, strategy_p=make_strategy("p-p4"), strategy_s=make_strategy("s-p4"))
        assert rec.score == 4
        before = rec.replay()[-2]  # the 3-edge position before the last action
        assert before.graph.m == 3 and not is_terminal(before)
        obj = json.loads(rec.to_json())
        obj["actions"] = obj["actions"][:-1]
        obj["terminal_graph6"] = to_graph6(before.graph)
        obj["score"] = 3
        with pytest.raises(ValueError, match="before the game ends"):
            GameRecord.from_json(json.dumps(obj))


def same_states(a, b) -> bool:
    return [(s.graph.adj, s.graph.m, s.to_move) for s in a] == \
        [(s.graph.adj, s.graph.m, s.to_move) for s in b]


def illegal_at(state) -> Action:
    """An action that `apply_action` rejects in `state`: an absent edge that
    completes a forbidden subgraph, else an edge already present, else a
    self-loop."""
    g = state.graph
    legal = set(legal_moves(g, state.family))
    blocked = [e for e in g.absent_edges() if e not in legal]
    if blocked:
        return Action(blocked[0])
    return Action(g.edges()[0] if g.m else (0, 0))


@st.composite
def played_games(draw):
    family = draw(st.sampled_from(("P4", "P5", "P6", "Trees:4", "Star:4", "List:Cl")))
    variants = [Variant.STANDARD]
    if family.startswith("P"):
        variants.append(Variant.PROLONGER_MAY_PASS)
    variant = draw(st.sampled_from(variants))
    first = draw(st.sampled_from(list(Player)))
    # p-trees plays only the tree game
    names = [name for name in _STRATEGIES if name != "p-trees" or family == "Trees:4"]
    names.append(f"random:{draw(st.integers(0, 999))}")
    p = draw(st.sampled_from(names))
    s = draw(st.sampled_from(names))
    n = draw(st.integers(1, 10))
    return play(n, parse_family(family), variant, first, make_strategy(p), make_strategy(s))


class TestKeptStates:
    @given(played_games(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_kept_states_are_a_replay(self, rec, data):
        states = rec.replay()
        read = GameRecord.from_json(rec.to_json())
        assert read == rec and "states" in read.__dict__  # replayed once, on reading
        assert same_states(states, read.replay())
        assert len(states) == len(rec.actions) + 1
        assert states[-1].graph == rec.terminal

        states.clear()  # the caller's list, not the record's
        assert same_states(rec.replay(), read.replay())

        if not rec.actions:
            return
        i = data.draw(st.integers(0, len(rec.actions) - 1))
        player, action = rec.actions[i]
        state = read.replay()[i]
        for tampered in (
            rec.actions[:i] + ((player, illegal_at(state)),) + rec.actions[i + 1:],
            rec.actions[:i] + ((player.other, action),) + rec.actions[i + 1:],
        ):
            bad = GameRecord(rec.n, rec.family, rec.variant, rec.first_mover, tampered,
                             rec.terminal, rec.score)
            with pytest.raises(IllegalMoveError):
                bad.replay()
            with pytest.raises(IllegalMoveError):
                GameRecord.from_json(bad.to_json()).replay()
