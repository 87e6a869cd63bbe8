import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satgame import strategies
from satgame.engine import (
    GameState,
    PASS,
    Action,
    Player,
    Variant,
    initial_state,
    play,
)
from satgame.families import PathFamily, StarFamily, TreeFamily, legal_moves, parse_family
from satgame.graph import Graph
from satgame.strategies import make_strategy


def state(g: Graph, family, variant=Variant.STANDARD, mover=Player.PROLONGER) -> GameState:
    return GameState(g, mover, family, variant, Player.PROLONGER)


P4, P5 = PathFamily(4), PathFamily(5)


class TestTraceable:
    strat = make_strategy("traceable")

    def test_closes_path_component(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2)])
        act = self.strat(state(g, P5, Variant.PROLONGER_MAY_PASS))
        assert act == Action.play(0, 2)

    def test_passes_when_all_complete(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
        act = self.strat(state(g, P4, Variant.PROLONGER_MAY_PASS))
        assert act is PASS

    def test_passes_on_empty_graph(self):
        act = self.strat(initial_state(5, P4, Variant.PROLONGER_MAY_PASS))
        assert act is PASS

    def test_standard_variant_falls_back_to_edge(self):
        act = self.strat(initial_state(5, P4, Variant.STANDARD))
        assert act == Action.play(0, 1)


class TestShortenerP4:
    strat = make_strategy("s-p4")

    def test_grows_cherry_to_three_leaf_star(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2)])  # cherry centred at 1, two spare
        act = self.strat(state(g, P4, mover=Player.SHORTENER))
        assert act == Action.play(1, 3)

    def test_draws_isolated_edge(self):
        g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3)])  # star, two isolated
        act = self.strat(state(g, P4, mover=Player.SHORTENER))
        assert act == Action.play(4, 5)

    def test_closes_cherry_without_isolated_vertices(self):
        g = Graph.from_edges(7, [(0, 1), (1, 2), (3, 4), (3, 5), (3, 6)])
        act = self.strat(state(g, P4, mover=Player.SHORTENER))
        assert act == Action.play(0, 2)


class TestProlongerP4:
    strat = make_strategy("p-p4")

    def test_closes_cherry_into_triangle(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        assert self.strat(state(g, P4)) == Action.play(0, 2)

    def test_forms_cherry_from_edge_and_vertex(self):
        g = Graph.from_edges(4, [(0, 1)])
        assert self.strat(state(g, P4)) == Action.play(0, 2)

    def test_first_move_is_isolated_edge(self):
        assert self.strat(initial_state(6, P4)) == Action.play(0, 1)

    def test_grows_star_when_nothing_to_close(self):
        g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3)])
        assert self.strat(state(g, P4)) == Action.play(0, 4)


class TestShortenerP5:
    strat = make_strategy("s-p5")

    def test_extends_four_path_at_inner_vertex(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)])
        act = self.strat(state(g, P5, mover=Player.SHORTENER))
        assert act == Action.play(1, 4)

    def test_extends_isolated_edge_before_drawing_one(self):
        g = Graph.from_edges(4, [(0, 1)])
        act = self.strat(state(g, P5, mover=Player.SHORTENER))
        assert act == Action.play(0, 2)

    def test_attaches_to_big_component_at_legal_spot(self):
        # pendant triangle with two pendants at vertex 0; only 0 accepts another
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (0, 3), (0, 4)])
        act = self.strat(state(g, P5, mover=Player.SHORTENER))
        assert act == Action.play(0, 5)

    def test_joins_isolated_edges_when_no_spare_vertices(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        act = self.strat(state(g, P5, mover=Player.SHORTENER))
        assert act == Action.play(0, 2)


class TestProlongerP5:
    strat = make_strategy("p-p5")

    def test_closes_three_leaf_star(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert self.strat(state(g, P5)) == Action.play(1, 2)

    def test_joins_two_isolated_edges(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert self.strat(state(g, P5)) == Action.play(0, 2)

    def test_completes_triangle_in_four_path(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert self.strat(state(g, P5)) == Action.play(0, 2)

    def test_closes_double_star_pendant_to_far_centre(self):
        # centres 1-2; pendant 0 at 1; pendants 3,4 at 2
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
        assert self.strat(state(g, P5)) == Action.play(0, 2)

    def test_fallback_never_grows_a_star(self):
        # with triangles forbidden no rule applies to the cherry 1-0-2, and
        # the least legal edge 0-3 would grow it into a 3-leaf star
        g = Graph.from_edges(4, [(0, 1), (0, 2)])
        assert self.strat(state(g, parse_family("List:Bw"))) == Action.play(1, 3)


class TestProlongerTrees:
    strat = make_strategy("p-trees")

    def test_joins_largest_pair_under_budget(self):
        # components {0,1,2}, {3,4}, {5,6}, {7}, {8}; budget 5
        g = Graph.from_edges(9, [(0, 1), (1, 2), (3, 4), (5, 6)])
        act = self.strat(state(g, TreeFamily(6)))
        assert act == Action.play(0, 3)

    def test_joins_singletons_when_big_components_full(self):
        g = Graph.from_edges(8, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        act = self.strat(state(g, TreeFamily(4)))
        assert act == Action.play(6, 7)

    def test_intra_component_fallback(self):
        # two paths of 3; any join reaches 6 > budget 3; falls back inside
        g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        act = self.strat(state(g, TreeFamily(4)))
        assert act == Action.play(0, 2)


class TestStarLex:
    strat = make_strategy("p-star")

    def test_prefers_low_degree_pair(self):
        g = Graph.from_edges(4, [(2, 3)])
        assert self.strat(state(g, StarFamily(3))) == Action.play(0, 1)

    def test_empty_graph_least_edge(self):
        assert self.strat(initial_state(6, StarFamily(3))) == Action.play(0, 1)

    def test_min_degree_clique_reaches_up(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
        assert self.strat(state(g, StarFamily(4))) == Action.play(0, 3)


class TestBaselines:
    def test_random_is_reproducible(self):
        s = initial_state(8, P4)
        a = make_strategy("random:7")(s)
        b = make_strategy("random:7")(s)
        assert a == b
        rec1 = play(10, P4, strategy_p=make_strategy("random:3"), strategy_s=make_strategy("random:4"))
        rec2 = play(10, P4, strategy_p=make_strategy("random:3"), strategy_s=make_strategy("random:4"))
        assert rec1 == rec2

    def test_greedy_min_on_empty(self):
        assert make_strategy("greedy-min")(initial_state(4, P4)) == Action.play(0, 1)

    def test_greedy_max_joins_components(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        act = make_strategy("greedy-max")(state(g, P5))
        assert act == Action.play(0, 2)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_strategy("does-not-exist")

    @pytest.mark.parametrize("name", ["p-p4:7", "s-p4:oops", "optimal:x", "traceable:",
                                      "greedy-max:1"])
    def test_only_random_takes_an_argument(self, name):
        with pytest.raises(ValueError, match="only random takes an argument"):
            make_strategy(name)

    @pytest.mark.parametrize("seed", ["oops", "1.5", "7:8"])
    def test_random_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError) as err:
            make_strategy(f"random:{seed}")
        assert str(err.value) == f"strategy 'random:{seed}': seed {seed!r} is not an integer"

    def test_random_seed_defaults(self):
        assert make_strategy("random", default_seed=4).name == "random:4"
        assert make_strategy("random:", default_seed=4).name == "random:4"
        assert make_strategy("random:12", default_seed=4).name == "random:12"


class TestOptimalStrategy:
    def test_optimal_pair_matches_solver(self):
        from satgame.solver import solve

        rec = play(5, P4, strategy_p=make_strategy("optimal"), strategy_s=make_strategy("optimal"))
        assert rec.score == solve(5, P4).score

    def test_reused_optimal_strategy_p5_after_p4(self):
        opt = make_strategy("optimal")
        play(6, P4, strategy_p=opt, strategy_s=opt)
        assert play(6, P5, strategy_p=opt, strategy_s=opt).score == 7

    def test_reused_optimal_strategy_p4_after_star(self):
        opt = make_strategy("optimal")
        play(4, StarFamily(3), strategy_p=opt, strategy_s=opt)
        assert play(4, P4, strategy_p=opt, strategy_s=opt).score == 2  # no illegal pass


class TestLegalityFuzz:
    NAMES = ("traceable", "s-p4", "p-p4", "s-p5", "p-p5", "p-trees", "p-star",
             "greedy-min", "greedy-max")

    def test_every_strategy_stays_legal(self):
        rng = random.Random(99)
        families = {
            "traceable": lambda: PathFamily(rng.choice((4, 5))),
            "s-p4": lambda: PathFamily(4),
            "p-p4": lambda: PathFamily(4),
            "s-p5": lambda: PathFamily(5),
            "p-p5": lambda: PathFamily(5),
            "p-trees": lambda: TreeFamily(rng.choice((3, 4, 5))),
            "p-star": lambda: StarFamily(rng.choice((3, 4))),
            "greedy-min": lambda: PathFamily(5),
            "greedy-max": lambda: TreeFamily(4),
        }
        for name in self.NAMES:
            for _ in range(12):
                n = rng.randint(4, 16)
                fam = families[name]()
                variant = (
                    Variant.PROLONGER_MAY_PASS if name == "traceable" else Variant.STANDARD
                )
                opp = make_strategy(f"random:{rng.randint(0, 999)}")
                strat = make_strategy(name)
                if name.startswith("s-"):
                    rec = play(n, fam, variant, Player.PROLONGER, opp, strat)
                else:
                    rec = play(n, fam, variant, Player.SHORTENER, strat, opp)
                # play() itself validates legality; double-check the terminal state
                assert legal_moves(rec.terminal, fam) == []


class TestGoldenRecords:
    """Pins every move of the published strategies: game records against one
    another and against the baselines, in both variants. The hash was taken
    before the P4/P5 strategies became rule tables."""

    PUBLISHED = ("traceable", "s-p4", "p-p4", "s-p5", "p-p5", "p-trees", "p-star")
    BASELINES = ("random:1", "greedy-min", "greedy-max")
    FAMILIES = ("P4", "P5", "P6", "Star:3", "Trees:4")
    GOLDEN = "839514f54ed8f67ed47504c77a02ed31e2c673986efb2582bc17986e1e4ae99b"

    def test_records_unchanged(self):
        names = self.PUBLISHED + self.BASELINES
        digest = hashlib.sha256()
        count = 0
        for fname in self.FAMILIES:
            family = parse_family(fname)
            for n in range(4, 9):
                for variant in Variant:
                    for p in names:
                        for s in names:
                            if p not in self.PUBLISHED and s not in self.PUBLISHED:
                                continue
                            try:
                                line = play(n, family, variant, Player.PROLONGER,
                                            make_strategy(p), make_strategy(s)).to_json()
                            except Exception as exc:  # a failure is part of the record
                                line = f"{type(exc).__name__}:{exc}"
                            digest.update((line + "\n").encode())
                            count += 1
        assert count == 4550
        assert digest.hexdigest() == self.GOLDEN

    BASELINE_NAMES = ("greedy-min", "greedy-max", "random:1", "random:7", "p-star")
    BASELINE_FAMILIES = ("Star:3", "Star:4", "P5", "Trees:4", "List:Cl")
    BASELINE_GOLDEN = "92737395d4b269280cb1d6718b590e2a407608774e4f5d69346506d51b3f6564"

    def test_baseline_records_unchanged(self):
        """Every record of the baselines and p-star against one another, an
        explicit family included, for both variants and first movers."""
        digest = hashlib.sha256()
        count = 0
        for fname in self.BASELINE_FAMILIES:
            family = parse_family(fname)
            for n in range(4, 11):
                for variant in Variant:
                    for first in Player:
                        for p in self.BASELINE_NAMES:
                            for s in self.BASELINE_NAMES:
                                line = play(n, family, variant, first,
                                            make_strategy(p), make_strategy(s)).to_json()
                                digest.update((line + "\n").encode())
                                count += 1
        assert count == 3500
        assert digest.hexdigest() == self.BASELINE_GOLDEN


# --- the moves chosen from the legality table against list-based choices -----


def reference_greedy(state: GameState, want_max: bool) -> Action:
    moves = legal_moves(state.graph, state.family)
    cv = state.graph.components()
    cur = max(mask.bit_count() for mask in cv.masks)

    def result_size(e):
        mu, mv = cv.mask_of[e[0]], cv.mask_of[e[1]]
        return cur if mu == mv else max(cur, mu.bit_count() + mv.bit_count())

    sign = -1 if want_max else 1
    return Action(min(moves, key=lambda e: (sign * result_size(e), e)))


def reference_star_lex(state: GameState) -> Action:
    deg = state.graph.degrees()

    def key(e):
        du, dv = sorted((deg[e[0]], deg[e[1]]))
        return (du, dv, e[0], e[1])

    return Action(min(legal_moves(state.graph, state.family), key=key))


def reference_random(seed: int, state: GameState) -> Action:
    g = state.graph
    edges = ",".join(f"{u}-{v}" for u, v in g.edges())
    rng = random.Random(f"{seed}|{g.n}|{state.to_move.value}|{edges}")
    return Action(rng.choice(legal_moves(g, state.family)))


def reference_least_legal(state: GameState, exclude) -> Action:
    moves = legal_moves(state.graph, state.family)
    return Action(next((e for e in moves if e not in set(exclude)), moves[0]))


DIFFERENTIAL_FAMILIES = ("P4", "P5", "P6", "Trees:4", "Star:3", "Star:4", "List:Cl")


@st.composite
def positions(draw):
    """A non-terminal position reached by random legal moves, with either
    mover to play in either variant."""
    family = parse_family(draw(st.sampled_from(DIFFERENTIAL_FAMILIES), label="family"))
    g = Graph.empty(draw(st.integers(2, 12), label="n"))
    rng = random.Random(draw(st.integers(0, 2**32), label="game seed"))
    for _ in range(draw(st.integers(0, 40), label="moves")):
        moves = legal_moves(g, family)
        child = g.add_edge(*rng.choice(moves))
        if not legal_moves(child, family):
            break
        g = child
    return GameState(g, draw(st.sampled_from(list(Player)), label="mover"), family,
                     draw(st.sampled_from(list(Variant)), label="variant"), Player.PROLONGER)


class TestChoicesMatchListReferences:
    @given(positions())
    @settings(max_examples=300, deadline=None)
    def test_greedy_and_star_lex(self, state):
        assert make_strategy("greedy-min")(state) == reference_greedy(state, want_max=False)
        assert make_strategy("greedy-max")(state) == reference_greedy(state, want_max=True)
        assert make_strategy("p-star")(state) == reference_star_lex(state)

    @given(positions(), st.integers(0, 2**32))
    @settings(max_examples=300, deadline=None)
    def test_random(self, state, seed):
        assert make_strategy(f"random:{seed}")(state) == reference_random(seed, state)

    @given(positions(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_least_legal(self, state, data):
        moves = legal_moves(state.graph, state.family)
        exclude = data.draw(st.lists(st.sampled_from(moves), unique=True), label="exclude")
        for skip in (exclude, moves, []):
            assert strategies._least_legal(state, skip) == reference_least_legal(state, skip)

    def test_terminal_state_raises(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        for name in ("greedy-min", "greedy-max", "random:3", "p-star"):
            with pytest.raises(RuntimeError, match="terminal"):
                make_strategy(name)(state(g, P4))
