import hashlib
from fractions import Fraction

import pytest

from satgame.analysis import bound, free_graphs, window
from satgame.engine import GameState, Player, Variant, apply_action, initial_state, is_terminal
from satgame.families import (
    PathFamily,
    StarFamily,
    TreeFamily,
    family_name,
    is_free,
    legal_moves,
    legal_rows,
    max_saturated_edges,
    parse_family,
    position_key,
)
from satgame.graph import Graph, least_twins
from satgame.solver import (
    BudgetExceeded,
    CapExceeded,
    _Search,
    best_response,
    solve,
)
from satgame.strategies import make_strategy
from satgame.verify import naive_value, window_rows

P4, P5 = PathFamily(4), PathFamily(5)
BOTH = (Player.PROLONGER, Player.SHORTENER)


def labelled_value(g, mover, family, script, side) -> int:
    """Remaining score by plain minimax over labelled positions: no table,
    no move pruning, legality by the freeness oracle."""
    moves = [e for e in g.absent_edges() if is_free(g.add_edge(*e), family)]
    if not moves:
        return 0
    if mover is side:
        action = script(GameState(g, mover, family, Variant.STANDARD, Player.PROLONGER))
        assert action.edge in moves
        return 1 + labelled_value(g.add_edge(*action.edge), mover.other, family, script, side)
    values = [1 + labelled_value(g.add_edge(*e), mover.other, family, script, side)
              for e in moves]
    return max(values) if mover is Player.PROLONGER else min(values)


def oracle_value(g, mover, family, variant, memo, position=lambda g: g.adj) -> int:
    """`naive_value` memoised by `position(g)`, by default the labelled
    adjacency: plain minimax, legality by the freeness oracle, no bounds."""
    key = (position(g), mover)
    if key not in memo:
        children = [h for h in (g.add_edge(*e) for e in g.absent_edges()) if is_free(h, family)]
        if not children:
            memo[key] = 0
        elif mover is Player.PROLONGER:
            value = max(1 + oracle_value(h, mover.other, family, variant, memo, position)
                        for h in children)
            if variant is Variant.PROLONGER_MAY_PASS:
                value = max(value, oracle_value(g, mover.other, family, variant, memo, position))
            memo[key] = value
        else:
            memo[key] = min(1 + oracle_value(h, mover.other, family, variant, memo, position)
                            for h in children)
    return memo[key]


ORACLE_FAMILIES = ["P4", "P5", "Star:3", "Trees:3", "List:Cl"]


@pytest.fixture(scope="module")
def oracle():
    """oracle_value by family name, with one memo per game for the module."""
    memos: dict = {}

    def value(g, mover, famname, variant) -> int:
        memo = memos.setdefault((famname, variant), {})
        return oracle_value(g, mover, parse_family(famname), variant, memo)

    return value


class TestSolveAnchors:
    def test_three_vertices(self):
        for first in BOTH:
            assert solve(3, P4, first_mover=first).score == 3

    def test_four_vertices_depends_on_first_mover(self):
        assert solve(4, P4, first_mover=Player.PROLONGER).score == 2
        assert solve(4, P4, first_mover=Player.SHORTENER).score == 3

    def test_five_vertices(self):
        for first in BOTH:
            assert solve(5, P4, first_mover=first).score == 4

    def test_tree_game_six(self):
        for first in BOTH:
            assert solve(6, TreeFamily(4), first_mover=first).score == 6


class TestOracleEquivalence:
    @pytest.mark.parametrize("famname", ["P4", "P5", "Trees:3", "Star:3"])
    def test_standard_small(self, famname):
        from satgame.families import parse_family

        fam = parse_family(famname)
        for n in range(2, 6):
            for first in BOTH:
                assert (
                    solve(n, fam, first_mover=first).score
                    == naive_value(Graph.empty(n), first, fam, Variant.STANDARD)
                )

    def test_pass_variant_small(self):
        for n in range(2, 5):
            for first in BOTH:
                assert (
                    solve(n, P4, Variant.PROLONGER_MAY_PASS, first).score
                    == naive_value(Graph.empty(n), first, P4, Variant.PROLONGER_MAY_PASS)
                )

    @pytest.mark.parametrize("famname", ORACLE_FAMILIES)
    def test_memoised_oracle_is_naive_value(self, famname, oracle):
        fam = parse_family(famname)
        for n in range(2, 5):
            for variant in Variant:
                for first in BOTH:
                    assert (oracle(Graph.empty(n), first, famname, variant)
                            == naive_value(Graph.empty(n), first, fam, variant))


class TestBoundedSearch:
    """MTD(f) over the bound table against the memoised plain minimax."""

    @pytest.mark.parametrize("famname", ORACLE_FAMILIES)
    def test_value_does_not_depend_on_the_guess(self, famname, oracle):
        fam = parse_family(famname)
        for n in range(2, 7):
            for variant in Variant:
                for first in BOTH:
                    exact = oracle(Graph.empty(n), first, famname, variant)
                    for guess in (0, exact, max_saturated_edges(fam, n)):
                        search = _Search(n, fam, variant, first, {},
                                         n_cap=n, node_cap=None, time_cap=None)
                        search.guess = guess
                        assert search.value(Graph.empty(n), first) == exact, (n, variant, guess)

    @pytest.mark.parametrize("famname", ORACLE_FAMILIES)
    def test_principal_variation_is_the_lex_least_optimal_line(self, famname, oracle):
        fam = parse_family(famname)
        for n in range(2, 7):
            for variant in Variant:
                for first in BOTH:
                    res = solve(n, fam, variant, first)
                    g, mover = Graph.empty(n), first
                    target = oracle(g, mover, famname, variant)
                    assert res.score == target
                    for action in res.principal_variation:
                        legal = [e for e in g.absent_edges() if is_free(g.add_edge(*e), fam)]
                        reaching = [e for e in legal
                                    if oracle(g.add_edge(*e), mover.other, famname, variant)
                                    == target - 1]
                        if action.is_pass:
                            assert not reaching
                            assert variant is Variant.PROLONGER_MAY_PASS
                            assert mover is Player.PROLONGER
                            assert oracle(g, mover.other, famname, variant) == target
                        else:
                            assert action.edge == min(reaching)
                            g, target = g.add_edge(*action.edge), target - 1
                        mover = mover.other
                    assert target == 0 and g.m == res.score
                    assert not [e for e in g.absent_edges() if is_free(g.add_edge(*e), fam)]

    def test_trees5_n9_below_the_printed_window(self):
        # Theorem 2.4 prints [23/2, 27/2] here, so the search starts from 13;
        # Shortener first still finds 10, below the window.
        fam = TreeFamily(5)
        rep = window(fam, Variant.STANDARD, 9)
        assert (rep.lower, rep.upper) == (Fraction(23, 2), Fraction(27, 2))
        assert _Search(9, fam, Variant.STANDARD, Player.PROLONGER, {},
                       n_cap=9, node_cap=None, time_cap=None).guess == 13
        rows = list(window_rows(fam, Variant.STANDARD, [9]))
        assert [(first, score) for _, first, score, _, _ in rows] == [
            (Player.PROLONGER, 12), (Player.SHORTENER, 10)]
        # A residue row outside the printed window, reported as it stands
        # (ROADMAP item 3): no note excuses it.
        assert [holds for *_, holds in rows] == [True, False] and rep.note == ""


class TestSandwich:
    def test_fixed_strategies_bracket_the_value(self):
        for fam, sname, pname in [(P4, "s-p4", "p-p4"), (P5, "s-p5", "p-p5")]:
            for n in range(4, 8):
                mid = solve(n, fam).score
                hi = best_response(n, fam, Variant.STANDARD, make_strategy(sname), Player.SHORTENER).score
                lo = best_response(n, fam, Variant.STANDARD, make_strategy(pname), Player.PROLONGER).score
                assert lo <= mid <= hi


class TestConsistency:
    def test_value_within_saturated_edge_range(self):
        from satgame.analysis import saturated_graphs

        for fam, n in [(P4, 5), (P4, 6), (P5, 6), (TreeFamily(4), 6)]:
            sizes = [g.m for g in saturated_graphs(n, fam)]
            score = solve(n, fam).score
            assert min(sizes) <= score <= max(sizes)

    @pytest.mark.parametrize("spec", ["Star:300", "P30"])
    def test_a_family_forbidding_nothing_searches_as_much_as_star_n(self, spec):
        # neither Star:300 nor P30 forbids anything on 6 vertices, and neither
        # does Star:6: the search bound starts at 15 edges for all three
        assert max_saturated_edges(parse_family(spec), 6) == 15
        res, star = solve(6, parse_family(spec)), solve(6, StarFamily(6))
        assert res.positions_expanded == star.positions_expanded == 75

    def test_fresh_tables_agree(self):
        a = solve(6, P5).score
        b = solve(6, P5).score
        assert a == b

    def test_shared_table_reuse(self):
        table = {}
        a = solve(6, P4, table=table).score
        cached_positions = len(table)
        b = solve(6, P4, table=table).score
        assert a == b and len(table) == cached_positions


class TestMovePruning:
    """Twin pruning skips only children that would have been table hits. The
    pinned counts are of positions left once children at threshold one are
    settled from their parent's legality rows."""

    @pytest.mark.parametrize("n, family, positions", [(10, P5, 210), (9, StarFamily(3), 27)])
    def test_search_size_is_pinned(self, n, family, positions):
        table = {}
        res = solve(n, family, table=table)
        assert res.positions_expanded == positions
        assert len(table) == positions

    @pytest.mark.parametrize("family, name, positions", [(P4, "s-p4", 730), (P5, "p-p5", 229)])
    def test_scripted_search_matches_labelled_minimax(self, family, name, positions):
        # a script sees labels, so every labelled position is expanded
        script = make_strategy(name)
        for n in range(2, 8):
            expected = labelled_value(Graph.empty(n), Player.PROLONGER, family, script, script.side)
            res = best_response(n, family, Variant.STANDARD, script, script.side)
            assert res.score == expected
        assert res.positions_expanded == positions

    @pytest.mark.parametrize("spec", ["P4", "P5", "Trees:4", "Star:3", "List:Cl"])
    def test_actions_keep_the_lex_first_edge_of_each_twin_class(self, spec):
        family = parse_family(spec)
        search = _Search(6, family, Variant.STANDARD, Player.PROLONGER, {},
                         n_cap=6, node_cap=None, time_cap=None)
        passing = _Search(6, family, Variant.PROLONGER_MAY_PASS, Player.PROLONGER, {},
                          n_cap=6, node_cap=None, time_cap=None)
        scripted = _Search(6, family, Variant.STANDARD, Player.PROLONGER, {}, n_cap=6,
                           node_cap=None, time_cap=None, fixed=make_strategy("greedy-min"),
                           fixed_side=Player.SHORTENER)
        for g in free_graphs(6, family):
            moves, rows = legal_moves(g, family), legal_rows(g, family)
            least = least_twins(g.adj)
            pair = [sorted((least[u], least[v])) for u, v in moves]
            firsts = [e for i, e in enumerate(moves) if pair[i] not in pair[:i]]
            assert search._actions(g, Player.SHORTENER, rows) == firsts
            assert passing._actions(g, Player.PROLONGER, rows) == [*firsts, None]
            assert passing._actions(g, Player.SHORTENER, rows) == firsts
            # a script sees labels: the free side's children are every edge
            assert scripted._actions(g, Player.PROLONGER, rows) == moves


# the games whose keys are checked against the oracle; the star keys merge
# positions that are not isomorphic, the others are canonical
KEY_FAMILIES = ["P4", "P5", "Trees:4", "List:Cl", "Star:2", "Star:3", "Star:4", "Star:5"]


class TestPositionKey:
    """`families.position_key` keys a game's positions: on the free graphs on
    n vertices, equal keys give equal values and edge counts, so an entry
    holds one bound, and every key starts with n, so keys of different n
    never meet in a shared table."""

    @pytest.mark.parametrize("spec", KEY_FAMILIES)
    def test_equal_keys_have_equal_values(self, spec):
        family = parse_family(spec)
        shared = 0  # graphs that share their key with an earlier one
        for n in range(2, 8):
            graphs = free_graphs(n, family)
            key = position_key(family, n)
            for variant in Variant:
                memo: dict = {}
                for mover in BOTH:
                    seen: dict = {}
                    for g in graphs:
                        k = key(g)
                        assert k[0] == n
                        value = oracle_value(g, mover, family, variant, memo, Graph.canonical_key)
                        assert seen.setdefault(k, (value, g.m)) == (value, g.m), \
                            (n, variant, mover, g.edges())
                    shared += len(graphs) - len(seen)
        # free graphs are listed up to isomorphism; under Star:2 they are
        # matchings, whose residuals all differ
        assert (shared > 0) is (spec.startswith("Star") and spec != "Star:2")


class TestStarResidual:
    """Star games are solved in their residual quotient (`position_key`)."""

    def test_star_too_large_to_bind(self):
        # spare degrees of 256 and more do not fit a byte of the key
        wide, tight = solve(6, StarFamily(300)), solve(6, StarFamily(6))
        assert (wide.score, wide.principal_variation) == (tight.score, tight.principal_variation)

    # Theorem 2.5 with k=3 forbids K_{1,4}; its window starts at n=10
    @pytest.mark.parametrize("n, scores", [
        (10, (14, 15)), (11, (16, 16)), (12, (18, 17)), (13, (19, 19)),
        (14, (20, 21)), (15, (22, 22)), (16, (24, 23)),
    ])
    def test_theorem_2_5_rows(self, n, scores):
        for first, expected in zip(BOTH, scores):
            score = solve(n, StarFamily(4), first_mover=first, n_cap=n).score
            assert score == expected
            assert bound("2.5", n, 3, observed=score).holds


def pv_digest(res) -> str:
    return hashlib.sha256(" ".join(map(str, res.principal_variation)).encode()).hexdigest()


# the best response to each one-sided script at small n, which no change to
# the search's cutoffs may move:
# (script, family, variant): {n: (score, first 16 hex digits of pv_digest)}
BEST_RESPONSE_PINS = {
    ("p-p4", "P4", Variant.STANDARD): {
        3: (3, "1891798d86dd0c10"), 4: (2, "fb7ba0093f554312"), 5: (4, "dfe9ff4f9eb072bc"),
        6: (4, "604e8ad62f970aeb"), 7: (5, "fb701bf062c13227"), 8: (6, "ec04693b9cc3f043"),
    },
    ("s-p4", "P4", Variant.STANDARD): {
        3: (3, "1891798d86dd0c10"), 4: (2, "fb7ba0093f554312"), 5: (4, "5dc422e2531d4de0"),
        6: (4, "604e8ad62f970aeb"), 7: (6, "77e6ec7795bf13cf"), 8: (7, "8d1d994e4272318c"),
    },
    ("p-p5", "P5", Variant.STANDARD): {
        3: (3, "1891798d86dd0c10"), 4: (6, "19f1f5b2d849fd6e"), 5: (4, "dfe9ff4f9eb072bc"),
        6: (6, "e10b1a29342c7326"), 7: (6, "66c55b7df1c3e844"), 8: (7, "d9ace0083f75cfa1"),
    },
    ("s-p5", "P5", Variant.STANDARD): {
        3: (3, "1891798d86dd0c10"), 4: (6, "ff694a1daca66a45"), 5: (5, "785b00b5441ef079"),
        6: (7, "6122506ffbcf9f9f"), 7: (9, "05a474610dc4f074"), 8: (8, "3e42c2810f5e09c7"),
    },
    ("traceable", "P4", Variant.PROLONGER_MAY_PASS): {
        4: (2, "683f3fd325216554"), 5: (4, "514b7055082513f1"), 6: (3, "a542062575593a90"),
        7: (5, "d4b7a328cf92b3e9"),
    },
    ("traceable", "P5", Variant.PROLONGER_MAY_PASS): {
        4: (6, "f1a99f88cc6ce7c9"), 5: (4, "514b7055082513f1"), 6: (6, "1dc3f3641091f897"),
        7: (9, "927dcc8c81a8168f"),
    },
    ("p-star", "Star:3", Variant.STANDARD): {
        2: (1, "389f7fbc8e058d61"), 3: (3, "1891798d86dd0c10"), 4: (4, "ee81ce77e65ad109"),
        5: (4, "33369422632f25f7"), 6: (5, "78347a2603684d09"), 7: (6, "566381378ab0c2bd"),
        8: (7, "2f942c6f46f1147c"), 9: (8, "87b61413bf74ff14"),
    },
    ("p-star", "Star:4", Variant.STANDARD): {
        2: (1, "389f7fbc8e058d61"), 3: (3, "1891798d86dd0c10"), 4: (6, "f38706c2816642a7"),
        5: (7, "1b71c32eb9f958ef"), 6: (8, "a0aa5281c490141e"), 7: (9, "9bb9473e1eaca8df"),
        8: (11, "5da3d4e64bef01cb"),
    },
}


class TestPinnedPrincipalVariations:
    """The principal variations at the benchmark sizes, which a change to the
    search order or its cutoffs must leave alone."""

    @pytest.mark.parametrize("spec, n, first, digest", [
        ("P5", 12, "P", "19185f02595ebc2a8616da5f9340181d19d46e8065f22ed2af88f51471c2fccf"),
        ("P5", 12, "S", "e44fb42a5100299b0cf3a3633ab9e7e8662457e5f2061c56d4728b4c00219e1c"),
        ("Star:4", 10, "P", "fd92b08eaf7a1dec19519c2d1c8a238cd543ee42a37f12594684a09e5ac01654"),
        ("Star:4", 10, "S", "195968f0dddaf29f4af1402784da25a3e24bba599542ed9f4da6abf90c1bd722"),
        ("Trees:5", 16, "P", "2fe36a3891ca7076a2ee883ff77e434b2d5cf737075756c920088f6324ef8af6"),
        ("Trees:5", 16, "S", "2fe36a3891ca7076a2ee883ff77e434b2d5cf737075756c920088f6324ef8af6"),
        ("List:Cl", 8, "P", "48bfe94b1ebcb9fb842cd70c48a68f6f6cedb2fd8a2f1a093ed0ea796ecb0c22"),
        ("List:Cl", 8, "S", "48bfe94b1ebcb9fb842cd70c48a68f6f6cedb2fd8a2f1a093ed0ea796ecb0c22"),
    ])
    def test_solve(self, spec, n, first, digest):
        res = solve(n, parse_family(spec), first_mover=Player(first), n_cap=n)
        assert pv_digest(res) == digest

    @pytest.mark.parametrize("spec, n, first, digest", [
        ("P4", 9, "P", "92b66a28c726c25c66548eac823693cc51ec876ed500f754022b81d36bd98830"),
        ("P4", 9, "S", "dc3874a983dcaafc1751e2f3d9a32cb3ced01ea8c69959cfe563f69d6184a43d"),
        ("P5", 8, "P", "218ae418cf20124d4fb4f1a8eb1ca36685eb48856978a0918124a17eb4a452e8"),
        ("P5", 8, "S", "767e5a7a366702e94ed0895d0c2734494895a737c5a12916c3cdec2f2e5d60e3"),
    ])
    def test_pass_variant_solve(self, spec, n, first, digest):
        res = solve(n, parse_family(spec), Variant.PROLONGER_MAY_PASS, Player(first), n_cap=n)
        assert pv_digest(res) == digest

    def test_best_response(self):
        script = make_strategy("p-p5")
        res = best_response(8, P5, Variant.STANDARD, script, script.side)
        assert pv_digest(res) == "d9ace0083f75cfa1240a8f3ab1b0a06ef389f3be3e422891b19e9034d5b623d6"

    @pytest.mark.parametrize("name, spec, variant", BEST_RESPONSE_PINS)
    def test_best_responses_at_small_n(self, name, spec, variant):
        script, family = make_strategy(name), parse_family(spec)
        got = {}
        for n in BEST_RESPONSE_PINS[name, spec, variant]:
            res = best_response(n, family, variant, script, script.side)
            got[n] = (res.score, pv_digest(res)[:16])
        assert got == BEST_RESPONSE_PINS[name, spec, variant]

    @pytest.mark.parametrize("name, n, variant, digest", [
        # a scripted Prolonger that passes
        ("traceable", 7, Variant.PROLONGER_MAY_PASS,
         "d4b7a328cf92b3e99c25329bef43c8b63f6a2ba90b40c813244cbb8a2116c72e"),
        # a scripted Shortener
        ("s-p4", 9, Variant.STANDARD,
         "92b66a28c726c25c66548eac823693cc51ec876ed500f754022b81d36bd98830"),
    ])
    def test_best_response_to_p4_scripts(self, name, n, variant, digest):
        script = make_strategy(name)
        res = best_response(n, P4, variant, script, script.side)
        assert pv_digest(res) == digest


class TestSharedTable:
    """One table serves several games; no score depends on what it held."""

    def test_pass_variant_after_standard(self):
        table = {}
        solve(6, P4, table=table)
        assert solve(6, P4, Variant.PROLONGER_MAY_PASS, table=table).score == 5
        assert solve(6, P4, Variant.PROLONGER_MAY_PASS).score == 5

    def test_other_family_after_p4(self):
        table = {}
        solve(6, P4, table=table)
        solve(6, P4, Variant.PROLONGER_MAY_PASS, table=table)
        res = solve(6, P5, table=table)
        assert res.score == solve(6, P5).score
        assert res.principal_variation == solve(6, P5).principal_variation

    def test_other_n_after_p4(self):
        table = {}
        solve(5, P4, table=table)
        assert solve(6, P4, table=table).score == solve(6, P4).score

    def test_other_n_after_star(self):
        # what the n=9 solves leave in the table changes no n=10 solve
        table = {}
        star = StarFamily(4)
        for first in BOTH:
            for n in (9, 10):
                res = solve(n, star, first_mover=first, table=table)
                fresh = solve(n, star, first_mover=first)
                assert (res.score, res.principal_variation) == (
                    fresh.score, fresh.principal_variation)


class TestPrincipalVariation:
    def test_pv_replays_to_stated_score(self):
        for fam, n, variant in [(P4, 6, Variant.STANDARD), (P4, 5, Variant.PROLONGER_MAY_PASS)]:
            res = solve(n, fam, variant)
            state = initial_state(n, fam, variant)
            for action in res.principal_variation:
                state = apply_action(state, action)
            assert is_terminal(state)
            assert state.graph.m == res.score

    def test_best_response_pv_replays(self):
        res = best_response(6, P4, Variant.STANDARD, make_strategy("s-p4"), Player.SHORTENER)
        state = initial_state(6, P4)
        for action in res.principal_variation:
            state = apply_action(state, action)
        assert is_terminal(state) and state.graph.m == res.score


class TestKFarAboveN:
    """A path or tree family whose k exceeds n + 1 plays as k = n + 1: no
    value reaches either. 2**40 is chosen so that a table of k entries
    would be 8 TB, which the allocator refuses at once."""

    @pytest.mark.parametrize("family, same", [(PathFamily(2**40), PathFamily(6)),
                                              (TreeFamily(2**40), TreeFamily(6))],
                             ids=["Pk", "Trees"])
    def test_scores_lines_and_moves_of_k_six(self, family, same):
        for first in BOTH:
            got, want = solve(5, family, first_mover=first), solve(5, same, first_mover=first)
            assert (got.score, got.principal_variation) == (want.score, want.principal_variation)
            g = Graph.empty(5)
            for action in want.principal_variation:
                assert legal_moves(g, family) == legal_moves(g, same)
                g = g.add_edge(*action.edge)
            assert legal_moves(g, family) == legal_moves(g, same) == []


class TestCaps:
    def test_vertex_cap(self):
        with pytest.raises(CapExceeded):
            solve(11, P4)
        with pytest.raises(CapExceeded):
            best_response(64, P4, Variant.STANDARD, make_strategy("s-p4"), Player.SHORTENER)

    def test_node_budget(self):
        with pytest.raises(BudgetExceeded) as err:
            solve(8, P5, node_cap=5)
        assert err.value.kind == "nodes"

    def test_time_budget(self):
        with pytest.raises(BudgetExceeded) as err:
            solve(8, P5, time_cap=1e-9)
        assert err.value.kind == "time"

    def test_zero_time_cap_is_a_cap(self):
        with pytest.raises(BudgetExceeded) as err:
            solve(8, P5, time_cap=0)
        assert err.value.kind == "time"

    @pytest.mark.parametrize("n, spec", [(46, "Star:46"), (60, "Trees:64")])
    def test_game_deeper_than_the_recursion_limit_is_capped(self, n, spec):
        # more possible edges than the recursion limit leaves room for:
        # refused before the search starts, not a RecursionError
        with pytest.raises(CapExceeded, match="recursion limit"):
            solve(n, parse_family(spec), n_cap=64, time_cap=3)


class TestBestResponsePass:
    def test_traceable_floor_example(self):
        res = best_response(
            6, P4, Variant.PROLONGER_MAY_PASS, make_strategy("traceable"), Player.PROLONGER
        )
        assert res.score >= 3  # n(k-2)/4 = 6*2/4

    def test_fixed_side_script_is_honoured(self):
        # against the scripted shortener the free value stays within her bound
        res = best_response(5, P4, Variant.STANDARD, make_strategy("s-p4"), Player.SHORTENER)
        assert res.score <= 5  # 4n/5 + 1



TABLE_GAMES = [(spec, variant) for spec in ORACLE_FAMILIES
               for variant in (Variant.STANDARD, Variant.PROLONGER_MAY_PASS)]


def game_entries(table, spec, variant) -> dict:
    game = (family_name(parse_family(spec)), variant)
    return {key: value for key, value in table.items() if key[0] == game}


class TestTableEntries:
    """What a solve leaves in its table is sound, so a table handed to a later
    solve, of this game or another, can change no score or line."""

    @pytest.mark.parametrize("spec, variant", TABLE_GAMES)
    def test_every_entry_brackets_the_oracle_value(self, spec, variant, oracle):
        n, family = 6, parse_family(spec)
        table = {}
        solve(n, family, variant, table=table)
        position = position_key(family, n)
        by_key: dict = {}
        for g in free_graphs(n, family):
            by_key.setdefault(position(g), []).append(g)
        assert table and table == game_entries(table, spec, variant)
        for (_, key, mover), (lo, hi) in table.items():
            # every position searched is a free graph on n vertices, and the
            # entry holds for each free graph that has its key
            for g in by_key[key]:
                assert 0 <= lo <= hi <= max_saturated_edges(family, n) - g.m
                assert lo <= oracle(g, mover, spec, variant) <= hi

    @pytest.mark.parametrize("spec, name", [("P4", "s-p4"), ("P5", "p-p5"), ("Star:3", "p-star")])
    def test_every_scripted_entry_brackets_the_labelled_value(self, spec, name):
        # children at threshold one that are settled from the parent's rows
        # are never built, so their parent's entry is a fail-soft bound
        n, family, script = 6, parse_family(spec), make_strategy(name)
        table = {}
        _Search(n, family, Variant.STANDARD, Player.PROLONGER, table, n_cap=n, node_cap=None,
                time_cap=None, fixed=script, fixed_side=script.side).result()
        assert table
        for (_, adj, mover), (lo, hi) in table.items():
            g = Graph(n, adj, sum(row.bit_count() for row in adj) // 2)
            assert is_free(g, family)
            assert 0 <= lo <= hi <= max_saturated_edges(family, n) - g.m
            assert lo <= labelled_value(g, mover, family, script, script.side) <= hi

    @pytest.mark.parametrize("spec", ORACLE_FAMILIES)
    def test_exact_entries_alone_reproduce_the_solve(self, spec):
        family = parse_family(spec)
        table = {}
        first = solve(6, family, table=table)
        exact = {key: (lo, hi) for key, (lo, hi) in table.items() if lo == hi}
        kept = dict(exact)
        again = solve(6, family, table=kept)
        assert (again.score, again.principal_variation) == (first.score, first.principal_variation)
        assert again.positions_expanded <= first.positions_expanded
        assert all(kept[key] == value for key, value in exact.items())  # never rewritten

    @pytest.mark.parametrize("spec", ORACLE_FAMILIES)
    def test_other_games_entries_are_left_alone(self, spec):
        family = parse_family(spec)
        table = {}
        for other in ORACLE_FAMILIES:
            if other != spec:
                solve(6, parse_family(other), table=table)
        solve(6, family, Variant.PROLONGER_MAY_PASS, table=table)
        before = dict(table)
        fresh_table = {}
        fresh = solve(6, family, table=fresh_table)
        res = solve(6, family, table=table)
        assert (res.score, res.principal_variation, res.positions_expanded) == (
            fresh.score, fresh.principal_variation, fresh.positions_expanded)
        assert game_entries(table, spec, Variant.STANDARD) == fresh_table
        assert {key: table[key] for key in before} == before

    @pytest.mark.parametrize("spec", ORACLE_FAMILIES)
    def test_second_first_mover_after_the_first(self, spec):
        family = parse_family(spec)
        table = {}
        for first in BOTH:
            res = solve(7, family, first_mover=first, table=table)
            fresh = solve(7, family, first_mover=first)
            assert (res.score, res.principal_variation) == (fresh.score, fresh.principal_variation)
