import hashlib
import random
import re
from fractions import Fraction
from math import comb

import pytest

from helpers import EVERY_GRAPH, all_graphs
from satgame.analysis import (
    SATURATED_CAP,
    CapExceeded,
    _augment,
    _extensions,
    bound,
    classify_p4_saturated,
    classify_p5_saturated,
    f_closed,
    f_sequence,
    free_graphs,
    saturated_graphs,
    trace_stats,
    tree_score_formula,
    window,
)
from satgame.engine import Player, Variant, play
from satgame.families import (
    PathFamily, StarFamily, TreeFamily, is_free, is_saturated, legal_rows, parse_family,
)
from satgame.graph import Graph, bits, row_edges, to_graph6
from satgame.strategies import make_strategy


def G(n, edges):
    return Graph.from_edges(n, edges)


TRIANGLE_PLUS_VERTEX = G(4, [(0, 1), (1, 2), (0, 2)])
TWO_EDGES = G(4, [(0, 1), (2, 3)])
CHERRY_PLUS_EDGE = G(5, [(0, 1), (1, 2), (3, 4)])


class TestClassifyP4:
    def test_accepts_triangle_plus_isolated(self):
        got = classify_p4_saturated(TRIANGLE_PLUS_VERTEX)
        assert got is not None and got.display() == "K3+K1"

    def test_accepts_matching(self):
        assert classify_p4_saturated(TWO_EDGES) is not None

    def test_rejects_closable_cherry(self):
        assert classify_p4_saturated(CHERRY_PLUS_EDGE) is None

    def test_rejects_two_isolated_vertices(self):
        assert classify_p4_saturated(G(5, [(0, 1), (1, 2), (0, 2)])) is None

    def test_accepts_stars_with_three_leaves(self):
        assert classify_p4_saturated(G(4, [(0, 1), (0, 2), (0, 3)])) is not None


class TestClassifyP5:
    def test_accepts_k4_plus_isolated(self):
        k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        assert classify_p5_saturated(G(5, k4)) is not None

    def test_accepts_pendant_triangle_plus_edge(self):
        g = G(7, [(0, 1), (1, 2), (0, 2), (0, 3), (0, 4), (5, 6)])
        got = classify_p5_saturated(g)
        assert got is not None and "T2" in got.display()

    def test_rejects_lone_four_path(self):
        assert classify_p5_saturated(G(4, [(0, 1), (1, 2), (2, 3)])) is None

    def test_rejects_single_pendant_triangle(self):
        assert classify_p5_saturated(G(4, [(0, 1), (1, 2), (0, 2), (0, 3)])) is None

    def test_accepts_balanced_double_star(self):
        g = G(6, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)])
        got = classify_p5_saturated(g)
        assert got is not None and "D2,2" in got.display()

    def test_rejects_star_with_spare_vertex(self):
        assert classify_p5_saturated(G(5, [(0, 1), (0, 2), (0, 3)])) is None


class TestEnumeration:
    def test_p4_on_four_vertices(self):
        keys = {g.canonical_key() for g in saturated_graphs(4, PathFamily(4))}
        expected = {
            TWO_EDGES.canonical_key(),
            TRIANGLE_PLUS_VERTEX.canonical_key(),
            G(4, [(0, 1), (0, 2), (0, 3)]).canonical_key(),
        }
        assert keys == expected

    def test_p4_on_five_vertices_edge_counts(self):
        assert {g.m for g in saturated_graphs(5, PathFamily(4))} == {4}

    def test_tree_game_six_vertices(self):
        # components are cliques below the tree size with pairwise size sums
        # reaching it: on 6 vertices that allows 3+3 and 2+2+2
        keys = {g.canonical_key() for g in saturated_graphs(6, TreeFamily(4))}
        two_triangles = G(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        matching = G(6, [(0, 1), (2, 3), (4, 5)])
        assert keys == {two_triangles.canonical_key(), matching.canonical_key()}

    def test_free_graphs_monotone_in_family(self):
        assert len(free_graphs(6, PathFamily(4))) <= len(free_graphs(6, PathFamily(5)))

    def test_caps(self):
        # one cap, SATURATED_CAP, for both enumerations
        for enumerate_graphs in (free_graphs, saturated_graphs):
            with pytest.raises(CapExceeded, match=f"n <= {SATURATED_CAP}"):
                enumerate_graphs(SATURATED_CAP + 1, PathFamily(4))

    def test_class_counts_match_known_sequence(self):
        # graphs up to isomorphism on 1..8 vertices
        assert [len(all_graphs(n)) for n in range(1, 9)] == [
            1, 2, 4, 11, 34, 156, 1044, 12346]

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_vertices_rejected(self, n):
        with pytest.raises(ValueError):
            free_graphs(n, PathFamily(5))
        with pytest.raises(ValueError):
            saturated_graphs(n, PathFamily(5))


def with_vertex(g, subset):
    """g plus a vertex g.n whose neighbourhood is the bitset `subset`."""
    adj = tuple(a | (subset >> v & 1) << g.n for v, a in enumerate(g.adj)) + (subset,)
    return Graph(g.n + 1, adj, g.m + subset.bit_count())


ORACLE_FAMILIES = [
    "P3", "P4", "P5", "P6", "Trees:3", "Trees:4", "Trees:5",
    "Star:2", "Star:3", "Star:4", "List:Cl", "List:Bw,Cl",
]
# the family of the all-graphs oracle, which every graph here is free of
EVERY_GRAPH_SPEC = f"Star:{EVERY_GRAPH.leaves}"


class TestFreeGraphs:
    @pytest.mark.parametrize("spec", ORACLE_FAMILIES)
    def test_matches_freeness_oracle(self, spec):
        family = parse_family(spec)
        for n in range(1, 8):
            got = [g.canonical_key() for g in free_graphs(n, family)]
            want = [g.canonical_key() for g in all_graphs(n) if is_free(g, family)]
            assert got == want, (spec, n)

    @pytest.mark.parametrize("spec", [*ORACLE_FAMILIES, EVERY_GRAPH_SPEC])
    def test_extensions_match_every_free_neighbourhood(self, spec):
        # one neighbourhood per twin class against all 2^n neighbourhoods
        # filtered by whole-graph is_free (every one for the all-graphs
        # family): the same classes, and the same first graph met in each
        family = parse_family(spec)
        for n in range(1, 7):
            for g in free_graphs(n, family):
                want: dict = {}
                for h in (with_vertex(g, s) for s in range(1 << n)):
                    if is_free(h, family):
                        want.setdefault(h.canonical_key(), h)
                got: dict = {}
                for h in _extensions(g, family):
                    got.setdefault(h.canonical_key(), h)
                assert got == want, (spec, to_graph6(g))

    @pytest.mark.parametrize("spec", [*ORACLE_FAMILIES, EVERY_GRAPH_SPEC])
    def test_kept_representatives_carry_no_memo(self, spec):
        # the levels are cached for good, and no later level reads the
        # components or tables that a representative's search filled
        family = parse_family(spec)
        kept = _augment(free_graphs(5, family), family)
        assert kept and all("memo" not in g.__dict__ for g in kept)
        assert kept == free_graphs(6, family)

    @pytest.mark.parametrize("spec, n, candidates", [("List:Cl", 8, 3264), ("P5", 9, 1415)])
    def test_pinned_candidate_counts(self, spec, n, candidates):
        # the graphs canonicalised on the way to n vertices: a lost prune
        # fails here, not only in a timing
        family = parse_family(spec)
        made = sum(len(_extensions(g, family)) for m in range(1, n) for g in free_graphs(m, family))
        assert made == candidates

    def test_golden_representatives(self):
        # graph6 of every free and saturated representative: the same graph
        # of each class, with the same labelling, in the same order; the
        # hash was taken from the filter-every-candidate enumerator
        digest = hashlib.sha256()
        for spec, n_max in (("P4", 8), ("P5", 8), ("P6", 8), ("Trees:4", 8),
                            ("Star:3", 8), ("List:Cl", 7), ("List:Bw,Cl", 7)):
            family = parse_family(spec)
            for n in range(1, n_max + 1):
                for graphs in (free_graphs(n, family), saturated_graphs(n, family)):
                    digest.update("".join(to_graph6(g) + "\n" for g in graphs).encode() + b"|")
        assert digest.hexdigest() == (
            "361dab0512a6e9d924d363f37458dcc6c9588607d9efe55da930b4255550d192"
        )


class TestSaturatedGraphs:
    @pytest.mark.parametrize("saturated_first", [True, False])
    @pytest.mark.parametrize("spec", ORACLE_FAMILIES)
    def test_matches_filtered_free_graphs(self, spec, saturated_first):
        # saturation tested before the key keeps the same representatives in
        # the same order, whichever side fills the caches first
        family = parse_family(spec)

        def saturated(n):
            return [to_graph6(g) for g in saturated_graphs(n, family)]

        def filtered(n):
            return [to_graph6(g) for g in free_graphs(n, family) if is_saturated(g, family)]

        for n in range(1, 8):
            sides = []
            for side in (saturated, filtered) if saturated_first else (filtered, saturated):
                free_graphs.cache_clear()
                sides.append(side(n))
            assert sides[0] == sides[1], (spec, n)

    @pytest.mark.parametrize("spec", ORACLE_FAMILIES)
    def test_extended_candidates_have_a_legal_edge(self, spec):
        # only the leaves of the extension search are tested for saturation:
        # every other candidate must stay free after some absent edge, by
        # whole-graph is_free, which reads no legality table
        family = parse_family(spec)
        for n in range(1, 7):
            for g in free_graphs(n, family):
                leaves = []

                def leaf(h):
                    leaves.append(h.adj)
                    return False

                assert _extensions(g, family, leaf) == []
                made = _extensions(g, family)
                inner = [h for h in made if h.adj not in leaves]
                assert len(inner) + len(leaves) == len(made)
                for h in inner:
                    assert any(is_free(h.add_edge(*e), family) for e in h.absent_edges()), (
                        spec, to_graph6(h))

    @pytest.mark.parametrize("spec, n, tested, keyed", [
        ("List:Cl", 8, 1414, 93), ("P5", 9, 346, 42),
    ])
    def test_pinned_top_level_counts(self, spec, n, tested, keyed):
        # saturation tests and keyed candidates at the top level: a lost
        # prune fails here, not only in a timing
        family = parse_family(spec)
        leaves = []

        def leaf(h):
            leaves.append(h)
            return is_saturated(h, family)

        made = sum(len(_extensions(g, family, leaf)) for g in free_graphs(n - 1, family))
        assert (len(leaves), made) == (tested, keyed)

    def test_golden_graph6(self):
        # every saturated representative to n=9 (n=8 for the slower
        # families), hashed from the enumerator that filtered free_graphs(n)
        digest = hashlib.sha256()
        for specs, n_max in ((("P3", "P4", "P5", "Trees:3", "Trees:4", "Star:2", "Star:3",
                               "List:Bw"), 9),
                             (("P6", "Trees:5", "Star:4", "List:Cl", "List:Bw,Cl"), 8)):
            for spec in specs:
                family = parse_family(spec)
                for n in range(1, n_max + 1):
                    graphs = saturated_graphs(n, family)
                    digest.update("".join(to_graph6(g) + "\n" for g in graphs).encode() + b"|")
        assert digest.hexdigest() == (
            "451ee20d22e7c5d642be0a9aa63729c1fe8c389726a72ea20f3bf09107abbb7a"
        )


class TestBounds:
    def test_p4_window(self):
        rep = bound("2.2", 10)
        assert (rep.lower, rep.upper) == (Fraction(32, 5), Fraction(9))

    def test_pass_variant_window(self):
        rep = bound("2.1", 10, 6)
        assert (rep.lower, rep.upper) == (Fraction(10), Fraction(25))

    def test_star_window_small_k(self):
        rep = bound("2.5", 10, 2)
        assert (rep.lower, rep.upper) == (Fraction(9), Fraction(10))

    def test_observed_verdict(self):
        assert bound("2.3", 8, observed=8).holds is True
        assert bound("2.3", 8, observed=11).holds is False
        assert bound("2.3", 8).holds is None

    def test_domain_errors(self):
        for args, message in [
            (("2.1", 5), "2.1 needs k >= 2"),
            (("2.1", 5, 1), "2.1 needs k >= 2"),
            (("2.1", 3, 6), "2.1 needs n >= k, got n=3 k=6"),
            (("2.2", 0), "2.2 needs n >= 1"),
            (("2.3", 0), "2.3 needs n >= 1"),
            (("2.4", 5), "2.4 needs k >= 2"),
            (("2.4", 5, 1), "2.4 needs k >= 2"),
            (("2.5", 10), "2.5 needs k >= 2"),
            (("2.5", 9, 3), "2.5 needs n >= (3k+1)(k-2) = 10"),
            (("9.9", 5), "unknown theorem id '9.9'"),
            (("9.9", 5, 1), "unknown theorem id '9.9'"),
        ]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                bound(*args)

    # (score, two-sided, Shortener's end, Prolonger's end) around each end
    @pytest.mark.parametrize("rep, rows", [
        (bound("2.2", 7), [(3, False, True, False), (4, True, True, True),
                           (6, True, True, True), (7, False, False, True)]),
        (bound("2.5", 10, 3), [(12, False, True, False), (13, True, True, True),
                               (15, True, True, True), (16, False, False, True)]),
    ], ids=["2.2", "2.5"])
    def test_admits_checks_the_ends_a_side_guarantees(self, rep, rows):
        for score, both, shortener, prolonger in rows:
            assert rep.admits(score) is both
            assert rep.admits(score, Player.SHORTENER) is shortener
            assert rep.admits(score, Player.PROLONGER) is prolonger

    @pytest.mark.parametrize("args", [
        ("2.1", 6, 4), ("2.2", 10), ("2.3", 8), ("2.4", 6, 4), ("2.4", 7, 3), ("2.4", 9, 5),
        ("2.5", 10, 3),
    ], ids=["2.1", "2.2", "2.3", "2.4-exact", "2.4-noted", "2.4-residue", "2.5"])
    def test_holds_is_admits_of_the_observed_score(self, args):
        rep = bound(*args)
        for observed in range(int(rep.lower) - 1, int(rep.upper) + 3):
            assert bound(*args, observed=observed).holds is rep.admits(observed)
        assert rep.holds is None

    def test_tree_bound_exact_case_matches_formula(self):
        rep = bound("2.4", 6, 4)
        assert rep.exact and rep.lower == rep.upper == 6

    def test_tree_bound_interval_case_flags_k3(self):
        rep = bound("2.4", 7, 3)
        assert (rep.lower, rep.upper) == (Fraction(7, 2), Fraction(7, 2))
        assert not rep.exact and rep.note != ""


class TestWindow:
    @pytest.mark.parametrize("family, variant, n, theorem, k", [
        ("P4", Variant.STANDARD, 10, "2.2", 4),
        ("P5", Variant.STANDARD, 8, "2.3", 5),
        ("P4", Variant.PROLONGER_MAY_PASS, 6, "2.1", 4),
        ("Pk:6", Variant.PROLONGER_MAY_PASS, 10, "2.1", 6),
        ("Trees:5", Variant.STANDARD, 9, "2.4", 5),
        ("Star:4", Variant.STANDARD, 10, "2.5", 3),
        ("Star:3", Variant.STANDARD, 4, "2.5", 2),
    ])
    def test_covering_theorem(self, family, variant, n, theorem, k):
        rep = window(parse_family(family), variant, n)
        assert (rep.theorem, rep.k) == (theorem, k)
        assert rep == bound(theorem, n, k)

    @pytest.mark.parametrize("family, variant, n", [
        ("P6", Variant.STANDARD, 6),  # no theorem for longer paths
        ("List:Bw", Variant.STANDARD, 5),  # nor for explicit families
        ("Pk:6", Variant.PROLONGER_MAY_PASS, 5),  # 2.1 needs n >= k
        ("Star:4", Variant.STANDARD, 9),  # 2.5 with k=3 starts at n=10
    ])
    def test_uncovered_game_has_no_window(self, family, variant, n):
        assert window(parse_family(family), variant, n) is None


def _densest_clique_packing(n, k):
    """The closed form the tree formula had off the residue: as many
    (k-1)-cliques as fit, and a clique on the rest."""
    full = n // (k - 1)
    return full * comb(k - 1, 2) + comb(n - (k - 1) * full, 2)


class TestTreeFormula:
    def test_matches_the_closed_form_off_the_residue(self):
        for k in range(2, 11):
            for n in range(1, 61):
                if k == 2 or n % (k - 1) != 1:
                    assert tree_score_formula(n, k) == _densest_clique_packing(n, k)

    def test_exact_cases(self):
        assert tree_score_formula(11, 4) == 10
        assert tree_score_formula(4, 3) == 2
        assert tree_score_formula(9, 2) == 0

    def test_interval_case(self):
        lo, hi = tree_score_formula(7, 3)
        assert lo == hi == Fraction(7, 2)
        lo, hi = tree_score_formula(9, 5)
        assert (lo, hi) == (Fraction(27, 2) - 2, Fraction(27, 2))


class TestFSequence:
    def test_starts_at_zero(self):
        for n, k in [(10, 3), (50, 7)]:
            assert f_sequence(n, k)[0] == 0

    def test_single_step(self):
        assert f_sequence(10, 3)[1] == 18
        assert f_closed(10, 3, 1) == 18

    def test_matches_closed_form(self):
        for k in range(2, 13):
            for n in (10, 100, 1000):
                fs = f_sequence(n, k)
                for i in range(k):
                    assert fs[i] == f_closed(n, k, i)

    def test_needs_k_at_least_two(self):
        with pytest.raises(ValueError):
            f_sequence(10, 1)


class TestTraceStats:
    def test_matching_game_threshold_zero(self):
        rec = play(6, StarFamily(2), strategy_p=make_strategy("p-star"),
                   strategy_s=make_strategy("random:5"))
        stats = trace_stats(rec, 1)
        assert stats.thresholds[0] == type(stats.thresholds[0])(t=0, g=0, lam=0)

    def test_usage_is_per_action(self):
        rec = play(6, PathFamily(4), strategy_p=make_strategy("p-p4"),
                   strategy_s=make_strategy("s-p4"))
        stats = trace_stats(rec, 4)
        assert len(stats.new_vertex_usage) == len(rec.actions)
        assert all(0 <= u <= 2 for u in stats.new_vertex_usage)

    def test_lambda_inequality_on_star_traces(self):
        rng = random.Random(7)
        for _ in range(25):
            k = rng.choice((2, 3))
            n = rng.randint(max(4, (3 * k + 1) * (k - 2)), 16)
            rec = play(n, StarFamily(k + 1), Variant.STANDARD,
                       rng.choice((Player.PROLONGER, Player.SHORTENER)),
                       make_strategy("p-star"), make_strategy(f"random:{rng.randint(0, 99)}"))
            stats = trace_stats(rec, k)
            fs = f_sequence(n, k)
            for i, th in enumerate(stats.thresholds):
                if th is None:
                    continue
                assert th.lam * (k - i) >= th.g
                assert th.g <= fs[i]


class TestTerminalStructure:
    def test_tree_game_terminals_are_clique_packings(self):
        rng = random.Random(11)
        for _ in range(20):
            k = rng.choice((3, 4, 5))
            n = rng.randint(k, 16)
            rec = play(n, TreeFamily(k), Variant.STANDARD,
                       rng.choice((Player.PROLONGER, Player.SHORTENER)),
                       make_strategy("p-trees"), make_strategy(f"random:{rng.randint(0, 99)}"))
            cv = rec.terminal.components()
            sizes = [len(comp.members) for comp in cv.records]
            assert all(s < k for s in sizes)
            for mask in cv.masks:
                assert all(rec.terminal.adj[v] | 1 << v == mask for v in bits(mask))
            sizes.sort()
            if len(sizes) > 1:
                assert sizes[0] + sizes[1] >= k

    def test_star_game_low_degree_vertices_form_clique(self):
        rng = random.Random(13)
        for _ in range(20):
            k = rng.choice((2, 3))
            n = rng.randint(6, 16)
            rec = play(n, StarFamily(k + 1), Variant.STANDARD,
                       rng.choice((Player.PROLONGER, Player.SHORTENER)),
                       make_strategy(f"random:{rng.randint(0, 99)}"),
                       make_strategy(f"random:{rng.randint(0, 99)}"))
            g = rec.terminal
            low = [v for v in range(n) if g.degree(v) < k]
            for i, u in enumerate(low):
                for v in low[i + 1:]:
                    assert g.has_edge(u, v)


class TestClassifierOracle:
    # every graph, free or not: a classifier that accepts a graph that is
    # not free fails here, which the free-graph oracle of `verify` cannot see
    @pytest.mark.parametrize("n", range(1, 8))
    def test_p4_small(self, n):
        fam = PathFamily(4)
        for g in all_graphs(n):
            saturated = is_free(g, fam) and not row_edges(legal_rows(g, fam))
            assert (classify_p4_saturated(g) is not None) == saturated

    @pytest.mark.parametrize("n", range(1, 9))
    def test_p5_small(self, n):
        fam = PathFamily(5)
        for g in all_graphs(n):
            saturated = is_free(g, fam) and not row_edges(legal_rows(g, fam))
            assert (classify_p5_saturated(g) is not None) == saturated
