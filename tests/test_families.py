import functools
import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import all_graphs
from satgame.engine import GameState, Player, is_terminal
from satgame import families, graph
from satgame.families import (
    ExplicitFamily,
    PathFamily,
    StarFamily,
    TreeFamily,
    contains_subgraph,
    creates_forbidden,
    family_name,
    is_free,
    is_saturated,
    legal_moves,
    max_saturated_edges,
    parse_family,
)
from satgame.graph import Graph, bits
from satgame.shapes import label_component

K3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
P4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
STAR3 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])


class TestParse:
    @pytest.mark.parametrize(
        "text,family",
        [
            ("P4", PathFamily(4)),
            ("P5", PathFamily(5)),
            ("Pk:7", PathFamily(7)),
            ("Trees:5", TreeFamily(5)),
            ("Star:4", StarFamily(4)),
        ],
    )
    def test_roundtrip(self, text, family):
        assert parse_family(text) == family
        assert parse_family(family_name(family)) == family

    def test_list_family(self):
        fam = parse_family("List:Bw")
        assert isinstance(fam, ExplicitFamily)
        assert fam.members[0].m == 3

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            parse_family("Q4")
        for spec in ["Pk:x", "Trees:", "Star:1.5"]:
            with pytest.raises(ValueError, match=f"family spec '{re.escape(spec)}'"):
                parse_family(spec)
        with pytest.raises(ValueError):
            PathFamily(1)
        with pytest.raises(ValueError):
            StarFamily(1)
        with pytest.raises(ValueError):
            ExplicitFamily((Graph.empty(3),))  # disconnected, no edges

    @given(st.one_of(
        st.text(max_size=16),
        st.builds(
            str.__add__,
            st.sampled_from(["P", "Pk:", "Trees:", "Star:", "List:"]),
            st.text(alphabet="".join(map(chr, range(63, 127))) + ",0123456789-", max_size=12),
        ),
    ))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text_parses_or_raises_value_error(self, text):
        try:
            family = parse_family(text)
        except ValueError:
            return
        assert parse_family(family_name(family)) == family


class TestIsFree:
    def test_triangle_is_short_path_free(self):
        assert is_free(K3, PathFamily(4))

    def test_path_hits_path(self):
        assert not is_free(P4, PathFamily(4))

    def test_star_degree_threshold(self):
        assert is_free(STAR3, StarFamily(4))
        assert not is_free(STAR3, StarFamily(3))

    def test_tree_family_is_component_size(self):
        assert is_free(P4, TreeFamily(5))
        assert not is_free(P4, TreeFamily(4))

    @pytest.mark.parametrize("k", [4, 5])
    def test_agrees_with_path_containment(self, k):
        fam = PathFamily(k)
        pattern = Graph.from_edges(k, [(i, i + 1) for i in range(k - 1)])
        for n in range(1, 8):
            for g in all_graphs(n):
                contains = g.n >= k and contains_subgraph(g, pattern)
                assert is_free(g, fam) == (not contains)


class TestContainsSubgraph:
    def test_identity(self):
        assert contains_subgraph(K3, K3)

    def test_triangle_not_in_bipartite(self):
        assert not contains_subgraph(C4, K3)

    def test_spanning_path_in_cycle(self):
        assert contains_subgraph(C4, P4)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            contains_subgraph(K3, P4)  # pattern larger than host
        with pytest.raises(ValueError):
            contains_subgraph(C4, Graph.from_edges(4, [(0, 1), (2, 3)]))


# connected patterns beyond paths: K3, C4, K_{1,3}, the paw, K4 - e and K4;
# P4, which has a bridge; C5 and the bull (a triangle with two pendant
# vertices), on 5 vertices
PATTERNS = {
    "K3": K3,
    "C4": C4,
    "K1,3": STAR3,
    "paw": Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
    "K4-e": Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    "K4": Graph.from_edges(4, list(itertools.combinations(range(4), 2))),
    "P4": parse_family("List:Ch").members[0],
    "C5": parse_family("List:Dhc").members[0],
    "bull": Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4)]),
}

# each pattern alone, and two-member lists: the triangle with the 4-cycle,
# and the 4-cycle with C5, which is larger than the hosts on 4 vertices
EXPLICIT_FAMILIES = {name: ExplicitFamily((h,)) for name, h in PATTERNS.items()}
EXPLICIT_FAMILIES.update({spec: parse_family(spec) for spec in ("List:Bw,Cl", "List:Cl,Dhc")})


def brute_contains(g, h):
    """Does some injective map of h's vertices into g's send every edge of h
    to an edge of g? Tries every map."""
    return any(all(g.adj[f[a]] >> f[b] & 1 for a, b in h.edges())
               for f in itertools.permutations(range(g.n), h.n))


def brute_free(g, family):
    return not any(h.n <= g.n and brute_contains(g, h) for h in family.members)


class TestSubgraphSearchAgainstBruteForce:
    @pytest.mark.parametrize("name", PATTERNS)
    def test_contains_subgraph(self, name):
        h = PATTERNS[name]
        for n in range(h.n, 7):
            for g in all_graphs(n):
                assert contains_subgraph(g, h) == brute_contains(g, h), (name, g.edges())

    @pytest.mark.parametrize("name", EXPLICIT_FAMILIES)
    def test_legality_on_free_graphs(self, name):
        family = EXPLICIT_FAMILIES[name]
        for n in range(1, 7):
            for g in all_graphs(n):
                if not brute_free(g, family):
                    continue
                creates = {e: not brute_free(g.add_edge(*e), family) for e in g.absent_edges()}
                legal = [e for e, bad in creates.items() if not bad]
                for e, bad in creates.items():
                    assert creates_forbidden(g, family, e) == bad, (name, g.edges(), e)
                assert legal_moves(g, family) == legal
                assert is_saturated(g, family) == (not legal)


class TestCreatesForbidden:
    def test_bridges_two_edges_into_path(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert creates_forbidden(g, PathFamily(4), (1, 2))

    def test_closing_path_into_triangle_is_fine(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert not creates_forbidden(g, PathFamily(4), (0, 2))

    def test_tree_component_merge_threshold(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        assert creates_forbidden(g, TreeFamily(5), (2, 3))
        assert not creates_forbidden(g, TreeFamily(6), (2, 3))

    def test_rejects_present_edge(self):
        with pytest.raises(ValueError):
            creates_forbidden(K3, PathFamily(4), (0, 1))

    @pytest.mark.parametrize("spec", ["P4", "Star:3", "Trees:4", "List:Cl"])
    def test_rejects_self_loop(self, spec):
        with pytest.raises(ValueError, match="self-loop"):
            creates_forbidden(Graph.empty(5), parse_family(spec), (2, 2))

    def test_matches_freeness_oracle_everywhere(self):
        families = [PathFamily(4), PathFamily(5), TreeFamily(4), StarFamily(3)]
        for n in range(1, 8):
            for g in all_graphs(n):
                for fam in families:
                    if not is_free(g, fam):
                        continue
                    for e in g.absent_edges():
                        assert creates_forbidden(g, fam, e) == (
                            not is_free(g.add_edge(*e), fam)
                        )


class TestLegalMoves:
    def test_empty_triangle_start(self):
        assert legal_moves(Graph.empty(3), PathFamily(4)) == [(0, 1), (0, 2), (1, 2)]

    def test_two_edges_saturated(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert legal_moves(g, PathFamily(4)) == []

    def test_triangle_plus_isolated_saturated(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
        assert legal_moves(g, PathFamily(4)) == []

    def test_explicit_triangle_family(self):
        fam = ExplicitFamily((K3,))
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert legal_moves(g, fam) == []  # closing the triangle forbidden
        assert legal_moves(Graph.empty(3), fam) == [(0, 1), (0, 2), (1, 2)]


# every family kind, with the sizes the games use and a two-member list
PROPERTY_FAMILIES = (
    [PathFamily(k) for k in range(3, 8)]
    + [TreeFamily(k) for k in (3, 5, 7)]
    + [StarFamily(s) for s in (2, 3, 4)]
    + [parse_family("List:Bw,Cl")]  # triangle and 4-cycle
)


@st.composite
def free_graphs(draw, family, max_n=14):
    """A random family-free graph: edges tried in random order, kept while
    whole-graph freeness holds, stopping after a random number of tries."""
    n = draw(st.integers(1, max_n))
    pairs = draw(st.permutations(list(itertools.combinations(range(n), 2))))
    g = Graph.empty(n)
    for e in pairs[: draw(st.integers(0, len(pairs)))]:
        h = g.add_edge(*e)
        if is_free(h, family):
            g = h
    return g


class TestLegalityProperties:
    @pytest.mark.parametrize("family", PROPERTY_FAMILIES, ids=family_name)
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_predicate_matches_freeness_oracle(self, family, data):
        g = data.draw(free_graphs(family))
        for e in g.absent_edges():
            assert creates_forbidden(g, family, e) == (not is_free(g.add_edge(*e), family))

    @pytest.mark.parametrize("family", PROPERTY_FAMILIES, ids=family_name)
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_enumerator_filters_predicate(self, family, data):
        g = data.draw(free_graphs(family))
        expected = [e for e in g.absent_edges() if not creates_forbidden(g, family, e)]
        assert legal_moves(g, family) == expected

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_filled_caches_leave_graph_identity_alone(self, data):
        family = data.draw(st.sampled_from(PROPERTY_FAMILIES))
        g = data.draw(free_graphs(family))
        fresh = Graph(g.n, g.adj, g.m)
        g.components()
        legal_moves(g, family)
        g.canonical_key()
        assert g.memo and g.memo is not fresh.memo
        assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
        assert {fresh: 1}[g] == 1


# paths, trees, stars and two one-member lists (the 4-cycle, the triangle)
TABLE_FAMILIES = [parse_family(spec) for spec in
                  ("P4", "P5", "P6", "Trees:4", "Star:3", "Star:4", "List:Cl", "List:Bw")]


class TestLegalRows:
    @pytest.mark.parametrize("family", TABLE_FAMILIES, ids=family_name)
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_upper_half_of_the_freeness_oracle_table(self, family, data):
        g = data.draw(free_graphs(family, max_n=10))
        rows = families.legal_rows(g, family)
        assert all(row & ((2 << u) - 1) == 0 for u, row in enumerate(rows))
        oracle = [0] * g.n
        for u, v in g.absent_edges():
            if is_free(g.add_edge(u, v), family):
                oracle[u] |= 1 << v
        assert list(rows) == oracle

    @pytest.mark.parametrize("family", TABLE_FAMILIES, ids=family_name)
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_creates_forbidden_reads_either_orientation(self, family, data):
        g = data.draw(free_graphs(family, max_n=10))
        for u, v in g.absent_edges():
            assert creates_forbidden(g, family, (v, u)) == creates_forbidden(g, family, (u, v))


def oracle_moves(g, family):
    """Legal moves by whole-graph freeness, sharing no code with `legal_moves`."""
    return [e for e in g.absent_edges() if is_free(g.add_edge(*e), family)]


class TestLegalMovesAgainstOracle:
    @pytest.mark.parametrize("family", PROPERTY_FAMILIES, ids=family_name)
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_enumerator_matches_freeness_oracle(self, family, data):
        g = data.draw(free_graphs(family))
        assert legal_moves(g, family) == oracle_moves(g, family)

    @pytest.mark.parametrize("family", PROPERTY_FAMILIES, ids=family_name)
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_is_terminal_matches_freeness_oracle(self, family, data):
        g = data.draw(free_graphs(family))
        assert is_terminal(GameState(g, Player.PROLONGER, family)) == (not oracle_moves(g, family))

    @pytest.mark.parametrize(
        "first,second",
        [(PathFamily(4), PathFamily(5)), (StarFamily(3), StarFamily(4)),
         (TreeFamily(3), TreeFamily(5))],
        ids=lambda f: family_name(f),
    )
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_one_graph_asked_for_two_families(self, first, second, data):
        # free for `first` is free for the laxer `second`
        def check(g, family):
            assert legal_moves(g, family) == oracle_moves(g, family)
            for e in g.absent_edges():
                assert creates_forbidden(g, family, e) == (not is_free(g.add_edge(*e), family))

        g = data.draw(free_graphs(first))
        for family in (first, second, first):
            check(g, family)
        h = Graph(g.n, g.adj, g.m)
        for family in (second, first):
            check(h, family)

    @pytest.mark.parametrize("family", PROPERTY_FAMILIES, ids=family_name)
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_mutating_the_result_leaves_later_calls_alone(self, family, data):
        g = data.draw(free_graphs(family))
        expected = oracle_moves(g, family)
        moves = legal_moves(g, family)
        moves.clear()
        moves.append((0, 0))
        assert legal_moves(g, family) == expected


# paths, trees, stars and explicit lists of one and two members
REACH_FAMILIES = [parse_family(spec) for spec in ("P4", "P5", "P6", "Trees:4", "Trees:5", "Star:3",
                                                  "Star:4", "List:Cl", "List:Bw", "List:Bw,Cl")]


class TestMoveReach:
    @pytest.mark.parametrize("family", REACH_FAMILIES, ids=family_name)
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_legal_edges_outside_the_reach_stay_legal(self, family, data):
        # legality by whole-graph freeness alone: no legality table is read
        g = data.draw(free_graphs(family, max_n=9))
        legal = oracle_moves(g, family)
        for u, v in legal:
            reach, child = families.move_reach(g, family, u, v), g.add_edge(u, v)
            assert reach >> u & 1 and reach >> v & 1
            for x, y in legal:
                if not (reach >> x | reach >> y) & 1:
                    assert is_free(child.add_edge(x, y), family), (g.edges(), (u, v), (x, y))


class TestSaturation:
    @pytest.mark.parametrize("family", PROPERTY_FAMILIES, ids=family_name)
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_freeness_oracle(self, family, data):
        g = data.draw(free_graphs(family))
        assert is_saturated(g, family) == (not oracle_moves(g, family))

    def test_explicit_family_stops_at_the_first_legal_edge(self, monkeypatch):
        calls = []
        real = families._explicit_creates

        def counted(*args):
            calls.append(args[2:])
            return real(*args)

        monkeypatch.setattr(families, "_explicit_creates", counted)
        assert not is_saturated(Graph.empty(6), parse_family("List:Cl"))
        assert calls == [(0, 1)]


class TestCompiledPlans:
    """The search through a new edge reads each family's compiled plans
    (`ExplicitFamily.anchored`); whole-graph freeness is the oracle."""

    @pytest.mark.parametrize("spec", ["List:Cl,Dhc", "List:Bw,Dhc", "List:Bw,Bw", "List:Cl,Cl"])
    def test_matches_whole_graph_freeness(self, spec):
        # Dhc, on 5 vertices, is larger than the hosts on 3 and 4
        family = parse_family(spec)
        for n in range(3, 6):
            for g in all_graphs(n):
                if not is_free(g, family):
                    continue
                legal = [e for e in g.absent_edges() if is_free(g.add_edge(*e), family)]
                for e in g.absent_edges():
                    assert creates_forbidden(g, family, e) == (e not in legal), (spec, g.edges(), e)
                assert is_saturated(g, family) == (not legal), (spec, g.edges())

    def test_compiled_once_and_outside_equality(self):
        twice, once = parse_family("List:Cl,Cl"), parse_family("List:Cl")
        fresh = parse_family("List:Cl,Cl")
        assert twice.anchored == once.anchored  # a repeated member adds no plan
        assert twice.anchored is twice.anchored
        assert twice == fresh and hash(twice) == hash(fresh) and repr(twice) == repr(fresh)


class TestMaxSaturatedEdges:
    @pytest.mark.parametrize("spec", ["P3", "P5", "P30", "Star:2", "Star:4", "Star:300",
                                      "Trees:3", "Trees:5", "Trees:30", "List:Cl"])
    def test_admissible_and_never_above_the_complete_graph(self, spec):
        family = parse_family(spec)
        for n in range(1, 7):
            densest = max(g.m for g in all_graphs(n) if is_free(g, family))
            assert densest <= max_saturated_edges(family, n) <= n * (n - 1) // 2


# the families of the legality properties, plus the 4-cycle alone
DERIVATION_FAMILIES = PROPERTY_FAMILIES + [parse_family("List:Cl")]


def assert_same_as_parentless(child, family, other):
    """`child`, whose facts may be derived from its parent's records, agrees
    with the same graph built without a parent."""
    fresh = Graph(child.n, child.adj, child.m)
    cv, fv = child.components(), fresh.components()
    assert (cv.masks, cv.mask_of) == (fv.masks, fv.mask_of)
    assert [(r.members, label_component(r)) for r in cv.records] == [
        (r.members, label_component(r)) for r in fv.records]
    assert child.canonical_key() == fresh.canonical_key()
    for fam in (family, other):
        assert families.legal_rows(child, fam) == families.legal_rows(fresh, fam)
    assert legal_moves(child, family) == legal_moves(fresh, family)


class TestDerivedChildren:
    """`add_edge` hands a child its parent's component records when the
    parent's components are known; the child must not be told apart from a
    graph built from scratch."""

    @pytest.mark.parametrize("family", DERIVATION_FAMILIES, ids=family_name)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_games_match_parentless_graphs(self, family, data):
        other = data.draw(st.sampled_from(DERIVATION_FAMILIES), label="other")
        g = Graph.empty(data.draw(st.integers(2, 10), label="n"))
        while True:
            # legality read off a copy, so that g's own components are
            # known only when `warm` says so; a warm g derived its own
            # from its parent's
            moves = legal_moves(Graph(g.n, g.adj, g.m), family)
            if not moves:
                break
            warm = data.draw(st.booleans(), label="warm")
            if warm:
                g.components()
            else:
                g = Graph(g.n, g.adj, g.m)
            child = g.add_edge(*data.draw(st.sampled_from(moves), label="move"))
            assert ("parent" in child.memo) == warm
            assert_same_as_parentless(child, family, other)
            g = child

    @pytest.mark.parametrize("family", DERIVATION_FAMILIES, ids=family_name)
    @pytest.mark.parametrize("warm", [True, False], ids=["parent-known", "parent-unknown"])
    @pytest.mark.parametrize("edge", [(2, 3), (5, 6), (0, 2), (3, 5)],
                             ids=["merging", "merging-isolated", "inner", "inner-far"])
    def test_each_kind_of_edge(self, family, warm, edge):
        # components {0,1,2}, {3,4,5}, {6} and {7}
        g = Graph.from_edges(8, [(0, 1), (1, 2), (3, 4), (4, 5)])
        if warm:
            g.components()
        child = g.add_edge(*edge)
        assert ("parent" in child.memo) == warm
        assert_same_as_parentless(child, family, PathFamily(4))
        # the child's components are known now, derived or built from scratch
        grandchild = child.add_edge(6, 7)
        assert "parent" in grandchild.memo
        assert_same_as_parentless(grandchild, family, TreeFamily(5))

    def test_untouched_records_are_shared(self):
        g = Graph.from_edges(8, [(0, 1), (1, 2), (3, 4), (4, 5)])
        parent = g.components().records
        for edge, touched in (((2, 3), {0, 1}), ((0, 2), {0}), ((6, 7), {2, 3})):
            child = g.add_edge(*edge).components().records
            kept = [rec for i, rec in enumerate(parent) if i not in touched]
            assert all(any(rec is new for new in child) for rec in kept)
            assert not any(parent[i] is new for i in touched for new in child)


class TestPathShapes:
    """`_path_rows` searches each component on its canonical encoding, once
    per k and isomorphism class, and maps the answer back to the record's
    members through the canonical order."""

    search = staticmethod(families._shape_record.__wrapped__)  # the search, uncached

    @staticmethod
    def by_vertex(rec, ends, rows):
        """Rows listed in the order of `rec.canon`, keyed by global vertex."""
        return {rec.members[j]: (end, row) for j, end, row in zip(rec.canon[1], ends, rows)}

    def own_rows(self, rec, k):
        """The search on the record's own labels (its encoding in the order
        0..s-1), keyed by global vertex, its rows in global bits."""
        s = len(rec.members)
        code = graph._encode_order(rec.local, list(range(s)))
        own = code.to_bytes((s * (s - 1) // 2 + 7) // 8, "big")
        assert graph._decode(s, own) == rec.local
        ends, inner = self.search(k, s, own)
        return {x: (end, sum(1 << rec.members[j] for j in bits(row)))
                for x, end, row in zip(rec.members, ends, inner)}

    @pytest.mark.parametrize("n", range(1, 7))
    def test_record_matches_the_search_on_the_given_labels(self, n):
        rng = random.Random(n)
        for g in all_graphs(n):
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                for rec in g.relabel(perm).components().records:
                    for k in range(2, 8):
                        rows = self.by_vertex(rec, *families._path_rows(rec, k))
                        assert rows == self.own_rows(rec, k)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_sorted_search_matches_the_search_on_the_input(self, n):
        # cold canonical caches, so every record's form goes through the
        # degree sort and the composed order
        graph._canon_component.cache_clear()
        graph._canon_search.cache_clear()
        uncached = graph._canon_search.__wrapped__
        rng = random.Random(100 + n)
        for g in all_graphs(n):
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                h = g.relabel(perm)
                # the records of h, uncoloured, then of its residual below a
                # random cap, coloured by spare degree as `residual_key` does
                cap = rng.randint(1, n + 1)
                spare = [cap - a.bit_count() for a in h.adj]
                live = graph.vertex_mask(v for v, c in enumerate(spare) if c > 0)
                forms = [(rec, None) for rec in h.components().records]
                forms += [(rec, tuple(spare[v] for v in rec.members))
                          for rec in graph.ComponentView.of(h.adj, live).records]
                for rec, colours in forms:
                    s, local = len(rec.members), rec.local
                    enc, order = graph._canon_component(local, colours)
                    assert enc == uncached(local, colours)[0]
                    prefix = 0 if colours is None else s
                    if colours is not None:
                        assert [colours[v] for v in order] == sorted(colours)
                    canon = tuple(sum((local[v] >> w & 1) << j for j, w in enumerate(order))
                                  for v in order)
                    assert graph._decode(s, enc[prefix:]) == canon
                for rec in h.components().records:
                    for k in range(2, 8):
                        rows = self.by_vertex(rec, *families._path_rows(rec, k))
                        assert rows == self.own_rows(rec, k)

    @pytest.mark.parametrize("leaves", [2, 3, 5])
    def test_a_star_costs_one_search_per_k(self, leaves, monkeypatch):
        searches = []

        def counted(k, s, enc):
            searches.append(k)
            return self.search(k, s, enc)

        # a fresh cache, so that earlier calls cannot answer for these
        monkeypatch.setattr(families, "_shape_record", functools.lru_cache(counted))
        stars = [Graph.from_edges(leaves + 1, [(centre, v) for v in range(leaves + 1)
                                              if v != centre])
                 for centre in range(leaves + 1)]
        records = [rec for star in stars for rec in star.components().records]
        assert len(records) == leaves + 1
        for k in range(2, 8):
            for rec in records:
                assert self.by_vertex(rec, *families._path_rows(rec, k)) == self.own_rows(rec, k)
        assert searches == list(range(2, 8))
