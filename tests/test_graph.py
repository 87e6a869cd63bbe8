import gc
import hashlib
import itertools
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import all_graphs
from satgame import graph
from satgame.graph import (
    Graph,
    bits,
    everywhere_traceable,
    from_graph6,
    hamiltonian_path,
    least_twins,
    to_graph6,
)


def brute_canonical(g: Graph) -> int:
    """Minimum adjacency encoding over all vertex permutations."""
    best = None
    for perm in itertools.permutations(range(g.n)):
        code = 0
        for i in range(g.n):
            for j in range(i + 1, g.n):
                code = (code << 1) | (g.adj[perm[i]] >> perm[j] & 1)
        if best is None or code < best:
            best = code
    return best


def clear_canonical_caches() -> None:
    """Empty both canonical caches, the labelled one and the sorted one."""
    graph._canon_component.cache_clear()
    graph._canon_search.cache_clear()


def dfs_hamiltonian_path(g: Graph, members) -> tuple[int, ...] | None:
    """Lexicographically least Hamiltonian path by unpruned ordered DFS."""
    verts = sorted(members)
    mask = sum(1 << v for v in verts)
    path: list[int] = []

    def extend(v: int, visited: int) -> bool:
        path.append(v)
        if len(path) == len(verts):
            return True
        for w in bits(g.adj[v] & mask & ~visited):
            if extend(w, visited | (1 << w)):
                return True
        path.pop()
        return False

    for start in verts:
        if extend(start, 1 << start):
            return tuple(path)
    return None


def all_graphs_on(n: int):
    """Every labelled graph on n vertices, in edge-mask order."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        adj = [0] * n
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        yield Graph(n, tuple(adj), mask.bit_count())


def random_graph(rng: random.Random, n: int, p: float = 0.4) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    mask = draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
    edges = []
    idx = 0
    for u in range(n):
        for v in range(u + 1, n):
            if mask >> idx & 1:
                edges.append((u, v))
            idx += 1
    return Graph.from_edges(n, edges)


class TestConstruction:
    def test_empty(self):
        g = Graph.empty(3)
        assert g.m == 0 and g.n == 3
        assert len(g.components()) == 3

    def test_single_vertex(self):
        g = Graph.empty(1)
        assert [r.members for r in g.components().records] == [(0,)]

    def test_bounds(self):
        Graph.empty(64)
        with pytest.raises(ValueError):
            Graph.empty(65)
        with pytest.raises(ValueError):
            Graph.empty(0)

    def test_add_edge_value_semantics(self):
        g = Graph.empty(3)
        h = g.add_edge(0, 1)
        assert g.m == 0 and h.m == 1
        assert h.has_edge(0, 1) and h.has_edge(1, 0)

    def test_add_edge_errors(self):
        g = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError):
            g.add_edge(0, 1)
        with pytest.raises(ValueError):
            g.add_edge(1, 1)
        with pytest.raises(ValueError):
            g.add_edge(0, 3)

    def test_degree_sum_is_twice_edges(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        assert sum(g.degrees()) == 2 * g.m


class TestComponents:
    def test_two_components(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        cv = g.components()
        assert [r.members for r in cv.records] == [(0, 1, 2), (3, 4)]
        assert cv.mask_of == (0b00111,) * 3 + (0b11000,) * 2

    def test_complete(self):
        g = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert [r.members for r in g.components().records] == [(0, 1, 2, 3)]

    @given(graphs(max_n=8), st.data())
    @settings(max_examples=80, deadline=None)
    def test_add_edge_merges_at_most_two(self, g, data):
        absent = g.absent_edges()
        if not absent:
            return
        u, v = data.draw(st.sampled_from(absent))
        before = len(g.components())
        after = len(g.add_edge(u, v).components())
        assert after in (before, before - 1)


def check_records(g: Graph) -> None:
    """Each component record holds a maximal connected vertex set of g, its
    members in increasing order and `local` the subgraph induced on them."""
    view = g.components()
    assert sum(rec.mask for rec in view.records) == (1 << g.n) - 1  # a partition
    assert list(view.masks) == [rec.mask for rec in view.records]
    for rec in view.records:
        members = rec.members
        assert list(members) == sorted(members) and rec.mask == graph.vertex_mask(members)
        assert all(view.mask_of[v] == rec.mask for v in members)
        assert all(g.adj[v] & ~rec.mask == 0 for v in members)  # no edge leaves it
        assert rec.local == tuple(
            sum(1 << j for j, w in enumerate(members) if g.has_edge(v, w)) for v in members)
        reached = 1
        for _ in members:
            for i in bits(reached):
                reached |= rec.local[i]
        assert reached == (1 << len(members)) - 1  # connected


class TestComponentRecords:
    @given(graphs(max_n=9))
    @settings(max_examples=80, deadline=None)
    def test_records_found_from_scratch(self, g):
        check_records(g)

    @given(graphs(max_n=9), st.data())
    @settings(max_examples=80, deadline=None)
    def test_records_derived_by_add_edge(self, g, data):
        for _ in range(data.draw(st.integers(1, 4))):
            absent = g.absent_edges()
            if not absent:
                break
            g.components()  # so the child derives its records from these
            g = g.add_edge(*data.draw(st.sampled_from(absent)))
            check_records(g)


class TestTwins:
    @given(graphs(max_n=8), st.data())
    @settings(max_examples=120, deadline=None)
    def test_swapping_two_twins_is_an_automorphism(self, g, data):
        least = least_twins(g.adj)
        for v in range(g.n):  # the least vertex with v's open or closed neighbourhood
            assert least[v] == min(u for u in range(g.n) if g.adj[u] == g.adj[v]
                                   or g.adj[u] | 1 << u == g.adj[v] | 1 << v)
        u = data.draw(st.integers(0, g.n - 1))
        v = data.draw(st.sampled_from([x for x in range(g.n) if least[x] == least[u]]))
        perm = list(range(g.n))
        perm[u], perm[v] = v, u
        assert g.relabel(perm) == g


def refine_all_cells(adj, cells):
    """Equitable refinement that counts against every cell in every round:
    each cell splits by its members' tuples of neighbour counts per cell,
    the parts in increasing tuple order, until a round splits nothing."""
    while True:
        masks = [sum(1 << v for v in c) for c in cells]
        out = []
        for c in cells:
            groups = {}
            for v in c:
                groups.setdefault(tuple((adj[v] & m).bit_count() for m in masks), []).append(v)
            out += [groups[sig] for sig in sorted(groups)]
        if len(out) == len(cells):
            return out
        cells = out


class TestRefinement:
    """`graph._refine` counts only against the cells that the previous round
    made; its ordered partitions must be those of counting against all."""

    def test_matches_all_cells_refinement(self):
        rng = random.Random(2014)
        for _ in range(400):
            n = rng.randint(1, 14)
            g = random_graph(rng, n, rng.choice((0.15, 0.3, 0.5, 0.7)))
            colours = [rng.randint(1, rng.randint(1, 4)) for _ in range(n)]
            cells = [[v for v in range(n) if colours[v] == c] for c in sorted(set(colours))]
            equitable = refine_all_cells(g.adj, cells)
            assert graph._refine(g.adj, cells, range(len(cells))) == equitable
            for t, cell in enumerate(equitable):
                if len(cell) == 1:
                    continue
                # individualise one vertex: only its singleton can split
                v = rng.choice(cell)
                split = equitable[:t] + [[v], [u for u in cell if u != v]] + equitable[t + 1:]
                assert graph._refine(g.adj, split, (t,)) == refine_all_cells(g.adj, split)
                # expand the cell into singletons: all but the last can split
                expanded = equitable[:t] + [[u] for u in cell] + equitable[t + 1:]
                assert (graph._refine(g.adj, expanded, range(t, t + len(cell) - 1))
                        == refine_all_cells(g.adj, expanded))


class TestCanonicalKey:
    def test_relabel_invariance_seeded(self):
        rng = random.Random(12345)
        for _ in range(1000):
            n = rng.randint(1, 10)
            g = random_graph(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            assert g.canonical_key() == g.relabel(perm).canonical_key()

    def test_matches_brute_force_classes(self):
        # equal keys exactly when the brute-force canonical forms agree
        for n, classes in zip(range(1, 6), (1, 2, 4, 11, 34)):
            mine, theirs = {}, {}
            for g in all_graphs_on(n):
                key = g.canonical_key()
                ref = brute_canonical(g)
                assert mine.setdefault(key, ref) == ref
                assert theirs.setdefault(ref, key) == key
            assert len(mine) == len(theirs) == classes

    def test_residual_key_matches_brute_force_classes(self):
        # equal keys exactly when the coloured residuals are isomorphic
        def brute(g, cap):
            live = [v for v in range(g.n) if g.degree(v) < cap]
            return min(
                (tuple(cap - g.degree(v) for v in perm),
                 tuple(g.adj[perm[i]] >> perm[j] & 1
                       for i in range(len(perm)) for j in range(i + 1, len(perm))))
                for perm in itertools.permutations(live))

        for n in range(1, 6):
            for cap in range(1, 5):
                mine, theirs = {}, {}
                for g in all_graphs_on(n):
                    key = g.residual_key(cap)
                    ref = brute(g, cap)
                    assert mine.setdefault(key, ref) == ref
                    assert theirs.setdefault(ref, key) == key
        rng = random.Random(4242)
        for _ in range(300):
            n = rng.randint(1, 12)
            g = random_graph(rng, n, rng.random())
            perm = list(range(n))
            rng.shuffle(perm)
            cap = rng.randint(1, n)
            assert g.residual_key(cap) == g.relabel(perm).residual_key(cap)

    def test_keys_do_not_depend_on_call_order(self):
        rng = random.Random(777)
        corpus = [random_graph(rng, rng.randint(1, 10), rng.random()) for _ in range(300)]
        moves = [(i, rng.choice(g.absent_edges())) for i, g in enumerate(corpus[:150])
                 if g.absent_edges()]
        corpus += [corpus[i].add_edge(*e) for i, e in moves]
        runs = []
        for seed in (1, 2):
            order = list(range(len(corpus)))
            random.Random(seed).shuffle(order)
            clear_canonical_caches()
            keys = {i: corpus[i].canonical_key() for i in order}
            runs.append([keys[i] for i in range(len(corpus))])
        assert runs[0] == runs[1]
        # children derived from their parents' component records, keyed
        # before or after their parents, key as the graphs built from scratch
        for children_first in (True, False):
            clear_canonical_caches()
            parents = [Graph(corpus[i].n, corpus[i].adj, corpus[i].m) for i, _ in moves]
            for p in parents:
                p.components()
            children = [p.add_edge(*e) for p, (_, e) in zip(parents, moves)]
            if children_first:
                child_keys = [c.canonical_key() for c in children]
                parent_keys = [p.canonical_key() for p in parents]
            else:
                parent_keys = [p.canonical_key() for p in parents]
                child_keys = [c.canonical_key() for c in children]
            assert parent_keys == [runs[0][i] for i, _ in moves]
            assert child_keys == runs[0][300:]

    def test_derived_child_keeps_no_ancestor_alive(self):
        parent = Graph.from_edges(6, [(0, 1), (2, 3)])
        view = parent.components()
        child = parent.add_edge(1, 2)
        parent_ref, view_ref = weakref.ref(parent), weakref.ref(view)
        del parent, view
        gc.collect()
        assert parent_ref() is None
        assert view_ref() is not None  # the child's link, until it derives
        assert [r.members for r in child.components().records] == [(0, 1, 2, 3), (4,), (5,)]
        gc.collect()
        assert view_ref() is None
        grandchild = child.add_edge(4, 5)
        grandchild.canonical_key()
        child_ref = weakref.ref(child)
        del child
        gc.collect()
        assert child_ref() is None

    def test_golden_key_bytes_up_to_six_vertices(self):
        # pins the byte format that solver cache files rely on
        digest = hashlib.sha256()
        for n in range(1, 7):
            for g in all_graphs_on(n):
                key = g.canonical_key()
                digest.update(bytes([len(key)]) + key)
        assert digest.hexdigest() == (
            "27d3f8a3ed50dc507f30a95b6adb19ca1f7cc49a04b465383a9ff435cdcee82d")

    def test_golden_key_bytes_beyond_six_vertices(self):
        # every class on 7 vertices, then random graphs on 7..16, whose
        # searches individualise and refine far more than the small ones
        digest = hashlib.sha256()
        rng = random.Random(1907)
        sample = [random_graph(rng, rng.randint(7, 16), rng.choice((0.15, 0.3, 0.5, 0.7)))
                  for _ in range(300)]
        for g in list(all_graphs(7)) + sample:
            key = g.canonical_key()
            digest.update(bytes([len(key)]) + key)
        assert digest.hexdigest() == (
            "d7ff285ba48a48c42d9d3e81cae2fabf14147cc7e9d0adc2a9b5de9e5b161278")

    def test_golden_residual_key_bytes(self):
        digest = hashlib.sha256()
        rng = random.Random(1908)
        for _ in range(300):
            g = random_graph(rng, rng.randint(4, 16), rng.choice((0.15, 0.3, 0.5)))
            for cap in (1, 2, 3, 4, 6):
                key = g.residual_key(cap)
                digest.update(bytes([len(key)]) + key)
        assert digest.hexdigest() == (
            "55695bfa08baa31d95f637eadb7495b23ea91ac6921bd6b9b30094ca99006a3f")

    def test_eleven_classes_on_four_vertices(self):
        keys = set()
        refs = set()
        for mask in range(1 << 6):
            edges = [e for i, e in enumerate(itertools.combinations(range(4), 2)) if mask >> i & 1]
            g = Graph.from_edges(4, edges)
            keys.add(g.canonical_key())
            refs.add(brute_canonical(g))
        assert len(keys) == len(refs) == 11

    def test_distinguishes_path_from_triangle(self):
        p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
        k3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert p3.canonical_key() != k3.canonical_key()

    def test_sampled_pairs_against_brute_force_up_to_eight(self):
        rng = random.Random(4242)
        for n in (6, 7, 8):
            for _ in range(3):
                g, h = random_graph(rng, n), random_graph(rng, n)
                assert (g.canonical_key() == h.canonical_key()) == (
                    brute_canonical(g) == brute_canonical(h)
                )


class TestCanonicalLabelling:
    """`_canon_component` hands out the vertex order of its best leaf, which
    relabels every relabelling of a graph onto one canonical adjacency."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_order_reproduces_the_encoding(self, n):
        rng = random.Random(n)
        for g in all_graphs(n):
            forms = set()
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                relabelled = []
                for rec in g.relabel(perm).components().records:
                    enc, order = rec.canon
                    s, local = len(rec.members), rec.local
                    assert sorted(order) == list(range(s))
                    assert graph._encode_order(local, list(order)) == int.from_bytes(enc, "big")
                    # a colouring: the order lists the colours ascending, and
                    # encodes the graph after the colour prefix
                    colours = tuple(rng.randint(1, 3) for _ in range(s))
                    cenc, corder = graph._canon_component(local, colours)
                    assert cenc[:s] == bytes(sorted(colours))
                    assert [colours[v] for v in corder] == sorted(colours)
                    assert (graph._encode_order(local, list(corder))
                            == int.from_bytes(cenc[s:], "big"))
                    # relabelled by its order, order[i] -> i, the component
                    # is the canonical adjacency that its encoding spells
                    canon = tuple(sum((local[v] >> w & 1) << j for j, w in enumerate(order))
                                  for v in order)
                    assert graph._decode(s, enc) == canon
                    relabelled.append(canon)
                forms.add(tuple(sorted(relabelled)))
            assert len(forms) == 1  # every relabelling, one canonical adjacency


def whole(g: Graph):
    """The record of connected g's one component."""
    (rec,) = g.components().records
    return rec


def dfs_everywhere_traceable(g: Graph, members) -> bool:
    """Every vertex starts a Hamiltonian path, by one DFS per start."""
    mask = sum(1 << v for v in members)

    def extend(v: int, visited: int) -> bool:
        return visited == mask or any(extend(w, visited | (1 << w))
                                      for w in bits(g.adj[v] & mask & ~visited))

    return all(extend(v, 1 << v) for v in members)


class TestTraceability:
    def test_cliques_are_everywhere_traceable(self):
        for j in range(1, 9):
            g = Graph.from_edges(j, [(u, v) for u in range(j) for v in range(u + 1, j)])
            assert everywhere_traceable(whole(g))

    def test_stars_are_not(self):
        for m in range(2, 6):
            g = Graph.from_edges(m + 1, [(0, i) for i in range(1, m + 1)])
            assert not everywhere_traceable(whole(g))

    def test_path_centre_fails(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert not everywhere_traceable(whole(g))

    def test_cycle_is_everywhere_traceable(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert everywhere_traceable(whole(g))

    def test_hamiltonian_path_of_path(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert hamiltonian_path(whole(g)) == (0, 1, 2, 3)

    def test_star_has_none(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert hamiltonian_path(whole(g)) is None

    def test_joined_traceable_components_have_path(self):
        # two triangles joined by one edge
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
        assert hamiltonian_path(whole(g)) is not None

    def test_lexicographically_least(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert hamiltonian_path(whole(g)) == (0, 1, 2, 3)

    def test_hamiltonian_path_matches_dfs(self):
        # every labelled graph on at most 6 vertices, then random larger ones
        rng = random.Random(2024)
        exhaustive = (g for n in range(1, 7) for g in all_graphs_on(n))
        sampled = (random_graph(rng, n, rng.choice((0.2, 0.35, 0.5, 0.7)))
                   for n in (rng.randint(1, 9) for _ in range(400)))
        for g in itertools.chain(exhaustive, sampled):
            # a fresh copy has fresh records, so each order fills its own
            copy = Graph(g.n, g.adj, g.m)
            for rec, twin in zip(g.components().records, copy.components().records):
                path = dfs_hamiltonian_path(g, rec.members)
                every = dfs_everywhere_traceable(g, rec.members)
                assert (hamiltonian_path(rec), everywhere_traceable(rec)) == (path, every)
                assert (everywhere_traceable(twin), hamiltonian_path(twin)) == (every, path)


class TestTraceabilityKept:
    @pytest.fixture
    def dp_runs(self, monkeypatch):
        runs = []
        real = graph._path_ends
        monkeypatch.setattr(graph, "_path_ends", lambda local: runs.append(local) or real(local))
        return runs

    @pytest.mark.parametrize("order", [(everywhere_traceable, hamiltonian_path),
                                       (hamiltonian_path, everywhere_traceable)])
    def test_one_dp_per_record(self, dp_runs, order):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
        rec = whole(g)
        for ask in order + order:
            ask(rec)
        assert len(dp_runs) == 1
        assert rec.traceability == (False, None)

    def test_child_shares_answers_of_untouched_records(self, dp_runs):
        # a 3-path, a triangle, and isolated vertices 6 and 7
        g = Graph.from_edges(8, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)])
        for rec in g.components().records:
            everywhere_traceable(rec)
        parent = g.components().records
        for u, v in ((0, 2), (2, 6)):  # grows the 3-path; merges it with 6
            child = g.add_edge(u, v)
            dp_runs.clear()
            for rec in child.components().records:
                touched = rec.mask >> u & 1
                assert (rec in parent) != touched
                assert (rec.traceability is None) == touched
                assert (hamiltonian_path(rec), everywhere_traceable(rec)) == (
                    dfs_hamiltonian_path(child, rec.members),
                    dfs_everywhere_traceable(child, rec.members))
            assert len(dp_runs) == 1


class TestGraph6:
    def test_known_value(self):
        k3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert to_graph6(k3) == "Bw"

    @pytest.mark.parametrize("n, edges, text", [
        (1, [], "@"),
        (3, [], "B?"),
        (4, [(0, 1), (1, 2), (2, 3)], "Ch"),
        (4, list(itertools.combinations(range(4), 2)), "C~"),
        (5, [(0, 1), (2, 4)], "D_G"),
    ])
    def test_pinned_small_graphs(self, n, edges, text):
        g = Graph.from_edges(n, edges)
        assert to_graph6(g) == text
        assert from_graph6(text) == g

    @given(graphs(max_n=10))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, g):
        assert from_graph6(to_graph6(g)).adj == g.adj

    @given(graphs(max_n=9))
    @settings(max_examples=60, deadline=None)
    def test_matches_networkx(self, g):
        nx = pytest.importorskip("networkx")  # independent graph6 oracle
        mine = to_graph6(g)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(nxg, header=False).decode().strip()
        assert mine == theirs
        back = nx.from_graph6_bytes(mine.encode())
        assert sorted(map(tuple, map(sorted, back.edges()))) == g.edges()

    def test_long_form(self):
        g = Graph.from_edges(63, [(0, 62), (10, 20)])
        assert from_graph6(to_graph6(g)).adj == g.adj

    def test_optional_header_accepted(self):
        k3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert from_graph6(">>graph6<<Bw").adj == k3.adj

    @pytest.mark.parametrize("text", ["", "  ", ">>graph6<<", "~", "~BB", "B"])
    def test_empty_or_truncated_rejected(self, text):
        with pytest.raises(ValueError):
            from_graph6(text)

    @given(st.text(max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_text_parses_or_raises_value_error(self, text):
        try:
            g = from_graph6(text)
        except ValueError:
            return
        assert to_graph6(g) == text.strip().removeprefix(">>graph6<<")

