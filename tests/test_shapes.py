import itertools

import pytest

from helpers import all_graphs
from satgame.analysis import classify_p4_saturated, classify_p5_saturated
from satgame.families import PathFamily, is_free
from satgame.graph import Graph
from satgame.shapes import ComponentLabel, has_triangle, label_component, star_centres

# every connected graph on up to this many vertices, up to isomorphism
MAX_N = 7


def reference_graphs(n: int) -> dict[Graph, ComponentLabel]:
    """Each named shape on n vertices, built from its definition: K_n,
    K_{1,m} (m >= 2), T_j (j >= 1) and D_{k,l} (1 <= k <= l)."""
    refs = {Graph.from_edges(n, itertools.combinations(range(n), 2)): ComponentLabel("clique", n)}
    if n >= 3:
        refs[Graph.from_edges(n, [(0, v) for v in range(1, n)])] = ComponentLabel("star", n - 1)
    if n >= 4:
        tpend = [(0, 1), (1, 2), (0, 2)] + [(0, v) for v in range(3, n)]
        refs[Graph.from_edges(n, tpend)] = ComponentLabel("tpend", n - 3)
    for k in range(1, (n - 2) // 2 + 1):
        dstar = [(0, 1)] + [(0, v) for v in range(2, 2 + k)] + [(1, v) for v in range(2 + k, n)]
        refs[Graph.from_edges(n, dstar)] = ComponentLabel("dstar", k, n - 2 - k)
    return refs


def connected_graphs():
    for n in range(1, MAX_N + 1):
        for g in all_graphs(n):
            records = g.components().records
            if len(records) == 1:
                yield g, records[0]


def test_labels_match_the_reference_shapes():
    refs = {n: {h.canonical_key(): label for h, label in reference_graphs(n).items()}
            for n in range(1, MAX_N + 1)}
    seen = set()
    for g, rec in connected_graphs():
        want = refs[g.n].get(g.canonical_key(), ComponentLabel("other"))
        assert label_component(rec) == want, g
        seen.add(want)
    # every reference shape was reached, so each branch was compared
    assert seen == {label for ref in refs.values() for label in ref.values()} | {
        ComponentLabel("other")}


@pytest.mark.parametrize("k, classifier", [(4, classify_p4_saturated),
                                           (5, classify_p5_saturated)])
def test_classifier_rejects_every_shape_that_holds_the_path(k, classifier):
    # the classifiers read component labels only, so a shape that contains
    # P_k must be refused wherever it appears: alone, beside a K_1 and
    # beside a K_2; the verify oracle walks free graphs and never meets one
    refused = set()
    for n in range(1, 10):
        for h, label in reference_graphs(n).items():
            if is_free(h, PathFamily(k)):
                continue
            edges = h.edges()
            for g in (h, Graph.from_edges(n + 1, edges),
                      Graph.from_edges(n + 2, edges + [(n, n + 1)])):
                assert classifier(g) is None, (k, label, g.edges())
            refused.add(label.kind)
    assert refused == ({"clique", "tpend", "dstar"} if k == 4 else {"clique"})


def test_label_is_kept_on_the_record():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    path, edge = g.components().records
    assert path.shape is None
    label = label_component(path)
    assert path.shape is label and label_component(path) is label
    child = g.add_edge(1, 3).components().records
    assert child[0].shape is None  # merged: a new record
    grown = g.add_edge(0, 2).components().records
    assert grown[1] is edge and grown[0].shape is None


def test_triangles_match_brute_force():
    for g, rec in connected_graphs():
        brute = any(g.adj[a] >> b & 1 and g.adj[b] >> c & 1 and g.adj[a] >> c & 1
                    for a, b, c in itertools.combinations(range(g.n), 3))
        assert has_triangle(rec) == brute, g


@pytest.mark.parametrize("edges, n, centres", [
    ([(0, 1)], 2, (0, 1)),
    ([(1, 0), (1, 2)], 3, (1,)),
    ([(3, 0), (3, 1), (3, 2)], 4, (3,)),
    ([(0, 1), (1, 2), (0, 2)], 3, ()),
    ([(0, 1), (1, 2), (2, 3)], 4, ()),
    ([], 1, ()),
])
def test_star_centres(edges, n, centres):
    g = Graph.from_edges(n, edges)
    (rec,) = g.components().records
    assert star_centres(rec) == centres
