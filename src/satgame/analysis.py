"""Saturated-graph classification and enumeration, score-bound evaluators,
and per-game trace statistics.

Free graphs are enumerated by vertex augmentation: each free graph on n-1
vertices gains a vertex w whose free neighbourhoods, one per twin class, a
depth-first search grows one legal edge at a time with `creates_forbidden`, so
only free graphs are built and canonicalised. `families.is_free` is not used
here; it stays the independent oracle of this enumeration in the tests, and
of saturation in `verify`'s classifier checks over these free graphs.

Saturated graphs on n vertices are the same search from the free graphs on
n-1, with saturation tested before canonicalisation. Saturation does not
change under isomorphism, so dropping unsaturated graphs before the dedup
keeps the same representatives in the same order. A graph that the search
extends further has a legal edge at w, so only the search's leaves are
tested, and only saturated ones are keyed; the n-vertex free graphs are
never built.

All bound arithmetic is exact rational; verdicts never go through floats.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable, Optional, Sequence, Union

from .engine import GameRecord, Player, Variant
from .families import (
    ForbiddenFamily,
    PathFamily,
    StarFamily,
    TreeFamily,
    creates_forbidden,
    is_saturated,
    max_saturated_edges,
)
from .graph import Frozen, Graph, least_twins, vertex_mask
from .shapes import CLIQUE1, CLIQUE2, CLIQUE4, TRIANGLE, ComponentLabel, label_component


# --- saturated-graph classifiers ----------------------------------------------


class SaturatedClass(Frozen):
    labels: tuple[ComponentLabel, ...]

    def __init__(self, labels: tuple[ComponentLabel, ...]) -> None:
        self.__dict__["labels"] = labels

    def display(self) -> str:
        return "+".join(lab.display() for lab in self.labels)


def component_labels(g: Graph) -> tuple[ComponentLabel, ...]:
    return tuple(label_component(rec) for rec in g.components().records)


def classify_p4_saturated(g: Graph) -> Optional[SaturatedClass]:
    """Exact component grammar of graphs saturated for the 4-vertex path.

    Accepts triangles plus stars on >= 2 vertices with the 3-vertex path
    excluded (closing it into a triangle is always legal, so it never appears
    saturated), or triangles plus exactly one isolated vertex.
    """
    labels = component_labels(g)
    isolated = sum(1 for lab in labels if lab == CLIQUE1)
    if isolated == 0:
        ok = all(
            lab in (TRIANGLE, CLIQUE2) or (lab.kind == "star" and lab.a >= 3)
            for lab in labels
        )
        return SaturatedClass(labels) if ok else None
    if isolated == 1 and all(lab in (TRIANGLE, CLIQUE1) for lab in labels):
        return SaturatedClass(labels)
    return None


def classify_p5_saturated(g: Graph) -> Optional[SaturatedClass]:
    """Exact component grammar of graphs saturated for the 5-vertex path.

    Saturated components are K_4, K_3, pendant triangles T_j with j >= 2, and
    double stars D_{k,l} with k,l >= 2, plus at most one isolated edge.
    Shapes on exactly 4 vertices other than K_4 (the 4-path, the 3-leaf star,
    T_1) always admit a legal internal edge, as do stars and D_{1,l}, so they
    are excluded even though they are path-free. An isolated vertex coexists
    only with K_4 components.
    """
    labels = component_labels(g)
    isolated = sum(1 for lab in labels if lab == CLIQUE1)
    k2 = sum(1 for lab in labels if lab == CLIQUE2)

    def core_ok(lab: ComponentLabel) -> bool:
        if lab.kind == "clique":
            return lab.a in (3, 4)
        if lab.kind == "tpend":
            return lab.a >= 2
        if lab.kind == "dstar":
            return lab.a >= 2  # a <= b, so both sides carry >= 2 pendants
        return False

    others = [lab for lab in labels if lab not in (CLIQUE1, CLIQUE2)]
    if isolated == 0:
        if k2 <= 1 and all(core_ok(lab) for lab in others):
            return SaturatedClass(labels)
        return None
    if isolated == 1 and k2 == 0 and all(lab == CLIQUE4 for lab in others):
        return SaturatedClass(labels)
    return None


# --- exhaustive enumeration up to isomorphism -----------------------------------

SATURATED_CAP = 9


class CapExceeded(RuntimeError):
    """The requested instance is larger than the configured vertex cap."""


def _check_n(name: str, n: int) -> None:
    if n < 1:
        raise ValueError(f"{name} needs n >= 1, got {n}")
    if n > SATURATED_CAP:
        raise CapExceeded(f"{name} capped at n <= {SATURATED_CAP}")


def _extensions(
    g: Graph, family: ForbiddenFamily, leaf: Optional[Callable[[Graph], bool]] = None
) -> list[Graph]:
    """g + w, where w = g.n is a new vertex, for one free neighbourhood of w
    per twin class of the free graph g, in increasing order of the
    neighbourhood as an integer. With `leaf` given, only the leaves of the
    search that `leaf` accepts are returned.

    g + w with w isolated is free, as every forbidden graph is connected and
    has an edge. A depth-first search then adds edges v-w in increasing order
    of v while `creates_forbidden` allows them. Freeness survives deleting
    edges, so each free neighbourhood is reached once, through its members in
    increasing order, and each other one is cut at its first illegal edge.
    A graph that the search extends further has a legal edge at w, so it is
    not saturated: only the leaves can be.

    v joins the neighbourhood only when the members of its twin class
    (`least_twins`) below v are in it already, so that within each class the
    neighbourhood is a prefix. Swapping twins of g maps g + w onto an
    isomorphic graph, and a neighbourhood that is no prefix has a smaller
    one of the same class, so the graph `_augment` keeps of each class is
    still made.

    Without `leaf` every graph made is keyed, so the components of g + w
    with w isolated are found once and each child derives its own from its
    parent's: only the components that meet w are rebuilt. With `leaf` few
    are keyed, and components are found only where a path or tree table or
    a key asks for them.
    """
    w = g.n
    least = least_twins(g.adj)
    below = [vertex_mask(u for u in range(v) if least[u] == t) for v, t in enumerate(least)]
    found: dict[int, Graph] = {}

    def grow(h: Graph, subset: int, start: int) -> None:
        if leaf is None:  # every graph is keyed: let its children derive theirs
            h.components()
        extended = False
        for v in range(start, w):
            if below[v] & ~subset == 0 and not creates_forbidden(h, family, (v, w)):
                grow(h.add_edge(v, w), subset | 1 << v, v + 1)
                extended = True
        if leaf is None or not extended and leaf(h):
            found[subset] = h

    grow(Graph(w + 1, g.adj + (0,), g.m), 0, 0)
    return [found[s] for s in sorted(found)]


def _augment(
    smaller: tuple[Graph, ...],
    family: ForbiddenFamily,
    leaf: Optional[Callable[[Graph], bool]] = None,
) -> tuple[Graph, ...]:
    """One vertex more on each free graph of `smaller`, up to isomorphism:
    the free graphs for `family`, or with `leaf` given only those that
    `_extensions` returns for it.

    The first graph that `_extensions` makes in each class is its
    representative, and the classes come out sorted by canonical key. Each
    is kept as a bare copy, without the memo that its search filled.
    """
    seen: dict[bytes, Graph] = {}
    for g in smaller:
        for h in _extensions(g, family, leaf):
            key = h.canonical_key()
            if key not in seen:
                seen[key] = Graph(h.n, h.adj, h.m)
    return tuple(g for _, g in sorted(seen.items()))


@lru_cache(maxsize=None)
def free_graphs(n: int, family: ForbiddenFamily) -> tuple[Graph, ...]:
    """Every family-free graph on n vertices up to isomorphism.

    Deleting a vertex preserves freeness, so adding a vertex to the free
    graphs on n-1 vertices in every legal way covers everything. Only free
    graphs are built and canonicalised; `is_free` is never called here and
    stays an independent oracle for this enumeration.
    """
    _check_n("free_graphs", n)
    if n == 1:
        return (Graph.empty(1),)
    return _augment(free_graphs(n - 1, family), family)


def saturated_graphs(n: int, family: ForbiddenFamily) -> tuple[Graph, ...]:
    """All family-saturated graphs on n vertices up to isomorphism, sorted by
    canonical key: the saturated graphs of `free_graphs(n, family)`, with the
    same representatives in the same order.

    The free graphs on n - 1 vertices are extended as `free_graphs` does, but
    saturation is tested before the canonical key. Saturation does not change
    under isomorphism, so a class holds only saturated graphs or none, and the
    first saturated graph met in a saturated class is the first graph met in
    it. Only the leaves of the extension search are tested (the others have a
    legal edge at the new vertex), and only saturated ones are keyed. The
    n-vertex level is never built or cached.
    """
    _check_n("saturated_graphs", n)
    if n == 1:
        return (Graph.empty(1),)  # no absent edge
    return _augment(free_graphs(n - 1, family), family, lambda h: is_saturated(h, family))


# --- score bounds ---------------------------------------------------------------


class BoundReport(Frozen):
    theorem: str
    n: int
    k: Optional[int]
    lower: Fraction
    upper: Fraction
    observed: Optional[int]
    exact: bool
    note: str

    def __init__(self, theorem: str, n: int, k: Optional[int], lower: Fraction, upper: Fraction,
                 observed: Optional[int] = None, exact: bool = False, note: str = "") -> None:
        self.__dict__.update(theorem=theorem, n=n, k=k, lower=lower, upper=upper,
                             observed=observed, exact=exact, note=note)

    def admits(self, score: int, side: Optional[Player] = None) -> bool:
        """The one test of a score against the window: both ends, or for a
        scripted `side` only the end it guarantees (Shortener at most the
        upper end, Prolonger at least the lower end)."""
        return ((side is Player.SHORTENER or self.lower <= score)
                and (side is Player.PROLONGER or score <= self.upper))

    @property
    def holds(self) -> Optional[bool]:
        return None if self.observed is None else self.admits(self.observed)


def bound(
    theorem: str, n: int, k: Optional[int] = None, observed: Optional[int] = None
) -> BoundReport:
    """Score window for one of the headline results.

    2.1: pass-variant path game, [n(k-2)/4, n(k-1)/2] for n >= k.
    2.2: 4-vertex path game, [4n/5 - 8/5, 4n/5 + 1].
    2.3: 5-vertex path game, [n-1, n+2].
    2.4: all-trees game, exact unless n = 1 mod (k-1) (then a width-(k-3)
         interval, as printed; see the note on k=3).
    2.5: star game, [(kn - 2(k-1))/2, kn/2] for n >= (3k+1)(k-2).

    Out-of-domain parameters raise rather than silently extrapolate.
    """
    if theorem in ("2.1", "2.4", "2.5") and (k is None or k < 2):
        raise ValueError(f"{theorem} needs k >= 2")
    if theorem in ("2.2", "2.3") and n < 1:
        raise ValueError(f"{theorem} needs n >= 1")
    exact, note = False, ""
    if theorem == "2.1":
        if n < k:
            raise ValueError(f"2.1 needs n >= k, got n={n} k={k}")
        lower, upper = Fraction(n * (k - 2), 4), Fraction(n * (k - 1), 2)
    elif theorem == "2.2":
        k, lower, upper = 4, Fraction(4 * n, 5) - Fraction(8, 5), Fraction(4 * n, 5) + 1
    elif theorem == "2.3":
        k, lower, upper = 5, Fraction(n - 1), Fraction(n + 2)
    elif theorem == "2.4":
        value = tree_score_formula(n, k)
        exact = isinstance(value, int)
        lower, upper = (Fraction(value), Fraction(value)) if exact else value
        if k == 3 and not exact:
            note = "printed interval exceeds the k=3 game value"
    elif theorem == "2.5":
        if n < (3 * k + 1) * (k - 2):
            raise ValueError(f"2.5 needs n >= (3k+1)(k-2) = {(3 * k + 1) * (k - 2)}")
        lower, upper = Fraction(k * n - 2 * (k - 1), 2), Fraction(k * n, 2)
    else:
        raise ValueError(f"unknown theorem id {theorem!r}")
    return BoundReport(theorem, n, k, lower, upper, observed, exact, note)


def window(family: ForbiddenFamily, variant: Variant, n: int) -> Optional[BoundReport]:
    """Score window of the theorem that covers the game, or None where none
    does: another family, or n outside the theorem's domain.

    This is the one map from a game to a theorem: the pass variant of a path
    game is 2.1, the 4- and 5-path games are 2.2 and 2.3, trees are 2.4 and
    the star with k+1 leaves is 2.5 with that k.
    """
    theorem, k = None, None
    if isinstance(family, PathFamily):
        if variant is Variant.PROLONGER_MAY_PASS:
            theorem, k = "2.1", family.k
        else:
            theorem = {4: "2.2", 5: "2.3"}.get(family.k)
    elif isinstance(family, TreeFamily):
        theorem, k = "2.4", family.k
    elif isinstance(family, StarFamily):
        theorem, k = "2.5", family.leaves - 1
    if theorem is None:
        return None
    try:
        return bound(theorem, n, k)
    except ValueError:
        return None  # out of the theorem's domain


def tree_score_formula(n: int, k: int) -> Union[int, tuple[Fraction, Fraction]]:
    """Score of the all-trees game: exact when n is not 1 mod (k-1), else the
    printed two-sided window (exact rational endpoints)."""
    if k < 2:
        raise ValueError("need k >= 2")
    if n % (k - 1) != 1:
        return max_saturated_edges(TreeFamily(k), n)
    top = Fraction(n, k - 1) * comb(k - 1, 2)
    return (top - (k - 3), top)


def f_sequence(n: int, k: int) -> list[Fraction]:
    """Excess-degree budget recurrence f_0..f_{k-1}:
    f_0 = 0, f_{i+1} = f_i + (n + 2k + 2) - 2 f_i / (k - i)."""
    if k < 2:
        raise ValueError("need k >= 2")
    out = [Fraction(0)]
    for i in range(k - 1):
        fi = out[-1]
        out.append(fi + (n + 2 * k + 2) - Fraction(2, k - i) * fi)
    return out


def f_closed(n: int, k: int, i: int) -> Fraction:
    """Closed form of f_i: i (n + 2k + 2) (k - i) / (k - 1)."""
    return Fraction(i * (n + 2 * k + 2) * (k - i), k - 1)


# --- trace statistics -------------------------------------------------------------


class ThresholdStat(Frozen):
    t: int  # first time the minimum degree reaches the threshold, right after
    g: int  # the minimising player's move; excess degree sum and count there
    lam: int

    def __init__(self, t: int, g: int, lam: int) -> None:
        self.__dict__.update(t=t, g=g, lam=lam)


class TraceStats(Frozen):
    thresholds: tuple[Optional[ThresholdStat], ...]  # index i = degree threshold
    new_vertex_usage: tuple[int, ...]  # isolated vertices consumed per action

    def __init__(self, thresholds: tuple[Optional[ThresholdStat], ...],
                 new_vertex_usage: tuple[int, ...]) -> None:
        self.__dict__.update(thresholds=thresholds, new_vertex_usage=new_vertex_usage)

    def usage_pairs(self, actions: Sequence[tuple[Player, object]]) -> list[int]:
        """Total consumption of each Shortener-then-Prolonger move pair."""
        out = []
        for j in range(len(actions) - 1):
            if actions[j][0] is Player.SHORTENER and actions[j + 1][0] is Player.PROLONGER:
                out.append(self.new_vertex_usage[j] + self.new_vertex_usage[j + 1])
        return out


def trace_stats(record: GameRecord, k: int) -> TraceStats:
    """Degree-threshold times t_i, excess sums g_i and counts lambda_i for
    i = 0..k-1, plus per-move isolated-vertex consumption.

    t_0 is 0 by convention; for i >= 1, t_i is the least time with minimum
    degree >= i where the minimising player has just moved.
    """
    graphs = [s.graph for s in record.replay()]
    usage = tuple(
        len(graphs[j].isolated_vertices()) - len(graphs[j + 1].isolated_vertices())
        for j in range(len(record.actions))
    )
    thresholds: list[Optional[ThresholdStat]] = []
    for i in range(k):
        t: Optional[int] = 0 if i == 0 else None
        if i > 0:
            for j, (player, _) in enumerate(record.actions):
                if player is Player.SHORTENER and graphs[j + 1].min_degree() >= i:
                    t = j + 1
                    break
        if t is None:
            thresholds.append(None)
            continue
        degs = graphs[t].degrees()
        thresholds.append(
            ThresholdStat(
                t=t,
                g=sum(max(d - i, 0) for d in degs),
                lam=sum(1 for d in degs if d > i),
            )
        )
    return TraceStats(tuple(thresholds), usage)
