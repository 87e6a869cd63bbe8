"""Acceptance suites: solve-window checks, one-sided strategy guarantees,
classifier equivalence with a whole-graph `is_free` oracle over the free
graphs, fuzzed claim invariants, algebraic identities and determinism checks.

Every score checked against a theorem window comes from `window_rows`, which
also gives the one verdict on it; `satgame solve` reads the same rows.

Every suite returns Check rows whose rendered text is a pure function of the
suite parameters and seed, so repeated runs are byte-identical.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional

from .analysis import (
    SATURATED_CAP,
    CapExceeded,
    classify_p4_saturated,
    classify_p5_saturated,
    f_closed,
    f_sequence,
    free_graphs,
    trace_stats,
    window,
)
from .engine import GameRecord, Player, Variant, play
from .families import (
    ForbiddenFamily,
    PathFamily,
    StarFamily,
    TreeFamily,
    family_name,
    is_free,
)
from .graph import MAX_VERTICES, Frozen, Graph, everywhere_traceable
from .shapes import CHERRY, CLIQUE2, has_triangle, label_component
from .solver import BudgetExceeded, best_response, solve
from .strategies import Strategy, make_strategy

BOTH_PLAYERS = (Player.PROLONGER, Player.SHORTENER)


class Check(Frozen):
    suite: str
    name: str
    passed: bool
    detail: str

    def __init__(self, suite: str, name: str, passed: bool, detail: str) -> None:
        self.__dict__.update(suite=suite, name=name, passed=passed, detail=detail)

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.suite}/{self.name}: {self.detail}"


def render_report(checks: Iterable[Check]) -> str:
    checks = list(checks)
    lines = [c.render() for c in checks]
    failed = sum(1 for c in checks if not c.passed)
    lines.append(f"{'OK' if failed == 0 else 'FAILED'}: {len(checks)} checks, {failed} failures")
    return "\n".join(lines) + "\n"


# --- independent oracle: plain recursion, no memo, no canonicalisation --------


def naive_value(g: Graph, mover: Player, family: ForbiddenFamily, variant: Variant) -> int:
    """Remaining score by plain minimax; legality by whole-graph `is_free`,
    so no legality table of the solver is read."""
    children = [h for h in (g.add_edge(*e) for e in g.absent_edges()) if is_free(h, family)]
    if not children:
        return 0
    if mover is Player.PROLONGER:
        best = max(1 + naive_value(h, mover.other, family, variant) for h in children)
        if variant is Variant.PROLONGER_MAY_PASS:
            best = max(best, naive_value(g, mover.other, family, variant))
        return best
    return min(1 + naive_value(h, mover.other, family, variant) for h in children)


def _check_at_least(suite: str, name: str, value: int, least: int) -> None:
    """Reject a size below the least one under which `suite` checks something."""
    if value < least:
        raise ValueError(f"{suite} needs {name} >= {least}, got {name}={value}")


# --- window rows: a score against the theorem window that covers its game ------


def window_rows(
    family: ForbiddenFamily, variant: Variant, ns: Iterable[int],
    firsts: Iterable[Player] = BOTH_PLAYERS, script: Optional[str] = None, **caps,
) -> Iterator[tuple]:
    """One row (n, first, score, window, holds) per n and first mover.

    The score is the exact solve, or with `script` the free side's best
    response to that one-sided strategy; `caps` go to the solver. The window
    is `analysis.window` of the game, and `holds` is its `admits` verdict on
    the score, for the script's side only its own end. A solve stopped by a
    cap or budget is an unsolved row: its score is the reason and it does
    not hold.
    """
    strategy = make_strategy(script) if script else None
    side = strategy.side if strategy else None
    for n in ns:
        rep = window(family, variant, n)
        for first in firsts:
            try:
                if strategy is None:
                    score = solve(n, family, variant, first, **caps).score
                else:
                    score = best_response(n, family, variant, strategy, side, first,
                                          **caps).score
            except (CapExceeded, BudgetExceeded) as exc:
                yield n, first, str(exc), rep, False
                continue
            # a noted window (the k=3 tree residue) is off as printed: excused
            holds = None if rep is None else (bool(rep.note) or rep.admits(score, side))
            yield n, first, score, rep, holds


def _detail(score, solved: str) -> str:
    """A window row's check detail: `solved`, or for an unsolved row, whose
    score is the reason, that reason."""
    return f"unsolved: {score}" if isinstance(score, str) else solved


def solve_checks(suite: str, rows: Iterable[tuple]) -> list[Check]:
    """One check per solve row of `window_rows`: its score within its window."""
    return [Check(suite, f"solve-window n={n} first={first.value}", holds,
                  _detail(score, f"score={score} in [{rep.lower},{rep.upper}]"))
            for n, first, score, rep, holds in rows]


def classifier_checks(
    suite: str,
    family: ForbiddenFamily,
    classifier: Callable[[Graph], object],
    n_max: int,
) -> list[Check]:
    """The classifier accepts exactly the saturated graphs among the free
    graphs on n <= min(n_max, SATURATED_CAP) vertices. A graph is saturated
    when it is free and every absent edge breaks whole-graph `is_free`, so
    no legality table is read."""
    n_max = min(n_max, SATURATED_CAP)
    mismatches = 0
    total = 0
    for n in range(1, n_max + 1):
        for g in free_graphs(n, family):
            total += 1
            saturated = is_free(g, family) and not any(
                is_free(g.add_edge(*e), family) for e in g.absent_edges())
            if (classifier(g) is not None) != saturated:
                mismatches += 1
    return [
        Check(
            suite,
            f"classifier-oracle n<={n_max}",
            mismatches == 0,
            f"{total} free graphs, {mismatches} mismatches",
        )
    ]


def anchor_checks() -> list[Check]:
    """Small exact scores, cross-checked against the unmemoised oracle."""
    family = PathFamily(4)
    checks = []
    for n, first, expected in [
        (4, Player.PROLONGER, 2),
        (4, Player.SHORTENER, 3),
        (5, Player.PROLONGER, 4),
        (5, Player.SHORTENER, 4),
    ]:
        got = solve(n, family, first_mover=first).score
        orc = naive_value(Graph.empty(n), first, family, Variant.STANDARD)
        checks.append(
            Check(
                "p4",
                f"anchor n={n} first={first.value}",
                got == expected == orc,
                f"solver={got} oracle={orc} expected={expected}",
            )
        )
    return checks


def response_checks(k: int, n_max: int = 8) -> list[Check]:
    """The published k-path strategies hold their side of the window against
    every reply: Shortener's `s-p{k}` keeps the score at most its upper end,
    Prolonger's `p-p{k}` at least the ceiling of its lower end."""
    family, ns = PathFamily(k), range(3, n_max + 1)
    shortener = window_rows(family, Variant.STANDARD, ns, (Player.PROLONGER,), f"s-p{k}")
    prolonger = window_rows(family, Variant.STANDARD, ns, (Player.PROLONGER,), f"p-p{k}")
    checks = []
    for (n, _, hi, rep, hi_holds), (_, _, lo, _, lo_holds) in zip(shortener, prolonger):
        checks.append(Check(f"p{k}", f"shortener-guarantee n={n}", hi_holds,
                            _detail(hi, f"best response {hi} <= {rep.upper}")))
        checks.append(Check(f"p{k}", f"prolonger-guarantee n={n}", lo_holds,
                            _detail(lo, f"best response {lo} >= {math.ceil(rep.lower)}")))
    return checks


def suite_p4(n_max: int = 8) -> list[Check]:
    _check_at_least("suite_p4", "n_max", n_max, 3)
    family = PathFamily(4)
    checks = solve_checks("p4", window_rows(family, Variant.STANDARD, range(3, n_max + 1),
                                            time_cap=60.0))
    checks += anchor_checks()
    checks += response_checks(4, n_max)
    # the oracle is cheap to the enumeration cap, whatever n the solves reach
    checks += classifier_checks("p4", family, classify_p4_saturated, SATURATED_CAP)
    return checks


def suite_p5(n_max: int = 8) -> list[Check]:
    _check_at_least("suite_p5", "n_max", n_max, 4)
    family = PathFamily(5)
    checks = solve_checks("p5", window_rows(family, Variant.STANDARD, range(4, n_max + 1),
                                            time_cap=300.0))
    checks += response_checks(5, n_max)
    checks += classifier_checks("p5", family, classify_p5_saturated, SATURATED_CAP)
    return checks


def suite_trees(n_max: int = 9) -> list[Check]:
    _check_at_least("suite_trees", "n_max", n_max, 4)  # n = 3 is 1 mod k-1 for k = 3
    checks = []
    for k in (3, 4, 5):
        family = TreeFamily(k)
        # the formula is only exact away from n = 1 mod (k-1)
        exact = [n for n in range(k, n_max + 1) if window(family, Variant.STANDARD, n).exact]
        for n, first, got, rep, holds in window_rows(family, Variant.STANDARD, exact):
            checks.append(Check("trees", f"formula k={k} n={n} first={first.value}", holds,
                                _detail(got, f"solver={got} formula={rep.lower}")))
    return checks


def suite_pass() -> list[Check]:
    checks = []
    for k, ns in ((4, range(5, 8)), (5, range(6, 8))):
        for n, _, score, rep, holds in window_rows(PathFamily(k), Variant.PROLONGER_MAY_PASS, ns,
                                                   (Player.PROLONGER,), "traceable"):
            checks.append(Check("pass", f"traceable-floor n={n} k={k}", holds,
                                _detail(score, f"best response {score} >= {rep.lower}")))
    return checks


# --- fuzzed claim invariants ----------------------------------------------------


def _opponent(rng: random.Random) -> Strategy:
    kind = rng.choice(("random", "random", "greedy-min", "greedy-max"))
    if kind == "random":
        return make_strategy(f"random:{rng.randint(0, 10**6)}")
    return make_strategy(kind)


GameSource = Callable[[random.Random, int, int], Iterable[GameRecord]]


def _fuzz_games(
    family_of: Callable[[random.Random], ForbiddenFamily],
    fixed: str,
    variant: Variant = Variant.STANDARD,
) -> GameSource:
    """A source of `games` games of the strategy `fixed` against drawn
    opponents, n in 4..n_max. Each game draws n, the family, the first mover
    and the opponent, in that order."""

    def games_of(rng: random.Random, games: int, n_max: int) -> Iterable[GameRecord]:
        strategy = make_strategy(fixed)
        for _ in range(games):
            n = rng.randint(4, n_max)
            family = family_of(rng)
            first = rng.choice(BOTH_PLAYERS)
            opp = _opponent(rng)
            if strategy.side is Player.PROLONGER:
                yield play(n, family, variant, first, strategy, opp)
            else:
                yield play(n, family, variant, first, opp, strategy)

    return games_of


def _star_games(rng: random.Random, games: int, n_max: int) -> Iterable[GameRecord]:
    """Games of the degree-lex prolonger in the (k+1)-star game, k in {2, 3},
    n from the least one (at least 4) that the star theorem's window covers,
    up to n_max. A k whose window starts above n_max is not drawn. Draws k, n,
    the first mover and the opponent, in that order."""
    starts = {}
    for k in (2, 3):
        covered = [n for n in range(4, n_max + 1) if window(StarFamily(k + 1), Variant.STANDARD, n)]
        if covered:
            starts[k] = covered[0]
    for _ in range(games):
        k = rng.choice(tuple(starts))
        n = rng.randint(starts[k], n_max)
        first = rng.choice(BOTH_PLAYERS)
        yield play(n, StarFamily(k + 1), Variant.STANDARD, first,
                   make_strategy("p-star"), _opponent(rng))


def _star_k(rec: GameRecord) -> int:
    return rec.family.leaves - 1


def _after_prolonger(rec: GameRecord) -> list[Graph]:
    """The graph after each of Prolonger's actions."""
    states = rec.replay()
    return [states[i + 1].graph for i, (player, _) in enumerate(rec.actions)
            if player is Player.PROLONGER]


def _untraceable(rec: GameRecord) -> int:
    """After each of the traceable player's actions, every component is
    everywhere traceable (pass variant)."""
    return sum(1 for g in _after_prolonger(rec)
               if not all(everywhere_traceable(comp) for comp in g.components().records))


def _two_cherries(rec: GameRecord) -> int:
    """Against the 4-path shortener: at most one 3-vertex-path component after
    each opposing move."""
    return sum(1 for g in _after_prolonger(rec)
               if sum(1 for comp in g.components().records if label_component(comp) == CHERRY) > 1)


def _fresh_vertex_excess(rec: GameRecord) -> int:
    """With the 4-path prolonger: no move pair uses 4 fresh vertices and no
    two consecutive pairs both use 3."""
    pairs = trace_stats(rec, 4).usage_pairs(rec.actions)
    return int(any(p >= 4 for p in pairs)
               or any(a == 3 and b == 3 for a, b in zip(pairs, pairs[1:])))


def _four_vertex_overflow(rec: GameRecord) -> int:
    """Against the 5-path shortener: every position has at most one 4-vertex
    component with at most one isolated edge, or none with at most two."""
    bad = 0
    for state in rec.replay():
        records = state.graph.components().records
        c4 = sum(1 for comp in records if len(comp.members) == 4)
        k2 = sum(1 for comp in records if label_component(comp) == CLIQUE2)
        bad += not ((c4 <= 1 and k2 <= 1) or (c4 == 0 and k2 <= 2))
    return bad


def _triangle_free_components(rec: GameRecord) -> int:
    """With the 5-path prolonger: at the end every component larger than an
    edge that is not a star contains a triangle."""
    return sum(1 for comp in rec.terminal.components().records
               if len(comp.members) > 2 and label_component(comp).kind != "star"
               and not has_triangle(comp))


def _low_min_degree(rec: GameRecord) -> int:
    """With the degree-lex prolonger in the star game: terminal minimum
    degree at least k-2 once n is large enough."""
    return int(rec.terminal.min_degree() < _star_k(rec) - 2)


# claim name, its game source, and its violations in one game; run in this
# order from one seeded generator
CLAIMS: tuple[tuple[str, GameSource, Callable[[GameRecord], int]], ...] = (
    ("traceable-components",
     _fuzz_games(lambda r: PathFamily(r.choice((4, 5, 6))), "traceable",
                 Variant.PROLONGER_MAY_PASS),
     _untraceable),
    ("p4-single-cherry", _fuzz_games(lambda r: PathFamily(4), "s-p4"), _two_cherries),
    ("p4-fresh-vertices", _fuzz_games(lambda r: PathFamily(4), "p-p4"), _fresh_vertex_excess),
    ("p5-four-vertex-budget", _fuzz_games(lambda r: PathFamily(5), "s-p5"),
     _four_vertex_overflow),
    ("p5-standalone-triangle", _fuzz_games(lambda r: PathFamily(5), "p-p5"),
     _triangle_free_components),
    ("star-min-degree", _star_games, _low_min_degree),
)


def _check_fuzz_sizes(suite: str, games: int, n_max: int) -> None:
    """Reject sizes under which a fuzz suite would check nothing, and an
    n_max that no graph reaches, before any game is played."""
    _check_at_least(suite, "n_max", n_max, 4)
    if n_max > MAX_VERTICES:
        raise ValueError(f"{suite} needs n_max <= {MAX_VERTICES}, got n_max={n_max}")
    _check_at_least(suite, "games", games, 1)


def suite_claims(games: int = 10000, n_max: int = 20, seed: int = 0) -> list[Check]:
    """Zero-violation fuzz of the structural claims behind each strategy."""
    _check_fuzz_sizes("suite_claims", games, n_max)
    rng = random.Random(seed)
    per = max(1, games // len(CLAIMS))
    checks = []
    for name, source, violations in CLAIMS:
        bad = sum(violations(rec) for rec in source(rng, per, n_max))
        checks.append(Check("claims", name, bad == 0, f"{per} games, {bad} violations"))
    return checks


# --- algebra and trace statistics ------------------------------------------------


def suite_algebra(seed: int = 0, games: int = 400, n_max: int = 20) -> list[Check]:
    _check_fuzz_sizes("suite_algebra", games, n_max)
    bad = 0
    total = 0
    for k in range(2, 51):
        for n in (10, 100, 1000):
            fs = f_sequence(n, k)
            for i in range(k):
                total += 1
                if fs[i] != f_closed(n, k, i):
                    bad += 1
    checks = [
        Check("algebra", "f-recurrence-closed-form", bad == 0,
              f"{total} values, {bad} mismatches")
    ]

    rng = random.Random(seed)
    lam_bad = 0
    budget_bad = 0
    count = 0
    for rec in _star_games(rng, games, n_max):
        count += 1
        k = _star_k(rec)
        stats = trace_stats(rec, k)
        fs = f_sequence(rec.n, k)
        for i, th in enumerate(stats.thresholds):
            if th is None:
                continue
            if Fraction(th.g, k - i) > th.lam:
                lam_bad += 1
            if th.g > fs[i]:
                budget_bad += 1
    checks.append(Check("algebra", "trace-lambda-bound", lam_bad == 0,
                        f"{count} games, {lam_bad} violations"))
    checks.append(Check("algebra", "trace-excess-budget", budget_bad == 0,
                        f"{count} games, {budget_bad} violations"))
    return checks


def shared_table_checks(n: int) -> list[Check]:
    """One table solves several games in turn; each score equals a fresh solve."""
    table: dict = {}
    checks = []
    for family, variant in [
        (PathFamily(4), Variant.STANDARD),
        (PathFamily(4), Variant.PROLONGER_MAY_PASS),
        (PathFamily(5), Variant.STANDARD),
        (TreeFamily(4), Variant.STANDARD),
    ]:
        shared = solve(n, family, variant, table=table).score
        fresh = solve(n, family, variant).score
        checks.append(Check("determinism",
                            f"shared-table {family_name(family)} {variant.value} n={n}",
                            shared == fresh, f"shared={shared} fresh={fresh}"))
    return checks


def suite_determinism(seed: int = 0) -> list[Check]:
    checks = shared_table_checks(6)
    first = solve(6, PathFamily(5)).score
    again = solve(6, PathFamily(5)).score  # fresh table each call
    checks.append(Check("determinism", "fresh-table-stable",
                        first == again, f"first={first} second={again}"))
    a = render_report(suite_claims(games=60, n_max=12, seed=seed))
    b = render_report(suite_claims(games=60, n_max=12, seed=seed))
    checks.append(Check("determinism", "seeded-report-stable",
                        a == b, f"{len(a)} bytes each"))
    return checks


SUITES: dict[str, Callable[..., list[Check]]] = {
    "p4": suite_p4,
    "p5": suite_p5,
    "trees": suite_trees,
    "pass": suite_pass,
    "claims": suite_claims,
    "algebra": suite_algebra,
    "determinism": suite_determinism,
}


def run_suites(
    names: Iterable[str],
    n_max: Optional[int] = None,
    games: Optional[int] = None,
    seed: int = 0,
) -> list[Check]:
    """Run the named suites in turn, passing each option that is given to
    every suite that takes a parameter of that name."""
    given = {"n_max": n_max, "games": games, "seed": seed}
    checks: list[Check] = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        suite = SUITES[name]
        code = suite.__code__
        takes = code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]
        checks += suite(**{k: v for k, v in given.items() if v is not None and k in takes})
    return checks
