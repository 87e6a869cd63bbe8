import hashlib
import re

import pytest

from satgame import verify
from satgame.analysis import SATURATED_CAP, CapExceeded, classify_p4_saturated, window
from satgame.engine import Player, Variant
from satgame.families import PathFamily, TreeFamily, parse_family
from satgame.verify import (
    classifier_checks,
    render_report,
    response_checks,
    solve_checks,
    suite_algebra,
    suite_claims,
    suite_determinism,
    suite_p4,
    suite_p5,
    suite_pass,
    suite_trees,
    window_rows,
)

# sha256 of one report over small runs of every suite (83 lines). A change to
# a window, a claim check or the order of the seeded draws changes it.
REPORT_SHA256 = "4cd2236967563effd1bfba927a5a47b677a3d6a1c9fbad7d4d2296e08a000e02"


def test_report_digest_unchanged():
    checks = (
        suite_p4(n_max=7)
        + suite_p5(n_max=7)
        + suite_trees(n_max=8)
        + suite_pass()
        + suite_claims(games=120, n_max=12, seed=0)
        + suite_algebra(seed=0, games=60)
        + suite_determinism()
    )
    text = render_report(checks)
    assert len(text.splitlines()) == 83
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256


@pytest.mark.parametrize("family, classifier", [
    (PathFamily(4), lambda g: g),  # accepts every graph
    (PathFamily(4), lambda g: None),  # rejects every graph
    (PathFamily(5), classify_p4_saturated),  # the other game's grammar
], ids=["accept-all", "reject-all", "p4-grammar-for-p5"])
def test_classifier_oracle_reports_a_wrong_classifier(family, classifier):
    (check,) = classifier_checks("p", family, classifier, SATURATED_CAP)
    mismatches = int(re.fullmatch(r"\d+ free graphs, (\d+) mismatches", check.detail)[1])
    assert not check.passed and mismatches > 0


def test_claims_below_the_large_star_domain_play_only_the_small_star():
    checks = suite_claims(games=24, n_max=4, seed=1)
    assert [c.name for c in checks][-1] == "star-min-degree"
    assert all(c.passed for c in checks)


@pytest.mark.parametrize("n_max", [3, 0, -2])
def test_claims_reject_games_too_small_to_fuzz(n_max):
    with pytest.raises(ValueError, match="n_max"):
        suite_claims(games=6, n_max=n_max)


@pytest.mark.parametrize("suite", ["suite_claims", "suite_algebra"])
@pytest.mark.parametrize("n_max", [65, 10**9])
def test_fuzz_suites_reject_more_vertices_than_a_graph_holds(monkeypatch, suite, n_max):
    # rejected before any game is drawn or any window computed
    def no_games(*args):
        raise AssertionError("a game was drawn")

    monkeypatch.setattr(verify, "_star_games", no_games)
    monkeypatch.setattr(verify, "CLAIMS", [(name, no_games, check)
                                           for name, _, check in verify.CLAIMS])
    with pytest.raises(ValueError, match="n_max <= 64"):
        getattr(verify, suite)(games=6, n_max=n_max)


@pytest.mark.parametrize("suite, least, first", [
    (suite_p4, 3, "solve-window n=3 first=P"),
    (suite_p5, 4, "solve-window n=4 first=P"),
    (suite_trees, 4, "formula k=3 n=4 first=P"),  # n = 3 is 1 mod k-1 for k = 3
])
def test_window_suites_need_an_n_whose_score_they_check(suite, least, first):
    with pytest.raises(ValueError, match="n_max"):
        suite(n_max=least - 1)
    assert suite(n_max=least)[0].name == first


def test_each_option_goes_to_every_suite_that_takes_it(monkeypatch):
    seen = []

    def takes_all(n_max=0, games=0, seed=0):
        seen.append((n_max, games, seed))
        return []

    def takes_n_max(n_max=0):
        seen.append((n_max,))
        return []

    def takes_none():
        seen.append(())
        return []

    monkeypatch.setattr(verify, "SUITES", {"a": takes_all, "b": takes_n_max, "c": takes_none})
    verify.run_suites(["a", "b", "c"], n_max=5, games=7, seed=3)
    verify.run_suites(["a"])
    assert seen == [(5, 7, 3), (5,), (), (0, 0, 0)]


# --- the window-row verdict, against windows computed here ---------------------


def test_solve_row_holds_iff_its_score_lies_within_both_ends():
    games = [("P4", range(3, 8)), ("P5", range(4, 7)), ("Trees:4", range(4, 8)),
             ("Trees:5", [9])]  # Trees:5 n=9 with Shortener first scores below
    verdicts = []
    for spec, ns in games:
        family = parse_family(spec)
        for n, first, score, rep, holds in window_rows(family, Variant.STANDARD, ns):
            expected = window(family, Variant.STANDARD, n)
            assert rep == expected and not expected.note
            assert holds is (expected.lower <= score <= expected.upper)
            verdicts.append(holds)
    assert False in verdicts and True in verdicts


P, S = Player.PROLONGER, Player.SHORTENER


@pytest.mark.parametrize("spec, script, ns, fails", [
    ("P4", "s-p4", range(3, 8), []),
    ("P5", "s-p5", range(4, 7), []),
    ("P4", "s-p5", range(4, 7), [(6, P), (6, S)]),  # a 5-path script in the 4-path game
])
def test_shortener_script_row_holds_iff_at_most_the_upper_end(spec, script, ns, fails):
    family = parse_family(spec)
    rows = list(window_rows(family, Variant.STANDARD, ns, script=script))
    for n, _, score, _, holds in rows:
        assert holds is (score <= window(family, Variant.STANDARD, n).upper)
    assert [(n, first) for n, first, *_, holds in rows if not holds] == fails


@pytest.mark.parametrize("spec, script, ns, fails", [
    ("P4", "p-p4", range(3, 8), []),
    ("P5", "p-p5", range(4, 7), []),
    ("P4", "traceable", range(4, 7), [(6, S)]),
])
def test_prolonger_script_row_holds_iff_at_least_the_lower_end(spec, script, ns, fails):
    family = parse_family(spec)
    rows = list(window_rows(family, Variant.STANDARD, ns, script=script))
    for n, _, score, _, holds in rows:
        assert holds is (score >= window(family, Variant.STANDARD, n).lower)
    assert [(n, first) for n, first, *_, holds in rows if not holds] == fails


def test_noted_tree_residue_row_holds():
    family = TreeFamily(3)
    rows = list(window_rows(family, Variant.STANDARD, [3, 5]))
    assert len(rows) == 4
    for n, _, score, rep, holds in rows:
        expected = window(family, Variant.STANDARD, n)
        assert expected.note and rep == expected
        assert not expected.lower <= score <= expected.upper
        assert holds is True


def test_one_shot_first_movers_give_rows_for_every_n():
    rows = list(window_rows(PathFamily(4), Variant.STANDARD, [4, 5], iter((P, S))))
    assert [(n, first) for n, first, *_ in rows] == [(4, P), (4, S), (5, P), (5, S)]


def test_a_script_without_a_side_is_refused():
    # else the row would report the plain game value as a best response that holds
    rows = window_rows(PathFamily(4), Variant.STANDARD, [6], (P,), "greedy-min")
    with pytest.raises(ValueError, match="a script needs the side it plays"):
        next(rows)


def test_row_with_no_window_has_no_verdict():
    rows = list(window_rows(parse_family("List:Cl"), Variant.STANDARD, [5]))
    assert [(rep, holds) for *_, rep, holds in rows] == [(None, None)] * 2


def test_capped_row_is_unsolved_and_fails():
    [row] = window_rows(PathFamily(5), Variant.STANDARD, [8], (P,), node_cap=1)
    n, first, score, rep, holds = row
    assert score == "node cap 1 exceeded" and holds is False
    assert rep == window(PathFamily(5), Variant.STANDARD, 8)
    [check] = solve_checks("p5", [row])
    assert not check.passed and check.detail == "unsolved: node cap 1 exceeded"


def test_capped_script_row_is_unsolved_and_fails():
    [row] = window_rows(PathFamily(4), Variant.STANDARD, [5], (P,), "s-p4", node_cap=1)
    n, first, score, rep, holds = row
    assert score == "node cap 1 exceeded" and holds is False
    assert rep == window(PathFamily(4), Variant.STANDARD, 5)


def test_script_rows_take_a_time_cap():
    rows = list(window_rows(PathFamily(4), Variant.STANDARD, [5], script="s-p4", time_cap=5.0))
    assert [(score, holds) for _, _, score, _, holds in rows] == [(4, True), (4, True)]


@pytest.mark.parametrize("checks", [
    lambda: solve_checks("p4", window_rows(PathFamily(4), Variant.STANDARD, [5, 6])),
    lambda: response_checks(4, 5),
    lambda: suite_trees(5),
    suite_pass,
], ids=["solve_checks", "response_checks", "suite_trees", "suite_pass"])
def test_every_window_suite_renders_unsolved_rows_alike(monkeypatch, checks):
    def capped(n, *args, **kwargs):
        raise CapExceeded(f"n={n} exceeds the solver cap 2")

    monkeypatch.setattr(verify, "solve", capped)
    monkeypatch.setattr(verify, "best_response", capped)
    rendered = checks()
    assert rendered
    for check in rendered:
        n = re.search(r"n=(\d+)", check.name).group(1)
        assert not check.passed
        assert check.detail == f"unsolved: n={n} exceeds the solver cap 2"
