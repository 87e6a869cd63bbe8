import hashlib

import pytest

from satgame import verify
from satgame.verify import (
    render_report,
    suite_algebra,
    suite_claims,
    suite_determinism,
    suite_p4,
    suite_p5,
    suite_pass,
    suite_trees,
)

# sha256 of one report over small runs of every suite (83 lines). A change to
# a window, a claim check or the order of the seeded draws changes it.
REPORT_SHA256 = "bee589a196764f7dfb41c9fa7c1226d6fd09c649afbab12d2102e928ac651442"


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
