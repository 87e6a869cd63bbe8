"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` (or `satgame verify`).
The fuzzed-claims criterion plays ten thousand games and dominates the runtime.
"""

from satgame.analysis import SATURATED_CAP, classify_p4_saturated, classify_p5_saturated
from satgame.cli import main as cli_main
from satgame.engine import Variant
from satgame.families import PathFamily
from satgame.verify import (
    Check,
    anchor_checks,
    classifier_checks,
    response_checks,
    shared_table_checks,
    solve_checks,
    suite_algebra,
    suite_claims,
    suite_pass,
    suite_trees,
    window_rows,
)


def report(criterion: str, checks: list[Check]) -> None:
    failed = [c for c in checks if not c.passed]
    status = "PASS" if not failed else "FAIL"
    print(f"{status} {criterion} ({len(checks)} checks)")
    for c in failed:
        print(f"  {c.render()}")
    assert not failed, f"{criterion}: {len(failed)} of {len(checks)} checks failed"


def test_criterion_1_p4_window_and_anchors():
    rows = window_rows(PathFamily(4), Variant.STANDARD, range(3, 9), time_cap=60.0)
    checks = solve_checks("p4", rows)
    checks += anchor_checks()
    report("criterion 1: 4-path solve windows with oracle anchors", checks)


def test_criterion_2_p5_window():
    rows = window_rows(PathFamily(5), Variant.STANDARD, range(4, 9), time_cap=300.0)
    checks = solve_checks("p5", rows)
    report("criterion 2: 5-path solve windows", checks)


def test_criterion_3_tree_formula_exact():
    report("criterion 3: tree-game scores equal the closed formula", suite_trees(n_max=9))


def test_criterion_4_pass_variant_floor():
    report("criterion 4: pass-variant floor against the traceable script", suite_pass())


def test_criterion_5_one_sided_guarantees():
    checks = response_checks(4, 8) + response_checks(5, 8)
    report("criterion 5: one-sided strategy guarantees", checks)


def test_criterion_6_classifier_equals_whole_graph_oracle():
    checks = classifier_checks("p4", PathFamily(4), classify_p4_saturated, SATURATED_CAP)
    checks += classifier_checks("p5", PathFamily(5), classify_p5_saturated, SATURATED_CAP)
    report("criterion 6: classifier equals the whole-graph is_free oracle", checks)


def test_criterion_7_claim_invariants_fuzzed():
    checks = suite_claims(games=10000, n_max=20, seed=0)
    report("criterion 7: strategy claim invariants, zero violations", checks)


def test_criterion_8_algebra_and_traces():
    checks = suite_algebra(seed=0, games=600)
    report("criterion 8: excess-degree algebra and trace inequalities", checks)


def test_criterion_9_determinism(tmp_path):
    checks = []
    # byte-identical verify reports for equal seeds
    outs = []
    for name in ("a.txt", "b.txt"):
        path = tmp_path / name
        code = cli_main(["verify", "--suite", "claims", "--games", "60",
                         "--n-max", "12", "--seed", "5", "--out", str(path)])
        assert code == 0
        outs.append(path.read_bytes())
    checks.append(Check("determinism", "verify-byte-identical", outs[0] == outs[1],
                        f"{len(outs[0])} bytes"))
    outs = []
    for name in ("c.txt", "d.txt"):
        path = tmp_path / name
        cli_main(["verify", "--suite", "algebra", "--games", "40",
                  "--seed", "7", "--out", str(path)])
        outs.append(path.read_bytes())
    checks.append(Check("determinism", "verify-algebra-byte-identical", outs[0] == outs[1],
                        f"{len(outs[0])} bytes"))
    # scores do not depend on what a shared table solved before
    checks += shared_table_checks(7)
    report("criterion 9: determinism", checks)
