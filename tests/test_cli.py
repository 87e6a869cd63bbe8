import csv
import hashlib
import io
import json

import pytest

from satgame import cli
from satgame.analysis import SATURATED_CAP, CapExceeded, saturated_graphs
from satgame.cli import main
from satgame.engine import Action
from satgame.families import PathFamily
from satgame.graph import Graph, to_graph6
from satgame.strategies import Strategy


# sha256 of the concatenated stdout of the solves in `test_pinned_bytes`
SOLVE_SHA256 = "a1e632c3d83fb6a315ce7d8a1a6fde4a6a97f178c2888b43a03713ee0426b3a8"


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestSolveCommand:
    def test_csv_rows_with_bounds(self, capsys):
        code, out = run(capsys, "solve", "--family", "P4", "--n", "4..5")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4  # both first movers per n
        by_key = {(r["n"], r["first"]): r for r in rows}
        assert by_key[("4", "P")]["score"] == "2"
        assert by_key[("4", "S")]["score"] == "3"
        assert all(r["holds"] == "true" for r in rows)

    def test_single_first_mover(self, capsys):
        code, out = run(capsys, "solve", "--family", "P4", "--n", "4", "--first", "P")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1 and rows[0]["first"] == "P"

    def test_cap_exceeded_marks_unsolved(self, capsys):
        code, out = run(capsys, "solve", "--family", "P4", "--n", "64")
        assert code == 3
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(r["status"] == "unsolved" for r in rows)

    def test_game_too_deep_to_search_is_unsolved_without_traceback(self, capsys):
        code = main(["solve", "--family", "Star:60", "--n", "60", "--n-cap", "64",
                     "--time-cap", "5", "--first", "P"])
        captured = capsys.readouterr()
        assert code == 3
        [row] = csv.DictReader(io.StringIO(captured.out))
        assert row["status"] == "unsolved" and "recursion limit" in row["note"]
        assert "Traceback" not in captured.err

    def test_pinned_bytes(self, capsys):
        # stdout of five solves over every kind of row: scored windows, noted
        # Trees:3 residues (jsonl), the pass variant, a star game and a family
        # that no theorem covers
        runs = [
            ["--family", "P4", "--n", "3..8"],
            ["--family", "Trees:3", "--n", "3..9", "--format", "jsonl"],
            ["--family", "P5", "--n", "4..8", "--variant", "pass"],
            ["--family", "Star:4", "--n", "9..12", "--n-cap", "12"],
            ["--family", "List:Cl", "--n", "4..8"],
        ]
        outs = [run(capsys, "solve", *argv) for argv in runs]
        assert [code for code, _ in outs] == [0] * len(runs)
        text = "".join(out for _, out in outs)
        assert len(text.splitlines()) == 58
        assert hashlib.sha256(text.encode()).hexdigest() == SOLVE_SHA256

    def test_jsonl_format(self, capsys):
        code, out = run(capsys, "solve", "--family", "Trees:4", "--n", "6",
                        "--format", "jsonl", "--first", "P")
        row = json.loads(out.splitlines()[0])
        assert row["score"] == 6 and row["holds"] == "true"

    def test_row_outside_its_window_exits_one(self, capsys):
        # Trees:5 at n=9 with Shortener first scores below Theorem 2.4's
        # printed window and carries no note (ROADMAP item 3)
        code, out = run(capsys, "solve", "--family", "Trees:5", "--n", "9")
        assert code == 1
        rows = {r["first"]: r for r in csv.DictReader(io.StringIO(out))}
        assert (rows["P"]["score"], rows["P"]["holds"]) == ("12", "true")
        assert (rows["S"]["score"], rows["S"]["holds"], rows["S"]["note"]) == ("10", "false", "")

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--family", "NOPE", "--n", "4"])
        assert err.value.code == 2

    @pytest.mark.parametrize("family", ["List:", "List:Bw,", "List:~"])
    def test_empty_or_truncated_family_list_is_usage_error(self, capsys, family):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--family", family, "--n", "4"])
        assert err.value.code == 2
        err_text = capsys.readouterr().err
        assert "Traceback" not in err_text
        assert "graph6" in err_text.splitlines()[-1]

    def test_bad_range_rejected(self):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--family", "P4", "--n", "9..4"])
        assert err.value.code == 2

    @pytest.mark.parametrize("n", ["65", "60..65", "1..1000000000"])
    def test_more_vertices_than_a_graph_holds_is_usage_error(self, capsys, n):
        # rejected when parsed, before any list of sizes is built
        with pytest.raises(SystemExit) as err:
            main(["solve", "--family", "P4", "--n", n])
        assert err.value.code == 2
        err_lines = capsys.readouterr().err.splitlines()
        assert "n <= 64" in err_lines[-1] and "Traceback" not in err_lines[-1]

    def test_sixty_four_vertices_parse(self, capsys):
        code, out = run(capsys, "solve", "--family", "P4", "--n", "63..64", "--n-cap", "2")
        assert code == 3
        assert [r["n"] for r in csv.DictReader(io.StringIO(out))] == ["63", "63", "64", "64"]

    @pytest.mark.parametrize("option, value", [
        ("--n-cap", "-1"), ("--n-cap", "0"), ("--node-cap", "-5"), ("--node-cap", "0"),
        ("--time-cap", "-1"), ("--time-cap", "0"), ("--time-cap", "nan"),
    ])
    def test_caps_not_above_zero_are_usage_errors(self, capsys, option, value):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--family", "P4", "--n", "6", option, value])
        assert err.value.code == 2
        err_text = capsys.readouterr().err
        assert "Traceback" not in err_text
        assert option in err_text.splitlines()[-1]

    @pytest.mark.parametrize("command", ["solve", "play", "sweep", "enumerate"])
    @pytest.mark.parametrize("n", ["0", "-3", "0..4"])
    def test_no_vertices_is_usage_error(self, capsys, command, n):
        argv = [command, "--family", "P5", "--n", n]
        if command in ("play", "sweep"):
            argv += ["--prolonger", "random", "--shortener", "random"]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        err_text = capsys.readouterr().err
        assert "Traceback" not in err_text
        assert "n >= 1" in err_text.splitlines()[-1]

    @pytest.mark.parametrize("argv", [
        ["solve", "--family", "P5", "--k", "4"],
        ["solve", "--family", "P5", "--seed", "1"],
        ["play", "--family", "P5", "--prolonger", "p-p5", "--shortener", "s-p5",
         "--format", "jsonl"],
        ["enumerate", "--family", "P5", "--variant", "pass"],
        ["enumerate", "--family", "P5", "--first", "P"],
        ["enumerate", "--family", "P5", "--seed", "1"],
        ["enumerate", "--family", "P5", "--format", "jsonl"],
    ])
    def test_options_a_command_ignores_are_rejected(self, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2

    def test_unknown_strategy_is_usage_error(self, capsys):
        code = main(["play", "--family", "P4", "--n", "4",
                     "--prolonger", "nope", "--shortener", "s-p4"])
        assert code == 2

    @pytest.mark.parametrize("command, prolonger, shortener, named", [
        ("play", "p-p4:7", "s-p4", "p-p4:7"),
        ("play", "p-p4", "s-p4:oops", "s-p4:oops"),
        ("play", "random:x1", "s-p4", "x1"),
        ("sweep", "optimal:x", "s-p4", "optimal:x"),
        ("sweep", "p-p4,traceable:1", "s-p4", "traceable:1"),
        ("sweep", "p-p4", "greedy-min,random:1.5", "1.5"),
    ])
    def test_strategy_with_a_stray_argument_is_usage_error(self, capsys, command, prolonger,
                                                           shortener, named):
        code = main([command, "--family", "P4", "--n", "5", "--prolonger", prolonger,
                     "--shortener", shortener])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert named in line


class TestPlayCommand:
    def test_record_and_score(self, capsys):
        code, out = run(capsys, "play", "--family", "P5", "--n", "12",
                        "--prolonger", "p-p5", "--shortener", "s-p5", "--first", "P")
        assert code == 0
        record_line, score_line = out.splitlines()
        rec = json.loads(record_line)
        assert 11 <= rec["score"] <= 14  # the published window for this game
        assert score_line == f"score {rec['score']}"

    def test_star_game_reaches_min_degree(self, capsys):
        code, out = run(capsys, "play", "--family", "Star:4", "--n", "20",
                        "--prolonger", "p-star", "--shortener", "random:3")
        rec = json.loads(out.splitlines()[0])
        from satgame.graph import from_graph6

        assert from_graph6(rec["terminal_graph6"]).min_degree() >= 1

    def test_range_of_n_is_usage_error(self, capsys):
        code = main(["play", "--family", "P4", "--n", "4..6",
                     "--prolonger", "p-p4", "--shortener", "s-p4"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        err_lines = captured.err.splitlines()
        assert len(err_lines) == 1 and "sweep" in err_lines[0]

    @pytest.mark.parametrize("command, prolonger, shortener, named", [
        ("play", "s-p4", "s-p4", "s-p4"),
        ("play", "p-p4", "p-p4", "p-p4"),
        ("sweep", "p-p4,s-p4", "s-p4", "s-p4"),
        ("sweep", "greedy-max", "greedy-min,traceable", "traceable"),
    ])
    def test_one_sided_strategy_on_the_other_side_is_usage_error(self, capsys, command,
                                                                  prolonger, shortener, named):
        code = main([command, "--family", "P4", "--n", "6", "--prolonger", prolonger,
                     "--shortener", shortener])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert named in line

    def test_one_n_range_plays(self, capsys):
        code, out = run(capsys, "play", "--family", "P4", "--n", "5..5",
                        "--prolonger", "p-p4", "--shortener", "s-p4")
        assert code == 0 and json.loads(out.splitlines()[0])["n"] == 5

    def test_illegal_strategy_action_exits_one(self, capsys, monkeypatch):
        # plays 0-1 on every turn, so the second move repeats an edge
        bad = Strategy("bad", lambda state: Action.play(0, 1))
        monkeypatch.setattr(cli, "make_strategy", lambda name, default_seed: bad)
        code = main(["play", "--family", "P4", "--n", "5", "--prolonger", "x", "--shortener", "y"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        err_lines = captured.err.splitlines()
        assert len(err_lines) == 1
        assert to_graph6(Graph.from_edges(5, [(0, 1)])) in err_lines[0]
        assert "illegal action 0-1" in err_lines[0]
        assert "Traceback" not in captured.err

    def test_three_vertex_game(self, capsys):
        code, out = run(capsys, "play", "--family", "P4", "--n", "3",
                        "--prolonger", "random:1", "--shortener", "random:2")
        assert json.loads(out.splitlines()[0])["score"] == 3


class TestSweepCommand:
    def test_deterministic_output(self, capsys):
        args = ("sweep", "--family", "P4", "--n", "5..7",
                "--prolonger", "p-p4,random:5", "--shortener", "s-p4", "--seed", "1")
        code1, out1 = run(capsys, *args)
        code2, out2 = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        rows = list(csv.DictReader(io.StringIO(out1)))
        assert len(rows) == 3 * 2 * 2  # n values x first movers x prolonger names

    @pytest.mark.parametrize("prolonger, shortener, named", [
        ("p-p4,s-p4", "s-p4", "s-p4"),
        ("p-p4,zzz", "s-p4", "zzz"),
        ("p-p4,random:x", "s-p4", "random:x"),
        ("p-p4", "s-p4,p-p4", "p-p4"),
        ("p-p4", "s-p4,zzz", "zzz"),
        ("p-p4", "s-p4,random:x", "random:x"),
    ])
    def test_bad_name_is_refused_before_any_game(self, capsys, monkeypatch, prolonger,
                                                 shortener, named):
        games = []
        monkeypatch.setattr(cli, "play", lambda *args: games.append(args))
        code = main(["sweep", "--family", "P4", "--n", "6", "--first", "P",
                     "--prolonger", prolonger, "--shortener", shortener])
        captured = capsys.readouterr()
        assert code == 2
        assert games == []
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert named in line


class TestEnumerateCommand:
    def test_p4_classes(self, capsys):
        code, out = run(capsys, "enumerate", "--family", "P4", "--n", "4")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        labels = {line.split("\t")[1] for line in lines}
        assert labels == {"K3+K1", "K2+K2", "K1,3"}

    def test_all_same_edge_count_on_five(self, capsys):
        from satgame.graph import from_graph6

        code, out = run(capsys, "enumerate", "--family", "P4", "--n", "5")
        ms = {from_graph6(line.split("\t")[0]).m for line in out.splitlines()}
        assert ms == {4}

    def test_cap(self, capsys):
        code, _ = run(capsys, "enumerate", "--family", "P4", "--n", "12")
        assert code == 3

    def test_range_over_the_cap_is_refused_before_any_work(self, capsys, monkeypatch):
        enumerated = []
        monkeypatch.setattr(cli, "saturated_graphs", lambda n, family: enumerated.append(n) or ())
        code = main(["enumerate", "--family", "P4", "--n", "8..12"])
        out, err = capsys.readouterr()
        assert code == 3 and out == "" and enumerated == []
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert "enumerate" in err and "saturated_graphs" in err

    def test_saturated_graphs_checks_its_own_cap(self):
        with pytest.raises(CapExceeded, match="saturated_graphs"):
            saturated_graphs(SATURATED_CAP + 1, PathFamily(4))

    def test_range_enumerates_each_n_in_turn(self, capsys):
        code, out = run(capsys, "enumerate", "--family", "P4", "--n", "4..6")
        assert code == 0
        singles = [run(capsys, "enumerate", "--family", "P4", "--n", str(n))[1]
                   for n in (4, 5, 6)]
        assert out == "".join(singles)


class TestVerifyCommand:
    def test_small_suite_passes(self, capsys, tmp_path):
        out_path = tmp_path / "report.txt"
        code, out = run(capsys, "verify", "--suite", "algebra", "--games", "40",
                        "--seed", "7", "--out", str(out_path))
        assert code == 0
        assert "PASS algebra/f-recurrence-closed-form" in out
        assert out_path.read_text() == out

    def test_repeat_runs_identical(self, capsys):
        args = ("verify", "--suite", "claims", "--games", "30", "--n-max", "10", "--seed", "3")
        _, out1 = run(capsys, *args)
        _, out2 = run(capsys, *args)
        assert out1 == out2

    def test_claims_below_the_large_star_domain(self, capsys):
        code, out = run(capsys, "verify", "--suite", "claims", "--games", "12", "--n-max", "9")
        assert code == 0
        assert out.splitlines()[-1] == "OK: 6 checks, 0 failures"

    def test_claims_too_small_is_usage_error(self, capsys):
        code = main(["verify", "--suite", "claims", "--games", "12", "--n-max", "3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        err_lines = captured.err.splitlines()
        assert len(err_lines) == 1 and "n_max" in err_lines[0]
        assert "randrange" not in captured.err

    @pytest.mark.parametrize("argv, option", [
        (["--suite", "algebra", "--n-max", "3"], "n_max"),
        (["--suite", "algebra", "--games", "-3"], "games"),
        (["--suite", "algebra", "--games", "0"], "games"),
        (["--suite", "claims", "--games", "0", "--n-max", "9"], "games"),
        (["--suite", "trees", "--n-max", "-3"], "n_max"),
        (["--suite", "trees", "--n-max", "3"], "n_max"),
        (["--suite", "p4", "--n-max", "0"], "n_max"),
        (["--suite", "p5", "--n-max", "3"], "n_max"),
        (["--suite", "claims", "--n-max", "65"], "n_max <= 64"),
        (["--suite", "algebra", "--n-max", "1000000000"], "n_max <= 64"),
    ])
    def test_fuzz_sizes_that_check_nothing_are_usage_errors(self, capsys, argv, option):
        code = main(["verify", *argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        err_lines = captured.err.splitlines()
        assert len(err_lines) == 1 and option in err_lines[0]
        assert "Traceback" not in captured.err

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "nope"])
        assert err.value.code == 2


class TestOutputFiles:
    def test_out_files_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code = main(["solve", "--family", "P5", "--n", "4..6", "--out", str(path)])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_pass_variant_attaches_floor_bound(self, capsys):
        code, out = run(capsys, "solve", "--family", "P4", "--n", "6",
                        "--variant", "pass", "--first", "P")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["lower"] == "3" and rows[0]["holds"] == "true"

    @pytest.mark.parametrize("argv", [
        ["solve", "--family", "P4", "--n", "4"],
        ["play", "--family", "P4", "--n", "4", "--prolonger", "p-p4", "--shortener", "s-p4"],
        ["sweep", "--family", "P4", "--n", "4", "--prolonger", "p-p4", "--shortener", "s-p4"],
        ["verify", "--suite", "algebra", "--games", "5"],
        ["enumerate", "--family", "P5", "--n", "4"],
    ])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, argv):
        out = tmp_path / "missing" / "out.txt"
        code = main([*argv, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        assert len(err.splitlines()) == 1 and str(out) in err
        assert not out.exists()
