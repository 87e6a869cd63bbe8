"""Command-line front end: solve, play, sweep, verify, enumerate.

Exit codes: 0 all good, 1 a verification failed, 2 usage error, 3 a solver
cap or budget was hit. Machine-readable outputs carry no timing fields, so
identical configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys
from typing import Callable, Optional

from .analysis import SATURATED_CAP, SaturatedClass, component_labels, saturated_graphs
from .engine import IllegalStrategyActionError, Player, Variant, play
from .families import ForbiddenFamily, family_name, parse_family
from .graph import MAX_VERTICES, to_graph6
from .solver import DEFAULT_N_CAP, CapExceeded
from .strategies import Strategy, make_strategy
from .verify import BOTH_PLAYERS, SUITES, render_report, run_suites, window_rows

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAPPED = 3


def _family(text: str) -> ForbiddenFamily:
    try:
        return parse_family(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _n_range(text: str) -> list[int]:
    lo, sep, hi = text.partition("..")
    try:
        a = int(lo)
        b = int(hi) if sep else a
        if not 1 <= a <= b <= MAX_VERTICES:
            raise ValueError
        return list(range(a, b + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad n or n-range {text!r}; use e.g. 6 or 4..8, with n >= 1 and n <= {MAX_VERTICES}"
        )


def _positive(kind: type) -> Callable[[str], float]:
    """An argparse type for a cap: a `kind` number above 0."""

    def parse(text: str):
        try:
            value = kind(text)
            if not value > 0:
                raise ValueError
            return value
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad cap {text!r}; want {kind.__name__} > 0")

    return parse


def _first(text: str) -> Player:
    try:
        return Player(text)
    except ValueError:
        raise argparse.ArgumentTypeError("first mover must be P or S")


def _variant(text: str) -> Variant:
    try:
        return Variant(text)
    except ValueError:
        raise argparse.ArgumentTypeError("variant must be standard or pass")


def _write(text: str, out: Optional[str]) -> None:
    """Write `text` to the file `out`, or to standard output without one."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(rows: list[dict], columns: list[str], fmt: str, out: Optional[str]) -> None:
    buf = io.StringIO()
    if fmt == "csv":
        writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    else:
        for row in rows:
            buf.write(json.dumps({c: row.get(c, "") for c in columns}, sort_keys=True))
            buf.write("\n")
    _write(buf.getvalue(), out)


def cmd_solve(args: argparse.Namespace) -> int:
    firsts = [args.first] if args.first else BOTH_PLAYERS
    rows = []
    verdicts = []
    for n, first, score, rep, holds in window_rows(
        args.family, args.variant, args.n, firsts,
        n_cap=args.n_cap, node_cap=args.node_cap, time_cap=args.time_cap,
    ):
        # a column that a row leaves out is written empty
        row = {"family": family_name(args.family), "variant": args.variant.value,
               "first": first.value, "n": n, "status": "ok", "score": score}
        if isinstance(score, str):
            row.update(status="unsolved", score=None, note=score)
        elif rep is not None:
            # the column reports the printed window; a noted window is a single
            # non-integer point that no score meets, which the verdict excuses
            row.update(lower=str(rep.lower), upper=str(rep.upper), note=rep.note,
                       holds=str(rep.admits(score)).lower())
        rows.append(row)
        verdicts.append(holds)
    columns = ["family", "variant", "first", "n", "status", "score",
               "lower", "upper", "holds", "note"]
    _emit(rows, columns, args.format, args.out)
    if any(row["status"] == "unsolved" for row in rows):
        return EXIT_CAPPED
    return EXIT_FAIL if False in verdicts else EXIT_OK


def _seated(name: str, seat: Player, seed: int) -> Strategy:
    """The strategy `name` in the seat of `seat`, refused when its `side`
    names the other player."""
    strategy = make_strategy(name, default_seed=seed)
    if strategy.side not in (None, seat):
        raise ValueError(f"strategy {name!r} plays {strategy.side.name.lower()}, "
                         f"not {seat.name.lower()}")
    return strategy


def cmd_play(args: argparse.Namespace) -> int:
    if len(args.n) > 1:
        raise ValueError("play takes a single n; use sweep for a range of n")
    strat_p = _seated(args.prolonger, Player.PROLONGER, args.seed)
    strat_s = _seated(args.shortener, Player.SHORTENER, args.seed)
    try:
        record = play(args.n[0], args.family, args.variant, args.first or Player.PROLONGER,
                      strat_p, strat_s)
    except IllegalStrategyActionError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_FAIL
    _write(record.to_json() + "\n", args.out)
    sys.stdout.write(f"score {record.score}\n")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    firsts = [args.first] if args.first else BOTH_PLAYERS
    pnames, snames = args.prolonger.split(","), args.shortener.split(",")
    # every name is resolved and seated, so a bad one refused, before any game
    seated = {(name, seat): _seated(name, seat, args.seed)
              for names, seat in ((pnames, Player.PROLONGER), (snames, Player.SHORTENER))
              for name in names}
    cells = sorted(itertools.product(args.n, [first.value for first in firsts], pnames, snames))

    rows = []
    for n, first, pname, sname in cells:
        record = play(n, args.family, args.variant, Player(first),
                      seated[pname, Player.PROLONGER], seated[sname, Player.SHORTENER])
        rows.append({
            "family": family_name(args.family),
            "variant": args.variant.value,
            "first": first,
            "n": n,
            "prolonger": pname,
            "shortener": sname,
            "score": record.score,
            "terminal_graph6": to_graph6(record.terminal),
        })
    columns = ["family", "variant", "first", "n", "prolonger", "shortener",
               "score", "terminal_graph6"]
    _emit(rows, columns, args.format, args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks = run_suites(names, n_max=args.n_max, games=args.games, seed=args.seed)
    text = render_report(checks)
    if args.out:
        _write(text, args.out)
    sys.stdout.write(text)
    return EXIT_OK if all(c.passed for c in checks) else EXIT_FAIL


def cmd_enumerate(args: argparse.Namespace) -> int:
    if args.n[-1] > SATURATED_CAP:  # before any n of the range is enumerated
        raise CapExceeded(f"enumerate: saturated_graphs capped at n <= {SATURATED_CAP}, "
                          f"got n={args.n[-1]}")
    graphs = [g for n in args.n for g in saturated_graphs(n, args.family)]
    lines = [f"{to_graph6(g)}\t{SaturatedClass(component_labels(g)).display()}" for g in graphs]
    _write("".join(line + "\n" for line in lines), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satgame",
        description="Play, sweep, exactly solve and verify saturation games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    options = {
        "--family": dict(type=_family, required=True,
                         help="P4, P5, Pk:7, Trees:5, Star:4 or List:<graph6>,..."),
        "--n": dict(type=_n_range, default=[6], help="n or inclusive range a..b"),
        "--variant": dict(type=_variant, default=Variant.STANDARD),
        "--first": dict(type=_first, default=None, help="P or S"),
        "--seed": dict(type=int, default=0),
        "--out": dict(default=None),
        "--format": dict(choices=("csv", "jsonl"), default="csv"),
    }

    def add(p, *names):
        for name in names:
            p.add_argument(name, **options[name])

    p_solve = sub.add_parser("solve", help="exact scores with matching score windows")
    add(p_solve, "--family", "--n", "--variant", "--first", "--out", "--format")
    p_solve.add_argument("--n-cap", type=_positive(int), default=DEFAULT_N_CAP)
    p_solve.add_argument("--node-cap", type=_positive(int), default=None)
    p_solve.add_argument("--time-cap", type=_positive(float), default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_play = sub.add_parser("play", help="one game between named strategies")
    add(p_play, "--family", "--n", "--variant", "--first", "--seed", "--out")
    p_play.add_argument("--prolonger", required=True)
    p_play.add_argument("--shortener", required=True)
    p_play.set_defaults(func=cmd_play)

    p_sweep = sub.add_parser("sweep", help="score table over n and strategy pairs")
    add(p_sweep, "--family", "--n", "--variant", "--first", "--seed", "--out", "--format")
    p_sweep.add_argument("--prolonger", required=True, help="comma-separated strategy names")
    p_sweep.add_argument("--shortener", required=True, help="comma-separated strategy names")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run acceptance suites")
    p_verify.add_argument("--suite", default="all", choices=["all", *SUITES])
    p_verify.add_argument("--n-max", type=int, default=None)
    p_verify.add_argument("--games", type=int, default=None)
    add(p_verify, "--seed", "--out")
    p_verify.set_defaults(func=cmd_verify)

    p_enum = sub.add_parser("enumerate", help="saturated graphs up to isomorphism")
    add(p_enum, "--family", "--n", "--out")
    p_enum.set_defaults(func=cmd_enumerate)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_CAPPED
    except ValueError as exc:  # bad strategy names, suite names, sizes
        sys.stderr.write(f"{exc}\n")
        return EXIT_USAGE
    except OSError as exc:  # an output that cannot be written, such as a bad --out path
        target = exc.filename or args.out or "standard output"
        sys.stderr.write(f"cannot write {target}: {exc.strerror}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
