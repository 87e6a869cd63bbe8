"""The benchmark's workloads: the tasks of one operation, and their checks.

One operation of a workload runs each of its tasks once, each cold in a
fresh process. A task's `run` returns its result and the exact counts it
exposes; `check` verifies the result against the published values with
independent oracles (whole-graph `is_free`, never the incremental legality
the task exercises) and returns one message per failed check. Every task is
deterministic, so the run's seed changes no input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

# graph6 of the 4-cycle, the explicit family of the second enumeration
C4 = "Cl"
# One claims suite, the same in every run. Suites drawn from the run's seed
# differ in cost by 17% (quartile spread over five seeds, 120 games each),
# because the game sizes they draw (n in 4..20) do.
PLAY_GAMES = 300
PLAY_N_MAX = 20
PLAY_SEED = 0


@dataclass(frozen=True)
class Task:
    name: str
    run: Callable  # (satgame) -> (result, counts)
    check: Callable  # (satgame, result, expected) -> list[str]
    expected: dict


def oracle_saturated(sg, g, family) -> list[str]:
    """Freeness oracle: g is free and every absent edge breaks freeness."""
    if not sg.is_free(g, family):
        return [f"{sg.to_graph6(g)} is not free"]
    legal = [e for e in g.absent_edges() if sg.is_free(g.add_edge(*e), family)]
    return [f"{sg.to_graph6(g)} is not saturated: {legal[0]} stays free"] if legal else []


def _pv_failures(sg, n, family, res) -> list[str]:
    g = sg.Graph.empty(n)
    for action in res.principal_variation:
        if action.is_pass or g.has_edge(*action.edge):
            return [f"principal variation plays {action} on {sg.to_graph6(g)}"]
        g = g.add_edge(*action.edge)
        if not sg.is_free(g, family):
            return [f"principal variation move {action} is illegal"]
    out = oracle_saturated(sg, g, family)
    if g.m != res.score:
        out.append(f"principal variation ends with {g.m} edges, score is {res.score}")
    return out


def _search(name: str, n: int, family: str, score: int, theorem: str, k: Optional[int],
            strategy: Optional[str] = None) -> Task:
    """Exact value with Prolonger first: `solve`, or `best_response` to the
    scripted `strategy`."""

    def run(sg):
        fam = sg.parse_family(family)
        if strategy is None:
            table: dict = {}
            res = sg.solve(n, fam, n_cap=n, table=table)
            return res, {"score": res.score, "positions": res.positions_expanded,
                         "table_entries": len(table)}
        scripted = sg.make_strategy(strategy)
        res = sg.best_response(n, fam, sg.Variant.STANDARD, scripted, scripted.side, n_cap=n)
        return res, {"score": res.score, "positions": res.positions_expanded}

    def check(sg, res, expected):
        out = []
        if res.score != expected["score"]:
            out.append(f"score {res.score}, expected {expected['score']}")
        if not sg.bound(theorem, n, k, observed=res.score).holds:
            out.append(f"score {res.score} outside the theorem {theorem} window")
        return out + _pv_failures(sg, n, sg.parse_family(family), res)

    return Task(name, run, check, {"score": score})


def _play_run(sg):
    checks = sg.verify.suite_claims(games=PLAY_GAMES, n_max=PLAY_N_MAX, seed=PLAY_SEED)
    return checks, {"checks": len(checks)}


def _play_check(sg, checks, expected):
    failed = [c.render() for c in checks if not c.passed]
    if len(failed) != expected["failed_checks"]:
        return failed or [f"no claim failed, expected {expected['failed_checks']}"]
    return []


def _enumerate(name: str, n: int, family: str, count: int, classify: bool) -> Task:
    """Saturated graphs on n vertices, optionally classified for P5."""

    def run(sg):
        graphs = sg.saturated_graphs(n, sg.parse_family(family))
        classes = [sg.classify_p5_saturated(g) for g in graphs] if classify else []
        return (graphs, classes), {"graphs": len(graphs)}

    def check(sg, result, expected):
        graphs, classes = result
        out = []
        if len(graphs) != expected["graphs"]:
            out.append(f"{len(graphs)} saturated graphs, expected {expected['graphs']}")
        out += [f"classifier rejects {sg.to_graph6(g)}" for g, c in zip(graphs, classes) if c is None]
        for g in graphs:
            out += oracle_saturated(sg, g, sg.parse_family(family))
        return out

    return Task(name, run, check, {"graphs": count})


# workload name -> the tasks of one operation
WORKLOADS: dict[str, tuple[Task, ...]] = {
    "search": (
        _search("P5_n12", 12, "P5", 14, "2.3", None),
        _search("Star4_n10", 10, "Star:4", 14, "2.5", 3),
        _search("Trees5_n16", 16, "Trees:5", 24, "2.4", 5),
        _search("best_response_P5_n8", 8, "P5", 7, "2.3", None, strategy="p-p5"),
    ),
    "play": (Task("claims", _play_run, _play_check, {"failed_checks": 0}),),
    "enumerate": (
        _enumerate("P5_n9", 9, "P5", 11, classify=True),
        _enumerate("C4_n8", 8, f"List:{C4}", 15, classify=False),
    ),
}
