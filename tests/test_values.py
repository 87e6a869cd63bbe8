"""The library's value types: their constructors, equality, hashes, reprs
and immutability, and a package import that loads neither `dataclasses` nor
`inspect`."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from satgame.analysis import BoundReport, SaturatedClass, ThresholdStat, TraceStats
from satgame.engine import Action, GameRecord, GameState, Player, Variant, play
from satgame.families import ExplicitFamily, PathFamily, StarFamily, TreeFamily
from satgame.graph import Graph
from satgame.shapes import ComponentLabel
from satgame.solver import SolveResult
from satgame.strategies import Strategy, make_strategy
from satgame.verify import Check

SRC = Path(__file__).resolve().parent.parent / "src"


def values():
    """One value of each frozen type, built afresh on each call, with its
    repr."""
    g = Graph.from_edges(3, [(0, 1)])
    label = ComponentLabel("star", 2)
    stat = ThresholdStat(1, 2, 3)
    record = GameRecord(3, PathFamily(3), Variant.STANDARD, Player.PROLONGER,
                        ((Player.PROLONGER, Action((0, 1))),), g, 1)
    return [
        (PathFamily(4), "PathFamily(k=4)"),
        (TreeFamily(5), "TreeFamily(k=5)"),
        (StarFamily(3), "StarFamily(leaves=3)"),
        (ExplicitFamily((Graph.from_edges(2, [(0, 1)]),)),
         "ExplicitFamily(members=(Graph(n=2, adj=(2, 1), m=1),))"),
        (g, "Graph(n=3, adj=(2, 1, 0), m=1)"),
        (Action(None), "Action(edge=None)"),
        (Action((0, 1)), "Action(edge=(0, 1))"),
        (GameState(g, Player.SHORTENER, PathFamily(4)),
         "GameState(graph=Graph(n=3, adj=(2, 1, 0), m=1), to_move=<Player.SHORTENER: 'S'>, "
         "family=PathFamily(k=4), variant=<Variant.STANDARD: 'standard'>, "
         "first_mover=<Player.PROLONGER: 'P'>)"),
        (record,
         "GameRecord(n=3, family=PathFamily(k=3), variant=<Variant.STANDARD: 'standard'>, "
         "first_mover=<Player.PROLONGER: 'P'>, actions=((<Player.PROLONGER: 'P'>, "
         "Action(edge=(0, 1))),), terminal=Graph(n=3, adj=(2, 1, 0), m=1), score=1)"),
        (Strategy("x", len), "Strategy(name='x', decide=<built-in function len>, side=None)"),
        (Strategy("y", len, Player.PROLONGER),
         "Strategy(name='y', decide=<built-in function len>, side=<Player.PROLONGER: 'P'>)"),
        (label, "ComponentLabel(kind='star', a=2, b=0)"),
        (ComponentLabel("clique", 1), "ComponentLabel(kind='clique', a=1, b=0)"),
        (SaturatedClass((label,)), "SaturatedClass(labels=(ComponentLabel(kind='star', a=2, b=0),))"),
        (BoundReport("2.3", 5, None, Fraction(4), Fraction(7, 2)),
         "BoundReport(theorem='2.3', n=5, k=None, lower=Fraction(4, 1), upper=Fraction(7, 2), "
         "observed=None, exact=False, note='')"),
        (BoundReport("2.4", 9, 5, Fraction(1), Fraction(2), 1, True, "n"),
         "BoundReport(theorem='2.4', n=9, k=5, lower=Fraction(1, 1), upper=Fraction(2, 1), "
         "observed=1, exact=True, note='n')"),
        (stat, "ThresholdStat(t=1, g=2, lam=3)"),
        (TraceStats((None, stat), (2, 1)),
         "TraceStats(thresholds=(None, ThresholdStat(t=1, g=2, lam=3)), new_vertex_usage=(2, 1))"),
        (Check("p4", "x", True, "d"), "Check(suite='p4', name='x', passed=True, detail='d')"),
    ]


@pytest.mark.parametrize("i", range(len(values())))
def test_frozen_value_repr_equality_and_hash(i):
    value, text = values()[i]
    twin, _ = values()[i]
    assert repr(value) == text
    assert value == twin and not value != twin and hash(value) == hash(twin)
    assert value != object() and value != text


@pytest.mark.parametrize("i", range(len(values())))
def test_frozen_value_refuses_assignment_and_deletion(i):
    value, _ = values()[i]
    name = next(iter(type(value).__annotations__))
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert getattr(value, name) is before


def test_hash_is_the_hash_of_the_field_tuple():
    for value, _ in values():
        fields = tuple(getattr(value, f) for f in type(value).__annotations__)
        assert value._key == fields and hash(value) == hash(fields), value
    assert hash(Graph(2, (2, 1), 1)) == hash((2, (2, 1), 1))
    assert hash(PathFamily(4)) == hash((4,))
    assert hash(ComponentLabel("star", 2)) == hash(("star", 2, 0))


def test_families_of_one_size_are_pairwise_unequal():
    # the legality table is kept per family, so P4 and Trees:4 must not share it
    families = [PathFamily(4), TreeFamily(4), StarFamily(4)]
    for a in families:
        for b in families:
            assert (a == b) is (a is b)
    assert len({("legal_table", f) for f in families}) == 3


@pytest.mark.parametrize("make", [lambda: PathFamily(1), lambda: TreeFamily(1),
                                  lambda: StarFamily(1), lambda: ExplicitFamily(()),
                                  lambda: ExplicitFamily((Graph.empty(2),)),
                                  lambda: ExplicitFamily((Graph.from_edges(4, [(0, 1), (2, 3)]),))])
def test_constructors_check_their_fields(make):
    with pytest.raises(ValueError):
        make()


def test_solve_result_is_mutable_and_unhashable():
    res = SolveResult(1, [Action((0, 1))], 2)
    assert repr(res) == ("SolveResult(score=1, principal_variation=[Action(edge=(0, 1))], "
                         "positions_expanded=2)")
    assert res == SolveResult(1, [Action((0, 1))], 2) and res != SolveResult(1, [], 2)
    res.score = 3
    res.principal_variation.append(Action((1, 2)))
    assert res == SolveResult(3, [Action((0, 1)), Action((1, 2))], 2)
    with pytest.raises(TypeError):
        hash(res)


def test_caches_outside_the_fields_still_fill():
    g = Graph.from_edges(3, [(0, 1)])
    g.components()
    assert "components" in g.memo and g == Graph(3, g.adj, 1)
    family = ExplicitFamily((Graph.from_edges(2, [(0, 1)]),))
    assert family.anchored is family.anchored and "anchored" in family.__dict__
    rec = play(4, PathFamily(3), Variant.STANDARD, Player.PROLONGER,
               make_strategy("random"), make_strategy("random"))
    assert "states" in rec.__dict__ and rec.replay()[-1].graph == rec.terminal


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            "import satgame, satgame.verify, satgame.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out == "[]\n"
