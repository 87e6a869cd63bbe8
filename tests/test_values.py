"""The library's value types: their constructors, equality, hashes, reprs
and immutability, and a package import that loads neither `dataclasses` nor
`inspect`."""

import inspect
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from satgame.analysis import BoundReport, SaturatedClass, ThresholdStat, TraceStats
from satgame.engine import Action, GameRecord, GameState, Player, Variant, play
from satgame.families import ExplicitFamily, PathFamily, StarFamily, TreeFamily
from satgame.graph import Frozen, Graph
from satgame.shapes import ComponentLabel
from satgame.solver import SolveResult
from satgame.strategies import Strategy, make_strategy
from satgame.verify import Check

SRC = Path(__file__).resolve().parent.parent / "src"


def _graph():
    return Graph.from_edges(3, [(0, 1)])


def _record():
    return GameRecord(3, PathFamily(3), Variant.STANDARD, Player.PROLONGER,
                      ((Player.PROLONGER, Action((0, 1))),), _graph(), 1)


# one sample of each frozen type: its type's name, how to build it and its
# repr. A test builds only its own sample, afresh, so a fault in one
# constructor fails the tests of the samples that build that type, and does
# not stop the collection of this module.
SAMPLES = [
    ("PathFamily", lambda: PathFamily(4), "PathFamily(k=4)"),
    ("TreeFamily", lambda: TreeFamily(5), "TreeFamily(k=5)"),
    ("StarFamily", lambda: StarFamily(3), "StarFamily(leaves=3)"),
    ("ExplicitFamily", lambda: ExplicitFamily((Graph.from_edges(2, [(0, 1)]),)),
     "ExplicitFamily(members=(Graph(n=2, adj=(2, 1), m=1),))"),
    ("Graph", _graph, "Graph(n=3, adj=(2, 1, 0), m=1)"),
    ("Action", lambda: Action(None), "Action(edge=None)"),
    ("Action", lambda: Action((0, 1)), "Action(edge=(0, 1))"),
    ("GameState", lambda: GameState(_graph(), Player.SHORTENER, PathFamily(4)),
     "GameState(graph=Graph(n=3, adj=(2, 1, 0), m=1), to_move=<Player.SHORTENER: 'S'>, "
     "family=PathFamily(k=4), variant=<Variant.STANDARD: 'standard'>, "
     "first_mover=<Player.PROLONGER: 'P'>)"),
    ("GameRecord", _record,
     "GameRecord(n=3, family=PathFamily(k=3), variant=<Variant.STANDARD: 'standard'>, "
     "first_mover=<Player.PROLONGER: 'P'>, actions=((<Player.PROLONGER: 'P'>, "
     "Action(edge=(0, 1))),), terminal=Graph(n=3, adj=(2, 1, 0), m=1), score=1)"),
    ("Strategy", lambda: Strategy("x", len),
     "Strategy(name='x', decide=<built-in function len>, side=None)"),
    ("Strategy", lambda: Strategy("y", len, Player.PROLONGER),
     "Strategy(name='y', decide=<built-in function len>, side=<Player.PROLONGER: 'P'>)"),
    ("ComponentLabel", lambda: ComponentLabel("star", 2),
     "ComponentLabel(kind='star', a=2, b=0)"),
    ("ComponentLabel", lambda: ComponentLabel("clique", 1),
     "ComponentLabel(kind='clique', a=1, b=0)"),
    ("SaturatedClass", lambda: SaturatedClass((ComponentLabel("star", 2),)),
     "SaturatedClass(labels=(ComponentLabel(kind='star', a=2, b=0),))"),
    ("BoundReport", lambda: BoundReport("2.3", 5, None, Fraction(4), Fraction(7, 2)),
     "BoundReport(theorem='2.3', n=5, k=None, lower=Fraction(4, 1), upper=Fraction(7, 2), "
     "observed=None, exact=False, note='')"),
    ("BoundReport", lambda: BoundReport("2.4", 9, 5, Fraction(1), Fraction(2), 1, True, "n"),
     "BoundReport(theorem='2.4', n=9, k=5, lower=Fraction(1, 1), upper=Fraction(2, 1), "
     "observed=1, exact=True, note='n')"),
    ("ThresholdStat", lambda: ThresholdStat(1, 2, 3), "ThresholdStat(t=1, g=2, lam=3)"),
    ("TraceStats", lambda: TraceStats((None, ThresholdStat(1, 2, 3)), (2, 1)),
     "TraceStats(thresholds=(None, ThresholdStat(t=1, g=2, lam=3)), new_vertex_usage=(2, 1))"),
    ("Check", lambda: Check("p4", "x", True, "d"),
     "Check(suite='p4', name='x', passed=True, detail='d')"),
]


def sample(i):
    """Sample i, built afresh, checked to be of the type its entry names,
    with its repr."""
    name, build, text = SAMPLES[i]
    value = build()
    assert type(value).__name__ == name
    return value, text


# the plain constructors that `Frozen` compiles: each type's parameters in
# order, and the defaults among them
CONSTRUCTORS = [
    (Graph, ["n", "adj", "m"], {}),
    (Action, ["edge"], {}),
    (GameState, ["graph", "to_move", "family", "variant", "first_mover"],
     {"variant": Variant.STANDARD, "first_mover": Player.PROLONGER}),
    (GameRecord, ["n", "family", "variant", "first_mover", "actions", "terminal", "score"], {}),
    (Strategy, ["name", "decide", "side"], {"side": None}),
    (ComponentLabel, ["kind", "a", "b"], {"a": 0, "b": 0}),
    (SaturatedClass, ["labels"], {}),
    (BoundReport, ["theorem", "n", "k", "lower", "upper", "observed", "exact", "note"],
     {"observed": None, "exact": False, "note": ""}),
    (ThresholdStat, ["t", "g", "lam"], {}),
    (TraceStats, ["thresholds", "new_vertex_usage"], {}),
    (Check, ["suite", "name", "passed", "detail"], {}),
    (SolveResult, ["score", "principal_variation", "positions_expanded"], {}),
]
CONSTRUCTOR_IDS = [cls.__name__ for cls, *_ in CONSTRUCTORS]


@pytest.mark.parametrize("cls, names, defaults", CONSTRUCTORS, ids=CONSTRUCTOR_IDS)
def test_constructor_parameters_and_defaults(cls, names, defaults):
    params = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in params] == names
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    assert {p.name: p.default for p in params if p.default is not p.empty} == defaults
    assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"
    assert cls.__init__.__module__ == cls.__module__


@pytest.mark.parametrize("cls, names, defaults", CONSTRUCTORS, ids=CONSTRUCTOR_IDS)
def test_keyword_construction_and_each_default(cls, names, defaults):
    given = {name: f"<{name}>" for name in names}  # the constructors check no field
    value = cls(**given)
    assert value._key == tuple(given.values()) and value == cls(*given.values())
    bare = cls(**{name: given[name] for name in names if name not in defaults})
    assert bare._key == tuple(defaults.get(name, given[name]) for name in names)


@pytest.mark.parametrize("make, text", [
    (lambda: Graph(1, (0,)), "Graph.__init__() missing 1 required positional argument: 'm'"),
    (lambda: GameState(1, 2, 3, 4, 5, 6),
     "GameState.__init__() takes from 4 to 6 positional arguments but 7 were given"),
    (lambda: GameState(1, 2, 3, colour=4),
     "GameState.__init__() got an unexpected keyword argument 'colour'"),
], ids=["missing", "too-many", "unknown-keyword"])
def test_constructor_type_errors_name_the_class(make, text):
    with pytest.raises(TypeError) as err:
        make()
    assert str(err.value) == text


def test_a_new_subclass_gets_the_plain_constructor():
    class Pair(Frozen):
        x: int
        y: int = 2

    assert Pair(1) == Pair(x=1, y=2) and repr(Pair(1, y=3)) == "Pair(x=1, y=3)"
    assert Pair.__init__.__qualname__.endswith("<locals>.Pair.__init__")


@pytest.mark.parametrize("i", range(len(SAMPLES)))
def test_frozen_value_repr_equality_and_hash(i):
    value, text = sample(i)
    twin, _ = sample(i)
    assert repr(value) == text
    assert value == twin and not value != twin and hash(value) == hash(twin)
    assert value != object() and value != text


@pytest.mark.parametrize("i", range(len(SAMPLES)))
def test_frozen_value_refuses_assignment_and_deletion(i):
    value, _ = sample(i)
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
    for value, _ in map(sample, range(len(SAMPLES))):
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


def test_solve_result_is_frozen_and_unhashable():
    res = SolveResult(1, [Action((0, 1))], 2)
    assert repr(res) == ("SolveResult(score=1, principal_variation=[Action(edge=(0, 1))], "
                         "positions_expanded=2)")
    assert res == SolveResult(1, [Action((0, 1))], 2) and res != SolveResult(1, [], 2)
    with pytest.raises(AttributeError):
        res.score = 3
    with pytest.raises(AttributeError):
        del res.positions_expanded
    assert res == SolveResult(1, [Action((0, 1))], 2)
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
