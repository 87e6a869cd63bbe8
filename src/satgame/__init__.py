"""Saturation games on small graphs: engine, strategies, exact solver,
classifiers and bound checks."""

from .graph import (
    Graph,
    ComponentView,
    everywhere_traceable,
    hamiltonian_path,
    from_graph6,
    to_graph6,
    norm_edge,
)
from .families import (
    ExplicitFamily,
    ForbiddenFamily,
    PathFamily,
    StarFamily,
    TreeFamily,
    contains_subgraph,
    creates_forbidden,
    family_name,
    is_free,
    is_saturated,
    legal_rows,
    parse_family,
)
from .engine import (
    PASS,
    Action,
    GameRecord,
    GameState,
    IllegalMoveError,
    IllegalStrategyActionError,
    Player,
    Variant,
    apply_action,
    initial_state,
    is_terminal,
    play,
)
from .strategies import Strategy, make_strategy
from .solver import (
    BudgetExceeded,
    CapExceeded,
    SolveResult,
    best_action,
    best_response,
    solve,
)
from .analysis import (
    BoundReport,
    SaturatedClass,
    TraceStats,
    bound,
    classify_p4_saturated,
    classify_p5_saturated,
    f_closed,
    f_sequence,
    free_graphs,
    saturated_graphs,
    trace_stats,
    tree_score_formula,
    window,
)

__version__ = "0.1.0"
