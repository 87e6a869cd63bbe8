"""The all-graphs oracle that the test modules share."""

from functools import cache

from satgame.analysis import SATURATED_CAP, free_graphs
from satgame.families import StarFamily

# K_{1,c} has c + 1 vertices, so every graph that `free_graphs` enumerates,
# on n <= SATURATED_CAP = c vertices, is free of it
EVERY_GRAPH = StarFamily(SATURATED_CAP)


@cache
def all_graphs(n: int):
    """Every graph on n vertices up to isomorphism, sorted by canonical key.
    Kept apart from the cache of `free_graphs`, which some tests empty."""
    return free_graphs(n, EVERY_GRAPH)
