"""The all-graphs oracle that the test modules share."""

from satgame.analysis import SATURATED_CAP, free_graphs
from satgame.families import StarFamily

# K_{1,c} has c + 1 vertices, so every graph that `free_graphs` enumerates,
# on n <= SATURATED_CAP = c vertices, is free of it
EVERY_GRAPH = StarFamily(SATURATED_CAP)


def all_graphs(n: int):
    """Every graph on n vertices up to isomorphism, sorted by canonical key."""
    return free_graphs(n, EVERY_GRAPH)
