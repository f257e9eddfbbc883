"""Window maps, tiles, constraint multigraphs, and lattice boundary bounds.

A window map places a subset of window cells injectively onto board
positions. Wherever two adjacent window cells land on positions that are
not translates of each other, the colors of two specific board edges are
forced equal; collecting those forced equalities over the whole map gives
a multigraph on edge identities. Its rank (vertices minus components) is
exactly the exponent in the probability that a uniformly colored board
satisfies the map, which is why these statistics are worth computing
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from .grid import RIGHT, STEPS, UP, Coord, EdgeId, Puzzle, edge_in_direction

#: Absolute tolerance for comparisons involving square roots.
SQRT_TOL = 1e-9


@dataclass(frozen=True)
class WindowMap:
    """An injective map from window cells in [-k..k]^2 to board positions."""

    k: int
    mapping: dict[Coord, Coord]

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("k must be non-negative")
        if not self.mapping:
            raise ValueError("a window map needs at least one cell")
        k = self.k
        for (x, y) in self.mapping:
            if not (-k <= x <= k and -k <= y <= k):
                raise ValueError(f"cell ({x}, {y}) outside the window of radius {k}")
        targets = list(self.mapping.values())
        if len(set(targets)) != len(targets):
            raise ValueError("window maps must be injective")
        for (i, j) in targets:
            if i < 1 or j < 1:
                raise ValueError("board positions are 1-indexed")


def tiles_of(wm: WindowMap) -> tuple[frozenset[Coord], ...]:
    """Maximal grid-connected components of the image, sorted by minimum."""
    remaining = set(wm.mapping.values())
    tiles = []
    while remaining:
        root = min(remaining)
        comp = {root}
        frontier = [root]
        remaining.discard(root)
        while frontier:
            (i, j) = frontier.pop()
            for (di, dj) in STEPS:
                nb = (i + di, j + dj)
                if nb in remaining:
                    remaining.discard(nb)
                    comp.add(nb)
                    frontier.append(nb)
        tiles.append(frozenset(comp))
    tiles.sort(key=min)
    return tuple(tiles)


@dataclass(frozen=True)
class ConstraintGraph:
    """Multigraph on board edges; one edge per forced color equality.

    Each constraint is stored as a sorted pair of edge ids; parallel
    constraints appear as repeated pairs. Every vertex has degree at most
    two, so components are paths and cycles.
    """

    vertices: tuple[EdgeId, ...]
    edges: tuple[tuple[EdgeId, EdgeId], ...]


class ConstraintStats(NamedTuple):
    """Counting summary of a constraint multigraph."""

    num_vertices: int
    num_components: int
    rank: int  # vertices minus components; the feasibility exponent
    num_constraints: int  # constraints counted with multiplicity
    num_leaf_constraints: int  # constraints touching a degree-1 vertex


def build_constraint_graph(wm: WindowMap) -> tuple[ConstraintGraph, ConstraintStats]:
    """Collect the forced color equalities of a window map, with stats."""
    mapping = wm.mapping
    edges: list[tuple[EdgeId, EdgeId]] = []
    for u in sorted(mapping):
        fu = mapping[u]
        for d in (RIGHT, UP):
            di, dj = STEPS[d]
            fu2 = mapping.get((u[0] + di, u[1] + dj))
            if fu2 is None or fu2 == (fu[0] + di, fu[1] + dj):  # no neighbor, or the same edge
                continue
            a = edge_in_direction(fu, d)
            b = edge_in_direction(fu2, d ^ 2)
            edges.append((a, b) if a <= b else (b, a))

    vertices = sorted({v for e in edges for v in e})
    graph = ConstraintGraph(tuple(vertices), tuple(edges))
    return graph, _stats_of(graph)


def _stats_of(graph: ConstraintGraph) -> ConstraintStats:
    index = {v: ix for ix, v in enumerate(graph.vertices)}
    nv = len(graph.vertices)
    degree = [0] * nv
    parent = list(range(nv))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in graph.edges:
        ia, ib = index[a], index[b]
        degree[ia] += 1
        degree[ib] += 1
        ra, rb = find(ia), find(ib)
        if ra != rb:
            parent[ra] = rb

    assert all(d <= 2 for d in degree), "constraint graph degree bound violated"

    num_components = sum(1 for ix in range(nv) if parent[ix] == ix)
    u = sum(1 for a, b in graph.edges if degree[index[a]] == 1 or degree[index[b]] == 1)
    return ConstraintStats(nv, num_components, nv - num_components, len(graph.edges), u)


def is_satisfied(graph: ConstraintGraph, puzzle: Puzzle) -> bool:
    """True iff every constraint joins two equally colored board edges."""
    return all(puzzle.edge_color(a) == puzzle.edge_color(b) for a, b in graph.edges)


def window_map_feasible(wm: WindowMap, puzzle: Puzzle) -> bool:
    """Direct color check of a window map against a concrete puzzle.

    Independent of the constraint graph: walks adjacent window cells and
    compares the two incident piece colors edge by edge.
    """
    mapping = wm.mapping
    for u, fu in mapping.items():
        for d in (RIGHT, UP):
            di, dj = STEPS[d]
            fu2 = mapping.get((u[0] + di, u[1] + dj))
            if fu2 is not None:
                a = puzzle.edge_color(edge_in_direction(fu, d))
                b = puzzle.edge_color(edge_in_direction(fu2, d ^ 2))
                if a != b:
                    return False
    return True


def feasibility_probability(stats: ConstraintStats, q: int) -> Fraction:
    """Exact probability that a uniform q-coloring satisfies the graph."""
    if q < 1:
        raise ValueError("q must be positive")
    return Fraction(1, q**stats.rank)


def boundary_of(cells: Iterable[Coord]) -> tuple[int, frozenset[Coord]]:
    """Edge boundary length and vertex boundary of a finite lattice set."""
    inside = set(cells)
    if not inside:
        raise ValueError("the set must be nonempty")
    edge_count = 0
    outside: set[Coord] = set()
    for (i, j) in inside:
        for (di, dj) in STEPS:
            nb = (i + di, j + dj)
            if nb not in inside:
                edge_count += 1
                outside.add(nb)
    return edge_count, frozenset(outside)


class PartitionBound(NamedTuple):
    """Square-root surplus of an integer partition of a square."""

    surplus: float  # 2 * sum(sqrt(part)) - 2 * side
    lower_bound: float  # 2 t (1 - 1/side), plus 4 when strengthened
    strengthened: bool  # both leading parts at least 36


def partition_bound(parts: tuple[int, ...], side: int) -> PartitionBound:
    """Evaluate the surplus and its guaranteed lower bound.

    ``parts`` must be a descending partition of ``side**2`` into positive
    integers. Comparisons against the returned floats should allow the
    module tolerance ``SQRT_TOL``.
    """
    if side < 1:
        raise ValueError("side must be positive")
    if not parts:
        raise ValueError("the partition must be nonempty")
    if any(a < 1 for a in parts):
        raise ValueError("partition parts must be positive")
    if any(parts[x] < parts[x + 1] for x in range(len(parts) - 1)):
        raise ValueError("partition parts must be descending")
    if sum(parts) != side * side:
        raise ValueError(f"partition must sum to {side * side}")
    surplus = 2.0 * sum(math.sqrt(a) for a in parts) - 2.0 * side
    t = len(parts) - 1
    strengthened = len(parts) >= 2 and parts[1] >= 36
    bound = 2.0 * t * (1.0 - 1.0 / side) + (4.0 if strengthened else 0.0)
    return PartitionBound(surplus, bound, strengthened)
