"""Shared fixtures: the small named battery and atlas graph loaders."""

import itertools
import random
from fractions import Fraction
from typing import List, Optional, Tuple

import pytest

from orientcut.graphs import (
    UndirectedGraph,
    complete_graph,
    cycle_graph,
    path_graph,
    paw_graph,
    single_edge,
)
from orientcut.model import ModelPoint

# (name, graph, min orientation diameter)
BATTERY: List[Tuple[str, UndirectedGraph, int]] = [
    ("edge", single_edge(), 1),
    ("P3", path_graph(3), 1),
    ("P4", path_graph(4), 1),
    ("C4", cycle_graph(4), 1),
    ("K3", complete_graph(3), 2),
    ("paw", paw_graph(), 2),
    ("K4", complete_graph(4), 3),
]

_ATLAS_CACHE: dict = {}


def atlas_graphs(max_edges: Optional[int] = None, max_nodes: Optional[int] = None,
                 connected: bool = False) -> List[UndirectedGraph]:
    """Non-isomorphic small graphs, relabeled onto 0..n-1."""
    key = (max_edges, max_nodes, connected)
    if key in _ATLAS_CACHE:
        return _ATLAS_CACHE[key]
    import networkx as nx

    out = []
    for ag in nx.graph_atlas_g():
        n, m = ag.number_of_nodes(), ag.number_of_edges()
        if n == 0:
            continue
        if max_edges is not None and m > max_edges:
            continue
        if max_nodes is not None and n > max_nodes:
            continue
        if connected and (n == 0 or not nx.is_connected(ag)):
            continue
        nodes = sorted(ag.nodes())
        idx = {v: i for i, v in enumerate(nodes)}
        out.append(UndirectedGraph(n, [(idx[u], idx[v]) for u, v in ag.edges()]))
    _ATLAS_CACHE[key] = out
    return out


def queen_graph(k: int) -> UndirectedGraph:
    """Cells of a k x k board, adjacent when a queen moves from one to the other."""
    cells = [(r, c) for r in range(k) for c in range(k)]
    return UndirectedGraph(k * k, [
        (u, v) for u, v in itertools.combinations(range(k * k), 2)
        if cells[u][0] == cells[v][0] or cells[u][1] == cells[v][1]
        or abs(cells[u][0] - cells[v][0]) == abs(cells[u][1] - cells[v][1])])


def mycielski(g: UndirectedGraph) -> UndirectedGraph:
    """Mycielski's construction: g, a shadow n + v of each vertex v, and an apex 2n."""
    n, out = g.n, list(g.edges)
    for u, v in g.edges:
        out += [(u, n + v), (v, n + u)]
    out += [(n + v, 2 * n) for v in range(n)]
    return UndirectedGraph(2 * n + 1, out)


def interleaved_components() -> UndirectedGraph:
    """C5 on the even vertices 0-8, a triangle on 1, 3, 5 and the edges 7-9
    and 10-11: components whose vertex numbers interleave; chi 3."""
    c5 = [(0, 2), (2, 4), (4, 6), (6, 8), (0, 8)]
    return UndirectedGraph(12, c5 + [(1, 3), (3, 5), (1, 5), (7, 9), (10, 11)])


def lab_points(points) -> List[ModelPoint]:
    """The rows (w, z) of a lab point matrix as ModelPoints with int entries."""
    return [ModelPoint(tuple(row[:-1]), row[-1]) for row in points.tolist()]


def random_point(g: UndirectedGraph, kappa: int, rng: random.Random) -> ModelPoint:
    w = tuple(rng.random() for _ in range(2 * g.m))
    return ModelPoint(w, rng.random() * kappa)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)


def fraction_rank(points) -> int:
    """Reference: affine dimension by Gauss-Jordan elimination over Fractions."""
    def exact(v):  # Fraction(np.int64) keeps the np.int64, which overflows
        q = Fraction(v)
        return Fraction(int(q.numerator), int(q.denominator))

    if not points:
        return -1
    base = [exact(v) for v in points[0]]
    basis = []
    for p in points[1:]:
        v = [exact(a) - b for a, b in zip(p, base)]
        for lead, row in basis:
            if v[lead]:
                v = [a - v[lead] * b for a, b in zip(v, row)]
        lead = next((k for k, a in enumerate(v) if a), None)
        if lead is not None:
            basis.append((lead, [a / v[lead] for a in v]))
    return len(basis)
