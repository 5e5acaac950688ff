"""Graph structures and the path/cycle machinery used throughout the solvers.

Vertices are 0-indexed everywhere; 1-indexed input formats are converted at the
I/O boundary. A graph carries its own arc indexing: every edge [i, j] doubles
into the two arcs (i, j) and (j, i), and all orientation models work on those
arc indices. An orientation is the set of arcs it selects, one per edge.
Structures are immutable after construction.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from .errors import ContractError, InputError


class UndirectedGraph:
    """Simple undirected graph with indexed, normalized edges and their arcs.

    Edges are stored as (min, max) pairs in insertion order. Self-loops and
    duplicates are rejected. Edge e = [i, j] doubles into arc 2e = (i, j) and
    arc 2e+1 = (j, i), so the reverse of arc a is always a ^ 1. Arc indices
    are the variable indices of the orientation models.
    """

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]]):
        if n < 1:
            raise InputError("vertex count must be positive")
        seen = set()
        norm: List[Tuple[int, int]] = []
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise InputError(f"edge ({i},{j}) out of range for n={n}")
            if i == j:
                raise InputError(f"self-loop at vertex {i}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise InputError(f"duplicate edge {key}")
            seen.add(key)
            norm.append(key)
        self.n = n
        self.edges: Tuple[Tuple[int, int], ...] = tuple(norm)
        self.m = len(norm)
        self.num_arcs = 2 * self.m
        self.tails = tuple(v for i, j in self.edges for v in (i, j))
        self.heads = tuple(v for i, j in self.edges for v in (j, i))
        out: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        for a, (u, v) in enumerate(zip(self.tails, self.heads)):
            out[u].append((v, a))
        # Deterministic neighbor order: sorted by head vertex.
        self.out_arcs: Tuple[Tuple[Tuple[int, int], ...], ...] = tuple(
            tuple((a, v) for v, a in sorted(lst)) for lst in out)
        self.adj: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(v for _, v in arcs) for arcs in self.out_arcs)
        self._edge_index = {e: k for k, e in enumerate(self.edges)}

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self._edge_index

    def edge_index(self, i: int, j: int) -> int:
        try:
            return self._edge_index[(min(i, j), max(i, j))]
        except KeyError:
            raise InputError(f"no edge between {i} and {j}") from None

    def arc(self, u: int, v: int) -> int:
        return 2 * self.edge_index(u, v) + (u > v)

    def check_arcs(self, arcs: Iterable[int]) -> frozenset:
        s = frozenset(arcs)
        for a in s:
            if not (0 <= a < self.num_arcs):
                raise InputError(f"arc index {a} out of range")
        return s

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def components(self) -> List[List[int]]:
        """Connected components as sorted vertex lists, ordered by smallest vertex."""
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            stack, comp = [s], []
            seen[s] = True
            while stack:
                v = stack.pop()
                comp.append(v)
                for u in self.adj[v]:
                    if not seen[u]:
                        seen[u] = True
                        stack.append(u)
            comps.append(sorted(comp))
        return comps

    def induced_subgraph(self, vertices: Sequence[int]) -> Tuple["UndirectedGraph", List[int]]:
        """Subgraph induced by `vertices`; returns (subgraph, original-vertex list)."""
        vs = sorted(set(vertices))
        pos = {v: k for k, v in enumerate(vs)}
        edges = [(pos[i], pos[j]) for i, j in self.edges if i in pos and j in pos]
        return UndirectedGraph(len(vs), edges), vs

    def __repr__(self):
        return f"UndirectedGraph(n={self.n}, m={self.m})"


def order_arcs(g: UndirectedGraph, order: Sequence[int]) -> frozenset:
    """The arcs that run every edge from the earlier to the later vertex of
    `order`: one arc per edge, and acyclic."""
    pos = {v: k for k, v in enumerate(order)}
    return frozenset(2 * e + (pos[i] > pos[j]) for e, (i, j) in enumerate(g.edges))


def _kahn(g: UndirectedGraph, arcs: frozenset) -> Tuple[List[int], List[int]]:
    """Kahn's pass on the sub-digraph given by `arcs`: the vertices it
    orders, in order, and each vertex's in-degree from the vertices it
    leaves. The arc set is acyclic exactly when every vertex is ordered."""
    indeg = [0] * g.n
    outs: List[List[int]] = [[] for _ in range(g.n)]
    for a in sorted(arcs):
        u, v = g.tails[a], g.heads[a]
        outs[u].append(v)
        indeg[v] += 1
    order = [v for v in range(g.n) if indeg[v] == 0]
    for v in order:  # the list grows as the pass frees vertices
        for u in outs[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                order.append(u)
    return order, indeg


def is_acyclic(g: UndirectedGraph, arcs: Iterable[int]) -> bool:
    """True if the arc set induces no directed cycle. A reverse pair is a 2-cycle."""
    return len(_kahn(g, g.check_arcs(arcs))[0]) == g.n


def find_directed_cycle(g: UndirectedGraph, arcs: Iterable[int]) -> Optional[List[int]]:
    """Some directed elementary cycle in the arc set, as a vertex list, or None.

    Every vertex Kahn's pass leaves keeps an in-arc from another vertex it
    leaves, so walking back along such arcs from one of them must repeat a
    vertex; the walk from that vertex's first visit is a cycle, reversed.
    """
    s = g.check_arcs(arcs)
    order, indeg = _kahn(g, s)
    if len(order) == g.n:
        return None
    pred = {g.heads[a]: g.tails[a] for a in sorted(s) if indeg[g.tails[a]]}
    walk = [next(v for v in range(g.n) if indeg[v])]
    seen = {walk[0]: 0}
    while (v := pred[walk[-1]]) not in seen:
        seen[v] = len(walk)
        walk.append(v)
    return walk[seen[v]:][::-1]


def least_labels(g: UndirectedGraph, arcs: Iterable[int], top: int,
                 menus: Optional[Sequence[Optional[Sequence[int]]]] = None
                 ) -> Optional[List[int]]:
    """The least labeling f of the arc set: f(u) < f(v) on every arc u -> v,
    each f(v) in [0, top] and, where `menus[v]` is not None, in that sorted
    tuple; or None when the arcs close a cycle or no such labeling exists.

    In topological order each vertex takes the least label its in-arcs and
    menu allow, so every such labeling is at least this one, pointwise.
    Without menus f(v) is the most arcs on a path into v (Gallai 1968, Roy 1967).
    """
    s = g.check_arcs(arcs)
    order, _ = _kahn(g, s)
    if len(order) < g.n:
        return None
    ins: List[List[int]] = [[] for _ in range(g.n)]
    for a in s:
        ins[g.heads[a]].append(g.tails[a])
    f = [0] * g.n
    for v in order:
        low = max((f[u] + 1 for u in ins[v]), default=0)
        menu = menus[v] if menus is not None else None
        if menu is not None:
            i = bisect.bisect_left(menu, low)
            low = menu[i] if i < len(menu) else top + 1
        if low > top:
            return None
        f[v] = low
    return f


def longest_path_labels(g: UndirectedGraph, arcs: Iterable[int]) -> List[int]:
    """Per-vertex length of the longest directed path ending at that vertex.

    Raises ContractError when the arc set is cyclic.
    """
    labels = least_labels(g, arcs, g.n)
    if labels is None:
        raise ContractError("arc set is cyclic")
    return labels


def dag_longest_path(g: UndirectedGraph, arcs: Iterable[int]) -> int:
    """Number of arcs on a longest directed path; 0 for an empty arc set."""
    labels = longest_path_labels(g, arcs)
    return max(labels) if labels else 0


def source_decomposition(g: UndirectedGraph, arcs: Iterable[int]) -> List[List[int]]:
    """The layers found by repeatedly stripping the in-degree-zero vertices.

    Layer k holds, sorted, the vertices whose longest incoming path has k
    arcs. Each layer is an independent set in the underlying graph restricted
    to the oriented edges, and the layer count is dag_longest_path + 1.
    Raises ContractError when the arc set is cyclic.
    """
    labels = longest_path_labels(g, arcs)
    layers: List[List[int]] = [[] for _ in range(max(labels) + 1)]
    for v, k in enumerate(labels):
        layers[k].append(v)
    return layers


def enumerate_cycles(g: UndirectedGraph, max_len: int) -> List[Tuple[int, ...]]:
    """All directed elementary cycles with at most `max_len` arcs.

    Each cycle is reported once, as the vertex tuple rotated to start at its
    smallest vertex; the closing arc runs from the last vertex back to the
    first. A cycle and its reversal are distinct unless they coincide (the
    2-cycles formed by one edge's two arcs).
    """
    if max_len < 2:
        raise InputError("cycles need at least 2 arcs")
    cycles = []
    for s in range(g.n):
        # DFS restricted to vertices > s keeps s the minimum and kills rotations.
        path = [s]
        onpath = {s}

        def extend(v: int):
            for _, u in g.out_arcs[v]:
                if u == s and len(path) >= 2:
                    cycles.append(tuple(path))
                if u > s and u not in onpath and len(path) < max_len:
                    path.append(u)
                    onpath.add(u)
                    extend(u)
                    path.pop()
                    onpath.remove(u)

        extend(s)
    return cycles


def enumerate_paths_k(g: UndirectedGraph, k: int) -> List[Tuple[int, ...]]:
    """All directed elementary paths with exactly k arcs, as vertex tuples.

    Empty when k exceeds n - 1. The result is closed under reversal since
    every edge carries both arcs.
    """
    if k < 1:
        raise InputError("paths need at least 1 arc")
    paths = []
    path: List[int] = []
    onpath = set()

    def extend(v: int):
        path.append(v)
        onpath.add(v)
        if len(path) == k + 1:
            paths.append(tuple(path))
        else:
            for _, u in g.out_arcs[v]:
                if u not in onpath:
                    extend(u)
        path.pop()
        onpath.remove(v)

    for s in range(g.n):
        extend(s)
    return paths


def path_arc_list(g: UndirectedGraph, verts: Sequence[int]) -> List[int]:
    """Arc indices along a vertex sequence; validates adjacency."""
    if len(verts) < 2:
        raise InputError("path needs at least 2 vertices")
    if len(set(verts)) != len(verts):
        raise InputError("path vertices must be distinct")
    return [g.arc(verts[i], verts[i + 1]) for i in range(len(verts) - 1)]


def cycle_arc_list(g: UndirectedGraph, verts: Sequence[int]) -> List[int]:
    """Arc indices around a directed cycle given by its vertex tuple."""
    if len(verts) < 2:
        raise InputError("cycle needs at least 2 vertices")
    if len(set(verts)) != len(verts):
        raise InputError("cycle vertices must be distinct")
    arcs = [g.arc(verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts))]
    return arcs


def max_path_load(g: UndirectedGraph, selected: Iterable[int], kappa: int):
    """Maximum number of selected arcs carried by any elementary k-arc path.

    Considers every directed path of the graph's arc doubling with exactly
    `kappa` arcs and counts how many of its arcs are selected. Returns
    (load, witness path or None); (0, None) when no such path exists.
    Exact; the search prunes branches that cannot beat the current best.
    """
    sel = g.check_arcs(selected)
    if kappa < 1:
        raise InputError("kappa must be at least 1")
    best = [-1, None]

    def extend(v: int, used: int, load: int, path: List[int], onpath: set):
        if used == kappa:
            if load > best[0]:
                best[0] = load
                best[1] = tuple(path)
            return
        if load + (kappa - used) <= best[0]:
            return
        for a, u in g.out_arcs[v]:
            if u not in onpath:
                path.append(u)
                onpath.add(u)
                extend(v=u, used=used + 1, load=load + (1 if a in sel else 0),
                       path=path, onpath=onpath)
                path.pop()
                onpath.remove(u)

    if kappa <= g.n - 1:
        for s in range(g.n):
            extend(s, 0, 0, [s], {s})
    if best[0] < 0:
        return 0, None
    return best[0], best[1]


def greedy_coloring(g: UndirectedGraph) -> List[int]:
    """DSATUR proper coloring (Brelaz, CACM 1979).

    The next vertex colored is the one whose neighbors use the most distinct
    colors, ties going to the largest degree, then to the smallest index; it
    takes the smallest color its neighbors leave free.
    """
    colors = [-1] * g.n
    taken: List[Set[int]] = [set() for _ in range(g.n)]
    # Entries (-saturation, -degree, v); a vertex whose saturation grows is
    # pushed again, and its stale entries pop after it is colored.
    queue = [(0, -g.degree(v), v) for v in range(g.n)]
    heapq.heapify(queue)
    while queue:
        v = heapq.heappop(queue)[2]
        if colors[v] >= 0:
            continue
        c = 0
        while c in taken[v]:
            c += 1
        colors[v] = c
        for u in g.adj[v]:
            if colors[u] < 0 and c not in taken[u]:
                taken[u].add(c)
                heapq.heappush(queue, (-len(taken[u]), -g.degree(u), u))
    return colors


def greedy_clique(g: UndirectedGraph) -> List[int]:
    """The largest of the maximal cliques grown greedily from each vertex.

    From each seed it takes the seed's neighbours by falling degree, then
    index, and adds each one adjacent to every vertex of the clique so far.
    It keeps the largest clique, the first found among equals with seeds
    taken in the same order.
    """
    adj = [set(a) for a in g.adj]
    best: List[int] = []
    for s in sorted(range(g.n), key=lambda v: (-g.degree(v), v)):
        clique, common = [s], adj[s]  # common: the neighbours of every clique vertex
        for v in sorted(g.adj[s], key=lambda v: (-g.degree(v), v)):
            if v in common:
                clique.append(v)
                common = common & adj[v]
        if len(clique) > len(best):
            best = clique
    return sorted(best)


# Small named graphs used by the tests, the README and CI.

def single_edge() -> UndirectedGraph:
    return UndirectedGraph(2, [(0, 1)])


def path_graph(n: int) -> UndirectedGraph:
    return UndirectedGraph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> UndirectedGraph:
    return UndirectedGraph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> UndirectedGraph:
    return UndirectedGraph(n, list(itertools.combinations(range(n), 2)))


def star_graph(leaves: int) -> UndirectedGraph:
    return UndirectedGraph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def paw_graph() -> UndirectedGraph:
    """Triangle 0-1-2 with the pendant edge 2-3."""
    return UndirectedGraph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


def petersen_graph() -> UndirectedGraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return UndirectedGraph(10, outer + spokes + inner)
