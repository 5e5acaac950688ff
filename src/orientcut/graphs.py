"""Graph structures and the path/cycle machinery used throughout the solvers.

Vertices are 0-indexed everywhere; 1-indexed input formats are converted at the
I/O boundary. Every edge [i, j] of an undirected graph doubles into the two
arcs (i, j) and (j, i) of its bidirected companion digraph, and all orientation
models work on those arc indices. Structures are immutable after construction
and safe to share between threads.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import ContractError, InputError


class UndirectedGraph:
    """Simple undirected graph with indexed, normalized edges.

    Edges are stored as (min, max) pairs in insertion order. Self-loops and
    duplicates are rejected.
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
        adj: List[List[int]] = [[] for _ in range(n)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        self.adj: Tuple[Tuple[int, ...], ...] = tuple(tuple(sorted(a)) for a in adj)
        self._edge_index = {e: k for k, e in enumerate(self.edges)}

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self._edge_index

    def edge_index(self, i: int, j: int) -> int:
        try:
            return self._edge_index[(min(i, j), max(i, j))]
        except KeyError:
            raise InputError(f"no edge between {i} and {j}") from None

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


class BidirectedDigraph:
    """Arc doubling of an undirected graph.

    Edge e = [i, j] contributes arc 2e = (i, j) and arc 2e+1 = (j, i), so the
    reverse of arc a is always a ^ 1. Arc indices are the variable indices of
    the orientation models.
    """

    def __init__(self, graph: UndirectedGraph):
        self.graph = graph
        self.num_arcs = 2 * graph.m
        tails = []
        heads = []
        arc_index = {}
        out: List[List[Tuple[int, int]]] = [[] for _ in range(graph.n)]
        for e, (i, j) in enumerate(graph.edges):
            for a, (u, v) in ((2 * e, (i, j)), (2 * e + 1, (j, i))):
                tails.append(u)
                heads.append(v)
                arc_index[(u, v)] = a
                out[u].append((a, v))
        self.tails = tuple(tails)
        self.heads = tuple(heads)
        self._arc_index = arc_index
        # Deterministic neighbor order: sorted by head vertex.
        self.out_arcs: Tuple[Tuple[Tuple[int, int], ...], ...] = tuple(
            tuple(sorted(lst, key=lambda t: t[1])) for lst in out
        )

    @property
    def n(self) -> int:
        return self.graph.n

    def arc(self, u: int, v: int) -> int:
        try:
            return self._arc_index[(u, v)]
        except KeyError:
            raise InputError(f"no arc ({u},{v})") from None

    def reverse(self, a: int) -> int:
        return a ^ 1

    def edge_of(self, a: int) -> int:
        return a >> 1

    def endpoints(self, a: int) -> Tuple[int, int]:
        return self.tails[a], self.heads[a]

    def check_arcs(self, arcs: Iterable[int]) -> frozenset:
        s = frozenset(arcs)
        for a in s:
            if not (0 <= a < self.num_arcs):
                raise InputError(f"arc index {a} out of range")
        return s

    def __repr__(self):
        return f"BidirectedDigraph(n={self.n}, arcs={self.num_arcs})"


class Orientation:
    """A direction choice for every edge of a graph.

    dirs[e] is 0 to keep the stored (i, j) direction of edge e and 1 for the
    reverse. The induced arc set has exactly one arc per edge.
    """

    def __init__(self, graph: UndirectedGraph, dirs: Sequence[int]):
        if len(dirs) != graph.m:
            raise InputError("one direction bit per edge required")
        if any(d not in (0, 1) for d in dirs):
            raise InputError("direction bits must be 0 or 1")
        self.graph = graph
        self.dirs = tuple(dirs)

    def arcs(self) -> frozenset:
        return frozenset(2 * e + d for e, d in enumerate(self.dirs))

    @classmethod
    def from_vertex_order(cls, graph: UndirectedGraph, order: Sequence[int]) -> "Orientation":
        """Orient every edge from the earlier to the later vertex of `order`."""
        pos = {v: k for k, v in enumerate(order)}
        dirs = [0 if pos[i] < pos[j] else 1 for i, j in graph.edges]
        return cls(graph, dirs)

    @classmethod
    def from_arcs(cls, graph: UndirectedGraph, arcs: Iterable[int]) -> "Orientation":
        chosen = {}
        for a in arcs:
            e = a >> 1
            if e in chosen:
                raise InputError(f"both arcs of edge {e} selected")
            chosen[e] = a & 1
        if len(chosen) != graph.m:
            raise InputError("orientation must pick one arc per edge")
        return cls(graph, [chosen[e] for e in range(graph.m)])

    def __eq__(self, other):
        return isinstance(other, Orientation) and self.dirs == other.dirs

    def __repr__(self):
        return f"Orientation({self.dirs})"


def _topological_order(d: BidirectedDigraph, arcs: frozenset) -> Optional[List[int]]:
    """Kahn's algorithm on the sub-digraph given by `arcs`; None if cyclic."""
    indeg = [0] * d.n
    outs: List[List[int]] = [[] for _ in range(d.n)]
    for a in sorted(arcs):
        u, v = d.tails[a], d.heads[a]
        outs[u].append(v)
        indeg[v] += 1
    queue = [v for v in range(d.n) if indeg[v] == 0]
    order = []
    while queue:
        nxt = []
        for v in queue:
            order.append(v)
            for u in outs[v]:
                indeg[u] -= 1
                if indeg[u] == 0:
                    nxt.append(u)
        queue = nxt
    return order if len(order) == d.n else None


def is_acyclic(d: BidirectedDigraph, arcs: Iterable[int]) -> bool:
    """True if the arc set induces no directed cycle. A reverse pair is a 2-cycle."""
    return _topological_order(d, d.check_arcs(arcs)) is not None


def find_directed_cycle(d: BidirectedDigraph, arcs: Iterable[int]) -> Optional[List[int]]:
    """Some directed elementary cycle in the arc set, as a vertex list, or None."""
    s = d.check_arcs(arcs)
    outs: List[List[int]] = [[] for _ in range(d.n)]
    for a in sorted(s):
        outs[d.tails[a]].append(d.heads[a])
    color = [0] * d.n  # 0 unseen, 1 on stack, 2 done
    parent = [-1] * d.n
    for root in range(d.n):
        if color[root]:
            continue
        stack = [(root, iter(outs[root]))]
        color[root] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for u in it:
                if color[u] == 0:
                    color[u] = 1
                    parent[u] = v
                    stack.append((u, iter(outs[u])))
                    advanced = True
                    break
                if color[u] == 1:
                    cyc = [v]
                    w = v
                    while w != u:
                        w = parent[w]
                        cyc.append(w)
                    cyc.reverse()
                    return cyc
            if not advanced:
                color[v] = 2
                stack.pop()
    return None


def longest_path_labels(d: BidirectedDigraph, arcs: Iterable[int]) -> List[int]:
    """Per-vertex length of the longest directed path ending at that vertex.

    Raises ContractError when the arc set is cyclic.
    """
    s = d.check_arcs(arcs)
    order = _topological_order(d, s)
    if order is None:
        raise ContractError("arc set is cyclic")
    labels = [0] * d.n
    ins: List[List[int]] = [[] for _ in range(d.n)]
    for a in s:
        ins[d.heads[a]].append(d.tails[a])
    for v in order:
        for u in ins[v]:
            if labels[u] + 1 > labels[v]:
                labels[v] = labels[u] + 1
    return labels


def dag_longest_path(d: BidirectedDigraph, arcs: Iterable[int]) -> int:
    """Number of arcs on a longest directed path; 0 for an empty arc set."""
    labels = longest_path_labels(d, arcs)
    return max(labels) if labels else 0


def source_decomposition(d: BidirectedDigraph, arcs: Iterable[int]) -> List[List[int]]:
    """Repeatedly strip the in-degree-zero vertices of the DAG.

    Returns the ordered list of stripped layers. Each layer is an independent
    set in the underlying graph restricted to the oriented edges, and the layer
    count is dag_longest_path + 1.
    """
    s = d.check_arcs(arcs)
    if _topological_order(d, s) is None:
        raise ContractError("arc set is cyclic")
    remaining = set(range(d.n))
    active = set(s)
    layers = []
    while remaining:
        indeg = {v: 0 for v in remaining}
        for a in active:
            indeg[d.heads[a]] += 1
        layer = sorted(v for v in remaining if indeg[v] == 0)
        layers.append(layer)
        remaining -= set(layer)
        active = {a for a in active if d.tails[a] in remaining}
    return layers


def enumerate_cycles(d: BidirectedDigraph, max_len: int) -> List[Tuple[int, ...]]:
    """All directed elementary cycles with at most `max_len` arcs.

    Each cycle is reported once, as the vertex tuple rotated to start at its
    smallest vertex; the closing arc runs from the last vertex back to the
    first. A cycle and its reversal are distinct unless they coincide (the
    2-cycles formed by one edge's two arcs).
    """
    if max_len < 2:
        raise InputError("cycles need at least 2 arcs")
    cycles = []
    for s in range(d.n):
        # DFS restricted to vertices > s keeps s the minimum and kills rotations.
        path = [s]
        onpath = {s}

        def extend(v: int):
            for _, u in d.out_arcs[v]:
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


def enumerate_paths_k(d: BidirectedDigraph, k: int) -> List[Tuple[int, ...]]:
    """All directed elementary paths with exactly k arcs, as vertex tuples.

    Empty when k exceeds n - 1. The result is closed under reversal since the
    digraph is bidirected.
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
            for _, u in d.out_arcs[v]:
                if u not in onpath:
                    extend(u)
        path.pop()
        onpath.remove(v)

    for s in range(d.n):
        extend(s)
    return paths


def path_arc_list(d: BidirectedDigraph, verts: Sequence[int]) -> List[int]:
    """Arc indices along a vertex sequence; validates adjacency."""
    if len(verts) < 2:
        raise InputError("path needs at least 2 vertices")
    if len(set(verts)) != len(verts):
        raise InputError("path vertices must be distinct")
    return [d.arc(verts[i], verts[i + 1]) for i in range(len(verts) - 1)]


def cycle_arc_list(d: BidirectedDigraph, verts: Sequence[int]) -> List[int]:
    """Arc indices around a directed cycle given by its vertex tuple."""
    if len(verts) < 2:
        raise InputError("cycle needs at least 2 vertices")
    if len(set(verts)) != len(verts):
        raise InputError("cycle vertices must be distinct")
    arcs = [d.arc(verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts))]
    return arcs


def max_path_load(d: BidirectedDigraph, selected: Iterable[int], kappa: int):
    """Maximum number of selected arcs carried by any elementary k-arc path.

    Considers every directed path of the bidirected digraph with exactly
    `kappa` arcs and counts how many of its arcs are selected. Returns
    (load, witness path or None); (0, None) when no such path exists.
    Exact; the search prunes branches that cannot beat the current best.
    """
    sel = d.check_arcs(selected)
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
        for a, u in d.out_arcs[v]:
            if u not in onpath:
                path.append(u)
                onpath.add(u)
                extend(v=u, used=used + 1, load=load + (1 if a in sel else 0),
                       path=path, onpath=onpath)
                path.pop()
                onpath.remove(u)

    if kappa <= d.n - 1:
        for s in range(d.n):
            extend(s, 0, 0, [s], {s})
    if best[0] < 0:
        return 0, None
    return best[0], best[1]


def greedy_coloring(g: UndirectedGraph) -> List[int]:
    """Greedy proper coloring (smallest available color), largest degree first."""
    colors = [-1] * g.n
    for v in sorted(range(g.n), key=lambda v: (-g.degree(v), v)):
        taken = {colors[u] for u in g.adj[v] if colors[u] >= 0}
        c = 0
        while c in taken:
            c += 1
        colors[v] = c
    return colors


def greedy_clique(g: UndirectedGraph) -> List[int]:
    """A maximal clique found greedily from a few high-degree seeds."""
    best: List[int] = []
    seeds = sorted(range(g.n), key=lambda v: (-g.degree(v), v))[:8]
    for s in seeds:
        clique = [s]
        for v in sorted(g.adj[s], key=lambda v: (-g.degree(v), v)):
            if all(g.has_edge(v, u) for u in clique):
                clique.append(v)
        if len(clique) > len(best):
            best = clique
    return sorted(best)


# Small named graphs used by tests, documentation and the command line oracle.

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
