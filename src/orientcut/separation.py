"""Cut generation: exact cycle and path separation plus template enumeration.

Cycle rows are separated exactly through shortest paths under arc lengths
1 - w (a directed cycle is violated precisely when its total length drops
below 1). Path rows are separated by a pruned depth-first search over all
elementary paths with exactly kappa arcs. The structured row families
(cycle-z, path-km1, path-km2, cycle-arcs, adjacent-paths) are enumerated
exhaustively by `template_rows` for the polytope laboratory. The solver
separates only the cycle-z family: its candidates depend only on the graph
and kappa, so a `TemplatePool` generates them once and keeps them as a
sparse row matrix; template separation then scores them with one sparse
matrix-vector product and rechecks the rows it flags exactly.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InputError
from .graphs import BidirectedDigraph, enumerate_cycles, enumerate_paths_k
from .model import (
    LinearRow,
    row_adjacent_paths,
    row_cycle,
    row_cycle_arcs,
    row_cycle_z,
    row_path,
    row_path_km1,
    row_path_km2,
)

VIOLATION_TOL = 1e-6
MAX_CUTS_PER_CLASS = 50
STRUCTURE_CAP = 20000  # most cycle-z rows a template pool keeps

TEMPLATE_TAGS = ("cycle-z", "path-km1", "path-km2", "cycle-arcs", "adjacent-paths")


def _top_rows(scored: Dict, cap: int) -> List[LinearRow]:
    """Most violated first; ties broken on the canonical key for determinism."""
    ranked = sorted(scored.values(), key=lambda t: (-t[0], t[1].key))
    return [row for _, row in ranked[:cap]]


def _dijkstra(d: BidirectedDigraph, lengths: Sequence[float], s: int,
              skip_arc: int = -1):
    dist = [float("inf")] * d.n
    pred = [-1] * d.n
    dist[s] = 0.0
    heap = [(0.0, s)]
    while heap:
        dv, v = heapq.heappop(heap)
        if dv > dist[v] + 1e-15:
            continue
        for a, u in d.out_arcs[v]:
            if a == skip_arc:
                continue
            nd = dv + lengths[a]
            if nd < dist[u] - 1e-15:
                dist[u] = nd
                pred[u] = v
                heapq.heappush(heap, (nd, u))
    return dist, pred


def separate_cycles(d: BidirectedDigraph, w: Sequence[float],
                    cap: int = MAX_CUTS_PER_CLASS) -> List[LinearRow]:
    """Directed cycles whose arcs sum above |C| - 1 at w, most violated first.

    Exact: under lengths 1 - w a violated cycle has total below 1, and for
    each arc the shortest head-to-tail path closes a minimum-length cycle
    through it. When that closure is just the arc's own reverse, a second
    search without the reverse arc also surfaces the shortest longer cycle.
    """
    if len(w) != d.num_arcs:
        raise InputError("w has wrong arc dimension")
    lengths = [max(0.0, 1.0 - w[a]) for a in range(d.num_arcs)]
    trees = [_dijkstra(d, lengths, s) for s in range(d.n)]

    found: Dict[Tuple[int, ...], Tuple[float, LinearRow]] = {}

    def close(a: int, dist, pred):
        i, j = d.tails[a], d.heads[a]
        if dist[i] + lengths[a] >= 1.0 - VIOLATION_TOL:
            return
        verts = [i]
        v = i
        while v != j:
            v = pred[v]
            verts.append(v)
        verts.reverse()  # j ... i; closing arc (i, j)
        k = verts.index(min(verts))
        canon = tuple(verts[k:] + verts[:k])
        if canon in found:
            return
        row = row_cycle(d, canon)
        viol = row.violation(w, 0.0)
        if viol > VIOLATION_TOL:
            found[canon] = (viol, row)

    for a in range(d.num_arcs):
        i, j = d.tails[a], d.heads[a]
        dist, pred = trees[j]
        close(a, dist, pred)
        if pred[i] == j:  # closure was the 2-cycle; look past the reverse arc
            close(a, *_dijkstra(d, lengths, j, skip_arc=a ^ 1))
    return _top_rows(found, cap)


def separate_paths(d: BidirectedDigraph, w: Sequence[float], z: float, kappa: int,
                   cap: int = MAX_CUTS_PER_CLASS) -> List[LinearRow]:
    """All kappa-arc paths whose load exceeds z at (w, z), most violated first.

    Exact via depth-first search; a branch is cut only when even collecting the
    maximum arc weight for every remaining step cannot beat z.
    """
    if len(w) != d.num_arcs:
        raise InputError("w has wrong arc dimension")
    if kappa < 1:
        raise InputError("kappa must be at least 1")
    wmax = max(w, default=0.0)
    found: Dict[Tuple[int, ...], Tuple[float, LinearRow]] = {}
    path: List[int] = []
    onpath = set()

    def extend(v: int, load: float):
        used = len(path) - 1
        if used == kappa:
            if load > z + VIOLATION_TOL:
                p = tuple(path)
                found[p] = (load - z, row_path(d, p, kappa))
            return
        if load + (kappa - used) * wmax <= z + VIOLATION_TOL:
            return
        for a, u in d.out_arcs[v]:
            if u not in onpath:
                path.append(u)
                onpath.add(u)
                extend(u, load + w[a])
                path.pop()
                onpath.remove(u)

    if kappa <= d.n - 1:
        for s in range(d.n):
            path.append(s)
            onpath.add(s)
            extend(s, 0.0)
            path.pop()
            onpath.remove(s)
    return _top_rows(found, cap)


# ---------------------------------------------------------------------------
# Structured template enumeration, shared with the polytope laboratory.

def rows_cycle_z(d: BidirectedDigraph, kappa: int) -> Iterator[LinearRow]:
    if kappa + 1 > d.n:
        return
    for cyc in enumerate_cycles(d, kappa + 1):
        if len(cyc) == kappa + 1:
            yield row_cycle_z(d, cyc, kappa)


def rows_path_km1(d: BidirectedDigraph, kappa: int) -> Iterator[LinearRow]:
    if kappa < 2:
        return
    g = d.graph
    for p in enumerate_paths_k(d, kappa - 1):
        members = set(p)
        for u in range(g.n):
            if u not in members and all(g.has_edge(u, v) for v in p):
                yield row_path_km1(d, p, u, kappa)


def rows_path_km2(d: BidirectedDigraph, kappa: int) -> Iterator[LinearRow]:
    if kappa < 3:
        return
    g = d.graph
    for p in enumerate_paths_k(d, kappa - 2):
        members = set(p)
        for u in range(g.n):
            if u in members or not (g.has_edge(u, p[0]) and g.has_edge(u, p[-1])):
                continue
            for r in g.adj[u]:
                if r not in members:
                    yield row_path_km2(d, p, u, r, kappa)


def _pendant_assignments(g, cycle: Tuple[int, ...]):
    members = set(cycle)
    options = [[r for r in g.adj[v] if r not in members] for v in cycle]
    chosen: List[int] = []
    used = set()

    def rec(k: int):
        if k == len(cycle):
            yield tuple(chosen)
            return
        for r in options[k]:
            if r not in used:
                chosen.append(r)
                used.add(r)
                yield from rec(k + 1)
                chosen.pop()
                used.remove(r)

    yield from rec(0)


def rows_cycle_arcs(d: BidirectedDigraph, kappa: int) -> Iterator[LinearRow]:
    if kappa < 2 or kappa > d.n:
        return
    g = d.graph
    for cyc in enumerate_cycles(d, kappa):
        if len(cyc) != kappa:
            continue
        for pendants in _pendant_assignments(g, cyc):
            for inbound in (True, False):
                yield row_cycle_arcs(d, cyc, pendants, kappa, inbound)


def rows_adjacent_paths(d: BidirectedDigraph, kappa: int) -> Iterator[LinearRow]:
    g = d.graph
    groups: Dict[Tuple[int, int], List[Tuple[int, ...]]] = {}
    for p in enumerate_paths_k(d, kappa):
        groups.setdefault((p[0], p[1]), []).append(p)
    for key in sorted(groups):
        bucket = groups[key]
        for p1, p2 in itertools.combinations(bucket, 2):
            prefix = 0
            while prefix <= kappa and p1[prefix] == p2[prefix]:
                prefix += 1
            if not set(p1[prefix:]).isdisjoint(p2[prefix:]):
                continue
            for rung in range(prefix, kappa + 1):
                a, b = p1[rung], p2[rung]
                if a != b and g.has_edge(a, b):
                    yield row_adjacent_paths(d, p1, p2, rung, kappa, mirrored=False)
                    yield row_adjacent_paths(d, p1, p2, rung, kappa, mirrored=True)


_TEMPLATE_GENERATORS = {
    "cycle-z": rows_cycle_z,
    "path-km1": rows_path_km1,
    "path-km2": rows_path_km2,
    "cycle-arcs": rows_cycle_arcs,
    "adjacent-paths": rows_adjacent_paths,
}


def template_rows(d: BidirectedDigraph, kappa: int,
                  tags: Optional[Sequence[str]] = None) -> Iterator[LinearRow]:
    """Every instantiation of the structured row families, exhaustively."""
    for tag in (tags or TEMPLATE_TAGS):
        if tag not in _TEMPLATE_GENERATORS:
            raise InputError(f"unknown template class {tag!r}")
        yield from _TEMPLATE_GENERATORS[tag](d, kappa)


class TemplatePool:
    """The solver's template candidates for one graph and kappa: cycle-z rows.

    The pool keeps the first `STRUCTURE_CAP` rows that `rows_cycle_z`
    generates, duplicates (by `row.key`) keeping their first occurrence, and
    a CSR copy of them with z in column 2m. None of it depends on the point
    being separated, so one pool serves every cut round of a solve, and it is
    read-only once built. The other template families stay out of the solver:
    on the benchmark each of them cost more time than it saved.
    """

    def __init__(self, d: BidirectedDigraph, kappa: int):
        self.d = d
        self.kappa = kappa
        unique: Dict[tuple, LinearRow] = {}
        for row in itertools.islice(rows_cycle_z(d, kappa), STRUCTURE_CAP):
            unique.setdefault(row.key, row)
        rows = self.rows = list(unique.values())
        z_index = d.num_arcs
        sizes = np.fromiter((len(r.coeffs) + (r.z_coeff != 0) for r in rows),
                            dtype=np.intp, count=len(rows))
        nnz = int(sizes.sum())
        self.starts = np.zeros(len(rows), dtype=np.intp)
        np.cumsum(sizes[:-1], out=self.starts[1:])
        self.index = np.fromiter(
            itertools.chain.from_iterable(
                itertools.chain(r.coeffs, (z_index,) if r.z_coeff else ()) for r in rows),
            dtype=np.intp, count=nnz)
        self.data = np.fromiter(
            itertools.chain.from_iterable(
                itertools.chain(r.coeffs.values(), (r.z_coeff,) if r.z_coeff else ())
                for r in rows),
            dtype=float, count=nnz)
        self.rhs = np.fromiter((r.rhs for r in rows), dtype=float, count=len(rows))

    def violated(self, x: np.ndarray) -> Iterator[LinearRow]:
        """Rows the matvec scores as violated at x = (w, z), with a margin.

        Every row has sense <=. The margin only lets borderline rows through;
        the caller decides on each row's own `violation`, so the result does
        not depend on the summation order here.
        """
        if not self.rows:
            return iter(())
        score = np.add.reduceat(self.data * x[self.index], self.starts) - self.rhs
        return (self.rows[i] for i in np.flatnonzero(score > VIOLATION_TOL - 1e-9))


def separate_templates(d: BidirectedDigraph, w: Sequence[float], z: float, kappa: int,
                       cap: int = MAX_CUTS_PER_CLASS,
                       pool: Optional[TemplatePool] = None) -> List[LinearRow]:
    """Violated cycle-z rows at (w, z), most violated first, at most `cap`.

    `pool` carries the candidate rows across calls; it must have been made
    for this d and kappa. Without one, a pool is built for this call alone.
    """
    if len(w) != d.num_arcs:
        raise InputError("w has wrong arc dimension")
    if pool is None:
        pool = TemplatePool(d, kappa)
    elif pool.d is not d or pool.kappa != kappa:
        raise InputError("template pool was built for another graph or kappa")
    x = np.empty(d.num_arcs + 1)
    x[:-1] = w
    x[-1] = z
    found: Dict[tuple, Tuple[float, LinearRow]] = {}
    for row in pool.violated(x):
        viol = row.violation(w, z)
        if viol > VIOLATION_TOL:
            found[row.key] = (viol, row)
    return _top_rows(found, cap)
