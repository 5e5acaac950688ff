"""Cut generation: exact cycle and path separation plus template enumeration.

Cycle rows are separated exactly through shortest paths under arc lengths
1 - w (a directed cycle is violated precisely when its total length drops
below 1). Path rows are separated by a pruned depth-first search over all
elementary paths with exactly kappa arcs. The structured row families
(cycle-z, path-km1, path-km2, cycle-arcs, adjacent-paths) are enumerated
exhaustively while the instantiation count stays under a cap and sampled with
a fixed seed beyond it. Those candidates depend only on the graph, kappa and
the seed, so a `TemplatePool` generates them once and keeps each family as a
sparse row matrix; template separation then scores a family with one sparse
matrix-vector product and rechecks the rows it flags exactly.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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
STRUCTURE_CAP = 20000
SAMPLE_SEED = 7  # fixed fallback seed; callers may override for reproducibility

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


def _sampled_rows(d: BidirectedDigraph, kappa: int, tag: str, rng: random.Random,
                  draws: int) -> Iterator[LinearRow]:
    """Random instantiations when exhaustive enumeration is too large."""
    g = d.graph
    if tag in ("cycle-z", "cycle-arcs"):
        length = kappa + 1 if tag == "cycle-z" else kappa
        for _ in range(draws):
            verts = rng.sample(range(g.n), min(length, g.n))
            if len(verts) != length:
                return
            if all(g.has_edge(verts[i], verts[(i + 1) % length]) for i in range(length)):
                if tag == "cycle-z":
                    yield row_cycle_z(d, verts, kappa)
                else:
                    members = set(verts)
                    pendants = []
                    ok = True
                    for v in verts:
                        opts = [r for r in g.adj[v] if r not in members and r not in pendants]
                        if not opts:
                            ok = False
                            break
                        pendants.append(rng.choice(opts))
                    if ok:
                        yield row_cycle_arcs(d, verts, pendants, kappa, rng.random() < 0.5)
        return
    # Path-shaped families: grow random paths arc by arc.
    for _ in range(draws):
        length = {"path-km1": kappa - 1, "path-km2": kappa - 2, "adjacent-paths": kappa}[tag]
        if length < 1:
            return
        p = [rng.randrange(g.n)]
        while len(p) <= length:
            opts = [u for u in g.adj[p[-1]] if u not in p]
            if not opts:
                break
            p.append(rng.choice(opts))
        if len(p) != length + 1:
            continue
        members = set(p)
        if tag == "path-km1":
            opts = [u for u in range(g.n)
                    if u not in members and all(g.has_edge(u, v) for v in p)]
            if opts:
                yield row_path_km1(d, p, rng.choice(opts), kappa)
        elif tag == "path-km2":
            opts = [u for u in range(g.n)
                    if u not in members and g.has_edge(u, p[0]) and g.has_edge(u, p[-1])]
            if not opts:
                continue
            u = rng.choice(opts)
            ropts = [r for r in g.adj[u] if r not in members]
            if ropts:
                yield row_path_km2(d, p, u, rng.choice(ropts), kappa)
        else:
            splits = [k for k in range(1, length)]
            rng.shuffle(splits)
            done = False
            for k in splits:
                if done:
                    break
                alts = [u for u in g.adj[p[k]] if u not in p[:k + 1]]
                rng.shuffle(alts)
                for alt in alts:
                    q = p[:k + 1] + [alt]
                    while len(q) <= length:
                        opts = [u for u in g.adj[q[-1]] if u not in q]
                        if not opts:
                            break
                        q.append(rng.choice(opts))
                    if len(q) != length + 1 or tuple(q) == tuple(p):
                        continue
                    prefix = 0
                    while prefix <= kappa and p[prefix] == q[prefix]:
                        prefix += 1
                    if not set(p[prefix:]).isdisjoint(q[prefix:]):
                        continue
                    rungs = [r for r in range(prefix, kappa + 1)
                             if g.has_edge(p[r], q[r])]
                    if rungs:
                        rung = rng.choice(rungs)
                        yield row_adjacent_paths(d, p, q, rung, kappa, rng.random() < 0.5)
                        yield row_adjacent_paths(d, p, q, rung, kappa, mirrored=True)
                        done = True
                        break


class _Family:
    """One family's candidate rows and their CSR copy, z in column 2m."""

    __slots__ = ("rows", "index", "data", "starts", "rhs", "equality")

    def __init__(self, rows: List[LinearRow], z_index: int):
        self.rows = rows
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
        self.equality = np.fromiter((r.sense == "=" for r in rows), dtype=bool,
                                    count=len(rows))

    def violated(self, x: np.ndarray) -> Iterator[LinearRow]:
        """Rows the matvec scores as violated at x, with a margin for rounding.

        The margin only lets borderline rows through; the caller decides on
        each row's own `violation`, so the result does not depend on the
        summation order here.
        """
        if not self.rows:
            return iter(())
        score = np.add.reduceat(self.data * x[self.index], self.starts) - self.rhs
        score = np.where(self.equality, np.abs(score), score)
        return (self.rows[i] for i in np.flatnonzero(score > VIOLATION_TOL - 1e-9))


class TemplatePool:
    """The candidate rows of every template family for one graph and kappa.

    A family holds its first `structure_cap` enumerated rows and, when the
    enumeration goes on past that cap, the seeded `_sampled_rows` draws;
    duplicates (by `row.key`) keep their first occurrence. None of it depends
    on the point being separated, so one pool serves every cut round of a
    solve, and it is read-only once built.
    """

    def __init__(self, d: BidirectedDigraph, kappa: int,
                 structure_cap: int = STRUCTURE_CAP, seed: int = SAMPLE_SEED):
        self.d = d
        self.kappa = kappa
        self.structure_cap = structure_cap
        self.seed = seed
        # one family per entry of TEMPLATE_TAGS, in that order
        self.families = tuple(_Family(self._candidates(tag), d.num_arcs)
                              for tag in TEMPLATE_TAGS)

    def _candidates(self, tag: str) -> List[LinearRow]:
        rows: Dict[tuple, LinearRow] = {}
        gen = _TEMPLATE_GENERATORS[tag](self.d, self.kappa)
        exhausted = True
        for count, row in enumerate(gen):
            if count >= self.structure_cap:
                exhausted = False
                break
            rows.setdefault(row.key, row)
        if not exhausted:
            rng = random.Random(f"{self.seed}:{tag}")
            for row in _sampled_rows(self.d, self.kappa, tag, rng, self.structure_cap):
                rows.setdefault(row.key, row)
        return list(rows.values())


def separate_templates(d: BidirectedDigraph, w: Sequence[float], z: float, kappa: int,
                       cap: int = MAX_CUTS_PER_CLASS,
                       structure_cap: int = STRUCTURE_CAP,
                       seed: int = SAMPLE_SEED,
                       pool: Optional[TemplatePool] = None) -> List[LinearRow]:
    """Violated structured rows, capped per class and merged in class order.

    `pool` carries the candidate rows across calls; it must have been made
    for this d, kappa, structure_cap and seed. Without one, a pool is built
    for this call alone.
    """
    if len(w) != d.num_arcs:
        raise InputError("w has wrong arc dimension")
    if pool is None:
        pool = TemplatePool(d, kappa, structure_cap, seed)
    elif (pool.d is not d or pool.kappa != kappa or pool.structure_cap != structure_cap
          or pool.seed != seed):
        raise InputError("template pool was built for another graph or settings")
    x = np.empty(d.num_arcs + 1)
    x[:-1] = w
    x[-1] = z
    merged: List[LinearRow] = []
    for family in pool.families:
        found: Dict[tuple, Tuple[float, LinearRow]] = {}
        for row in family.violated(x):
            viol = row.violation(w, z)
            if viol > VIOLATION_TOL:
                found[row.key] = (viol, row)
        merged.extend(_top_rows(found, cap))
    return merged
