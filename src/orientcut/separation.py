"""Cut generation: exact cycle, path and cycle-z separation plus template enumeration.

Cycle rows are separated exactly through shortest paths under arc lengths
1 - w (a directed cycle is violated precisely when its total length drops
below 1). One shortest-path tree per vertex closes every arc into a shortest
cycle through it; no second search is needed as long as w keeps the edge-pair
rows, as every node LP does (see `separate_cycles`). Path and cycle-z rows
bound the same thing, the load of a window, over paths of kappa arcs and over
cycles of kappa + 1 arcs, so one depth-first window search separates both,
walking open windows for paths and closed ones for cycles. It holds only the
`cap` most violated windows found so far and cuts every branch that cannot
beat z or, once `cap` are held, the least violation among them. A branch's
reach is exact for walks: its load plus the heaviest walk of the arcs left
from its end (`walk_bounds`, one pass over the arcs per window length), and
a closed window's last arc is the one arc back to its start. A walk may
repeat vertices, so the reach bounds every elementary window that extends
the branch, and the cuts drop none that the full search keeps. The solver
builds the table once per cut round, for kappa + 1 arcs, and hands it to
both searches.
The structured row families (cycle-z, path-km1, path-km2, cycle-arcs,
adjacent-paths) are enumerated exhaustively by `template_rows` for the
polytope laboratory. The solver separates only the cycle-z family; on the
benchmark each of the others cost more time than it saved.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import InputError
from .graphs import UndirectedGraph, enumerate_cycles, enumerate_paths_k
from .model import (
    LinearRow,
    row_adjacent_paths,
    row_cycle,
    row_cycle_arcs,
    row_cycle_z,
    row_path_km1,
    row_path_km2,
    row_window,
)

VIOLATION_TOL = 1e-6
MAX_CUTS_PER_CLASS = 50
WALK_SLACK = 1e-12  # walk bounds and window loads sum in different orders

TEMPLATE_TAGS = ("cycle-z", "path-km1", "path-km2", "cycle-arcs", "adjacent-paths")


def _top_rows(scored: Dict, cap: int) -> List[LinearRow]:
    """Most violated first; ties broken on the canonical key for determinism."""
    ranked = sorted(scored.values(), key=lambda t: (-t[0], t[1].key))
    return [row for _, row in ranked[:cap]]


def _dijkstra(g: UndirectedGraph, lengths: Sequence[float], s: int):
    dist = [float("inf")] * g.n
    pred = [-1] * g.n
    dist[s] = 0.0
    heap = [(0.0, s)]
    while heap:
        dv, v = heapq.heappop(heap)
        if dv > dist[v] + 1e-15:
            continue
        for a, u in g.out_arcs[v]:
            nd = dv + lengths[a]
            if nd < dist[u] - 1e-15:
                dist[u] = nd
                pred[u] = v
                heapq.heappush(heap, (nd, u))
    return dist, pred


def separate_cycles(g: UndirectedGraph, w: Sequence[float]) -> List[LinearRow]:
    """Directed cycles whose arcs sum above |C| - 1 at w, most violated first.

    Under lengths 1 - w a cycle is violated when its length is below
    1 - VIOLATION_TOL. One shortest-path tree per vertex closes each arc
    (i, j) through the shortest path from j back to i, which gives a shortest
    cycle through that arc: the 2-cycle when the path is the reverse arc. So
    the rows include a most violated cycle whenever any cycle is violated.

    No second search looks past a 2-cycle closure. When the reverse arc is
    the shortest way back, every cycle through (i, j) has length at least
    2 - (w_ij + w_ji). If w keeps the pair row w_ij + w_ji <= 1 to within
    VIOLATION_TOL, as the solution of every node LP does, none of these
    cycles is violated. At a point that breaks the pair row, the 2-cycle
    itself is violated and is returned.
    """
    if len(w) != g.num_arcs:
        raise InputError("w has wrong arc dimension")
    lengths = [max(0.0, 1.0 - w[a]) for a in range(g.num_arcs)]
    trees = [_dijkstra(g, lengths, s) for s in range(g.n)]

    found: Dict[Tuple[int, ...], Tuple[float, LinearRow]] = {}
    for a in range(g.num_arcs):
        i, j = g.tails[a], g.heads[a]
        dist, pred = trees[j]
        if dist[i] + lengths[a] >= 1.0 - VIOLATION_TOL:
            continue
        verts = [i]
        v = i
        while v != j:
            v = pred[v]
            verts.append(v)
        verts.reverse()  # j ... i; closing arc (i, j)
        k = verts.index(min(verts))
        canon = tuple(verts[k:] + verts[:k])
        if canon in found:
            continue
        row = row_cycle(g, canon)
        viol = row.violation(w, 0.0)
        if viol > VIOLATION_TOL:
            found[canon] = (viol, row)
    return _top_rows(found, MAX_CUTS_PER_CLASS)


def walk_bounds(g: UndirectedGraph, w: Sequence[float], arcs: int) -> List[List[float]]:
    """best[r][v], for r = 0..arcs: the largest weight at w of an r-arc walk
    out of v, or -inf when v starts none. One pass over the arcs per layer.

    A walk may repeat vertices, so best[r][v] is at least the load of every
    elementary window of r arcs from v, open or closed. Each entry sums its
    walk from the far end, w[a1] + (w[a2] + ...), an order the window search
    does not use, so a bound read from it can sit a few ulps below the
    window's load summed in window order.
    """
    best = [[0.0] * g.n]
    for _ in range(arcs):
        prev = best[-1]
        cur = [-math.inf] * g.n
        for x, t, h in zip(w, g.tails, g.heads):
            x += prev[h]
            if x > cur[t]:
                cur[t] = x
        best.append(cur)
    return best


def _violated_windows(g: UndirectedGraph, w: Sequence[float], z: float, kappa: int,
                      closed: bool, cap: int, deadline: Optional[float] = None,
                      best: Optional[Sequence[Sequence[float]]] = None,
                      ) -> List[Tuple[int, ...]]:
    """The `cap` elementary windows whose load exceeds z at (w, z) by more
    than VIOLATION_TOL, most violated first, each as its arcs in window order.

    An open window is a path of kappa arcs, walked from every start. A
    closed window is a cycle of kappa + 1 arcs, met once: walked from its
    smallest vertex s over vertices above s and closed by an arc back to s.
    The load is summed in window order, so load - z equals the row's
    `violation` to the bit, and ties rank on the sorted arc support, as
    `_top_rows` ranks rows.

    `best` is `walk_bounds(g, w, r)` for some r of at least kappa + closed;
    it is built here when None. A walk's reach is its load plus
    best[arcs left][v] at its end v, the heaviest way to spend the arcs
    left, so it bounds the load of every window that extends the walk; a
    closed walk one arc short has one way left, the arc back to s, and its
    reach adds that arc's weight. A step is cut when its reach is at most
    z + VIOLATION_TOL - WALK_SLACK, the slack covering the table's summation
    order, and, once `cap` windows are held, when the reach falls below the
    cap-th largest violation by more than 1e-9: every window under it would
    rank after all those held, and the margin keeps windows that tie on
    load. Neither cut drops a window that the full search keeps.

    Past `deadline` (a `time.monotonic()` reading), read at each walk of one
    or two arcs that escapes the cut, the search stops and returns the
    windows held.
    """
    if len(w) != g.num_arcs:
        raise InputError("w has wrong arc dimension")
    if kappa < 1:
        raise InputError("kappa must be at least 1")
    arcs = kappa + closed
    if best is None:
        best = walk_bounds(g, w, arcs)
    floor = z + VIOLATION_TOL - WALK_SLACK
    out = g.out_arcs
    # A heap of (violation, negated sorted support, arcs) with the window
    # that ranks last at its root; every support has `arcs` entries, so
    # negating them reverses their order. Two windows that tie on violation
    # and support are one window, so the arcs never decide a comparison.
    held: List[Tuple[float, Tuple[int, ...], Tuple[int, ...]]] = []
    walk: List[int] = []
    on = [False] * g.n
    # closed windows from s: home[u] is the arc u -> s (or -1), back[u] its
    # weight (or -inf), the one way to spend a window's last arc from u
    home = [-1] * g.n
    back = [-math.inf] * g.n

    def keep(viol: float, a: int):
        """Hold walk + [a], of violation `viol`, if it ranks among the top `cap`."""
        if viol > VIOLATION_TOL and (len(held) < cap or viol >= held[0][0]):
            window = walk + [a]
            item = (viol, tuple(-b for b in sorted(window)), tuple(window))
            if len(held) < cap:
                heapq.heappush(held, item)
            else:
                heapq.heappushpop(held, item)

    def extend(s: int, v: int, load: float):
        used = len(walk)
        if 0 < used < 3 and deadline is not None and time.monotonic() >= deadline:
            return
        if used == arcs - 1:
            if closed:  # the cut above left only ends v with an arc back to s
                keep(load + w[home[v]] - z, home[v])
            else:
                for a, u in out[v]:
                    if not on[u]:
                        keep(load + w[a] - z, a)
            return
        ahead = back if closed and used == arcs - 2 else best[arcs - used - 1]
        for a, u in out[v]:
            if on[u] or closed and u < s:
                continue
            reach = load + w[a] + ahead[u]
            if reach <= floor or len(held) == cap and reach - z < held[0][0] - 1e-9:
                continue
            walk.append(a)
            on[u] = True
            extend(s, u, load + w[a])
            walk.pop()
            on[u] = False

    if cap > 0 and arcs + (not closed) <= g.n:
        for s in range(g.n):
            if best[arcs][s] <= floor:
                continue
            if closed:
                for a, u in out[s]:
                    home[u], back[u] = a ^ 1, w[a ^ 1]
            on[s] = True
            extend(s, s, 0.0)
            on[s] = False
            if closed:
                for a, u in out[s]:
                    home[u], back[u] = -1, -math.inf
    return [window for _, _, window in sorted(held, reverse=True)]


def separate_paths(g: UndirectedGraph, w: Sequence[float], z: float, kappa: int,
                   deadline: Optional[float] = None,
                   best: Optional[Sequence[Sequence[float]]] = None) -> List[LinearRow]:
    """The MAX_CUTS_PER_CLASS kappa-arc path rows most violated at (w, z), most
    violated first: exact, by the window search over open windows, unless
    `deadline` stops the search. `best`, the walk bounds of (g, w) for at
    least kappa arcs, prunes the search; a caller that also separates
    cycle-z rows at the same point builds it once, for kappa + 1 arcs, and
    passes it to both. Each row lists its window's arcs head to tail, in
    window order."""
    return [row_window(p, "path") for p in _violated_windows(
        g, w, z, kappa, False, MAX_CUTS_PER_CLASS, deadline, best)]


def separate_templates(g: UndirectedGraph, w: Sequence[float], z: float, kappa: int,
                       deadline: Optional[float] = None,
                       best: Optional[Sequence[Sequence[float]]] = None) -> List[LinearRow]:
    """The MAX_CUTS_PER_CLASS cycle-z rows most violated at (w, z), most
    violated first: exact, by the window search over closed windows of
    kappa + 1 arcs, unless `deadline` stops the search. `best`, the walk
    bounds of (g, w) for at least kappa + 1 arcs, prunes the search and is
    built here when None. Each row lists its window's arcs in window order,
    from the cycle's smallest vertex round to it."""
    return [row_window(c, "cycle-z") for c in _violated_windows(
        g, w, z, kappa, True, MAX_CUTS_PER_CLASS, deadline, best)]


# ---------------------------------------------------------------------------
# Structured template enumeration, shared with the polytope laboratory.

def rows_cycle_z(g: UndirectedGraph, kappa: int) -> Iterator[LinearRow]:
    if kappa + 1 > g.n:
        return
    for cyc in enumerate_cycles(g, kappa + 1):
        if len(cyc) == kappa + 1:
            yield row_cycle_z(g, cyc, kappa)


def rows_path_km1(g: UndirectedGraph, kappa: int) -> Iterator[LinearRow]:
    if kappa < 2:
        return
    for p in enumerate_paths_k(g, kappa - 1):
        members = set(p)
        for u in range(g.n):
            if u not in members and all(g.has_edge(u, v) for v in p):
                yield row_path_km1(g, p, u, kappa)


def rows_path_km2(g: UndirectedGraph, kappa: int) -> Iterator[LinearRow]:
    if kappa < 3:
        return
    for p in enumerate_paths_k(g, kappa - 2):
        members = set(p)
        for u in range(g.n):
            if u in members or not (g.has_edge(u, p[0]) and g.has_edge(u, p[-1])):
                continue
            for r in g.adj[u]:
                if r not in members:
                    yield row_path_km2(g, p, u, r, kappa)


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


def rows_cycle_arcs(g: UndirectedGraph, kappa: int) -> Iterator[LinearRow]:
    if kappa < 2 or kappa > g.n:
        return
    for cyc in enumerate_cycles(g, kappa):
        if len(cyc) != kappa:
            continue
        for pendants in _pendant_assignments(g, cyc):
            for inbound in (True, False):
                yield row_cycle_arcs(g, cyc, pendants, kappa, inbound)


def rows_adjacent_paths(g: UndirectedGraph, kappa: int) -> Iterator[LinearRow]:
    groups: Dict[Tuple[int, int], List[Tuple[int, ...]]] = {}
    for p in enumerate_paths_k(g, kappa):
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
                    yield row_adjacent_paths(g, p1, p2, rung, kappa, mirrored=False)
                    yield row_adjacent_paths(g, p1, p2, rung, kappa, mirrored=True)


_TEMPLATE_GENERATORS = {
    "cycle-z": rows_cycle_z,
    "path-km1": rows_path_km1,
    "path-km2": rows_path_km2,
    "cycle-arcs": rows_cycle_arcs,
    "adjacent-paths": rows_adjacent_paths,
}


def template_rows(g: UndirectedGraph, kappa: int,
                  tags: Optional[Sequence[str]] = None) -> Iterator[LinearRow]:
    """Every instantiation of the structured row families, exhaustively."""
    for tag in (tags or TEMPLATE_TAGS):
        if tag not in _TEMPLATE_GENERATORS:
            raise InputError(f"unknown template class {tag!r}")
        yield from _TEMPLATE_GENERATORS[tag](g, kappa)
