"""Branch and bound with cutting planes over the orientation models.

Nodes carry their parent's last program, which a node copies with its forced
arcs fixed and re-solves from the parent's basis; the program's rows are the
node's row set, base rows and every cut of its lineage. Nothing writes the
parent's program, so processing a node is a pure function of the node, the
incumbent's objective when it is popped and the shared, read-only problem
data.
Every LP point, integral or fractional, goes through the same cut round, which
reads the point once as plain Python floats, the same doubles. The round asks
the window search for kappa-arc path rows and for cycle-z rows, the one
template family the solver separates, and asks the cycle separator, one
Dijkstra search per vertex, only at an integral point where both return
nothing. Each separator returns only rows violated by more than 1e-6 at the LP
optimum, where every row of the program holds to within 1e-7, and no two
families share a row, so a round appends each row it finds and never one the
program already has.
An integral point is the node's candidate, at z = max(load, z_lower), when its
load, the most selected arcs on one kappa-arc path, is at most the LP's z, its
arcs close no directed cycle (the LP point holds bounds and pair rows already)
and, where the solve passes `labels`, its arcs have a labeling in them
(`least_labels`). A point refused by the labels alone gets the no-good row
sum_{a in arcs} w_a <= |arcs| - 1 as its round; in the orientation model, the
only one labels are for, every point selects m arcs, so the row removes that
one orientation. Any other integral point that is no candidate has a directed
cycle or an overloaded window, which the exact separators cut off; it cannot
branch, so its round must find a row and ignores the round and tail limits.
After each LP solve and its candidate test, the node stops once its bound meets
the incumbent's cutoff: it runs no further round and has no children, since
every point below it would be no better than the incumbent.
A node branches only when a fractional round finds no row before the deadline.
The search is a plain best-first loop: it pops the open node with the
smallest bound (ties go to the most recently pushed), prunes it against the
incumbent or processes it, and pushes its children. Nothing in it is random
and, apart from the deadline, nothing depends on timing, so identical inputs
reproduce the incumbent at every pop and with it every report, which is part
of the reporting contract.

In the orientation model a clique on kappa + 1 vertices bounds z from below
by kappa: every orientation of it has a directed path of kappa arcs (Redei's
theorem on tournaments). The root enters the heap with the cost minimum over
the variable box, so a start point that meets that bound settles the solve
without an LP.

In the orientation model, when every point that can still improve has z
below kappa, none of them selects a directed path of kappa arcs: it would
hold a kappa-arc window of load kappa. That holds when the z upper bound is
below kappa, as in every fixed-spectrum probe, or when the objective is z
alone and the incumbent is at most kappa when the search starts, as in every
`color` certify window; the incumbent only falls after that. Such a point's
orientation has labels f(v) in [0, kappa - 1] that rise along every arc, its
longest-path labels. The search then propagates the forced arcs of each
child it pushes to a fixpoint (`_propagate`). Each vertex holds a window of
the labels it may still take, narrowed by the forced arcs and by `labels`,
the labels its candidates must use (a fixed-spectrum probe's availability
sets). An unforced edge one of whose directions would leave no room
between its ends' windows is forced the other way. Every side row
w_a + w_b <= 1 among the extra rows forces b's reverse once a is forced. A
child left with a forced cycle, an empty window, a side row with both arcs
forced or an edge with no direction is dropped and counted as pruned.
Where the search does not propagate, a child whose forced arcs close a
cycle is pushed like any other, and the cycle rows cut it off as they cut
off any cyclic integral point. The root is not propagated: `_Context`'s
block pivot on the pair rows skips only the edges the root fixes, so that
would have to happen before it is built.

The base program starts in the basis the root's first solve would reach
after its pivots on the edge-pair rows. At the start point, each variable at
the bound its cost prefers, a pair row whose two arcs cost the same is
violated, unless it is a selection row and that cost is not negative. The
dual simplex would pivot each such row once, degenerately or not, and its
ratio test would pick arc 2e. `_Context` makes those pivots as one block
pivot before the side rows join, except on the edge the root fixes. On the
instances of the tests and the benchmark the root's first solve then ends
in the same basis as from the slack basis, one pivot sooner per row pivoted.

A deadline is an absolute `time.monotonic()` reading, or None for none. The
drivers hand the one deadline of a command to every solve they make. The
search checks it after each pop, once the popped node has escaped pruning (a
node the incumbent prunes is pruned even past the deadline), and a node's cut
loop checks it before each round and after a round that finds no row (the
window search reads it too and, past it, returns the rows it holds). Past
it, a node that is neither a candidate nor pruned goes back onto the heap
with its current program, whatever its point. Each LP solve reads it too,
once every `lp.DEADLINE_PIVOTS` pivots; a solve that stops there puts its
node back onto the heap with its program, at the bound the node was popped
with. The search stops at the next pop it cannot prune and reports `timeout`
with the best bound among that node and the open ones.
"""

from __future__ import annotations

import bisect
import heapq
import math
import time
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import InputError, SolverError, TimeLimitError
from .graphs import (
    UndirectedGraph,
    dag_longest_path,
    find_directed_cycle,
    greedy_clique,
    greedy_coloring,
    least_labels,
    max_path_load,
    order_arcs,
)
from .lp import FEAS_TOL, LinearProgram
from .model import (
    AO,
    INT_TOL,
    LinearRow,
    ModelConfig,
    ModelPoint,
    check_integral_feasible,
    row_edge_pair,
)
from .separation import separate_cycles, separate_paths, separate_templates, walk_bounds

# The tail-off limits pay: 40 nodes of G(20, 0.5) seed 2 at kappa 5 took 32 s and 194 MB
# with them, 44 s and 230 MB without (2-core x86 host, one BLAS thread).
MAX_CUT_ROUNDS = 20
TAIL_EPS = 1e-5
TAIL_ROUNDS = 3
PRUNE_EPS = 1e-6


@dataclass(frozen=True)
class Objective:
    """Minimize z_coeff * z + sum(w_coeffs[a] * w_a) + const."""

    z_coeff: float = 1.0
    w_coeffs: Mapping[int, float] = field(default_factory=dict)
    const: float = 0.0

    def value(self, point: ModelPoint) -> float:
        return self.z_coeff * point.z + \
            sum(c * point.w[a] for a, c in self.w_coeffs.items()) + self.const

    @property
    def is_integral(self) -> bool:
        vals = [self.z_coeff, self.const, *self.w_coeffs.values()]
        return all(abs(v - round(v)) < 1e-9 for v in vals)


def default_objective(cfg: ModelConfig, m: int) -> Objective:
    if cfg.variant == AO:
        return Objective()
    penalty = float(m + 1)
    return Objective(w_coeffs={a: -penalty for a in range(2 * m)})


@dataclass
class SolveReport:
    status: str
    best_point: Optional[ModelPoint]
    objective: Optional[float]
    bound: float
    node_count: int
    pruned_count: int
    cut_counts: Dict[str, int]
    node_bound_histories: List[List[float]]
    lp_iterations: int

    @property
    def root_bound_history(self) -> List[float]:
        return self.node_bound_histories[0] if self.node_bound_histories else []


@dataclass(frozen=True)
class _Node:
    forced: Tuple[Tuple[int, int], ...]  # sorted (arc, value) pairs
    lp: LinearProgram  # the parent's last program; copied, never written


@dataclass
class _NodeResult:
    status: str  # "infeasible" | "candidate" | "pruned" | "branched" | "stopped"
    bound: float
    history: List[float]
    cuts_by_tag: Dict[str, int]
    lp_iterations: int
    candidate: Optional[ModelPoint] = None
    children: Tuple[_Node, ...] = ()


class _Context:
    """Shared, read-only problem data for node processing."""

    def __init__(self, g: UndirectedGraph, cfg: ModelConfig, objective: Objective,
                 extra_rows: Sequence[LinearRow], deadline: Optional[float],
                 labels: Optional[Sequence[Optional[Sequence[int]]]] = None,
                 root_forced: Tuple[Tuple[int, int], ...] = ()):
        self.g = g
        self.cfg = cfg
        self.objective = objective
        self.deadline = deadline
        self.labels = labels  # the candidate test's menus, None for none
        m = g.m
        cost = [0.0] * (2 * m) + [objective.z_coeff]
        for a, c in objective.w_coeffs.items():
            cost[a] += c
        z_lower = cfg.z_lower
        if cfg.variant == AO and len(greedy_clique(g)) > cfg.kappa:
            z_lower = max(z_lower, float(cfg.kappa))  # the clique bound
        lower, upper = [0.0] * (2 * m) + [z_lower], [1.0] * (2 * m) + [cfg.z_upper]
        self.base_lp = LinearProgram(cost, lower, upper)
        # the start point: each variable at the bound its cost prefers
        start = [hi if c < 0 else lo for c, lo, hi in zip(cost, lower, upper)]
        self.box_bound = objective.const + sum(c * s for c, s in zip(cost, start))
        pairs = [row_edge_pair(g, e, cfg.variant) for e in range(m)]
        for row in pairs:
            self.base_lp.add_row(row.coeffs_with_z(2 * m), row.sense, row.rhs)
        # The root's first pivots, made at once: arc 2e enters on each pair
        # row the start point violates, as the ratio test's tie-break picks
        # it when both arcs cost the same, except on an edge the root fixes.
        fixed = {a // 2 for a, _ in root_forced}
        self.base_lp.pivot_block([
            (e, 2 * e) for e, row in enumerate(pairs)
            if cost[2 * e] == cost[2 * e + 1] and e not in fixed
            and row.violation(start[:2 * m], start[2 * m]) > FEAS_TOL])
        for row in extra_rows:
            self.base_lp.add_row(row.coeffs_with_z(2 * m), row.sense, row.rhs)

    def expired(self) -> bool:
        """Whether the solve's deadline has passed."""
        return self.deadline is not None and time.monotonic() >= self.deadline


def _branch(ctx: _Context, node: _Node, w: Sequence[float],
            lp: LinearProgram) -> Tuple[_Node, ...]:
    """Children on the most fractional edge: pair sum closest to one, then
    the largest smaller direction, ties by edge index. Both children carry
    `lp`, the program that gave `w`. A child whose forced arcs close a cycle
    is kept: the propagation drops it where the search propagates, and the
    cycle rows cut it off where it does not."""
    edge = min(
        (e for e in range(ctx.g.m)
         if min(w[2 * e], 1.0 - w[2 * e]) >= INT_TOL
         or min(w[2 * e + 1], 1.0 - w[2 * e + 1]) >= INT_TOL),
        key=lambda e: (abs(w[2 * e] + w[2 * e + 1] - 1.0),
                       -min(w[2 * e], w[2 * e + 1]), e))
    arc = 2 * edge if w[2 * edge] >= w[2 * edge + 1] else 2 * edge + 1
    up = dict(node.forced)
    up[arc] = 1
    up[arc ^ 1] = 0
    down = dict(node.forced)
    down[arc] = 0
    if ctx.cfg.variant == AO:
        down[arc ^ 1] = 1
    return tuple(_Node(tuple(sorted(f.items())), lp) for f in (down, up))


def _propagate(g: UndirectedGraph, forced: Tuple[Tuple[int, int], ...], kappa: int,
               labels: Optional[Sequence[Optional[Sequence[int]]]] = None,
               side: Sequence[Tuple[int, int]] = ()) -> Optional[Tuple[Tuple[int, int], ...]]:
    """`forced`, AO-consistent, with the arcs that every acyclic orientation
    agreeing with it must hold if it selects at most one arc of each pair in
    `side` and has a labeling f with f(u) < f(v) on each arc u -> v, each
    f(v) in [0, kappa - 1] and, where `labels[v]` is not None, in that sorted
    tuple; or None when there is no such orientation. With no labels the
    labeling says no directed path of kappa arcs.

    Each sweep first reads `side`: an arc of a pair forced on forces the
    other off, and so its reverse on, and a pair with both arcs on leaves
    none. A sweep that forces nothing there gives each vertex v a window
    [lo(v), hi(v)] from F, the arcs forced to 1. lo is F's least labeling
    (`least_labels`), and a cycle in F, or a vertex with no label up to
    kappa - 1 left, leaves none; hi(v) is the largest label v may take that is at most
    hi(u) - 1 for every F-arc v -> u. Every labeling has
    lo(v) <= f(v) <= hi(v), so an empty window leaves none. Without labels,
    lo(v) is the most arcs on an F-path into v and kappa - 1 - hi(v) the
    most on one out of v. An unforced edge {u, v} cannot run u -> v when
    lo(u) >= hi(v): both are labels their vertices may take, so that is
    exactly when v has none in [lo(u) + 1, hi(v)], and when u has none in
    [lo(u), hi(v) - 1]. An edge with no direction left leaves none; one with
    one direction left is forced that way. The sweeps stop when one forces
    nothing. An edge that one direction would close into a forced cycle may
    stay unforced; the child that forces it so is dropped by its own
    `least_labels`.

    The search does not propagate the root. That would have to happen
    before `_Context` is built, since its block pivot on the pair rows
    skips only the edges the root fixes.
    """
    fixed = dict(forced)
    n = g.n
    top = kappa - 1
    menus = labels or [None] * n
    while True:
        off = set()
        for pair in side:
            for a, b in (pair, pair[::-1]):
                if fixed.get(a) == 1:
                    if fixed.get(b) == 1:
                        return None
                    if b not in fixed:
                        off.add(b)
        if off:
            if any(b ^ 1 in off for b in off):
                return None
            for b in off:
                fixed[b], fixed[b ^ 1] = 0, 1
            continue
        ones = frozenset(a for a, v in fixed.items() if v == 1)
        lo = least_labels(g, ones, top, labels)
        if lo is None:
            return None
        outs: List[List[int]] = [[] for _ in range(n)]
        for a in ones:
            outs[g.tails[a]].append(g.heads[a])
        hi = [top] * n
        # lo rises along every F-arc, so falling lo is a reverse topological order
        for v in sorted(range(n), key=lo.__getitem__, reverse=True):
            high = top
            for u in outs[v]:
                high = min(high, hi[u] - 1)
            menu = menus[v]
            if menu is not None:
                i = bisect.bisect_right(menu, high)
                high = menu[i - 1] if i else -1
            if high < lo[v]:
                return None
            hi[v] = high
        new = {}
        for a in range(0, g.num_arcs, 2):
            if a in fixed:
                continue
            u, v = g.tails[a], g.heads[a]
            no_uv = lo[u] >= hi[v]
            no_vu = lo[v] >= hi[u]
            if no_uv and no_vu:
                return None
            if no_uv or no_vu:
                keep = a ^ 1 if no_uv else a
                new[keep], new[keep ^ 1] = 1, 0
        if not new:
            return tuple(sorted(fixed.items()))
        fixed.update(new)


def _integral_point(g: UndirectedGraph, cfg: ModelConfig,
                    arcs: AbstractSet[int]) -> Tuple[ModelPoint, int]:
    """The 0/1 point that selects `arcs`, at z = max(load, z_lower), and its
    load: the most arcs of `arcs` on one kappa-arc path."""
    load, _ = max_path_load(g, arcs, cfg.kappa)
    w = tuple(1.0 if a in arcs else 0.0 for a in range(g.num_arcs))
    return ModelPoint(w, max(float(load), cfg.z_lower)), load


def _process_node(ctx: _Context, node: _Node, incumbent: float) -> _NodeResult:
    """Cut loop on one node. Pure in its arguments apart from the deadline,
    which ends the separation rounds early. An LP point that is not a
    candidate and whose bound meets the cutoff of `incumbent`, the best
    objective so far, prunes the node: no further round and no children. Past
    the deadline, any other point makes the node, with its current program,
    its own one child. An LP solve that passes the deadline stops the node
    at once ("stopped"), its own one child with the program as the solve left
    it."""
    g = ctx.g
    cfg = ctx.cfg
    m = g.m
    lp = node.lp.branch(node.forced)
    sol = lp.solve(ctx.deadline)
    iterations = sol.iterations
    history: List[float] = []
    cuts_by_tag: Dict[str, int] = {}
    tail = 0
    rounds = 0

    while True:
        if sol.status == "stopped":  # the LP passed the deadline
            return _NodeResult("stopped", -math.inf, history, cuts_by_tag, iterations,
                               children=(_Node(node.forced, lp),))
        if not sol.optimal:
            return _NodeResult("infeasible", math.inf, history, cuts_by_tag, iterations)
        bound = sol.objective + ctx.objective.const
        history.append(bound)
        x = sol.x.tolist()
        w = x[:2 * m]
        z = x[2 * m]
        integral = all(min(v, 1.0 - v) < INT_TOL for v in w)
        fresh = []
        if integral:
            arcs = frozenset(a for a in range(2 * m) if w[a] > 0.5)
            point, load = _integral_point(g, cfg, arcs)
            if load <= z + INT_TOL and find_directed_cycle(g, arcs) is None:
                if ctx.labels is None or least_labels(
                        g, arcs, cfg.kappa - 1, ctx.labels) is not None:
                    return _NodeResult("candidate", bound, history, cuts_by_tag, iterations,
                                       candidate=point)
                fresh = [LinearRow(dict.fromkeys(arcs, 1.0), 0, len(arcs) - 1, "<=", "no-good")]
        if _prunable(bound, incumbent, ctx.objective.is_integral):
            return _NodeResult("pruned", bound, history, cuts_by_tag, iterations)
        if ctx.expired():
            return _NodeResult("branched", bound, history, cuts_by_tag, iterations,
                               children=(_Node(node.forced, lp),))
        if not integral:
            rounds += 1
            if len(history) >= 2 and history[-1] - history[-2] < TAIL_EPS:
                tail += 1
            else:
                tail = 0
        if not fresh and (integral or rounds < MAX_CUT_ROUNDS and tail < TAIL_ROUNDS):
            best = walk_bounds(g, w, cfg.kappa + 1)  # one table for both searches
            fresh = (separate_paths(g, w, z, cfg.kappa, ctx.deadline, best)
                     + separate_templates(g, w, z, cfg.kappa, ctx.deadline, best)
                     or (separate_cycles(g, w) if integral else []))
        if not fresh:
            if ctx.expired():  # the window search stopped early
                return _NodeResult("branched", bound, history, cuts_by_tag, iterations,
                                   children=(_Node(node.forced, lp),))
            if integral:
                raise SolverError("no cut separates an infeasible integral point")
            return _NodeResult("branched", bound, history, cuts_by_tag, iterations,
                               children=_branch(ctx, node, w, lp))
        for r in fresh:
            cuts_by_tag[r.tag] = cuts_by_tag.get(r.tag, 0) + 1
        sol = lp.add_rows_and_resolve(
            [(r.coeffs_with_z(2 * m), r.sense, r.rhs) for r in fresh], ctx.deadline)
        iterations += sol.iterations


def _prunable(bound: float, incumbent: float, integral_objective: bool) -> bool:
    if incumbent == math.inf:
        return False
    if integral_objective:
        return math.ceil(bound - PRUNE_EPS) >= incumbent - 1e-9
    return bound >= incumbent - 1e-9


def solve_model(g: UndirectedGraph, cfg: ModelConfig, *,
                objective: Optional[Objective] = None,
                extra_rows: Sequence[LinearRow] = (),
                labels: Optional[Sequence[Optional[Sequence[int]]]] = None,
                deadline: Optional[float] = None) -> SolveReport:
    """Exact minimization over acyclic orientations or partial selections.

    `extra_rows` are hard constraints. `labels` (orientation model only)
    gives each vertex the labels it may take, or None for any, and is the
    candidate test: a point's arc set passes it when it has a labeling f
    with f(u) < f(v) on each arc u -> v and each f(v) in [0, kappa - 1] and
    in its labels (`least_labels`). A refused candidate's orientation is cut
    off by a no-good row, after which its node re-solves; where the search
    propagates children, the labels narrow that too (see the module
    docstring). Past `deadline` (a `time.monotonic()` reading) the search
    stops with status `timeout`.
    In the orientation model, a clique of more than kappa vertices raises the
    z lower bound to kappa, whatever the objective, rows or labels. The start
    point, the DSATUR orientation, is offered when its load is at most the z
    upper bound, it satisfies `extra_rows` and passes the labels.
    Reversing every arc maps the pair, cycle and path rows onto themselves, so
    the search fixes arc 0 on and arc 1 off, halving itself, when all else is
    reversal invariant too: the orientation model, no `labels`, equal costs
    on a and a ^ 1, and `extra_rows` whose keys, arcs mapped a -> a ^ 1, are
    again keys of extra rows.
    Raises InputError for a negative z cost, which the search's integral
    points, at z = max(load, z lower bound), would misprice, for an arc
    index outside [0, 2m) in the objective or in `extra_rows`, and for
    `labels` on the selection model or not one per vertex.
    """
    if labels is not None:
        if cfg.variant != AO:
            raise InputError("labels need the orientation model")
        if len(labels) != g.n:
            raise InputError(f"labels for {len(labels)} vertices, the graph has {g.n}")
        labels = [None if menu is None else tuple(sorted(menu)) for menu in labels]
    m = g.m
    obj = objective if objective is not None else default_objective(cfg, m)
    if obj.z_coeff < 0:
        raise InputError("the z cost must not be negative")
    if not set(obj.w_coeffs).union(*(r.coeffs for r in extra_rows)) <= set(range(2 * m)):
        raise InputError(f"an objective or row arc index is outside [0, {2 * m})")
    integral_obj = obj.is_integral

    if m == 0:
        if labels is not None and least_labels(g, (), cfg.kappa - 1, labels) is None:
            return SolveReport("infeasible", None, None, math.inf, 0, 0, {}, [], 0)
        point = ModelPoint((), float(cfg.z_lower))
        val = obj.value(point)
        return SolveReport("optimal", point, val, val, 0, 0, {}, [], 0)

    incumbent_obj = math.inf
    best: Optional[ModelPoint] = None

    def offer(point: ModelPoint) -> bool:
        nonlocal incumbent_obj, best
        val = obj.value(point)
        if val < incumbent_obj - 1e-12:
            incumbent_obj = val
            best = point
            return True
        return False

    arcs = _dsatur_arcs(g)
    start, load = _integral_point(g, cfg, arcs)
    if load <= cfg.z_upper and all(r.satisfied(start.w, start.z, tol=1e-7) for r in extra_rows) \
            and (labels is None or least_labels(g, arcs, cfg.kappa - 1, labels) is not None):
        offer(start)

    keys = {r.key for r in extra_rows}
    mirrored = {(s, rhs, zc, tuple(sorted((a ^ 1, c) for a, c in cs))) for s, rhs, zc, cs in keys}
    symmetric = cfg.variant == AO and labels is None and mirrored == keys and all(
        obj.w_coeffs.get(a ^ 1, 0.0) == c for a, c in obj.w_coeffs.items())
    root_forced = ((0, 1), (1, 0)) if symmetric else ()
    # whether every point that can still improve has z below kappa; once the
    # incumbent is at most kappa it stays so, as it only falls
    propagate = cfg.variant == AO and (
        cfg.z_upper < cfg.kappa or obj == Objective() and incumbent_obj <= cfg.kappa)
    # the side rows w_a + w_b <= 1 that the propagation reads
    side = [tuple(r.coeffs) for r in extra_rows
            if r.sense == "<=" and r.rhs == 1 and r.z_coeff == 0 and len(r.coeffs) == 2
            and all(c == 1 for c in r.coeffs.values())] if propagate else []
    ctx = _Context(g, cfg, obj, extra_rows, deadline, labels, root_forced)
    root = _Node(root_forced, ctx.base_lp)

    seq = 0
    heap: List[Tuple[float, int, _Node]] = [(ctx.box_bound, -seq, root)]
    node_count = 0
    pruned_count = 0
    cut_counts: Dict[str, int] = {}
    histories: List[List[float]] = []
    lp_iters = 0

    while heap:
        bound, _, node = heapq.heappop(heap)
        if _prunable(bound, incumbent_obj, integral_obj):
            pruned_count += 1
            continue
        if ctx.expired():
            bound = min([bound, incumbent_obj] + [b for b, _, _ in heap])
            return SolveReport("timeout", best, None if best is None else incumbent_obj,
                               bound, node_count, pruned_count, cut_counts, histories, lp_iters)
        res = _process_node(ctx, node, incumbent_obj)
        node_count += 1
        lp_iters += res.lp_iterations
        for tag, cnt in res.cuts_by_tag.items():
            cut_counts[tag] = cut_counts.get(tag, 0) + cnt
        histories.append(res.history)
        if res.status == "candidate":
            offer(res.candidate)
        elif res.status == "pruned":
            pruned_count += 1
        elif res.status == "stopped":
            # back onto the heap with its program, at the bound it was popped
            # with; the next pop reports the timeout
            seq += 1
            heapq.heappush(heap, (bound, -seq, res.children[0]))
        elif res.status == "branched":
            # no child needs a cutoff test: the cut loop found this bound
            # short of the cutoff, and the incumbent has not moved since
            for child in res.children:
                if propagate:
                    forced = _propagate(g, child.forced, cfg.kappa, labels, side)
                    if forced is None:
                        pruned_count += 1
                        continue
                    child = _Node(forced, child.lp)
                seq += 1
                heapq.heappush(heap, (res.bound, -seq, child))

    if best is None:
        return SolveReport("infeasible", None, None, math.inf, node_count, pruned_count,
                           cut_counts, histories, lp_iters)
    return SolveReport("optimal", best, incumbent_obj, incumbent_obj, node_count,
                       pruned_count, cut_counts, histories, lp_iters)


def solve_ao(g: UndirectedGraph, kappa: int, *,
             deadline: Optional[float] = None) -> SolveReport:
    """Minimum achievable window load over acyclic orientations."""
    return solve_model(g, ModelConfig(kappa=kappa, variant=AO), deadline=deadline)


def _dsatur_arcs(g: UndirectedGraph) -> frozenset:
    """Every edge runs up the order (DSATUR colour, -index), so the arc set
    is acyclic with one arc per edge whatever the colouring."""
    colors = greedy_coloring(g)
    return order_arcs(g, sorted(range(g.n), key=lambda v: (colors[v], -v)))


def min_diameter_orientation(g: UndirectedGraph, *,
                             reports: Optional[List[SolveReport]] = None,
                             deadline: Optional[float] = None) -> Tuple[frozenset, int]:
    """Arcs of an acyclic orientation minimizing the longest directed path,
    one per edge, with that path's length.

    Each connected component starts from the orientation of its DSATUR
    coloring and repeatedly solves the window-load model at the incumbent
    diameter; the window shrinks strictly until the model certifies it cannot
    be beaten. Each component's arcs map back to `g` through the vertex list
    of its induced subgraph. `reports` collects every window solve's report.
    Every window solve shares `deadline`; a solve that reaches it raises
    TimeLimitError, whose `arcs` are the best orientation found so far: each
    finished component's optimum, the current component's last window and
    each later component's DSATUR start.
    """
    parts = []  # (original vertices, induced subgraph), components with edges only
    for comp in g.components():
        sub, verts = g.induced_subgraph(comp)
        if sub.m:
            parts.append((verts, sub))
    best = [_dsatur_arcs(sub) for _, sub in parts]

    def joined() -> frozenset:
        return frozenset(g.arc(verts[sub.tails[a]], verts[sub.heads[a]])
                         for (verts, sub), arcs in zip(parts, best) for a in arcs)

    try:
        for k, (_, sub) in enumerate(parts):
            kappa = dag_longest_path(sub, best[k])
            while kappa >= 1:
                rep = solve_ao(sub, kappa, deadline=deadline)
                if reports is not None:
                    reports.append(rep)
                if rep.status == "timeout":
                    raise TimeLimitError("time limit hit during the window search")
                if rep.status != "optimal":
                    raise SolverError(f"window solve ended with status {rep.status}")
                if rep.objective >= kappa - 1e-9:
                    break
                arcs = rep.best_point.arc_set()
                new_kappa = dag_longest_path(sub, arcs)
                if new_kappa >= kappa:
                    raise SolverError("window failed to shrink")
                best[k], kappa = arcs, new_kappa
    except TimeLimitError as exc:
        exc.arcs = joined()
        raise
    arcs = joined()
    return arcs, dag_longest_path(g, arcs)


def chromatic_number(g: UndirectedGraph, *,
                     reports: Optional[List[SolveReport]] = None,
                     deadline: Optional[float] = None) -> Tuple[int, List[int]]:
    """Exact chromatic number with a witness coloring, one colour per vertex.

    The longest-path labels of a diameter-minimal acyclic orientation form a
    proper coloring with one class per path level, and no coloring can use
    fewer classes than longest path + 1. The answer is checked once: the
    labels must exist within the window optimum q, use every level up to q
    and differ on every edge; otherwise SolverError, whose message says the
    recheck failed. `reports` collects every window solve's report. Raises
    TimeLimitError past `deadline`, carrying the best orientation's `arcs`.
    """
    arcs, q = min_diameter_orientation(g, reports=reports, deadline=deadline)
    colors = least_labels(g, arcs, q)
    if colors is None or max(colors) != q or any(colors[i] == colors[j] for i, j in g.edges):
        raise SolverError(f"coloring failed the final recheck at window optimum {q}")
    return q + 1, colors


def guaranteed_feasible_z(kappa: int, q: int) -> int:
    """Achievable window load when the window exceeds the optimal diameter.

    For kappa above q there is an orientation whose kappa-arc windows carry
    at most kappa - floor(kappa / (q + 1)) arcs: along any window, every
    q + 1 consecutive arcs include at least one that runs against the DAG.
    """
    if kappa < 1 or q < 0:
        raise InputError("kappa must be positive and q nonnegative")
    return kappa - kappa // (q + 1)


def check_load_reduction(g: UndirectedGraph, kappa: int, arcs: Iterable[int]) -> bool:
    """Confirm the reduced-load value against every model constraint.

    Pairs the orientation's arc set with z = kappa - floor(kappa / (diam + 1)),
    where diam is its longest path, and replays the full integral feasibility
    check at window kappa. Intended for orientations whose diameter is
    already minimal and kappa at least diam + 1.
    """
    arcs = g.check_arcs(arcs)
    diam = dag_longest_path(g, arcs)
    z = guaranteed_feasible_z(kappa, diam)
    w = tuple(1.0 if a in arcs else 0.0 for a in range(2 * g.m))
    ok, _ = check_integral_feasible(
        g, ModelConfig(kappa=kappa, variant=AO), ModelPoint(w, float(z)))
    return ok
