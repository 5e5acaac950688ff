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
and the solve's `admissible` test, if any, accepts its arc set. A point refused
by that test alone gets the no-good row sum_{a in arcs} w_a <= |arcs| - 1 as
its round; in the orientation model, the only one the test is for, every point
selects m arcs, so the row removes that one orientation. Any other integral
point that is no candidate has a directed cycle or an overloaded window, which
the exact separators cut off; it cannot branch, so its round must find a row
and ignores the round and tail limits. After each LP solve and its candidate
test, the node stops once its bound meets the incumbent's cutoff: it runs no
further round and has no children, since every point below it would be no
better than the incumbent.
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
the labels it may still take, narrowed by the forced arcs and, where the
solve passes `labels`, by the labels its candidates must use (a
fixed-spectrum probe's availability sets). An unforced edge that one
direction would close into a forced cycle, or whose direction would leave
no room between its ends' windows, is forced the other way. Every side row
w_a + w_b <= 1 among the extra rows forces b's reverse once a is forced. A
child left with a forced cycle, an empty window, a side row with both arcs
forced or an edge with no direction is dropped and counted as pruned. That
pass is the child's acyclicity test, which `_branch` makes where the search
does not propagate. The root is not propagated.

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
with its current program, whatever its point. The search stops at the next
pop it cannot prune and reports `timeout` with the best bound among that
node and the open ones.
"""

from __future__ import annotations

import bisect
import heapq
import math
import time
from dataclasses import dataclass, field
from typing import (AbstractSet, Callable, Dict, Iterator, List, Mapping, Optional, Sequence,
                    Tuple)

from .errors import InputError, SolverError, TimeLimitError
from .graphs import (
    BidirectedDigraph,
    Orientation,
    UndirectedGraph,
    _kahn,
    dag_longest_path,
    find_directed_cycle,
    greedy_clique,
    greedy_coloring,
    longest_path_labels,
    max_path_load,
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
    status: str  # "infeasible" | "candidate" | "pruned" | "branched"
    bound: float
    history: List[float]
    cuts_by_tag: Dict[str, int]
    lp_iterations: int
    candidate: Optional[ModelPoint] = None
    children: Tuple[_Node, ...] = ()


class _Context:
    """Shared, read-only problem data for node processing."""

    def __init__(self, d: BidirectedDigraph, cfg: ModelConfig, objective: Objective,
                 extra_rows: Sequence[LinearRow], deadline: Optional[float],
                 admissible: Optional[Callable[[frozenset], bool]] = None,
                 root_forced: Tuple[Tuple[int, int], ...] = (),
                 propagate: bool = False):
        self.g = d.graph
        self.cfg = cfg
        self.d = d
        self.objective = objective
        self.deadline = deadline
        self.admissible = admissible
        self.propagate = propagate  # whether the search propagates each child
        m = d.graph.m
        cost = [0.0] * (2 * m) + [objective.z_coeff]
        for a, c in objective.w_coeffs.items():
            cost[a] += c
        z_lower = cfg.z_lower
        if cfg.variant == AO and len(greedy_clique(d.graph)) > cfg.kappa:
            z_lower = max(z_lower, float(cfg.kappa))  # the clique bound
        lower, upper = [0.0] * (2 * m) + [z_lower], [1.0] * (2 * m) + [cfg.z_upper]
        self.base_lp = LinearProgram(cost, lower, upper)
        # the start point: each variable at the bound its cost prefers
        start = [hi if c < 0 else lo for c, lo, hi in zip(cost, lower, upper)]
        self.box_bound = objective.const + sum(c * s for c, s in zip(cost, start))
        pairs = [row_edge_pair(d, e, cfg.variant) for e in range(m)]
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
    is dropped, unless the search propagates each child, which makes that
    test."""
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
    children = []
    for child_forced in (down, up):
        if ctx.propagate or find_directed_cycle(
                ctx.d, [a for a, v in child_forced.items() if v == 1]) is None:
            children.append(_Node(tuple(sorted(child_forced.items())), lp))
    return tuple(children)


def _propagate(d: BidirectedDigraph, forced: Tuple[Tuple[int, int], ...], kappa: int,
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
    none. A sweep that forces nothing there makes one Kahn pass over F, the
    arcs forced to 1, and a cycle in F leaves none. Otherwise each vertex v
    gets a window [lo(v), hi(v)]: lo(v) is the least label v may take that
    is at least lo(u) + 1 for every F-arc u -> v, and hi(v) the largest that
    is at most hi(u) - 1 for every F-arc v -> u. Every labeling has
    lo(v) <= f(v) <= hi(v), so an empty window leaves none. Without labels,
    lo(v) is the most arcs on an F-path into v and kappa - 1 - hi(v) the
    most on one out of v. An unforced edge {u, v} cannot run u -> v when F
    leads from v to u, or when lo(u) >= hi(v): both are labels their
    vertices may take, so that is exactly when v has none in
    [lo(u) + 1, hi(v)], and when u has none in [lo(u), hi(v) - 1]. An edge
    with no direction left leaves none; one with one direction left is
    forced that way. The sweeps stop when one forces nothing.

    The search does not propagate the root. That would have to happen
    before `_Context` is built, since its block pivot on the pair rows
    skips only the edges the root fixes. It also waits for the benchmark
    runner to stop keeping every pass's output: on `color-sparse` it cut
    the time per pass about fourfold, so the runner fit more passes and its
    peak memory rose by a quarter, past that metric's bound.
    """
    fixed = dict(forced)
    n = d.n
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
        order, _ = _kahn(d, ones)
        if len(order) < n:
            return None
        ins: List[List[int]] = [[] for _ in range(n)]
        outs: List[List[int]] = [[] for _ in range(n)]
        for a in ones:
            ins[d.heads[a]].append(d.tails[a])
            outs[d.tails[a]].append(d.heads[a])
        lo, hi, reach = [0] * n, [top] * n, [0] * n  # reach: a bitmask of vertices
        for v in order:
            low = max((lo[u] + 1 for u in ins[v]), default=0)
            menu = menus[v]
            if menu is not None:
                i = bisect.bisect_left(menu, low)
                low = menu[i] if i < len(menu) else kappa
            if low > top:
                return None
            lo[v] = low
        for v in reversed(order):
            high = top
            for u in outs[v]:
                high = min(high, hi[u] - 1)
                reach[v] |= reach[u] | 1 << u
            menu = menus[v]
            if menu is not None:
                i = bisect.bisect_right(menu, high)
                high = menu[i - 1] if i else -1
            if high < lo[v]:
                return None
            hi[v] = high
        new = {}
        for a in range(0, d.num_arcs, 2):
            if a in fixed:
                continue
            u, v = d.tails[a], d.heads[a]
            no_uv = reach[v] >> u & 1 or lo[u] >= hi[v]
            no_vu = reach[u] >> v & 1 or lo[v] >= hi[u]
            if no_uv and no_vu:
                return None
            if no_uv or no_vu:
                keep = a ^ 1 if no_uv else a
                new[keep], new[keep ^ 1] = 1, 0
        if not new:
            return tuple(sorted(fixed.items()))
        fixed.update(new)


def _integral_point(d: BidirectedDigraph, cfg: ModelConfig,
                    arcs: AbstractSet[int]) -> Tuple[ModelPoint, int]:
    """The 0/1 point that selects `arcs`, at z = max(load, z_lower), and its
    load: the most arcs of `arcs` on one kappa-arc path."""
    load, _ = max_path_load(d, arcs, cfg.kappa)
    w = tuple(1.0 if a in arcs else 0.0 for a in range(d.num_arcs))
    return ModelPoint(w, max(float(load), cfg.z_lower)), load


def _process_node(ctx: _Context, node: _Node, incumbent: float) -> _NodeResult:
    """Cut loop on one node. Pure in its arguments apart from the deadline,
    which ends the separation rounds early. An LP point that is not a
    candidate and whose bound meets the cutoff of `incumbent`, the best
    objective so far, prunes the node: no further round and no children. Past
    the deadline, any other point makes the node, with its current program,
    its own one child."""
    d = ctx.d
    cfg = ctx.cfg
    m = ctx.g.m
    lp = node.lp.branch(node.forced)
    sol = lp.solve()
    iterations = sol.iterations
    history: List[float] = []
    cuts_by_tag: Dict[str, int] = {}
    tail = 0
    rounds = 0

    while True:
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
            point, load = _integral_point(d, cfg, arcs)
            if load <= z + INT_TOL and find_directed_cycle(d, arcs) is None:
                if ctx.admissible is None or ctx.admissible(arcs):
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
            best = walk_bounds(d, w, cfg.kappa + 1)  # one table for both searches
            fresh = (separate_paths(d, w, z, cfg.kappa, ctx.deadline, best)
                     + separate_templates(d, w, z, cfg.kappa, ctx.deadline, best)
                     or (separate_cycles(d, w) if integral else []))
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
            [(r.coeffs_with_z(2 * m), r.sense, r.rhs) for r in fresh])
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
                admissible: Optional[Callable[[frozenset], bool]] = None,
                labels: Optional[Sequence[Optional[Sequence[int]]]] = None,
                deadline: Optional[float] = None) -> SolveReport:
    """Exact minimization over acyclic orientations or partial selections.

    `extra_rows` are hard constraints. `admissible` (orientation model only)
    tests a point's arc set: every node candidate must pass it, and a refused
    candidate's orientation is cut off by a no-good row, after which its node
    re-solves. `labels`, which needs `admissible`, gives each vertex a
    sorted tuple of the labels it may take, or None for any: an arc set
    passes `admissible` only if it has a labeling f with f(u) < f(v) on each
    arc u -> v, each f(v) in [0, kappa - 1] and in its tuple. Only the
    search's child propagation reads it, where that runs (see the module
    docstring); `admissible` stays the candidate test. Past `deadline` (a
    `time.monotonic()` reading) the search stops with status `timeout`.
    In the orientation model, a clique of more than kappa vertices raises the
    z lower bound to kappa, whatever the objective, rows or test. The start
    point, the DSATUR orientation, is offered when its load is at most the z
    upper bound, it satisfies `extra_rows` and `admissible` accepts it.
    Reversing every arc maps the pair, cycle and path rows onto themselves, so
    the search fixes arc 0 on and arc 1 off, halving itself, when all else is
    reversal invariant too: the orientation model, no `admissible`, equal
    costs on a and a ^ 1, and `extra_rows` whose keys, arcs mapped a -> a ^ 1,
    are again keys of extra rows.
    Raises InputError for a negative z cost, which the search's integral
    points, at z = max(load, z lower bound), would misprice, and for an arc
    index outside [0, 2m) in the objective or in `extra_rows`, and for
    `labels` without `admissible` or not one per vertex.
    """
    if admissible is not None and cfg.variant != AO:
        raise InputError("an admissibility test needs the orientation model")
    if labels is not None:
        if admissible is None:
            raise InputError("labels need the admissibility test they are necessary for")
        if len(labels) != g.n:
            raise InputError(f"labels for {len(labels)} vertices, the graph has {g.n}")
        labels = [None if menu is None else tuple(sorted(menu)) for menu in labels]
    m = g.m
    d = BidirectedDigraph(g)
    obj = objective if objective is not None else default_objective(cfg, m)
    if obj.z_coeff < 0:
        raise InputError("the z cost must not be negative")
    if not set(obj.w_coeffs).union(*(r.coeffs for r in extra_rows)) <= set(range(2 * m)):
        raise InputError(f"an objective or row arc index is outside [0, {2 * m})")
    integral_obj = obj.is_integral

    if m == 0:
        if admissible is not None and not admissible(frozenset()):
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

    arcs = _dsatur_orientation(g).arcs()
    start, load = _integral_point(d, cfg, arcs)
    if load <= cfg.z_upper and all(r.satisfied(start.w, start.z, tol=1e-7) for r in extra_rows) \
            and (admissible is None or admissible(arcs)):
        offer(start)

    keys = {r.key for r in extra_rows}
    mirrored = {(s, rhs, zc, tuple(sorted((a ^ 1, c) for a, c in cs))) for s, rhs, zc, cs in keys}
    symmetric = cfg.variant == AO and admissible is None and mirrored == keys and all(
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
    ctx = _Context(d, cfg, obj, extra_rows, deadline, admissible, root_forced, propagate)
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
        elif res.status == "branched":
            # no child needs a cutoff test: the cut loop found this bound
            # short of the cutoff, and the incumbent has not moved since
            for child in res.children:
                if propagate:
                    forced = _propagate(d, child.forced, cfg.kappa, labels, side)
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


def _dsatur_orientation(g: UndirectedGraph) -> Orientation:
    """Every edge runs up the order (DSATUR colour, -index), so the
    orientation is acyclic with one arc per edge whatever the colouring."""
    colors = greedy_coloring(g)
    return Orientation.from_vertex_order(g, sorted(range(g.n), key=lambda v: (colors[v], -v)))


def _shorter_orientations(g: UndirectedGraph, orient: Orientation,
                          reports: Optional[List[SolveReport]], *,
                          deadline: Optional[float] = None) -> Iterator[Orientation]:
    """Each strictly shorter acyclic orientation of the connected graph `g`
    that the window solves find, starting from `orient`: the last one yielded,
    or `orient` if none is, has the least longest path. Raises
    TimeLimitError past `deadline`."""
    d = BidirectedDigraph(g)
    kappa = dag_longest_path(d, orient.arcs())
    while kappa >= 1:
        rep = solve_ao(g, kappa, deadline=deadline)
        if reports is not None:
            reports.append(rep)
        if rep.status == "timeout":
            raise TimeLimitError("time limit hit during the window search")
        if rep.status != "optimal":
            raise SolverError(f"window solve ended with status {rep.status}")
        if rep.objective >= kappa - 1e-9:
            return
        arcs = rep.best_point.arc_set()
        new_kappa = dag_longest_path(d, arcs)
        if new_kappa >= kappa:
            raise SolverError("window failed to shrink")
        kappa = new_kappa
        yield Orientation.from_arcs(g, arcs)


def min_diameter_orientation(g: UndirectedGraph, *,
                             reports: Optional[List[SolveReport]] = None,
                             deadline: Optional[float] = None) -> Tuple[Orientation, int]:
    """Acyclic orientation minimizing the longest directed path, with its length.

    Each connected component starts from the orientation of its DSATUR
    coloring and repeatedly solves the window-load model at the incumbent
    diameter; the window shrinks strictly until the model certifies it cannot
    be beaten.
    Every window solve shares `deadline`; a solve that reaches it raises
    TimeLimitError, whose `orientation` is the best found so far: each
    finished component's optimum, the current component's last window and
    each later component's DSATUR start.
    """
    parts = []  # (vertices, induced subgraph), components with edges only
    for comp in g.components():
        sub, _ = g.induced_subgraph(comp)
        if sub.m:
            parts.append((set(comp), sub))
    best = [_dsatur_orientation(sub) for _, sub in parts]

    def joined() -> Orientation:
        # The monotone relabeling keeps edge order and direction sense.
        dirs = [0] * g.m
        for (members, _), orient in zip(parts, best):
            sub_dirs = iter(orient.dirs)
            for e, (i, _) in enumerate(g.edges):
                if i in members:
                    dirs[e] = next(sub_dirs)
        return Orientation(g, dirs)

    try:
        for k, (_, sub) in enumerate(parts):
            for best[k] in _shorter_orientations(sub, best[k], reports, deadline=deadline):
                pass
    except TimeLimitError as exc:
        exc.orientation = joined()
        raise
    orient = joined()
    return orient, dag_longest_path(BidirectedDigraph(g), orient.arcs())


def chromatic_number(g: UndirectedGraph, *,
                     deadline: Optional[float] = None) -> Tuple[int, List[int]]:
    """Exact chromatic number with a witness coloring.

    The longest-path labels of a diameter-minimal acyclic orientation form a
    proper coloring with one class per path level, and no coloring can use
    fewer classes than longest path + 1. Raises TimeLimitError past
    `deadline`.
    """
    orient, q = min_diameter_orientation(g, deadline=deadline)
    colors = longest_path_labels(BidirectedDigraph(g), orient.arcs())
    if max(colors) != q:
        raise SolverError("layer count disagrees with the window optimum")
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


def check_load_reduction(g: UndirectedGraph, kappa: int,
                         orientation: Orientation) -> bool:
    """Confirm the reduced-load value against every model constraint.

    Pairs the orientation with z = kappa - floor(kappa / (diam + 1)), where
    diam is the orientation's longest path, and replays the full integral
    feasibility check at window kappa. Intended for orientations whose
    diameter is already minimal and kappa at least diam + 1.
    """
    d = BidirectedDigraph(g)
    arcs = orientation.arcs()
    diam = dag_longest_path(d, arcs)
    z = guaranteed_feasible_z(kappa, diam)
    w = tuple(1.0 if a in arcs else 0.0 for a in range(2 * g.m))
    ok, _ = check_integral_feasible(
        d, ModelConfig(kappa=kappa, variant=AO), ModelPoint(w, float(z)))
    return ok
