"""Branch and bound with cutting planes over the orientation models.

Nodes carry their own cut rows (inherited from the parent), so processing a
node is a pure function of the node and the shared, read-only problem data.
Every cut round runs the three exact separators: cycles, kappa-arc paths and
the cycle-z rows, the one template family the solver separates. The search
is a plain best-first loop: it pops the open node with the smallest bound
(ties go to the most recently pushed), prunes it against the incumbent or
processes it, and pushes its children. Nothing in it is random and, apart
from the deadline, nothing depends on timing, so identical inputs reproduce
every report, which is part of the reporting contract.

A deadline is an absolute `time.monotonic()` reading, or None for none. The
drivers hand the one deadline of a command to every solve they make. The
search checks it before each node, and a node's cut loop checks it before
each fractional separation round: past it, the node stops separating and
branches, so the search stops after that node and reports `timeout` with the
best bound among its open nodes.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import InputError, SolverError, TimeLimitError
from .graphs import (
    BidirectedDigraph,
    Orientation,
    UndirectedGraph,
    dag_longest_path,
    find_directed_cycle,
    greedy_clique,
    greedy_coloring,
    longest_path_labels,
    max_path_load,
)
from .lp import LinearProgram
from .model import (
    AO,
    INT_TOL,
    LinearRow,
    ModelConfig,
    ModelPoint,
    check_integral_feasible,
    row_cycle,
    row_edge_pair,
    row_path,
)
from .separation import separate_cycles, separate_paths, separate_templates

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
    variant: str
    kappa: int
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
    rows: Tuple[LinearRow, ...]


@dataclass
class _NodeResult:
    status: str  # "infeasible" | "candidate" | "branched"
    bound: float
    history: List[float]
    cuts_by_tag: Dict[str, int]
    lp_iterations: int
    candidate: Optional[ModelPoint] = None
    children: Tuple[_Node, ...] = ()


class _Context:
    """Shared, read-only problem data for node processing."""

    def __init__(self, d: BidirectedDigraph, cfg: ModelConfig, objective: Objective,
                 extra_rows: Sequence[LinearRow], deadline: Optional[float]):
        self.g = d.graph
        self.cfg = cfg
        self.d = d
        self.objective = objective
        self.extra_rows = tuple(extra_rows)
        self.deadline = deadline
        m = d.graph.m
        self.nvar = 2 * m + 1
        self.obj_vector = [0.0] * self.nvar
        self.obj_vector[2 * m] = objective.z_coeff
        for a, c in objective.w_coeffs.items():
            self.obj_vector[a] += c
        self.base_rows = tuple(row_edge_pair(self.d, e, cfg.variant)
                               for e in range(m)) + self.extra_rows

    def expired(self) -> bool:
        """Whether the solve's deadline has passed."""
        return self.deadline is not None and time.monotonic() >= self.deadline

    def build_lp(self, node: _Node) -> LinearProgram:
        m = self.g.m
        lower = [0.0] * self.nvar
        upper = [1.0] * (2 * m) + [0.0]
        lower[2 * m] = self.cfg.z_lower
        upper[2 * m] = self.cfg.z_upper
        for a, v in node.forced:
            lower[a] = upper[a] = float(v)
        lp = LinearProgram(self.obj_vector, lower, upper)
        for row in self.base_rows:
            lp.add_row(row.coeffs_with_z(self.nvar - 1), row.sense, row.rhs)
        for row in node.rows:
            lp.add_row(row.coeffs_with_z(self.nvar - 1), row.sense, row.rhs)
        return lp


def _branch(ctx: _Context, node: _Node, w: Sequence[float],
            rows: Tuple[LinearRow, ...]) -> Tuple[_Node, ...]:
    """Children on the most fractional edge: pair sum closest to one, then
    the largest smaller direction, ties by edge index. A child whose forced
    arcs close a cycle is dropped."""
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
        child_ones = [a for a, v in child_forced.items() if v == 1]
        if find_directed_cycle(ctx.d, child_ones) is None:
            children.append(_Node(tuple(sorted(child_forced.items())), rows))
    return tuple(children)


def _process_node(ctx: _Context, node: _Node) -> _NodeResult:
    """Cut loop on one node. Pure in ctx and node apart from the deadline,
    which ends the separation rounds early; never reads the incumbent."""
    d = ctx.d
    cfg = ctx.cfg
    m = ctx.g.m
    lp = ctx.build_lp(node)
    sol = lp.solve()
    iterations = sol.iterations
    history: List[float] = []
    cuts_by_tag: Dict[str, int] = {}
    rows = list(node.rows)
    keys = {r.key for r in ctx.base_rows} | {r.key for r in rows}
    tail = 0
    rounds = 0

    def add_rows(new_rows: List[LinearRow]) -> List[LinearRow]:
        fresh = []
        for r in new_rows:
            if r.key not in keys:
                keys.add(r.key)
                fresh.append(r)
                cuts_by_tag[r.tag] = cuts_by_tag.get(r.tag, 0) + 1
        return fresh

    while True:
        if not sol.optimal:
            return _NodeResult("infeasible", math.inf, history, cuts_by_tag, iterations)
        bound = sol.objective + ctx.objective.const
        history.append(bound)
        w = sol.x[:2 * m]
        z = sol.x[2 * m]
        integral = all(min(x, 1.0 - x) < INT_TOL for x in w)
        if integral:
            sel = [a for a in range(2 * m) if w[a] > 0.5]
            cyc = find_directed_cycle(d, sel)
            if cyc is not None:
                fresh = add_rows([row_cycle(d, cyc)])
            else:
                load, witness = max_path_load(d, sel, cfg.kappa)
                if load <= z + INT_TOL:
                    z_cand = float(max(load, int(round(cfg.z_lower))))
                    point = ModelPoint(tuple(round(x) * 1.0 for x in w), z_cand)
                    ok, witness_row = check_integral_feasible(d, cfg, point)
                    if not ok:
                        raise SolverError(f"integral point failed recheck: {witness_row}")
                    for r in ctx.extra_rows:
                        if not r.satisfied(point.w, point.z, tol=1e-7):
                            raise SolverError(f"integral point violates a model row: {r}")
                    return _NodeResult("candidate", bound, history, cuts_by_tag, iterations,
                                       candidate=point)
                fresh = add_rows([row_path(d, witness, cfg.kappa)])
        else:
            rounds += 1
            if len(history) >= 2 and history[-1] - history[-2] < TAIL_EPS:
                tail += 1
            else:
                tail = 0
            fresh = []
            if rounds < MAX_CUT_ROUNDS and tail < TAIL_ROUNDS and not ctx.expired():
                fresh = add_rows(separate_cycles(d, w))
                fresh += add_rows(separate_paths(d, w, z, cfg.kappa))
                fresh += add_rows(separate_templates(d, w, z, cfg.kappa))
            if not fresh:
                return _NodeResult("branched", bound, history, cuts_by_tag, iterations,
                                   children=_branch(ctx, node, w, tuple(rows)))
        # An integral cut and a fractional round both end here; only the
        # fractional rounds count towards `rounds` and `tail`.
        rows.extend(fresh)
        sol = lp.add_rows_and_resolve(
            [(r.coeffs_with_z(ctx.nvar - 1), r.sense, r.rhs) for r in fresh])
        iterations += sol.iterations


def _prunable(bound: float, incumbent: float, integral_objective: bool) -> bool:
    if incumbent == math.inf or bound == -math.inf:
        return False
    if integral_objective:
        return math.ceil(bound - PRUNE_EPS) >= incumbent - 1e-9
    return bound >= incumbent - 1e-9


def solve_model(g: UndirectedGraph, cfg: ModelConfig, *,
                objective: Optional[Objective] = None,
                extra_rows: Sequence[LinearRow] = (),
                feasibility_stop: bool = False,
                use_symmetry: bool = False,
                deadline: Optional[float] = None) -> SolveReport:
    """Exact minimization over acyclic orientations or partial selections.

    `extra_rows` are hard constraints. `use_symmetry` pre-orients the first
    edge and is only sound when rows and objective are reversal invariant.
    `feasibility_stop` returns the first incumbent found. Past `deadline`
    (a `time.monotonic()` reading) the search stops with status `timeout`.
    """
    m = g.m
    d = BidirectedDigraph(g)
    obj = objective if objective is not None else default_objective(cfg, m)
    integral_obj = obj.is_integral

    def report(status, best, best_obj, bound, nodes, pruned, cuts, hist, iters):
        return SolveReport(status, cfg.variant, cfg.kappa, best, best_obj, bound,
                           nodes, pruned, cuts, hist, iters)

    if m == 0:
        z0 = cfg.z_lower
        point = ModelPoint((), float(z0))
        val = obj.value(point)
        return report("optimal", point, val, val, 0, 0, {}, [], 0)

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

    # Opportunistic greedy incumbent: orient along a greedy coloring.
    colors = greedy_coloring(g)
    greedy_orient = Orientation(
        g, [0 if colors[i] < colors[j] else 1 for i, j in g.edges])
    arcs = greedy_orient.arcs()
    load, _ = max_path_load(d, arcs, cfg.kappa)
    gz = max(load, int(round(cfg.z_lower)))
    if gz <= cfg.z_upper + 1e-9:
        w = tuple(1.0 if a in arcs else 0.0 for a in range(2 * m))
        greedy_point = ModelPoint(w, float(gz))
        ok, _ = check_integral_feasible(d, cfg, greedy_point)
        if ok and all(r.satisfied(greedy_point.w, greedy_point.z, tol=1e-7)
                      for r in extra_rows):
            offer(greedy_point)

    # A clique on kappa + 1 vertices forces a fully loaded window in every
    # orientation, so the plain-z orientation objective cannot beat kappa.
    if cfg.variant == AO and not extra_rows and cfg.z_fixed is None and \
            obj.z_coeff == 1.0 and not obj.w_coeffs and not obj.const and \
            len(greedy_clique(g)) - 1 >= cfg.kappa:
        w = tuple(1.0 if a in arcs else 0.0 for a in range(2 * m))
        point = ModelPoint(w, float(cfg.kappa))
        ok, witness = check_integral_feasible(d, cfg, point)
        if not ok:
            raise SolverError(f"clique shortcut point failed recheck: {witness}")
        val = obj.value(point)
        return report("optimal", point, val, val, 0, 0, {}, [], 0)

    if feasibility_stop and best is not None:
        return report("optimal", best, incumbent_obj, incumbent_obj, 0, 0, {}, [], 0)

    forced: Dict[int, int] = {}
    if use_symmetry:
        forced = {0: 1, 1: 0}
    root = _Node(tuple(sorted(forced.items())), ())
    ctx = _Context(d, cfg, obj, extra_rows, deadline)

    seq = 0
    heap: List[Tuple[float, int, _Node]] = [(-math.inf, -seq, root)]
    node_count = 0
    pruned_count = 0
    cut_counts: Dict[str, int] = {}
    histories: List[List[float]] = []
    lp_iters = 0
    status = "optimal"
    stopped_early = False

    while heap:
        if ctx.expired():
            status = "timeout"
            break
        bound, _, node = heapq.heappop(heap)
        if _prunable(bound, incumbent_obj, integral_obj):
            pruned_count += 1
            continue
        res = _process_node(ctx, node)
        node_count += 1
        lp_iters += res.lp_iterations
        for tag, cnt in res.cuts_by_tag.items():
            cut_counts[tag] = cut_counts.get(tag, 0) + cnt
        histories.append(res.history)
        if res.status == "candidate":
            offer(res.candidate)
            if feasibility_stop:
                stopped_early = True
                break
        elif res.status == "branched":
            for child in res.children:
                if _prunable(res.bound, incumbent_obj, integral_obj):
                    pruned_count += 1
                    continue
                seq += 1
                heapq.heappush(heap, (res.bound, -seq, child))

    if status == "timeout" or stopped_early:
        open_bounds = [b for b, _, _ in heap]
        bound = min(open_bounds + [incumbent_obj])
        return report(status, best, None if best is None else incumbent_obj,
                      bound, node_count, pruned_count, cut_counts, histories, lp_iters)
    if best is None:
        return report("infeasible", None, None, math.inf, node_count, pruned_count,
                      cut_counts, histories, lp_iters)
    return report("optimal", best, incumbent_obj, incumbent_obj, node_count,
                  pruned_count, cut_counts, histories, lp_iters)


def solve_ao(g: UndirectedGraph, kappa: int, *,
             deadline: Optional[float] = None) -> SolveReport:
    """Minimum achievable window load over acyclic orientations."""
    return solve_model(g, ModelConfig(kappa=kappa, variant=AO), use_symmetry=True,
                       deadline=deadline)


def _min_diameter_connected(g: UndirectedGraph, reports: Optional[List[SolveReport]], *,
                            deadline: Optional[float] = None) -> Tuple[Orientation, int]:
    d = BidirectedDigraph(g)
    colors = greedy_coloring(g)
    orient = Orientation(g, [0 if colors[i] < colors[j] else 1 for i, j in g.edges])
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
            break
        arcs = rep.best_point.arc_set()
        orient = Orientation.from_arcs(g, arcs)
        new_kappa = dag_longest_path(d, arcs)
        if new_kappa >= kappa:
            raise SolverError("window failed to shrink")
        kappa = new_kappa
    return orient, kappa


def min_diameter_orientation(g: UndirectedGraph, *,
                             reports: Optional[List[SolveReport]] = None,
                             deadline: Optional[float] = None) -> Tuple[Orientation, int]:
    """Acyclic orientation minimizing the longest directed path, with its length.

    Each connected component starts from a greedy coloring orientation and
    repeatedly solves the window-load model at the incumbent diameter; the
    window shrinks strictly until the model certifies it cannot be beaten.
    Every window solve shares `deadline`; a solve that reaches it raises
    TimeLimitError.
    """
    if g.m == 0:
        return Orientation(g, []), 0
    comps = g.components()
    if len(comps) == 1:
        return _min_diameter_connected(g, reports, deadline=deadline)
    dirs = [0] * g.m
    q = 0
    for comp in comps:
        members = set(comp)
        sub, _ = g.induced_subgraph(comp)
        if sub.m == 0:
            continue
        sub_orient, sub_q = _min_diameter_connected(sub, reports, deadline=deadline)
        q = max(q, sub_q)
        # The monotone relabeling keeps edge order and direction sense.
        sub_e = 0
        for e, (i, j) in enumerate(g.edges):
            if i in members and j in members:
                dirs[e] = sub_orient.dirs[sub_e]
                sub_e += 1
    return Orientation(g, dirs), q


def chromatic_number(g: UndirectedGraph, *,
                     deadline: Optional[float] = None) -> Tuple[int, List[int]]:
    """Exact chromatic number with a witness coloring.

    The longest-path labels of a diameter-minimal acyclic orientation form a
    proper coloring with one class per path level, and no coloring can use
    fewer classes than longest path + 1. Raises TimeLimitError past
    `deadline`.
    """
    if g.n == 0:
        return 0, []
    if g.m == 0:
        return 1, [0] * g.n
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
