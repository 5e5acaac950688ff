import collections
import itertools
import math
import random
import time
import types

import numpy as np
import pytest

from orientcut import fap, separation, solver
from orientcut.errors import InfeasibleError, InputError, SolverError
from orientcut.fap import FapInstance, FapPair, solve_soft_cost
from orientcut.graphs import (
    UndirectedGraph,
    complete_graph,
    cycle_graph,
    dag_longest_path,
    find_directed_cycle,
    is_acyclic,
    longest_path_labels,
    path_graph,
    petersen_graph,
)
from orientcut.lp import DEADLINE_PIVOTS, LinearProgram
from orientcut.model import (
    AO,
    AS,
    INT_TOL,
    LinearRow,
    ModelConfig,
    ModelPoint,
    check_integral_feasible,
)
from orientcut.polytope import brute_force_optimum, enumerate_feasible_points
from orientcut.solver import (
    check_load_reduction,
    chromatic_number,
    default_objective,
    guaranteed_feasible_z,
    min_diameter_orientation,
    solve_ao,
    solve_model,
)

from conftest import BATTERY, interleaved_components, lab_points, mycielski, queen_graph


def _myciel3():
    """The Groetzsch graph: Mycielski's construction applied to C5."""
    return mycielski(cycle_graph(5))


def _soft_fap():
    return FapInstance(4, [None] * 4, [FapPair(0, 1, 2), FapPair(0, 2, 1),
                                       FapPair(1, 3, 2), FapPair(2, 3, 1)], spectrum=3)


def _costed_fap():
    """Gadget chains, three costed pairs and a search that meets an integral
    point with a directed cycle."""
    pairs = [(3, 5, 1), (3, 4, 2), (2, 4, 2), (1, 4, 1, 6.0), (2, 5, 1, 5.0), (0, 5, 1, 9.0),
             (2, 3, 1), (0, 4, 1)]
    return FapInstance(6, [None] * 6, [FapPair(*p) for p in pairs], spectrum=4)


def _sets_fap():
    """Availability sets that greedy first-fit meets at spectrum 4; link 5's
    menu has no frequency below 4, so the probe at 3 is infeasible."""
    sets = [None, {1, 2, 3}, None, None, {0, 6, 7}, {4, 6, 7}]
    pairs = [(1, 5, 2), (3, 4, 1), (0, 3, 1), (2, 5, 1)]
    return FapInstance(6, [None if s is None else frozenset(s) for s in sets],
                       [FapPair(*p) for p in pairs])


def _chain_fap():
    """No menus and three gadget chains; the least spectrum is 4, which
    greedy first-fit misses (it gives 5) and the clique span does not reach
    (it gives 3)."""
    pairs = [(0, 1, 3), (0, 2, 2), (0, 3, 1), (1, 3, 1), (2, 3, 3)]
    return FapInstance(4, [None] * 4, [FapPair(*p) for p in pairs])


def _separating_solves():
    """An AO solve, an AS solve and two soft FAP solves that all run cut
    rounds. The last search meets an integral point with a directed cycle,
    the one kind of point the cycle separator is asked about."""
    return (lambda: solve_ao(petersen_graph(), 5),
            lambda: solve_model(_myciel3(), ModelConfig(kappa=3, variant=AS)),
            lambda: solve_soft_cost(_soft_fap()),
            lambda: solve_soft_cost(_costed_fap()))


def test_default_objectives():
    ao = default_objective(ModelConfig(kappa=2, variant=AO), m=3)
    assert ao.z_coeff == 1 and not ao.w_coeffs
    as_ = default_objective(ModelConfig(kappa=2, variant=AS), m=3)
    assert as_.z_coeff == 1
    assert all(c == -4 for c in as_.w_coeffs.values())
    assert len(as_.w_coeffs) == 6
    pt = ModelPoint((1.0, 0.0, 1.0, 0.0, 1.0, 0.0), 2.0)
    assert as_.value(pt) == pytest.approx(2.0 - 12.0)


def test_solve_ao_matches_brute_force_on_battery():
    for name, g, _ in BATTERY:
        for kappa in (1, 2, 3):
            rep = solve_ao(g, kappa)
            ref, _ = brute_force_optimum(g, ModelConfig(kappa=kappa, variant=AO))
            assert rep.status == "optimal", (name, kappa)
            assert rep.objective == pytest.approx(ref), (name, kappa)
            ok, why = check_integral_feasible(g, ModelConfig(kappa=kappa, variant=AO), rep.best_point)
            assert ok, (name, kappa, why)


def test_solve_as_matches_brute_force_on_battery():
    for name, g, _ in BATTERY:
        cfg = ModelConfig(kappa=2, variant=AS)
        rep = solve_model(g, cfg)
        ref, _ = brute_force_optimum(g, cfg)
        assert rep.objective == pytest.approx(ref), name


def test_infeasible_window_reported():
    rep = solve_model(complete_graph(3), ModelConfig(kappa=2, variant=AO, z_fixed=0))
    assert rep.status == "infeasible"
    assert rep.best_point is None


def test_timeout_is_honest():
    rep = solve_ao(petersen_graph(), 3, deadline=0.0)
    assert rep.status == "timeout"
    assert rep.objective is None or rep.bound <= rep.objective + 1e-9
    # a clique-settled window answers past the deadline: the root's box
    # bound meets the start point, so it is pruned before the clock is read
    rep = solve_ao(complete_graph(4), 3, deadline=0.0)
    assert rep.status == "optimal" and rep.objective == 3
    assert rep.node_count == 0 and rep.pruned_count == 1


def test_clique_bound_reaches_every_orientation_solve():
    """A clique on kappa + 1 vertices bounds z by kappa whatever the solve
    carries: a fixed z below it, or an extra row."""
    g = complete_graph(4)
    cfg, low = ModelConfig(kappa=3, variant=AO), ModelConfig(kappa=3, variant=AO, z_fixed=2)
    rep = solve_model(g, low)
    assert rep.status == "infeasible" and rep.node_count <= 1
    with pytest.raises(InfeasibleError):
        brute_force_optimum(g, low)
    side = LinearRow({0: 1.0}, 0, 1, "<=", "gadget-side")
    rep = solve_model(g, cfg, extra_rows=(side,))
    assert rep.status == "optimal" and rep.node_count == 0
    assert rep.objective == brute_force_optimum(g, cfg)[0] == 3


def test_clique_bound_finds_a_clique_beside_denser_vertices():
    """Beside queen6, whose vertices all have higher degree than the K7's,
    the clique bound still finds the K7 and, with DSATUR's start at load 6,
    settles the kappa 6 window without an LP."""
    board = queen_graph(6)
    g = UndirectedGraph(43, list(board.edges) + [
        (36 + i, 36 + j) for i, j in itertools.combinations(range(7), 2)])
    rep = solve_ao(g, 6, deadline=time.monotonic() + 2)
    assert rep.status == "optimal" and rep.objective == 6 and rep.node_count == 0


def test_deadline_ends_the_cut_loop(monkeypatch):
    """Past the deadline a node stops separating and goes back onto the heap
    with its current program, and the search stops with the node's bound
    among its open bounds."""
    rounds = []
    per_node = []
    separate = solver.separate_paths
    process = solver._process_node

    def spy(*args):
        rounds.append(args)
        return separate(*args)

    def counted(ctx, node, incumbent):
        before = len(rounds)
        res = process(ctx, node, incumbent)
        per_node.append(len(rounds) - before)
        return res

    monkeypatch.setattr(solver, "separate_paths", spy)
    monkeypatch.setattr(solver, "_process_node", counted)
    g = _myciel3()
    free = solve_ao(g, 3)
    # the root's first LP point is integral and gets a round of its own,
    # then two fractional rounds run before the root branches
    assert per_node[0] == 3
    # the clock passes the deadline once the root's first separation round
    # has started, so the round completes and no second one begins
    rounds.clear()
    monkeypatch.setattr(solver, "time",
                        types.SimpleNamespace(monotonic=lambda: 1.0 if rounds else 0.0))
    rep = solve_ao(g, 3, deadline=0.5)
    assert len(rounds) == 1
    assert rep.status == "timeout" and rep.node_count == 1 and rep.best_point is not None
    history = rep.root_bound_history
    assert history == free.root_bound_history[:len(history)]
    assert math.isfinite(rep.bound) and rep.bound == history[-1] < free.objective


def test_deadline_at_a_fractional_point_sends_the_node_back(monkeypatch):
    """A node at a fractional point past the deadline does not branch: it goes
    back onto the heap like an integral one, and the search stops at the next
    pop with the node's bound."""
    solved = []
    branched = []
    lp_solve = LinearProgram.solve
    branch = solver._branch

    def solve_spy(lp, *args):
        try:
            return lp_solve(lp, *args)
        finally:
            solved.append(lp)

    def branch_spy(*args):
        branched.append(args)
        return branch(*args)

    monkeypatch.setattr(LinearProgram, "solve", solve_spy)
    monkeypatch.setattr(solver, "_branch", branch_spy)
    # the clock passes the deadline after the root's second LP solve, whose
    # point, after the integral first point's round, is fractional
    clock = types.SimpleNamespace(monotonic=lambda: 1.0 if len(solved) >= 2 else 0.0)
    monkeypatch.setattr(solver, "time", clock)
    monkeypatch.setattr(separation, "time", clock)
    rep = solve_ao(_myciel3(), 3, deadline=0.5)
    assert len(solved) == 2 and branched == []
    assert rep.status == "timeout" and rep.node_count == 1
    history = rep.root_bound_history
    assert len(history) == 2 and rep.bound == history[-1] == pytest.approx(2.0)


def test_deadline_at_an_integral_point_runs_no_round(monkeypatch):
    """Past the deadline, an integral point that is no candidate sends its
    node back onto the heap: no separator runs, and the search reports the
    node's bound among its open bounds."""
    separated = []
    solved = []
    lp_solve = LinearProgram.solve

    def refuse(*args):
        separated.append(args)
        return []

    def solve_spy(lp, *args):
        solved.append(lp)
        return lp_solve(lp, *args)

    for name in ("separate_paths", "separate_templates", "separate_cycles"):
        monkeypatch.setattr(solver, name, refuse)
    monkeypatch.setattr(LinearProgram, "solve", solve_spy)
    # the clock passes the deadline right after the root's first LP solve,
    # whose point is integral and has an overloaded window
    monkeypatch.setattr(solver, "time",
                        types.SimpleNamespace(monotonic=lambda: 1.0 if solved else 0.0))
    rep = solve_ao(_myciel3(), 3, deadline=0.5)
    assert separated == [] and len(solved) == 1
    assert rep.status == "timeout" and rep.node_count == 1
    assert rep.root_bound_history == [rep.bound] and math.isfinite(rep.bound)


def test_window_search_cut_short_sends_the_node_back(monkeypatch):
    """An integral point with an overloaded window whose round finds no row
    is a fault, unless the deadline passed during the round: the window
    search then stopped early, and the node goes back onto the heap."""
    rounds = []

    def stopped(*args):
        rounds.append(args)
        return []

    for name in ("separate_paths", "separate_templates", "separate_cycles"):
        monkeypatch.setattr(solver, name, stopped)
    with pytest.raises(SolverError, match="no cut separates"):
        solve_ao(_myciel3(), 3, deadline=math.inf)
    # the clock passes the deadline inside the root's first window search
    rounds.clear()
    monkeypatch.setattr(solver, "time",
                        types.SimpleNamespace(monotonic=lambda: 1.0 if rounds else 0.0))
    rep = solve_ao(_myciel3(), 3, deadline=0.5)
    assert rep.status == "timeout" and rep.node_count == 1
    assert len(rounds) == 3 and all(args[4] == 0.5 for args in rounds[:2])  # the deadline
    assert rep.root_bound_history == [rep.bound] and math.isfinite(rep.bound)


def test_deadline_after_a_refusal_ends_the_search(monkeypatch):
    """At kappa 1 labels refuse every orientation, as each needs a label
    above kappa - 1 = 0, which keeps a node at integral points; once the
    deadline passes after its first refusal inside a node, the search stops
    with `timeout`."""
    refusals = []
    inside = []
    process, least = solver._process_node, solver.least_labels

    def counted(ctx, node, incumbent):
        inside.append(node)
        return process(ctx, node, incumbent)

    def labelled(d, arcs, top, menus):
        f = least(d, arcs, top, menus)
        if inside and f is None:
            refusals.append(arcs)
        return f

    monkeypatch.setattr(solver, "_process_node", counted)
    monkeypatch.setattr(solver, "least_labels", labelled)
    monkeypatch.setattr(solver, "time",
                        types.SimpleNamespace(monotonic=lambda: 1.0 if refusals else 0.0))
    rep = solve_model(complete_graph(3), ModelConfig(kappa=1, variant=AO),
                      labels=[None] * 3, deadline=0.5)
    assert len(refusals) == 1
    assert rep.status == "timeout" and rep.best_point is None and math.isfinite(rep.bound)


def test_deadline_inside_an_lp_solve_ends_the_search(monkeypatch):
    """An LP solve reads the deadline once every DEADLINE_PIVOTS pivots. When
    it has passed there, the solve stops, its node goes back onto the heap at
    the bound it was popped with, and the search reports a timeout whose
    bound is at most the optimum."""
    rng = random.Random(1)
    g = UndirectedGraph(18, [e for e in itertools.combinations(range(18), 2)
                             if rng.random() < 0.3])  # G(18, 0.3) seed 1
    free = solve_ao(g, 5)
    assert free.status == "optimal" and free.objective == 4
    solves = []
    popped = []
    lp_solve, process = LinearProgram.solve, solver._process_node

    def solve_spy(lp, *args):
        solves.append(lp_solve(lp, *args))
        return solves[-1]

    def process_spy(ctx, node, incumbent):
        popped.append(node)
        return process(ctx, node, incumbent)

    # the deadline passes at the first clock reading inside an LP solve, the
    # first solve that reaches DEADLINE_PIVOTS pivots; the search and the
    # window search see it passed from then on
    reads = []
    lp_clock = types.SimpleNamespace(monotonic=lambda: reads.append(len(solves)) or 1.0)
    clock = types.SimpleNamespace(monotonic=lambda: 1.0 if reads else 0.0)
    monkeypatch.setattr(LinearProgram, "solve", solve_spy)
    monkeypatch.setattr(solver, "_process_node", process_spy)
    monkeypatch.setattr("orientcut.lp.time", lp_clock)
    monkeypatch.setattr(solver, "time", clock)
    monkeypatch.setattr(separation, "time", clock)
    rep = solve_ao(g, 5, deadline=0.5)
    assert len(reads) == 1 and len(popped) > 1  # the stop comes below the root
    assert [s.status for s in solves].count("stopped") == 1
    assert solves[-1].status == "stopped" and solves[-1].iterations == DEADLINE_PIVOTS
    assert rep.status == "timeout" and rep.node_count == len(popped)
    assert rep.lp_iterations == sum(s.iterations for s in solves)
    assert math.isfinite(rep.bound) and rep.bound <= free.objective


def test_cutoff_in_the_cut_loop_changes_no_answer(monkeypatch):
    """A node that stops at the incumbent's cutoff only skips work whose result
    the search would throw away: every solve visits the same nodes and gives
    the same answer as with no cutoff, in no more LP solves."""
    process, solve, lp_solve = solver._process_node, solver.solve_model, LinearProgram.solve
    reports, solves = [], [0]

    def report_spy(*args, **kwargs):
        rep = solve(*args, **kwargs)
        reports.append((rep.status, rep.objective, rep.best_point, rep.node_count))
        return rep

    def solve_spy(lp, *args):
        solves[0] += 1
        return lp_solve(lp, *args)

    def run(call, cutoff):
        monkeypatch.setattr(solver, "_process_node", process if cutoff else
                            lambda ctx, node, incumbent: process(ctx, node, math.inf))
        reports.clear()
        solves[0] = 0
        call()
        return list(reports), solves[0]

    for module in (solver, fap):
        monkeypatch.setattr(module, "solve_model", report_spy)
    monkeypatch.setattr(LinearProgram, "solve", solve_spy)
    inst = _soft_fap()
    calls = [((name, kappa, variant), lambda g=g, cfg=ModelConfig(kappa=kappa, variant=variant):
              solver.solve_model(g, cfg))
             for name, g, _ in BATTERY for kappa in (1, 2, 3) for variant in (AO, AS)]
    calls += [("myciel3", lambda: solve_ao(_myciel3(), 3)),
              ("soft fap", lambda: solve_soft_cost(inst)),
              ("petersen", lambda: solve_ao(petersen_graph(), 3))]
    for label, call in calls:
        got, fewer = run(call, True)
        want, more = run(call, False)
        assert got and got == want, label
        assert fewer <= more, label
    # the last call, Petersen at kappa 3, prunes its root inside the cut loop
    assert fewer < more


def test_node_at_the_cutoff_is_pruned_without_a_round(monkeypatch):
    """A node whose first bound meets the cutoff separates nothing and has no
    children; with no incumbent the same node goes on to separate."""
    class Separated(Exception):
        pass

    def refuse(*args):
        raise Separated

    ctx = solver._Context(petersen_graph(),
                          ModelConfig(kappa=3, variant=AO), solver.Objective(), (), None)
    node = solver._Node(((0, 1), (1, 0)), ctx.base_lp)
    first = ctx.base_lp.branch(node.forced).solve().objective
    for name in ("separate_paths", "separate_templates", "separate_cycles"):
        monkeypatch.setattr(solver, name, refuse)
    res = solver._process_node(ctx, node, math.ceil(first))
    assert res.status == "pruned" and res.children == () and res.history == [first]
    with pytest.raises(Separated):
        solver._process_node(ctx, node, math.inf)


def test_drivers_take_no_open_keywords():
    # chi 3: these keywords once reached the window solves and changed the answer
    g = UndirectedGraph(9, [(0, 2), (0, 5), (0, 6), (1, 2), (1, 3), (1, 5), (1, 8), (2, 5),
                            (2, 6), (2, 7), (3, 7), (3, 8), (4, 5), (4, 6), (4, 8), (6, 8)])
    assert chromatic_number(g)[0] == 3
    for call in (chromatic_number, min_diameter_orientation):
        with pytest.raises(TypeError):
            call(g, feasibility_stop=True)
        with pytest.raises(TypeError):
            call(g, time_limit=1.0)
    with pytest.raises(TypeError):
        solve_ao(g, 2, use_symmetry=False)


def test_label_refusals_become_no_good_rows():
    """Menus that the unlabelled optimum's labeling breaks: the search finds
    the best orientation with a labeling below kappa in the menus, as an
    exhaustive scan does, cutting off with no-good rows the ones it refuses;
    menus no labeling meets prove infeasibility."""
    no_goods = 0
    for name, g, _ in BATTERY:
        for kappa in (1, 2, 3):
            cfg = ModelConfig(kappa=kappa, variant=AO)
            _, best = brute_force_optimum(g, cfg)
            f = longest_path_labels(g, best.arc_set())
            v = f.index(max(f))
            menus = [None] * g.n
            menus[v] = tuple(range(f[v]))  # every labeling of `best` has f(v) or more
            ref = min((p.z for p in lab_points(enumerate_feasible_points(g, cfg))
                       if _least_labels(g, p.arc_set(), menus, kappa - 1) is not None),
                      default=None)
            rep = solve_model(g, cfg, labels=menus)
            if ref is None:
                assert rep.status == "infeasible" and rep.bound == math.inf, (name, kappa)
                continue
            assert rep.status == "optimal" and rep.objective == ref, (name, kappa)
            arcs = rep.best_point.arc_set()
            assert _least_labels(g, arcs, menus, kappa - 1) is not None, (name, kappa)
            assert check_integral_feasible(g, cfg, rep.best_point)[0]
            no_goods += rep.cut_counts.get("no-good", 0)
            none = solve_model(g, cfg, labels=[(kappa,)] * g.n)
            assert none.status == "infeasible" and none.best_point is None, (name, kappa)
            assert none.bound == math.inf
    # some searches met a refused orientation inside a node
    assert no_goods > 0


def test_solve_model_refuses_a_negative_z_cost():
    """Every selection of path_graph(3) can take z = kappa = 2, so the optimum
    of -z is -2; the search would set z to the load and report -1."""
    g, cfg = path_graph(3), ModelConfig(kappa=2, variant=AS)
    objective = solver.Objective(z_coeff=-1.0)
    assert min(objective.value(p) for p in lab_points(enumerate_feasible_points(g, cfg))) == -2.0
    with pytest.raises(InputError, match="z cost"):
        solve_model(g, cfg, objective=objective)


def test_solve_model_refuses_labels_it_cannot_use():
    """Labels are for the orientation model, one tuple or None per vertex."""
    g = path_graph(3)
    with pytest.raises(InputError, match="orientation model"):
        solve_model(g, ModelConfig(kappa=2, variant=AS), labels=[None, (0,), None])
    with pytest.raises(InputError, match="vertices"):
        solve_model(g, ModelConfig(kappa=2, variant=AO), labels=[None, (0,)])


@pytest.mark.parametrize("arc", [4, -1])
def test_solve_model_refuses_an_arc_out_of_range(arc):
    """path_graph(3) has arcs 0-3: an objective or row naming another arc
    fails as input before any search, not as an IndexError inside one."""
    g, cfg = path_graph(3), ModelConfig(kappa=2, variant=AO)
    with pytest.raises(InputError, match="arc index"):
        solve_model(g, cfg, objective=solver.Objective(w_coeffs={arc: 5.0}))
    with pytest.raises(InputError, match="arc index"):
        solve_model(g, cfg, extra_rows=(LinearRow({0: 1.0, arc: 1.0}, 0, 1, "<=", "gadget-side"),))


def test_extra_rows_cut_off_solutions():
    # forbid z below 2 via an explicit row; optimum moves from 1 to 2
    g = path_graph(3)
    base = solve_ao(g, 1)
    assert base.objective == pytest.approx(1.0)
    push = LinearRow({}, -1, -2, "<=", "bound")  # -z <= -2
    rep = solve_model(g, ModelConfig(kappa=1, variant=AO), extra_rows=(push,))
    assert rep.objective == pytest.approx(2.0) or rep.status == "infeasible"


def test_candidate_test_agrees_with_the_full_check(monkeypatch):
    """A node accepts an integral LP point exactly when its load is within the
    LP's z and `check_integral_feasible` accepts the point."""
    solutions, seen, decided, inside = [], [], [], []
    lp_solve, integral_point, process = LinearProgram.solve, solver._integral_point, \
        solver._process_node

    def solve_spy(lp, *args):
        solutions.append(lp_solve(lp, *args))
        return solutions[-1]

    def point_spy(d, cfg, arcs):
        point, load = integral_point(d, cfg, arcs)
        if inside:  # not the start point, which is tested before any node
            seen.append((d, cfg, point, load, solutions[-1].x[d.num_arcs]))
        return point, load

    def process_spy(ctx, node, incumbent):
        start = len(seen)
        inside.append(node)
        res = process(ctx, node, incumbent)
        inside.pop()
        for d, cfg, point, load, z in seen[start:]:
            accepted = res.status == "candidate" and res.candidate is point
            assert accepted == (load <= z + INT_TOL and check_integral_feasible(d, cfg, point)[0])
            decided.append(accepted)
        return res

    monkeypatch.setattr(LinearProgram, "solve", solve_spy)
    monkeypatch.setattr(solver, "_integral_point", point_spy)
    monkeypatch.setattr(solver, "_process_node", process_spy)
    for _, g, _ in BATTERY:
        for kappa in (1, 2, 3):
            for variant in (AO, AS):
                solve_model(g, ModelConfig(kappa=kappa, variant=variant))
    solve_ao(_myciel3(), 3)
    solve_soft_cost(_soft_fap())
    assert True in decided and False in decided


def _root_forced(monkeypatch):
    """The forced arcs of every root node processed from here on."""
    roots = []
    process = solver._process_node

    def spy(ctx, node, incumbent):
        if node.lp is ctx.base_lp:
            roots.append(dict(node.forced))
        return process(ctx, node, incumbent)

    monkeypatch.setattr(solver, "_process_node", spy)
    return roots


def test_reversal_symmetry_is_derived(monkeypatch):
    """Edge 0 is pre-oriented exactly when the whole problem is reversal
    invariant."""
    roots = _root_forced(monkeypatch)
    g, cfg = cycle_graph(5), ModelConfig(kappa=2, variant=AO)
    exp = fap.expand_gadgets(_soft_fap())
    menu_free = FapInstance(4, [None] * 4, [FapPair(0, 1, 3), FapPair(0, 2, 2), FapPair(0, 3, 1),
                                            FapPair(1, 3, 1), FapPair(2, 3, 3)], spectrum=4)
    symmetric = [lambda: solve_ao(g, 2),
                 lambda: solve_model(exp.graph, ModelConfig(kappa=3, variant=AO),
                                     extra_rows=exp.side_rows),
                 lambda: fap.solve_fixed_spectrum(menu_free)]
    one_way = LinearRow({0: 1, 2: 1}, 0, 1, "<=", "no-good")  # its reversal is missing
    plain = [lambda: solve_model(g, ModelConfig(kappa=2, variant=AS)),
             lambda: solve_model(g, cfg, labels=[None] * g.n),
             lambda: solve_model(g, cfg, extra_rows=(one_way,)),
             lambda: solve_model(g, cfg, objective=solver.Objective(w_coeffs={0: 1.0}))]
    for expect, calls in (({0: 1, 1: 0}, symmetric), ({}, plain)):
        for call in calls:
            roots.clear()
            call()
            assert roots == [expect]
    # once wrong with edge 0 pre-oriented by request: a selection model whose
    # optimum leaves edge 0 unoriented, and K3 with vertex 1 held to label 0,
    # which only arc 1's direction, 1 -> 0, meets
    wrong = ((path_graph(3), ModelConfig(kappa=1, variant=AS, z_fixed=0), None),
             (complete_graph(3), ModelConfig(kappa=3), [None, (0,), None]))
    for h, config, labels in wrong:
        roots.clear()
        rep = solve_model(h, config, labels=labels)
        assert roots == [{}]
        assert rep.status == "optimal" and rep.objective == brute_force_optimum(h, config)[0]


def test_root_program_starts_where_its_pair_pivots_lead(monkeypatch):
    """The root's program, built with its violated pair rows pivoted at once,
    ends its first solve as the same rows built from the slack basis do: the
    same basis, point and objective, with one pivot fewer per row pivoted."""
    roots = []
    process = solver._process_node

    def spy(ctx, node, incumbent):
        if node.lp is ctx.base_lp:
            roots.append((node.forced, ctx.base_lp))
        return process(ctx, node, incumbent)

    monkeypatch.setattr(solver, "_process_node", spy)
    exp = fap.expand_gadgets(_soft_fap())
    for _, g, _ in BATTERY:
        for kappa in (1, 2, 3):
            for variant in (AO, AS):
                solve_model(g, ModelConfig(kappa=kappa, variant=variant))
    solve_model(exp.graph, ModelConfig(kappa=3, variant=AO), extra_rows=exp.side_rows)
    solve_soft_cost(_costed_fap())
    assert len(roots) > 2 * len(BATTERY)
    saved = 0
    for forced, lp in roots:
        pivoted = int(np.count_nonzero(lp.basis < len(lp.c)))
        ns = len(lp.c)
        plain = LinearProgram(lp.c, lp.col_lo[:ns], lp.col_hi[:ns])
        for coeffs, sense, rhs in lp.rows:
            plain.add_row(coeffs, sense, rhs)
        fast, slow = lp.branch(forced), plain.branch(forced)
        a, b = fast.solve(), slow.solve()
        assert a.status == b.status == "optimal"
        assert np.array_equal(fast.basis, slow.basis)
        assert np.array_equal(a.x, b.x) and a.objective == b.objective
        assert b.iterations - a.iterations == pivoted
        saved += pivoted
    assert saved > len(roots)


def test_no_good_rows_are_hard_constraints():
    g = complete_graph(3)
    cfg = ModelConfig(kappa=2, variant=AS)
    ref, best = brute_force_optimum(g, cfg)
    # forbid the brute-force optimum's arc set outright
    arcs = sorted(best.arc_set())
    block = LinearRow({a: 1.0 for a in arcs}, 0, len(arcs) - 1, "<=", "no-good")
    rep = solve_model(g, cfg, extra_rows=(block,))
    assert rep.status == "optimal"
    assert block.satisfied(rep.best_point.w, rep.best_point.z)
    assert rep.objective >= ref - 1e-9


def test_solve_determinism():
    def fingerprint(rep):
        return (rep.objective, rep.node_count, rep.pruned_count, rep.cut_counts,
                rep.lp_iterations, rep.node_bound_histories)

    assert fingerprint(solve_ao(cycle_graph(5), 2)) == fingerprint(solve_ao(cycle_graph(5), 2))
    # several nodes, each adding cycle-z cuts
    a = solve_ao(_myciel3(), 3)
    assert a.node_count > 1
    assert a.cut_counts.get("cycle-z", 0) > 0
    assert fingerprint(a) == fingerprint(solve_ao(_myciel3(), 3))


def test_one_lp_build_per_solve_and_one_branch_per_node(monkeypatch):
    """A searching solve builds one program; each counted node copies its
    parent's once, and none is copied and thrown away."""
    events, reports = [], []
    init, branch, solve = LinearProgram.__init__, LinearProgram.branch, solver.solve_model

    def init_spy(lp, *args):
        events.append("init")
        init(lp, *args)

    def branch_spy(lp, fixed):
        events.append("branch")
        return branch(lp, fixed)

    def solve_spy(*args, **kwargs):
        start = len(events)
        rep = solve(*args, **kwargs)
        reports.append((events[start:].count("init"), events[start:].count("branch"), rep))
        return rep

    monkeypatch.setattr(LinearProgram, "__init__", init_spy)
    monkeypatch.setattr(LinearProgram, "branch", branch_spy)
    for module in (solver, fap):
        monkeypatch.setattr(module, "solve_model", solve_spy)
    inst = _soft_fap()
    assert solve_soft_cost(inst).total_cost == 0
    assert solve_ao(_myciel3(), 3).objective == 3
    assert len(reports) == 2
    for inits, branches, rep in reports:
        assert rep.node_count > 1 and inits == 1 and branches == rep.node_count


def test_pushed_nodes_have_acyclic_forced_arcs(monkeypatch):
    """On these solves every pushed node's forced arcs are acyclic, and a
    node whose forced arcs do close a cycle ends infeasible in both models:
    the cycle rows cut it off, as they cut off any cyclic integral point."""
    seen = []
    process = solver._process_node

    def spy(ctx, node, incumbent):
        res = process(ctx, node, incumbent)
        seen.extend((ctx.g, n) for n in (node,) + res.children)
        return res

    monkeypatch.setattr(solver, "_process_node", spy)
    for g, kappa in ((petersen_graph(), 2), (_myciel3(), 3)):
        for variant in (AO, AS):
            solve_model(g, ModelConfig(kappa=kappa, variant=variant))
    inst = _soft_fap()
    solve_soft_cost(inst)
    assert sum(bool(n.forced) for _, n in seen) > 10
    for g, node in seen:
        assert is_acyclic(g, [a for a, v in node.forced if v == 1]), node.forced

    # K3 with 0->1, 1->2 and 2->0 forced
    g = complete_graph(3)
    forced = {}
    for u, v in ((0, 1), (1, 2), (2, 0)):
        forced[g.arc(u, v)], forced[g.arc(v, u)] = 1, 0
    for variant in (AO, AS):
        ctx = solver._Context(g, ModelConfig(kappa=2, variant=variant), solver.Objective(),
                              (), None)
        res = process(ctx, solver._Node(tuple(sorted(forced.items())), ctx.base_lp), math.inf)
        assert res.status == "infeasible" and res.candidate is None, variant


def test_propagation_keeps_every_short_acyclic_orientation():
    """Every acyclic orientation with no directed path of kappa arcs that
    agrees with a forced set agrees with its propagation too, and a forced
    set is dropped only when no such orientation exists."""
    rng = random.Random(22)
    cases = dropped = closed = cyclic = 0
    while cases < 2000:
        n = rng.randint(2, 7)
        g = UndirectedGraph(n, [e for e in itertools.combinations(range(n), 2)
                                if rng.random() < 0.45])
        if not 1 <= g.m <= 10:
            continue
        orientations = []
        for dirs in itertools.product((0, 1), repeat=g.m):
            arcs = frozenset(2 * e + d for e, d in enumerate(dirs))
            if is_acyclic(g, arcs):
                orientations.append((arcs, dag_longest_path(g, arcs)))
        for kappa in (1, 2, 3, 4, 6):  # from 6 a free edge can close a forced cycle
            for _ in range(10):
                forced = {}
                for e in rng.sample(range(g.m), rng.randint(0, min(3, g.m))):
                    a = 2 * e + rng.randint(0, 1)
                    forced[a], forced[a ^ 1] = 1, 0
                agree = [arcs for arcs, longest in orientations if longest < kappa
                         and all((a in arcs) == (v == 1) for a, v in forced.items())]
                got = solver._propagate(g, tuple(sorted(forced.items())), kappa)
                cases += 1
                if got is None:
                    assert not agree, (g.edges, kappa, forced)
                    dropped += 1
                    continue
                got = dict(got)
                assert forced.items() <= got.items()
                assert all(got.get(a ^ 1) == 1 - v for a, v in got.items())
                for arcs in agree:
                    assert all((a in arcs) == (v == 1) for a, v in got.items()), \
                        (g.edges, kappa, forced, got)
                # a free edge forced the way that closes a forced cycle drops the
                # child: `_branch` leaves its cycle test to the propagation
                ones = [a for a, v in got.items() if v == 1]
                for a in range(2 * g.m):
                    if a not in got and not is_acyclic(g, ones + [a]):
                        child = dict(got)
                        child[a], child[a ^ 1] = 1, 0
                        assert solver._propagate(g, tuple(sorted(child.items())), kappa) is None
                        cyclic += 1
                closed += len(got) == 2 * g.m
    assert dropped > 100 and closed > 100 and cyclic > 10, (dropped, closed, cyclic)


def _least_labels(g, arcs, menus, top):
    """The least labeling f of the acyclic arc set with u -> v => f(u) < f(v)
    and each f(v) in menus[v] (any label where that is None), or None when
    it needs a label above `top`. Each vertex in topological order takes
    the least label its in-arcs and menu allow; every labeling is at least
    this one, pointwise."""
    ins = [[] for _ in range(g.n)]
    for a in arcs:
        ins[g.heads[a]].append(g.tails[a])
    layer = longest_path_labels(g, arcs)
    f = [0] * g.n
    for v in sorted(range(g.n), key=layer.__getitem__):
        need = max((f[u] + 1 for u in ins[v]), default=0)
        fit = [x for x in (menus[v] if menus[v] is not None else [need]) if x >= need]
        if not fit or min(fit) > top:
            return None
        f[v] = min(fit)
    return f


def test_label_windows_keep_every_labelled_orientation():
    """On gadget expansions with m <= 12, with and without availability sets
    and side rows: whenever some acyclic orientation agrees with a forced
    set, keeps every kappa-arc path below kappa, holds the side rows it is
    given and has a labeling f with u -> v => f(u) < f(v) and f(v) in its
    menu, `_propagate` keeps the child, and every arc it forces holds in
    all such orientations."""
    rng = random.Random(24)
    cases = dropped = closed = 0
    gained = {"labels": 0, "side": 0}  # cases where the rule drops or forces more
    instances = 0
    while instances < 40:
        links = rng.randint(2, 5)
        pairs = [FapPair(i, j, rng.randint(1, 3))
                 for i, j in itertools.combinations(range(links), 2) if rng.random() < 0.5]
        phi = rng.randint(1, 4)
        sets = [None if rng.random() < 0.4 else
                frozenset(rng.sample(range(phi + 2), rng.randint(1, phi + 1)))
                for _ in range(links)]
        exp = fap.expand_gadgets(FapInstance(links, sets, pairs, phi))
        g = exp.graph
        if not 1 <= g.m <= 12:
            continue
        instances += 1
        kappa, top = phi + 1, phi
        menus = [None if s is None else tuple(sorted(s)) for s in sets]
        menus += [None] * (g.n - links)
        side = [tuple(r.coeffs) for r in exp.side_rows]
        kept = {(True, True): [], (True, False): [], (False, True): [], (False, False): []}
        for dirs in itertools.product((0, 1), repeat=g.m):
            arcs = frozenset(2 * e + d for e, d in enumerate(dirs))
            if not is_acyclic(g, arcs):
                continue
            fits = _least_labels(g, arcs, [None] * g.n, top) is not None  # longest < kappa
            menu_fits = fits and _least_labels(g, arcs, menus, top) is not None
            holds = all(not (a in arcs and b in arcs) for a, b in side)
            for use_labels, use_side in kept:
                if (menu_fits if use_labels else fits) and (holds or not use_side):
                    kept[use_labels, use_side].append(arcs)
        for _ in range(10):
            forced = {}
            for e in rng.sample(range(g.m), rng.randint(0, min(3, g.m))):
                a = 2 * e + rng.randint(0, 1)
                forced[a], forced[a ^ 1] = 1, 0
            key = tuple(sorted(forced.items()))
            got = {}
            for (use_labels, use_side), orientations in kept.items():
                agree = [arcs for arcs in orientations
                         if all((a in arcs) == (v == 1) for a, v in forced.items())]
                out = solver._propagate(g, key, kappa, menus if use_labels else None,
                                        side if use_side else ())
                got[use_labels, use_side] = out
                cases += 1
                if out is None:
                    assert not agree, (g.edges, kappa, menus, side, forced)
                    dropped += 1
                    continue
                out = dict(out)
                assert forced.items() <= out.items()
                assert all(out.get(a ^ 1) == 1 - v for a, v in out.items())
                for arcs in agree:
                    assert all((a in arcs) == (v == 1) for a, v in out.items()), \
                        (g.edges, kappa, menus, side, forced, out)
                closed += len(out) == 2 * g.m
            plain = got[False, False]
            for rule, out in (("labels", got[True, False]), ("side", got[False, True])):
                gained[rule] += plain is not None and (out is None or len(out) > len(plain))
    assert dropped > 100 and closed > 100, (dropped, closed)
    assert min(gained.values()) > 50, gained


def _no_propagation(g, forced, kappa, labels, side):
    """The child filter without propagation: drop a cycle, force nothing."""
    return None if find_directed_cycle(g, [a for a, v in forced if v == 1]) else forced


def test_propagation_changes_no_answer_and_saves_nodes(monkeypatch):
    """Without propagation the same solves give the same answers in more
    nodes."""
    reports = []
    solve = solver.solve_model

    def report_spy(*args, **kwargs):
        rep = solve(*args, **kwargs)
        reports.append(rep)
        return rep

    for module in (solver, fap):
        monkeypatch.setattr(module, "solve_model", report_spy)
    calls = [lambda g=g, cfg=ModelConfig(kappa=kappa, variant=AO, z_fixed=z):
             solver.solve_model(g, cfg)
             for _, g, _ in BATTERY for kappa in (1, 2, 3) for z in (None, kappa - 1)]
    calls += [lambda: solve_ao(_myciel3(), 3), lambda: solve_ao(petersen_graph(), 3),
              lambda: solve_soft_cost(_soft_fap()),
              # one probe with availability sets, and two without (at 4 and 3)
              lambda: fap.min_spectrum(_sets_fap()), lambda: fap.min_spectrum(_chain_fap())]
    totals = {}
    for propagated in (True, False):
        if not propagated:
            monkeypatch.setattr(solver, "_propagate", _no_propagation)
        reports.clear()
        for call in calls:
            call()
        totals[propagated] = ([(r.status, r.objective) for r in reports],
                              sum(r.node_count for r in reports))
    assert totals[True][0] == totals[False][0]
    assert totals[True][1] < totals[False][1]


def test_dropped_children_are_pruned_and_never_processed(monkeypatch):
    """A child the propagation drops counts in `pruned` and never reaches
    `_process_node`."""
    propagate, process = solver._propagate, solver._process_node
    children, dropped, processed, pruned = [0], [], [], [0]

    def propagate_spy(d, forced, kappa, labels, side):
        children[0] += 1
        got = propagate(d, forced, kappa, labels, side)
        if got is None:
            dropped.append(forced)
        return got

    def process_spy(ctx, node, incumbent):
        processed.append(node.forced)
        res = process(ctx, node, incumbent)
        pruned[0] += res.status == "pruned"
        return res

    monkeypatch.setattr(solver, "_propagate", propagate_spy)
    monkeypatch.setattr(solver, "_process_node", process_spy)
    rep = solve_ao(_myciel3(), 3)
    assert rep.status == "optimal" and rep.objective == 3 and dropped
    assert not set(dropped) & set(processed)
    # every pushed node, the root included, is processed or pruned at its pop
    pushed = 1 + children[0] - len(dropped)
    assert rep.pruned_count == pushed - rep.node_count + pruned[0] + len(dropped)


def test_cut_loop_reads_plain_floats(monkeypatch):
    """The separators see the LP point as a list of floats and z as a float."""
    seen = []
    paths = solver.separate_paths

    def spy(d, w, z, kappa, deadline=None, best=None):
        seen.append(type(w) is list and all(type(v) is float for v in w) and type(z) is float)
        return paths(d, w, z, kappa, deadline, best)

    monkeypatch.setattr(solver, "separate_paths", spy)
    solve_ao(_myciel3(), 3)
    solve_model(_myciel3(), ModelConfig(kappa=3, variant=AS))
    assert seen and all(seen)


def test_one_walk_table_per_round(monkeypatch):
    """Each round builds the walk bounds of its point once, for kappa + 1
    arcs, and hands that table to both window searches."""
    tables = []

    def spy(name):
        separate = getattr(solver, name)

        def call(d, w, z, kappa, deadline, best):
            assert best == separation.walk_bounds(d, w, kappa + 1)
            tables.append((name, best))
            return separate(d, w, z, kappa, deadline, best)
        return call

    for name in ("separate_paths", "separate_templates"):
        monkeypatch.setattr(solver, name, spy(name))
    solve_ao(_myciel3(), 3)
    assert tables and [name for name, _ in tables[::2]] == ["separate_paths"] * (len(tables) // 2)
    assert all(p is t for (_, p), (_, t) in zip(tables[::2], tables[1::2]))
    assert len({id(best) for _, best in tables}) == len(tables) // 2


def test_cycle_separation_sees_pair_feasible_points(monkeypatch):
    """`separate_cycles` searches no further than a 2-cycle closure; that is
    exact because every point the solver separates keeps the pair rows. The
    solver asks it at integral points only."""
    seen = []
    separate = solver.separate_cycles

    def spy(d, w):
        seen.append((max(w[a] + w[a + 1] for a in range(0, d.num_arcs, 2)),
                     all(min(x, 1.0 - x) < INT_TOL for x in w)))
        return separate(d, w)

    monkeypatch.setattr(solver, "separate_cycles", spy)
    for solve in _separating_solves():
        solve()
    assert seen
    assert all(integral for _, integral in seen)
    assert max(worst for worst, _ in seen) <= 1.0 + 1e-6


def test_cut_rounds_append_only_rows_the_program_lacks(monkeypatch):
    """The node's program is its row set: every row a round appends is new to
    the program and appears once in the round, with no key set to filter it."""
    appended = []
    resolve = LinearProgram.add_rows_and_resolve

    def key(row):
        coeffs, sense, rhs = row
        return tuple(sorted(coeffs.items())), sense, rhs

    def spy(lp, rows, *args):
        new = [key(r) for r in rows]
        assert len(set(new)) == len(new)
        assert set(new).isdisjoint(key(r) for r in lp.rows)
        appended.append(len(new))
        return resolve(lp, rows, *args)

    monkeypatch.setattr(LinearProgram, "add_rows_and_resolve", spy)
    for solve in _separating_solves():
        before = len(appended)
        solve()
        assert len(appended) > before and sum(appended[before:]) > 0


def test_cycle_separator_runs_last(monkeypatch):
    """A round asks the window search for path and cycle-z rows; a fractional
    round never asks the cycle separator, and an integral one asks it exactly
    when the window search finds none. A round at an integral point, which
    cannot branch, always finds a row."""
    rounds = []

    def spy(name):
        separate = getattr(solver, name)

        def call(d, w, *args):
            if name == "separate_paths":
                rounds.append({"integral": all(min(x, 1.0 - x) < INT_TOL for x in w)})
            rows = rounds[-1][name] = separate(d, w, *args)
            return rows
        return call

    for name in ("separate_paths", "separate_templates", "separate_cycles"):
        monkeypatch.setattr(solver, name, spy(name))
    for solve in _separating_solves():
        solve()
    for r in rounds:
        window = r["separate_paths"] + r["separate_templates"]
        assert ("separate_cycles" in r) == (r["integral"] and not window)
        if r["integral"]:
            assert window or r["separate_cycles"]
    assert sum(r["integral"] for r in rounds) > 0
    assert sum("separate_cycles" in r for r in rounds) > 0
    # fractional rounds whose window search came back empty: they branch
    assert any(not r["integral"] and not r["separate_paths"] + r["separate_templates"]
               for r in rounds)


def _count_template_generation(monkeypatch):
    generated = collections.Counter()
    for tag, gen in list(separation._TEMPLATE_GENERATORS.items()):
        def counted(d, kappa, tag=tag, gen=gen):
            generated[tag] += 1
            return gen(d, kappa)
        monkeypatch.setitem(separation._TEMPLATE_GENERATORS, tag, counted)
        monkeypatch.setattr(separation, gen.__name__, counted)
    return generated


def test_solve_separates_cycle_z_without_template_generators(monkeypatch):
    """Cycle-z cuts come from the search alone; no template row is generated."""
    generated = _count_template_generation(monkeypatch)
    rep = solve_ao(_myciel3(), 3)
    assert rep.cut_counts.get("cycle-z", 0) > 0
    assert not generated


def test_node_bound_histories_monotone():
    rep = solve_ao(petersen_graph(), 2)
    assert rep.node_bound_histories
    for hist in rep.node_bound_histories:
        for lo, hi in zip(hist, hist[1:]):
            assert hi >= lo - 1e-9


def test_chromatic_number_named_graphs():
    expected = {"edge": 2, "P3": 2, "P4": 2, "C4": 2, "K3": 3, "paw": 3, "K4": 4}
    for name, g, _ in BATTERY:
        chi, colors = chromatic_number(g)
        assert chi == expected[name], name
        assert len(colors) == g.n and max(colors) + 1 == chi
        assert all(colors[u] != colors[v] for u, v in g.edges)
    assert chromatic_number(cycle_graph(5))[0] == 3
    assert chromatic_number(petersen_graph())[0] == 3


def test_drift_in_the_search_restarts_once(monkeypatch):
    """Drift in the first program the search pivots fails its residual check;
    one restart from the slack basis recovers it and chi is the one found
    without drift. The colouring may differ but stays proper."""
    iterate, restart = LinearProgram._iterate, LinearProgram._restart
    for g in (petersen_graph(), _myciel3()):
        chi, _ = chromatic_number(g)
        calls, restarts = [], []

        def drifting(lp, *args):
            if not calls:
                lp.tab[:, -1] += 1e-3
            calls.append(lp)
            return iterate(lp, *args)

        monkeypatch.setattr(LinearProgram, "_iterate", drifting)
        monkeypatch.setattr(LinearProgram, "_restart",
                            lambda lp: restarts.append(lp) or restart(lp))
        drifted, colors = chromatic_number(g)
        monkeypatch.undo()
        assert drifted == chi and len(restarts) == 1 and restarts[0] is calls[0]
        assert all(colors[u] != colors[v] for u, v in g.edges)


def test_chromatic_number_disconnected():
    g = UndirectedGraph(6, [(0, 1), (1, 2), (0, 2), (4, 5)])
    chi, colors = chromatic_number(g)
    assert chi == 3
    assert colors[4] != colors[5]
    # no edges: every component is skipped by the component loop
    reports = []
    edgeless = UndirectedGraph(3, [])
    assert min_diameter_orientation(edgeless, reports=reports) == (frozenset(), 0)
    assert reports == [] and chromatic_number(edgeless) == (1, [0, 0, 0])


def test_min_diameter_orientation_on_interleaved_components():
    """Each component's arcs map back through its own vertex list."""
    g = interleaved_components()
    reports = []
    arcs, q = min_diameter_orientation(g, reports=reports)
    assert q == 2 and len(arcs) == g.m and {a >> 1 for a in arcs} == set(range(g.m))
    assert is_acyclic(g, arcs) and dag_longest_path(g, arcs) == 2
    again = []
    chi, colors = chromatic_number(g, reports=again)
    assert chi == 3 and all(colors[i] != colors[j] for i, j in g.edges)
    assert len(again) == len(reports) >= 1


def test_min_diameter_orientation_realizes_q():
    for name, g, q in BATTERY:
        arcs, got = min_diameter_orientation(g)
        assert got == q, name
        assert is_acyclic(g, arcs)
        assert dag_longest_path(g, arcs) == q


def test_min_diameter_orientation_reports():
    reports = []
    arcs, q = min_diameter_orientation(complete_graph(3), reports=reports)
    assert q == 2 and reports
    assert all(r.status == "optimal" for r in reports)


def test_guaranteed_feasible_z_values():
    assert guaranteed_feasible_z(3, 1) == 3 - 3 // 2
    assert guaranteed_feasible_z(5, 2) == 5 - 5 // 3
    assert guaranteed_feasible_z(4, 4) == 4
    with pytest.raises(InputError):
        guaranteed_feasible_z(0, 1)


def test_check_load_reduction_on_min_diameter_orientations():
    for name, g, q in BATTERY:
        arcs, _ = min_diameter_orientation(g)
        for kappa in range(q + 1, q + 4):
            assert check_load_reduction(g, kappa, arcs), (name, kappa)
