import collections
import itertools
import math
import random
import types

import pytest

from orientcut import separation, solver
from orientcut.errors import InputError
from orientcut.fap import FapInstance, FapPair, solve_soft_cost
from orientcut.graphs import (
    BidirectedDigraph,
    UndirectedGraph,
    complete_graph,
    cycle_graph,
    dag_longest_path,
    is_acyclic,
    path_graph,
    petersen_graph,
)
from orientcut.model import AO, AS, LinearRow, ModelConfig, ModelPoint, check_integral_feasible
from orientcut.polytope import brute_force_optimum
from orientcut.solver import (
    check_load_reduction,
    chromatic_number,
    default_objective,
    guaranteed_feasible_z,
    min_diameter_orientation,
    solve_ao,
    solve_model,
)

from conftest import BATTERY


def _myciel3():
    """The Groetzsch graph: Mycielski's construction applied to C5."""
    n, edges = 5, cycle_graph(5).edges
    out = list(edges)
    for u, v in edges:
        out += [(u, n + v), (v, n + u)]
    out += [(n + v, 2 * n) for v in range(n)]
    return UndirectedGraph(2 * n + 1, out)


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
            d = BidirectedDigraph(g)
            ok, why = check_integral_feasible(d, ModelConfig(kappa=kappa, variant=AO), rep.best_point)
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


def test_deadline_ends_the_cut_loop(monkeypatch):
    """Past the deadline a node stops separating and branches, and the search
    stops with the node's bound among its open bounds."""
    rounds = []
    per_node = []
    separate = solver.separate_cycles
    process = solver._process_node

    def spy(*args):
        rounds.append(args)
        return separate(*args)

    def counted(ctx, node):
        before = len(rounds)
        res = process(ctx, node)
        per_node.append(len(rounds) - before)
        return res

    monkeypatch.setattr(solver, "separate_cycles", spy)
    monkeypatch.setattr(solver, "_process_node", counted)
    g = _myciel3()
    free = solve_ao(g, 3)
    assert per_node[0] == 2
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


def test_feasibility_stop_returns_valid_point():
    g = complete_graph(4)
    rep = solve_model(g, ModelConfig(kappa=3, variant=AO), feasibility_stop=True,
                      use_symmetry=True)
    assert rep.status == "optimal" and rep.best_point is not None
    ok, _ = check_integral_feasible(BidirectedDigraph(g), ModelConfig(kappa=3, variant=AO), rep.best_point)
    assert ok


def test_extra_rows_cut_off_solutions():
    # forbid z below 2 via an explicit row; optimum moves from 1 to 2
    g = path_graph(3)
    base = solve_ao(g, 1)
    assert base.objective == pytest.approx(1.0)
    push = LinearRow({}, -1, -2, "<=", "bound")  # -z <= -2
    rep = solve_model(g, ModelConfig(kappa=1, variant=AO), extra_rows=(push,),
                      use_symmetry=True)
    assert rep.objective == pytest.approx(2.0) or rep.status == "infeasible"


def test_no_good_rows_are_hard_constraints():
    g = complete_graph(3)
    d = BidirectedDigraph(g)
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


def test_one_lp_build_per_counted_node(monkeypatch):
    """Every node whose LP is built is counted; none is solved and thrown away."""
    builds = []
    build_lp = solver._Context.build_lp

    def spy(ctx, node):
        builds.append(node)
        return build_lp(ctx, node)

    monkeypatch.setattr(solver._Context, "build_lp", spy)
    inst = FapInstance(4, [None] * 4, [FapPair(0, 1, 2), FapPair(0, 2, 1),
                                       FapPair(1, 3, 2), FapPair(2, 3, 1)], spectrum=3)
    reports = []
    assert solve_soft_cost(inst, reports=reports).total_cost == 0
    nodes = sum(r.node_count for r in reports)
    assert nodes > 1 and len(builds) == nodes


def test_pushed_nodes_have_acyclic_forced_arcs(monkeypatch):
    """The invariant that lets `_process_node` skip a cycle check on entry."""
    seen = []
    branchings = []
    process = solver._process_node

    def spy(ctx, node):
        res = process(ctx, node)
        seen.extend((ctx.d, n) for n in (node,) + res.children)
        if res.status == "branched":
            branchings.append(len(res.children))
        return res

    monkeypatch.setattr(solver, "_process_node", spy)
    for g, kappa in ((petersen_graph(), 2), (_myciel3(), 3)):
        for variant in (AO, AS):
            solve_model(g, ModelConfig(kappa=kappa, variant=variant), use_symmetry=True)
    inst = FapInstance(4, [None] * 4, [FapPair(0, 1, 2), FapPair(0, 2, 1),
                                       FapPair(1, 3, 2), FapPair(2, 3, 1)], spectrum=3)
    solve_soft_cost(inst)
    # Branching after one cut round on this G(9, 0.5) draw (found by a seeded
    # search) meets children whose forced arcs close a cycle; the child
    # filter in `_branch` must drop them.
    monkeypatch.setattr(solver, "MAX_CUT_ROUNDS", 1)
    rng = random.Random(11)
    g = UndirectedGraph(9, [e for e in itertools.combinations(range(9), 2)
                            if rng.random() < 0.5])
    assert solve_model(g, ModelConfig(kappa=3, variant=AO)).objective == 3
    assert 1 in branchings
    assert sum(bool(n.forced) for _, n in seen) > 10
    for d, node in seen:
        assert is_acyclic(d, [a for a, v in node.forced if v == 1]), node.forced


def test_cycle_separation_sees_pair_feasible_points(monkeypatch):
    """`separate_cycles` searches no further than a 2-cycle closure; that is
    exact because every point the solver separates keeps the pair rows."""
    worst = []
    separate = solver.separate_cycles

    def spy(d, w, *args, **kwargs):
        worst.append(max(w[a] + w[a + 1] for a in range(0, d.num_arcs, 2)))
        return separate(d, w, *args, **kwargs)

    monkeypatch.setattr(solver, "separate_cycles", spy)
    inst = FapInstance(4, [None] * 4, [FapPair(0, 1, 2), FapPair(0, 2, 1),
                                       FapPair(1, 3, 2), FapPair(2, 3, 1)], spectrum=3)
    solves = (lambda: solve_ao(petersen_graph(), 3),
              lambda: solve_model(_myciel3(), ModelConfig(kappa=3, variant=AS)),
              lambda: solve_soft_cost(inst))
    for solve in solves:
        before = len(worst)
        solve()
        assert len(worst) > before
    assert max(worst) <= 1.0 + 1e-6


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


def test_chromatic_number_disconnected():
    g = UndirectedGraph(6, [(0, 1), (1, 2), (0, 2), (4, 5)])
    chi, colors = chromatic_number(g)
    assert chi == 3
    assert colors[4] != colors[5]


def test_min_diameter_orientation_realizes_q():
    for name, g, q in BATTERY:
        orient, got = min_diameter_orientation(g)
        assert got == q, name
        d = BidirectedDigraph(g)
        arcs = orient.arcs()
        assert is_acyclic(d, arcs)
        assert dag_longest_path(d, arcs) == q


def test_min_diameter_orientation_reports():
    reports = []
    orient, q = min_diameter_orientation(complete_graph(3), reports=reports)
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
        orient, _ = min_diameter_orientation(g)
        for kappa in range(q + 1, q + 4):
            assert check_load_reduction(g, kappa, orient), (name, kappa)
