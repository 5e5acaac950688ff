"""Acceptance battery: one test per contract criterion, each self-contained.

Run with `pytest -v tests/test_acceptance.py` to get a pass/fail line per
criterion. Every test finishes well inside a minute on a desktop.
"""

import itertools
import random

import numpy as np
import pytest

from orientcut.errors import SizeRefusalError
from orientcut.fap import (
    FapInstance,
    FapPair,
    brute_force_min_spectrum,
    expand_gadgets,
    min_spectrum,
    solve_soft_cost,
)
from orientcut.graphs import (
    complete_graph,
    cycle_graph,
    enumerate_cycles,
    enumerate_paths_k,
    longest_path_labels,
    petersen_graph,
)
from orientcut.model import (
    AO,
    AS,
    LinearRow,
    ModelConfig,
    check_integral_feasible,
    row_arc_lower,
    row_arc_upper,
    row_cycle,
    row_path,
    row_z_upper,
)
from orientcut.polytope import (
    brute_force_chromatic,
    brute_force_min_diameter,
    classify_face,
    enumerate_feasible_points,
    polytope_dimension,
)
from orientcut.separation import (
    rows_cycle_z,
    separate_cycles,
    separate_paths,
    separate_templates,
    template_rows,
)
from orientcut.solver import (
    check_load_reduction,
    chromatic_number,
    guaranteed_feasible_z,
    min_diameter_orientation,
    solve_ao,
)

from conftest import BATTERY, atlas_graphs, random_point


def test_criterion_1_chromatic_equals_min_diameter_plus_one():
    """Solver chromatic number = brute chromatic = brute min diameter + 1."""
    graphs = atlas_graphs(max_nodes=6, connected=True)
    graphs += [cycle_graph(5), complete_graph(4), petersen_graph()]
    assert len(graphs) >= 143 + 3
    for g in graphs:
        chi, colors = chromatic_number(g)
        assert chi == brute_force_chromatic(g)
        q, _ = brute_force_min_diameter(g)
        assert chi == q + 1
        assert all(colors[u] != colors[v] for u, v in g.edges)


def test_criterion_2_polytope_dimension_is_full():
    """Affine dimension equals 2m + 1 for every m <= 6 graph, kappa in 1..3."""
    graphs = atlas_graphs(max_edges=6)
    assert len(graphs) == 179
    for kappa in (1, 2, 3):
        for g in graphs:
            cfg = ModelConfig(kappa=kappa, variant=AS)
            assert polytope_dimension(g, cfg) == 2 * g.m + 1, (g.edges, kappa)


def test_criterion_3_bound_cycle_path_facet_iff():
    """Facet-or-not matches the stated classification with zero mismatches.

    Arc lower bounds and the z upper bound are facets; arc upper bounds and
    the z lower bound are valid but not facets; a cycle row is a facet iff
    the cycle has at most kappa arcs; a kappa-path row is a facet iff the
    path endpoints are non-adjacent. One carve-out: when the graph has no
    path with kappa arcs at all, every load row is vacuous and z >= 0 then
    genuinely supports a facet, so those degenerate pairs are checked for
    exactly that.
    """
    mismatches = []
    for name, g, _ in BATTERY:
        for kappa in (2, 3):
            cfg = ModelConfig(kappa=kappa, variant=AS)
            points = enumerate_feasible_points(g, cfg)

            def check(row, expect_facet, what):
                face = classify_face(g, cfg, row, points)
                if not face.valid or face.is_facet != expect_facet:
                    mismatches.append((name, kappa, what, face))

            has_window_path = bool(enumerate_paths_k(g, kappa))
            for a in range(2 * g.m):
                check(row_arc_lower(a), True, f"w[{a}] >= 0")
                check(row_arc_upper(a), False, f"w[{a}] <= 1")
            check(LinearRow({}, -1, 0, "<=", "bound"), not has_window_path, "z >= 0")
            check(row_z_upper(kappa), True, f"z <= {kappa}")
            for cyc in enumerate_cycles(g, g.n):
                check(row_cycle(g, cyc), len(cyc) <= kappa, f"cycle {cyc}")
            for p in enumerate_paths_k(g, kappa):
                check(row_path(g, p, kappa), not g.has_edge(p[0], p[-1]), f"path {p}")
    assert not mismatches, mismatches[:5]


def test_criterion_4_template_rows_valid_everywhere():
    """No generated template row cuts any feasible point; the path-apex,
    path-link and pendant-cycle families are valid yet never facets here."""
    for kappa in (2, 3, 4):
        for g in atlas_graphs(max_edges=6):
            if g.m == 0:
                continue
            cfg = ModelConfig(kappa=kappa, variant=AS)
            pts = enumerate_feasible_points(g, cfg)
            rows = {}
            for r in template_rows(g, kappa):
                rows.setdefault(r.key, r)
            for r in rows.values():
                vec = np.zeros(2 * g.m + 1)
                for a, c in r.coeffs.items():
                    vec[a] = c
                vec[2 * g.m] = r.z_coeff
                worst = float((pts @ vec).max()) if len(pts) else 0.0
                assert worst <= r.rhs + 1e-9, (g.edges, kappa, r)

    # weaker families: valid faces, never facets, on the named battery
    for name, g, _ in BATTERY:
        for kappa in (2, 3):
            cfg = ModelConfig(kappa=kappa, variant=AS)
            pts = enumerate_feasible_points(g, cfg)
            for r in template_rows(g, kappa, tags=("path-km1", "path-km2", "cycle-arcs")):
                face = classify_face(g, cfg, r, pts)
                assert face.valid and not face.is_facet, (name, kappa, r)


def test_criterion_5_window_optima_and_reduction_bound():
    """z* = kappa up to the minimum diameter, drops strictly above it, and the
    floor-reduction point is always accepted."""
    for name, g, q in BATTERY:
        for kappa in range(1, q + 1):
            rep = solve_ao(g, kappa)
            assert rep.status == "optimal"
            assert rep.objective == pytest.approx(float(kappa)), (name, kappa)
        for kappa in (q + 1, q + 2):
            rep = solve_ao(g, kappa)
            assert rep.status == "optimal"
            assert rep.objective <= kappa - 1 + 1e-9, (name, kappa)
            target = guaranteed_feasible_z(kappa, q)
            assert target == kappa - kappa // (q + 1)
            assert rep.objective <= target + 1e-9, (name, kappa)
        arcs, got_q = min_diameter_orientation(g)
        assert got_q == q
        for kappa in range(q + 1, q + 4):
            assert check_load_reduction(g, kappa, arcs), (name, kappa)


def test_criterion_6_separation_is_exact():
    """Cycle, path and cycle-z separation find a cut iff exhaustive
    evaluation does, on 1000 seeded fractional points per battery graph, and
    the first cycle-z cut is a most violated one."""
    rng = random.Random(60406)
    for name, g, _ in BATTERY:
        cycle_rows = [row_cycle(g, c) for c in enumerate_cycles(g, g.n)]
        for kappa in (2, 3):
            path_rows = [row_path(g, p, kappa) for p in enumerate_paths_k(g, kappa)]
            cycle_z_rows = list(rows_cycle_z(g, kappa))
            for _ in range(500):
                pt = random_point(g, kappa, rng)
                cyc_found = bool(separate_cycles(g, pt.w))
                cyc_exists = any(r.violation(pt.w, pt.z) > 1e-6 for r in cycle_rows)
                assert cyc_found == cyc_exists, (name, kappa, pt)
                path_found = bool(separate_paths(g, pt.w, pt.z, kappa))
                path_exists = any(r.violation(pt.w, pt.z) > 1e-6 for r in path_rows)
                assert path_found == path_exists, (name, kappa, pt)
                cycle_z_found = separate_templates(g, pt.w, pt.z, kappa)
                cycle_z_viol = [r.violation(pt.w, pt.z) for r in cycle_z_rows]
                assert bool(cycle_z_found) == any(v > 1e-6 for v in cycle_z_viol), \
                    (name, kappa, pt)
                if cycle_z_found:
                    assert cycle_z_found[0].violation(pt.w, pt.z) == max(cycle_z_viol)


def test_criterion_7_frequency_assignment():
    """Minimum spectrum matches assignment brute force; the separation-3
    chain gadget admits exactly the two monotone full orientations; the
    unit-cost soft triangle at spectrum 1 costs exactly 1."""
    def run(inst):
        try:
            want, _ = brute_force_min_spectrum(inst)
        except SizeRefusalError:
            # nothing fits under the oracle's frequency cap, so the true
            # optimum must lie above it
            got, _ = min_spectrum(inst)
            assert got > 6, inst.pairs
            return
        got, cert = min_spectrum(inst)
        assert got == want, inst.pairs
        cert.verify(inst.with_spectrum(got))

    # every separation pattern on up to 3 links
    for links in (2, 3):
        slots = list(itertools.combinations(range(links), 2))
        for ds in itertools.product((0, 1, 2, 3), repeat=len(slots)):
            pairs = [FapPair(i, j, dv) for (i, j), dv in zip(slots, ds) if dv]
            if not pairs:
                continue
            run(FapInstance(links, [None] * links, pairs))

    # seeded slice of the 4-link space
    rng = random.Random(747)
    slots4 = list(itertools.combinations(range(4), 2))
    for _ in range(60):
        pairs = [FapPair(i, j, rng.choice((1, 2, 3)))
                 for i, j in slots4 if rng.random() < 0.6]
        if pairs:
            run(FapInstance(4, [None] * 4, pairs))

    # chain gadget monotonicity, exhaustively over all 3^3 arc states
    inst = FapInstance(2, [None, None], [FapPair(0, 1, 3)])
    exp = expand_gadgets(inst)
    g = exp.graph
    m = exp.graph.m
    full = []
    for state in itertools.product((0, 1, 2), repeat=m):
        w = [0.0] * (2 * m)
        for e, sv in enumerate(state):
            if sv:
                w[2 * e + sv - 1] = 1.0
        if not all(r.satisfied(w, 0.0) for r in exp.side_rows):
            continue
        if all(sv for sv in state):
            full.append([a for a in range(2 * m) if w[a] > 0.5])
    assert len(full) == 2
    for arcs in full:
        labels = longest_path_labels(g, arcs)
        assert abs(labels[0] - labels[1]) == 3

    # soft triangle with unit costs at spectrum 1
    soft = FapInstance(3, [None] * 3,
                       [FapPair(0, 1, 1, 1.0), FapPair(0, 2, 1, 1.0), FapPair(1, 2, 1, 1.0)],
                       spectrum=1)
    fa = solve_soft_cost(soft)
    assert fa.total_cost == pytest.approx(1.0)


def test_criterion_8_solver_hygiene():
    """Cut loops never loosen a node's LP bound and incumbents re-validate."""
    for name, g, _ in BATTERY + [("petersen", petersen_graph(), 2)]:
        for kappa in (2, 3):
            rep = solve_ao(g, kappa)
            assert rep.status == "optimal"
            for hist in rep.node_bound_histories:
                for lo, hi in zip(hist, hist[1:]):
                    assert hi >= lo - 1e-9, (name, kappa, hist)
            ok, why = check_integral_feasible(
                g, ModelConfig(kappa=kappa, variant=AO), rep.best_point)
            assert ok, (name, kappa, why)
