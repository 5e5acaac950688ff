from fractions import Fraction

import pytest

from orientcut.errors import InfeasibleError, InputError, SizeRefusalError
from orientcut import polytope
from orientcut.graphs import (
    complete_graph,
    cycle_graph,
    enumerate_cycles,
    enumerate_paths_k,
    petersen_graph,
    single_edge,
)
from orientcut.lp import affine_dimension
from orientcut.model import (
    AO,
    AS,
    ModelConfig,
    row_arc_lower,
    row_arc_upper,
    row_cycle,
    row_path,
    row_z_upper,
)
from orientcut.polytope import (
    brute_force_chromatic,
    brute_force_min_diameter,
    brute_force_optimum,
    classify_face,
    enumerate_feasible_points,
    polytope_dimension,
)

from conftest import BATTERY, atlas_graphs, fraction_rank


def test_point_counts_on_single_edge():
    g = single_edge()
    ao = enumerate_feasible_points(g, ModelConfig(kappa=1, variant=AO))
    assert len(ao) == 2  # two directions, z pinned to the load 1
    as_ = enumerate_feasible_points(g, ModelConfig(kappa=1, variant=AS))
    # skip the edge (z in 0..1) or orient it (z = 1)
    assert len(as_) == 4
    as2 = enumerate_feasible_points(g, ModelConfig(kappa=2, variant=AS))
    # no 2-arc path exists: all three states carry every z in 0..2
    assert len(as2) == 9


def test_all_enumerated_points_are_feasible():
    from orientcut.model import check_integral_feasible

    g = complete_graph(3)
    for variant in (AO, AS):
        cfg = ModelConfig(kappa=2, variant=variant)
        pts = enumerate_feasible_points(g, cfg)
        assert pts
        for p in pts:
            ok, why = check_integral_feasible(g, cfg, p)
            assert ok, (variant, p, why)


def test_enumeration_refuses_large_graphs():
    with pytest.raises(SizeRefusalError):
        enumerate_feasible_points(petersen_graph(), ModelConfig(kappa=2, variant=AS))


def test_enumeration_refuses_too_many_points(monkeypatch):
    """The z levels are counted before any point is built; the count grows
    with kappa, and more than MAX_LAB_POINTS are refused."""
    g = complete_graph(3)
    with pytest.raises(SizeRefusalError, match="points"):
        enumerate_feasible_points(g, ModelConfig(kappa=1_000_000, variant=AS))
    cfg = ModelConfig(kappa=2, variant=AS)
    count = len(enumerate_feasible_points(g, cfg))
    monkeypatch.setattr(polytope, "MAX_LAB_POINTS", count)
    assert len(enumerate_feasible_points(g, cfg)) == count
    monkeypatch.setattr(polytope, "MAX_LAB_POINTS", count - 1)
    with pytest.raises(SizeRefusalError, match=f"got {count}"):
        enumerate_feasible_points(g, cfg)


def test_dimension_full_on_battery():
    for name, g, _ in BATTERY:
        for kappa in (1, 2):
            dim = polytope_dimension(g, ModelConfig(kappa=kappa, variant=AS))
            assert dim == 2 * g.m + 1, (name, kappa)


def test_integer_z_levels_span_the_continuous_hull():
    # sweeping z over fractional levels must not add affine rank
    g = single_edge()
    cfg = ModelConfig(kappa=2, variant=AS)
    pts = enumerate_feasible_points(g, cfg)
    ints = [tuple(map(Fraction, p.w)) + (Fraction(p.z),) for p in pts]
    dense = list(ints)
    for p in pts:
        for num in (1, 3, 5, 7):
            zq = Fraction(num, 4)
            if zq <= 2:
                dense.append(tuple(map(Fraction, p.w)) + (zq,))
    assert affine_dimension(dense) == affine_dimension(ints)


def test_lab_points_are_integers():
    """Every coordinate of a lab point is an int, and the points' rank is the
    rank of the same points taken as floats."""
    for name, g, _ in BATTERY[3:]:
        for variant in (AO, AS):
            cfg = ModelConfig(kappa=2, variant=variant)
            pts = enumerate_feasible_points(g, cfg)
            assert all(type(x) is int for p in pts for x in p.w + (p.z,)), (name, variant)
            floats = [tuple(map(float, p.w)) + (float(p.z),) for p in pts]
            assert polytope_dimension(g, cfg, pts) == affine_dimension(floats), (name, variant)


def test_lab_ranks_match_the_fraction_reference():
    """The polytope's dimension and the face dimension of every cycle and
    path row equal the rank by elimination over Fractions, on every connected
    graph with at most four edges, at kappa 1 to 3, in both variants."""
    graphs = atlas_graphs(max_edges=4, connected=True)
    assert len(graphs) == 11
    for g in graphs:
        for kappa in (1, 2, 3):
            rows = [row_cycle(g, c) for c in enumerate_cycles(g, max(g.n, 2))]
            rows += [row_path(g, p, kappa) for p in enumerate_paths_k(g, kappa)]
            for variant in (AO, AS):
                cfg = ModelConfig(kappa=kappa, variant=variant)
                pts = enumerate_feasible_points(g, cfg)
                dim = polytope_dimension(g, cfg, pts)
                assert dim == fraction_rank([p.w + (p.z,) for p in pts])
                for row in rows:
                    face = classify_face(g, cfg, row, pts, dim)
                    tight = [p.w + (p.z,) for p in pts if row.value(p.w, p.z) == row.rhs]
                    assert face.valid  # cycle and path rows hold on every point
                    assert face.face_dimension == fraction_rank(tight), (g.edges, kappa, row)


def test_classify_face_spot_checks():
    g = complete_graph(3)
    cfg = ModelConfig(kappa=2, variant=AS)
    pts = enumerate_feasible_points(g, cfg)
    low = classify_face(g, cfg, row_arc_lower(0), pts)
    assert low.valid and low.is_facet
    up = classify_face(g, cfg, row_arc_upper(0), pts)
    assert up.valid and not up.is_facet
    zup = classify_face(g, cfg, row_z_upper(2), pts)
    assert zup.valid and zup.is_facet
    cyc = classify_face(g, cfg, row_cycle(g, (0, 1, 2)), pts)
    assert cyc.valid and not cyc.is_facet  # |C| = 3 > kappa
    path = classify_face(g, cfg, row_path(g, (0, 1, 2), 2), pts)
    assert path.valid and not path.is_facet  # endpoints adjacent in K3
    assert path.proper


def test_classify_face_flags_invalid_rows():
    from orientcut.model import LinearRow

    g = single_edge()
    cfg = ModelConfig(kappa=1, variant=AS)
    bogus = LinearRow({0: 1, 1: 1}, 0, 0, "<=", "bound")
    rep = classify_face(g, cfg, bogus)
    assert not rep.valid and rep.violating_point is not None
    assert rep.face_dimension == -1 and not rep.is_facet
    with pytest.raises(InputError):
        classify_face(g, cfg, LinearRow({0: 1, 1: 1}, 0, 1, "=", "edge-pair"))


def test_brute_force_chromatic_known_values():
    values = {"edge": 2, "P3": 2, "P4": 2, "C4": 2, "K3": 3, "paw": 3, "K4": 4}
    for name, g, _ in BATTERY:
        assert brute_force_chromatic(g) == values[name], name
    assert brute_force_chromatic(cycle_graph(5)) == 3
    assert brute_force_chromatic(petersen_graph()) == 3


def test_brute_force_min_diameter_matches_battery():
    for name, g, q in BATTERY:
        got, arcs = brute_force_min_diameter(g)
        assert got == q, name
        from orientcut.graphs import dag_longest_path, is_acyclic

        assert is_acyclic(g, arcs)
        assert dag_longest_path(g, arcs) == q


def test_brute_force_optimum_variants():
    g = complete_graph(3)
    val, point = brute_force_optimum(g, ModelConfig(kappa=2, variant=AO))
    assert val == pytest.approx(2.0)  # transitive triangle realizes q = 2
    val, point = brute_force_optimum(g, ModelConfig(kappa=2, variant=AS))
    # selection objective z - (m + 1) * sum(w): orient everything, z = 2
    assert val == pytest.approx(2.0 - 4 * 3)
    assert point.is_integral()
    with pytest.raises(InfeasibleError):
        brute_force_optimum(g, ModelConfig(kappa=2, variant=AO, z_fixed=0))
