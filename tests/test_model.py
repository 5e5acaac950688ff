import pytest

from orientcut.errors import InputError
from orientcut.graphs import complete_graph, cycle_graph, path_graph
from orientcut.model import (
    AO,
    AS,
    LinearRow,
    ModelConfig,
    ModelPoint,
    check_integral_feasible,
    row_adjacent_paths,
    row_cycle,
    row_cycle_arcs,
    row_cycle_z,
    row_edge_pair,
    row_path,
    row_path_km1,
    row_path_km2,
)


def test_config_validation():
    cfg = ModelConfig(kappa=2, variant=AS, z_fixed=1)
    assert cfg.z_lower == cfg.z_upper == 1.0
    assert ModelConfig(kappa=3).z_upper == 3.0
    with pytest.raises(InputError):
        ModelConfig(kappa=0)
    with pytest.raises(InputError):
        ModelConfig(kappa=2, variant="XX")
    with pytest.raises(InputError):
        ModelConfig(kappa=2, z_fixed=3)
    with pytest.raises(InputError):  # a window load counts arcs
        ModelConfig(kappa=3, z_fixed=2.5)


def test_point_integrality_and_support():
    p = ModelPoint((1.0, 0.0, 1e-8, 1.0), 2.0)
    assert p.is_integral()
    assert p.arc_set() == {0, 3}
    assert not ModelPoint((0.5, 0.0), 1.0).is_integral()


def test_linear_row_identity_and_evaluation():
    r1 = LinearRow({3: 1, 1: 1, 5: 0}, -1, 0, "<=", "path")
    r2 = LinearRow({1: 1, 3: 1}, -1, 0, "<=", "cycle-z")
    assert r1 == r2 and hash(r1) == hash(r2)  # tag is not identity
    assert 5 not in r1.coeffs
    w = [0.0, 0.7, 0.0, 0.6, 0.0, 0.0]
    assert r1.value(w, 0.5) == pytest.approx(0.8)
    assert r1.violation(w, 0.5) == pytest.approx(0.8)
    assert not r1.satisfied(w, 0.5)
    eq = LinearRow({0: 1, 1: 1}, 0, 1, "=", "edge-pair")
    assert eq.violation([0.4, 0.4], 0.0) == pytest.approx(0.2)
    assert eq.violation([0.6, 0.6], 0.0) == pytest.approx(0.2)
    with pytest.raises(InputError):
        LinearRow({}, 0, 1, "<=", "path")
    with pytest.raises(InputError):
        LinearRow({0: 1}, 0, 0, ">=", "path")
    with pytest.raises(InputError):
        LinearRow({0: 1}, 0, 0, "<=", "mystery")


def test_edge_pair_row_variants():
    g = path_graph(3)
    ao = row_edge_pair(g, 1, AO)
    assert (ao.sense, ao.rhs, ao.coeffs) == ("=", 1, {2: 1, 3: 1})
    as_ = row_edge_pair(g, 1, AS)
    assert as_.sense == "<="
    with pytest.raises(InputError):
        row_edge_pair(g, 2)


def test_cycle_and_path_rows():
    g = cycle_graph(4)
    rc = row_cycle(g, (0, 1, 2, 3))
    assert rc.rhs == 3 and rc.z_coeff == 0 and len(rc.coeffs) == 4
    assert set(rc.coeffs) == {g.arc(0, 1), g.arc(1, 2), g.arc(2, 3), g.arc(3, 0)}
    rp = row_path(g, (0, 1, 2), 2)
    assert rp.z_coeff == -1 and rp.rhs == 0
    with pytest.raises(InputError):
        row_path(g, (0, 1, 2), 3)


def test_cycle_z_row_needs_kappa_plus_one_arcs():
    g = cycle_graph(4)
    r = row_cycle_z(g, (0, 1, 2, 3), 3)
    assert r.z_coeff == -1 and r.rhs == 0 and len(r.coeffs) == 4
    with pytest.raises(InputError):
        row_cycle_z(g, (0, 1, 2, 3), 2)


def test_path_km1_row_structure():
    # star center 0 is the apex of the single-arc path 1-0? no: path off apex
    g = complete_graph(4)
    r = row_path_km1(g, (1, 2), 0, 2)
    # path arc once, both directions of each apex edge once
    assert r.coeffs[g.arc(1, 2)] == 1
    for v in (1, 2):
        assert r.coeffs[g.arc(0, v)] == 1 and r.coeffs[g.arc(v, 0)] == 1
    assert r.rhs == 1 and r.z_coeff == -1
    with pytest.raises(InputError):
        row_path_km1(g, (1, 2), 2, 2)  # apex on the path
    with pytest.raises(InputError):
        row_path_km1(path_graph(4), (0, 1), 3, 2)  # not adjacent


def test_path_km2_row_structure():
    g = complete_graph(4)
    r = row_path_km2(g, (1, 2), 0, 3, 3)
    assert r.coeffs == {g.arc(1, 2): 1, g.arc(0, 3): 1, g.arc(3, 0): 1}
    assert r.rhs == 0 and r.z_coeff == -1
    with pytest.raises(InputError):
        row_path_km2(g, (1, 2), 0, 1, 3)  # r on the path


def test_cycle_arcs_row_structure():
    # triangle with one pendant per corner
    g = complete_graph(3)
    edges = list(g.edges) + [(0, 3), (1, 4), (2, 5)]
    g2 = type(g)(6, edges)
    r = row_cycle_arcs(g2, (0, 1, 2), (3, 4, 5), 3, inbound=True)
    half = 1
    for a in (g2.arc(0, 1), g2.arc(1, 2), g2.arc(2, 0)):
        assert r.coeffs[a] == half
        assert r.coeffs[a ^ 1] == 1
    for v, p in ((0, 3), (1, 4), (2, 5)):
        assert r.coeffs[g2.arc(p, v)] == 1
    assert r.z_coeff == -half and r.rhs == 3
    with pytest.raises(InputError):
        row_cycle_arcs(g2, (0, 1, 2), (3, 4, 4), 3, True)
    with pytest.raises(InputError):
        row_cycle_arcs(g2, (0, 1, 2), (3, 4, 0), 3, True)


def test_adjacent_paths_row_structure():
    # two 2-arc paths out of 0-1, splitting to 2 and 3 with the rung edge 2-3
    g = complete_graph(4)
    r = row_adjacent_paths(g, (0, 1, 2), (0, 1, 3), 2, 2)
    assert r.coeffs[g.arc(0, 1)] == 1
    assert r.coeffs[g.arc(1, 2)] == 1 and r.coeffs[g.arc(1, 3)] == 1
    assert r.coeffs[g.arc(2, 3)] == 1 and r.coeffs[g.arc(3, 2)] == 1
    assert r.z_coeff == -2 and r.rhs == 0
    mirrored = row_adjacent_paths(g, (0, 1, 2), (0, 1, 3), 2, 2, mirrored=True)
    assert mirrored.coeffs[g.arc(1, 0)] == 1
    assert mirrored.coeffs[g.arc(2, 3)] == 1 and mirrored.coeffs[g.arc(3, 2)] == 1


def test_adjacent_paths_rejects_remeeting_tails():
    g = type(complete_graph(3))(4, [(0, 3), (1, 2), (1, 3), (2, 3)])
    # tails 3-1-2 and 3-2-1 revisit each other's vertices
    with pytest.raises(InputError):
        row_adjacent_paths(g, (0, 3, 1, 2), (0, 3, 2, 1), 2, 3)


def test_check_integral_feasible_accepts_and_rejects():
    g = complete_graph(3)
    cfg = ModelConfig(kappa=2, variant=AO)
    transitive = (1.0, 0.0, 1.0, 0.0, 1.0, 0.0)  # 0->1, 0->2, 1->2
    ok, why = check_integral_feasible(g, cfg, ModelPoint(transitive, 2.0))
    assert ok, why
    # z below the realized 2-path load; the witness is the violated row
    ok, why = check_integral_feasible(g, cfg, ModelPoint(transitive, 1.0))
    assert not ok and why.tag == "path"
    # directed triangle
    cyc = (1.0, 0.0, 0.0, 1.0, 1.0, 0.0)
    ok, why = check_integral_feasible(g, cfg, ModelPoint(cyc, 2.0))
    assert not ok and why.tag == "cycle"
    # unoriented edge is fine for AS but not AO
    part = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0)
    ok, _ = check_integral_feasible(g, cfg, ModelPoint(part, 2.0))
    assert not ok
    ok, why = check_integral_feasible(g, ModelConfig(kappa=2, variant=AS), ModelPoint(part, 2.0))
    assert ok, why


def test_check_integral_feasible_respects_fixed_z():
    g = path_graph(3)
    cfg = ModelConfig(kappa=1, variant=AO, z_fixed=1)
    pt = ModelPoint((1.0, 0.0, 1.0, 0.0), 1.0)
    ok, why = check_integral_feasible(g, cfg, pt)
    assert ok, why
    ok, _ = check_integral_feasible(g, cfg, ModelPoint(pt.w, 0.5))
    assert not ok
