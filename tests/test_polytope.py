import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from orientcut.errors import InfeasibleError, InputError, SizeRefusalError
from orientcut import lp, polytope
from orientcut.graphs import (
    UndirectedGraph,
    complete_graph,
    cycle_arc_list,
    cycle_graph,
    enumerate_cycles,
    enumerate_paths_k,
    is_acyclic,
    max_path_load,
    path_arc_list,
    petersen_graph,
    single_edge,
)
from orientcut.lp import affine_dimension
from orientcut.model import (
    AO,
    AS,
    LinearRow,
    ModelConfig,
    ModelPoint,
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

from conftest import BATTERY, atlas_graphs, fraction_rank, lab_points


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
        assert len(pts)
        for p in lab_points(pts):
            ok, why = check_integral_feasible(g, cfg, p)
            assert ok, (variant, p, why)


def _reference_points(g, cfg):
    """Every (w, z) in the lab's order: edge states from `itertools.product`
    (skip, forward, backward; the orientation variant has no skip), kept
    when their arcs are acyclic, each with z ascending from its path load
    (`max_path_load`) or the z lower bound up to the z upper bound."""
    states = (1, 2) if cfg.variant == AO else (0, 1, 2)
    out = []
    for state in itertools.product(states, repeat=g.m):
        arcs = [2 * e + s - 1 for e, s in enumerate(state) if s]
        if not is_acyclic(g, arcs):
            continue
        w = [int(a in arcs) for a in range(2 * g.m)]
        low = max(max_path_load(g, arcs, cfg.kappa)[0], int(cfg.z_lower))
        out += [w + [z] for z in range(low, int(cfg.z_upper) + 1)]
    return out


# the CI graph at the lab's edge cap: a 6-cycle with two chords, 8 edges
CAP8 = UndirectedGraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (1, 4)])


def _reference_scan(g, cfg):
    """(arc mask, window load) of every acyclic selection, one selection at
    a time in `itertools.product` order, with popcounts against the cycle
    and path masks."""
    cyc_masks = [sum(1 << a for a in cycle_arc_list(g, c))
                 for c in enumerate_cycles(g, max(g.n, 2))]
    path_masks = [sum(1 << a for a in path_arc_list(g, p))
                  for p in enumerate_paths_k(g, cfg.kappa)]
    skip = () if cfg.variant == AO else (0,)
    for arcs in itertools.product(*(skip + (1 << 2 * e, 2 << 2 * e) for e in range(g.m))):
        mask = sum(arcs)
        if any(cm & mask == cm for cm in cyc_masks):
            continue
        yield mask, max(((pm & mask).bit_count() for pm in path_masks), default=0)


def test_selection_scan_matches_the_product_reference():
    """The array scan's (mask, load) pairs are the one-at-a-time scan's, in
    its order, on the atlas, the 8-edge cap graph, a single vertex and an
    edgeless graph, at kappa 1, 2, 3 and 7 (past every graph's n, so no
    path and every load 0), in both variants."""
    for g in atlas_graphs(max_edges=5) + [CAP8, UndirectedGraph(1, []), UndirectedGraph(4, [])]:
        for kappa in (1, 2, 3, 7):
            for variant in (AO, AS):
                cfg = ModelConfig(kappa=kappa, variant=variant)
                masks, loads = polytope._selection_scan(g, cfg)
                assert masks.dtype == loads.dtype == np.int64
                assert list(zip(masks.tolist(), loads.tolist())) == \
                    list(_reference_scan(g, cfg)), (g.edges, kappa, variant)
                if kappa == 7:
                    assert not loads.any()


def test_brute_force_optimum_matches_a_loop_over_the_scan():
    """The optimum and its point are a strict-`<` loop's over the reference
    scan, so among tied selections the first in scan order wins; a z window
    that no selection fits raises."""
    ties = 0
    for g in atlas_graphs(max_edges=5) + [CAP8]:
        for kappa in (1, 2, 3):
            for variant in (AO, AS):
                for z_fixed in (None, 1):
                    cfg = ModelConfig(kappa=kappa, variant=variant, z_fixed=z_fixed)
                    best, n_best = None, 0
                    for mask, load in _reference_scan(g, cfg):
                        z = max(load, int(cfg.z_lower))
                        if z > cfg.z_upper:
                            continue
                        obj = float(z) if variant == AO else z - (g.m + 1) * mask.bit_count()
                        if best is None or obj < best[0]:
                            best, n_best = (obj, mask, z), 1
                        elif obj == best[0]:
                            n_best += 1
                    if best is None:
                        with pytest.raises(InfeasibleError):
                            brute_force_optimum(g, cfg)
                        continue
                    ties += n_best > 1
                    obj, mask, z = best
                    point = ModelPoint(tuple(mask >> a & 1 for a in range(2 * g.m)), z)
                    got = brute_force_optimum(g, cfg)
                    assert got == (obj, point), (g.edges, kappa, variant, z_fixed)
                    assert type(got[0]) is type(obj)
    assert ties > 100


@pytest.mark.parametrize("rows, path", [((1 << 13) - 1, "float"), (1 << 13, "int")])
def test_gram_tiers_meet_at_two_to_the_53(monkeypatch, rows, path):
    """Entries of size 2^20 put rows x max|P|^2 just below 2^53 at 2^13 - 1
    rows, where the Gram matrix is formed in float64, and at 2^53 with one
    row more, where it is formed in Python ints; both ranks are exact."""
    top = 1 << 20
    rng = np.random.default_rng(53)
    base = rng.integers(0, 2, size=(rows, 4)) * top
    points = np.hstack([base, base[:, :1] - base[:, 1:2], np.full((rows, 1), 5)])
    assert int(np.abs(points).max()) == top
    assert (rows * top * top < 1 << 53) == (path == "float")
    floats = []

    class Spy:  # counts the float64 copies of M = [P 1]
        def __getattr__(self, name):
            return getattr(np, name)

        def ones(self, *args, **kwargs):
            floats.append(args)
            return np.ones(*args, **kwargs)

    monkeypatch.setattr(lp, "np", Spy())
    assert affine_dimension(points) == 4  # the fifth column follows the first two
    assert len(floats) == (path == "float")
    monkeypatch.undo()
    assert fraction_rank(points.tolist()) == 4


def test_gram_blocks_add_up_across_a_block_boundary():
    """The float64 Gram matrix is summed over blocks of `_GRAM_BLOCK` rows;
    a point past the first block that leaves the affine hull of the ones
    before it raises the rank, as the Fraction reference says."""
    rows = lp._GRAM_BLOCK + 1
    rng = np.random.default_rng(7)
    base = rng.integers(-3, 4, size=(rows, 3))
    points = np.hstack([base, base[:, :1] + base[:, 1:2], np.zeros((rows, 1), dtype=np.int64)])
    points[-1, -1] = 1  # the only point off the hyperplane x_4 = 0
    assert affine_dimension(points[:-1]) == fraction_rank(points[:-1].tolist()) == 3
    assert affine_dimension(points) == fraction_rank(points.tolist()) == 4


def test_point_matrix_matches_the_product_reference():
    """Row for row, the point matrix is the brute-force enumeration, on every
    atlas graph with at most five edges, at kappa 1 to 3, in both variants;
    its dtype is an integer type, and the violating point of a row that
    cuts points is the first row it cuts."""
    graphs = atlas_graphs(max_edges=5)
    assert len(graphs) == 110
    invalid = 0
    for g in graphs:
        for kappa in (1, 2, 3):
            for variant in (AO, AS):
                cfg = ModelConfig(kappa=kappa, variant=variant)
                pts = enumerate_feasible_points(g, cfg)
                ref = _reference_points(g, cfg)
                assert np.issubdtype(pts.dtype, np.integer)
                assert pts.shape == (len(ref), 2 * g.m + 1)
                assert pts.tolist() == ref, (g.edges, kappa, variant)
                # each arc at most kappa - 1 together with z, and z alone at most 1
                rows = [row_z_upper(1)] + [LinearRow({a: 1}, 1, kappa - 1, "<=", "bound")
                                           for a in range(2 * g.m)]
                for row in rows:
                    face = classify_face(g, cfg, row, pts, 0)
                    cut = [p for p in ref if row.value(p[:-1], p[-1]) > row.rhs]
                    assert face.valid == (not cut)
                    if cut:
                        invalid += 1
                        first = face.violating_point
                        assert first == ModelPoint(tuple(cut[0][:-1]), cut[0][-1])
                        assert all(type(x) is int for x in first.w + (first.z,))
    assert invalid > 100


def test_rows_with_non_integer_coefficients_stay_exact():
    """Fraction and float coefficients are compared exactly: a row is scaled
    by the least common denominator of its exact values, so thirds tie, and
    the floats 0.1 + 0.2 exceed 0.3 and fall short of their rounded float
    sum 0.30000000000000004; coefficients past int64 go through Python
    ints."""
    g = complete_graph(3)
    cfg = ModelConfig(kappa=2, variant=AS)
    pts = enumerate_feasible_points(g, cfg)
    dim = polytope_dimension(g, cfg, pts)

    def reference(row):
        vals = [sum(Fraction(c) * p[a] for a, c in row.coeffs.items())
                + Fraction(row.z_coeff) * p[-1] for p in pts.tolist()]
        rhs = Fraction(row.rhs)
        return all(v <= rhs for v in vals), sum(v == rhs for v in vals)

    third = Fraction(1, 3)
    big = 1 << 70
    rows = [
        LinearRow({0: third, 2: third, 4: third}, 0, 1, "<=", "bound"),
        LinearRow({0: 0.1, 2: 0.2}, 0, 0.3, "<=", "bound"),
        LinearRow({0: 0.1, 2: 0.2}, 0, 0.1 + 0.2, "<=", "bound"),
        LinearRow({0: big, 1: big}, Fraction(1, 2), big + 1, "<=", "bound"),
    ]
    for row in rows:
        face = classify_face(g, cfg, row, pts, dim)
        valid, tight = reference(row)
        assert face.valid == valid, row
        assert face.tight_count == (tight if valid else 0), row
    assert [classify_face(g, cfg, row, pts, dim).valid for row in rows] == \
        [True, False, True, True]
    assert classify_face(g, cfg, rows[0], pts, dim).tight_count == \
        classify_face(g, cfg, LinearRow({0: 1, 2: 1, 4: 1}, 0, 3, "<=", "bound"), pts,
                      dim).tight_count
    with pytest.raises(InputError, match="finite"):
        classify_face(g, cfg, LinearRow({0: float("nan")}, 0, 1, "<=", "bound"), pts, dim)
    with pytest.raises(InputError, match="arc 6"):
        classify_face(g, cfg, LinearRow({6: 1}, 0, 1, "<=", "bound"), pts, dim)


def test_rank_reads_the_point_matrix_as_it_is():
    """The rank takes the lab's matrix without copying it into a list, and
    leaves it as it was."""
    g = complete_graph(3)
    cfg = ModelConfig(kappa=3, variant=AS)
    pts = enumerate_feasible_points(g, cfg)
    before = pts.copy()
    assert affine_dimension(pts) == fraction_rank(pts.tolist()) == 2 * g.m + 1
    assert affine_dimension(pts[pts[:, -1] == 3]) == 2 * g.m
    assert np.array_equal(pts, before)


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
    pts = lab_points(enumerate_feasible_points(g, cfg))
    ints = [tuple(map(Fraction, p.w)) + (Fraction(p.z),) for p in pts]
    dense = list(ints)
    for p in pts:
        for num in (1, 3, 5, 7):
            zq = Fraction(num, 4)
            if zq <= 2:
                dense.append(tuple(map(Fraction, p.w)) + (zq,))
    assert affine_dimension(dense) == affine_dimension(ints)


def test_lab_points_are_integers():
    """The lab's point matrix has an integer dtype, and the points' rank is
    the rank of the same points taken as floats."""
    for name, g, _ in BATTERY[3:]:
        for variant in (AO, AS):
            cfg = ModelConfig(kappa=2, variant=variant)
            pts = enumerate_feasible_points(g, cfg)
            assert np.issubdtype(pts.dtype, np.integer), (name, variant)
            floats = [tuple(map(float, p)) for p in pts.tolist()]
            assert polytope_dimension(g, cfg, pts) == affine_dimension(floats), (name, variant)


def _gcd_rank(rows):
    """Reference: rank of integer rows, each reduced against a growing basis
    by cross-multiplying and divided by its gcd."""
    basis = []  # (lead index, lead entry, row)
    for v in rows:
        for pivot_idx, pivot, pivot_vec in basis:
            factor = v[pivot_idx]
            if factor:
                v = [pivot * a - factor * b for a, b in zip(v, pivot_vec)]
        lead = next((k for k, a in enumerate(v) if a), None)
        if lead is not None:
            g = math.gcd(*v)
            basis.append((lead, v[lead] // g, [a // g for a in v]))
    return len(basis)


def test_lab_ranks_match_the_fraction_reference(monkeypatch):
    """The polytope's dimension and the face dimension of every cycle and
    path row equal the rank by elimination over Fractions, on every connected
    graph with at most four edges, at kappa 1 to 3, in both variants; and
    the rank of every Gram matrix on the way equals `_gcd_rank`'s."""
    ranked = []

    def rank_spy(gram):
        ranked.append(_gcd_rank(gram))  # leaves `gram` as it is; `rank` does not
        assert rank(gram) == ranked[-1], gram
        return ranked[-1]

    rank = lp._rank
    monkeypatch.setattr(lp, "_rank", rank_spy)
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
                assert dim == fraction_rank(pts.tolist())
                for row in rows:
                    face = classify_face(g, cfg, row, pts, dim)
                    tight = [p for p in pts.tolist() if row.value(p[:-1], p[-1]) == row.rhs]
                    assert face.valid  # cycle and path rows hold on every point
                    assert face.face_dimension == fraction_rank(tight), (g.edges, kappa, row)
    assert len(ranked) > 500


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
