import random
from fractions import Fraction

import numpy as np
import pytest

from orientcut.errors import InputError
from orientcut.lp import LinearProgram, affine_dimension, dual_objective


def test_unconstrained_rests_at_bounds():
    lp = LinearProgram([1, -2, 0], [0, 0, 5], [4, 3, 6])
    sol = lp.solve()
    assert sol.optimal
    assert list(sol.x) == [0, 3, 5]
    assert sol.objective == pytest.approx(-6)


def test_small_known_optimum():
    # min -x - y st x + y <= 1.5; box [0,1]^2; optimum at any x+y=1.5 corner
    lp = LinearProgram([-1, -1], [0, 0], [1, 1])
    lp.add_row({0: 1, 1: 1}, "<=", 1.5)
    sol = lp.solve()
    assert sol.optimal
    assert sol.objective == pytest.approx(-1.5)
    assert sol.x[0] + sol.x[1] == pytest.approx(1.5)


def test_equality_rows_and_duals():
    # min x + 2y st x + y = 1; dual of the equality prices the objective
    lp = LinearProgram([1, 2], [0, 0], [5, 5])
    lp.add_row({0: 1, 1: 1}, "=", 1)
    sol = lp.solve()
    assert sol.optimal and sol.objective == pytest.approx(1)
    assert list(sol.x) == pytest.approx([1, 0])
    assert dual_objective(lp, sol) == pytest.approx(sol.objective, abs=1e-7)


def test_infeasible_detected():
    lp = LinearProgram([0, 0], [0, 0], [1, 1])
    lp.add_row({0: 1, 1: 1}, "<=", -0.5)
    assert lp.solve().status == "infeasible"
    crossed = LinearProgram([0], [2], [1])
    assert crossed.solve().status == "infeasible"


def test_bad_input_rejected():
    with pytest.raises(InputError):
        LinearProgram([1], [0, 0], [1, 1])
    with pytest.raises(InputError):
        LinearProgram([1], [0], [float("inf")])
    lp = LinearProgram([1], [0], [1])
    with pytest.raises(InputError):
        lp.add_row({1: 1}, "<=", 0)
    with pytest.raises(InputError):
        lp.add_row({0: 1}, ">=", 0)


def test_weak_duality_on_random_programs():
    rng = random.Random(7)
    solved = 0
    for _ in range(60):
        n = rng.randint(2, 6)
        lp = LinearProgram([rng.uniform(-2, 2) for _ in range(n)],
                           [0.0] * n, [rng.uniform(0.5, 2) for _ in range(n)])
        for _ in range(rng.randint(1, 5)):
            coeffs = {j: rng.uniform(-1, 1) for j in rng.sample(range(n), rng.randint(1, n))}
            sense = "<=" if rng.random() < 0.8 else "="
            lp.add_row(coeffs, sense, rng.uniform(-0.5, 1.5))
        sol = lp.solve()
        if not sol.optimal:
            continue
        solved += 1
        # primal feasibility of the reported point
        assert np.all(sol.x >= lp.lo - 1e-7) and np.all(sol.x <= lp.hi + 1e-7)
        for coeffs, sense, rhs in lp.rows:
            lhs = sum(c * sol.x[j] for j, c in coeffs.items())
            if sense == "<=":
                assert lhs <= rhs + 1e-6
            else:
                assert lhs == pytest.approx(rhs, abs=1e-6)
        # duals certify the same value
        assert dual_objective(lp, sol) == pytest.approx(sol.objective, abs=1e-5)
    assert solved >= 30


def test_resolve_matches_fresh_solve():
    def build():
        lp = LinearProgram([-1, -1, -1], [0, 0, 0], [1, 1, 1])
        lp.add_row({0: 1, 1: 1}, "<=", 1)
        return lp

    lp = build()
    first = lp.solve()
    extra = [({1: 1, 2: 1}, "<=", 1)]
    resolved = lp.add_rows_and_resolve(extra)

    fresh = build()
    for row in extra:
        fresh.add_row(*row)
    direct = fresh.solve()
    assert resolved.objective == pytest.approx(direct.objective)
    assert resolved.objective >= first.objective - 1e-9  # cut can only hurt a min


def test_degenerate_program_terminates():
    # many redundant rows through the same vertex
    lp = LinearProgram([-1, -1], [0, 0], [1, 1])
    for k in range(1, 12):
        lp.add_row({0: k, 1: k}, "<=", k)
    sol = lp.solve()
    assert sol.optimal and sol.objective == pytest.approx(-1)


def test_affine_dimension_exact():
    assert affine_dimension([(0, 0)]) == 0
    assert affine_dimension([(0, 0), (1, 0)]) == 1
    assert affine_dimension([(0, 0), (1, 0), (0, 1), (1, 1)]) == 2
    # collinear, exact rationals would catch float fuzz
    pts = [(0, 0), (1, 3), (2, 6), (3, 9)]
    assert affine_dimension(pts) == 1
    assert affine_dimension([]) == -1


def _fraction_rank(points):
    """Reference: affine dimension by Gauss-Jordan elimination over Fractions."""
    if not points:
        return -1
    base = [Fraction(v) for v in points[0]]
    basis = []
    for p in points[1:]:
        v = [Fraction(a) - b for a, b in zip(p, base)]
        for lead, row in basis:
            if v[lead]:
                v = [a - v[lead] * b for a, b in zip(v, row)]
        lead = next((k for k, a in enumerate(v) if a), None)
        if lead is not None:
            basis.append((lead, [a / v[lead] for a in v]))
    return len(basis)


def _random_points(rng, kind, count, dim, rank):
    """`count` points in `dim` dimensions on an affine subspace of dimension <= rank."""
    def entry():
        if kind == "float":
            return rng.choice([0.0, 1.0, -2.5, 0.1, 0.3, 1e-3, 7.75])
        if kind == "fraction":
            return Fraction(rng.randint(-5, 5), rng.randint(1, 6))
        value = rng.randint(-3, 3)
        return np.int64(value) if kind == "np.int64" else value

    origin = [entry() for _ in range(dim)]
    gens = [[entry() for _ in range(dim)] for _ in range(rank)]
    points = []
    for _ in range(count):
        coef = [rng.randint(-2, 2) for _ in gens]
        points.append(tuple(o + sum(c * g[k] for c, g in zip(coef, gens))
                            for k, o in enumerate(origin)))
    points += rng.sample(points, min(3, count))  # duplicates
    rng.shuffle(points)
    return points


@pytest.mark.parametrize("kind", ["int", "fraction", "float", "np.int64"])
def test_integer_rank_matches_fraction_reference(kind):
    rng = random.Random("rank-" + kind)
    for _ in range(60):
        dim = rng.randint(1, 9)
        rank = rng.randint(0, dim + 1)  # rank > dim saturates at full dimension
        points = _random_points(rng, kind, rng.randint(1, 25), dim, rank)
        assert affine_dimension(points) == _fraction_rank(points), points
    assert affine_dimension([]) == _fraction_rank([]) == -1
    single = _random_points(rng, kind, 1, 4, 2)[:1]
    assert affine_dimension(single) == _fraction_rank(single) == 0
    assert affine_dimension(single * 5) == 0
    with pytest.raises(InputError):
        affine_dimension([(1, 2, 3), (1, 2)])
