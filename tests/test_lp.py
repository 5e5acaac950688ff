import collections
import gc
import random
import time
import weakref
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from orientcut.errors import InputError, SolverError
from conftest import fraction_rank
from orientcut.lp import (
    DEADLINE_PIVOTS,
    FEAS_TOL,
    PIVOT_TOL,
    LinearProgram,
    _FLOAT_GUARD,
    _entering,
    _gram,
    _rank,
    affine_dimension,
)


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


def test_equality_rows():
    # min x + 2y st x + y = 1
    lp = LinearProgram([1, 2], [0, 0], [5, 5])
    lp.add_row({0: 1, 1: 1}, "=", 1)
    sol = lp.solve()
    assert sol.optimal and sol.objective == pytest.approx(1)
    assert list(sol.x) == pytest.approx([1, 0])


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


def test_random_programs_are_primal_feasible():
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
        assert np.all(sol.x >= lp.col_lo[:n] - 1e-7) and np.all(sol.x <= lp.col_hi[:n] + 1e-7)
        for coeffs, sense, rhs in lp.rows:
            lhs = sum(c * sol.x[j] for j, c in coeffs.items())
            if sense == "<=":
                assert lhs <= rhs + 1e-6
            else:
                assert lhs == pytest.approx(rhs, abs=1e-6)
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


def _solve_exact(planes, n):
    """The point where n planes (coeffs, rhs) meet, by Fraction Gauss-Jordan;
    None when they do not meet in one point."""
    m = [[Fraction(coeffs.get(j, 0)) for j in range(n)] + [Fraction(rhs)]
         for coeffs, rhs in planes]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col] / m[col][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [m[j][n] / m[j][j] for j in range(n)]


def _vertex_optimum(c, lo, hi, rows):
    """Reference: the least objective over the vertices of the feasible box
    polytope, by exact enumeration; None when no vertex is feasible."""
    n = len(c)
    planes = [({j: 1}, b) for j in range(n) for b in (lo[j], hi[j])]
    planes += [(coeffs, rhs) for coeffs, _, rhs in rows]
    best = None
    for subset in combinations(planes, n):
        x = _solve_exact(subset, n)
        if x is None or any(not lo[j] <= x[j] <= hi[j] for j in range(n)):
            continue
        lhs = [sum(cv * x[j] for j, cv in coeffs.items()) for coeffs, _, _ in rows]
        if all(v <= rhs if sense == "<=" else v == rhs
               for v, (_, sense, rhs) in zip(lhs, rows)):
            value = sum(cj * xj for cj, xj in zip(c, x))
            best = value if best is None else min(best, value)
    return best


def _check_against_reference(lp, sol):
    n = len(lp.c)
    lo, hi = lp.col_lo[:n], lp.col_hi[:n]
    ref = _vertex_optimum(list(lp.c), list(lo), list(hi), lp.rows)
    if ref is None:
        assert sol.status == "infeasible"
        return
    assert sol.optimal and sol.objective == pytest.approx(float(ref), abs=1e-7)
    assert np.all(sol.x >= lo - 1e-7) and np.all(sol.x <= hi + 1e-7)
    for coeffs, sense, rhs in lp.rows:
        lhs = sum(cv * sol.x[j] for j, cv in coeffs.items())
        assert lhs <= rhs + 1e-7 if sense == "<=" else lhs == pytest.approx(rhs, abs=1e-7)


def _tiny_program(rng):
    """Integer data on up to three variables, some fixed or crossed bounds,
    mixed `<=` and `=` rows."""
    n = rng.randint(1, 3)
    c = [rng.randint(-3, 3) for _ in range(n)]
    lo, hi = [], []
    for _ in range(n):
        a = rng.randint(-2, 2)
        kind = rng.random()
        b = a if kind < 0.15 else a - 1 if kind < 0.2 else a + rng.randint(1, 3)
        lo.append(a)
        hi.append(b)
    rows = []
    for _ in range(rng.randint(0, 5)):
        coeffs = {j: rng.choice([-3, -2, -1, 1, 2, 3]) for j in range(n) if rng.random() < 0.7}
        rows.append((coeffs, "=" if rng.random() < 0.15 else "<=", rng.randint(0, 6)))
    return c, lo, hi, rows


def test_dual_simplex_matches_vertex_enumeration():
    rng = random.Random(101)
    seen = {"optimal": 0, "infeasible": 0, "warm": 0}
    for _ in range(250):
        c, lo, hi, rows = _tiny_program(rng)
        cold = LinearProgram(c, lo, hi)
        for row in rows:
            cold.add_row(*row)
        sol = cold.solve()
        _check_against_reference(cold, sol)
        seen[sol.status] += 1
        again = cold.solve()  # nothing new: no pivot, same answer
        assert again.iterations == 0 and again.status == sol.status
        assert not sol.optimal or again.objective == pytest.approx(sol.objective, abs=1e-9)

        split = rng.randint(0, len(rows))
        warm = LinearProgram(c, lo, hi)
        for row in rows[:split]:
            warm.add_row(*row)
        _check_against_reference(warm, warm.solve())
        _check_against_reference(warm, warm.add_rows_and_resolve(rows[split:]))

        if sol.optimal:
            coeffs = {j: rng.randint(-2, 2) for j in range(len(c))}
            lhs = sum(cv * sol.x[j] for j, cv in coeffs.items())
            sense = rng.choice(["<=", "="])
            slack = rng.choice([0.0, 1.0]) if sense == "<=" else 0.0
            tight = cold.add_rows_and_resolve([(coeffs, sense, lhs + slack)])
            assert tight.optimal and tight.iterations == 0
            assert tight.objective == pytest.approx(sol.objective, abs=1e-9)
            seen["warm"] += 1
    assert seen["optimal"] >= 120 and seen["infeasible"] >= 60 and seen["warm"] >= 120


def _cold(c, lo, hi, rows):
    lp = LinearProgram(c, lo, hi)
    for row in rows:
        lp.add_row(*row)
    return lp


def test_branch_matches_cold_program_at_fixed_bounds():
    rng = random.Random(303)
    seen = {"optimal": 0, "infeasible": 0}
    for _ in range(250):
        c, lo, hi, rows = _tiny_program(rng)
        parent = _cold(c, lo, hi, rows)
        if rng.random() < 0.8:  # an unsolved parent is the solver's root
            parent.solve()
        fixed = [(j, rng.randint(min(lo[j], hi[j]), max(lo[j], hi[j])))
                 for j in range(len(c)) if rng.random() < 0.5]
        child = parent.branch(fixed)
        sol = child.solve()
        _check_against_reference(child, sol)
        flo, fhi = list(lo), list(hi)
        for j, v in fixed:
            flo[j] = fhi[j] = v
        assert list(child.col_lo[:len(c)]) == flo and list(child.col_hi[:len(c)]) == fhi
        cold = _cold(c, flo, fhi, rows).solve()
        assert cold.status == sol.status
        assert not sol.optimal or sol.objective == pytest.approx(cold.objective, abs=1e-7)
        seen[sol.status] += 1
    assert seen["optimal"] >= 100 and seen["infeasible"] >= 60


def test_branch_siblings_and_parent_stay_apart():
    """Solving one sibling and adding rows to it writes nothing the other
    sibling or the parent reads."""
    rng = random.Random(404)
    checked = 0
    for _ in range(200):
        c, lo, hi, rows = _tiny_program(rng)
        parent = _cold(c, lo, hi, rows)
        first = parent.solve()
        if not first.optimal or lo[0] >= hi[0]:
            continue
        down, up = parent.branch([(0, lo[0])]), parent.branch([(0, hi[0])])
        if not down.solve().optimal:
            continue
        cut = ({j: rng.randint(-2, 2) for j in range(len(c))}, "<=", rng.randint(-1, 3))
        down.add_rows_and_resolve([cut])
        _check_against_reference(up, up.solve())
        again = parent.solve()
        assert again.iterations == 0 and again.objective == pytest.approx(first.objective)
        assert len(parent.rows) == len(up.rows) == len(down.rows) - 1
        checked += 1
    assert checked >= 50


def test_branch_at_the_nonbasic_value_costs_no_pivot():
    rng = random.Random(505)
    checked = 0
    for _ in range(200):
        c, lo, hi, rows = _tiny_program(rng)
        parent = _cold(c, lo, hi, rows)
        sol = parent.solve()
        if not sol.optimal:
            continue
        fixed = [(j, sol.x[j]) for j in range(len(c)) if j not in parent.basis]
        child = parent.branch(fixed)
        again = child.solve()
        assert again.iterations == 0 and again.objective == pytest.approx(sol.objective)
        checked += bool(fixed)
    assert checked >= 80


def test_dropped_branch_is_freed_without_the_cyclic_collector():
    lp = LinearProgram([-1, -1], [0, 0], [1, 1])
    lp.add_row({0: 1, 1: 1}, "<=", 1.5)
    lp.solve()
    child = lp.branch([(0, 0.0)])
    child.add_rows_and_resolve([({1: 1}, "<=", 0.5)])
    ref = weakref.ref(child)
    gc.disable()
    try:
        del child
        assert ref() is None
    finally:
        gc.enable()
    assert lp.solve().objective == pytest.approx(-1.5)


def test_program_is_freed_without_the_cyclic_collector():
    lp = LinearProgram([-1, -1], [0, 0], [1, 1])
    lp.add_row({0: 1, 1: 1}, "<=", 1.5)
    lp.solve()
    lp.add_rows_and_resolve([({0: 1}, "<=", 0.5)])
    ref = weakref.ref(lp)
    gc.disable()
    try:
        del lp
        assert ref() is None
    finally:
        gc.enable()


def test_degenerate_program_terminates():
    # many redundant rows through the same vertex
    lp = LinearProgram([-1, -1], [0, 0], [1, 1])
    for k in range(1, 12):
        lp.add_row({0: k, 1: k}, "<=", k)
    sol = lp.solve()
    assert sol.optimal and sol.objective == pytest.approx(-1)


def test_tableau_width_stays_columns_plus_one():
    """The compact tableau keeps one column per nonbasic variable plus the
    rhs, however many rows arrive, and basis and nonbasic split the variables."""
    rng = random.Random(606)
    n = 6
    lp = LinearProgram([rng.uniform(-2, 1) for _ in range(n)], [0.0] * n, [1.0] * n)
    programs = [lp]
    for _ in range(40):
        coeffs = {j: rng.choice([-1, 1, 2]) for j in rng.sample(range(n), 3)}
        assert lp.add_rows_and_resolve([(coeffs, "<=", rng.randint(1, 3))]).optimal
        if rng.random() < 0.2:  # the origin stays feasible
            lp = lp.branch([(rng.randrange(n), 0.0)])
            programs.append(lp)
    lp.solve()
    for prog in programs:
        total = n + len(prog.rows)
        assert prog.tab.shape == (len(prog.rows), n + 1)
        assert len(prog.d) == len(prog.nonbasic) == n
        assert sorted(np.concatenate([prog.basis, prog.nonbasic])) == list(range(total))
    assert len(programs) > 3 and len(lp.rows) == 40


def _full_tableau_solves(c, lo, hi, batches):
    """Reference: the same bounded dual simplex on the full tableau
    B^-1 [A I | b], whose column order is the variable order. Each batch of
    rows is added and solved in turn; the pivot count of each solve (None
    once one proves infeasibility) and the final basis."""
    c = np.asarray(c, dtype=float)
    col_lo, col_hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    val = np.where(c < 0, col_hi, col_lo)
    d = c.copy()
    tab = np.zeros((0, len(c) + 1))
    basis = np.zeros(0, dtype=int)

    def refresh():
        nonbasic = val.copy()
        nonbasic[basis] = 0.0
        val[basis] = tab[:, -1] - tab[:, :-1] @ nonbasic

    counts = []
    for rows in batches:
        k, nr, total = len(rows), len(basis), len(val)
        raw = np.zeros((k, total + k + 1))
        for i, (coeffs, sense, rhs) in enumerate(rows):
            for j, cv in coeffs.items():
                raw[i, j] = cv
            raw[i, total + i] = 1.0
            raw[i, -1] = rhs
        grown = np.zeros((nr + k, total + k + 1))
        grown[:nr, :total], grown[:nr, -1] = tab[:, :-1], tab[:, -1]
        raw -= raw[:, basis] @ grown[:nr]
        grown[nr:] = raw
        tab = grown
        col_lo = np.concatenate([col_lo, np.zeros(k)])
        col_hi = np.concatenate([col_hi, [0.0 if s == "=" else np.inf for _, s, _ in rows]])
        d, val = np.concatenate([d, np.zeros(k)]), np.concatenate([val, np.zeros(k)])
        basis = np.concatenate([basis, np.arange(total, total + k)])
        refresh()
        total += k
        bland_at = 5 * (len(basis) + total)
        pivots = degenerate = 0
        while True:
            xb = val[basis]
            below = col_lo[basis] - xb
            violation = np.maximum(below, xb - col_hi[basis])
            viol_rows = np.flatnonzero(violation > FEAS_TOL)
            if not len(viol_rows):
                break
            bland = degenerate > bland_at
            r = int(viol_rows[np.argmin(basis[viol_rows])] if bland
                    else viol_rows[np.argmax(violation[viol_rows])])
            alpha = tab[r, :total]
            toward = -alpha if below[r] > 0 else alpha
            free = np.ones(total, dtype=bool)
            free[basis] = False
            cand = free & (col_hi > col_lo) & np.where(val > col_lo, toward < -PIVOT_TOL,
                                                       toward > PIVOT_TOL)
            if not cand.any():
                pivots = None
                break
            ratios = np.full(total, np.inf)
            ratios[cand] = np.maximum(d[cand] / toward[cand], 0.0)
            step = ratios.min()
            ties = ratios <= step + 1e-12
            q = int(np.argmax(ties) if bland else np.argmax(np.where(ties, np.abs(alpha), 0.0)))
            degenerate += step < 1e-10
            pivots += 1
            leaving = basis[r]
            target = col_lo[leaving] if below[r] > 0 else col_hi[leaving]
            delta = (val[leaving] - target) / alpha[q]
            col = tab[:, q].copy()
            val[basis] -= col * delta
            val[q] += delta
            val[leaving] = target
            prow = tab[r] / alpha[q]
            tab -= np.outer(col, prow)
            tab[r] = prow
            d -= d[q] * prow[:total]
            d[q] = 0.0
            basis[r] = q
        counts.append(pivots)
        if pivots is None:
            break
        refresh()
    return counts, basis


def _degenerate_program(rng):
    """Boxed 0/1-style data whose rows mostly pass through one vertex, with
    zero or unit costs: many ratio-test ties and dual-degenerate pivots."""
    n = rng.randint(2, 5)
    c = [rng.choice([-1, -1, 0, 1]) for _ in range(n)]
    vertex = [rng.randint(0, 1) for _ in range(n)]
    rows = []
    for _ in range(rng.randint(2, 9)):
        coeffs = {j: rng.choice([-1, 1, 1, 2]) for j in range(n) if rng.random() < 0.7}
        tight = sum(cv * vertex[j] for j, cv in coeffs.items())
        rows.append((coeffs, "=" if rng.random() < 0.1 else "<=", tight + rng.choice([0, 0, 0, 1])))
    return c, [0] * n, [1] * n, rows


def test_pivots_match_the_full_tableau_reference():
    """The compact tableau pivots exactly as the full one: same pivot count
    per solve and the same final basis, row by row, on degenerate programs
    whose rows arrive in batches, so column order drifts from variable order."""
    rng = random.Random(707)
    shuffled = 0
    for _ in range(300):
        c, lo, hi, rows = _degenerate_program(rng) if rng.random() < 0.7 else _tiny_program(rng)
        if any(a > b for a, b in zip(lo, hi)):
            continue
        cuts = sorted(rng.sample(range(len(rows) + 1), min(2, len(rows) + 1)))
        batches = [rows[:cuts[0]], rows[cuts[0]:cuts[-1]], rows[cuts[-1]:]]
        counts, basis = _full_tableau_solves(c, lo, hi, batches)
        lp = LinearProgram(c, lo, hi)
        got = []
        for batch in batches[:len(counts)]:
            sol = lp.add_rows_and_resolve(batch)
            got.append(sol.iterations if sol.optimal else None)
        assert got == counts
        if counts[-1] is not None:
            assert list(lp.basis) == list(basis)
            shuffled += any(lp.nonbasic[k] > lp.nonbasic[k + 1] for k in range(len(c) - 1))
    assert shuffled >= 50  # column order no longer follows variable order


def test_entering_ties_go_to_the_smallest_variable_id():
    """Columns hold variables out of order. Among ratio ties the largest
    |alpha| wins, then the smallest variable id; under Bland's rule any tie
    goes to the smallest variable id."""
    ids = np.array([7, 3, 9, 1, 5])
    alpha = np.array([2.0, -2.0, 1.0, 0.5, 2.0])
    ties = np.array([True, True, True, True, False])
    assert _entering(ties, alpha, ids, bland=False) == 1      # |alpha| 2: ids 7, 3
    assert _entering(ties, alpha, ids, bland=True) == 3       # id 1
    one = np.array([False, False, True, False, False])
    assert _entering(one, alpha, ids, bland=False) == _entering(one, alpha, ids, bland=True) == 2
    equal = np.ones(5, dtype=bool)
    assert _entering(equal, np.ones(5), ids, bland=False) == 3


def test_drifted_tableau_restarts_once(monkeypatch):
    """A tableau whose rhs drifted fails the residual check after the next
    solve, and so does one whose basis also names one column in two rows (a
    singular basis matrix); the program restarts once from the slack basis,
    rebuilt from its rows, and still reaches the optimum of a cold build of
    the same rows."""
    restarts = []
    restart = LinearProgram._restart
    monkeypatch.setattr(LinearProgram, "_restart",
                        lambda self: restarts.append(self) or restart(self))
    rng = random.Random(808)
    checked = collections.Counter()
    for _ in range(100):
        c, lo, hi, rows = _degenerate_program(rng)
        extra = ({j: 1 for j in range(len(c))}, "<=", len(c) - 1)
        cold = _cold(c, lo, hi, rows + [extra]).solve()
        for singular in (False, True):
            lp = _cold(c, lo, hi, rows)
            if not lp.solve().optimal:
                continue
            if singular:
                lp.basis[-1] = lp.basis[0]
            lp.tab[:, -1] += 1e-4
            restarts.clear()
            sol = lp.add_rows_and_resolve([extra])
            assert sol.status == cold.status and restarts == [lp]
            if cold.optimal:
                assert sol.objective == pytest.approx(cold.objective, abs=1e-9)
                assert lp.a @ sol.x[:len(c)] == pytest.approx(lp.b - lp.val[len(c):], abs=1e-9)
                checked[singular] += 1
    assert min(checked.values()) >= 40


def test_restart_gives_up_on_a_second_fault(monkeypatch):
    lp = LinearProgram([-1, -1], [0, 0], [1, 1])
    lp.add_row({0: 1, 1: 1}, "<=", 1.5)
    lp.solve()
    monkeypatch.setattr(LinearProgram, "_restart", lambda self: None)
    lp.tab[:, -1] += 1e-4
    with pytest.raises(SolverError, match="row residual"):
        lp.add_rows_and_resolve([({0: 1}, "<=", 0.8)])


def test_past_deadline_stops_the_solve_within_its_pivot_stride():
    """A solve reads its deadline once every DEADLINE_PIVOTS pivots. Past it
    the solve stops there, keeping its dual feasible basis, and a later
    solve goes on from it to the cold optimum, the remaining pivots of the
    cold path."""
    n = 60
    rng = random.Random(7)
    c = [-rng.randint(1, 9) for _ in range(n)]
    rows = [({i: 1, (i + 1) % n: 1, (i + 7) % n: 1}, "<=", 1) for i in range(n)]
    cold = _cold(c, [0] * n, [1] * n, rows).solve()
    assert cold.optimal and cold.iterations > DEADLINE_PIVOTS
    lp = _cold(c, [0] * n, [1] * n, rows)
    stopped = lp.solve(time.monotonic() - 1)
    assert stopped.status == "stopped" and not stopped.optimal and stopped.x is None
    assert stopped.iterations == DEADLINE_PIVOTS
    again = lp.solve()
    assert again.optimal and again.objective == pytest.approx(cold.objective, abs=1e-9)
    assert stopped.iterations + again.iterations == cold.iterations
    # a deadline still ahead changes nothing
    ahead = _cold(c, [0] * n, [1] * n, rows).solve(time.monotonic() + 3600)
    assert ahead.iterations == cold.iterations and ahead.objective == cold.objective
    # a re-solve after added rows takes the deadline too
    lp = _cold(c, [0] * n, [1] * n, rows[:1])
    assert lp.solve().optimal
    resumed = lp.add_rows_and_resolve(rows[1:], time.monotonic() - 1)
    assert resumed.status == "stopped" and resumed.iterations == DEADLINE_PIVOTS
    again = lp.solve()
    assert again.optimal and again.objective == pytest.approx(cold.objective, abs=1e-9)


def test_affine_dimension_exact():
    assert affine_dimension([(0, 0)]) == 0
    assert affine_dimension([(0, 0), (1, 0)]) == 1
    assert affine_dimension([(0, 0), (1, 0), (0, 1), (1, 1)]) == 2
    # collinear, exact rationals would catch float fuzz
    pts = [(0, 0), (1, 3), (2, 6), (3, 9)]
    assert affine_dimension(pts) == 1
    # a Fraction beside numpy integers near 2^63 is reduced in Python ints
    big = np.int64((1 << 62) + 3)
    assert affine_dimension([(Fraction(1, 2), big), (0, -big), (Fraction(1, 4), 0 * big)]) == 1
    assert affine_dimension([]) == -1


def _as_kind(kind, rng, value):
    """The int `value` as an entry of `kind`; "mixed" draws bool, np.int64 or
    int, and an np.int64 entry that cannot hold the value stays an int."""
    if kind == "fraction":
        return Fraction(value)
    if kind == "float":
        return float(value)
    fits = -(1 << 63) <= value < 1 << 63
    if kind == "mixed":
        pick = rng.randrange(3)
        if pick == 0 and value in (0, 1):
            return bool(value)
        return np.int64(value) if pick == 1 and fits else value
    return np.int64(value) if kind == "np.int64" and fits else value


def _random_points(rng, kind, count, dim, rank):
    """`count` points in `dim` dimensions on an affine subspace of dimension <= rank."""
    def entry():
        if kind == "float":
            return rng.choice([0.0, 1.0, -2.5, 0.1, 0.3, 1e-3, 7.75])
        if kind == "fraction":
            return Fraction(rng.randint(-5, 5), rng.randint(1, 6))
        return _as_kind(kind, rng, rng.randint(-3, 3))

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


def _lab_like_points(rng, kind, dim):
    """Hundreds of points shaped like the lab's: 0/1 selections from a small
    pool, then z last, swept over a few levels or pinned to the selection's
    size, so z levels repeat across selections; with duplicates."""
    pool = [[rng.randint(0, 1) for _ in range(dim)] for _ in range(rng.randint(1, dim + 1))]
    sweep = rng.random() < 0.5
    points = []
    while len(points) < 150:
        w = rng.choice(pool)
        low = rng.randint(0, 2)
        levels = range(low, low + rng.randint(1, 3)) if sweep else [sum(w)]
        points += [tuple(_as_kind(kind, rng, v) for v in w + [z]) for z in levels]
    points += rng.sample(points, 30)
    rng.shuffle(points)
    return points


@pytest.mark.parametrize("kind", ["int", "fraction", "float", "np.int64", "mixed"])
def test_integer_rank_matches_fraction_reference(kind):
    rng = random.Random("rank-" + kind)
    for _ in range(60):
        dim = rng.randint(1, 9)
        rank = rng.randint(0, dim + 1)  # rank > dim saturates at full dimension
        points = _random_points(rng, kind, rng.randint(1, 25), dim, rank)
        assert affine_dimension(points) == fraction_rank(points), points
    for _ in range(4):
        points = _lab_like_points(rng, kind, rng.randint(2, 10))
        assert len(points) >= 180 and len(set(points)) < len(points)
        assert affine_dimension(points) == fraction_rank(points), points
    # large entries: the float64 bound on the Gram matrix (rows x max|P|^2
    # < 2^53) fails from 2^31 on, and past 2^63 numpy holds no int64
    for big in (1 << 31, 1 << 40, (1 << 62) - 1, 1 << 62, 1 << 63, 1 << 70):
        base = _random_points(rng, "int", 200, 6, rng.randint(0, 5))
        points = [tuple(_as_kind(kind, rng, v * big + 1) for v in p) for p in base]
        assert affine_dimension(points) == fraction_rank(points), big
    assert affine_dimension([]) == fraction_rank([]) == -1
    single = _random_points(rng, kind, 1, 4, 2)[:1]
    assert affine_dimension(single) == fraction_rank(single) == 0
    assert affine_dimension(single * 5) == 0
    with pytest.raises(InputError):
        affine_dimension([(1, 2, 3), (1, 2)])


def _column_sets():
    """Named integer point sets for the Gram matrix's diagonal elimination."""
    rng = np.random.default_rng(34)
    base = rng.integers(-4, 5, size=(30, 4))
    line = rng.integers(-3, 4, size=(1, 5))
    big = 1 << 40  # 9 rows x big^2 is far past 2^53: the Gram matrix is Python ints
    return {
        # after the first pivot, on the count, a constant column's diagonal
        # is zero, and so is a duplicate's after its twin's pivot
        "constant columns": np.hstack([np.full((30, 1), 7), base, np.full((30, 1), -2)]),
        "duplicated columns": np.hstack([base[:, :2], base, base[:, 3:]]),
        "zero columns": np.hstack([base, np.zeros((30, 2), dtype=np.int64)]),
        "single point": base[:1],
        "equal points": np.repeat(base[:1], 12, axis=0),
        "rank 1": np.arange(-6, 6)[:, None] * line + base[:1, :1],
        "past 2^53": (rng.integers(-2, 3, size=(9, 6)) * big + 1) @ np.eye(6, 8, dtype=np.int64),
    }


@pytest.mark.parametrize("name", list(_column_sets()))
def test_diagonal_elimination_matches_fraction_reference(name):
    """Bareiss elimination on the Gram matrix's diagonal, which drops an
    index whose diagonal reaches zero, ranks each set as Fractions do."""
    points = _column_sets()[name]
    if name in ("constant columns", "duplicated columns"):  # no zero before a pivot
        assert all(row[i] for i, row in enumerate(_gram(points)))
    if name == "past 2^53":
        assert len(points) * int(np.abs(points).max()) ** 2 >= _FLOAT_GUARD
    assert affine_dimension(points) == fraction_rank(points.tolist()), name


def test_rank_drops_zero_diagonals_before_the_first_pivot():
    """A PSD matrix whose last diagonal entry is zero: that index is dropped,
    not taken as a pivot."""
    assert _rank([[4, 2, 0], [2, 1, 0], [0, 0, 0]]) == 1
    assert _rank([[2, 0, 1], [0, 0, 0], [1, 0, 3]]) == 2
    assert _rank([[0]]) == _rank([]) == 0


def _pair_program(c):
    """Two edge-pair rows, x0 + x1 = 1 and x2 + x3 = 1, with a column z at index 4."""
    lp = LinearProgram(c, [0] * 5, [1] * 4 + [3])
    lp.add_row({0: 1, 1: 1}, "=", 1)
    lp.add_row({2: 1, 3: 1}, "=", 1)
    return lp


def test_block_pivot_lands_where_the_simplex_pivots_would():
    """Pivoting both pair rows at once, then adding the side rows, ends the
    first solve as the slack-basis start does, two pivots sooner."""
    side = [({0: 1, 2: 1, 4: -1}, "<=", 0), ({1: 1, 3: 1}, "<=", 1)]
    plain, fast = _pair_program([0, 0, 0, 0, 1]), _pair_program([0, 0, 0, 0, 1])
    fast.pivot_block([(0, 0), (1, 2)])
    assert list(fast.basis) == [0, 2] and list(fast.val[:4]) == [1, 0, 1, 0]
    a, b = fast.add_rows_and_resolve(side), plain.add_rows_and_resolve(side)
    assert np.array_equal(fast.basis, plain.basis)
    assert np.array_equal(a.x, b.x) and a.objective == b.objective == 1
    assert b.iterations - a.iterations == 2
    # nobody pivots an empty block: the program keeps its slack basis
    idle = _pair_program([0, 0, 0, 0, 1])
    idle.pivot_block([])
    assert list(idle.basis) == [5, 6]


@pytest.mark.parametrize("pairs, costs, why", [
    ([(0, 0)], [0, 0, 0, 0, 1], "singleton"),         # x0 also sits in the side row
    ([(0, 0), (0, 1)], [0, 0, 0, 0, 1], "distinct"),  # two columns for one row
    ([(0, 4)], [0, 0, 0, 0, 1], "too small"),         # z is in no row: a zero pivot
    ([(1, 3)], [0, 0, 1, 2, 1], "dual infeasible"),   # the dearer arc enters
])
def test_block_pivot_refuses_and_keeps_the_program(pairs, costs, why):
    lp = _pair_program(costs)
    if why == "singleton":
        lp.add_row({0: 1, 4: -1}, "<=", 0)
    lp.pivot_block([])  # brings the rows into the tableau, pivots nothing
    before = [getattr(lp, k).copy() for k in ("tab", "d", "val", "basis", "nonbasic")]
    with pytest.raises(InputError, match=why):
        lp.pivot_block(pairs)
    after = [getattr(lp, k) for k in ("tab", "d", "val", "basis", "nonbasic")]
    assert all(np.array_equal(x, y) for x, y in zip(before, after))


def test_block_pivot_refuses_a_tiny_pivot_and_a_basic_column():
    lp = LinearProgram([0, 0, 0], [0, 0, 0], [1, 1, 1])
    lp.add_row({0: PIVOT_TOL / 2, 1: 1}, "<=", 1)
    lp.add_row({2: 1}, "<=", 1)
    with pytest.raises(InputError, match="too small"):
        lp.pivot_block([(0, 0)])
    lp.pivot_block([(1, 2)])
    with pytest.raises(InputError, match="basic"):
        lp.pivot_block([(0, 2)])
