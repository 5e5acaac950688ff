"""Dense bounded-variable primal simplex and an exact integer rank helper.

The solver keeps a full tableau over structural variables, slacks and
phase-one artificials. Nonbasic variables rest at either bound, entering
variables are priced with Dantzig's rule and the ratio test handles bound
flips; after a burst of degenerate pivots the pricing falls back to Bland's
rule to rule out cycling. Problems at the scale handled here (tens of
variables, hundreds of rows) solve in milliseconds this way.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InputError, SolverError

FEAS_TOL = 1e-7
COST_TOL = 1e-7
PIVOT_TOL = 1e-9
_BOUND_TOL = 1e-9
_DEGEN_EPS = 1e-10


@dataclass
class LpSolution:
    status: str                       # "optimal" or "infeasible"
    x: Optional[np.ndarray] = None    # structural variable values
    objective: Optional[float] = None
    duals: Optional[np.ndarray] = None  # one multiplier per row, in row order
    iterations: int = 0

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


class LinearProgram:
    """min c'x subject to rows (a'x <= b or a'x = b) and lo <= x <= hi.

    Rows are sparse dicts over variable indices. `start` optionally hints the
    initial nonbasic values; components are clipped to their bounds and any
    remaining infeasibility is repaired by a short phase one.
    """

    def __init__(self, objective: Sequence[float], lower: Sequence[float],
                 upper: Sequence[float]):
        self.c = np.asarray(objective, dtype=float)
        self.lo = np.asarray(lower, dtype=float)
        self.hi = np.asarray(upper, dtype=float)
        if not (len(self.c) == len(self.lo) == len(self.hi)):
            raise InputError("objective and bounds must have equal length")
        if not np.all(np.isfinite(self.lo)) or not np.all(np.isfinite(self.hi)):
            raise InputError("structural bounds must be finite")
        self.rows: List[Tuple[Dict[int, float], str, float]] = []
        self.start: Optional[Sequence[float]] = None

    def add_row(self, coeffs: Dict[int, float], sense: str, rhs: float):
        if sense not in ("<=", "="):
            raise InputError(f"unknown sense {sense!r}")
        for j in coeffs:
            if not (0 <= j < len(self.c)):
                raise InputError(f"variable index {j} out of range")
        self.rows.append((dict(coeffs), sense, float(rhs)))

    def add_rows_and_resolve(self, rows) -> LpSolution:
        """Append rows and re-solve. Solving is cheap enough at this scale that
        the re-solve starts fresh; the result matches a warm start exactly."""
        for coeffs, sense, rhs in rows:
            self.add_row(coeffs, sense, rhs)
        return self.solve()

    def solve(self) -> LpSolution:
        if np.any(self.lo > self.hi + _BOUND_TOL):
            return LpSolution(status="infeasible")
        if not self.rows:
            x = np.where(self.c > 0, self.lo, np.where(self.c < 0, self.hi, self.lo))
            return LpSolution("optimal", x.astype(float), float(self.c @ x),
                              np.zeros(0), 0)
        return _Simplex(self).run()


class _Simplex:
    def __init__(self, lp: LinearProgram):
        self.lp = lp
        ns = len(lp.c)
        nr = len(lp.rows)
        self.ns, self.nr = ns, nr

        slack_col = [-1] * nr
        ncols = ns
        for i, (_, sense, _) in enumerate(lp.rows):
            if sense == "<=":
                slack_col[i] = ncols
                ncols += 1

        start = np.array(lp.start, dtype=float) if lp.start is not None else lp.lo.copy()
        x0 = np.clip(start, lp.lo, lp.hi)

        b = np.array([rhs for (_, _, rhs) in lp.rows])
        a_struct = np.zeros((nr, ns))
        for i, (coeffs, _, _) in enumerate(lp.rows):
            for j, cval in coeffs.items():
                a_struct[i, j] = cval
        resid = b - a_struct @ x0

        slack0 = np.zeros(nr)
        art_col = [-1] * nr
        art_sign = np.ones(nr)
        basis = np.zeros(nr, dtype=int)
        art_vals = []
        for i in range(nr):
            r = resid[i]
            if slack_col[i] >= 0:
                slack0[i] = max(r, 0.0)
                r = min(r, 0.0)
            if slack_col[i] >= 0 and abs(r) <= 1e-12:
                basis[i] = slack_col[i]
            else:
                art_col[i] = ncols + len(art_vals)
                art_sign[i] = 1.0 if r >= 0 else -1.0
                art_vals.append(abs(r))
                basis[i] = art_col[i]
        nart = len(art_vals)
        total = ncols + nart

        tab = np.zeros((nr, total + 1))
        tab[:, :ns] = a_struct
        for i in range(nr):
            if slack_col[i] >= 0:
                tab[i, slack_col[i]] = 1.0
            if art_col[i] >= 0:
                tab[i, art_col[i]] = art_sign[i]
        tab[:, total] = b
        # Scale rows with a negative artificial so the initial basis is the identity.
        for i in range(nr):
            if art_col[i] >= 0 and art_sign[i] < 0:
                tab[i] *= -1.0

        val = np.zeros(total)
        val[:ns] = x0
        for i in range(nr):
            if slack_col[i] >= 0:
                val[slack_col[i]] = slack0[i]
        for k in range(nart):
            val[ncols + k] = art_vals[k]

        lo = np.concatenate([lp.lo, np.zeros(total - ns)])
        hi = np.concatenate([lp.hi, np.full(total - ns, np.inf)])

        self.tab = tab
        self.val = val
        self.lo_full = lo
        self.hi_full = hi
        self.basis = basis
        self.in_basis = np.zeros(total, dtype=bool)
        self.in_basis[basis] = True
        self.total = total
        self.ncols = ncols
        self.slack_col = slack_col
        self.art_col = art_col
        self.art_sign = art_sign
        self.is_art = np.zeros(total, dtype=bool)
        self.is_art[ncols:] = True
        self.a_full = tab[:, :total].copy()
        self.b = b.copy()
        # The pre-scaling above flipped some rows of a_full; undo for checking.
        for i in range(nr):
            if art_col[i] >= 0 and art_sign[i] < 0:
                self.a_full[i] *= -1.0
        self.iterations = 0
        self.degenerate = 0

    def run(self) -> LpSolution:
        nart = self.total - self.ncols
        if nart > 0:
            c1 = np.zeros(self.total)
            c1[self.ncols:] = 1.0
            if float(c1 @ self.val) > FEAS_TOL:
                self._iterate(c1)
                self._refresh_basics()
                if float(c1 @ self.val) > FEAS_TOL:
                    return LpSolution(status="infeasible", iterations=self.iterations)
            # Lock artificials at zero for phase two.
            self.hi_full[self.ncols:] = 0.0
            self.val[self.ncols:] = 0.0
            self._refresh_basics()
        c2 = np.zeros(self.total)
        c2[:self.ns] = self.lp.c
        self._iterate(c2)
        self._refresh_basics()
        self._verify()
        x = np.clip(self.val[:self.ns], self.lp.lo, self.lp.hi)
        obj = float(self.lp.c @ x)
        duals = self._duals(c2)
        return LpSolution("optimal", x, obj, duals, self.iterations)

    def _iterate(self, c_full: np.ndarray):
        tab, val = self.tab, self.val
        lo, hi = self.lo_full, self.hi_full
        d = c_full - tab[:, :self.total].T @ c_full[self.basis]
        bland_at = 5 * (self.nr + self.total)
        max_iter = 500 + 50 * (self.nr + self.total)
        while True:
            if self.iterations > max_iter:
                raise SolverError("simplex iteration limit reached")
            cand = ~self.in_basis & ~self.is_art
            can_inc = cand & (hi - val > _BOUND_TOL) & (d < -COST_TOL)
            can_dec = cand & (val - lo > _BOUND_TOL) & (d > COST_TOL)
            if not (can_inc.any() or can_dec.any()):
                return
            if self.degenerate <= bland_at:
                score = np.where(can_inc, -d, 0.0) + np.where(can_dec, d, 0.0)
                q = int(np.argmax(score))
            else:
                q = int(np.argmax(can_inc | can_dec))
            sigma = 1.0 if can_inc[q] else -1.0

            y = tab[:, q]
            yhat = sigma * y
            xb = val[self.basis]
            limits = np.full(self.nr, np.inf)
            pos = yhat > PIVOT_TOL
            neg = yhat < -PIVOT_TOL
            if pos.any():
                limits[pos] = (xb[pos] - lo[self.basis[pos]]) / yhat[pos]
            if neg.any():
                limits[neg] = (xb[neg] - hi[self.basis[neg]]) / yhat[neg]
            limits = np.maximum(limits, 0.0)
            rmin = float(limits.min()) if self.nr else np.inf
            dmax = hi[q] - lo[q]
            if not np.isfinite(rmin) and not np.isfinite(dmax):
                raise SolverError("LP is unbounded")
            self.iterations += 1
            if dmax <= rmin + 1e-12:
                # Bound flip, no basis change.
                val[q] += sigma * dmax
                val[self.basis] = xb - yhat * dmax
                continue
            cands = np.where(limits <= rmin + 1e-12)[0]
            r = int(min(cands, key=lambda i: (-abs(yhat[i]), self.basis[i])))
            delta = rmin
            if delta < _DEGEN_EPS:
                self.degenerate += 1
            val[q] += sigma * delta
            val[self.basis] = xb - yhat * delta
            leaving = self.basis[r]
            val[leaving] = lo[leaving] if yhat[r] > 0 else hi[leaving]

            piv = tab[r, q]
            prow = tab[r] / piv
            col = tab[:, q].copy()
            tab -= np.outer(col, prow)
            tab[r] = prow
            d -= d[q] * prow[:self.total]
            d[q] = 0.0
            self.in_basis[leaving] = False
            self.in_basis[q] = True
            self.basis[r] = q

    def _refresh_basics(self):
        val_nb = self.val.copy()
        val_nb[self.basis] = 0.0
        xb = self.tab[:, self.total] - self.tab[:, :self.total] @ val_nb
        self.val[self.basis] = xb

    def _verify(self):
        resid = self.a_full @ self.val - self.b
        for i, (_, sense, _) in enumerate(self.lp.rows):
            # Slack columns make every row an equality in the working form.
            if abs(resid[i]) > 1e-6:
                raise SolverError(f"row residual {resid[i]:.3e} exceeds tolerance")
        if np.any(self.val < self.lo_full - 1e-6) or np.any(self.val > self.hi_full + 1e-6):
            raise SolverError("variable bound violated beyond tolerance")

    def _duals(self, c_full: np.ndarray) -> np.ndarray:
        d = c_full - self.tab[:, :self.total].T @ c_full[self.basis]
        y = np.zeros(self.nr)
        for i in range(self.nr):
            if self.slack_col[i] >= 0:
                y[i] = -d[self.slack_col[i]]
            else:
                y[i] = -self.art_sign[i] * d[self.art_col[i]]
        return y


def dual_objective(lp: LinearProgram, sol: LpSolution) -> float:
    """Value of the bound-aware dual at the solution's multipliers.

    For min c'x with Ax (<=,=) b and finite variable bounds, the dual value is
    y'b plus, per variable, the reduced cost times whichever bound the sign
    selects. At an optimum this matches the primal objective.
    """
    if not sol.optimal:
        raise InputError("dual objective needs an optimal solution")
    y = sol.duals
    ns = len(lp.c)
    red = lp.c.astype(float).copy()
    for i, (coeffs, _, _) in enumerate(lp.rows):
        for j, cval in coeffs.items():
            red[j] -= y[i] * cval
    total = float(np.dot(y, [rhs for (_, _, rhs) in lp.rows]))
    for j in range(ns):
        dj = red[j]
        if abs(dj) <= 1e-7:
            continue
        total += dj * (lp.lo[j] if dj > 0 else lp.hi[j])
    return total


def affine_dimension(points: Sequence[Sequence]) -> int:
    """Affine dimension of a point set, by exact fraction-free integer elimination.

    Rank of the differences against the first point: a single point has
    dimension 0, an empty set dimension -1. Each difference is scaled to
    integers, reduced against the basis by cross-multiplying and divided by
    its gcd. The reduction stops early once the ambient dimension is reached.
    """
    pts = list(points)
    if not pts:
        return -1
    base = pts[0]
    ambient = len(base)
    basis: List[Tuple[int, int, List[int]]] = []  # (lead index, lead entry, row)
    for p in pts[1:]:
        if len(p) != ambient:
            raise InputError("points must share one dimension")
        try:
            v = [operator.index(a) - operator.index(b) for a, b in zip(p, base)]
        except TypeError:  # Fraction or float entries: clear the denominators
            diff = [Fraction(a) - Fraction(b) for a, b in zip(p, base)]
            scale = math.lcm(*(q.denominator for q in diff))
            v = [int(q * scale) for q in diff]
        for pivot_idx, pivot, pivot_vec in basis:
            factor = v[pivot_idx]
            if factor:
                v = [pivot * a - factor * b for a, b in zip(v, pivot_vec)]
        lead = next((k for k, a in enumerate(v) if a), None)
        if lead is not None:
            g = math.gcd(*v)
            basis.append((lead, v[lead] // g, [a // g for a in v]))
            if len(basis) == ambient:
                break
    return len(basis)
