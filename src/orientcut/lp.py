"""Dense bounded dual simplex and an exact integer rank helper.

Every row gets a slack, bounded to [0, inf) for a `<=` row and to [0, 0] for
an `=` row. Every structural variable is boxed, so the slack basis with each
structural variable at the bound its cost prefers is dual feasible and the
dual simplex starts from it. A row added later joins the basis with its
slack, which keeps the basis dual feasible, so a re-solve goes on from the
last basis. An empty ratio test proves the rows infeasible.

The leaving row is the one with the largest bound violation and the ratio
test breaks ties towards the largest pivot; after a burst of dual-degenerate
pivots both choices fall back to the smallest variable index (Bland's rule)
to rule out cycling. Problems at the scale handled here (tens of variables, hundreds
of rows) solve in milliseconds on a dense tableau.
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
PIVOT_TOL = 1e-9
_BOUND_TOL = 1e-9
_DEGEN_EPS = 1e-10


@dataclass
class LpSolution:
    status: str                       # "optimal" or "infeasible"
    x: Optional[np.ndarray] = None    # structural variable values
    objective: Optional[float] = None
    duals: Optional[np.ndarray] = None  # one multiplier per row, in row order
    iterations: int = 0               # pivots of this call only

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


class LinearProgram:
    """min c'x subject to rows (a'x <= b or a'x = b) and lo <= x <= hi.

    Rows are sparse dicts over variable indices. The program keeps its
    simplex state: `solve` brings in the rows added since the last call and
    re-optimises from the last basis.
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
        self._simplex = _Simplex(self.c, self.lo, self.hi)

    def add_row(self, coeffs: Dict[int, float], sense: str, rhs: float):
        if sense not in ("<=", "="):
            raise InputError(f"unknown sense {sense!r}")
        for j in coeffs:
            if not (0 <= j < len(self.c)):
                raise InputError(f"variable index {j} out of range")
        self.rows.append((dict(coeffs), sense, float(rhs)))

    def add_rows_and_resolve(self, rows) -> LpSolution:
        """Append rows and re-solve from the last basis, with the slacks of
        the new rows basic; a row the last optimum satisfies costs no pivot."""
        for coeffs, sense, rhs in rows:
            self.add_row(coeffs, sense, rhs)
        return self.solve()

    def solve(self) -> LpSolution:
        if np.any(self.lo > self.hi + _BOUND_TOL):
            return LpSolution(status="infeasible")
        return self._simplex.solve(self.rows)


class _Simplex:
    """The live tableau of one program: B^-1 [A I | b] over the structural
    columns, one slack column per row and the right-hand side.

    It holds the program's arrays but not the program, so a dropped program
    is freed by reference counting alone.
    """

    def __init__(self, c: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        ns = len(c)
        self.ns = self.total = ns
        self.nr = 0
        self.c, self.lo, self.hi = c, lo, hi  # `_add` replaces these, never writes them
        self.val = np.where(c < 0, hi, lo)
        self.d = c.copy()
        self.tab = np.zeros((0, ns + 1))
        self.a = np.zeros((0, ns))      # the rows as given, for `_verify`
        self.b = np.zeros(0)
        self.basis = np.zeros(0, dtype=int)
        self.in_basis = np.zeros(ns, dtype=bool)

    def solve(self, rows) -> LpSolution:
        if len(rows) > self.nr:
            self._add(rows[self.nr:])
        iterations = self._iterate()
        if iterations is None:
            return LpSolution(status="infeasible")
        self._refresh_basics()
        self._verify()
        ns = self.ns
        x = np.clip(self.val[:ns], self.lo[:ns], self.hi[:ns])
        return LpSolution("optimal", x, float(self.c[:ns] @ x), -self.d[ns:], iterations)

    def _add(self, rows):
        """Append rows with their slacks basic, expressed in the current basis."""
        k, ns, nr, total = len(rows), self.ns, self.nr, self.total
        raw = np.zeros((k, total + k + 1))
        for i, (coeffs, sense, rhs) in enumerate(rows):
            for j, cval in coeffs.items():
                raw[i, j] = cval
            raw[i, total + i] = 1.0
            raw[i, -1] = rhs
        self.a = np.vstack([self.a, raw[:, :ns]])
        self.b = np.concatenate([self.b, raw[:, -1]])
        tab = np.zeros((nr + k, total + k + 1))
        tab[:nr, :total] = self.tab[:, :total]
        tab[:nr, -1] = self.tab[:, -1]
        raw -= raw[:, self.basis] @ tab[:nr]
        tab[nr:] = raw
        self.tab = tab
        upper = [0.0 if sense == "=" else np.inf for (_, sense, _) in rows]
        self.lo = np.concatenate([self.lo, np.zeros(k)])
        self.hi = np.concatenate([self.hi, upper])
        self.c = np.concatenate([self.c, np.zeros(k)])
        self.d = np.concatenate([self.d, np.zeros(k)])
        self.val = np.concatenate([self.val, np.zeros(k)])
        self.basis = np.concatenate([self.basis, np.arange(total, total + k)])
        self.in_basis = np.concatenate([self.in_basis, np.ones(k, dtype=bool)])
        self.nr += k
        self.total += k
        self._refresh_basics()

    def _iterate(self) -> Optional[int]:
        """Dual simplex pivots until the basis is primal feasible; the pivot
        count, or None once a row proves the program infeasible."""
        tab, val, lo, hi, d = self.tab, self.val, self.lo, self.hi, self.d
        basis, in_basis, total = self.basis, self.in_basis, self.total
        movable = hi > lo
        bland_at = 5 * (self.nr + total)
        max_iter = 500 + 50 * (self.nr + total)
        iterations = degenerate = 0
        while True:
            xb = val[basis]
            below = lo[basis] - xb
            violation = np.maximum(below, xb - hi[basis])
            rows = np.flatnonzero(violation > FEAS_TOL)
            if not len(rows):
                return iterations
            if degenerate <= bland_at:
                r = int(rows[np.argmax(violation[rows])])
            else:
                r = int(rows[np.argmin(basis[rows])])
            if iterations > max_iter:
                raise SolverError("simplex iteration limit reached")
            leaving = basis[r]
            rising = below[r] > 0
            alpha = tab[r, :total]
            # Nonbasic columns that move the leaving variable towards the
            # bound it violates; a column at its upper bound can only fall.
            toward = -alpha if rising else alpha
            at_upper = val > lo
            cand = ~in_basis & movable & np.where(at_upper, toward < -PIVOT_TOL,
                                                  toward > PIVOT_TOL)
            if not cand.any():
                return None
            ratios = np.full(total, np.inf)
            ratios[cand] = np.maximum(d[cand] / toward[cand], 0.0)
            step = float(ratios.min())
            ties = ratios <= step + 1e-12
            if degenerate <= bland_at:
                q = int(np.argmax(np.where(ties, np.abs(alpha), 0.0)))
            else:
                q = int(np.argmax(ties))
            if step < _DEGEN_EPS:
                degenerate += 1
            iterations += 1

            target = lo[leaving] if rising else hi[leaving]
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
            in_basis[leaving] = False
            in_basis[q] = True
            basis[r] = q

    def _refresh_basics(self):
        val_nb = self.val.copy()
        val_nb[self.basis] = 0.0
        self.val[self.basis] = self.tab[:, self.total] - self.tab[:, :self.total] @ val_nb

    def _verify(self):
        ns = self.ns
        resid = self.a @ self.val[:ns] + self.val[ns:] - self.b
        if np.any(np.abs(resid) > 1e-6):
            raise SolverError(f"row residual {np.abs(resid).max():.3e} exceeds tolerance")
        if np.any(self.val < self.lo - 1e-6) or np.any(self.val > self.hi + 1e-6):
            raise SolverError("variable bound violated beyond tolerance")


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
