"""Dense bounded dual simplex and an exact integer rank helper.

Every row gets a slack, bounded to [0, inf) for a `<=` row and to [0, 0] for
an `=` row. Every structural variable is boxed, so the slack basis with each
structural variable at the bound its cost prefers is dual feasible and the
dual simplex starts from it. A row added later joins the basis with its
slack, which keeps the basis dual feasible, so a re-solve goes on from the
last basis. An empty ratio test proves the rows infeasible. A `branch` copy
fixes variables, which never enter the basis, so it re-optimises from the
original's basis, still dual feasible, and never writes the original.
`pivot_block` makes a set of structural columns basic at once, each in the
one row it is nonzero in, so no other row changes: those rows are divided
by their pivots, the labels swap and the reduced costs lose d_Q times those
rows. That is a fixed number of numpy calls for the whole block, where the
dual simplex spends about twenty-five on each pivot. It checks that each
column is such a singleton, that each pivot clears PIVOT_TOL and that the
result is dual feasible, and raises otherwise. A program nobody
block-pivots starts from the slack basis.

The tableau is the compact (dictionary) form: one column per nonbasic
variable plus the rhs, so it is rows x (structurals + 1) however many rows
the program has, and one pivot costs O(rows x structurals). When the basic
solution a solve ends with fails its residual check (drift), the program
restarts once from the slack basis, rebuilt from the rows, and pivots again;
that basis is the identity, so it cannot be singular, and it is dual feasible
for the reason above. A fault that survives the restart raises SolverError.

The leaving row is the one with the largest bound violation and the ratio
test breaks ties towards the largest pivot, then the smallest variable
index; after a burst of dual-degenerate pivots both choices go to the
smallest variable index (Bland's rule) to rule out cycling.

A solve takes the command's deadline and reads the clock once every
DEADLINE_PIVOTS pivots. Past it the solve stops with status "stopped": the
basis it reached is still dual feasible, so a later solve goes on from it.

`affine_dimension` is exact: the affine rank of the points P is the rank of
M = [P 1] less one, and rank(M) equals the rank of the square Gram matrix
M'M, over the reals and so over the rationals. An integer ndarray is ranked
as it is, with no list copy; M'M is formed in float64 by BLAS when
rows x max|P|^2 < 2^53, which keeps every partial sum an integer that
float64 holds exactly, and in Python ints otherwise; fraction-free
elimination then ranks all of its rows, with no early stop.
"""

from __future__ import annotations

import copy
import math
import operator
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InputError, SolverError

FEAS_TOL = 1e-7
PIVOT_TOL = 1e-9
_BOUND_TOL = 1e-9
_DEGEN_EPS = 1e-10
DEADLINE_PIVOTS = 64  # a solve reads its deadline once per this many pivots
_FLOAT_GUARD = 1 << 53  # the float64 bound of exact Gram matrices: rows x max|P|^2
_GRAM_BLOCK = 1 << 12  # rows of M = [P 1] per float64 block: the buffer stays small beside P


@dataclass
class LpSolution:
    status: str                       # "optimal", "infeasible" or "stopped"
    x: Optional[np.ndarray] = None    # structural variable values
    objective: Optional[float] = None
    iterations: int = 0               # pivots of this call only

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


class LinearProgram:
    """min c'x subject to rows (a'x <= b or a'x = b) and lo <= x <= hi.

    Rows are sparse dicts over variable indices; the slack of row i is
    variable ns + i, where ns = len(c). The program holds its live compact
    tableau: row i reads x[basis[i]] = tab[i, -1] - tab[i, :-1] @ x[nonbasic],
    and `d` holds the reduced costs of the nonbasic columns. `solve` brings
    in the rows added since the last call and re-optimises from the last
    basis.
    """

    def __init__(self, objective: Sequence[float], lower: Sequence[float],
                 upper: Sequence[float]):
        self.c = np.asarray(objective, dtype=float)
        # Bounds and values of every variable, slacks after structurals.
        self.col_lo = np.array(lower, dtype=float)
        self.col_hi = np.array(upper, dtype=float)
        ns = len(self.c)
        if not (ns == len(self.col_lo) == len(self.col_hi)):
            raise InputError("objective and bounds must have equal length")
        if not np.all(np.isfinite(self.col_lo)) or not np.all(np.isfinite(self.col_hi)):
            raise InputError("structural bounds must be finite")
        self.rows: List[Tuple[Dict[int, float], str, float]] = []
        self.val = np.where(self.c < 0, self.col_hi, self.col_lo)
        self.d = self.c.copy()
        self.tab = np.zeros((0, ns + 1))
        self.a = np.zeros((0, ns))      # the rows as given, for `_check` and `_restart`
        self.b = np.zeros(0)
        self.basis = np.zeros(0, dtype=int)
        self.nonbasic = np.arange(ns)

    def add_row(self, coeffs: Dict[int, float], sense: str, rhs: float):
        if sense not in ("<=", "="):
            raise InputError(f"unknown sense {sense!r}")
        for j in coeffs:
            if not (0 <= j < len(self.c)):
                raise InputError(f"variable index {j} out of range")
        self.rows.append((dict(coeffs), sense, float(rhs)))

    def add_rows_and_resolve(self, rows, deadline: Optional[float] = None) -> LpSolution:
        """Append rows and re-solve from the last basis, with the slacks of
        the new rows basic; a row the last optimum satisfies costs no pivot.
        `deadline` is as in `solve`."""
        for coeffs, sense, rhs in rows:
            self.add_row(coeffs, sense, rhs)
        return self.solve(deadline)

    def branch(self, fixed: Iterable[Tuple[int, float]]) -> "LinearProgram":
        """A copy with each (variable, value) of `fixed` fixed at its value;
        it owns every array a solve or a branch writes in place and shares
        the ones only ever replaced, so this program is not written."""
        child = copy.copy(self)
        for name in ("tab", "val", "d", "basis", "nonbasic", "col_lo", "col_hi"):
            setattr(child, name, getattr(self, name).copy())
        child.rows = list(self.rows)
        for j, v in fixed:  # a basic j's value is recomputed just below
            child.col_lo[j] = child.col_hi[j] = child.val[j] = v
        child._refresh_basics()
        return child

    def pivot_block(self, pairs: Sequence[Tuple[int, int]]):
        """Pivot each structural j of the (row, j) `pairs` into the basis in
        its row, all at once, after bringing in the rows added so far.

        Each j must be nonbasic and nonzero in its own row only, so no other
        row changes: the chosen rows are divided by their pivots, each
        leaving variable goes to its bound nearer its value (the bound it
        violates, if any) and the reduced costs lose d_Q @ rows. Raises
        InputError, leaving the program as it was, when a column is not such
        a singleton, a pivot is smaller than PIVOT_TOL or the result is not
        dual feasible."""
        if len(self.rows) > len(self.basis):
            self._add(self.rows[len(self.basis):])
        if not len(pairs):
            return
        rows, cols = (np.asarray(v, dtype=int) for v in zip(*pairs))
        k, ns = len(rows), len(self.c)
        if min(rows.min(), cols.min()) < 0 or rows.max() >= len(self.basis) \
                or cols.max() >= ns or len(set(rows.tolist())) < k:
            raise InputError("block pivot needs distinct rows and structural columns")
        place = np.full(len(self.val), -1)
        place[self.nonbasic] = np.arange(len(self.nonbasic))
        q = place[cols]
        if q.min() < 0:
            raise InputError("block pivot column is basic")
        block = self.tab[:, q]
        piv = block[rows, np.arange(k)]
        if np.count_nonzero(block) != np.count_nonzero(piv):
            raise InputError("block pivot column is not a singleton in its row")
        if np.abs(piv).min() <= PIVOT_TOL:
            raise InputError("block pivot is too small")
        leaving = self.basis[rows]
        lo, hi, v = self.col_lo[leaving], self.col_hi[leaving], self.val[leaving]
        prows = self.tab[rows] / piv[:, None]
        prows[np.arange(k), q] = 1.0 / piv
        d = self.d.copy()
        d[q] = 0.0
        d -= self.d[q] @ prows[:, :-1]
        nonbasic = self.nonbasic.copy()
        nonbasic[q] = leaving
        val = self.val.copy()
        val[leaving] = np.where(hi - v < v - lo, hi, lo)
        # A column at its lower bound must not gain by rising, one at its upper
        # bound by falling; a fixed column may have any reduced cost.
        vn = val[nonbasic]
        if ((d < -FEAS_TOL) & (vn < self.col_hi[nonbasic])
                | (d > FEAS_TOL) & (vn > self.col_lo[nonbasic])).any():
            raise InputError("block pivot leaves the basis dual infeasible")
        self.tab[rows] = prows
        self.d, self.nonbasic, self.val = d, nonbasic, val
        self.basis[rows] = cols
        val[cols] = prows[:, -1] - prows[:, :-1] @ vn

    def solve(self, deadline: Optional[float] = None) -> LpSolution:
        """Re-optimise from the last basis. `deadline`, a `time.monotonic()`
        reading, is checked once every DEADLINE_PIVOTS pivots; past it the
        solve stops with status "stopped" and the pivots made so far. The
        program keeps the dual feasible basis it reached, and the next solve
        goes on from there."""
        ns = len(self.c)
        if np.any(self.col_lo[:ns] > self.col_hi[:ns] + _BOUND_TOL):
            return LpSolution(status="infeasible")
        if len(self.rows) > len(self.basis):
            self._add(self.rows[len(self.basis):])
        status, iterations = self._iterate(deadline)
        if status != "stopped" and self._check(status == "optimal") is not None:
            # Drift: restart from the slack basis and pivot again.
            self._restart()
            status, more = self._iterate(deadline)
            iterations += more
            fault = None if status == "stopped" else self._check(status == "optimal")
            if fault is not None:
                raise SolverError(fault)
        if status == "infeasible":
            return LpSolution(status="infeasible")
        if status == "stopped":
            return LpSolution("stopped", iterations=iterations)
        x = np.clip(self.val[:ns], self.col_lo[:ns], self.col_hi[:ns])
        return LpSolution("optimal", x, float(self.c @ x), iterations)

    def _add(self, rows):
        """Append rows with their slacks basic, expressed in the current basis."""
        k, ns, total = len(rows), len(self.c), len(self.val)
        raw = np.zeros((k, total + 1))
        for i, (coeffs, sense, rhs) in enumerate(rows):
            for j, cval in coeffs.items():
                raw[i, j] = cval
            raw[i, -1] = rhs
        self.a = np.vstack([self.a, raw[:, :ns]])
        self.b = np.concatenate([self.b, raw[:, -1]])
        # The new slacks are s = b - a_B x_B - a_N x_N with x_B = t - T x_N.
        new = raw[:, np.append(self.nonbasic, total)] - raw[:, self.basis] @ self.tab
        self.tab = np.vstack([self.tab, new])
        upper = [0.0 if sense == "=" else np.inf for (_, sense, _) in rows]
        self.col_lo = np.concatenate([self.col_lo, np.zeros(k)])
        self.col_hi = np.concatenate([self.col_hi, upper])
        self.val = np.concatenate([self.val, np.zeros(k)])
        self.basis = np.concatenate([self.basis, np.arange(total, total + k)])
        self._refresh_basics()

    def _iterate(self, deadline: Optional[float] = None) -> Tuple[str, int]:
        """Dual simplex pivots until the basis is primal feasible: "optimal",
        "infeasible" once a row proves the program so, or "stopped" when
        `deadline` has passed at a check made every DEADLINE_PIVOTS pivots;
        with the pivot count."""
        if not len(self.basis):
            return "optimal", 0
        tab, val, d = self.tab, self.val, self.d
        basis, nonbasic = self.basis, self.nonbasic
        lo, hi = self.col_lo, self.col_hi
        bland_at = 5 * (len(basis) + len(val))
        max_iter = 500 + 50 * (len(basis) + len(val))
        # Basic values and bounds by row; +1 for a nonbasic column at its
        # lower bound, -1 at its upper bound, 0 when it is fixed.
        xb, lob, hib = val[basis], lo[basis], hi[basis]
        lon, hin = lo[nonbasic], hi[nonbasic]
        sign = np.where(hin > lon, np.where(val[nonbasic] > lon, -1.0, 1.0), 0.0)
        iterations = degenerate = 0
        bland = False
        ratios = np.empty(len(nonbasic))
        try:
            while True:
                violation = np.maximum(lob - xb, xb - hib)
                if bland:
                    rows = np.flatnonzero(violation > FEAS_TOL)
                    if not len(rows):
                        return "optimal", iterations
                    r = int(rows[np.argmin(basis[rows])])
                else:
                    r = int(violation.argmax())
                    if violation[r] <= FEAS_TOL:
                        return "optimal", iterations
                if deadline is not None and iterations and not iterations % DEADLINE_PIVOTS \
                        and time.monotonic() >= deadline:
                    return "stopped", iterations
                if iterations > max_iter:
                    raise SolverError("simplex iteration limit reached")
                leaving = basis[r]
                rising = lob[r] - xb[r] > 0
                alpha = tab[r, :-1]
                # Nonbasic columns that move the leaving variable towards the
                # bound it violates; a column at its upper bound can only fall.
                toward = -alpha if rising else alpha
                cand = sign * toward > PIVOT_TOL
                ratios.fill(np.inf)
                np.divide(d, toward, out=ratios, where=cand)
                np.maximum(ratios, 0.0, out=ratios)
                step = ratios.min()
                if step == np.inf:
                    return "infeasible", iterations
                q = _entering(ratios <= step + 1e-12, alpha, nonbasic, bland)
                if step < _DEGEN_EPS:
                    degenerate += 1
                    bland = degenerate > bland_at
                iterations += 1

                entering = nonbasic[q]
                target = lob[r] if rising else hib[r]
                p = float(alpha[q])
                delta = (float(xb[r]) - target) / p
                col = tab[:, q].copy()
                xb -= col * delta
                xb[r] = val[entering] + delta
                val[leaving] = target
                # The leaving variable takes column q: -col/p, and 1/p in row r.
                inv = 1.0 / p
                tab[:, q] = 0.0
                prow = tab[r] / p
                prow[q] = inv
                tab -= col[:, None] * prow
                tab[r] = prow
                dq = d[q]
                d[q] = 0.0
                d -= dq * prow[:-1]
                sign[q] = 0.0 if hib[r] <= lob[r] else 1.0 if rising else -1.0
                lob[r], hib[r] = lo[entering], hi[entering]
                basis[r] = entering
                nonbasic[q] = leaving
        finally:
            val[basis] = xb

    def _refresh_basics(self):
        self.val[self.basis] = self.tab[:, -1] - self.tab[:, :-1] @ self.val[self.nonbasic]

    def _restart(self):
        """Rebuild the tableau from the rows in the slack basis, each structural
        at the bound its cost prefers (a fixed one keeps its value): the basis
        is the identity and, every structural being boxed, dual feasible."""
        ns, nr = len(self.c), len(self.basis)
        self.tab = np.column_stack([self.a, self.b])
        self.basis = np.arange(ns, ns + nr)
        self.nonbasic = np.arange(ns)
        self.d = self.c.copy()
        self.val[:ns] = np.where(self.c < 0, self.col_hi[:ns], self.col_lo[:ns])
        self._refresh_basics()

    def _check(self, feasible: bool) -> Optional[str]:
        """Refresh the basic values from the tableau; why they fail the rows,
        or the bounds when the basis claims to be `feasible`, beyond
        tolerance, or None."""
        self._refresh_basics()
        ns = len(self.c)
        resid = self.a @ self.val[:ns] + self.val[ns:] - self.b
        if np.any(np.abs(resid) > 1e-6):
            return f"row residual {np.abs(resid).max():.3e} exceeds tolerance"
        if feasible and (np.any(self.val < self.col_lo - 1e-6)
                         or np.any(self.val > self.col_hi + 1e-6)):
            return "variable bound violated beyond tolerance"
        return None


def _entering(ties: np.ndarray, alpha: np.ndarray, ids: np.ndarray, bland: bool) -> int:
    """The entering column among the ratio-test `ties`: the largest |alpha|
    (any tie under Bland's rule), then the smallest variable id in `ids`."""
    cols = np.flatnonzero(ties)
    if len(cols) == 1:
        return int(cols[0])
    if not bland:
        size = np.abs(alpha[cols])
        cols = cols[size == size.max()]
    return int(cols[ids[cols].argmin()])


def affine_dimension(points: np.ndarray | Iterable[Sequence]) -> int:
    """Affine dimension of a point set, exactly: rank(M'M) - 1 for M = [P 1].

    P holds one point per row, and the affine dimension of its rows is
    rank(M) - 1; rank(M'M) = rank(M) over the reals, so over the rationals
    too: if M'Mx = 0 then |Mx|^2 = x'M'Mx = 0. A single point has dimension
    0, an empty set dimension -1. An integer ndarray (one int64 row per lab
    point, say) is ranked as it is, with no list copy; other points become
    one array first. Entries that are not integers are exact as Fractions,
    and P is scaled by the least common denominator of all of them, which
    leaves the rank alone. The square Gram matrix M'M, one longer than a
    point, is P'P bordered by the column sums of P and the point count:
    formed in float64 when rows x max|P|^2 < 2^53, so every partial sum is
    an integer float64 holds exactly whatever order BLAS adds in, and in
    Python ints otherwise; either way it comes back as Python ints. Its rank
    comes from fraction-free elimination over every one of its rows: each
    row is reduced against the basis by cross-multiplying and divided by its
    gcd.
    """
    arr = points
    if not isinstance(arr, np.ndarray):
        try:
            arr = np.array(list(points))
        except ValueError:  # ragged
            arr = None
    if arr is None or arr.ndim != 2 and arr.size:
        raise InputError("points must share one dimension")
    if not len(arr):
        return -1
    if arr.dtype.kind not in "biu":  # Fractions, floats, or ints numpy cannot hold
        exact = [[_fraction(a) for a in p] for p in arr]
        scale = math.lcm(*(q.denominator for p in exact for q in p))
        arr = np.array([[int(q * scale) for q in p] for p in exact],
                       dtype=object).reshape(arr.shape)
    return _rank(_gram(arr)) - 1


def _fraction(a) -> Fraction:
    """`a` exactly, with Python int terms: a Fraction of a numpy integer would
    keep it, and overflow."""
    try:
        return Fraction(operator.index(a))
    except TypeError:
        return Fraction(a)


def _gram(p: np.ndarray) -> List[List[int]]:
    """M'M for M = [p 1] as Python ints. When rows x max(1, max|p|)^2 < 2^53,
    it is summed in float64 over blocks of `_GRAM_BLOCK` rows of M, each
    copied into one float64 buffer and multiplied by BLAS: every partial sum
    of every entry, within a block or across blocks, is then an integer
    below 2^53, so the sum is exact in any order. Otherwise p'p is formed in
    Python ints and bordered by the column sums of p and its row count."""
    top = max(1, int(p.max(initial=0)), -int(p.min(initial=0)))
    if len(p) * top * top < _FLOAT_GUARD:
        block = np.ones((min(len(p), _GRAM_BLOCK), p.shape[1] + 1))
        gram = None
        for start in range(0, len(p), len(block)):
            m = block[:len(p) - start]
            m[:, :-1] = p[start:start + len(block)]
            prod = m.T @ m
            gram = prod if gram is None else gram + prod
        return gram.astype(np.int64).tolist()
    p = p.astype(object)
    sums = p.sum(axis=0).tolist()
    return [row + [s] for row, s in zip((p.T @ p).tolist(), sums)] + [sums + [len(p)]]


def _rank(rows: List[List[int]]) -> int:
    """Rank of integer rows by fraction-free elimination."""
    basis: List[Tuple[int, int, List[int]]] = []  # (lead index, lead entry, row)
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
