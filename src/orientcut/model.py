"""Linear rows of the orientation models and integral feasibility checking.

The models live over one 0/1 variable per arc plus a continuous load bound z.
A full-orientation model ("AO") forces w_ij + w_ji = 1 on every edge and
minimizes z; a partial-orientation model ("AS") relaxes the pair rows to
w_ij + w_ji <= 1 so that edges may stay unoriented. In both, directed cycles
are forbidden and every directed path with exactly kappa arcs may carry at
most z oriented arcs.

Rows are kept sparse over arc indices with a separate z coefficient, and carry
a class tag naming the template that generated them. The canonical key (sorted
support, ignoring the tag) identifies structurally identical rows regardless of
how they were derived: the polytope rows collapse on it, the separators break
ties on it and the solver mirrors it to detect reversal symmetry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from .errors import InputError
from .graphs import (
    UndirectedGraph,
    cycle_arc_list,
    find_directed_cycle,
    max_path_load,
    path_arc_list,
)

AO = "AO"
AS = "AS"

INT_TOL = 1e-6

ROW_TAGS = (
    "edge-pair",
    "cycle",
    "path",
    "cycle-z",
    "path-km1",
    "path-km2",
    "cycle-arcs",
    "adjacent-paths",
    "gadget-side",
    "no-good",
    "bound",
)


@dataclass(frozen=True)
class ModelConfig:
    """Shape of one model instance: path length kappa, variant, optional fixed z.

    A fixed z must be a whole number in [0, kappa]: it bounds a count of arcs.
    """

    kappa: int
    variant: str = AO
    z_fixed: Optional[float] = None

    def __post_init__(self):
        if self.kappa < 1:
            raise InputError("kappa must be at least 1")
        if self.variant not in (AO, AS):
            raise InputError(f"unknown variant {self.variant!r}")
        if self.z_fixed is not None and not (0 <= self.z_fixed <= self.kappa
                                             and float(self.z_fixed).is_integer()):
            raise InputError("fixed z must be a whole number in [0, kappa]")

    @property
    def z_lower(self) -> float:
        return 0.0 if self.z_fixed is None else float(self.z_fixed)

    @property
    def z_upper(self) -> float:
        return float(self.kappa) if self.z_fixed is None else float(self.z_fixed)


@dataclass(frozen=True)
class ModelPoint:
    """One point (w, z) of the model space; w is indexed by arc."""

    w: Tuple[float, ...]
    z: float

    def is_integral(self) -> bool:
        return all(abs(v - round(v)) <= INT_TOL for v in self.w)

    def arc_set(self) -> frozenset:
        return frozenset(a for a, v in enumerate(self.w) if v > 0.5)


class LinearRow:
    """A sparse row  sum coeffs[a] * w_a + z_coeff * z  (sense)  rhs."""

    __slots__ = ("coeffs", "z_coeff", "rhs", "sense", "tag", "_key")

    def __init__(self, coeffs: Dict[int, float], z_coeff, rhs, sense: str, tag: str):
        if sense not in ("<=", "="):
            raise InputError(f"unknown sense {sense!r}")
        if tag not in ROW_TAGS:
            raise InputError(f"unknown row tag {tag!r}")
        clean = {a: c for a, c in coeffs.items() if c != 0}
        if not clean and z_coeff == 0:
            raise InputError("empty row")
        self.coeffs = clean
        self.z_coeff = z_coeff
        self.rhs = rhs
        self.sense = sense
        self.tag = tag
        self._key = (sense, rhs, z_coeff, tuple(sorted(clean.items())))

    @property
    def key(self):
        """Canonical identity; ignores the tag so equal rows from different
        templates compare equal."""
        return self._key

    def value(self, w: Sequence[float], z: float):
        return sum(c * w[a] for a, c in self.coeffs.items()) + self.z_coeff * z

    def violation(self, w: Sequence[float], z: float):
        """Positive when the row is violated (lhs - rhs for <=, |lhs - rhs| for =)."""
        v = self.value(w, z) - self.rhs
        return abs(v) if self.sense == "=" else v

    def satisfied(self, w: Sequence[float], z: float, tol: float = 1e-9) -> bool:
        return self.violation(w, z) <= tol

    def __eq__(self, other):
        return isinstance(other, LinearRow) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"LinearRow({self.tag}, {self.sense} {self.rhs}, support={sorted(self.coeffs)})"


def row_edge_pair(g: UndirectedGraph, edge: int, variant: str = AO) -> LinearRow:
    """w_ij + w_ji = 1 (AO) or <= 1 (AS) for one edge."""
    if not (0 <= edge < g.m):
        raise InputError(f"edge index {edge} out of range")
    sense = "=" if variant == AO else "<="
    if variant not in (AO, AS):
        raise InputError(f"unknown variant {variant!r}")
    return LinearRow({2 * edge: 1, 2 * edge + 1: 1}, 0, 1, sense, "edge-pair")


def row_cycle(g: UndirectedGraph, cycle: Sequence[int]) -> LinearRow:
    """Directed cycle elimination: at most |C| - 1 of the cycle's arcs."""
    arcs = cycle_arc_list(g, cycle)
    return LinearRow({a: 1 for a in arcs}, 0, len(arcs) - 1, "<=", "cycle")


def row_window(arcs: Sequence[int], tag: str) -> LinearRow:
    """Load bound for a window given as its arcs: sum of the arcs <= z, with
    the coefficients in the order of `arcs`."""
    return LinearRow(dict.fromkeys(arcs, 1), -1, 0, "<=", tag)


def row_path(g: UndirectedGraph, path: Sequence[int], kappa: int) -> LinearRow:
    """Load bound for a path with exactly kappa arcs: sum of its arcs <= z."""
    arcs = path_arc_list(g, path)
    if len(arcs) != kappa:
        raise InputError(f"path must have exactly {kappa} arcs, got {len(arcs)}")
    return row_window(arcs, "path")


def row_cycle_z(g: UndirectedGraph, cycle: Sequence[int], kappa: int) -> LinearRow:
    """For a cycle with kappa + 1 arcs the selected arcs are also bounded by z."""
    arcs = cycle_arc_list(g, cycle)
    if len(arcs) != kappa + 1:
        raise InputError(f"cycle must have exactly {kappa + 1} arcs, got {len(arcs)}")
    return row_window(arcs, "cycle-z")


def row_path_km1(g: UndirectedGraph, path: Sequence[int], apex: int, kappa: int) -> LinearRow:
    """Path with kappa - 1 arcs plus an apex adjacent to all path vertices.

    Row: sum of path arcs + both directions of every apex edge - z <= kappa - 1.
    """
    if kappa < 2:
        raise InputError("needs kappa >= 2")
    arcs = path_arc_list(g, path)
    if len(arcs) != kappa - 1:
        raise InputError(f"path must have exactly {kappa - 1} arcs, got {len(arcs)}")
    if apex in path:
        raise InputError("apex must lie off the path")
    coeffs: Dict[int, float] = {}
    for a in arcs:
        coeffs[a] = coeffs.get(a, 0) + 1
    for v in path:
        if not g.has_edge(apex, v):
            raise InputError(f"apex {apex} must be adjacent to path vertex {v}")
        for a in (g.arc(apex, v), g.arc(v, apex)):
            coeffs[a] = coeffs.get(a, 0) + 1
    return LinearRow(coeffs, -1, kappa - 1, "<=", "path-km1")


def row_path_km2(g: UndirectedGraph, path: Sequence[int], u: int, r: int, kappa: int) -> LinearRow:
    """Path with kappa - 2 arcs, a vertex u adjacent to both endpoints, and a
    neighbor r of u; both off the path.

    Row: sum of path arcs + w_ur + w_ru - z <= 0.
    """
    if kappa < 3:
        raise InputError("needs kappa >= 3")
    arcs = path_arc_list(g, path)
    if len(arcs) != kappa - 2:
        raise InputError(f"path must have exactly {kappa - 2} arcs, got {len(arcs)}")
    if u in path or r in path:
        raise InputError("u and r must lie off the path")
    if not (g.has_edge(u, path[0]) and g.has_edge(u, path[-1])):
        raise InputError("u must be adjacent to both path endpoints")
    if not g.has_edge(u, r):
        raise InputError("r must be adjacent to u")
    coeffs: Dict[int, float] = {a: 1 for a in arcs}
    for a in (g.arc(u, r), g.arc(r, u)):
        coeffs[a] = coeffs.get(a, 0) + 1
    return LinearRow(coeffs, -1, 0, "<=", "path-km2")


def row_cycle_arcs(g: UndirectedGraph, cycle: Sequence[int], pendants: Sequence[int],
                   kappa: int, inbound: bool) -> LinearRow:
    """Cycle with exactly kappa arcs plus one pendant arc per cycle vertex.

    The pendant vertices are distinct and disjoint from the cycle; the pendant
    arcs all point into the cycle (inbound) or all out of it. Row:
    floor(kappa/2) on forward cycle arcs, 1 on reverse cycle arcs, 1 on pendant
    arcs, - floor(kappa/2) z <= kappa.
    """
    arcs = cycle_arc_list(g, cycle)
    if len(arcs) != kappa:
        raise InputError(f"cycle must have exactly {kappa} arcs, got {len(arcs)}")
    if len(pendants) != len(cycle):
        raise InputError("one pendant vertex per cycle vertex required")
    if len(set(pendants)) != len(pendants):
        raise InputError("pendant vertices must be distinct")
    if set(pendants) & set(cycle):
        raise InputError("pendant vertices must avoid the cycle")
    half = kappa // 2
    coeffs: Dict[int, float] = {}
    for a in arcs:
        coeffs[a] = coeffs.get(a, 0) + half
        coeffs[a ^ 1] = coeffs.get(a ^ 1, 0) + 1
    for v, r in zip(cycle, pendants):
        a = g.arc(r, v) if inbound else g.arc(v, r)
        coeffs[a] = coeffs.get(a, 0) + 1
    return LinearRow(coeffs, -half, kappa, "<=", "cycle-arcs")


def row_adjacent_paths(g: UndirectedGraph, path1: Sequence[int], path2: Sequence[int],
                       rung: int, kappa: int, mirrored: bool = False) -> LinearRow:
    """Two kappa-arc paths sharing a prefix, tied together by a rung edge.

    The paths must agree on at least their first two vertices and must not
    meet again once they split; `rung` is a 0-based position past the common
    prefix where the two paths' vertices are adjacent. The shared first arc
    counts once, later shared arcs twice, the divergent arcs once each, and
    both directions of the rung edge once; the total is bounded by 2z. With
    `mirrored` every path arc is reversed.

    Disjoint tails matter: the bound reroutes one path across the rung onto
    the other's tail, and that composite must itself be a simple path.
    """
    arcs1 = path_arc_list(g, path1)
    arcs2 = path_arc_list(g, path2)
    if len(arcs1) != kappa or len(arcs2) != kappa:
        raise InputError(f"both paths must have exactly {kappa} arcs")
    if path1[0] != path2[0] or path1[1] != path2[1]:
        raise InputError("paths must share at least their first two vertices")
    prefix = 0
    while prefix <= kappa and path1[prefix] == path2[prefix]:
        prefix += 1
    # prefix = number of shared leading vertices, in [2, kappa + 1).
    if prefix > kappa:
        raise InputError("paths must be distinct")
    if not (prefix <= rung <= kappa):
        raise InputError(f"rung position {rung} must lie in [{prefix}, {kappa}]")
    if not set(path1[prefix:]).isdisjoint(path2[prefix:]):
        raise InputError("paths must be vertex-disjoint past the shared prefix")
    a, b = path1[rung], path2[rung]
    if not g.has_edge(a, b):
        raise InputError(f"rung vertices {a},{b} must be adjacent")

    def arc_of(u, v):
        return g.arc(v, u) if mirrored else g.arc(u, v)

    coeffs: Dict[int, float] = {}

    def add(u, v, c):
        arc = arc_of(u, v)
        coeffs[arc] = coeffs.get(arc, 0) + c

    add(path1[0], path1[1], 1)
    for k in range(1, prefix - 1):
        add(path1[k], path1[k + 1], 2)
    for k in range(prefix - 1, kappa):
        add(path1[k], path1[k + 1], 1)
        add(path2[k], path2[k + 1], 1)
    for arc in (g.arc(a, b), g.arc(b, a)):
        coeffs[arc] = coeffs.get(arc, 0) + 1
    return LinearRow(coeffs, -2, 0, "<=", "adjacent-paths")


def row_arc_lower(arc: int) -> LinearRow:
    """Trivial bound w_a >= 0, written as -w_a <= 0."""
    return LinearRow({arc: -1}, 0, 0, "<=", "bound")


def row_arc_upper(arc: int) -> LinearRow:
    return LinearRow({arc: 1}, 0, 1, "<=", "bound")


def row_z_lower() -> LinearRow:
    return LinearRow({}, -1, 0, "<=", "bound")


def row_z_upper(kappa: int) -> LinearRow:
    return LinearRow({}, 1, kappa, "<=", "bound")


def check_integral_feasible(g: UndirectedGraph, cfg: ModelConfig, point: ModelPoint):
    """Exact feasibility of an integral point against the full model.

    Checks integrality and bounds, the pair rows of the variant, acyclicity
    (covering every cycle row) and the worst kappa-arc path load. Returns
    (True, None) or (False, witness row).
    """
    w, z = point.w, point.z
    if len(w) != g.num_arcs:
        raise InputError("point has wrong arc dimension")
    for a, v in enumerate(w):
        if abs(v - round(v)) > INT_TOL or round(v) not in (0, 1):
            return False, row_arc_upper(a) if v > 1 else row_arc_lower(a)
    if cfg.z_fixed is not None:
        if abs(z - cfg.z_fixed) > 1e-9:
            return False, row_z_upper(cfg.kappa) if z > cfg.z_fixed else row_z_lower()
    else:
        if z < -1e-9:
            return False, row_z_lower()
        if z > cfg.kappa + 1e-9:
            return False, row_z_upper(cfg.kappa)
    for e in range(g.m):
        pair = row_edge_pair(g, e, cfg.variant)
        if not pair.satisfied(w, z, INT_TOL):
            return False, pair
    arcs = point.arc_set()
    cyc = find_directed_cycle(g, arcs)
    if cyc is not None:
        return False, row_cycle(g, cyc)
    load, witness = max_path_load(g, arcs, cfg.kappa)
    if load > z + 1e-9:
        return False, row_path(g, witness, cfg.kappa)
    return True, None
