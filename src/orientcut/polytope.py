"""Exact small-instance laboratory: point enumeration, faces, brute force.

Everything here is deliberately exhaustive and exact. Each selection (one
state per edge) is an int64 arc bitmask, and acyclicity and window loads are
tested for all 2^m or 3^m selections at once, against cycle and path masks.
The feasible points are one int64 matrix with one row (w, z) per point; a
row's values at every point come from one matrix-vector product, and affine
ranks are exact, so facet verdicts carry no rounding doubt. Size caps guard
each entry point because the state space is exponential. At the edge cap the
scan's largest transient array is selections x paths: for the 6-cycle with
two chords at kappa 3 (8 edges, 6,561 selections, 48 paths), 2.5 MB.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import InfeasibleError, InputError, SizeRefusalError
from .graphs import (
    UndirectedGraph,
    cycle_arc_list,
    dag_longest_path,
    enumerate_cycles,
    enumerate_paths_k,
    greedy_clique,
    greedy_coloring,
    is_acyclic,
    order_arcs,
    path_arc_list,
)
from .lp import _fraction, affine_dimension
from .model import AO, LinearRow, ModelConfig, ModelPoint

MAX_LAB_EDGES = 8
MAX_LAB_POINTS = 1 << 20
MAX_BRUTE_VERTICES = 10
MAX_BRUTE_STATES = 1 << 20
_INT64_GUARD = 1 << 62  # the int64 bound of exact products


def _selection_scan(g: UndirectedGraph, cfg: ModelConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Arc bitmask and window load of every acyclic selection, as two int64
    arrays in `itertools.product` order over the edges' states (edge 0
    slowest; skip, forward, backward).

    A selection picks one direction per edge (the selection variant also
    allows skipping the edge); arc 2e + k is bit 2e + k of the mask. A mask
    holding every arc of a cycle is dropped, and a load is the largest
    popcount of the mask against a kappa-arc path's mask (0 with no path).
    """
    states = np.array((1, 2) if cfg.variant == AO else (0, 1, 2), dtype=np.int64)
    masks = np.zeros(1, dtype=np.int64)
    for e in range(g.m):
        masks = (masks[:, None] | states << 2 * e).ravel()
    cycles = np.array([sum(1 << a for a in cycle_arc_list(g, c))
                       for c in enumerate_cycles(g, max(g.n, 2))], dtype=np.int64)
    masks = masks[~((masks[:, None] & cycles) == cycles).any(axis=1)]
    paths = np.array([sum(1 << a for a in path_arc_list(g, p))
                      for p in enumerate_paths_k(g, cfg.kappa)], dtype=np.int64)
    loads = np.bitwise_count(masks[:, None] & paths).max(axis=1, initial=0)
    return masks, loads.astype(np.int64)


def _point(w_bits, z) -> ModelPoint:
    return ModelPoint(tuple(int(b) for b in w_bits), int(z))


def enumerate_feasible_points(g: UndirectedGraph, cfg: ModelConfig) -> np.ndarray:
    """All feasible integral points as one int64 matrix, shape (N, 2m + 1):
    one row (w, z) per point, w indexed by arc and z last.

    For each acyclic selection, in the array scan's order (edge 0 slowest),
    z ranges over the integers from the larger of its window load and the z
    lower bound up to the z upper bound. Intermediate levels are convex
    combinations of the endpoints, so affine hulls computed from these
    points coincide with those of the full continuous-z solution set.
    The z levels of every selection are counted before any point is built,
    and more than MAX_LAB_POINTS of them in all are refused: the count grows
    with kappa. Within the cap, each selection's bits and z levels are
    expanded into their rows by `np.repeat`.
    """
    if g.m > MAX_LAB_EDGES:
        raise SizeRefusalError(f"point enumeration capped at {MAX_LAB_EDGES} edges, got {g.m}")
    masks, loads = _selection_scan(g, cfg)
    low = np.maximum(loads, int(cfg.z_lower))
    levels = np.maximum(int(cfg.z_upper) + 1 - low, 0)
    count = int(levels.sum())
    if count > MAX_LAB_POINTS:
        raise SizeRefusalError(f"point enumeration capped at {MAX_LAB_POINTS} points, "
                               f"got {count}")
    width = 2 * g.m
    bits = masks[:, None] >> np.arange(width) & 1
    points = np.empty((count, width + 1), dtype=np.int64)
    points[:, :width] = np.repeat(bits, levels, axis=0)
    # row i of a selection whose rows start at `first` has z = low + (i - first)
    first = np.cumsum(levels) - levels
    points[:, width] = np.arange(count) - np.repeat(first - low, levels)
    return points


def polytope_dimension(g: UndirectedGraph, cfg: ModelConfig,
                       points: Optional[np.ndarray] = None) -> int:
    """Affine dimension of the integral solution set (full means 2m + 1)."""
    if points is None:
        points = enumerate_feasible_points(g, cfg)
    return affine_dimension(points)


@dataclass(frozen=True)
class FaceReport:
    valid: bool
    violating_point: Optional[ModelPoint]
    tight_count: int
    face_dimension: int
    polytope_dimension: int
    is_facet: bool

    @property
    def proper(self) -> bool:
        return self.valid and self.tight_count > 0 and \
            self.face_dimension < self.polytope_dimension


def _integer_row(row: LinearRow, width: int) -> Tuple[List[int], int]:
    """The row's coefficient vector over (w, z) and its right-hand side, as
    Python ints: scaled by the least common denominator of their exact
    (Fraction) values, which keeps every value's order against the rhs."""
    try:
        exact = [_fraction(c) for c in (row.rhs, row.z_coeff, *row.coeffs.values())]
    except (ValueError, OverflowError, TypeError):
        raise InputError(f"row {row} has a coefficient that is not a finite number") from None
    scale = math.lcm(*(q.denominator for q in exact))
    rhs, z_coeff, *coeffs = (int(q * scale) for q in exact)
    vec = [0] * width + [z_coeff]
    for a, c in zip(row.coeffs, coeffs):
        if not 0 <= a < width:
            raise InputError(f"row {row} names arc {a}, outside 0..{width - 1}")
        vec[a] = c
    return vec, rhs


def classify_face(g: UndirectedGraph, cfg: ModelConfig, row: LinearRow,
                  points: Optional[np.ndarray] = None,
                  dimension: Optional[int] = None) -> FaceReport:
    """Validity and face dimension of an inequality over the solution set.

    The row's values at every point come from one matrix-vector product, so
    validity, the first violating point (in the points' order) and the tight
    points come from comparisons against the rhs, and the tight rows go to
    the rank as they are. Both sides are exact: the row is scaled to
    integers (a Fraction or float coefficient by the least common
    denominator of the exact values), and the product runs in int64 when
    max|point entry| x sum|coefficient| + |rhs| < 2^62, so no sum can
    overflow, and in Python ints otherwise. A row whose coefficient is not
    a finite number raises InputError. A facet is a valid face one
    dimension below the polytope, whose rank is computed here unless
    `dimension` gives it.
    """
    if row.sense != "<=":
        raise InputError("face classification expects an inequality row")
    if points is None:
        points = enumerate_feasible_points(g, cfg)
    vec, rhs = _integer_row(row, 2 * g.m)
    top = max(int(points.max(initial=0)), -int(points.min(initial=0)))
    exact = np.int64 if top * sum(map(abs, vec)) + abs(rhs) < _INT64_GUARD else object
    values = points.astype(exact, copy=False) @ np.array(vec, dtype=exact)
    over = np.flatnonzero(values > rhs)
    poly_dim = polytope_dimension(g, cfg, points) if dimension is None else dimension
    if len(over):
        first = points[over[0]]
        return FaceReport(valid=False, violating_point=_point(first[:-1], first[-1]),
                          tight_count=0, face_dimension=-1, polytope_dimension=poly_dim,
                          is_facet=False)
    tight = points[values == rhs]
    face_dim = affine_dimension(tight)
    return FaceReport(
        valid=True,
        violating_point=None,
        tight_count=len(tight),
        face_dimension=face_dim,
        polytope_dimension=poly_dim,
        is_facet=face_dim == poly_dim - 1,
    )


def brute_force_chromatic(g: UndirectedGraph, max_n: int = MAX_BRUTE_VERTICES) -> int:
    """Exact chromatic number by backtracking, for small graphs only."""
    if g.n > max_n:
        raise SizeRefusalError(f"chromatic brute force capped at {max_n} vertices, got {g.n}")
    if g.n == 0:
        return 0
    if g.m == 0:
        return 1
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    lower = len(greedy_clique(g))
    upper = max(greedy_coloring(g)) + 1

    def colorable(k: int) -> bool:
        colors = [-1] * g.n

        def place(idx: int, used: int) -> bool:
            if idx == len(order):
                return True
            v = order[idx]
            taken = {colors[u] for u in g.adj[v] if colors[u] >= 0}
            # Trying one fresh color is enough; higher fresh colors are symmetric.
            for c in range(min(used + 1, k)):
                if c not in taken:
                    colors[v] = c
                    if place(idx + 1, max(used, c + 1)):
                        return True
                    colors[v] = -1
            return False

        return place(0, 0)

    for k in range(lower, upper):
        if colorable(k):
            return k
    return upper


def brute_force_min_diameter(g: UndirectedGraph) -> Tuple[int, frozenset]:
    """Smallest possible longest directed path over all acyclic orientations,
    with the arc set of one that attains it.

    Scans either all edge-direction vectors or all vertex orders, whichever
    set is smaller; every acyclic orientation arises both ways.
    """
    if g.n > MAX_BRUTE_VERTICES:
        raise SizeRefusalError(f"orientation brute force capped at {MAX_BRUTE_VERTICES} "
                               f"vertices, got {g.n}")
    best: Optional[Tuple[int, frozenset]] = None
    by_mask = (1 << g.m) <= math.factorial(g.n)
    if min(1 << g.m, math.factorial(g.n)) > MAX_BRUTE_STATES:
        raise SizeRefusalError("orientation brute force state space too large")
    if by_mask:
        for mask in range(1 << g.m):
            arcs = frozenset(2 * e + (mask >> e & 1) for e in range(g.m))
            if not is_acyclic(g, arcs):
                continue
            length = dag_longest_path(g, arcs)
            if best is None or length < best[0]:
                best = (length, arcs)
    else:
        for perm in itertools.permutations(range(g.n)):
            arcs = order_arcs(g, perm)
            length = dag_longest_path(g, arcs)
            if best is None or length < best[0]:
                best = (length, arcs)
    assert best is not None
    return best


def brute_force_optimum(g: UndirectedGraph, cfg: ModelConfig) -> Tuple[float, ModelPoint]:
    """Exact optimum of the model objective by full state enumeration.

    Minimizes z for the orientation variant and z - (m + 1) * sum(w) for the
    selection variant, over every acyclic selection of the scan at once; a
    tie goes to the first selection in scan order. Raises InfeasibleError
    when no state fits the z window.
    """
    if g.m > MAX_LAB_EDGES:
        raise SizeRefusalError(f"optimum brute force capped at {MAX_LAB_EDGES} edges, got {g.m}")
    masks, loads = _selection_scan(g, cfg)
    z = np.maximum(loads, int(cfg.z_lower))
    objective = z if cfg.variant == AO else \
        z - (g.m + 1) * np.bitwise_count(masks).astype(np.int64)
    fits = np.flatnonzero(z <= int(cfg.z_upper))
    if not len(fits):
        raise InfeasibleError("no acyclic selection fits the z window")
    best = fits[objective[fits].argmin()]
    value = float(objective[best]) if cfg.variant == AO else int(objective[best])
    mask = int(masks[best])
    return value, _point((mask >> a & 1 for a in range(2 * g.m)), z[best])
