"""Exact small-instance laboratory: point enumeration, faces, brute force.

Everything here is deliberately exhaustive and exact. Feasible points are
enumerated by scanning per-edge direction states with arc bitmasks; affine
ranks use exact integer arithmetic so facet verdicts carry no rounding doubt.
Size caps guard each entry point because the state space is exponential.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

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
from .lp import affine_dimension
from .model import AO, LinearRow, ModelConfig, ModelPoint

MAX_LAB_EDGES = 8
MAX_LAB_POINTS = 1 << 20
MAX_BRUTE_VERTICES = 10
MAX_BRUTE_STATES = 1 << 20


def _selection_scan(g: UndirectedGraph,
                    cfg: ModelConfig) -> Iterator[Tuple[Tuple[int, ...], int, int]]:
    """Yield (w, arc bitmask, max path load) for every acyclic binary selection.

    A selection picks one direction per edge (both-variant also allows
    skipping the edge). Acyclicity and loads are popcount tests against
    precomputed cycle and path masks. `w` holds the mask's bits as 0/1 ints,
    so the lab's points are integers from the start and need no conversion.
    """
    m = g.m
    cyc_masks = [sum(1 << a for a in cycle_arc_list(g, c))
                 for c in enumerate_cycles(g, max(g.n, 2))] if m else []
    path_masks = [sum(1 << a for a in path_arc_list(g, p))
                  for p in enumerate_paths_k(g, cfg.kappa)]
    choices = (1, 2) if cfg.variant == AO else (0, 1, 2)
    for state in itertools.product(choices, repeat=m):
        mask = 0
        for e, sv in enumerate(state):
            if sv:
                mask |= 1 << (2 * e + sv - 1)
        if any(cm & mask == cm for cm in cyc_masks):
            continue
        load = max(((pm & mask).bit_count() for pm in path_masks), default=0)
        w = tuple(mask >> a & 1 for a in range(2 * m))
        yield w, mask, load


def enumerate_feasible_points(g: UndirectedGraph, cfg: ModelConfig) -> List[ModelPoint]:
    """All feasible integral points, with z swept over its integer levels;
    every coordinate is an int.

    For each acyclic selection, z ranges over the integers from the maximum
    path load up to the z upper bound. Intermediate levels are convex
    combinations of the endpoints, so affine hulls computed from these points
    coincide with those of the full continuous-z solution set. The z levels
    of every selection are counted before any point is built, and more than
    MAX_LAB_POINTS of them in all are refused: the count grows with kappa.
    """
    if g.m > MAX_LAB_EDGES:
        raise SizeRefusalError(f"point enumeration capped at {MAX_LAB_EDGES} edges, got {g.m}")
    z_lo = int(cfg.z_lower)
    z_up = int(cfg.z_upper)
    levels = [(w, range(max(load, z_lo), z_up + 1)) for w, _, load in _selection_scan(g, cfg)]
    count = sum(len(zs) for _, zs in levels)
    if count > MAX_LAB_POINTS:
        raise SizeRefusalError(f"point enumeration capped at {MAX_LAB_POINTS} points, "
                               f"got {count}")
    return [ModelPoint(w, zi) for w, zs in levels for zi in zs]


def _vectors(points: Sequence[ModelPoint]) -> List[Tuple[int, ...]]:
    return [p.w + (p.z,) for p in points]


def polytope_dimension(g: UndirectedGraph, cfg: ModelConfig,
                       points: Optional[Sequence[ModelPoint]] = None) -> int:
    """Affine dimension of the integral solution set (full means 2m + 1)."""
    if points is None:
        points = enumerate_feasible_points(g, cfg)
    return affine_dimension(_vectors(points))


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


def classify_face(g: UndirectedGraph, cfg: ModelConfig, row: LinearRow,
                  points: Optional[Sequence[ModelPoint]] = None,
                  dimension: Optional[int] = None) -> FaceReport:
    """Validity and face dimension of an inequality over the solution set.

    The lab's points are integers, as are the coefficients and right-hand
    side of every row built here, so row values are evaluated in integer
    arithmetic and validity and tightness are exact, and the tight points go
    to the rank as they are. A facet is a valid face one dimension below the
    polytope, whose rank is computed here unless `dimension` gives it.
    """
    if row.sense != "<=":
        raise InputError("face classification expects an inequality row")
    if points is None:
        points = enumerate_feasible_points(g, cfg)
    tight = []
    violator = None
    for point in points:
        val = row.value(point.w, point.z)
        if val > row.rhs:
            violator = point
            break
        if val == row.rhs:
            tight.append(point)
    poly_dim = polytope_dimension(g, cfg, points) if dimension is None else dimension
    valid = violator is None
    face_dim = affine_dimension(_vectors(tight)) if valid else -1
    return FaceReport(
        valid=valid,
        violating_point=violator,
        tight_count=len(tight) if valid else 0,
        face_dimension=face_dim,
        polytope_dimension=poly_dim,
        is_facet=valid and face_dim == poly_dim - 1,
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
    selection variant. Raises InfeasibleError when no state fits the z window.
    """
    if g.m > MAX_LAB_EDGES:
        raise SizeRefusalError(f"optimum brute force capped at {MAX_LAB_EDGES} edges, got {g.m}")
    z_lo = int(cfg.z_lower)
    z_up = int(cfg.z_upper)
    penalty = g.m + 1
    best: Optional[Tuple[float, ModelPoint]] = None
    for w, mask, load in _selection_scan(g, cfg):
        z = max(load, z_lo)
        if z > z_up:
            continue
        obj = float(z) if cfg.variant == AO else z - penalty * mask.bit_count()
        if best is None or obj < best[0]:
            best = (obj, ModelPoint(w, z))
    if best is None:
        raise InfeasibleError("no acyclic selection fits the z window")
    return best
