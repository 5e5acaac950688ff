"""Frequency assignment solved through acyclic orientation.

Links become vertices; a pair needing channel separation d becomes a chain of
d unit edges through d - 1 auxiliary vertices, with side rows forcing any
fully oriented chain to run monotonically from one endpoint to the other.
An acyclic orientation of the expanded graph with longest directed path at
most the spectrum bound then yields frequencies as longest-path labels, and
chain monotonicity turns unit gaps per edge into the required separation.

Three entry points share that reduction: fixed-spectrum feasibility (full
orientation, z pinned to the spectrum), minimum-spectrum search (binary
search over feasibility probes), and soft-cost optimization (partial
orientation where leaving a unit-separation edge unoriented costs its
violation penalty).

Per-link frequency availability sets have no native variables in the model;
they alone bring an admissibility test, by which the one search of a
fixed-spectrum probe cuts off, with a no-good row, each orientation it finds
that has no labeling compatible with the sets. The probe also hands the sets
to the search as `labels`, so that its child propagation narrows each link's
label window to its menu and drops a child whose forced arcs leave a window
empty before that child's LP; the chains' side rows propagate there too.

Each entry point takes one `deadline`, a `time.monotonic()` reading, and
hands it to every solve it makes, so a spectrum search stops when a single
solve would.
"""

from __future__ import annotations

import copy
import itertools
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    ContractError,
    InfeasibleError,
    InputError,
    SizeRefusalError,
    SolverError,
    TimeLimitError,
    UnsupportedInstanceError,
)
from .graphs import BidirectedDigraph, UndirectedGraph, greedy_clique, longest_path_labels
from .model import AO, AS, LinearRow, ModelConfig, row_edge_pair
from .solver import Objective, SolveReport, solve_model

MAX_SEPARATION = 3
BRUTE_MAX_LINKS = 4
BRUTE_MAX_FREQ = 6
CLIQUE_SPAN_LINKS = 7  # clique links whose orderings `_clique_span_bound` tries


def _plain_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class FapPair:
    """One link pair: required separation d, optional violation cost c."""

    i: int
    j: int
    d: int
    c: Optional[float] = None


class FapInstance:
    """A frequency-assignment instance over integer-indexed links.

    `freq_sets[i]` is the set of admissible frequencies for link i, or None
    when the link may use any nonnegative integer. `spectrum` caps all
    frequencies at that value inclusive when present.
    """

    def __init__(self, links: int, freq_sets: Sequence[Optional[frozenset]],
                 pairs: Sequence[FapPair], spectrum: Optional[int] = None):
        if links < 1:
            raise InputError("need at least one link")
        if len(freq_sets) != links:
            raise InputError("one frequency set per link required")
        sets = []
        for i, fs in enumerate(freq_sets):
            if fs is None:
                sets.append(None)
                continue
            fs = frozenset(fs)
            if not fs:
                raise InputError(f"frequency set of link {i} is empty")
            if any(not _plain_int(f) or f < 0 for f in fs):
                raise InputError(f"frequency set of link {i} must hold nonnegative integers")
            sets.append(fs)
        seen = set()
        norm = []
        for p in pairs:
            if not (0 <= p.i < links and 0 <= p.j < links) or p.i == p.j:
                raise InputError(f"pair ({p.i},{p.j}) is not two distinct links")
            if not (0 <= p.d <= MAX_SEPARATION):
                raise InputError(f"separation {p.d} outside 0..{MAX_SEPARATION}")
            if p.c is not None:
                if p.d == 0:
                    raise InputError("violation cost on a pair with zero separation")
                # false for NaN and for numbers no float can hold
                if isinstance(p.c, bool) or not 0 <= p.c <= sys.float_info.max:
                    raise InputError("violation cost must be a finite nonnegative number")
            key = (min(p.i, p.j), max(p.i, p.j))
            if key in seen:
                raise InputError(f"duplicate pair {key}")
            seen.add(key)
            norm.append(FapPair(key[0], key[1], p.d, None if p.c is None else float(p.c)))
        if spectrum is not None and (not _plain_int(spectrum) or spectrum < 1):
            raise InputError("spectrum must be a positive integer")
        self.links = links
        self.freq_sets: Tuple[Optional[frozenset], ...] = tuple(sets)
        self.pairs: Tuple[FapPair, ...] = tuple(norm)
        self.spectrum = spectrum
        self._sep = {(p.i, p.j): p for p in self.pairs}

    @classmethod
    def from_dict(cls, data: dict) -> "FapInstance":
        """Build from the JSON document schema; unknown fields are rejected.

        Expected: {"links": int, "freqSets": [[int]], "pairs":
        [{"i", "j", "d", optional "c"}], "spectrum": int or null}. An empty
        frequency list means the link is unrestricted. The spectrum key may
        be omitted entirely.
        """
        if not isinstance(data, dict):
            raise InputError("instance document must be a JSON object")
        allowed = {"links", "freqSets", "pairs", "spectrum"}
        unknown = set(data) - allowed
        if unknown:
            raise InputError(f"unknown instance fields {sorted(unknown)}")
        for req in ("links", "freqSets", "pairs"):
            if req not in data:
                raise InputError(f"missing instance field {req!r}")
        links = data["links"]
        if not _plain_int(links):
            raise InputError("links must be an integer")
        raw_sets = data["freqSets"]
        if not isinstance(raw_sets, list) or any(
                not isinstance(s, list) or not all(map(_plain_int, s)) for s in raw_sets):
            raise InputError("freqSets must be a list of integer lists")
        freq_sets = [None if not s else frozenset(s) for s in raw_sets]
        raw_pairs = data["pairs"]
        if not isinstance(raw_pairs, list):
            raise InputError("pairs must be a list")
        pairs = []
        for k, rp in enumerate(raw_pairs):
            if not isinstance(rp, dict):
                raise InputError(f"pair {k} must be an object")
            bad = set(rp) - {"i", "j", "d", "c"}
            if bad:
                raise InputError(f"pair {k} has unknown fields {sorted(bad)}")
            for req in ("i", "j", "d"):
                if req not in rp or not _plain_int(rp[req]):
                    raise InputError(f"pair {k} needs integer field {req!r}")
            c = rp.get("c")
            if c is not None and not isinstance(c, (int, float)):
                raise InputError(f"pair {k} cost must be numeric")
            pairs.append(FapPair(rp["i"], rp["j"], rp["d"], c))
        spectrum = data.get("spectrum")
        if spectrum is not None and not _plain_int(spectrum):
            raise InputError("spectrum must be an integer or null")
        return cls(links, freq_sets, pairs, spectrum)

    def with_spectrum(self, spectrum: Optional[int]) -> "FapInstance":
        inst = copy.copy(self)
        inst.spectrum = spectrum
        return inst

    @property
    def has_costs(self) -> bool:
        return any(p.c is not None for p in self.pairs)

    @property
    def max_separation(self) -> int:
        return max((p.d for p in self.pairs), default=0)

    def separation(self, i: int, j: int) -> int:
        p = self._sep.get((min(i, j), max(i, j)))
        return 0 if p is None else p.d

    def conflict_pairs(self) -> List[FapPair]:
        return [p for p in self.pairs if p.d > 0]


@dataclass(frozen=True)
class GadgetExpansion:
    """The expanded graph, its arc doubling and the chains' side rows."""

    graph: UndirectedGraph
    digraph: BidirectedDigraph
    side_rows: Tuple[LinearRow, ...]


@dataclass(frozen=True)
class FrequencyAssignment:
    freq: Tuple[int, ...]
    violated_pairs: frozenset
    total_cost: float

    def verify(self, inst: FapInstance):
        """Exhaustive recheck of the assignment against the instance.

        Raises ContractError when a pair outside `violated_pairs` is not
        separated, a frequency leaves its availability set or the spectrum,
        or the cost total disagrees with the violated set.
        """
        if len(self.freq) != inst.links:
            raise ContractError("assignment length mismatch")
        cost = 0.0
        for p in inst.conflict_pairs():
            gap = abs(self.freq[p.i] - self.freq[p.j])
            if (p.i, p.j) in self.violated_pairs:
                if p.c is None:
                    raise ContractError(f"hard pair ({p.i},{p.j}) marked violated")
                cost += p.c
            elif gap < p.d:
                raise ContractError(f"pair ({p.i},{p.j}) separated by {gap} < {p.d}")
        if abs(cost - self.total_cost) > 1e-9:
            raise ContractError("violation cost total disagrees with the violated set")
        for i, f in enumerate(self.freq):
            if f < 0 or (inst.spectrum is not None and f > inst.spectrum):
                raise ContractError(f"frequency {f} of link {i} outside the spectrum")
            fs = inst.freq_sets[i]
            if fs is not None and f not in fs:
                raise ContractError(f"frequency {f} of link {i} not available")


def expand_gadgets(inst: FapInstance) -> GadgetExpansion:
    """Replace every separation-d pair by a chain of d unit edges.

    Chains for d = 2 and d = 3 pass through fresh auxiliary vertices and come
    with side rows that forbid the chain from folding: no interior vertex may
    receive both its chain arcs or emit both, so a fully oriented chain is
    monotone and its endpoint labels differ by at least d.
    """
    edges: List[Tuple[int, int]] = []
    n = inst.links
    chains: List[List[int]] = []
    for p in inst.conflict_pairs():
        new = list(range(n, n + p.d - 1))
        n += len(new)
        chain = [p.i, *new, p.j]
        edges.extend((chain[t], chain[t + 1]) for t in range(p.d))
        if new:
            chains.append(chain)
    g = UndirectedGraph(n, edges)
    d = BidirectedDigraph(g)
    rows = []
    for chain in chains:
        for t in range(1, len(chain) - 1):
            prev, v, nxt = chain[t - 1], chain[t], chain[t + 1]
            rows.append(LinearRow({d.arc(prev, v): 1.0, d.arc(nxt, v): 1.0},
                                  0.0, 1.0, "<=", "gadget-side"))
            rows.append(LinearRow({d.arc(v, prev): 1.0, d.arc(v, nxt): 1.0},
                                  0.0, 1.0, "<=", "gadget-side"))
    return GadgetExpansion(g, d, tuple(rows))


def _lifted_labels(inst: FapInstance, exp: GadgetExpansion, arcs,
                   phi: int) -> Optional[List[int]]:
    """Least labeling of the oriented expansion that respects availability.

    Topological sweep; every vertex takes the smallest admissible value that
    clears each incoming arc by one. The result is pointwise minimal among
    all labelings aligned with this orientation, so returning None proves the
    orientation extends to no admissible assignment within the spectrum.
    Without availability sets this reduces to the longest-path labels.
    """
    d = exp.digraph
    base = longest_path_labels(d, arcs)
    ins: List[List[int]] = [[] for _ in range(exp.graph.n)]
    for a in arcs:
        ins[d.heads[a]].append(d.tails[a])
    f = [0] * exp.graph.n
    for v in sorted(range(exp.graph.n), key=lambda v: base[v]):
        need = max((f[u] + 1 for u in ins[v]), default=0)
        menu = inst.freq_sets[v] if v < inst.links else None
        if menu is None:
            f[v] = need
        else:
            fit = [x for x in menu if x >= need]
            if not fit:
                return None
            f[v] = min(fit)
        if f[v] > phi:
            return None
    return f


def _check_solver_status(rep: SolveReport, phi: int):
    if rep.status == "timeout":
        raise TimeLimitError("time limit hit before the spectrum probe could decide")
    if rep.status == "infeasible":
        err = InfeasibleError(f"no assignment fits spectrum {phi}")
        err.bound = rep.bound
        raise err
    if rep.status != "optimal" or rep.best_point is None:
        raise SolverError(f"spectrum probe ended with status {rep.status}")


def solve_fixed_spectrum(inst: FapInstance, *,
                         reports: Optional[List[SolveReport]] = None,
                         deadline: Optional[float] = None) -> FrequencyAssignment:
    """Feasibility at the instance's fixed spectrum, hard separations only.

    One search over full orientations of the expanded graph with the load
    bound pinned to the spectrum; it accepts the first acyclic orientation of
    diameter at most the spectrum that has a least admissible labeling, and
    that labeling gives the frequencies. Only availability sets bring an
    admissibility test (without them the least labeling is the longest-path
    one, which always fits), and the orientations they reject are cut off
    inside the search, with no limit on their number. The sets also go to
    the search as `labels`, the links' menus with None for the chains'
    vertices, which the test's least labeling must respect.
    Raises InfeasibleError (carrying the final bound as `.bound`) when no
    assignment exists, and TimeLimitError when the solve reaches `deadline`.
    """
    phi = inst.spectrum
    if phi is None:
        raise InputError("fixed-spectrum solve needs the spectrum field")
    if inst.has_costs:
        raise UnsupportedInstanceError("instance carries violation costs; use the soft solve")
    exp = expand_gadgets(inst)
    cfg = ModelConfig(kappa=phi + 1, variant=AO, z_fixed=float(phi))
    menus = any(fs is not None for fs in inst.freq_sets)
    rep = solve_model(exp.graph, cfg, extra_rows=exp.side_rows, deadline=deadline,
                      admissible=(lambda arcs: _lifted_labels(inst, exp, arcs, phi) is not None)
                      if menus else None,
                      labels=list(inst.freq_sets) + [None] * (exp.graph.n - inst.links)
                      if menus else None)
    if reports is not None:
        reports.append(rep)
    _check_solver_status(rep, phi)
    lifted = _lifted_labels(inst, exp, rep.best_point.arc_set(), phi)
    out = FrequencyAssignment(tuple(lifted[: inst.links]), frozenset(), 0.0)
    out.verify(inst)
    return out


def greedy_assignment(inst: FapInstance) -> Optional[List[int]]:
    """First-fit frequencies, most constrained links first; None on dead end.

    Links with availability sets are placed before unrestricted ones, smallest
    set first. Unrestricted links always find a slot by scanning upward.
    """
    order = sorted((i for i in range(inst.links) if inst.freq_sets[i] is not None),
                   key=lambda i: (len(inst.freq_sets[i]), i))
    order += [i for i in range(inst.links) if inst.freq_sets[i] is None]
    freq: Dict[int, int] = {}

    def fits(i: int, f: int) -> bool:
        return all(abs(f - freq[j]) >= inst.separation(i, j)
                   for j in freq if inst.separation(i, j) > 0)

    for i in order:
        fs = inst.freq_sets[i]
        candidates = sorted(fs) if fs is not None else itertools.count(0)
        for f in candidates:
            if fits(i, f):
                freq[i] = f
                break
        else:
            return None
    return [freq[i] for i in range(inst.links)]


def _clique_span_bound(inst: FapInstance) -> int:
    """Spectrum lower bound from one clique of mutually conflicting links.

    Links of a conflict clique occupy distinct frequencies, and sorting them
    makes consecutive ones differ by at least their pairwise separation; the
    cheapest ordering of the clique therefore bounds the span from below.
    """
    conflict = UndirectedGraph(inst.links, [(p.i, p.j) for p in inst.conflict_pairs()])
    clique = greedy_clique(conflict)[:CLIQUE_SPAN_LINKS]
    if len(clique) < 2:
        return 0
    best = None
    for perm in itertools.permutations(clique):
        if perm[0] > perm[-1]:
            continue  # reversal symmetric
        span = sum(inst.separation(perm[t], perm[t + 1]) for t in range(len(perm) - 1))
        if best is None or span < best:
            best = span
    return best


def _spectrum_cap(inst: FapInstance) -> int:
    """A spectrum value beyond which feasibility can no longer change.

    Restricted links never use frequencies above their sets' maxima, and the
    unrestricted ones can always be stacked above everything at max-separation
    spacing; if that much room does not suffice, no spectrum does.
    """
    maxes = [max(fs) for fs in inst.freq_sets if fs is not None]
    unrestricted = sum(1 for fs in inst.freq_sets if fs is None)
    return max(maxes, default=0) + unrestricted * inst.max_separation


def min_spectrum(inst: FapInstance, *,
                 reports: Optional[List[SolveReport]] = None,
                 deadline: Optional[float] = None) -> Tuple[int, FrequencyAssignment]:
    """Smallest spectrum admitting a full assignment, with a witness.

    Binary search between a clique span lower bound and a greedy first-fit
    upper bound; every probe is an exact fixed-spectrum solve. When greedy
    dead-ends on availability sets, one probe at the saturation cap decides
    overall feasibility. All probes share `deadline`. A probe that reaches it
    raises TimeLimitError carrying how far the search got: `lower`, a
    spectrum no assignment fits below, and, once a certificate exists,
    `upper`, the spectrum it fits, with `assignment`, that certificate.
    """
    if inst.has_costs:
        raise UnsupportedInstanceError("spectrum search is for hard instances only")
    lo = max(inst.max_separation, _clique_span_bound(inst))
    hi, cert = None, None
    try:
        greedy = greedy_assignment(inst)
        if greedy is not None:
            cert = FrequencyAssignment(tuple(greedy), frozenset(), 0.0)
            cert.verify(inst.with_spectrum(None))
        else:
            cap = max(_spectrum_cap(inst), lo, 1)
            cert = solve_fixed_spectrum(inst.with_spectrum(cap), reports=reports,
                                        deadline=deadline)
        hi = max(max(cert.freq), lo)
        while lo < hi:
            mid = (lo + hi) // 2
            try:
                cert = solve_fixed_spectrum(inst.with_spectrum(mid), reports=reports,
                                            deadline=deadline)
                hi = mid
            except InfeasibleError:
                lo = mid + 1
    except TimeLimitError as exc:
        exc.lower, exc.upper, exc.assignment = lo, hi, cert
        raise
    return hi, cert


def solve_soft_cost(inst: FapInstance, *,
                    reports: Optional[List[SolveReport]] = None,
                    deadline: Optional[float] = None) -> FrequencyAssignment:
    """Cheapest set of unit-separation pairs to sacrifice at a fixed spectrum.

    Pairs carrying a cost may stay unseparated; each one left unoriented in
    the partial orientation pays its cost. Costed pairs must have separation
    exactly 1, everything else is forced oriented through equality rows.
    Raises TimeLimitError when the solve reaches `deadline`.
    """
    phi = inst.spectrum
    if phi is None:
        raise InputError("soft-cost solve needs the spectrum field")
    soft = [p for p in inst.pairs if p.c is not None]
    if any(p.d >= 2 for p in soft):
        raise UnsupportedInstanceError("violation costs are only supported at separation 1")
    if any(fs is not None for fs in inst.freq_sets):
        raise UnsupportedInstanceError(
            "availability sets cannot be combined with violation costs")
    exp = expand_gadgets(inst)
    d = exp.digraph
    soft_edges = {exp.graph.edge_index(p.i, p.j): p for p in soft}
    extra = list(exp.side_rows)
    extra.extend(row_edge_pair(d, e, AO) for e in range(exp.graph.m)
                 if e not in soft_edges)
    w_coeffs: Dict[int, float] = {}
    for e, p in soft_edges.items():
        w_coeffs[2 * e] = -p.c
        w_coeffs[2 * e + 1] = -p.c
    objective = Objective(z_coeff=0.0, w_coeffs=w_coeffs,
                          const=sum(p.c for p in soft))
    cfg = ModelConfig(kappa=phi + 1, variant=AS, z_fixed=float(phi))
    rep = solve_model(exp.graph, cfg, objective=objective, extra_rows=extra,
                      deadline=deadline)
    if reports is not None:
        reports.append(rep)
    _check_solver_status(rep, phi)
    point = rep.best_point
    violated = frozenset((p.i, p.j) for e, p in soft_edges.items()
                         if point.w[2 * e] + point.w[2 * e + 1] < 0.5)
    total = sum(soft_edges[exp.graph.edge_index(i, j)].c for i, j in violated)
    if abs(total - rep.objective) > 1e-6:
        raise SolverError("orientation objective disagrees with the violated-pair cost")
    freq = tuple(longest_path_labels(d, point.arc_set())[: inst.links])
    out = FrequencyAssignment(freq, violated, total)
    out.verify(inst)
    return out


def _candidate_freqs(inst: FapInstance, phi: int) -> Optional[List[List[int]]]:
    cols = []
    for fs in inst.freq_sets:
        col = sorted(f for f in (fs if fs is not None else range(phi + 1)) if f <= phi)
        if not col:
            return None
        cols.append(col)
    return cols


def brute_force_min_spectrum(inst: FapInstance) -> Tuple[int, Tuple[int, ...]]:
    """Reference spectrum optimum by scanning all capped assignments; only an
    exhaustive scan, every link's set within [0, BRUTE_MAX_FREQ], proves
    infeasibility."""
    if inst.links > BRUTE_MAX_LINKS:
        raise SizeRefusalError(f"assignment scan capped at {BRUTE_MAX_LINKS} links, "
                               f"got {inst.links}")
    if inst.has_costs:
        raise UnsupportedInstanceError("spectrum search is for hard instances only")
    hard = inst.conflict_pairs()
    for phi in range(BRUTE_MAX_FREQ + 1):
        cols = _candidate_freqs(inst, phi)
        if cols is None:
            continue
        for f in itertools.product(*cols):
            if all(abs(f[p.i] - f[p.j]) >= p.d for p in hard):
                return phi, f
    if all(fs is not None and max(fs, default=0) <= BRUTE_MAX_FREQ for fs in inst.freq_sets):
        raise InfeasibleError("no assignment from the frequency sets")
    raise SizeRefusalError(f"assignment scan capped at frequency {BRUTE_MAX_FREQ}")


def brute_force_fixed_spectrum(inst: FapInstance) -> Tuple[int, ...]:
    """Reference fixed-spectrum feasibility by scanning all assignments."""
    if inst.links > BRUTE_MAX_LINKS:
        raise SizeRefusalError(f"assignment scan capped at {BRUTE_MAX_LINKS} links, "
                               f"got {inst.links}")
    phi = inst.spectrum
    if phi is None:
        raise InputError("fixed-spectrum scan needs the spectrum field")
    if phi > BRUTE_MAX_FREQ:
        raise SizeRefusalError(f"assignment scan capped at spectrum {BRUTE_MAX_FREQ}, got {phi}")
    cols = _candidate_freqs(inst, phi)
    if cols is not None:
        hard = inst.conflict_pairs()
        for f in itertools.product(*cols):
            if all(abs(f[p.i] - f[p.j]) >= p.d for p in hard):
                return f
    raise InfeasibleError(f"no assignment fits spectrum {phi}")


def brute_force_soft_cost(inst: FapInstance) -> Tuple[float, Tuple[int, ...]]:
    """Reference soft-cost optimum; hard pairs must hold, costed ones pay."""
    if inst.links > BRUTE_MAX_LINKS:
        raise SizeRefusalError(f"assignment scan capped at {BRUTE_MAX_LINKS} links, "
                               f"got {inst.links}")
    phi = inst.spectrum
    if phi is None:
        raise InputError("soft-cost scan needs the spectrum field")
    if phi > BRUTE_MAX_FREQ:
        raise SizeRefusalError(f"assignment scan capped at spectrum {BRUTE_MAX_FREQ}, got {phi}")
    cols = _candidate_freqs(inst, phi)
    best = None
    if cols is not None:
        for f in itertools.product(*cols):
            cost = 0.0
            ok = True
            for p in inst.conflict_pairs():
                if abs(f[p.i] - f[p.j]) >= p.d:
                    continue
                if p.c is None or p.d >= 2:
                    ok = False
                    break
                cost += p.c
            if ok and (best is None or cost < best[0]):
                best = (cost, f)
    if best is None:
        raise InfeasibleError(f"no assignment fits spectrum {phi}")
    return best
