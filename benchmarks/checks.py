"""Reference answers for every benchmark instance, computed from the input alone.

`check(instance, exit_code, report)` returns None when the report of one run
is correct and a one-line reason otherwise. Every check re-derives the answer
without the cutting-plane solver: colourings and orientations are verified
edge by edge, chromatic numbers come from backtracking, frequency
assignments from a backtracking search, and polytope answers from the
closed-form results the acceptance criteria establish (full dimension 2m + 1,
and the criterion-3 facet rule for cycle and path rows).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from workloads import Z_STAR, Edges, Instance, adjacency, is_bipartite, parse_col


def check(inst: Instance, exit_code: Optional[int], report: Optional[dict]) -> Optional[str]:
    if report is None:
        return f"no JSON report (exit code {exit_code})"
    if inst.command == "fap":
        return _check_fap(inst, exit_code, report)
    if exit_code != 0 or report.get("status") not in ("optimal", "ok"):
        return f"exit code {exit_code}, status {report.get('status')!r}"
    n, edges = parse_col(inst.text)
    if inst.command == "color":
        return _check_color(inst, n, edges, report)
    if inst.command == "orient":
        return _check_orient(inst, n, edges, report)
    return _check_polytope(inst, n, edges, report)


# ---------------------------------------------------------------- graphs


def chromatic_number(n: int, edges: Edges) -> int:
    """Exact chromatic number by the package's brute-force backtracking."""
    from orientcut.graphs import UndirectedGraph
    from orientcut.polytope import brute_force_chromatic

    return brute_force_chromatic(UndirectedGraph(n, edges), max_n=n)


def _check_color(inst: Instance, n: int, edges: Edges, report: dict) -> Optional[str]:
    chi = report.get("chromatic")
    classes = report.get("classes") or []
    if sorted(v for cls in classes for v in cls) != list(range(n)):
        return "colour classes do not partition the vertices"
    colour = {v: c for c, cls in enumerate(classes) for v in cls}
    if any(colour[u] == colour[v] for u, v in edges):
        return "colour classes leave an edge monochromatic"
    if len(classes) != chi:
        return f"{len(classes)} classes for chromatic number {chi}"
    if inst.meta.get("base") == "gnp":
        expect = chromatic_number(n, edges)
    else:
        # Triangle-free bases have a planted or known 3-colouring; with an odd
        # cycle present, 3 is exact.
        if is_bipartite(n, edges):
            return "reference graph is bipartite"
        expect = 3
    return None if chi == expect else f"chromatic {chi}, expected {expect}"


def window_load(n: int, edges: Edges, arcs: Sequence[int], kappa: int) -> Optional[int]:
    """Largest number of forward arcs on any simple kappa-edge path.

    `arcs` holds one arc per edge in the command-line encoding: 2e runs from
    the lower to the higher endpoint of edge e, 2e + 1 the other way. Returns
    None when the arcs are not one acyclic orientation of every edge.
    """
    norm = [(min(u, v), max(u, v)) for u, v in edges]
    if sorted(a // 2 for a in arcs) != list(range(len(norm))):
        return None
    forward = set()
    for a in arcs:
        lo, hi = norm[a // 2]
        forward.add((lo, hi) if a % 2 == 0 else (hi, lo))
    indeg = [0] * n
    for _, v in forward:
        indeg[v] += 1
    ready = [v for v in range(n) if not indeg[v]]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for a, b in forward:
            if a == v:
                indeg[b] -= 1
                if not indeg[b]:
                    ready.append(b)
    if seen != n:
        return None
    adj = adjacency(n, edges)
    best = 0

    def extend(v: int, used: int, load: int, onpath: set):
        nonlocal best
        if used == kappa:
            best = max(best, load)
            return
        for u in adj[v]:
            if u not in onpath:
                onpath.add(u)
                extend(u, used + 1, load + ((v, u) in forward), onpath)
                onpath.remove(u)

    for s in range(n):
        extend(s, 0, 0, {s})
    return best


def _simple_paths(n: int, edges: Edges, length: int) -> List[Tuple[int, ...]]:
    """Every simple path with `length` edges, once per direction."""
    adj = adjacency(n, edges)
    out = []

    def extend(path: List[int]):
        if len(path) == length + 1:
            out.append(tuple(path))
            return
        for u in sorted(adj[path[-1]]):
            if u not in path:
                extend(path + [u])

    for s in range(n):
        extend([s])
    return out


def min_window_load(n: int, edges: Edges, kappa: int) -> int:
    """Optimal `orient` value by enumerating every orientation of the edges.

    Bit e of an orientation mask reverses edge e. A path's load is its
    number of forward edges, an affine function of the mask bits, so all
    masks are scored at once with one matrix product per chunk. Directed
    cycles are the cycles whose load equals their length or zero.
    """
    import numpy as np

    norm = [(min(u, v), max(u, v)) for u, v in edges]
    index = {e: k for k, e in enumerate(norm)}
    m = len(norm)

    def affine(paths, closed):
        sign = np.zeros((len(paths), m))
        const = np.zeros(len(paths))
        for r, p in enumerate(paths):
            steps = list(zip(p, p[1:])) + ([(p[-1], p[0])] if closed else [])
            for u, v in steps:
                sign[r, index[(min(u, v), max(u, v))]] = 1.0 if u > v else -1.0
                const[r] += u < v
        return sign, const

    p_sign, p_const = affine(_simple_paths(n, edges, kappa), False)
    cycles = [p for k in range(3, n + 1) for p in _simple_paths(n, edges, k - 1)
              if p[0] in adjacency(n, edges)[p[-1]] and p[0] == min(p)]
    c_sign, c_const = affine(cycles, True)
    c_len = np.array([len(c) for c in cycles], dtype=float)
    best = kappa
    chunk = 1 << 14
    for start in range(0, 1 << m, chunk):
        masks = np.arange(start, min(start + chunk, 1 << m))
        bits = ((masks[:, None] >> np.arange(m)) & 1).astype(float)
        cyc = bits @ c_sign.T + c_const
        acyclic = ~((cyc == 0) | (cyc == c_len)).any(axis=1)
        load = bits[acyclic] @ p_sign.T + p_const
        if len(load):
            best = min(best, int(load.max(axis=1).min()))
    return best


def _check_orient(inst: Instance, n: int, edges: Edges, report: dict) -> Optional[str]:
    kappa = inst.meta["kappa"]
    expect = Z_STAR[(inst.meta["base"], kappa)]
    if report.get("z") != expect:
        return f"z = {report.get('z')}, expected {expect}"
    load = window_load(n, edges, report.get("arcs") or [], kappa)
    if load is None:
        return "arcs are not an acyclic orientation of every edge"
    return None if load == expect else f"orientation carries window load {load}, reported {expect}"


# ---------------------------------------------------------------- polytope


def _check_polytope(inst: Instance, n: int, edges: Edges, report: dict) -> Optional[str]:
    m = len(edges)
    if report.get("fullDimension") != 2 * m + 1 or report.get("dimension") != 2 * m + 1:
        return f"dimension {report.get('dimension')}, expected {2 * m + 1}"
    cls = inst.meta["cls"]
    if not cls:
        return None
    kappa = inst.meta["kappa"]
    norm = [(min(u, v), max(u, v)) for u, v in edges]
    adj = adjacency(n, edges)
    rows = report.get("rows")
    if not isinstance(rows, list):
        return "classification rows missing"
    for row in rows:
        support = row["support"]
        if not row["valid"]:
            return f"{cls} row {support} reported invalid"
        if cls == "cycle":
            facet = len(support) <= kappa
        else:
            ends: Dict[int, int] = {}
            for a in support:
                for v in norm[a // 2]:
                    ends[v] = ends.get(v, 0) + 1
            s, t = (v for v, k in ends.items() if k == 1)
            facet = t not in adj[s]
        if row["isFacet"] != facet:
            return f"{cls} row {support}: isFacet {row['isFacet']}, expected {facet}"
    if report.get("validCount") != len(rows) or \
            report.get("facetCount") != sum(r["isFacet"] for r in rows):
        return "row totals disagree with the rows"
    return None


# ---------------------------------------------------------------- frequency assignment


def _fap_search(links: int, domains: List[List[int]], hard: Dict[Tuple[int, int], int],
                soft: Dict[Tuple[int, int], float]) -> Optional[Tuple[float, List[int]]]:
    """Cheapest assignment with every hard separation met, or None.

    Depth-first over links, smallest remaining domain first; a soft pair costs
    its weight when its two links share a frequency.
    """
    sep = [[0] * links for _ in range(links)]
    cost = [[0.0] * links for _ in range(links)]
    for (i, j), d in hard.items():
        sep[i][j] = sep[j][i] = d
    for (i, j), c in soft.items():
        cost[i][j] = cost[j][i] = c
    best: List = [float("inf"), None]
    freq = [-1] * links

    def rec(doms: List[Optional[List[int]]], spent: float):
        if spent >= best[0]:
            return
        open_links = [i for i in range(links) if freq[i] < 0]
        if not open_links:
            best[0], best[1] = spent, list(freq)
            return
        i = min(open_links, key=lambda k: (len(doms[k]), k))
        for f in doms[i]:
            extra = sum(cost[i][j] for j in range(links) if freq[j] == f)
            nxt = list(doms)
            ok = True
            for j in open_links:
                if j != i and sep[i][j]:
                    nxt[j] = [g for g in doms[j] if abs(g - f) >= sep[i][j]]
                    if not nxt[j]:
                        ok = False
                        break
            if ok:
                freq[i] = f
                rec(nxt, spent + extra)
                freq[i] = -1
            if best[0] == 0:
                return

    rec([list(d) for d in domains], 0.0)
    return None if best[1] is None else (best[0], best[1])


def fap_reference(doc: dict) -> Tuple[str, Optional[float]]:
    """("optimal", spectrum or cost) or ("infeasible", None) for an instance."""
    links = doc["links"]
    sets = [sorted(s) if s else None for s in doc["freqSets"]]
    hard = {(p["i"], p["j"]): p["d"] for p in doc["pairs"] if "c" not in p}
    soft = {(p["i"], p["j"]): float(p["c"]) for p in doc["pairs"] if "c" in p}

    def solve(phi: int):
        doms = [[f for f in (s if s is not None else range(phi + 1)) if f <= phi]
                for s in sets]
        return _fap_search(links, doms, hard, soft)

    if doc.get("spectrum") is not None:
        found = solve(doc["spectrum"])
        return ("infeasible", None) if found is None else ("optimal", found[0])
    # Unrestricted links can always be stacked 3 apart above every set, so
    # feasibility cannot change past this spectrum.
    cap = max((max(s) for s in sets if s), default=0) + 3 * links
    for phi in range(cap + 1):
        if solve(phi) is not None:
            return "optimal", float(phi)
    return "infeasible", None


def _check_fap(inst: Instance, exit_code: Optional[int], report: dict) -> Optional[str]:
    doc = json.loads(inst.text)
    status, value = fap_reference(doc)
    if status == "infeasible":
        ok = exit_code == 2 and report.get("status") == "infeasible"
        return None if ok else f"reported {report.get('status')!r}, expected infeasible"
    if exit_code != 0 or report.get("status") != "optimal":
        return f"exit code {exit_code}, status {report.get('status')!r}, expected optimal"
    freq = report.get("frequencies") or []
    spectrum = report.get("spectrum")
    if len(freq) != doc["links"] or any(f < 0 or f > spectrum for f in freq):
        return "frequencies outside the spectrum"
    for i, s in enumerate(doc["freqSets"]):
        if s and freq[i] not in s:
            return f"link {i} uses unavailable frequency {freq[i]}"
    violated, total = set(), 0.0
    for p in doc["pairs"]:
        if abs(freq[p["i"]] - freq[p["j"]]) < p["d"]:
            if "c" not in p:
                return f"hard pair ({p['i']},{p['j']}) not separated"
            violated.add((p["i"], p["j"]))
            total += p["c"]
    if violated != {tuple(v) for v in report.get("violatedPairs", [])}:
        return "violated pairs disagree with the frequencies"
    got = report.get("totalCost") if doc.get("spectrum") is not None else spectrum
    if abs(got - value) > 1e-9 or abs(total - report.get("totalCost", 0)) > 1e-9:
        return f"objective {got}, expected {value:g}"
    return None
