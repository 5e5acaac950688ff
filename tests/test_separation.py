import heapq
import itertools
import math
import types

import pytest

from orientcut import separation
from orientcut.errors import InputError
from orientcut.graphs import (
    UndirectedGraph,
    complete_graph,
    cycle_graph,
    enumerate_cycles,
    enumerate_paths_k,
    paw_graph,
    petersen_graph,
)
from orientcut.model import AO, AS, ModelConfig, row_cycle, row_path, row_window
from orientcut.polytope import enumerate_feasible_points
from orientcut.separation import (
    MAX_CUTS_PER_CLASS,
    TEMPLATE_TAGS,
    VIOLATION_TOL,
    WALK_SLACK,
    _top_rows,
    rows_cycle_z,
    separate_cycles,
    separate_paths,
    separate_templates,
    template_rows,
    walk_bounds,
)

from conftest import BATTERY, lab_points, mycielski, queen_graph, random_point


def _cycle_rows(g):
    return [row_cycle(g, c) for c in enumerate_cycles(g, g.n)]


def _path_rows(g, kappa):
    return [row_path(g, p, kappa) for p in enumerate_paths_k(g, kappa)]


def test_cycle_separation_finds_short_and_long_cycles():
    g = complete_graph(3)
    # 0.9 on every arc breaks every pair row, so each 2-cycle is violated
    w = [0.9] * 6
    rows = separate_cycles(g, w)
    assert sorted(len(r.coeffs) for r in rows) == [2, 2, 2]
    for r in rows:
        assert r.violation(w, 0.0) == pytest.approx(0.8)
    # pair rows kept: 0.9 around one directed triangle, 0.1 on the reverses
    w = [0.1] * 6
    for i, j in ((0, 1), (1, 2), (2, 0)):
        w[g.arc(i, j)] = 0.9
    rows = separate_cycles(g, w)
    assert [len(r.coeffs) for r in rows] == [3]
    assert rows[0].violation(w, 0.0) == pytest.approx(0.7)


def _cycles_with_re_search(g, w):
    """Reference: the separator that searched again past each 2-cycle closure."""
    lengths = [max(0.0, 1.0 - w[a]) for a in range(g.num_arcs)]

    def dijkstra(s, skip_arc=-1):
        dist = [float("inf")] * g.n
        pred = [-1] * g.n
        dist[s] = 0.0
        heap = [(0.0, s)]
        while heap:
            dv, v = heapq.heappop(heap)
            if dv > dist[v] + 1e-15:
                continue
            for a, u in g.out_arcs[v]:
                if a == skip_arc:
                    continue
                nd = dv + lengths[a]
                if nd < dist[u] - 1e-15:
                    dist[u] = nd
                    pred[u] = v
                    heapq.heappush(heap, (nd, u))
        return dist, pred

    trees = [dijkstra(s) for s in range(g.n)]
    found = {}

    def close(a, dist, pred):
        i, j = g.tails[a], g.heads[a]
        if dist[i] + lengths[a] >= 1.0 - VIOLATION_TOL:
            return
        verts = [i]
        v = i
        while v != j:
            v = pred[v]
            verts.append(v)
        verts.reverse()
        k = verts.index(min(verts))
        canon = tuple(verts[k:] + verts[:k])
        if canon in found:
            return
        row = row_cycle(g, canon)
        viol = row.violation(w, 0.0)
        if viol > VIOLATION_TOL:
            found[canon] = (viol, row)

    for a in range(g.num_arcs):
        i, j = g.tails[a], g.heads[a]
        dist, pred = trees[j]
        close(a, dist, pred)
        if pred[i] == j:
            close(a, *dijkstra(j, skip_arc=a ^ 1))
    return _top_rows(found, MAX_CUTS_PER_CLASS)


def _gnp(n, p, rng):
    return UndirectedGraph(n, [e for e in itertools.combinations(range(n), 2)
                               if rng.random() < p])


def _pair_feasible_point(g, variant, rng):
    """w with w_ij + w_ji = 1 (AO) or <= 1 (AS); entries 0, 1 or fractional,
    with many close to 1 so that long cycles are violated."""
    def entry():
        u = rng.random()
        return 0.0 if u < 0.15 else 1.0 if u < 0.3 else \
            1.0 - 0.2 * rng.random() if u < 0.7 else rng.random()

    w = []
    for _ in range(g.m):
        fwd = entry()
        if rng.random() < 0.5:
            fwd = 1.0 - fwd
        back = 1.0 - fwd
        if variant == AS and rng.random() < 0.5:
            back *= rng.choice((0.0, rng.random()))
        w += [fwd, back] if rng.random() < 0.5 else [back, fwd]
    return w


def test_cycle_separation_matches_re_search_on_pair_feasible_points(rng):
    graphs = [g for _, g, _ in BATTERY] + [petersen_graph()]
    graphs += [_gnp(n, p, rng) for n in (6, 8, 10, 12) for p in (0.3, 0.5, 0.7)]
    points = rows = 0
    for g in graphs:
        for variant in (AO, AS):
            for _ in range(60):
                w = _pair_feasible_point(g, variant, rng)
                for a in range(0, g.num_arcs, 2):
                    assert w[a] + w[a + 1] <= 1.0 + 1e-12
                got = separate_cycles(g, w)
                ref = _cycles_with_re_search(g, w)
                assert [r.key for r in got] == [r.key for r in ref], (g.edges, w)
                points += 1
                rows += len(got)
    assert points == 2 * 60 * len(graphs) and rows > 10000


def test_cycle_separation_runs_one_search_per_vertex(monkeypatch, rng):
    calls = []
    dijkstra = separation._dijkstra

    def spy(*args):
        calls.append(args)
        return dijkstra(*args)

    monkeypatch.setattr(separation, "_dijkstra", spy)
    g = petersen_graph()
    for variant in (AO, AS):
        for _ in range(20):
            calls.clear()
            w = _pair_feasible_point(g, variant, rng)
            separate_cycles(g, w)
            assert sorted(s for _, _, s in calls) == list(range(g.n))


def test_cycle_separation_empty_on_acyclic_support():
    g = complete_graph(3)
    # transitive triangle, pairs sum to 1: no violated cycle row exists
    w = [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]
    assert separate_cycles(g, w) == []
    assert separate_cycles(g, [0.5] * 6) == []


def test_cycle_separation_exact_on_random_points(rng):
    for name, g, _ in BATTERY:
        exhaustive = _cycle_rows(g)
        for _ in range(200):
            pt = random_point(g, 2, rng)
            found = separate_cycles(g, pt.w)
            reference = [r for r in exhaustive if r.violation(pt.w, 0.0) > 1e-6]
            assert bool(found) == bool(reference), (name, pt)
            for r in found:
                assert r.violation(pt.w, 0.0) > 1e-6
            if found:  # these points break pair rows too; a most violated row leads
                best = max(r.violation(pt.w, 0.0) for r in reference)
                assert found[0].violation(pt.w, 0.0) == pytest.approx(best, abs=1e-12)


def test_path_separation_spec_point():
    g = complete_graph(3)
    rows = separate_paths(g, [0.5] * 6, 0.75, 2)
    assert len(rows) == 6
    for r in rows:
        assert r.violation([0.5] * 6, 0.75) == pytest.approx(0.25)
    assert separate_paths(g, [0.5] * 6, 2.0, 2) == []


def test_path_separation_exact_on_random_points(rng):
    for name, g, _ in BATTERY:
        for kappa in (2, 3):
            exhaustive = _path_rows(g, kappa)
            for _ in range(100):
                pt = random_point(g, kappa, rng)
                found = separate_paths(g, pt.w, pt.z, kappa)
                reference = [r for r in exhaustive if r.violation(pt.w, pt.z) > 1e-6]
                assert bool(found) == bool(reference), (name, kappa)
                for r in found:
                    assert r.violation(pt.w, pt.z) > 1e-6


def _paths_per_row(g, w, z, kappa):
    """Reference: the separator that built a row for every violated path."""
    wmax = max(w, default=0.0)
    found = {}
    path = []
    onpath = set()

    def extend(v, load):
        used = len(path) - 1
        if used == kappa:
            if load > z + VIOLATION_TOL:
                p = tuple(path)
                found[p] = (load - z, row_path(g, p, kappa))
            return
        if load + (kappa - used) * wmax <= z + VIOLATION_TOL:
            return
        for a, u in g.out_arcs[v]:
            if u not in onpath:
                path.append(u)
                onpath.add(u)
                extend(u, load + w[a])
                path.pop()
                onpath.remove(u)

    if kappa <= g.n - 1:
        for s in range(g.n):
            path.append(s)
            onpath.add(s)
            extend(s, 0.0)
            path.pop()
            onpath.remove(s)
    return _top_rows(found, MAX_CUTS_PER_CLASS)


def test_path_separation_matches_per_row_reference(rng):
    # (graph, kappa, points, lowest z / kappa); queen4 has 527,528 five-arc
    # paths, so its z stays high enough to keep the reference quick
    cases = [(g, kappa, 40, 0.3) for _, g, _ in BATTERY for kappa in (1, 2, 3)]
    cases += [(petersen_graph(), kappa, 40, 0.3) for kappa in (2, 3, 4, 5)]
    cases += [(queen_graph(4), 5, 2, 0.6)]
    capped = 0
    for g, kappa, count, low in cases:
        for k in range(count):
            if k % 2:  # pair-feasible with many equal loads, so ties are broken on keys
                w = _pair_feasible_point(g, AO, rng)
            else:
                w = list(random_point(g, kappa, rng).w)
            z = kappa * (low + 0.2 * rng.random())
            got = separate_paths(g, w, z, kappa)
            ref = _paths_per_row(g, w, z, kappa)
            assert [(r.tag, r.key) for r in got] == [(r.tag, r.key) for r in ref], \
                (g.edges, kappa, w, z)
            capped += len(got) == MAX_CUTS_PER_CLASS
    assert capped > 20


def test_template_separation_cycle_z_example():
    g = complete_graph(3)
    w = [2.0 / 3.0] * 6
    rows = separate_templates(g, w, 1.9, 2)
    assert any(r.tag == "cycle-z" for r in rows)
    best = max(r.violation(w, 1.9) for r in rows if r.tag == "cycle-z")
    assert best == pytest.approx(0.1)


def test_template_separation_empty_on_integral_points():
    g = paw_graph()
    cfg = ModelConfig(kappa=2, variant=AS)
    for pt in lab_points(enumerate_feasible_points(g, cfg)[::7]):
        if pt.is_integral():
            assert separate_templates(g, list(pt.w), pt.z, 2) == []


def test_template_rows_rejects_unknown_tag():
    g = complete_graph(3)
    with pytest.raises(InputError):
        list(template_rows(g, 2, tags=("nope",)))


def test_template_rows_all_tags_instantiate_somewhere():
    # K4 plus a pendant path is rich enough for every family at kappa=3
    g = UndirectedGraph(6, list(itertools.combinations(range(4), 2)) + [(3, 4), (4, 5)])
    seen = set()
    for kappa in (2, 3):
        for r in template_rows(g, kappa):
            seen.add(r.tag)
    assert seen == set(TEMPLATE_TAGS)


def test_adjacent_paths_generator_respects_tail_disjointness():
    # the two 3-arc paths 0-3-1-2 and 0-3-2-1 would meet again; no row may
    # pair them, and every generated row must hold at the point that once
    # broke the naive family
    g = UndirectedGraph(4, [(0, 3), (1, 2), (1, 3), (2, 3)])
    w = [0.0] * 8
    w[g.arc(1, 2)] = 1.0
    w[g.arc(3, 2)] = 1.0
    for r in template_rows(g, 3, tags=("adjacent-paths",)):
        assert r.satisfied(w, 1.0)


def test_separated_rows_are_valid_on_feasible_points(rng):
    g = paw_graph()
    kappa = 2
    cfg = ModelConfig(kappa=kappa, variant=AS)
    points = lab_points(enumerate_feasible_points(g, cfg))
    for _ in range(50):
        pt = random_point(g, kappa, rng)
        rows = (separate_cycles(g, pt.w)
                + separate_paths(g, pt.w, pt.z, kappa)
                + separate_templates(g, pt.w, pt.z, kappa))
        for r in rows:
            for q in points:
                assert r.satisfied(q.w, q.z), (r, q)


def _templates_per_call(g, w, z, kappa, cap):
    """Reference: score every cycle-z row that `rows_cycle_z` generates."""
    found = {}
    for row in rows_cycle_z(g, kappa):
        viol = row.violation(w, z)
        if viol > VIOLATION_TOL:
            found[row.key] = (viol, row)
    return _top_rows(found, cap)


def _fractional_point(g, kappa, rng):
    # pairs near 1/2 and a low z violate many template rows at once
    w = [0.25 + 0.5 * rng.random() for _ in range(2 * g.m)]
    return w, kappa * (0.3 + 0.4 * rng.random())


def test_template_search_matches_per_call_reference(rng):
    # kappa 1 closes 2-cycles and kappa = n - 1 closes Hamiltonian cycles;
    # Petersen has none of 7 or 10 vertices, and K6 has more than the cap
    cases = [(g, kappa) for _, g, _ in BATTERY for kappa in range(1, g.n)]
    cases += [(petersen_graph(), kappa) for kappa in (1, 4, 5, 6, 7, 8, 9)]
    cases += [(complete_graph(6), kappa) for kappa in (2, 3, 4, 5)]
    violated = capped = 0
    for g, kappa in cases:
        for k in range(12):
            if k % 3 == 0:
                pt = random_point(g, kappa, rng)
                w, z = list(pt.w), pt.z
            elif k % 3 == 1:
                w, z = _fractional_point(g, kappa, rng)
            else:  # pair-feasible with many equal loads, so ties are broken on keys
                w, z = _pair_feasible_point(g, AO, rng), kappa * (0.3 + 0.4 * rng.random())
            for cap in (MAX_CUTS_PER_CLASS, 10 ** 6):
                ref = _templates_per_call(g, w, z, kappa, cap)
                got = separate_templates(g, w, z, kappa) if cap == MAX_CUTS_PER_CLASS else \
                    [row_window(c, "cycle-z")
                     for c in separation._violated_windows(g, w, z, kappa, True, cap)]
                assert [(r.tag, r.key) for r in got] == [(r.tag, r.key) for r in ref], \
                    (g.edges, kappa, w, z, cap)
            violated += len(ref)
            capped += len(ref) > MAX_CUTS_PER_CLASS
    assert violated > 4000 and capped > 20


def test_window_rows_list_their_arcs_head_to_tail(rng):
    """A path or cycle-z row lists its window's arcs in window order: each arc
    leaves the vertex where the one before it ends, and a cycle-z row's last
    arc returns to its first arc's tail. So its violation is the load summed
    in that order, less z, to the bit."""
    seen = {"path": 0, "cycle-z": 0}
    cases = [(petersen_graph(), 3), (complete_graph(5), 2), (complete_graph(5), 3),
             (paw_graph(), 2)]
    for g, kappa in cases:
        for _ in range(4):
            w, z = _fractional_point(g, kappa, rng)
            for row in separate_paths(g, w, z, kappa) + separate_templates(g, w, z, kappa):
                arcs = list(row.coeffs)
                closed = row.tag == "cycle-z"
                assert len(arcs) == kappa + closed
                assert all(g.heads[a] == g.tails[b] for a, b in zip(arcs, arcs[1:])), row
                assert (g.heads[arcs[-1]] == g.tails[arcs[0]]) == closed, row
                load = 0.0
                for a in arcs:
                    load += w[a]
                assert row.violation(w, z) == load - z
                seen[row.tag] += 1
    assert min(seen.values()) > 50, seen


def test_window_search_stops_at_the_deadline(monkeypatch):
    """The clock is read at walks of one or two arcs; once it reaches the
    deadline the search returns the windows it holds, all of them rows the
    full search returns too."""
    g = petersen_graph()
    w = [0.5] * g.num_arcs
    short_walks = sum(1 + len(g.out_arcs[g.heads[a]]) for a in range(g.num_arcs))
    for closed in (False, True):
        full = separation._violated_windows(g, w, 0.5, 4, closed, 10 ** 6)
        assert len(full) >= 24
        clock = itertools.count()
        monkeypatch.setattr(separation, "time",
                            types.SimpleNamespace(monotonic=lambda: next(clock)))
        part = separation._violated_windows(g, w, 0.5, 4, closed, 10 ** 6, deadline=5)
        assert 0 < len(part) < len(full) and set(part) <= set(full)
        # no walk of three or more arcs read the clock
        assert next(clock) <= short_walks
        monkeypatch.undo()
        assert separation._violated_windows(g, w, 0.5, 4, closed, 10 ** 6,
                                            deadline=math.inf) == full
    assert separate_paths(g, w, 0.5, 4, deadline=0.0) == []
    assert separate_templates(g, w, 0.5, 4, deadline=0.0) == []


def _walk_maxima(g, w, r):
    """Reference: per vertex, the largest weight of an r-arc walk out of it
    over every such walk, each summed from its far end as `walk_bounds` sums,
    or -inf when none exists."""
    def walks(v, r):
        if r == 0:
            yield 0.0
            return
        for a, u in g.out_arcs[v]:
            for rest in walks(u, r - 1):
                yield w[a] + rest

    return [max(walks(v, r), default=-math.inf) for v in range(g.n)]


def test_walk_bounds_are_walk_maxima_above_every_path(rng):
    """best[r][v] is the heaviest r-arc walk out of v, exactly, and so at
    least the load of every elementary r-arc path out of v, summed in path
    order, to within WALK_SLACK."""
    graphs = [g for _, g, _ in BATTERY] + [petersen_graph(), mycielski(cycle_graph(5))]
    paths = 0
    for g in graphs:
        arcs = 4 if g.n > 10 else 5
        for k in range(6):
            w = list(random_point(g, arcs, rng).w) if k % 2 else _pair_feasible_point(g, AO, rng)
            best = walk_bounds(g, w, arcs)
            assert len(best) == arcs + 1 and best[0] == [0.0] * g.n
            for r in range(1, arcs + 1):
                assert best[r] == _walk_maxima(g, w, r), (g.edges, w, r)
                for p in enumerate_paths_k(g, r):
                    load = 0.0
                    for u, v in zip(p, p[1:]):
                        load += w[g.arc(u, v)]
                    assert load <= best[r][p[0]] + WALK_SLACK
                    paths += 1
    assert paths > 10000


def test_walk_bound_prunes_short_walks(monkeypatch):
    """On Petersen at kappa 5, with every edge's arc 2e at 1 and its reverse
    at 0, and z = 3.5, the walk bound cuts most walks of one or two arcs
    before they read the clock: 28 of the 90 read it, where the old reach
    `load + (arcs left) * max(w)` let 76 through. The windows found stay the
    same."""
    g = petersen_graph()
    w = [1.0 - a % 2 for a in range(g.num_arcs)]
    elementary = len(enumerate_paths_k(g, 1)) + len(enumerate_paths_k(g, 2))

    def clock_reads(z):
        clock = itertools.count()
        monkeypatch.setattr(separation, "time",
                            types.SimpleNamespace(monotonic=lambda: next(clock)))
        found = separation._violated_windows(g, w, z, 5, False, 10 ** 6, deadline=10 ** 9)
        monkeypatch.undo()
        assert found == separation._violated_windows(g, w, z, 5, False, 10 ** 6)
        return next(clock), found

    reads, found = clock_reads(-10.0)  # z so low that nothing is cut
    assert reads == elementary == 90 and len(found) == len(enumerate_paths_k(g, 5))
    reads, found = clock_reads(3.5)
    assert len(found) == 36 and reads == 28
