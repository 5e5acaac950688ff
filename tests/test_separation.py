import itertools
import random

import pytest

from orientcut.errors import InputError
from orientcut.graphs import (
    BidirectedDigraph,
    UndirectedGraph,
    complete_graph,
    cycle_graph,
    enumerate_cycles,
    enumerate_paths_k,
    paw_graph,
    petersen_graph,
)
from orientcut.model import ModelConfig, AS, row_cycle, row_path
from orientcut.polytope import enumerate_feasible_points
from orientcut.separation import (
    MAX_CUTS_PER_CLASS,
    STRUCTURE_CAP,
    TEMPLATE_TAGS,
    VIOLATION_TOL,
    TemplatePool,
    _TEMPLATE_GENERATORS,
    _sampled_rows,
    _top_rows,
    separate_cycles,
    separate_paths,
    separate_templates,
    template_rows,
)

from conftest import BATTERY, random_point


def _cycle_rows(d):
    return [row_cycle(d, c) for c in enumerate_cycles(d, d.n)]


def _path_rows(d, kappa):
    return [row_path(d, p, kappa) for p in enumerate_paths_k(d, kappa)]


def test_cycle_separation_finds_short_and_long_cycles():
    d = BidirectedDigraph(complete_graph(3))
    w = [0.9] * 6
    rows = separate_cycles(d, w)
    sizes = sorted(len(r.coeffs) for r in rows)
    assert sizes == [2, 2, 2, 3, 3]
    for r in rows:
        assert r.violation(w, 0.0) > 1e-6
    two = [r for r in rows if len(r.coeffs) == 2]
    assert two[0].violation(w, 0.0) == pytest.approx(0.8)
    tri = [r for r in rows if len(r.coeffs) == 3]
    assert tri[0].violation(w, 0.0) == pytest.approx(0.7)


def test_cycle_separation_empty_on_acyclic_support():
    d = BidirectedDigraph(complete_graph(3))
    # transitive triangle, pairs sum to 1: no violated cycle row exists
    w = [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]
    assert separate_cycles(d, w) == []
    assert separate_cycles(d, [0.5] * 6) == []


def test_cycle_separation_exact_on_random_points(rng):
    for name, g, _ in BATTERY:
        d = BidirectedDigraph(g)
        exhaustive = _cycle_rows(d)
        for _ in range(200):
            pt = random_point(g, 2, rng)
            found = separate_cycles(d, pt.w)
            reference = [r for r in exhaustive if r.violation(pt.w, 0.0) > 1e-6]
            assert bool(found) == bool(reference), (name, pt)
            for r in found:
                assert r.violation(pt.w, 0.0) > 1e-6


def test_path_separation_spec_point():
    d = BidirectedDigraph(complete_graph(3))
    rows = separate_paths(d, [0.5] * 6, 0.75, 2)
    assert len(rows) == 6
    for r in rows:
        assert r.violation([0.5] * 6, 0.75) == pytest.approx(0.25)
    assert separate_paths(d, [0.5] * 6, 2.0, 2) == []


def test_path_separation_exact_on_random_points(rng):
    for name, g, _ in BATTERY:
        d = BidirectedDigraph(g)
        for kappa in (2, 3):
            exhaustive = _path_rows(d, kappa)
            for _ in range(100):
                pt = random_point(g, kappa, rng)
                found = separate_paths(d, pt.w, pt.z, kappa)
                reference = [r for r in exhaustive if r.violation(pt.w, pt.z) > 1e-6]
                assert bool(found) == bool(reference), (name, kappa)
                for r in found:
                    assert r.violation(pt.w, pt.z) > 1e-6


def test_template_separation_cycle_z_example():
    d = BidirectedDigraph(complete_graph(3))
    w = [2.0 / 3.0] * 6
    rows = separate_templates(d, w, 1.9, 2)
    assert any(r.tag == "cycle-z" for r in rows)
    best = max(r.violation(w, 1.9) for r in rows if r.tag == "cycle-z")
    assert best == pytest.approx(0.1)


def test_template_separation_empty_on_integral_points():
    g = paw_graph()
    d = BidirectedDigraph(g)
    cfg = ModelConfig(kappa=2, variant=AS)
    for pt in enumerate_feasible_points(g, cfg)[::7]:
        if pt.is_integral():
            assert separate_templates(d, list(pt.w), pt.z, 2) == []


def test_template_rows_rejects_unknown_tag():
    d = BidirectedDigraph(complete_graph(3))
    with pytest.raises(InputError):
        list(template_rows(d, 2, tags=("nope",)))


def test_template_rows_all_tags_instantiate_somewhere():
    # K4 plus a pendant path is rich enough for every family at kappa=3
    g = UndirectedGraph(6, list(itertools.combinations(range(4), 2)) + [(3, 4), (4, 5)])
    d = BidirectedDigraph(g)
    seen = set()
    for kappa in (2, 3):
        for r in template_rows(d, kappa):
            seen.add(r.tag)
    assert seen == set(TEMPLATE_TAGS)


def test_adjacent_paths_generator_respects_tail_disjointness():
    # the two 3-arc paths 0-3-1-2 and 0-3-2-1 would meet again; no row may
    # pair them, and every generated row must hold at the point that once
    # broke the naive family
    g = UndirectedGraph(4, [(0, 3), (1, 2), (1, 3), (2, 3)])
    d = BidirectedDigraph(g)
    w = [0.0] * 8
    w[d.arc(1, 2)] = 1.0
    w[d.arc(3, 2)] = 1.0
    for r in template_rows(d, 3, tags=("adjacent-paths",)):
        assert r.satisfied(w, 1.0)


def test_separated_rows_are_valid_on_feasible_points(rng):
    g = paw_graph()
    d = BidirectedDigraph(g)
    kappa = 2
    cfg = ModelConfig(kappa=kappa, variant=AS)
    points = enumerate_feasible_points(g, cfg)
    for _ in range(50):
        pt = random_point(g, kappa, rng)
        rows = (separate_cycles(d, pt.w)
                + separate_paths(d, pt.w, pt.z, kappa)
                + separate_templates(d, pt.w, pt.z, kappa))
        for r in rows:
            for q in points:
                assert r.satisfied(q.w, q.z), (r, q)


def _templates_per_call(d, w, z, kappa, structure_cap, seed):
    """Reference: regenerate and score every candidate row on each call."""
    merged = []
    for tag in TEMPLATE_TAGS:
        found = {}

        def consider(row):
            viol = row.violation(w, z)
            if viol > VIOLATION_TOL and row.key not in found:
                found[row.key] = (viol, row)

        exhausted = True
        for count, row in enumerate(_TEMPLATE_GENERATORS[tag](d, kappa)):
            if count >= structure_cap:
                exhausted = False
                break
            consider(row)
        if not exhausted:
            rng = random.Random(f"{seed}:{tag}")
            for row in _sampled_rows(d, kappa, tag, rng, structure_cap):
                consider(row)
        merged.extend(_top_rows(found, MAX_CUTS_PER_CLASS))
    return merged


def _fractional_point(g, kappa, rng):
    # pairs near 1/2 and a low z violate many template rows at once
    w = [0.25 + 0.5 * rng.random() for _ in range(2 * g.m)]
    return w, kappa * (0.3 + 0.4 * rng.random())


def test_pooled_template_separation_matches_per_call(rng):
    cases = [(g, kappa, STRUCTURE_CAP) for _, g, _ in BATTERY for kappa in (2, 3, 4, 5)]
    # a cap this small leaves families unfinished, so sampled draws join the pool
    cases += [(petersen_graph(), kappa, 40) for kappa in (2, 3, 4)]
    violated = 0
    for g, kappa, structure_cap in cases:
        d = BidirectedDigraph(g)
        pool = TemplatePool(d, kappa, structure_cap, seed=3)
        for k in range(12):
            if k % 2:
                w, z = _fractional_point(g, kappa, rng)
            else:
                pt = random_point(g, kappa, rng)
                w, z = list(pt.w), pt.z
            ref = _templates_per_call(d, w, z, kappa, structure_cap, 3)
            got = separate_templates(d, w, z, kappa, structure_cap=structure_cap, seed=3,
                                     pool=pool)
            assert [(r.tag, r.key) for r in got] == [(r.tag, r.key) for r in ref], \
                (g.edges, kappa, structure_cap)
            violated += len(got)
    assert violated > 1000
    d = BidirectedDigraph(petersen_graph())
    assert any(sum(1 for _ in _TEMPLATE_GENERATORS[tag](d, 3)) > 40 for tag in TEMPLATE_TAGS)


def test_template_pool_must_match_the_call():
    d = BidirectedDigraph(complete_graph(4))
    pool = TemplatePool(d, 2)
    w = [0.5] * d.num_arcs
    assert separate_templates(d, w, 1.0, 2, pool=pool) == separate_templates(d, w, 1.0, 2)
    with pytest.raises(InputError):
        separate_templates(d, w, 1.0, 3, pool=pool)
    with pytest.raises(InputError):
        separate_templates(BidirectedDigraph(complete_graph(4)), w, 1.0, 2, pool=pool)
