import itertools
import random

import pytest

from orientcut.errors import (
    ContractError,
    InfeasibleError,
    InputError,
    SizeRefusalError,
    UnsupportedInstanceError,
)
from orientcut.fap import (
    FapInstance,
    FapPair,
    FrequencyAssignment,
    brute_force_fixed_spectrum,
    brute_force_min_spectrum,
    brute_force_soft_cost,
    expand_gadgets,
    greedy_assignment,
    min_spectrum,
    solve_fixed_spectrum,
    solve_soft_cost,
)


def _inst(links, pairs, spectrum=None, freq_sets=None):
    sets = [None] * links if freq_sets is None else [
        None if s is None else frozenset(s) for s in freq_sets]
    return FapInstance(links, sets, [FapPair(*p) for p in pairs], spectrum)


def k3(spectrum=None):
    return _inst(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)], spectrum)


def test_from_dict_round_trip_and_validation():
    inst = FapInstance.from_dict({
        "links": 2,
        "freqSets": [[0, 2], []],
        "pairs": [{"i": 0, "j": 1, "d": 2}],
        "spectrum": 2,
    })
    assert inst.links == 2 and inst.spectrum == 2
    assert inst.freq_sets[0] == frozenset({0, 2}) and inst.freq_sets[1] is None
    assert inst.separation(1, 0) == 2

    bad = [
        {},  # missing everything
        {"links": 2, "freqSets": [[], []], "pairs": [], "bogus": 1},
        {"links": 2, "freqSets": [[]], "pairs": []},  # wrong set count
        {"links": 2, "freqSets": [[], []], "pairs": [{"i": 0, "j": 1, "d": 5}]},
        {"links": 2, "freqSets": [[], []], "pairs": [{"i": 0, "j": 0, "d": 1}]},
        {"links": 2, "freqSets": [[], []], "pairs": [{"i": 0, "j": 1, "d": 0, "c": 1}]},
        {"links": 2, "freqSets": [[-1], []], "pairs": []},
        {"links": 2, "freqSets": [[], []], "pairs": [{"i": 0, "j": 1}]},
    ]
    for doc in bad:
        with pytest.raises(InputError):
            FapInstance.from_dict(doc)


def test_minimum_spectrum_zero_feeds_back_as_fixed():
    """A lone link needs no room: the least spectrum is 0, and that answer is
    itself a valid fixed spectrum."""
    doc = {"links": 1, "freqSets": [[]], "pairs": []}
    phi, fa = min_spectrum(FapInstance.from_dict(doc))
    assert phi == 0 and fa.freq == (0,)
    fixed = FapInstance.from_dict({**doc, "spectrum": phi})
    assert fixed.spectrum == 0
    assert solve_fixed_spectrum(fixed).freq == (0,)


def test_duplicate_pairs_rejected():
    with pytest.raises(InputError):
        _inst(2, [(0, 1, 1), (1, 0, 2)])


def test_gadget_sizes():
    one = expand_gadgets(_inst(2, [(0, 1, 1)]))
    assert one.graph.n == 2 and one.graph.m == 1 and not one.side_rows

    two = expand_gadgets(_inst(2, [(0, 1, 2)]))
    assert two.graph.n == 3 and two.graph.m == 2
    assert len(two.side_rows) == 2

    three = expand_gadgets(_inst(2, [(0, 1, 3)]))
    assert three.graph.n == 4 and three.graph.m == 3
    assert len(three.side_rows) == 4
    # links keep their ids; the chain's aux vertices come after, in order
    assert three.graph.edges == ((0, 2), (2, 3), (1, 3))


def test_d3_gadget_enumerated_monotonicity():
    """Every fully oriented chain state allowed by the side rows is monotone."""
    from orientcut.graphs import longest_path_labels

    inst = _inst(2, [(0, 1, 3)])
    exp = expand_gadgets(inst)
    g = exp.graph
    m = exp.graph.m
    survivors = []
    for dirs in itertools.product((0, 1), repeat=m):
        w = [0.0] * (2 * m)
        for e, b in enumerate(dirs):
            w[2 * e + b] = 1.0
        if all(r.satisfied(w, 0.0) for r in exp.side_rows):
            survivors.append([a for a in range(2 * m) if w[a] > 0.5])
    assert len(survivors) == 2
    for arcs in survivors:
        labels = longest_path_labels(g, arcs)
        assert abs(labels[0] - labels[1]) == 3


def test_fixed_spectrum_k3():
    fa = solve_fixed_spectrum(k3(spectrum=2))
    assert sorted(fa.freq) == [0, 1, 2]
    assert not fa.violated_pairs and fa.total_cost == 0
    fa.verify(k3(spectrum=2))
    with pytest.raises(InfeasibleError):
        solve_fixed_spectrum(k3(spectrum=1))


def test_fixed_spectrum_d2_edge():
    inst = _inst(2, [(0, 1, 2)], spectrum=2)
    fa = solve_fixed_spectrum(inst)
    assert sorted(fa.freq) == [0, 2]
    with pytest.raises(InfeasibleError):
        solve_fixed_spectrum(_inst(2, [(0, 1, 2)], spectrum=1))


def test_fixed_spectrum_respects_menus():
    inst = _inst(2, [(0, 1, 2)], spectrum=3, freq_sets=[[1], [3]])
    reports = []
    fa = solve_fixed_spectrum(inst, reports=reports)
    assert sorted(fa.freq) == [1, 3]
    # one search: the chain oriented from link 1 to link 0 is refused inside
    # it with a no-good row
    assert len(reports) == 1 and reports[0].cut_counts["no-good"] == 1
    # both menus stuck at the same value: provably infeasible
    stuck = _inst(2, [(0, 1, 2)], spectrum=3, freq_sets=[[0, 1], [0, 1]])
    with pytest.raises(InfeasibleError):
        solve_fixed_spectrum(stuck)


def test_fixed_spectrum_edgeless_menu_outside_spectrum():
    # no pair, so the expansion has no edge; the one empty orientation is
    # refused because link 0's only frequency lies above the spectrum
    inst = FapInstance(2, [frozenset({5}), None], [], 3)
    with pytest.raises(InfeasibleError) as err:
        solve_fixed_spectrum(inst)
    assert err.value.bound == float("inf")


def test_min_spectrum_examples():
    phi, fa = min_spectrum(k3())
    assert phi == 2
    phi, _ = min_spectrum(_inst(2, [(0, 1, 2)]))
    assert phi == 2
    phi, _ = min_spectrum(_inst(2, [(0, 1, 3)]))
    assert phi == 3


def test_min_spectrum_refuses_costs():
    inst = _inst(2, [(0, 1, 1, 2.0)])
    with pytest.raises(UnsupportedInstanceError):
        min_spectrum(inst)


def test_solvers_take_no_open_keywords():
    # these keywords once reached `solve_model`, or clashed with the ones the
    # solvers pass it
    with pytest.raises(TypeError, match="unexpected keyword"):
        min_spectrum(_inst(4, [(0, 1, 3), (0, 2, 2), (0, 3, 1), (1, 3, 1), (2, 3, 3)]),
                     feasibility_stop=True)
    for solve, inst in ((solve_fixed_spectrum, k3(2)),
                        (solve_soft_cost, _inst(2, [(0, 1, 1, 2.0)], spectrum=1))):
        with pytest.raises(TypeError, match="unexpected keyword"):
            solve(inst, use_symmetry=True)


def test_min_spectrum_matches_brute_force_sample():
    rng = random.Random(3)
    for _ in range(12):
        links = rng.randint(2, 4)
        pairs = []
        for i, j in itertools.combinations(range(links), 2):
            d = rng.choice((0, 1, 1, 2, 3))
            if d:
                pairs.append((i, j, d))
        if not pairs:
            continue
        menus = [sorted(rng.sample(range(7), rng.randint(2, 4))) if rng.random() < 0.4 else None
                 for _ in range(links)]
        inst = _inst(links, pairs, freq_sets=menus)
        try:
            want, _ = brute_force_min_spectrum(inst)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                min_spectrum(inst)
            continue
        got, fa = min_spectrum(inst)
        assert got == want, (pairs, menus)
        fa.verify(inst.with_spectrum(got))


def test_soft_cost_k3_unit():
    inst = _inst(3, [(0, 1, 1, 1.0), (0, 2, 1, 1.0), (1, 2, 1, 1.0)], spectrum=1)
    fa = solve_soft_cost(inst)
    assert fa.total_cost == pytest.approx(1.0)
    assert len(fa.violated_pairs) == 1
    fa.verify(inst)


def test_soft_cost_zero_when_spectrum_ample():
    inst = _inst(3, [(0, 1, 1, 1.0), (0, 2, 1, 1.0), (1, 2, 1, 1.0)], spectrum=2)
    fa = solve_soft_cost(inst)
    assert fa.total_cost == 0 and not fa.violated_pairs


def test_soft_cost_rejects_unsupported_shapes():
    with pytest.raises(UnsupportedInstanceError):
        solve_soft_cost(_inst(2, [(0, 1, 2, 1.0)], spectrum=2))  # soft d=2
    with pytest.raises(UnsupportedInstanceError):
        solve_soft_cost(_inst(2, [(0, 1, 1, 1.0)], spectrum=1, freq_sets=[[0], None]))
    with pytest.raises(InputError):
        solve_soft_cost(_inst(2, [(0, 1, 1, 1.0)]))  # needs a spectrum


def test_soft_cost_matches_brute_force_sample():
    rng = random.Random(5)
    for _ in range(10):
        links = rng.randint(2, 4)
        pairs = []
        for i, j in itertools.combinations(range(links), 2):
            if rng.random() < 0.7:
                pairs.append((i, j, 1, round(rng.uniform(0.5, 3.0), 2)))
        if not pairs:
            continue
        phi = rng.randint(1, 2)
        inst = _inst(links, pairs, spectrum=phi)
        want, _ = brute_force_soft_cost(inst)
        fa = solve_soft_cost(inst)
        assert fa.total_cost == pytest.approx(want), (pairs, phi)


def test_greedy_assignment_is_admissible():
    inst = _inst(3, [(0, 1, 2), (1, 2, 3)], freq_sets=[[0, 4], None, [1, 9]])
    freq = greedy_assignment(inst)
    assert freq is not None
    for p in inst.pairs:
        assert abs(freq[p.i] - freq[p.j]) >= p.d
    assert freq[0] in (0, 4) and freq[2] in (1, 9)


def test_brute_force_guards():
    big = _inst(5, [(0, 4, 1)])
    with pytest.raises(SizeRefusalError):
        brute_force_min_spectrum(big)
    with pytest.raises(SizeRefusalError):
        brute_force_fixed_spectrum(_inst(2, [(0, 1, 1)], spectrum=9))
    with pytest.raises(SizeRefusalError):
        brute_force_soft_cost(_inst(3, [(0, 1, 1, 2.0), (1, 2, 1)], spectrum=2000))


def test_brute_force_min_spectrum_tells_infeasible_from_capped():
    """Only an exhaustive scan proves infeasibility; past the cap it refuses."""
    spread = _inst(4, [(i, j, 3) for i, j in itertools.combinations(range(4), 2)])
    assert min_spectrum(spread)[0] == 9
    with pytest.raises(SizeRefusalError):
        brute_force_min_spectrum(spread)
    for far in ([[7], [0]], [None, [7]]):
        with pytest.raises(SizeRefusalError):
            brute_force_min_spectrum(_inst(2, [(0, 1, 1)], freq_sets=far))
    clash = _inst(2, [(0, 1, 2)], freq_sets=[[0, 1], [1]])
    with pytest.raises(InfeasibleError):
        brute_force_min_spectrum(clash)
    with pytest.raises(InfeasibleError):
        min_spectrum(clash)


def test_verify_catches_bad_assignments():
    inst = k3(spectrum=2)
    good = FrequencyAssignment(freq=[0, 1, 2], violated_pairs=frozenset(), total_cost=0.0)
    good.verify(inst)
    crowded = FrequencyAssignment(freq=[0, 0, 2], violated_pairs=frozenset(), total_cost=0.0)
    with pytest.raises(ContractError):
        crowded.verify(inst)
    over = FrequencyAssignment(freq=[0, 1, 3], violated_pairs=frozenset(), total_cost=0.0)
    with pytest.raises(ContractError):
        over.verify(inst)
