import itertools

import pytest

from orientcut.errors import ContractError, InputError
from orientcut.graphs import (
    UndirectedGraph,
    complete_graph,
    cycle_arc_list,
    cycle_graph,
    dag_longest_path,
    enumerate_cycles,
    enumerate_paths_k,
    find_directed_cycle,
    greedy_clique,
    greedy_coloring,
    is_acyclic,
    least_labels,
    longest_path_labels,
    max_path_load,
    order_arcs,
    path_arc_list,
    path_graph,
    paw_graph,
    petersen_graph,
    source_decomposition,
    star_graph,
)

from conftest import BATTERY, queen_graph


def test_undirected_graph_basics():
    g = UndirectedGraph(4, [(0, 1), (2, 1), (2, 3)])
    assert g.n == 4 and g.m == 3
    assert g.edges == ((0, 1), (1, 2), (2, 3))
    assert g.has_edge(1, 0) and not g.has_edge(0, 3)
    assert g.degree(1) == 2 and g.degree(3) == 1
    assert g.edge_index(2, 1) == 1


def test_undirected_graph_rejects_bad_input():
    with pytest.raises(InputError):
        UndirectedGraph(2, [(0, 0)])
    with pytest.raises(InputError):
        UndirectedGraph(2, [(0, 2)])
    with pytest.raises(InputError):
        UndirectedGraph(-1, [])


def test_duplicate_edges_rejected():
    with pytest.raises(InputError):
        UndirectedGraph(3, [(0, 1), (1, 0), (1, 2)])


def test_components_and_induced_subgraph():
    g = UndirectedGraph(5, [(0, 1), (3, 4)])
    comps = g.components()
    assert sorted(map(sorted, comps)) == [[0, 1], [2], [3, 4]]
    sub, back = g.induced_subgraph([3, 4])
    assert sub.n == 2 and sub.edges == ((0, 1),)
    assert back == [3, 4]


def test_arc_indexing_round_trips():
    g = paw_graph()
    for e, (u, v) in enumerate(g.edges):
        assert g.arc(u, v) == 2 * e
        assert g.arc(v, u) == 2 * e + 1
        assert (g.tails[2 * e], g.heads[2 * e]) == (u, v)
        assert (g.tails[2 * e + 1], g.heads[2 * e + 1]) == (v, u)


def test_orientation_constructors_agree():
    g = complete_graph(3)
    arcs = order_arcs(g, [2, 0, 1])
    # every edge points away from the earlier vertex in the order
    assert arcs == {g.arc(2, 0), g.arc(2, 1), g.arc(0, 1)}


def _brute_cycles(g, max_len):
    """All directed simple cycles as canonical vertex tuples, via permutations."""
    seen = set()
    n = g.n
    for size in range(2, max_len + 1):
        for verts in itertools.permutations(range(n), size):
            if verts[0] != min(verts):
                continue
            ok = all(g.has_edge(verts[i], verts[(i + 1) % size])
                     for i in range(size))
            if ok:
                seen.add(verts)
    return seen


def test_enumerate_cycles_matches_permutation_scan():
    for g in (complete_graph(4), paw_graph(), cycle_graph(5)):
        got = {c for c in enumerate_cycles(g, 4) if len(c) <= 4}
        want = _brute_cycles(g, 4)
        assert got == want


def test_enumerate_paths_k_matches_permutation_scan():
    g = paw_graph()
    for k in (1, 2, 3):
        got = set(enumerate_paths_k(g, k))
        want = {p for p in itertools.permutations(range(g.n), k + 1)
                if all(g.has_edge(p[i], p[i + 1]) for i in range(k))}
        assert got == want


def test_path_and_cycle_arc_lists():
    g = cycle_graph(4)
    arcs = path_arc_list(g, (0, 1, 2))
    assert arcs == [g.arc(0, 1), g.arc(1, 2)]
    cyc = cycle_arc_list(g, (0, 1, 2, 3))
    assert cyc == [g.arc(0, 1), g.arc(1, 2), g.arc(2, 3), g.arc(3, 0)]


def test_acyclicity_and_cycle_witness():
    g = complete_graph(3)
    tri = [g.arc(0, 1), g.arc(1, 2), g.arc(2, 0)]
    assert not is_acyclic(g, tri)
    wit = find_directed_cycle(g, tri)
    assert wit is not None
    assert all(g.arc(wit[i], wit[(i + 1) % len(wit)]) in tri for i in range(len(wit)))
    transitive = [g.arc(0, 1), g.arc(1, 2), g.arc(0, 2)]
    assert is_acyclic(g, transitive)
    assert find_directed_cycle(g, transitive) is None


def _arc_sets(rng, g):
    """An acyclic orientation of g, the same with one and with two edges
    reversed, and an arbitrary arc subset that may hold both arcs of an edge."""
    order = list(range(g.n))
    rng.shuffle(order)
    arcs = set(order_arcs(g, order))
    yield frozenset(arcs)
    for flips in (1, 2):
        flipped = set(arcs)
        for a in rng.sample(sorted(arcs), min(flips, len(arcs))):
            flipped ^= {a, a ^ 1}
        yield frozenset(flipped)
    yield frozenset(a for a in range(2 * g.m) if rng.random() < 0.5)


def test_find_directed_cycle_agrees_with_brute_force(rng):
    """None exactly when no enumerated cycle lies inside the arc set;
    otherwise distinct vertices whose arcs, closing arc included, all do."""
    cyclic = 0
    for _ in range(300):
        n = rng.randint(1, 7)
        p = rng.random()
        g = UndirectedGraph(n, [e for e in itertools.combinations(range(n), 2)
                                if rng.random() < p])
        cycles = [frozenset(cycle_arc_list(g, c)) for c in enumerate_cycles(g, max(n, 2))]
        for arcs in _arc_sets(rng, g):
            found = find_directed_cycle(g, arcs)
            if found is None:
                assert not any(c <= arcs for c in cycles)
                continue
            cyclic += 1
            assert len(found) >= 2 and len(set(found)) == len(found)
            assert set(cycle_arc_list(g, found)) <= arcs
    assert cyclic > 200


def test_longest_path_labels_count_arcs():
    g = path_graph(4)
    arcs = [g.arc(0, 1), g.arc(1, 2), g.arc(2, 3)]
    assert longest_path_labels(g, arcs) == [0, 1, 2, 3]
    assert dag_longest_path(g, arcs) == 3
    # orient the middle edge backwards: two 1-arc paths
    arcs = [g.arc(0, 1), g.arc(2, 1), g.arc(2, 3)]
    assert dag_longest_path(g, arcs) == 1


def test_least_labels_is_the_least_labeling(rng):
    """Against an exhaustive scan of the labelings in [0, top] on every arc
    subset of small graphs, cyclic ones and reverse pairs included, with no
    menus, random menus and menus with None entries: None exactly when no
    labeling with f(u) < f(v) on each arc and each f(v) in its menu exists,
    and otherwise such a labeling, pointwise at most every other one."""
    graphs = [path_graph(3), complete_graph(3), star_graph(3), cycle_graph(4), paw_graph(),
              path_graph(5), UndirectedGraph(5, [(0, 1), (1, 2), (3, 4)])]
    found = refused = 0
    for g in graphs:
        for top in range(4):
            for menu_draw in range(3):
                menus = None if menu_draw == 0 else [
                    None if menu_draw == 2 and rng.random() < 0.5 else
                    tuple(sorted(rng.sample(range(top + 2), rng.randint(1, min(3, top + 2)))))
                    for _ in range(g.n)]
                allowed = [range(top + 1) if menus is None or menus[v] is None
                           else [x for x in menus[v] if x <= top] for v in range(g.n)]
                # each labeling with the bitmask of the arcs it rises along
                labelings = [(f, sum(1 << a for a in range(g.num_arcs)
                                     if f[g.tails[a]] < f[g.heads[a]]))
                             for f in itertools.product(*allowed)]
                for mask in range(1 << g.num_arcs):
                    arcs = [a for a in range(g.num_arcs) if mask >> a & 1]
                    valid = [f for f, rises in labelings if mask & ~rises == 0]
                    got = least_labels(g, arcs, top, menus)
                    if not valid:
                        assert got is None, (g.edges, arcs, top, menus)
                        refused += 1
                        continue
                    assert got == [min(f[v] for f in valid) for v in range(g.n)], \
                        (g.edges, arcs, top, menus)
                    found += 1
    assert found > 1000 and refused > 1000, (found, refused)


def test_source_decomposition_layers_are_proper_coloring():
    g = petersen_graph()
    layers = source_decomposition(g, order_arcs(g, range(g.n)))
    color = {}
    for i, layer in enumerate(layers):
        for v in layer:
            color[v] = i
    assert sorted(color) == list(range(g.n))
    for u, v in g.edges:
        assert color[u] != color[v]


def _peeled_layers(g, arcs):
    """Reference: strip the in-degree-zero vertices until none remain."""
    remaining = set(range(g.n))
    active = set(arcs)
    layers = []
    while remaining:
        indeg = {v: 0 for v in remaining}
        for a in active:
            indeg[g.heads[a]] += 1
        layer = sorted(v for v in remaining if indeg[v] == 0)
        layers.append(layer)
        remaining -= set(layer)
        active = {a for a in active if g.tails[a] in remaining}
    return layers


def test_source_decomposition_matches_peeling(rng):
    """Full orientations and partial arc sets of seeded G(n, p) draws."""
    for _ in range(600):
        n = rng.randint(1, 12)
        p = rng.random()
        g = UndirectedGraph(n, [e for e in itertools.combinations(range(n), 2)
                                if rng.random() < p])
        order = list(range(n))
        rng.shuffle(order)
        arcs = order_arcs(g, order)
        for keep in (1.0, 0.5):
            chosen = [a for a in sorted(arcs) if rng.random() < keep]
            assert source_decomposition(g, chosen) == _peeled_layers(g, chosen)
    g = complete_graph(3)
    with pytest.raises(ContractError):
        source_decomposition(g, [g.arc(0, 1), g.arc(1, 2), g.arc(2, 0)])


def test_max_path_load_counts_selected_arcs():
    g = path_graph(5)
    chain = [g.arc(i, i + 1) for i in range(4)]
    load, witness = max_path_load(g, chain, 3)
    assert load == 3
    assert witness is not None and len(witness) == 4
    load, witness = max_path_load(g, [chain[0], chain[2]], 4)
    assert load == 2
    # no 5-arc path exists on 5 vertices
    load, witness = max_path_load(g, chain, 5)
    assert (load, witness) == (0, None)


def test_greedy_helpers():
    g = paw_graph()
    clique = greedy_clique(g)
    assert len(clique) == 3
    assert all(g.has_edge(u, v) for u, v in itertools.combinations(clique, 2))
    assert max(greedy_coloring(g)) + 1 <= 4
    for name, bg, _ in BATTERY:
        colors = greedy_coloring(bg)
        assert all(colors[u] != colors[v] for u, v in bg.edges), name


def test_greedy_coloring_is_dsatur():
    # A 6-cycle 0-3-4-1-2-5 with vertex 6 joined to 1 and 2. By hand: 1 first
    # (largest degree, smallest index), then 2 (saturation ties with 4 and 6,
    # largest degree), 6 (saturation 2), then 4, 3, 0, 5 on smallest index.
    g = UndirectedGraph(7, [(0, 3), (0, 5), (2, 1), (2, 5), (4, 1), (4, 3), (6, 1), (6, 2)])
    assert greedy_coloring(g) == [1, 0, 1, 0, 1, 0, 2]


def _grown_clique(g):
    """Reference: grow a clique from every seed, both seeds and candidates
    by falling degree, then index, testing each candidate edge by edge."""
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    best = []
    for s in order:
        clique = [s]
        for v in order:
            if all(g.has_edge(v, u) for u in clique):
                clique.append(v)
        if len(clique) > len(best):
            best = clique
    return sorted(best)


def test_greedy_clique_grows_from_every_seed(rng):
    """queen6's rows are 6-cliques, and beside a disjoint K7 every vertex of
    queen6 outranks the K7's by degree; the 8 highest-degree seeds alone
    find 5 in both. On G(n, p) draws it returns the reference's clique."""
    board = queen_graph(6)
    k7 = [(36 + i, 36 + j) for i, j in itertools.combinations(range(7), 2)]
    for g, size in ((board, 6), (UndirectedGraph(43, list(board.edges) + k7), 7)):
        clique = greedy_clique(g)
        assert len(clique) == size
        assert all(g.has_edge(u, v) for u, v in itertools.combinations(clique, 2))
    for _ in range(200):
        n, p = rng.randint(1, 14), rng.random()
        g = UndirectedGraph(n, [e for e in itertools.combinations(range(n), 2)
                                if rng.random() < p])
        assert greedy_clique(g) == _grown_clique(g), g.edges


@pytest.mark.parametrize("k", [4, 5])
def test_greedy_coloring_meets_the_queen_clique(k):
    # Both boards have a 5-clique, so 5 colours is optimal.
    assert max(greedy_coloring(queen_graph(k))) + 1 == 5


def test_named_constructors():
    assert petersen_graph().m == 15
    assert star_graph(4).m == 4 and star_graph(4).n == 5
    assert set(cycle_graph(3).edges) == set(complete_graph(3).edges)
    assert path_graph(1).m == 0
    with pytest.raises(InputError):
        cycle_graph(2)
