from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from roundlab import (
    Graph, GraphError, clique, cycle_graph, grid_graph, parallel_edges, path_graph,
    random_connected_graph,
)
import roundlab.graphs as graphs_mod
import roundlab.steiner as steiner_mod
from roundlab.steiner import (
    disjointness_bound, pack_steiner_trees, tree_terminal_diameter,
)

from oracles import (
    _tree_terminal_diameter, distances_bruteforce, greedy_packing_reference,
    lp_packing_value_bruteforce, max_integral_packing_bruteforce,
)


# ---------------------------------------------------------------------------
# pack_steiner_trees

def test_pack_parallel_edges():
    g = parallel_edges(5)
    packing = pack_steiner_trees(g, (0, 1), delta=1)
    assert packing.value == 5


def test_pack_four_cycle():
    g = cycle_graph(4)
    packing = pack_steiner_trees(g, g.terminals, delta=3)
    # frozen via the brute-force oracle over edge-disjoint tree subsets
    assert max_integral_packing_bruteforce(g, g.terminals, 3) == 1
    assert packing.value == 1


def test_pack_k4_delta2_vs_lp():
    g = clique(4)
    # integral optimum is 1 (any two diameter-2 spanning trees of K4 share
    # an edge); the fractional LP optimum is 2 (half-weight on all four
    # stars).  The greedy integral packing reaches the integral optimum.
    assert max_integral_packing_bruteforce(g, g.terminals, 2) == 1
    lp = lp_packing_value_bruteforce(g, g.terminals, 2)
    assert abs(lp - 2.0) < 1e-9
    packing = pack_steiner_trees(g, g.terminals, delta=2)
    assert packing.value == 1
    assert packing.value <= lp


def test_pack_respects_capacity_and_delta():
    for seed in range(10):
        g = random_connected_graph(7, 6, seed=700 + seed, k=3)
        for delta in (2, 3, 4):
            packing = pack_steiner_trees(g, g.terminals, delta=delta)
            packing.validate()
            for tree, _ in packing.trees:
                assert tree.diameter <= delta


@st.composite
def connected_multigraphs(draw):
    """A connected multigraph on 2..6 vertices (a random spanning tree plus
    extra edges, parallel ones allowed), 2..4 terminals and a delta in
    1..n."""
    n = draw(st.integers(2, 6))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    edges += draw(st.lists(pair, max_size=4))
    k = draw(st.integers(2, min(4, n)))
    terms = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k,
                          unique=True))
    return Graph(n, tuple(edges), tuple(terms)), draw(st.integers(1, n))


def _spans_as_tree(g, edge_ids, terms):
    verts = {v for eid in edge_ids for v in g.edges[eid]}
    dist = distances_bruteforce(g, edge_ids)[min(terms)]
    return (len(edge_ids) == len(verts) - 1 and set(terms) <= verts
            and all(dist[v] is not None for v in verts))


@settings(max_examples=150, deadline=None)
@given(connected_multigraphs())
def test_pack_matches_oracles(case):
    # the trees may keep a non-terminal leaf (the centre's own path), so
    # they are checked as trees spanning the terminals, not as pruned ones
    g, delta = case
    packing = pack_steiner_trees(g, g.terminals, delta)
    used = set()
    for tree, weight in packing.trees:
        assert weight == 1
        assert not used & tree.edge_ids
        used |= tree.edge_ids
        assert _spans_as_tree(g, tree.edge_ids, g.terminals)
        assert tree.diameter == _tree_terminal_diameter(
            g, tree.edge_ids, g.terminals) <= delta
    assert packing.value <= max_integral_packing_bruteforce(
        g, g.terminals, delta)


def test_pack_below_terminal_diameter_skips_the_search(monkeypatch):
    # path_graph(1200)'s terminals are 1200 hops apart, so at delta 1199
    # the terminal-diameter check alone decides: no BFS from every centre
    searched = []
    real = graphs_mod.bfs

    def counting(g, roots, edge_ids=None):
        searched.append(roots)
        return real(g, roots, edge_ids)

    monkeypatch.setattr(graphs_mod, "bfs", counting)
    monkeypatch.setattr(steiner_mod, "bfs", counting)
    g = path_graph(1200)
    packing = pack_steiner_trees(g, g.terminals, 1199)
    assert packing.trees == [] and packing.bound_used == 1199
    assert len(searched) <= g.k


def test_pack_disconnected_terminals_is_empty():
    g = Graph(4, ((0, 1), (2, 3)), (0, 3))
    for delta in (1, 3, 10):
        packing = pack_steiner_trees(g, g.terminals, delta)
        assert packing.trees == [] and packing.bound_used == delta


# ---------------------------------------------------------------------------
# disjointness_bound

def test_disjointness_bound_single_edge():
    g = Graph(2, ((0, 1),), (0, 1))
    res = disjointness_bound(g, (0, 1), 10)
    assert res.value == 11 and res.delta == 1


def test_disjointness_bound_parallel():
    k = 6
    g = parallel_edges(k)
    res = disjointness_bound(g, (0, 1), k)
    assert res.value == 2 and res.delta == 1


def test_disjointness_bound_grid():
    g = grid_graph(4, 4)
    res = disjointness_bound(g, g.terminals, 32)
    # frozen via the greedy packing table itself: best trade-off observed
    assert res.value == min(Fraction(32, v) + d
                            for d, v in res.packing_values.items() if v)


def test_disjointness_bound_returns_its_packing():
    for g in (grid_graph(4, 4), parallel_edges(5),
              random_connected_graph(10, 8, seed=3, k=4)):
        res = disjointness_bound(g, g.terminals, 32)
        again = pack_steiner_trees(g, g.terminals, res.delta)
        assert res.packing.trees == again.trees
        assert res.packing.value == res.packing_values[res.delta]


def test_disjointness_bound_skips_deltas_below_terminal_diameter(
        monkeypatch):
    # packing_values equal a full scan, with no packing below the diameter
    cases = [path_graph(30), grid_graph(5, 5), cycle_graph(9)]
    cases += [random_connected_graph(9, 6, seed=s, k=3) for s in range(6)]
    for g in cases:
        full = {d: len(greedy_packing_reference(g, g.terminals, d))
                for d in range(1, g.n + 1)}
        spread = max(g.distances_from(t)[u]
                     for t in g.terminals for u in g.terminals)
        packed = []
        real = steiner_mod._pack_greedy

        def recording(g2, terms, delta, scans):
            packed.append(delta)
            return real(g2, terms, delta, scans)

        with monkeypatch.context() as patch:
            patch.setattr(steiner_mod, "_pack_greedy", recording)
            res = disjointness_bound(g, g.terminals, 16)
        assert res.packing_values == full
        assert packed == list(range(spread, g.n + 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 14), st.integers(0, 12), st.integers(0, 10 ** 6),
       st.integers(2, 5), st.integers(1, 64))
def test_disjointness_bound_matches_unshared_greedy(n, extra, seed, k,
                                                    n_bits):
    # the shared centre scans leave every delta's packing as a fresh
    # greedy search finds it: values, best delta and the trees in order
    g = random_connected_graph(n, extra, seed=seed, k=min(k, n))
    ref = {d: greedy_packing_reference(g, g.terminals, d)
           for d in range(1, g.n + 1)}
    res = disjointness_bound(g, g.terminals, n_bits)
    assert res.packing_values == {d: len(trees) for d, trees in ref.items()}
    value, delta = min((Fraction(n_bits, len(trees)) + d, d)
                       for d, trees in ref.items() if trees)
    assert (res.value, res.delta) == (value, delta)
    assert [(tree.edge_ids, tree.diameter)
            for tree, _ in res.packing.trees] == ref[delta]


def test_disjointness_bound_desk_scale_bfs_calls(monkeypatch):
    # grid 12x12 made 21,661 BFS calls with a fresh centre scan per
    # residual per delta; the deltas now share each residual's scan
    searched = []
    real = graphs_mod.bfs

    def counting(g, roots, edge_ids=None):
        searched.append(roots)
        return real(g, roots, edge_ids)

    monkeypatch.setattr(graphs_mod, "bfs", counting)
    monkeypatch.setattr(steiner_mod, "bfs", counting)
    g = grid_graph(12, 12)
    disjointness_bound(g, g.terminals, 4096)
    assert len(searched) <= 3000


def test_disjointness_bound_needs_two_terminals():
    with pytest.raises(GraphError, match="two terminals"):
        disjointness_bound(path_graph(2, terminals=(1,)), (1,), 4)


def test_tree_diameter_measure():
    g = path_graph(3, terminals=(0, 3))
    assert tree_terminal_diameter(g, frozenset(range(3)), (0, 3)) == 3
