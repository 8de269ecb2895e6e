import math
import random
from fractions import Fraction

import pytest

from roundlab import (
    Graph, GraphError, clique, cycle_graph, grid_graph, parallel_edges, path_graph,
    random_connected_graph, star_graph,
)
import roundlab.steiner as steiner_mod
from roundlab.steiner import (
    ConvergenceError, HypothesisError, MatchingResult, build_steiner_tree,
    disjointness_bound,
    matching_with_paths, pack_steiner_trees, pair_terminals_on_tree,
    short_disjoint_paths, tree_from_edges, tree_terminal_diameter,
)

from oracles import (
    lp_packing_value_bruteforce, max_disjoint_paths_bruteforce,
    max_integral_packing_bruteforce,
)


# ---------------------------------------------------------------------------
# short_disjoint_paths

def test_four_cycle_opposite():
    g = cycle_graph(4, terminals=(0, 2))
    assert short_disjoint_paths(g, 0, 2, 2).value == 2
    assert short_disjoint_paths(g, 0, 2, 1).value == 0


def test_disjoint_paths_match_bruteforce():
    for seed in range(20):
        g = random_connected_graph(7, 5, seed=seed)
        a, b = g.terminals[0], g.terminals[1]
        for bound in (1, 2, 3, 4):
            got = short_disjoint_paths(g, a, b, bound).value
            want = max_disjoint_paths_bruteforce(g, a, b, bound)
            assert got == want, (seed, bound)


def test_disjoint_paths_are_disjoint_and_short():
    g = grid_graph(3, 3, terminals=(0, 8))
    pc = short_disjoint_paths(g, 0, 8, 4)
    used = set()
    for p in pc.paths:
        assert p.length <= 4
        for eid in p.edge_ids:
            assert eid not in used
            used.add(eid)


def test_target_mode_trims():
    g = clique(5, terminals=(0, 4))
    pc = short_disjoint_paths(g, 0, 4, 2, target=2)
    assert pc.value == 2


# ---------------------------------------------------------------------------
# pair_terminals_on_tree

def test_pairing_star():
    g = star_graph(4)
    edges = frozenset(range(4))
    matching, paths = pair_terminals_on_tree(g, edges, (1, 2, 3, 4), root=0)
    assert len(matching) == 2
    used = set()
    for p in paths:
        for eid in p.edge_ids:
            assert eid not in used
            used.add(eid)


def test_pairing_path_endpoints():
    g = path_graph(3)
    matching, paths = pair_terminals_on_tree(g, frozenset(range(3)), (0, 3),
                                             root=0)
    assert matching == [(0, 3)]
    assert paths[0].length == 3


def test_pairing_random_trees_disjoint():
    rng = random.Random(0)
    for case in range(25):
        n = rng.randint(4, 9)
        # random tree on n vertices
        edges = []
        for v in range(1, n):
            edges.append((rng.randrange(v), v))
        g = Graph(n, tuple(edges), tuple(range(n)))
        size = rng.choice([2, 4, 6])
        if size > n:
            continue
        subset = sorted(rng.sample(range(n), size))
        matching, paths = pair_terminals_on_tree(
            g, frozenset(range(n - 1)), subset, root=0)
        assert len(matching) == size // 2
        used = set()
        for p in paths:
            for eid in p.edge_ids:
                assert eid not in used
                used.add(eid)


def test_pairing_rejects_odd():
    g = path_graph(2)
    with pytest.raises(Exception):
        pair_terminals_on_tree(g, frozenset(range(2)), (0, 1, 2), root=0)


# ---------------------------------------------------------------------------
# matching_with_paths

def test_matching_clique_terminals():
    g = clique(4)
    res = matching_with_paths(g, (0, 1, 2, 3), path_budget=1, max_hops=1,
                              seed=0)
    assert len(res.matching) == 2
    assert all(p.length <= 16 for p in res.paths)


def test_matching_two_terminals():
    g = path_graph(2, terminals=(0, 2))
    res = matching_with_paths(g, (0, 2), path_budget=1, max_hops=2, seed=0)
    assert len(res.matching) == 1


def test_matching_hypothesis_failure_names_terminal():
    g = path_graph(3, terminals=(0, 3))
    with pytest.raises(HypothesisError) as exc:
        matching_with_paths(g, (0, 3), path_budget=2, max_hops=3, seed=0)
    assert exc.value.terminal == 3
    assert exc.value.found == 1


def test_matching_guarantees_over_seeds():
    g = grid_graph(3, 3, terminals=(0, 2, 6, 8))
    hops = 4
    for seed in range(100):
        res = matching_with_paths(g, (0, 2, 6, 8), path_budget=1,
                                  max_hops=hops, seed=seed)
        assert 4 * len(res.matching) >= 4
        assert all(p.length <= 16 * hops for p in res.paths)


def test_matching_edge_frequency():
    # empirical per-edge usage over seeds stays near the 4/p guarantee
    g = clique(6, terminals=(0, 1, 2, 3))
    hops, budget = 2, 3
    runs = 200
    hits = {}
    for seed in range(runs):
        res = matching_with_paths(g, (0, 1, 2, 3), path_budget=budget,
                                  max_hops=hops, seed=seed)
        for p in res.paths:
            for eid in set(p.edge_ids):
                hits[eid] = hits.get(eid, 0) + 1
    tolerance = 0.25
    for eid, count in hits.items():
        assert count / runs <= 4 / budget + tolerance


# ---------------------------------------------------------------------------
# build_steiner_tree

def test_build_tree_clique():
    g = clique(4)
    tree = build_steiner_tree(g, g.terminals, max_hops=1, path_budget=1,
                              seed=0)
    assert tree.diameter <= 64 * 1 * math.log2(4)


def test_build_tree_two_terminals_is_short_path():
    g = grid_graph(2, 3, terminals=(0, 5))
    tree = build_steiner_tree(g, (0, 5), max_hops=3, path_budget=1, seed=1)
    assert tree.diameter <= 16 * 3


def test_build_tree_grid_over_seeds():
    g = grid_graph(3, 3, terminals=(0, 2, 6, 8))
    hops = 4
    bound = 64 * hops * math.log2(4)
    for seed in range(100):
        tree = build_steiner_tree(g, g.terminals, max_hops=hops,
                                  path_budget=1, seed=seed)
        assert tree.diameter <= bound
        # tree really spans the terminals and is a tree
        tree_from_edges(g, tree.edge_ids, g.terminals)


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


def test_pack_sampled_value_and_monotonicity(monkeypatch):
    monkeypatch.setattr(steiner_mod, "PACKING_SAMPLES", 12)
    g = grid_graph(2, 3, terminals=(0, 2, 3, 5))
    values = []
    for delta in (3, 4, 5):
        packing = pack_steiner_trees(g, g.terminals, delta=delta,
                                     mode="sample", seed=11)
        packing.validate()
        values.append(packing.value)
        budget = packing.meta["path_budget"]
        if budget:
            assert packing.value == Fraction(budget, 16 * 2)
    assert values == sorted(values)


def test_pack_sampled_empty_when_too_tight():
    g = path_graph(3, terminals=(0, 3))
    packing = pack_steiner_trees(g, (0, 3), delta=2, mode="sample", seed=0)
    assert packing.value == 0


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
        full = {d: steiner_mod._pack_greedy(g, g.terminals, d).value
                for d in range(1, g.n + 1)}
        spread = max(g.distances_from(t)[u]
                     for t in g.terminals for u in g.terminals)
        packed = []
        real = steiner_mod._pack_greedy

        def recording(g2, terms, delta):
            packed.append(delta)
            return real(g2, terms, delta)

        with monkeypatch.context() as patch:
            patch.setattr(steiner_mod, "_pack_greedy", recording)
            res = disjointness_bound(g, g.terminals, 16)
        assert res.packing_values == full
        assert packed == list(range(spread, g.n + 1))


def test_disjointness_bound_needs_two_terminals():
    with pytest.raises(GraphError, match="two terminals"):
        disjointness_bound(path_graph(2, terminals=(1,)), (1,), 4)


def test_tree_diameter_measure():
    g = path_graph(3, terminals=(0, 3))
    assert tree_terminal_diameter(g, frozenset(range(3)), (0, 3)) == 3


def test_short_disjoint_paths_past_recursion_ceiling():
    # 1,760 candidate paths; the recursive search raised RecursionError
    pc = short_disjoint_paths(grid_graph(5, 5), 0, 24, 14)
    assert pc.value == 2   # the corner degree
    assert len({e for p in pc.paths for e in p.edge_ids}) == \
        sum(p.length for p in pc.paths)


def test_build_steiner_tree_convergence_error(monkeypatch):
    def stuck(g, k_prime, path_budget, max_hops, seed):
        return MatchingResult((), ())

    monkeypatch.setattr(steiner_mod, "matching_with_paths", stuck)
    g = clique(4)
    with pytest.raises(ConvergenceError, match="4 of 4 terminals left"):
        build_steiner_tree(g, g.terminals, 2, 1, seed=0)
