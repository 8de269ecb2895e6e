import math
from fractions import Fraction

import pytest

from roundlab import Graph, clique, cycle_graph, ring_of_cliques, parallel_edges
from roundlab.expanders import cut_matching_embed, expansion
from roundlab.timed import validate_timed_path

from oracles import expansion_bruteforce


def test_expansion_k4():
    assert expansion(clique(4)) == 2


def test_expansion_c6():
    assert expansion(cycle_graph(6)) == Fraction(2, 3)
    assert expansion_bruteforce(cycle_graph(6).edges, 6) == Fraction(2, 3)


def test_expansion_disconnected_is_zero():
    g = Graph(4, ((0, 1), (2, 3)), (0, 1, 2, 3))
    assert expansion(g) == 0


def test_expansion_matches_oracle_random():
    import random
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(3, 6)
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                for _ in range(rng.randint(0, 2)):
                    edges.append((u, v))
        if not edges:
            edges = [(0, 1)]
        g = Graph(n, tuple(edges), tuple(range(n)))
        assert expansion(g) == expansion_bruteforce(g.edges, n)


def test_cut_matching_clique4():
    g = clique(4)
    emb = cut_matching_embed(g, g.terminals, tau=1, n_prime=1, seed=0)
    assert emb.expansion >= Fraction(1, 2)
    assert emb.expander.n == 4
    # d-regularity of the produced multigraph
    degs = {emb.expander.degree(v) for v in range(4)}
    assert degs == {emb.d}
    for key, path in emb.paths.items():
        validate_timed_path(g, path, 1)
    assert all(c <= 2 for c in emb.congestion_per_iteration)


def test_cut_matching_k2():
    g = parallel_edges(1)
    emb = cut_matching_embed(g, (0, 1), tau=1, n_prime=1, seed=1)
    assert emb.d == 1
    assert emb.expansion >= Fraction(1, 2)


def test_cut_matching_ring_of_cliques():
    g = ring_of_cliques(8, 3)
    tau = max(max(g.distances_from(v)) for v in range(g.n))
    emb = cut_matching_embed(g, g.terminals, tau=tau, n_prime=1, seed=2)
    assert emb.expansion >= Fraction(1, 2)
    assert all(c <= 2 for c in emb.congestion_per_iteration)
    # mirrored twin bookkeeping: every (i,j,it) has its (j,i,it) partner
    for (i, j, it) in emb.paths:
        assert (j, i, it) in emb.paths


def test_cheeger_sandwich():
    g = clique(4)
    emb = cut_matching_embed(g, g.terminals, tau=1, n_prime=1, seed=3)
    # (d - lambda2)/2 <= expansion <= sqrt(2 d (d - lambda2))
    gap = max(emb.d - emb.lambda2, 0.0)
    lo, hi = gap / 2.0, math.sqrt(2.0 * emb.d * gap)
    phi = float(emb.expansion)
    assert lo - 1e-9 <= phi <= hi + 1e-9


def test_odd_terminal_count_rejected():
    g = clique(3)
    with pytest.raises(Exception):
        cut_matching_embed(g, (0, 1, 2), tau=1, n_prime=1, seed=0)

