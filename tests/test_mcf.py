import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import sparse
from scipy.optimize import OptimizeResult, linprog

import roundlab.mcf as mcf_mod
from roundlab import (
    Graph, GraphError, UnreachableError, clique, cycle_graph, grid_graph,
    parallel_edges, path_graph, random_connected_graph, ring_of_cliques,
)
from roundlab.mcf import (
    ArcLP, LPSolveError, _assemble_mcf_lp, _forward_bounds, mcf_feasible,
    route_unit_demands, tau_mcf, tau_mcf_flow_bound, tau_mcf_lower_bound,
)
from roundlab.timed import tau_route

from oracles import (
    cut_bounds_exhaustive, cut_flow_bound_reference, flow_bound_reference,
    forward_bounds_reference, mcf_feasible_bruteforce, mcf_lp_reference,
    route_unit_demands_reference, terminal_bipartitions, timed_arcs,
)


def _uniform(terminals, n_prime):
    """The uniform demand {s: {t: n'/k}} that tau_mcf hands the LP."""
    share = Fraction(n_prime) / len(terminals)
    return {s: {t: share for t in terminals if t != s} for s in terminals}


def test_tau_mcf_clique_identity():
    # on a clique the uniform demand takes exactly ceil(n'/k) rounds
    for k in (2, 3, 4):
        g = clique(k)
        for n_prime in (1, 2, 5, 8):
            assert tau_mcf(g, g.terminals, [n_prime]) == \
                {n_prime: -(-n_prime // k)}


def test_tau_mcf_single_edge():
    g = Graph(2, ((0, 1),), (0, 1))
    assert tau_mcf(g, (0, 1), [2]) == {2: 1}


def test_tau_mcf_path():
    g = path_graph(2, terminals=(0, 2))
    # checked against the path-form LP oracle
    assert not mcf_feasible_bruteforce(g, {(0, 2): 1.0, (2, 0): 1.0}, 1)
    assert mcf_feasible_bruteforce(g, {(0, 2): 1.0, (2, 0): 1.0}, 2)
    assert tau_mcf(g, (0, 2), [2]) == {2: 2}


def test_mcf_feasibility_matches_oracle():
    for seed in range(8):
        g = random_connected_graph(5, 3, seed=seed, k=3)
        terms = g.terminals
        demand = _uniform(terms, 2)
        pairs = {(s, t): float(amt) for s, row in demand.items()
                 for t, amt in row.items()}
        for tau in (1, 2, 3):
            assert mcf_feasible(g, demand, tau) == \
                mcf_feasible_bruteforce(g, pairs, tau), (seed, tau)


def test_mcf_feasible_checks_the_horizon_sign(monkeypatch):
    # a negative horizon is refused, and no demand moves in zero rounds:
    # neither refines classes nor solves an LP
    def no_lp(*args, **kwargs):
        raise AssertionError("refined or solved an LP")

    monkeypatch.setattr(mcf_mod.ArcLP, "of", no_lp)
    monkeypatch.setattr(mcf_mod, "linprog", no_lp)
    g = clique(3)
    demand = _uniform(g.terminals, 2)
    with pytest.raises(GraphError, match="^horizon must be nonnegative$"):
        mcf_feasible(g, demand, -1)
    assert mcf_feasible(g, demand, 0) is False


def test_tau_mcf_subadditive():
    for seed in range(10):
        g = random_connected_graph(5, 3, seed=50 + seed, k=3)
        taus = tau_mcf(g, g.terminals, [2, 7])
        assert taus[7] <= -(-7 // 2) * taus[2]


def _tau_mcf_cases():
    cases = [(clique(k), n) for k in (2, 3, 4) for n in (1, 2, 5, 8)]
    cases.append((Graph(2, ((0, 1),), (0, 1)), 2))
    cases.append((path_graph(2, terminals=(0, 2)), 2))
    cases += [(random_connected_graph(5, 3, seed=50 + s, k=3), n)
              for s in range(10) for n in (2, 7)]
    return cases


def _tau_mcf_by_scan(g, n_prime):
    """tau_MCF by a plain upward scan of LP feasibility from tau = 1."""
    demand = _uniform(g.terminals, n_prime)
    tau = 1
    while not mcf_feasible(g, demand, tau):
        tau += 1
    return tau


def test_tau_mcf_matches_linear_scan():
    for g, n_prime in _tau_mcf_cases():
        assert tau_mcf(g, g.terminals, [n_prime]) == \
            {n_prime: _tau_mcf_by_scan(g, n_prime)}, (g, n_prime)


@st.composite
def terminal_multigraphs(draw):
    n = draw(st.integers(2, 5))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    edges = tuple(draw(st.lists(pair, min_size=1, max_size=8)))
    k = draw(st.integers(2, min(4, n)))
    terms = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k,
                          unique=True))
    return Graph(n, edges, tuple(terms))


@st.composite
def n_prime_multisets(draw):
    """A few distinct n', some of them repeated, in random order."""
    distinct = draw(st.lists(st.sampled_from(
        [Fraction(1, 2), 1, Fraction(3, 2), 2, 3, 5, 8]), min_size=1,
        max_size=4, unique=True))
    repeats = draw(st.lists(st.sampled_from(distinct), max_size=3))
    return draw(st.permutations(distinct + repeats))


@settings(max_examples=40, deadline=None)
@given(terminal_multigraphs(), n_prime_multisets())
@example(Graph(5, ((0, 2), (0, 3), (2, 4), (1, 3), (1, 4)), (1, 2, 3, 4)),
         [3, 1, 2, 3])
def test_tau_mcf_cut_bound_below_lp(g, n_primes):
    # one call decides every n', each search reading the answer at the
    # next larger n' as feasible; the scan never reads another answer.
    # The example's flow bound at n' = 3 is 2, one short of its answer
    # 3, where the answer 2 at n' = 2 must not be read as feasible
    assume(g.connected(g.terminals))
    scanned = {n_prime: _tau_mcf_by_scan(g, n_prime) for n_prime in n_primes}
    for n_prime, tau in scanned.items():
        base = tau_mcf_lower_bound(g, g.terminals, n_prime)
        assert base <= tau_mcf_flow_bound(g, g.terminals, n_prime) <= tau
    assert tau_mcf(g, g.terminals, n_primes) == scanned


def test_tau_mcf_lower_bound_on_bench_graphs():
    # the answers are 18, 33 and 24
    cases = [(grid_graph(6, 6), 32, 12), (ring_of_cliques(4, 4), 64, 32),
             (random_connected_graph(12, 10, seed=1, k=4), 32, 24)]
    for g, n_prime, bound in cases:
        assert tau_mcf_lower_bound(g, g.terminals, n_prime) == bound


def test_tau_mcf_flow_bound_on_one_edge_cuts():
    # a one-edge cut leaves the timed flows work to do: on the path they
    # lift the base-cut bound 4 to the answer 6; only where the cut edge
    # joins the two terminals (K2) do tau rounds carry exactly tau units,
    # the base-cut bound, so the flows add nothing there
    for g, bounds in ((path_graph(3), (4, 6, 6)), (clique(2), (4, 4, 4))):
        assert (tau_mcf_lower_bound(g, g.terminals, 8),
                tau_mcf_flow_bound(g, g.terminals, 8),
                tau_mcf(g, g.terminals, [8])[8]) == bounds


def _reference_flow_bound(g, n_prime):
    """The flow bound as the timed-network search finds it: the least
    horizon from the exhaustive base bound at which the reference engine's
    partition flow passes on every terminal bipartition."""
    base, _ = cut_bounds_exhaustive(g, n_prime)
    return flow_bound_reference(
        g, terminal_bipartitions(tuple(sorted(g.terminals))), n_prime, base)


@st.composite
def parallel_multigraphs(draw, max_k):
    """Multigraphs on 2..5 vertices with some edges doubled and 2..max_k
    terminals."""
    n = draw(st.integers(2, 5))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    edges = draw(st.lists(pair, min_size=1, max_size=7))
    edges += draw(st.lists(st.sampled_from(edges), max_size=2))
    k = draw(st.integers(2, min(max_k, n)))
    terms = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k,
                          unique=True))
    return Graph(n, tuple(edges), tuple(terms))


TWO_TERMINAL_NPRIMES = st.sampled_from(
    [Fraction(1, 2), 1, Fraction(3, 2), 2, 3, 5, 8, 13])


def _check_two_terminal_flow_bound(g, n_prime):
    # with k = 2 the flow bound is max(base, tau_route(ceil(n'/2))), the
    # horizon the timed partition-flow search finds
    n_prime = Fraction(n_prime)
    bound = tau_mcf_flow_bound(g, g.terminals, n_prime)
    assert bound == _reference_flow_bound(g, n_prime)
    assert bound == max(tau_mcf_lower_bound(g, g.terminals, n_prime),
                        tau_route(g, *g.terminals, -(-n_prime // 2)))


@settings(max_examples=50, deadline=None)
@given(parallel_multigraphs(2), TWO_TERMINAL_NPRIMES)
def test_two_terminal_flow_bound_is_closed_form(g, n_prime):
    assume(g.connected(g.terminals))
    _check_two_terminal_flow_bound(g, n_prime)


@pytest.mark.parametrize("g", [clique(2), parallel_edges(3)]
                         + [path_graph(length) for length in (1, 2, 3, 6)],
                         ids=["K2", "K2x3", "P1", "P2", "P3", "P6"])
def test_two_terminal_flow_bound_on_k2_and_paths(g):
    for n_prime in (Fraction(1, 3), 1, 2, 7, 8, 40):
        _check_two_terminal_flow_bound(g, n_prime)


@settings(max_examples=60, deadline=None)
@given(parallel_multigraphs(2), TWO_TERMINAL_NPRIMES)
def test_two_terminal_tau_mcf_is_least_lp_feasible_horizon(g, n_prime):
    # tau_mcf answers k = 2 from the flow bound alone; the LP routes the
    # demand there and not one round earlier, and so does the path-form
    # oracle where it enumerates few enough paths
    assume(g.connected(g.terminals))
    tau = tau_mcf(g, g.terminals, [n_prime])[n_prime]
    demand = _uniform(g.terminals, n_prime)
    pairs = {(s, t): float(amt) for s, row in demand.items()
             for t, amt in row.items()}
    for horizon, want in ((tau, True), (tau - 1, False)):
        if horizon < 1:
            continue
        assert mcf_feasible(g, demand, horizon) == want, horizon
        if _timed_path_count(g, horizon) <= 3000:
            assert mcf_feasible_bruteforce(g, pairs, horizon) == want, \
                horizon


def test_two_terminal_tau_mcf_solves_no_lp(monkeypatch):
    # the answers match the LP's upward scan, taken before linprog is
    # made to raise
    n_primes = [Fraction(1, 3), 1, Fraction(3, 2), 2, 7, 19]
    cases = [clique(2), parallel_edges(3), path_graph(3),
             random_connected_graph(8, 6, seed=3, k=2)]
    scanned = [{Fraction(n): _tau_mcf_by_scan(g, n) for n in n_primes}
               for g in cases]

    def no_lp(*args, **kwargs):
        raise AssertionError("tau_mcf solved an LP")

    monkeypatch.setattr(mcf_mod, "linprog", no_lp)
    assert [tau_mcf(g, g.terminals, n_primes) for g in cases] == scanned


@settings(max_examples=60, deadline=None)
@given(parallel_multigraphs(2),
       st.lists(TWO_TERMINAL_NPRIMES, min_size=1, max_size=5))
def test_two_terminal_tau_mcf_reads_every_n_prime_off_one_flow(g, n_primes):
    # each n' of one call as the flow bound finds it alone; disconnected
    # terminals raise
    if not g.connected(g.terminals):
        with pytest.raises(UnreachableError, match="terminals are disconnected"):
            tau_mcf(g, g.terminals, n_primes)
        return
    assert tau_mcf(g, g.terminals, n_primes) == {
        Fraction(n): tau_mcf_flow_bound(g, g.terminals, n) for n in n_primes}


def test_two_terminal_tau_mcf_solves_one_static_flow(monkeypatch):
    # the answers match the LP's upward scan, taken before the static
    # flows are counted
    g = random_connected_graph(8, 6, seed=3, k=2)
    n_primes = [1, 7, 19, Fraction(3, 2)]
    scanned = {n: _tau_mcf_by_scan(g, n) for n in n_primes}
    calls, static_flow = [], mcf_mod._static_flow

    def counting(*args):
        calls.append(args[1:])
        return static_flow(*args)

    monkeypatch.setattr(mcf_mod, "_static_flow", counting)
    assert tau_mcf(g, g.terminals, n_primes) == scanned
    assert calls == [((g.terminals[0],), (g.terminals[1],))]


@pytest.mark.parametrize("g,terminals,n_prime,message", [
    (clique(2), (0, -1), 1, "terminal -1 out of range for n=2"),
    (clique(2), (0, 0), 1, "terminal 0 is repeated"),
    (clique(2), (0, 5), 1, "terminal 5 out of range for n=2"),
    (clique(2), (0, 1.0), 1, "terminal 1.0 is not an integer"),
    (clique(2), (True, 0), 1, "terminal True is not an integer"),
    (clique(3), (2, 0, 2), 1, "terminal 2 is repeated"),
    (clique(3), [0, 3, 1], 1, "terminal 3 out of range for n=3"),
    (grid_graph(3, 3), (0,), 1, "need at least two terminals"),
    (grid_graph(6, 6), (0, 5, 30, 35), 0, "n_prime must be positive"),
    (grid_graph(6, 6), (0, 5, 30, 35), -4, "n_prime must be positive"),
    (clique(2), (0, 1), Fraction(-1, 2), "n_prime must be positive"),
], ids=["negative", "repeated", "past-n", "float", "bool", "k3-repeated",
        "k3-past-n", "one-terminal", "zero-n-prime", "negative-n-prime",
        "k2-negative-n-prime"])
def test_tau_mcf_names_a_bad_terminal(g, terminals, n_prime, message):
    # on K2, (0, -1) once answered {1: 1}, (0, 0) divided by zero and
    # (0, 5) indexed past the graph; the two bounds check alike, where
    # they once raised a bare ValueError from max() on one terminal and
    # answered the terminal diameter, 10 on grid 6x6, for n' <= 0
    for func in (tau_mcf, tau_mcf_flow_bound, tau_mcf_lower_bound):
        with pytest.raises(GraphError, match=re.escape(message)):
            func(g, terminals, [n_prime] if func is tau_mcf else n_prime)


@settings(max_examples=60, deadline=None)
@given(parallel_multigraphs(5), TWO_TERMINAL_NPRIMES)
def test_flow_bound_matches_timed_side_search(g, n_prime):
    # the exhaustive closed form over every bipartition and subset pair
    # against the reference engine's partition flows, on multigraphs with
    # parallel edges and k = 2..5; the chain cuts' own flows are some of
    # those conditions (X = T, Y = K - T)
    assume(g.connected(g.terminals))
    bound = cut_bounds_exhaustive(g, n_prime)[1]
    assert bound == _reference_flow_bound(g, n_prime)
    assert tau_mcf_flow_bound(g, g.terminals, n_prime) <= bound


@settings(max_examples=40, deadline=None)
@given(parallel_multigraphs(5), TWO_TERMINAL_NPRIMES)
def test_chain_bounds_below_exhaustive_bounds(g, n_prime):
    # any subset of the cut conditions bounds tau_MCF from below: the
    # chains' bounds are at most the exhaustive ones, which are at most
    # the LP's scanned answer
    assume(g.connected(g.terminals))
    base, bound = cut_bounds_exhaustive(g, n_prime)
    assert tau_mcf_lower_bound(g, g.terminals, n_prime) <= base <= bound
    assert tau_mcf_flow_bound(g, g.terminals, n_prime) <= bound <= \
        _tau_mcf_by_scan(g, n_prime)


@settings(max_examples=60, deadline=None)
@given(parallel_multigraphs(3), TWO_TERMINAL_NPRIMES)
def test_flow_bound_is_exact_cut_flow_search_at_three_terminals(g, n_prime):
    # at k <= 3 every bipartition is a chain one, so the bound is exactly
    # the least horizon, from the terminal diameter up, at which the timed
    # max flow from T x {0} to (K - T) x {tau} carries each bipartition's
    # share of the demand
    assume(g.connected(g.terminals))
    assert tau_mcf_flow_bound(g, g.terminals, n_prime) == \
        cut_flow_bound_reference(g, n_prime)


def test_flow_bound_on_bench_graphs():
    # tau_mcf is 18, 33 and 24 on the first three; the k = 10 graph's
    # bound was 9 with the timed side search too
    cases = [(grid_graph(6, 6), 32, 16), (ring_of_cliques(4, 4), 64, 33),
             (random_connected_graph(12, 10, seed=1, k=4), 32, 24),
             (random_connected_graph(30, 30, seed=3, k=10), 20, 9)]
    for g, n_prime, bound in cases:
        assert tau_mcf_flow_bound(g, g.terminals, n_prime) == bound


def _count_static_flows(monkeypatch, k):
    """A list that records, per static flow `mcf` runs, whether it is a
    cut's: a flow between all k terminals."""
    calls, static_flow = [], mcf_mod._static_flow

    def counting(g, xs, ys):
        calls.append(tuple(xs) if len(xs) + len(ys) == k else None)
        return static_flow(g, xs, ys)

    monkeypatch.setattr(mcf_mod, "_static_flow", counting)
    return calls


@pytest.mark.parametrize("g,n_prime,base,bound,cuts", [
    (random_connected_graph(12, 10, seed=1, k=4), 32, 24, 24, 6),
    (random_connected_graph(30, 30, seed=3, k=10), 20, 9, 9, 62),
    (random_connected_graph(30, 30, seed=3, k=14), 32, 15, 15, 141),
    (random_connected_graph(60, 60, seed=3, k=32), 32, 60, 60, 826),
], ids=["k4", "k10", "k14", "k32"])
def test_flow_bound_static_flow_count(monkeypatch, g, n_prime, base, bound,
                                      cuts):
    # static flows, not seconds, so the guard holds on a shared host.  Both
    # bounds run the chain cuts' flows and no other: the exhaustive loops
    # took 7 + 12 at k = 4, 511 + 151 at k = 10 and 14 + 10,011 at k = 14
    # (singleton cuts only), with the same bounds
    calls = _count_static_flows(monkeypatch, len(g.terminals))
    assert tau_mcf_lower_bound(g, g.terminals, n_prime) == base
    assert calls.count(None) == 0 and len(calls) == cuts
    calls.clear()
    assert tau_mcf_flow_bound(g, g.terminals, n_prime) == bound
    assert calls.count(None) == 0 and len(calls) == cuts


@pytest.mark.parametrize("g,n_primes,cuts", [
    # rand12: 6 of the 7 bipartitions of its k = 4 terminals
    (random_connected_graph(12, 10, seed=1, k=4), [8, 16, 32], 6),
    # the 21 peaks that the K3 compile of build_ed_circuit(3, 6) requests
    (clique(3), range(1, 22), 3),
])
def test_tau_mcf_cuts_once_per_call(monkeypatch, g, n_primes, cuts):
    # the min cuts of the bounds do not depend on n': every static flow of
    # one tau_mcf call is a chain bipartition's, run once, however many n'
    # it decides
    calls = _count_static_flows(monkeypatch, len(g.terminals))
    tau_mcf(g, g.terminals, n_primes)
    assert None not in calls
    assert len(set(calls)) == len(calls) == cuts


def test_tau_mcf_probe_order(monkeypatch):
    # the base-cut bound 32 is one short of ring44's answer; the flow bound
    # certifies 33, so one LP confirms it
    probes = []

    def recording_feasible(g, demand, tau):
        probes.append(tau)
        return mcf_feasible(g, demand, tau)

    monkeypatch.setattr(mcf_mod, "mcf_feasible", recording_feasible)
    g = ring_of_cliques(4, 4)
    # n' = 64 comes first and costs one LP at its flow bound 33; n' = 63's
    # flow bound 33 meets that answer: no LP; n' = 62 costs one LP at its
    # flow bound 32, which holds
    assert tau_mcf(g, g.terminals, [62, 63, 64]) == {62: 32, 63: 33, 64: 33}
    assert probes == [33, 32]


def test_route_unit_demands_basic():
    g = clique(4)
    assert route_unit_demands(g, [], 0) == []
    units = [(0, 1), (1, 2), (2, 3), (3, 0)]
    paths = route_unit_demands(g, units, 1)
    assert paths is not None
    used = set()
    for p in paths:
        for key in p.steps():
            if key[1] is not None:
                assert key not in used
                used.add(key)


def test_route_unit_demands_contention():
    g = Graph(2, ((0, 1),), (0, 1))
    assert route_unit_demands(g, [(0, 1), (0, 1)], 1) is None
    paths = route_unit_demands(g, [(0, 1), (0, 1)], 2)
    assert paths is not None and len(paths) == 2


@st.composite
def unit_demands(draw):
    """A parallel multigraph and 1..15 unit (src, dst) demands on it."""
    g = draw(parallel_multigraphs(2))
    vertex = st.integers(0, g.n - 1)
    return g, draw(st.lists(st.tuples(vertex, vertex), min_size=1,
                            max_size=15))


@settings(max_examples=150, deadline=None)
@given(unit_demands(), st.integers(0, 8))
# farthest first routes; in index order (1, 2) takes the arc 1 -> 2 in
# layer 1, which (0, 2) needs
@example((path_graph(2), [(1, 2), (0, 2)]), 2)
# both orders route, on different arcs
@example((Graph(3, ((0, 1), (1, 2), (0, 1)), (0, 2)), [(1, 0), (2, 0)]), 2)
# farthest first fails; nearest first and index order route
@example((Graph(4, ((0, 1), (0, 3), (2, 1), (3, 2), (2, 1), (0, 3)), (0, 1)),
          [(0, 1), (2, 0), (0, 1), (2, 0), (3, 1)]), 2)
def test_route_unit_demands_matches_reference(demands, horizon):
    # the router on the timed arc index takes the arc-key reference's
    # paths, in its order, and fails where it fails
    g, units = demands
    assert route_unit_demands(g, units, horizon) == \
        route_unit_demands_reference(g, units, horizon)


# ---------------------------------------------------------------------------
# the quotient LP against the entry-by-entry reference of the full LP

def _lp_cases():
    for g in (grid_graph(6, 6), ring_of_cliques(4, 4),
              random_connected_graph(12, 10, seed=1, k=4), parallel_edges(3)):
        terms = g.terminals
        single = {terms[0]: {v: 0.5 for v in terms}}
        all_pairs = {u: {v: 0.75 for v in terms if v != u} for u in terms}
        for tau in (1, 2, 7):
            yield g, tau, single
            yield g, tau, all_pairs


def _singleton_classes(monkeypatch):
    """Make every class of `mcf._colour_classes` a singleton, so that
    each quotient LP is the full LP."""
    monkeypatch.setattr(
        mcf_mod, "_colour_classes", lambda g, by_source, tails, heads,
        forward: (
            list(range(len(forward))), list(range(len(by_source) * g.n)),
            list(range(2 * g.m))))


def _layer_major(g, tau, reference):
    """`mcf_lp_reference`'s (cost, A_ub, b_ub, A_eq, b_eq, bounds)
    renumbered layer-major: its column (s, l, a), commodity s's flow on
    arc a of layer l, becomes l k (2m + n) + s (2m + n) + a, and its row
    (s, v, l) becomes l k n + s n + v.  Its capacity rows, l 2m + a, keep
    their numbers.  A row's (s, v, l) is read off the reference's own
    entries: the tail of an arc's +1 entry, the head of its -1 entry."""
    cost, a_ub, b_ub, a_eq, b_eq, bounds = reference
    arcs = timed_arcs(g, 1)
    per_layer, k = len(arcs), cost.size // (tau * len(arcs))
    s, layer, a = np.unravel_index(np.arange(cost.size),
                                   (k, tau, per_layer))
    col = (layer * k + s) * per_layer + a
    row = np.empty(b_eq.size, dtype=np.int64)
    for r, j, x in zip(a_eq.row, a_eq.col, a_eq.data):
        _, _, tail, head = arcs[a[j]]
        v, at = (tail, layer[j]) if x > 0 else (head, layer[j] + 1)
        row[r] = (at * k + s[j]) * g.n + v

    def permuted(vector, index):
        out = np.empty_like(vector)
        out[index] = vector
        return out

    def renumbered(matrix, rows):
        return sparse.coo_matrix((matrix.data, (rows, col[matrix.col])),
                                 shape=matrix.shape)

    return (permuted(cost, col), renumbered(a_ub, a_ub.row), b_ub,
            renumbered(a_eq, row[a_eq.row]), permuted(b_eq, row),
            permuted(bounds, col))


def test_lp_assembly_matches_reference(monkeypatch):
    # the quotient by singleton classes is the full LP laid out
    # layer-major, entry for entry: each matrix as the CSC form linprog
    # hands HiGHS, whose pivots depend on that order
    _singleton_classes(monkeypatch)
    for g, tau, demands in _lp_cases():
        lp = ArcLP.of(g, demands)
        got = _assemble_mcf_lp(lp, tau) + (_forward_bounds(lp, tau),)
        want = _layer_major(g, tau, mcf_lp_reference(g, tau, demands) + (
            forward_bounds_reference(g, tau, demands),))
        for name, a, b in zip(
                ("cost", "A_ub", "b_ub", "A_eq", "b_eq", "bounds"), got, want):
            assert a.shape == b.shape, (name, g, tau)
            parts = (("indptr", "indices", "data") if name.startswith("A_")
                     else (None,))
            if parts[0]:
                a, b = sparse.csc_array(a), sparse.csc_array(b)
            for part in parts:
                x = a if part is None else getattr(a, part)
                y = b if part is None else getattr(b, part)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), \
                    (name, part, g, tau)


def test_tau_mcf_unchanged_with_reference_assembly(monkeypatch):
    # every probe on the full reference LP in place of the quotient
    cases = _tau_mcf_cases()

    def values():
        return [tau_mcf(g, g.terminals, [n]) for g, n in cases]

    quotient = values()
    _singleton_classes(monkeypatch)
    monkeypatch.setattr(
        mcf_mod, "_assemble_mcf_lp",
        lambda lp, tau: mcf_lp_reference(lp.graph, tau, lp.by_source))
    assert values() == quotient


def _lifted_labels(g, tau, demands, a_eq):
    """The classes of `_colour_classes` lifted to (class, layer) on the
    reference LP's columns, A_eq rows and A_ub rows."""
    sources = sorted(demands)
    forward = forward_bounds_reference(g, 1, sources)[:, 1] > 0
    arcs = [(u, v) for _, _, u, v in timed_arcs(g, 1)]
    col, row, cap = mcf_mod._colour_classes(
        g, demands, [u for u, _ in arcs], [v for _, v in arcs],
        forward.tolist())
    per_layer, n_edge = len(arcs), 2 * g.m
    cols = []
    for si in range(len(sources)):
        for layer in range(tau):
            cols += [(col[si * per_layer + a], layer)
                     for a in range(per_layer)]
    rows = [None] * a_eq.shape[0]
    for r, j, x in zip(a_eq.row, a_eq.col, a_eq.data):
        si, rest = divmod(int(j), tau * per_layer)
        layer, a = divmod(rest, per_layer)
        v = arcs[a][0] if x > 0 else arcs[a][1]
        rows[r] = (row[si * g.n + v], layer + (x < 0))
    caps = [(cap[a], layer) for layer in range(tau) for a in range(n_edge)]
    return cols, rows, caps


def _class_matrix(labels):
    """The 0/1 matrix of members (rows) by classes (columns)."""
    ids = {}
    index = [ids.setdefault(label, len(ids)) for label in labels]
    return sparse.csr_matrix((np.ones(len(index)), (range(len(index)),
                                                    index)),
                             shape=(len(index), len(ids))), index


def _constant_on_classes(values, index):
    by_class = {}
    for value, label in zip(np.asarray(values).tolist(), index):
        by_class.setdefault(label, value)
        if by_class[label] != value:
            return False
    return True


def _uniform_rows(matrix, index):
    """Whether the rows of `matrix` in each class are equal."""
    dense = matrix.toarray()
    first = {}
    for r, label in enumerate(index):
        first.setdefault(label, r)
    return all((dense[r] == dense[first[label]]).all()
               for r, label in enumerate(index))


def test_classes_are_equitable():
    # with P and Q the class matrices of columns and rows: every row of a
    # class has the same sums over each column class (A P), every column
    # of a class the same sums over each row class (Q^T A), and b, the
    # cost and the restricted stage's bounds are constant on classes
    cases = list(_lp_cases()) + [
        (cycle_graph(6, (0, 2, 4)), 3,
         {s: {t: 1 + (t - s) % 6 for t in (0, 2, 4) if t != s}
          for s in (0, 2, 4)})]
    for g, tau, demands in cases:
        cost, a_ub, b_ub, a_eq, b_eq = mcf_lp_reference(g, tau, demands)
        cols, rows, caps = _lifted_labels(g, tau, demands, a_eq)
        a = sparse.vstack([a_eq, a_ub]).tocsr()
        p, col_index = _class_matrix(cols)
        q, row_index = _class_matrix(
            [("eq",) + r for r in rows] + [("ub",) + c for c in caps])
        assert _uniform_rows(a @ p, row_index), (g, tau)
        assert _uniform_rows((q.T @ a).T.tocsr(), col_index), (g, tau)
        assert _constant_on_classes(np.concatenate([b_eq, b_ub]), row_index)
        assert _constant_on_classes(cost, col_index)
        bounds = forward_bounds_reference(g, tau, demands)
        assert _constant_on_classes(bounds[:, 1], col_index)


def test_column_class_counts_on_bench_instances():
    # counted, not timed: a weaker refinement shows here as a number
    cases = [(grid_graph(6, 6), 32), (ring_of_cliques(4, 4), 64),
             (random_connected_graph(12, 10, seed=1, k=4), 32), (clique(2), 1)]
    counts = []
    for g, n_prime in cases:
        lp = ArcLP.of(g, _uniform(g.terminals, n_prime))
        counts.append((lp.col_cost.size, g.k * (2 * g.m + g.n)))
    assert counts == [(81, 624), (48, 288), (208, 216), (4, 8)]


def test_scaled_demand_keeps_its_classes():
    # a positive multiple of a demand refines to the same classes, so
    # `scaled` reuses them; an ArcLP answers only for its own graph
    g = cycle_graph(6, (0, 2, 4))
    demand = {s: {t: 1 + (t - s) % 6 for t in (0, 2, 4) if t != s}
              for s in (0, 2, 4)}
    lp = ArcLP.of(g, demand).scaled(Fraction(3, 2))
    assert lp.by_source == {s: {t: Fraction(3, 2) * amt
                                for t, amt in row.items()}
                            for s, row in demand.items()}
    again = ArcLP.of(g, lp.by_source)
    for got, want in zip(lp[2:], again[2:]):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for factor in (0, -1):
        with pytest.raises(ValueError, match="not positive"):
            lp.scaled(factor)
    with pytest.raises(ValueError, match="another graph"):
        mcf_feasible(cycle_graph(6, (0, 2, 4)), lp, 2)


def test_tau_mcf_refines_once_per_call(monkeypatch):
    # the n'-demands of one call are the unit demand scaled: three n', one
    # refinement
    demands, refine = [], mcf_mod._colour_classes

    def recording_refine(g, by_source, *rest):
        demands.append(by_source)
        return refine(g, by_source, *rest)

    monkeypatch.setattr(mcf_mod, "_colour_classes", recording_refine)
    g = ring_of_cliques(4, 4)
    assert tau_mcf(g, g.terminals, [62, 63, 64]) == {62: 32, 63: 33, 64: 33}
    assert demands == [_uniform(g.terminals, len(g.terminals))]


# ---------------------------------------------------------------------------
# two stages: the restricted (forward-arc) LP certifies, the full LP decides

def _solve_stages(cost, a_ub, b_ub, a_eq, b_eq, bounds):
    """The optimum of one LP in each stage (restricted, full), None where
    it is infeasible."""
    kwargs = dict(A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, method="highs")
    results = [linprog(cost, bounds=stage, **kwargs)
               for stage in (bounds, (0, None))]
    assert {res.status for res in results} <= {0, 2}
    return [res.fun if res.status == 0 else None for res in results]


def _full_lp_feasible(g, demand, tau):
    """The verdict of the full reference LP alone."""
    return _solve_stages(*mcf_lp_reference(g, tau, demand),
                         forward_bounds_reference(g, tau, demand))[1] \
        is not None


def _timed_path_count(g, tau):
    """How many timed paths the path-form oracle enumerates: walks of tau
    steps, each along an edge or dwelling, summed over ordered terminal
    pairs."""
    walks = {t: {t: 1} for t in g.terminals}
    for _ in range(tau):
        for src, at in walks.items():
            nxt = dict(at)
            for v, count in at.items():
                for _, w in g.incidence[v]:
                    nxt[w] = nxt.get(w, 0) + count
            walks[src] = nxt
    return sum(at.get(t, 0) for s, at in walks.items()
               for t in g.terminals if t != s)


# the triangle with terminals 0 and 1: each way, 9/4 units in two rounds
# need the detour over vertex 2, whose second hop does not move away from
# the source, so only the full LP routes it
TRIANGLE_DETOUR = (Graph(3, ((0, 1), (1, 2), (0, 2)), (0, 1)), 2,
                   Fraction(9, 2))


AMOUNTS = st.fractions(Fraction(1, 4), 8, max_denominator=4)


@st.composite
def symmetric_graphs(draw):
    """Cycles with evenly spaced terminals, grids with corner terminals,
    cliques, rings of cliques and parallel edges."""
    family = draw(st.sampled_from(
        ["cycle", "grid", "clique", "ring", "parallel"]))
    if family == "cycle":
        n = draw(st.integers(3, 8))
        step = draw(st.sampled_from([d for d in range(1, n // 2 + 1)
                                     if n % d == 0]))
        return cycle_graph(n, tuple(range(0, n, step)))
    if family == "grid":
        return grid_graph(draw(st.integers(2, 3)), draw(st.integers(2, 3)))
    if family == "clique":
        return clique(draw(st.integers(2, 4)))
    if family == "ring":
        return ring_of_cliques(draw(st.integers(3, 4)), 2)
    return parallel_edges(draw(st.integers(1, 3)))


@st.composite
def lp_instances(draw):
    """(graph, demand): random multigraphs or symmetric ones, sometimes
    with a component the terminals cannot reach, and a uniform demand, one
    that depends on the source-destination distance (symmetric, yet not
    uniform) or random amounts on some of the ordered terminal pairs."""
    g = draw(st.one_of(parallel_multigraphs(4), symmetric_graphs()))
    if draw(st.booleans()):
        g = Graph(g.n + 2, g.edges + ((g.n, g.n + 1),), g.terminals)
    terms = g.terminals
    kind = draw(st.sampled_from(["uniform", "distance", "random"]))
    if kind == "uniform":
        amount = draw(AMOUNTS)
        return g, {s: {t: amount for t in terms if t != s} for s in terms}
    if kind == "distance":
        by_distance = {}

        def amount(s, t):
            d = g.distances_from(s)[t]
            if d not in by_distance:
                by_distance[d] = draw(AMOUNTS)
            return by_distance[d]

        return g, {s: {t: amount(s, t) for t in terms if t != s}
                   for s in terms}
    pairs = draw(st.lists(st.sampled_from(
        [(s, t) for s in terms for t in terms if s != t]), min_size=1,
        unique=True))
    demand = {}
    for s, t in pairs:
        demand.setdefault(s, {})[t] = draw(AMOUNTS)
    return g, demand


@settings(max_examples=60, deadline=None)
@given(parallel_multigraphs(4), st.integers(1, 6), AMOUNTS)
@example(*TRIANGLE_DETOUR)
def test_two_stage_verdict_matches_full_lp_and_paths(g, tau, n_prime):
    # terminals may be disconnected and vertices unreachable; the path-form
    # oracle runs where it enumerates few enough paths
    demand = _uniform(g.terminals, n_prime)
    verdict = mcf_feasible(g, demand, tau)
    assert verdict == _full_lp_feasible(g, demand, tau)
    if _timed_path_count(g, tau) <= 3000:
        pairs = {(s, t): float(amt) for s, row in demand.items()
                 for t, amt in row.items()}
        assert verdict == mcf_feasible_bruteforce(g, pairs, tau)


@settings(max_examples=80, deadline=None)
@given(lp_instances(), st.integers(1, 6))
@example((TRIANGLE_DETOUR[0], _uniform(TRIANGLE_DETOUR[0].terminals,
                                       TRIANGLE_DETOUR[2])),
         TRIANGLE_DETOUR[1])
@example((cycle_graph(6, (0, 2, 4)), {0: {2: 1, 4: 2}}), 3)
def test_quotient_stages_match_full_lp_and_paths(instance, tau):
    # each stage's quotient LP decides as the full reference LP does, at
    # the same optimum, and the full stage as the path-form oracle, where
    # it enumerates few enough paths; terminals may be disconnected,
    # vertices unreachable.  In the second example 2 and 4 are mirror
    # images from 0 but ask for different amounts: classes that ignored
    # the amounts would merge their rows
    g, demand = instance
    lp = ArcLP.of(g, demand)
    got = _solve_stages(*_assemble_mcf_lp(lp, tau), _forward_bounds(lp, tau))
    want = _solve_stages(*mcf_lp_reference(g, tau, demand),
                         forward_bounds_reference(g, tau, demand))
    assert [x is None for x in got] == [y is None for y in want]
    assert [x for x in got if x is not None] == pytest.approx(
        [y for y in want if y is not None], rel=1e-6, abs=1e-6)
    feasible = got[1] is not None
    assert mcf_feasible(g, demand, tau) == feasible
    if _timed_path_count(g, tau) <= 3000:
        pairs = {(s, t): float(amt) for s, row in demand.items()
                 for t, amt in row.items()}
        assert feasible == mcf_feasible_bruteforce(g, pairs, tau)


def _scripted_linprog(monkeypatch, restricted=None, full=None):
    """Wrap mcf.linprog: the restricted stage answers status `restricted`
    and the full stage status `full`, each solving for real when None.
    Returns the list of (stage, status) it fills, R for the restricted LP
    and F for the full one."""
    stages, solve = [], mcf_mod.linprog

    def scripted(*args, **kwargs):
        stage = "F" if isinstance(kwargs["bounds"], tuple) else "R"
        status = restricted if stage == "R" else full
        res = (solve(*args, **kwargs) if status is None else OptimizeResult(
            status=status, message="solver gave up", x=None))
        stages.append((stage, res.status))
        return res

    monkeypatch.setattr(mcf_mod, "linprog", scripted)
    return stages


@pytest.mark.parametrize("g,tau,n_prime", [
    TRIANGLE_DETOUR, (random_connected_graph(8, 6, seed=3, k=2), 7, 19)],
    ids=["triangle", "rand8"])
def test_restricted_lp_infeasible_full_lp_feasible(monkeypatch, g, tau,
                                                   n_prime):
    # tau is tau_MCF on both, but no routing at tau crosses edges only
    # away from each source, so the full LP decides
    assert tau_mcf(g, g.terminals, [n_prime]) == {n_prime: tau}
    stages = _scripted_linprog(monkeypatch)
    assert mcf_feasible(g, _uniform(g.terminals, n_prime), tau)
    assert stages == [("R", 2), ("F", 0)]


def test_unreachable_vertices_get_no_edge_arcs(monkeypatch):
    # vertices 3, 4 and 5 lie outside the terminals' component, where the
    # BFS distance is None: their edge arcs are fixed at 0 in every layer,
    # their memory arcs stay free (read with singleton classes, on the
    # full LP's columns, layer-major)
    g = Graph(6, ((0, 1), (1, 2), (0, 2), (1, 2), (3, 4), (4, 5)), (0, 1, 2))
    tau = 3
    per_layer = 2 * g.m + g.n
    with monkeypatch.context() as patch:
        _singleton_classes(patch)
        lp = ArcLP.of(g, _uniform(g.terminals, 1))
    upper = _forward_bounds(lp, tau)[:, 1].reshape(
        tau, len(g.terminals), per_layer)
    assert (upper[:, :, 8:12] == 0).all()     # edges 4 and 5, both ways
    assert (upper[:, :, 2 * g.m:] == float("inf")).all()
    # commodity 0 keeps 0 -> 1 and 0 -> 2 (arcs 0 and 4) and nothing else
    assert (upper[:, 0, :2 * g.m] == float("inf")).sum(axis=1).tolist() \
        == [2] * tau
    assert upper[0, 0, 0] == upper[0, 0, 4] == float("inf")
    for n_prime in (1, 3, 5):
        demand = _uniform(g.terminals, n_prime)
        for t in range(1, 4):
            assert mcf_feasible(g, demand, t) == _full_lp_feasible(
                g, demand, t)
        assert tau_mcf(g, g.terminals, [n_prime]) == \
            {n_prime: _tau_mcf_by_scan(g, n_prime)}


def test_stage_sequence_on_bench_instances(monkeypatch):
    # the restricted LP certifies every feasible probe on the benchmark's
    # three tau-mcf instances; only grid 6x6's two infeasible probes, below
    # its answer 18, reach the full LP
    stages = _scripted_linprog(monkeypatch)
    probes, feasible = [], mcf_mod.mcf_feasible

    def recording_feasible(g, demand, tau):
        probes.append((tau, len(stages)))
        return feasible(g, demand, tau)

    monkeypatch.setattr(mcf_mod, "mcf_feasible", recording_feasible)
    cases = [(grid_graph(6, 6), 32, 18), (ring_of_cliques(4, 4), 64, 33),
             (random_connected_graph(12, 10, seed=1, k=4), 32, 24)]
    sequences = []
    for g, n_prime, answer in cases:
        del probes[:], stages[:]
        assert tau_mcf(g, g.terminals, [n_prime]) == {n_prime: answer}
        ends = [start for _, start in probes[1:]] + [len(stages)]
        sequences.append([
            (tau, " ".join(stage + ("+" if status == 0 else "-")
                           for stage, status in stages[start:end]))
            for (tau, start), end in zip(probes, ends)])
    assert sequences == [
        [(16, "R- F-"), (17, "R- F-"), (19, "R+"), (18, "R+")],
        [(33, "R+")],
        [(24, "R+")],
    ]


# ---------------------------------------------------------------------------
# HiGHS statuses: only status 2 means infeasible

@pytest.mark.parametrize("status", [1, 4])
def test_solver_failure_is_not_infeasible(monkeypatch, status):
    monkeypatch.setattr(mcf_mod, "linprog", lambda *a, **kw: OptimizeResult(
        status=status, message="solver gave up", x=None))
    g = clique(3)
    with pytest.raises(LPSolveError) as exc:
        tau_mcf(g, g.terminals, [2])
    text = str(exc.value)
    assert f"status {status}" in text and "solver gave up" in text
    assert "tau=1" in text and "3 commodities" in text
    # the stage, the instance and the size of the LP that failed: clique(3)
    # has 2 conservation row classes per layer, 1 capacity class and 5
    # column classes
    assert "full stage" in text and "|V|=3" in text
    assert "quotient LP 5 rows x 5 columns" in text


@pytest.mark.parametrize("status", [1, 2, 4])
def test_failed_restricted_lp_falls_through(monkeypatch, status):
    # clique(3) at n' = 8 routes first at tau = 3: the full LP's verdict
    # stands whatever the restricted stage ended with
    g = clique(3)
    demand = _uniform(g.terminals, 8)
    want = [_full_lp_feasible(g, demand, tau) for tau in (1, 2, 3, 4)]
    assert want == [False, False, True, True]
    stages = _scripted_linprog(monkeypatch, restricted=status)
    assert [mcf_feasible(g, demand, tau) for tau in (1, 2, 3, 4)] == want
    assert [stage for stage, _ in stages] == ["R", "F"] * 4


@pytest.mark.parametrize("restricted", [1, 2, 4])
def test_full_lp_failure_raises(monkeypatch, restricted):
    # whatever the restricted stage ended with
    stages = _scripted_linprog(monkeypatch, restricted, 4)
    g = clique(3)
    with pytest.raises(LPSolveError) as exc:
        mcf_feasible(g, _uniform(g.terminals, 8), 3)
    text = str(exc.value)
    assert "status 4" in text and "solver gave up" in text
    assert "tau=3" in text and "3 commodities" in text
    assert "full stage" in text and "quotient LP 11 rows x 15 columns" in text
    assert stages == [("R", restricted), ("F", 4)]


def test_solver_status_2_reads_infeasible(monkeypatch):
    stages = _scripted_linprog(monkeypatch, 2, 2)
    g = clique(3)
    assert not mcf_feasible(g, _uniform(g.terminals, 2), 1)
    assert stages == [("R", 2), ("F", 2)]
