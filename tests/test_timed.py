import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from roundlab import (
    Graph, GraphError, UnreachableError, RoutableError,
    max_route_flow, tau_route, extract_level_vector, validate_timed_path,
    path_graph, grid_graph, intro_split_graph,
    random_connected_graph, parallel_edges,
)
import roundlab.mcf as mcf_mod
import roundlab.timed as timed_mod
from roundlab.mcf import mcf_feasible
from roundlab.timed import (
    SearchLimitError, _horizon_flow, _static_flow, least_feasible_horizon,
    least_horizon,
)
from oracles import (
    arc_key_flows, base_cut_bruteforce, partition_flow, static_paths_reference,
    timed_flow_bruteforce, timed_max_flow, tau_route_bruteforce,
)
from test_imports import array_imports


def test_single_edge_pipelines_one_bit_per_round():
    g = Graph(2, ((0, 1),), (0, 1))
    assert max_route_flow(g, 0, 1, 3).value == 3


def test_path_bottleneck():
    g = path_graph(2, terminals=(0, 2))
    assert max_route_flow(g, 0, 2, 2).value == 1


def test_intro_graph_flow_matches_bruteforce():
    g = intro_split_graph()
    # frozen from the brute-force oracle: direct edge pipelines 4 units,
    # each of the 4 long paths carries 1
    assert timed_flow_bruteforce(g, 0, 1, 4)[0] == 8
    assert max_route_flow(g, 0, 1, 4).value == 8


def test_flow_matches_bruteforce_random():
    for seed in range(15):
        g = random_connected_graph(6, 4, seed=seed)
        a, b = g.terminals[0], g.terminals[1]
        for tau in (1, 2, 3):
            assert max_route_flow(g, a, b, tau).value == \
                timed_flow_bruteforce(g, a, b, tau)[0]


def test_flow_monotone_in_horizon():
    g = random_connected_graph(6, 5, seed=7)
    a, b = g.terminals[0], g.terminals[1]
    vals = [max_route_flow(g, a, b, tau).value for tau in range(5)]
    assert vals == sorted(vals)


def _check_unit_paths(g, a, b, tau, sol):
    """`sol.paths` are `sol.value` valid timed paths (a,0) -> (b,tau), and
    no directed timed edge arc carries two of them."""
    assert len(sol.paths) == sol.value
    used = set()
    for p in sol.paths:
        validate_timed_path(g, p, tau)
        assert len(p.edge_ids) == tau
        assert p.verts[0] == a and p.verts[-1] == b
        for step in p.steps():
            if step[1] is not None:
                assert step not in used
                used.add(step)


def _oracle_levels(g, tau, source_side):
    """The levels of the brute-force oracle's minimal min cut."""
    return tuple(
        next((t for t in range(tau + 1) if t * g.n + v in source_side),
             tau + 1)
        for v in range(g.n))


def test_flow_paths_are_valid_and_disjoint():
    g = intro_split_graph()
    _check_unit_paths(g, 0, 1, 4, max_route_flow(g, 0, 1, 4))


def test_tau_route_single_edge():
    g = Graph(2, ((0, 1),), (0, 1))
    assert tau_route(g, 0, 1, 5) == 5


def test_tau_route_path_distance():
    for length in (1, 2, 4):
        g = path_graph(length)
        assert tau_route(g, 0, length, 1) == length


def test_tau_route_intro_graph():
    g = intro_split_graph()
    # frozen via brute force: flow(tau) = tau + 4*max(tau-3, 0)
    assert tau_route_bruteforce(g, 0, 1, 16) == 6
    assert tau_route(g, 0, 1, 16) == 6


def test_tau_route_unreachable():
    g = Graph(3, ((0, 1),), (0, 1, 2))
    with pytest.raises(UnreachableError):
        tau_route(g, 0, 2, 1)


def test_tau_route_symmetry_and_subadditivity():
    for seed in range(12):
        g = random_connected_graph(6, 4, seed=100 + seed)
        a, b = g.terminals[0], g.terminals[1]
        assert tau_route(g, a, b, 3) == tau_route(g, b, a, 3)
        t1 = tau_route(g, a, b, 2)
        t2 = tau_route(g, a, b, 7)
        assert t2 <= -(-7 // 2) * t1  # ceil(7/2) * tau(2)


def test_level_vector_single_edge():
    g = Graph(2, ((0, 1),), (0, 1))
    lv = extract_level_vector(g, 0, 1, n_bits=2, horizon=1)
    assert lv.levels[0] == 0 and lv.levels[1] == 2
    assert lv.cost == 1


def test_level_vector_path_zero_cost():
    g = path_graph(2, terminals=(0, 2))
    lv = extract_level_vector(g, 0, 2, n_bits=1, horizon=1)
    assert lv.levels[0] == 0 and lv.levels[2] == 2
    assert lv.cost == 0


def test_level_vector_requires_unroutable():
    g = Graph(2, ((0, 1),), (0, 1))
    with pytest.raises(RoutableError):
        extract_level_vector(g, 0, 1, n_bits=1, horizon=3)


def test_level_vector_random_cases():
    checked = 0
    for seed in range(40):
        g = random_connected_graph(6, 5, seed=200 + seed)
        a, b = g.terminals[0], g.terminals[1]
        for horizon in (1, 2, 3):
            flow = max_route_flow(g, a, b, horizon).value
            n_bits = flow + 1 + (seed % 3)
            lv = extract_level_vector(g, a, b, n_bits, horizon)
            assert lv.levels[a] == 0
            assert lv.levels[b] == horizon + 1
            assert lv.cost < n_bits
            checked += 1
    assert checked >= 100


def test_parallel_edges_capacity():
    g = parallel_edges(3)
    assert max_route_flow(g, 0, 1, 1).value == 3
    assert tau_route(g, 0, 1, 6) == 2


def test_tau_route_past_recursion_ceiling():
    # the recursive Dinic this engine replaced raised RecursionError here
    assert tau_route(path_graph(3), 0, 3, 800) == 802


def test_engine_splits_parallel_arcs_in_edge_id_order():
    # three parallel 0-1 edges then two parallel 1-2 edges: the reference
    # engine's CSR sums each bundle, and the two units come back on the
    # lowest edge ids, as the repeated flow's paths use them
    g = Graph(3, ((0, 1), (0, 1), (0, 1), (1, 2), (1, 2)), (0, 2))
    value, units = timed_max_flow(g, 2, 0, 2 * g.n + 2)
    assert value == 2
    assert arc_key_flows(g, 2, units) == {
        (0, 0, 0, 1): 1, (0, 1, 0, 1): 1, (1, 3, 1, 2): 1, (1, 4, 1, 2): 1}
    sol = max_route_flow(g, 0, 2, 2)
    assert [p.edge_ids for p in sol.paths] == [(0, 3), (1, 4)]


class Allocated(Exception):
    pass


class NoNumpy:
    """Stands in for numpy: the first array the code asks for raises."""

    def __getattr__(self, name):
        raise Allocated(name)


def test_arc_ceiling_before_allocating(monkeypatch):
    # a tau_MCF probe meets the ceiling before it refines classes or
    # allocates the quotient LP, which has as many columns as the full LP,
    # tau (2m + n) k, on a graph without symmetry: grid 6x6 at tau =
    # 3,750,000 has 156 arcs per layer, and laying them out asked numpy
    # for 4.36 GiB
    monkeypatch.setattr(mcf_mod, "np", NoNumpy())

    def probe(g, tau):
        demand = {s: {t: 1 for t in g.terminals if t != s}
                  for s in g.terminals}
        return mcf_feasible(g, demand, tau)

    with pytest.raises(GraphError,
                       match=r"m=60 .*tau=3750000 .*585000000 arcs"):
        probe(grid_graph(6, 6), 3_750_000)
    # path_graph(1200) at horizon 4,810 (17.3 million arcs) passes the
    # ceiling and goes on to allocate
    with pytest.raises(Allocated):
        probe(path_graph(1200), 4810)


def test_flow_paths_are_lazy(monkeypatch):
    def no_path(*args, **kwargs):
        raise AssertionError("built a path of a flow read only for its value")

    g = parallel_edges(3)
    with monkeypatch.context() as patch:
        patch.setattr(timed_mod, "TimedPath", no_path)
        sol = max_route_flow(g, 0, 1, 4)
        assert sol.value == 12
        assert max_route_flow(intro_split_graph(), 0, 1, 6).value == 18
    # each parallel edge repeated from the starts 0..3, in edge-id order
    assert sol.paths == tuple(
        timed_mod.TimedPath((0,) * (s + 1) + (1,) * (4 - s),
                            (None,) * s + (eid,) + (None,) * (3 - s))
        for eid in range(3) for s in range(4))


@st.composite
def multigraph_pairs(draw):
    n = draw(st.integers(2, 5))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    edges = tuple(draw(st.lists(pair, min_size=1, max_size=7)))
    a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                         unique=True))
    return Graph(n, edges, (a, b)), a, b


@settings(max_examples=60, deadline=None)
@given(multigraph_pairs(), st.integers(0, 4))
def test_engine_matches_bruteforce_oracle(case, tau):
    _check_single_pair(*case, tau)


def _check_single_pair(g, a, b, tau):
    """The engine's max flow, the repeated flow's value and paths, and the
    levels against the brute-force oracle at horizon tau."""
    value, source_side = timed_flow_bruteforce(g, a, b, tau)
    assert timed_max_flow(g, tau, a, tau * g.n + b)[0] == value
    sol = max_route_flow(g, a, b, tau)
    assert sol.value == value
    _check_unit_paths(g, a, b, tau, sol)
    # the minimal min cut is unique, so the levels match the oracle's cut
    lv = extract_level_vector(g, a, b, value + 1, tau)
    assert lv.levels == _oracle_levels(g, tau, source_side)
    assert lv.cost == value


@st.composite
def parallel_multigraph_pairs(draw):
    g, a, b = draw(multigraph_pairs())
    doubled = draw(st.lists(st.sampled_from(g.edges), min_size=1,
                            max_size=3))
    return Graph(g.n, g.edges + tuple(doubled), (a, b)), a, b


@settings(max_examples=60, deadline=None)
@given(parallel_multigraph_pairs(), st.integers(0, 6), st.integers(1, 6))
def test_repeated_flow_matches_engine_and_oracle(case, tau, n_prime):
    # the temporally repeated flow against the timed engine and the
    # brute-force oracle, on multigraphs with parallel edges
    g, a, b = case
    _check_single_pair(g, a, b, tau)
    if g.distances_from(a)[b] is not None:
        got = tau_route(g, a, b, n_prime)
        assert max_route_flow(g, a, b, got - 1).value < n_prime
        assert timed_max_flow(g, got, a, got * g.n + b)[0] >= n_prime
        assert got == tau_route_bruteforce(g, a, b, n_prime)


@st.composite
def multigraph_vertex_sets(draw):
    g, a, b = draw(parallel_multigraph_pairs())
    rest = [v for v in range(g.n) if v not in (a, b)]
    extra = draw(st.lists(st.sampled_from(rest), unique=True)
                 if rest else st.just([]))
    cut = draw(st.integers(0, len(extra)))
    return g, (a, *extra[:cut]), (b, *extra[cut:])


@settings(max_examples=60, deadline=None)
@given(multigraph_vertex_sets(), st.integers(0, 6), st.integers(1, 6))
def test_set_flow_over_time_matches_engine(case, tau, units):
    # the static flow between vertex sets, repeated over time, carries the
    # reference engine's maximum flow from X x {0} to Y x {tau}, and
    # least_horizon is the least horizon at which that flow reaches units
    g, xs, ys = case
    lengths, _ = _static_flow(g, xs, ys)
    big = 2 * g.m * tau + 1
    assert sum(max(0, tau + 1 - ell) for ell in lengths) == \
        partition_flow(g, tau, xs, ys, big, big)[0]
    assert len(lengths) == base_cut_bruteforce(g, xs, ys)
    if lengths:
        least = least_horizon(lengths, units)
        assert sum(max(0, least + 1 - ell) for ell in lengths) >= units
        assert sum(max(0, least - ell) for ell in lengths) < units


@settings(max_examples=60, deadline=None)
@given(parallel_multigraph_pairs(), st.integers(0, 6))
def test_static_paths_match_reference(case, tau):
    # max_route_flow walks its static flow into the reference's paths, in
    # its order, on multigraphs with parallel edges
    g, a, b = case
    _, used = _horizon_flow(g, a, b, tau)
    assert max_route_flow(g, a, b, tau).static_paths == \
        static_paths_reference(g, a, b, used)


@settings(max_examples=40, deadline=None)
@given(multigraph_pairs(), st.integers(1, 4))
def test_tau_route_matches_bruteforce_oracle(case, n_prime):
    g, a, b = case
    assume(g.distances_from(a)[b] is not None)
    assert tau_route(g, a, b, n_prime) == tau_route_bruteforce(g, a, b,
                                                               n_prime)


@settings(max_examples=60, deadline=None)
@given(multigraph_pairs())
def test_base_min_cut_matches_bruteforce_oracle(case):
    # the base min cut lambda(A, B) is the value of the static flow
    g, a, b = case
    rest = [v for v in range(g.n) if v not in (a, b)]
    for xs, ys in (((a,), (b,)), ([a] + rest[:1], [b] + rest[1:2])):
        assert len(_static_flow(g, xs, ys)[0]) == \
            base_cut_bruteforce(g, xs, ys)


def test_single_pair_calls_build_no_timed_network():
    # the single-pair calls live in timed, which imports no array library
    # to build a timed network with
    assert array_imports(timed_mod.__file__) == set()
    g = intro_split_graph()
    assert tau_route(path_graph(3), 0, 3, 300) == 302
    assert tau_route(g, 0, 1, 16) == 6
    sol = max_route_flow(g, 0, 1, 6)
    assert sol.value == len(sol.paths) == 18
    assert extract_level_vector(g, 0, 1, 19, 6).cost == 18


@pytest.mark.parametrize("call,want", [
    (lambda g: tau_route(g, 0, 1200, 3611), 4810),
    (lambda g: max_route_flow(g, 0, 1200, 4810).value, 3611),
    (lambda g: extract_level_vector(g, 0, 1200, 3612, 4810).cost, 3611),
], ids=["tau_route", "max_route_flow", "extract_level_vector"])
def test_desk_scale_path_1200(call, want):
    # the desk-scale cut certificate: each call took 22-24 s and 1.33 GB
    # on a 17.3-million-arc timed network; the budget is 2 s
    g = path_graph(1200)
    start = time.perf_counter()
    assert call(g) == want
    assert time.perf_counter() - start < 2.0


def test_least_feasible_horizon_gallops_then_bisects():
    probes = []

    def from_20(tau):
        probes.append(tau)
        return tau >= 20

    assert least_feasible_horizon(from_20, 5, 100, "x") == 20
    # gallop 5, 6, 8, 12, 20, then bisection over (12, 20]
    assert probes == [5, 6, 8, 12, 20, 16, 18, 19]
    probes.clear()
    assert least_feasible_horizon(from_20, 20, 100, "x") == 20
    assert probes == [20]


def test_least_feasible_horizon_search_limit():
    probes = []

    def never(tau):
        probes.append(tau)
        return False

    with pytest.raises(SearchLimitError, match="never exceeded cutoff 10"):
        least_feasible_horizon(never, 1, 10, "never")
    assert probes == [1, 2, 4, 8, 16]
    with pytest.raises(SearchLimitError, match="late result 12 exceeds"):
        least_feasible_horizon(lambda tau: tau >= 12, 3, 10, "late")
    assert least_feasible_horizon(lambda tau: tau >= 10, 3, 10, "x") == 10


def test_least_feasible_horizon_on_a_predicate_that_is_not_monotone():
    # feasible at 5, infeasible at 6..8, feasible from 9: the search
    # returns 9, where the predicate held, with every probe below it
    # (3, 4, 6, 8) failed; it never probes 5
    probes = []

    def gappy(tau):
        probes.append(tau)
        return tau == 5 or tau >= 9

    assert least_feasible_horizon(gappy, 3, 100, "x") == 9
    assert probes == [3, 4, 6, 10, 8, 9]
