import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import OptimizeResult, linprog

import roundlab.mcf as mcf_mod
from roundlab import (
    Graph, clique, grid_graph, parallel_edges, path_graph,
    random_connected_graph, ring_of_cliques,
)
from roundlab.mcf import (
    LP_TOLERANCE, BoundedDemandError, DemandMatrix, LPSolveError,
    PartitionInfeasibleError, _assemble_mcf_lp, _mcf_vertex, _source_flows,
    _support, balanced_partition_paths, mcf_feasible, route_bounded_demand,
    route_unit_demands, tau_mcf, tau_mcf_flow_bound, tau_mcf_lower_bound,
    uniform_demand,
)
from roundlab.schedules import audit_schedule, congestion_to_delay
from roundlab.timed import (
    build_timed_graph, least_feasible_horizon, validate_timed_path,
)

from oracles import (
    arc_key_flows, mcf_feasible_bruteforce, mcf_flows_reference,
    mcf_lp_reference,
)


def test_demand_matrix_validation():
    with pytest.raises(BoundedDemandError):
        DemandMatrix((0, 1), {(0, 0): 1})
    with pytest.raises(BoundedDemandError):
        DemandMatrix((0, 1), {(0, 2): 1})
    with pytest.raises(BoundedDemandError):
        DemandMatrix((0, 1), {(0, 1): -1})
    d = DemandMatrix((0, 1, 2), {(0, 1): 2, (1, 0): 1, (0, 2): 1})
    assert d.row_sum(0) == 3 and d.col_sum(0) == 1
    assert d.is_bounded(3) and not d.is_bounded(2)


def test_tau_mcf_clique_identity():
    # on a clique the uniform demand takes exactly ceil(n'/k) rounds
    for k in (2, 3, 4):
        g = clique(k)
        for n_prime in (1, 2, 5, 8):
            assert tau_mcf(g, g.terminals, n_prime) == -(-n_prime // k)


def test_tau_mcf_single_edge():
    g = Graph(2, ((0, 1),), (0, 1))
    assert tau_mcf(g, (0, 1), 2) == 1


def test_tau_mcf_path():
    g = path_graph(2, terminals=(0, 2))
    # checked against the path-form LP oracle
    assert not mcf_feasible_bruteforce(g, {(0, 2): 1.0, (2, 0): 1.0}, 1)
    assert mcf_feasible_bruteforce(g, {(0, 2): 1.0, (2, 0): 1.0}, 2)
    assert tau_mcf(g, (0, 2), 2) == 2


def test_mcf_feasibility_matches_oracle():
    for seed in range(8):
        g = random_connected_graph(5, 3, seed=seed, k=3)
        terms = g.terminals
        demand = uniform_demand(terms, 2)
        pairs = {pair: float(a) for pair, a in demand.amounts.items()}
        for tau in (1, 2, 3):
            assert mcf_feasible(g, demand, tau) == \
                mcf_feasible_bruteforce(g, pairs, tau), (seed, tau)


def test_tau_mcf_subadditive():
    for seed in range(10):
        g = random_connected_graph(5, 3, seed=50 + seed, k=3)
        t1 = tau_mcf(g, g.terminals, 2)
        t2 = tau_mcf(g, g.terminals, 7)
        assert t2 <= -(-7 // 2) * t1


def _tau_mcf_cases():
    cases = [(clique(k), n) for k in (2, 3, 4) for n in (1, 2, 5, 8)]
    cases.append((Graph(2, ((0, 1),), (0, 1)), 2))
    cases.append((path_graph(2, terminals=(0, 2)), 2))
    cases += [(random_connected_graph(5, 3, seed=50 + s, k=3), n)
              for s in range(10) for n in (2, 7)]
    return cases


def _tau_mcf_by_scan(g, n_prime):
    """tau_MCF by a plain upward scan of LP feasibility from tau = 1."""
    demand = uniform_demand(g.terminals, n_prime)
    tau = 1
    while not mcf_feasible(g, demand, tau):
        tau += 1
    return tau


def test_tau_mcf_matches_linear_scan():
    for g, n_prime in _tau_mcf_cases():
        assert tau_mcf(g, g.terminals, n_prime) == \
            _tau_mcf_by_scan(g, n_prime), (g, n_prime)


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


@settings(max_examples=40, deadline=None)
@given(terminal_multigraphs(), st.lists(st.integers(1, 8), min_size=1,
                                        max_size=4))
def test_tau_mcf_cut_bound_below_lp(g, n_primes):
    # one ledger serves the whole sequence (and every earlier example), so
    # answers bracketed by earlier ones are checked too; the scan calls
    # mcf_feasible directly and never reads the ledger
    assume(g.connected(g.terminals))
    for n_prime in n_primes:
        scanned = _tau_mcf_by_scan(g, n_prime)
        base = tau_mcf_lower_bound(g, g.terminals, n_prime)
        assert base <= tau_mcf_flow_bound(g, g.terminals, n_prime) <= scanned
        assert tau_mcf(g, g.terminals, n_prime) == scanned


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
                tau_mcf(g, g.terminals, 8)) == bounds


def _side_routes_search(g, n_prime, lo):
    """The two-terminal flow bound as the timed-network search finds it:
    the least horizon from max(lo, base bound) whose partition flow
    passes."""
    a, b = g.terminals
    base, _ = mcf_mod._base_bound(g, g.terminals, n_prime)
    return least_feasible_horizon(
        partial(mcf_mod._side_routes, g, (a,), (b,), n_prime / 2),
        max(lo, base), mcf_mod._search_cutoff(g, g.terminals, n_prime),
        "reference flow bound")


@st.composite
def two_terminal_multigraphs(draw):
    n = draw(st.integers(2, 5))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    edges = draw(st.lists(pair, min_size=1, max_size=7))
    edges += draw(st.lists(st.sampled_from(edges), max_size=2))
    terms = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                          unique=True))
    return Graph(n, tuple(edges), tuple(terms))


TWO_TERMINAL_NPRIMES = st.sampled_from(
    [Fraction(1, 2), 1, Fraction(3, 2), 2, 3, 5, 8, 13])


def _check_two_terminal_flow_bound(g, n_prime, below):
    # with k = 2 the flow bound is max(lo, base, tau_route(ceil(n'/2))),
    # the horizon the timed partition-flow search finds; lo is an earlier
    # bound, at most the bound from lo = 1, and `below` under it
    n_prime = Fraction(n_prime)
    bound = _side_routes_search(g, n_prime, 1)
    assert mcf_mod._flow_bound(g, g.terminals, n_prime, 1) == bound
    lo = max(1, bound - below)
    assert mcf_mod._flow_bound(g, g.terminals, n_prime, lo) == \
        _side_routes_search(g, n_prime, lo) == bound


@settings(max_examples=50, deadline=None)
@given(two_terminal_multigraphs(), TWO_TERMINAL_NPRIMES, st.integers(0, 6))
def test_two_terminal_flow_bound_is_closed_form(g, n_prime, below):
    assume(g.connected(g.terminals))
    _check_two_terminal_flow_bound(g, n_prime, below)


@pytest.mark.parametrize("g", [clique(2), parallel_edges(3)]
                         + [path_graph(length) for length in (1, 2, 3, 6)],
                         ids=["K2", "K2x3", "P1", "P2", "P3", "P6"])
def test_two_terminal_flow_bound_on_k2_and_paths(g):
    for n_prime in (Fraction(1, 3), 1, 2, 7, 8, 40):
        for below in (0, 1, 4):
            _check_two_terminal_flow_bound(g, n_prime, below)


@pytest.mark.parametrize("k,cuts", [(4, 7), (10, 511), (11, 11)])
def test_tau_mcf_lower_bound_cut_count(monkeypatch, k, cuts):
    # every bipartition up to CUT_BOUND_MAX_TERMINALS, singletons above
    sides = []

    def recording_cut(g, side_a, side_b):
        sides.append(tuple(side_a))
        return len(side_a) * len(side_b)   # the clique's cut

    monkeypatch.setattr(mcf_mod, "base_min_cut", recording_cut)
    g = clique(k)
    # n'/k rounds push n'/k units over each of |T||K - T| cut edges
    assert tau_mcf_lower_bound(g, g.terminals, 3 * k) == 3
    assert len(set(sides)) == len(sides) == cuts


def test_tau_mcf_probe_order(monkeypatch):
    # the base-cut bound 32 is one short of ring44's answer; the flow bound
    # certifies 33, so one LP confirms it
    probes = []

    def recording_feasible(g, demand, tau, *witness_sink):
        probes.append(tau)
        return mcf_feasible(g, demand, tau, *witness_sink)

    monkeypatch.setattr(mcf_mod, "mcf_feasible", recording_feasible)
    g = ring_of_cliques(4, 4)
    assert tau_mcf(g, g.terminals, 64) == 33
    assert probes == [33]
    # n' = 62 has 33 above it in the ledger and costs one LP at its flow
    # bound 32; n' = 63 then lies between 32 and 33, where its flow bound
    # 33 meets the ledger's 33: no LP; a repeated n' needs no search
    assert [tau_mcf(g, g.terminals, n) for n in (62, 63, 64)] == [32, 33, 33]
    assert probes == [33, 32]


def test_route_bounded_demand_zero():
    g = clique(3)
    sched = route_bounded_demand(g, g.terminals, DemandMatrix(g.terminals), 2)
    assert sched.horizon == 0 and not sched.entries


def test_route_bounded_demand_clique_single_pair():
    g = clique(4)
    d = DemandMatrix(g.terminals, {(0, 3): 4})
    sched = route_bounded_demand(g, g.terminals, d, 4)
    assert sched.horizon <= 2 * tau_mcf(g, g.terminals, 4)
    stats = audit_schedule(sched, g, demands={(0, 3): 4})
    assert stats["max_load"] <= 1 + sched.tolerance


def test_route_bounded_demand_random_audit():
    rng = random.Random(9)
    for case in range(25):
        g = random_connected_graph(6, 4, seed=300 + case, k=3)
        terms = g.terminals
        n_prime = rng.randint(1, 4)
        demand = _random_bounded_demand(terms, n_prime, rng)
        sched = route_bounded_demand(g, terms, demand, n_prime)
        assert sched.horizon <= 2 * tau_mcf(g, terms, n_prime)
        audit_schedule(sched, g,
                       demands={p: float(a) for p, a in demand.amounts.items()})


def _random_bounded_demand(terms, n_prime, rng):
    k = len(terms)
    amounts = {}
    budget_out = {u: n_prime for u in terms}
    budget_in = {u: n_prime for u in terms}
    for u in terms:
        for v in terms:
            if u == v:
                continue
            cap = min(budget_out[u], budget_in[v])
            if cap <= 0:
                continue
            amt = rng.randint(0, cap)
            if amt:
                amounts[(u, v)] = amt
                budget_out[u] -= amt
                budget_in[v] -= amt
    return DemandMatrix(terms, amounts)


@st.composite
def bounded_demands(draw, terms, n_prime):
    """An n'-bounded demand over `terms` in halves, drawn pair by pair
    within the row and column budgets left."""
    out_left = {u: 2 * n_prime for u in terms}
    in_left = {v: 2 * n_prime for v in terms}
    amounts = {}
    for u in terms:
        for v in terms:
            if u != v:
                halves = min(draw(st.integers(0, 2 * n_prime)),
                             out_left[u], in_left[v])
                out_left[u] -= halves
                in_left[v] -= halves
                amounts[(u, v)] = Fraction(halves, 2)
    return DemandMatrix(terms, amounts)


@settings(max_examples=40, deadline=None)
@given(terminal_multigraphs(), st.integers(1, 4), st.integers(1, 4),
       st.data())
def test_witness_router_audits(g, n_prime, extra, data):
    # the larger n' goes first, so an answer at the same tau inherits its
    # witness through the ledger
    assume(g.connected(g.terminals))
    terms = g.terminals
    demand = data.draw(bounded_demands(terms, n_prime))
    assume(demand.total > 0)
    mcf_mod.reset_tau_mcf_ledger()
    tau_big = tau_mcf(g, terms, n_prime + extra)
    tau = tau_mcf(g, terms, n_prime)
    witness = mcf_mod._LEDGER[(g, terms)][n_prime]
    assert witness.tau == tau
    assert witness.n_prime == (n_prime + extra if tau == tau_big else n_prime)
    sched = route_bounded_demand(g, terms, demand, n_prime)
    assert sched.horizon == 2 * tau
    stats = audit_schedule(sched, g, demands=dict(demand.amounts))
    assert stats["max_load"] <= 1 + sched.tolerance


def test_route_bounded_demand_solves_no_lp(monkeypatch):
    # at n' = 8 the router reuses the witness of the LP that decided
    # tau_mcf; at n' = 7 the ledger's answer 5 at n' = 8 decides tau_mcf
    # and lends its witness
    g = ring_of_cliques(4, 4)
    terms = g.terminals
    assert tau_mcf(g, terms, 8) == 5
    solves = []

    def counting_linprog(*args, **kwargs):
        solves.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(mcf_mod, "linprog", counting_linprog)
    demand = DemandMatrix(terms, {(terms[0], terms[1]): 4,
                                  (terms[0], terms[2]): 3,
                                  (terms[3], terms[1]): 3})
    for n_prime in (8, 7):
        sched = route_bounded_demand(g, terms, demand, n_prime)
        assert solves == [] and sched.horizon == 10
        stats = audit_schedule(sched, g, demands=dict(demand.amounts))
        assert stats["max_load"] <= 1 + sched.tolerance
    assert mcf_mod._LEDGER[(g, terms)][7].n_prime == 8


def test_balanced_partition_clique():
    g = clique(4)
    paths = balanced_partition_paths(g, 1, (0, 1), (2, 3), 1)
    assert len(paths) == 2
    for p in paths:
        validate_timed_path(g, p, 1)
        assert p.verts[0] in (0, 1) and p.verts[-1] in (2, 3)


def test_balanced_partition_single_edge():
    g = Graph(2, ((0, 1),), (0, 1))
    paths = balanced_partition_paths(g, 1, (0,), (1,), 1)
    assert len(paths) == 1


def test_balanced_partition_infeasible_reports_value():
    g = path_graph(3, terminals=(0, 3))
    with pytest.raises(PartitionInfeasibleError) as exc:
        balanced_partition_paths(g, 1, (0,), (3,), 1)
    assert exc.value.achieved == 0


def test_balanced_partition_degree_recount():
    for seed in range(10):
        g = random_connected_graph(8, 8, seed=400 + seed, k=4)
        terms = g.terminals
        a, b = terms[:2], terms[2:]
        tau = 4
        try:
            paths = balanced_partition_paths(g, tau, a, b, 2)
        except PartitionInfeasibleError:
            continue
        outs = {u: 0 for u in a}
        ins = {v: 0 for v in b}
        used = set()
        for p in paths:
            validate_timed_path(g, p, tau)
            outs[p.verts[0]] += 1
            ins[p.verts[-1]] += 1
            for key in p.steps():
                if key[1] is not None:
                    assert key not in used
                    used.add(key)
        assert all(c == 2 for c in outs.values())
        assert all(c == 2 for c in ins.values())


def test_congestion_to_delay_identity():
    g = clique(4)
    d = DemandMatrix(g.terminals, {(0, 3): 2})
    sched = route_bounded_demand(g, g.terminals, d, 2)
    assert congestion_to_delay(sched) is sched


def test_congestion_to_delay_splits_shared_edge():
    from roundlab.schedules import RoutingSchedule, ScheduleEntry
    from roundlab.timed import TimedPath
    g = Graph(2, ((0, 1),), (0, 1))
    p = TimedPath(0, (0, 1), (0,))
    sched = RoutingSchedule(1, (ScheduleEntry(("a", 0), p, 1),
                                ScheduleEntry(("b", 0), p, 1)),
                            congestion=2)
    out = congestion_to_delay(sched)
    assert out.horizon == 2
    audit_schedule(out, g, legged=True)
    assert out.max_load() <= 1


def test_congestion_to_delay_random_fuzz():
    from roundlab.schedules import RoutingSchedule, ScheduleEntry
    rng = random.Random(5)
    for case in range(15):
        g = random_connected_graph(5, 4, seed=500 + case, k=2)
        horizon = 3
        entries = []
        for i in range(8):
            src = rng.randrange(g.n)
            path = _random_walk_path(g, src, horizon, rng)
            entries.append(ScheduleEntry((i, 0), path,
                                         Fraction(rng.randint(1, 4), 4)))
        sched = RoutingSchedule(horizon, tuple(entries), congestion=8)
        out = congestion_to_delay(sched)
        audit_schedule(out, g, legged=True)
        assert out.max_load() <= 1
        # total delivered amount preserved per commodity
        before = {}
        for e in sched.entries:
            before[e.commodity] = before.get(e.commodity, 0) + e.amount
        after = {}
        for e in out.entries:
            after[e.commodity] = after.get(e.commodity, 0) + e.amount
        assert before == after


def _random_walk_path(g, src, horizon, rng):
    verts = [src]
    eids = []
    for _ in range(horizon):
        if rng.random() < 0.4:
            verts.append(verts[-1])
            eids.append(None)
        else:
            inc = g.incidence[verts[-1]]
            eid, w = inc[rng.randrange(len(inc))]
            verts.append(w)
            eids.append(eid)
    from roundlab.timed import TimedPath
    return TimedPath(0, tuple(verts), tuple(eids))


def test_route_unit_demands_basic():
    g = clique(4)
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


# ---------------------------------------------------------------------------
# vectorised LP assembly against the entry-by-entry reference

def _lp_cases():
    for g in (grid_graph(6, 6), ring_of_cliques(4, 4),
              random_connected_graph(12, 10, seed=1, k=4), parallel_edges(3)):
        terms = g.terminals
        single = {terms[0]: {v: 0.5 for v in terms}}
        all_pairs = {u: {v: 0.75 for v in terms if v != u} for u in terms}
        for tau in (1, 2, 7):
            yield g, tau, single
            yield g, tau, all_pairs


def test_lp_assembly_matches_reference():
    for g, tau, demands in _lp_cases():
        got = _assemble_mcf_lp(build_timed_graph(g, tau), demands)
        want = mcf_lp_reference(g, tau, demands)
        for name, a, b in zip(("cost", "A_ub", "b_ub", "A_eq", "b_eq"),
                              got, want):
            assert a.shape == b.shape, (name, g, tau)
            parts = (("row", "col", "data") if name.startswith("A_")
                     else (None,))
            for part in parts:
                x = a if part is None else getattr(a, part)
                y = b if part is None else getattr(b, part)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), \
                    (name, part, g, tau)


def test_lp_readback_matches_reference():
    solved = 0
    for g, tau, demands in _lp_cases():
        cost, a_ub, b_ub, a_eq, b_eq = mcf_lp_reference(g, tau, demands)
        res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                      bounds=(0, None), method="highs")
        tg = build_timed_graph(g, tau)
        x = _mcf_vertex(tg, demands)
        if res.status == 2:
            assert x is None
            continue
        flows = _source_flows(tg, len(demands), *_support(x))
        got = {src: arc_key_flows(g, tau, flow)
               for src, flow in zip(sorted(demands), flows)}
        assert got == mcf_flows_reference(g, tau, demands, res.x,
                                          LP_TOLERANCE / 10), (g, tau)
        solved += 1
    assert solved


def test_tau_mcf_unchanged_with_reference_assembly(monkeypatch):
    cases = _tau_mcf_cases()

    def values():
        mcf_mod.reset_tau_mcf_ledger()
        return [tau_mcf(g, g.terminals, n) for g, n in cases]

    fast = values()
    monkeypatch.setattr(
        mcf_mod, "_assemble_mcf_lp",
        lambda tg, demands: mcf_lp_reference(tg.base, tg.tau, demands))
    assert values() == fast


# ---------------------------------------------------------------------------
# HiGHS statuses: only status 2 means infeasible

@pytest.mark.parametrize("status", [1, 4])
def test_solver_failure_is_not_infeasible(monkeypatch, status):
    monkeypatch.setattr(mcf_mod, "linprog", lambda *a, **kw: OptimizeResult(
        status=status, message="solver gave up", x=None))
    g = clique(3)
    with pytest.raises(LPSolveError) as exc:
        tau_mcf(g, g.terminals, 2)
    text = str(exc.value)
    assert f"status {status}" in text and "solver gave up" in text
    assert "tau=1" in text and "3 commodities" in text
    # the undecided probe left nothing in the ledger
    monkeypatch.undo()
    assert tau_mcf(g, g.terminals, 2) == 1


def test_solver_status_2_reads_infeasible(monkeypatch):
    monkeypatch.setattr(mcf_mod, "linprog", lambda *a, **kw: OptimizeResult(
        status=2, message="infeasible", x=None))
    g = clique(3)
    assert not mcf_feasible(g, uniform_demand(g.terminals, 2), 1)
