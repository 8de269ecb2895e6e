"""Delay-constrained multicommodity flow on timed graphs.

The central quantity is the least horizon tau at which the uniform
all-pairs demand (n'/k per ordered terminal pair) admits a fractional
congestion-1 routing in the tau-layer expansion.  Feasibility is decided
by an exact arc-based LP (HiGHS), read off the solver's status alone; no
routing is read back.  `tau_mcf` builds the demand once per search, as
the by-source dict {s: {t: n'/k}} that `mcf_feasible` hands to the LP.
The search for that horizon solves only the LPs that certified bounds
and earlier answers leave open: it starts at a flow-over-time cut bound,
which timed single-commodity max flows certify, and a per-(graph,
terminals) ledger of decided answers brackets it from both sides,
because feasibility is monotone up in tau and down in n'.

Also here: the balanced-partition edge-disjoint path extractor, which
peels its integral Dinic flow into unit paths with the one decomposer of
`timed`, and a small integral unit-demand router used by the bit-level
protocol builders.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from fractions import Fraction
from functools import partial

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .graphs import GraphError, UnreachableError, tree_terminal_diameter
from .timed import (
    TimedPath, base_min_cut, build_timed_graph, least_feasible_horizon,
    tau_route, timed_max_flow,
)

# terminal sets up to this size bound tau_MCF with the min cut of every
# terminal bipartition (2**(k-1) - 1 cuts); larger ones use the k singletons
CUT_BOUND_MAX_TERMINALS = 10


class LPSolveError(RuntimeError):
    """HiGHS ended without deciding feasibility (iteration limit,
    numerical trouble); such a probe is never read as infeasible."""


class PartitionInfeasibleError(RuntimeError):
    """The balanced-partition flow fell short; carries the achieved value."""

    def __init__(self, achieved, required):
        super().__init__(f"partition flow {achieved} < required {required}")
        self.achieved = achieved
        self.required = required


# ---------------------------------------------------------------------------
# arc-based LP

def _assemble_mcf_lp(tg, demands_by_source):
    """The arc-based LP on `tg` for demands {source: {dest: amount}} as
    (cost, A_ub, b_ub, A_eq, b_eq).

    Variable si * n_arcs + ai is commodity si's flow on arc ai (indexed
    like `TimedGraph.arc_arrays()`, sources sorted).  Each edge arc
    carries at most one unit over all commodities; memory arcs are free in
    the objective, so idle commodities dwell in place.  Each commodity
    numbers its conservation rows by first appearance along the arcs, tail
    before head.  HiGHS's pivots depend on the input order, so the
    numbering is kept exactly.
    """
    sources = sorted(demands_by_source)
    tails, heads, is_edge = tg.arc_arrays()
    n_src, n_arcs = len(sources), tails.size
    n_nodes = tg.node_count
    appearance = np.column_stack([tails, heads]).ravel()
    # every node is the tail or head of a memory arc, so all appear
    _, first = np.unique(appearance, return_index=True)
    rank = np.argsort(np.argsort(first))
    row_base = n_nodes * np.arange(n_src)

    rows = (row_base[:, None] + rank[appearance]).ravel()
    cols = np.repeat(np.arange(n_src * n_arcs), 2)
    vals = np.tile([1.0, -1.0], n_src * n_arcs)
    a_eq = sparse.coo_matrix((vals, (rows, cols)),
                             shape=(n_src * n_nodes, n_src * n_arcs))
    b_eq = np.zeros(n_src * n_nodes)
    for si, src in enumerate(sources):
        demand = demands_by_source[src]
        supply = sum(demand.values())
        b_eq[row_base[si] + rank[tg.node(src, 0)]] += float(supply)
        for dst, amt in demand.items():
            b_eq[row_base[si] + rank[tg.node(dst, tg.tau)]] -= float(amt)

    nonmem = np.flatnonzero(is_edge)
    ub_cols = (nonmem[:, None] + n_arcs * np.arange(n_src)).ravel()
    a_ub = sparse.coo_matrix(
        (np.ones(ub_cols.size), (np.repeat(np.arange(nonmem.size), n_src),
                                 ub_cols)),
        shape=(nonmem.size, n_src * n_arcs))
    cost = np.zeros((n_src, n_arcs))
    cost[:, nonmem] = 1.0
    return cost.ravel(), a_ub, np.ones(nonmem.size), a_eq, b_eq


def mcf_feasible(g, by_source, tau):
    """Whether the positive demands {source: {dest: amount}} route
    fractionally at horizon tau.

    Solves the `_assemble_mcf_lp` LP and reads HiGHS's status: 0 is
    feasible, 2 is infeasible, and any other raises LPSolveError.  No
    demand moves in zero rounds, so tau = 0 is infeasible without an
    LP."""
    tg = build_timed_graph(g, tau)
    if tau == 0:
        return False
    cost, a_ub, b_ub, a_eq, b_eq = _assemble_mcf_lp(tg, by_source)
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    if res.status not in (0, 2):
        raise LPSolveError(
            f"HiGHS status {res.status} at tau={tau} with "
            f"{len(by_source)} commodities: {res.message}")
    return res.status == 0


# ---------------------------------------------------------------------------
# tau_MCF: cut bounds, answer ledger, monotone search

# the ledger keeps the answers of at most this many (graph, terminals)
# keys, least recently used first out, and at most this many n' per key
LEDGER_SIZE = 256
_LEDGER = OrderedDict()     # (graph, sorted terminals) -> {n': tau}


def reset_tau_mcf_ledger():
    """Forget every answer `tau_mcf` has recorded in this process."""
    _LEDGER.clear()


def tau_mcf(g, terminals, n_prime):
    """Least tau at which the uniform n'/k all-pairs demand is routable.

    Routability is monotone up in tau (commodities can dwell) and down in
    n' (a routing scales down), so an answer tau* at n0 decides (tau* - 1,
    n') infeasible for every n' >= n0 and (tau*, n') feasible for every
    n' <= n0.  Every answer goes into a ledger per (graph, sorted
    terminals), bounded by LEDGER_SIZE.  A call brackets its answer
    between the ledger's answers at smaller and at larger n'; when that
    leaves more than one horizon, `least_feasible_horizon` searches by
    exact LP feasibility from `tau_mcf_flow_bound` (searched from the
    bracket's low end), reading every horizon at or past the high end as
    feasible without an LP.  An answer read from the ledger's high end is
    recorded as that tau.  Only a finished search is recorded, so a probe
    HiGHS could not decide (LPSolveError) leaves nothing behind.
    """
    if n_prime <= 0:
        raise GraphError("n_prime must be positive")
    terminals = tuple(sorted(terminals))
    if len(terminals) < 2:
        raise GraphError("need at least two terminals")
    n_prime = Fraction(n_prime)
    key = (g, terminals)
    answers = _LEDGER.get(key, {})
    lo = max((t for n, t in answers.items() if n <= n_prime), default=1)
    hi = min((t for n, t in answers.items() if n >= n_prime),
             default=math.inf)
    if lo != hi:
        lo = _flow_bound(g, terminals, n_prime, lo)
        share = n_prime / len(terminals)
        by_source = {s: {t: share for t in terminals if t != s}
                     for s in terminals}
        lo = least_feasible_horizon(
            lambda tau: tau >= hi or mcf_feasible(g, by_source, tau),
            lo, _search_cutoff(g, terminals, n_prime), "tau_mcf")
    if n_prime not in answers:
        answers[n_prime] = lo
        if len(answers) > LEDGER_SIZE:
            del answers[next(iter(answers))]
    _LEDGER[key] = answers
    _LEDGER.move_to_end(key)
    if len(_LEDGER) > LEDGER_SIZE:
        _LEDGER.popitem(last=False)
    return lo


def _search_cutoff(g, terminals, n_prime):
    return (int(n_prime) + 1) * g.n * len(terminals) ** 2 + g.n


def tau_mcf_lower_bound(g, terminals, n_prime):
    """max(terminal diameter, max over terminal bipartitions (T, K - T) of
    ceil(|T| |K - T| n' / (k lambda(T, K - T)))), a lower bound on tau_mcf.

    Proof (the Leighton-Rao cut condition, per round): the uniform demand
    sends |T| |K - T| n'/k units from T to K - T, and the lambda base edges
    of a min cut carry at most lambda units that way per round.  All
    2**(k-1) - 1 bipartitions are cut while k <= CUT_BOUND_MAX_TERMINALS,
    only the singletons T = {t} above that.  Raises UnreachableError for
    disconnected terminals.
    """
    return _base_bound(g, tuple(sorted(terminals)), Fraction(n_prime))[0]


def _base_bound(g, terminals, n_prime):
    """(tau_mcf_lower_bound, [(cut term, T, K - T)] per bipartition cut)."""
    if not g.connected(terminals):
        raise UnreachableError("terminals are disconnected")
    k = len(terminals)
    if k <= CUT_BOUND_MAX_TERMINALS:
        first, others = terminals[0], terminals[1:]
        sides = [(first,) + tuple(t for i, t in enumerate(others)
                                  if mask >> i & 1)
                 for mask in range(2 ** (k - 1) - 1)]
    else:
        sides = [(t,) for t in terminals]
    cuts = []
    for side in sides:
        rest = tuple(t for t in terminals if t not in side)
        crossing = len(side) * len(rest) * n_prime / k
        cuts.append((math.ceil(crossing / base_min_cut(g, side, rest)),
                     side, rest))
    lo = max([tree_terminal_diameter(g, None, terminals)]
             + [term for term, _, _ in cuts])
    return lo, cuts


def tau_mcf_flow_bound(g, terminals, n_prime):
    """The flow-over-time cut bound on tau_mcf, at least
    `tau_mcf_lower_bound`.

    It is the least tau >= tau_mcf_lower_bound at which every checked
    bipartition (T, K - T) passes: a timed single-commodity max flow
    (`timed_max_flow`) from T x {0} to (K - T) x {tau}, through a super
    source with an arc of capacity ceil(|K - T| n'/k) into each (t, 0) and
    a super sink fed by an arc of capacity ceil(|T| n'/k) from each (u,
    tau), reaches ceil(|T| |K - T| n'/k).

    Proof: at tau_mcf the uniform demand routes with congestion 1.  Its
    commodities from T to K - T together form a flow of |T| |K - T| n'/k
    units from T x {0} to (K - T) x {tau} that uses each edge arc at most
    once, sends |K - T| n'/k from each t and delivers |T| n'/k to each u.
    The capacities are integers, so the maximum flow is integral and
    reaches the ceiling.  Each side's test is monotone in tau (the flow
    can dwell at its sources), so `least_feasible_horizon` finds each
    side's least horizon from the bound so far.  This is the cut condition
    on the timed network, the bound of flows over time (Ford-Fulkerson
    1958, Hoppe-Tardos 2000): unlike the per-round base-cut bound, it
    counts the rounds a unit needs to reach the cut.  Reversing time maps
    a flow from T to K - T onto one from K - T to T with the two
    capacities swapped, so one direction per bipartition suffices.
    Checked are the singletons and every bipartition whose cut term
    attains the largest one; the others count only through the base
    bound.  With two terminals a, b the one test reads F_ab(tau) >=
    ceil(n'/2), since both capacities are ceil(n'/2): it is the
    single-pair flow over time, and `tau_route` gives its least horizon
    without a timed network.  Raises UnreachableError for disconnected
    terminals, and GraphError, before allocating a network, when its
    capacities pass int32.
    """
    terminals = tuple(sorted(terminals))
    return _flow_bound(g, terminals, Fraction(n_prime), 1)


def _flow_bound(g, terminals, n_prime, lo):
    """`tau_mcf_flow_bound` searched from max(lo, tau_mcf_lower_bound),
    for an lo below which no horizon is feasible."""
    base, cuts = _base_bound(g, terminals, n_prime)
    lo = max(lo, base)
    if len(terminals) == 2:
        # the one side's test is F_ab(tau) >= ceil(n'/2), the single-pair
        # flow over time, which tau_route reads in closed form
        return max(lo, tau_route(g, *terminals, math.ceil(n_prime / 2)))
    top = max(term for term, _, _ in cuts)
    share = n_prime / len(terminals)
    cutoff = _search_cutoff(g, terminals, n_prime)
    # the sides attaining the top cut term go first: they bind most often
    for term, side, rest in sorted(cuts, key=lambda cut: -cut[0]):
        if term == top or min(len(side), len(rest)) == 1:
            lo = least_feasible_horizon(
                partial(_side_routes, g, side, rest, share), lo, cutoff,
                "tau_mcf flow bound")
    return lo


def _side_routes(g, side, rest, share, tau):
    tg = build_timed_graph(g, tau)
    flow = _partition_flow(tg, side, rest, math.ceil(len(rest) * share),
                           math.ceil(len(side) * share))
    return flow.value >= math.ceil(len(side) * len(rest) * share)


# ---------------------------------------------------------------------------
# balanced partition paths (integral, via super source/sink)

def balanced_partition_paths(g, tau, side_a, side_b, n_prime):
    """n'*|A| edge-disjoint timed paths from A x {0} to B x {tau}, with
    out-degree exactly n' per A-vertex and in-degree exactly n' per
    B-vertex.  Raises PartitionInfeasibleError (carrying the achieved flow)
    when the super-source/super-sink flow falls short."""
    side_a, side_b = sorted(side_a), sorted(side_b)
    if len(side_a) != len(side_b) or not side_a:
        raise GraphError("sides must be nonempty and balanced")
    if set(side_a) & set(side_b):
        raise GraphError("sides overlap")
    tg = build_timed_graph(g, tau)
    flow = _partition_flow(tg, side_a, side_b, n_prime, n_prime)
    required = n_prime * len(side_a)
    if flow.value < required:
        raise PartitionInfeasibleError(flow.value, required)
    return flow.unit_paths(side_a)


def _partition_flow(tg, side_a, side_b, cap_a, cap_b):
    """Maximum flow from side_a x {0} to side_b x {tau} in `tg`, through a
    super source with an arc of capacity cap_a into each (a, 0) and a super
    sink fed by an arc of capacity cap_b from each (b, tau)."""
    s, t = tg.node_count, tg.node_count + 1
    arcs = ([(s, tg.node(u, 0), cap_a) for u in side_a]
            + [(tg.node(v, tg.tau), t, cap_b) for v in side_b])
    return timed_max_flow(tg, s, t, arcs)


# ---------------------------------------------------------------------------
# integral unit-demand router (for bit protocols)

def route_unit_demands(g, units, horizon):
    """Route unit (src, dst) demands as edge-disjoint timed paths within
    `horizon` layers, or return None.

    Greedy sequential BFS with a few deterministic orderings; memory steps
    are free.  Exact enough at desk scale; callers escalate the horizon on
    failure.
    """
    if not units:
        return []
    dists = {}
    for idx, (src, dst) in enumerate(units):
        if src not in dists:
            dists[src] = g.distances_from(src)
        if dists[src][dst] is None:
            return None
        if dists[src][dst] > horizon:
            return None
    orderings = [
        sorted(range(len(units)),
               key=lambda i: (-dists[units[i][0]][units[i][1]], i)),
        sorted(range(len(units)),
               key=lambda i: (dists[units[i][0]][units[i][1]], i)),
        list(range(len(units))),
    ]
    for order in orderings:
        result = _route_greedy(g, units, horizon, order)
        if result is not None:
            return result
    return None


def _route_greedy(g, units, horizon, order):
    used = set()
    routed = [None] * len(units)
    for idx in order:
        src, dst = units[idx]
        path = _bfs_timed(g, src, dst, horizon, used)
        if path is None:
            return None
        for key in path.steps():
            if key[1] is not None:
                used.add(key)
        routed[idx] = path
    return routed


def _bfs_timed(g, src, dst, horizon, used):
    """Residual timed path minimizing edge crossings (0-1 BFS: memory
    steps are free), so units dwell instead of burning spare arcs."""
    from collections import deque

    if horizon == 0:
        return TimedPath((src,), ()) if src == dst else None
    start = (src, 0)
    target = (dst, horizon)
    parent = {start: None}
    dist = {start: 0}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        if state == target:
            break
        v, layer = state
        if layer == horizon:
            continue
        mem_state = (v, layer + 1)
        if mem_state not in dist or dist[mem_state] > dist[state]:
            dist[mem_state] = dist[state]
            parent[mem_state] = (v, layer, None)
            queue.appendleft(mem_state)
        for eid, w in g.incidence[v]:
            key = (layer, eid, v, w)
            if key in used:
                continue
            nxt = (w, layer + 1)
            if nxt not in dist or dist[nxt] > dist[state] + 1:
                dist[nxt] = dist[state] + 1
                parent[nxt] = (v, layer, eid)
                queue.append(nxt)
    if target not in parent:
        return None
    verts = [dst]
    eids = []
    state = target
    while parent[state] is not None:
        v, layer, eid = parent[state]
        verts.append(v)
        eids.append(eid)
        state = (v, layer)
    verts.reverse()
    eids.reverse()
    return TimedPath(tuple(verts), tuple(eids))
