"""Delay-constrained multicommodity flow on timed graphs.

The central quantity is the least horizon tau at which the uniform
all-pairs demand (n'/k per ordered terminal pair) admits a fractional
congestion-1 routing in the tau-layer expansion.  Feasibility is decided
by an exact arc-based LP (HiGHS), with the solver tolerance recorded on
every produced schedule.  The search for that horizon solves only the LPs
that certified bounds and earlier answers leave open: it starts at a
flow-over-time cut bound, which timed single-commodity max flows certify,
and a per-(graph, terminals) ledger of decided answers brackets it from
both sides, because feasibility is monotone up in tau and down in n'.
Each answer is recorded with a witness: the LP vertex that certified it,
a congestion-1 routing of the uniform demand at exactly that horizon.

Also here: the two-stage router that handles every n'-bounded demand
within twice that horizon, built from the witness without an LP of its
own, the balanced-partition edge-disjoint path extractor, and a small
integral unit-demand router used by the bit-level protocol builders.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .graphs import GraphError, UnreachableError, tree_terminal_diameter
from .schedules import RoutingSchedule, ScheduleEntry
from .timed import (
    TimedPath, base_min_cut, build_timed_graph, decompose_paths,
    least_feasible_horizon, tau_route, timed_max_flow,
)

LP_TOLERANCE = 1e-6
# terminal sets up to this size bound tau_MCF with the min cut of every
# terminal bipartition (2**(k-1) - 1 cuts); larger ones use the k singletons
CUT_BOUND_MAX_TERMINALS = 10


class LPSolveError(RuntimeError):
    """HiGHS ended without deciding feasibility (iteration limit,
    numerical trouble); such a probe is never read as infeasible."""


class BoundedDemandError(ValueError):
    """A demand matrix violates its claimed n'-bound."""


class PartitionInfeasibleError(RuntimeError):
    """The balanced-partition flow fell short; carries the achieved value."""

    def __init__(self, achieved, required):
        super().__init__(f"partition flow {achieved} < required {required}")
        self.achieved = achieved
        self.required = required


@dataclass
class DemandMatrix:
    """Directed nonnegative demand over ordered terminal pairs."""

    terminals: tuple
    amounts: dict = field(default_factory=dict)

    def __post_init__(self):
        self.terminals = tuple(sorted(self.terminals))
        terms = set(self.terminals)
        clean = {}
        for (u, v), amt in sorted(self.amounts.items()):
            if u not in terms or v not in terms:
                raise BoundedDemandError(f"pair ({u},{v}) outside terminal set")
            if u == v and amt != 0:
                raise BoundedDemandError("diagonal demands must be zero")
            if amt < 0:
                raise BoundedDemandError("negative demand")
            if amt > 0:
                clean[(u, v)] = amt
        self.amounts = clean

    def amount(self, u, v):
        return self.amounts.get((u, v), 0)

    def row_sum(self, u):
        return sum(a for (x, _), a in self.amounts.items() if x == u)

    def col_sum(self, v):
        return sum(a for (_, y), a in self.amounts.items() if y == v)

    def is_bounded(self, n_prime):
        return all(self.row_sum(u) <= n_prime and self.col_sum(u) <= n_prime
                   for u in self.terminals)

    @property
    def total(self):
        return sum(self.amounts.values())


def uniform_demand(terminals, n_prime):
    k = len(terminals)
    per_pair = Fraction(n_prime) / k
    amounts = {(u, v): per_pair for u in terminals for v in terminals if u != v}
    return DemandMatrix(tuple(terminals), amounts)


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
    before head.  HiGHS picks among optimal vertices by input order, and the
    witness routings come from that vertex, so the numbering is kept
    exactly.
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


def _mcf_vertex(tg, demands_by_source):
    """HiGHS's optimal vertex of the `_assemble_mcf_lp` LP on `tg` (tau >=
    1, at least one source), or None when the LP is infeasible.  Raises
    LPSolveError when HiGHS ends without deciding."""
    cost, a_ub, b_ub, a_eq, b_eq = _assemble_mcf_lp(tg, demands_by_source)
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    if res.status == 2:
        return None
    if res.status != 0:
        raise LPSolveError(
            f"HiGHS status {res.status} at tau={tg.tau} with "
            f"{len(demands_by_source)} commodities: {res.message}")
    return res.x


def _support(x):
    """The entries of an `_mcf_vertex` solution x above LP_TOLERANCE / 10,
    as (indices, amounts).  A basic solution has at most as many nonzeros
    as its LP has rows."""
    support = np.flatnonzero(x > LP_TOLERANCE / 10)
    return support, x[support]


def _source_flows(tg, n_sources, support, amounts):
    """The `_support` of an `_mcf_vertex` solution on `tg` scattered back
    into one arc-flow vector per source: row si is sorted source si's flow,
    indexed like `TimedGraph.arc_arrays()`."""
    flows = np.zeros((n_sources, (2 * tg.base.m + tg.base.n) * tg.tau))
    flows.flat[support] = amounts
    return flows


def mcf_feasible(g, demand, tau, vertices=None):
    """Whether a DemandMatrix routes fractionally at horizon tau.

    Solves the `_assemble_mcf_lp` LP and reads its status; when
    `vertices` is a dict, a feasible LP's vertex is stored in it under
    tau.  A DemandMatrix holds only positive off-diagonal amounts, so any
    demand is infeasible at tau = 0."""
    by_source = {}
    for (u, v), amt in demand.amounts.items():
        by_source.setdefault(u, {})[v] = amt
    tg = build_timed_graph(g, tau)
    if not by_source or tau == 0:
        return not by_source
    x = _mcf_vertex(tg, by_source)
    if x is not None and vertices is not None:
        vertices[tau] = x
    return x is not None


# ---------------------------------------------------------------------------
# tau_MCF: cut bounds, answer ledger, monotone search

# the ledger keeps the answers of at most this many (graph, terminals)
# keys, least recently used first out, and at most this many n' per key
LEDGER_SIZE = 256
_LEDGER = OrderedDict()     # (graph, sorted terminals) -> {n': Witness}


@dataclass(frozen=True)
class Witness:
    """The routing behind a recorded tau_mcf answer: the LP vertex, kept
    as its `_support` (indices, amounts), routes the uniform n_prime/k
    demand with congestion 1 at horizon tau.  `_source_flows` turns it
    into arc flows when a router needs them."""

    tau: int
    n_prime: Fraction
    support: np.ndarray
    amounts: np.ndarray


def reset_tau_mcf_ledger():
    """Forget every answer and witness `tau_mcf` has recorded in this
    process."""
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
    feasible without an LP.  Only a finished search is recorded, so a
    probe HiGHS could not decide (LPSolveError) leaves nothing behind.

    Each answer is recorded with its `Witness`.  An answer an LP
    certified keeps that LP's vertex.  An answer read from the ledger's
    high end, by the search or because the two ends met, shares the
    witness of the nearest entry at n_w >= n', whose tau it is, and which
    routes n_w/k >= n'/k per pair.  So every recorded answer has a
    witness at exactly its tau, which `route_bounded_demand` routes from.
    """
    if n_prime <= 0:
        raise GraphError("n_prime must be positive")
    terminals = tuple(sorted(terminals))
    if len(terminals) < 2:
        raise GraphError("need at least two terminals")
    n_prime = Fraction(n_prime)
    key = (g, terminals)
    answers = _LEDGER.get(key, {})
    lo = max((w.tau for n, w in answers.items() if n <= n_prime), default=1)
    hi = min((w.tau for n, w in answers.items() if n >= n_prime),
             default=math.inf)
    vertices = {}
    if lo != hi:
        lo = _flow_bound(g, terminals, n_prime, lo)
        demand = uniform_demand(terminals, n_prime)
        lo = least_feasible_horizon(
            lambda tau: tau >= hi or mcf_feasible(g, demand, tau, vertices),
            lo, _search_cutoff(g, terminals, n_prime), "tau_mcf")
    if n_prime not in answers:
        if lo in vertices:
            witness = Witness(lo, n_prime, *_support(vertices[lo]))
        else:   # the nearest answer above is hi = lo
            witness = answers[min(n for n in answers if n >= n_prime)]
        answers[n_prime] = witness
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


def route_bounded_demand(g, terminals, demand, n_prime):
    """Route any n'-bounded demand in at most twice the uniform horizon.

    Two stages of the uniform horizon tau* = tau_mcf(n') each, in the
    manner of Valiant-Brebner two-phase routing: first every origin
    scatters its outgoing commodity evenly over all terminals (colored by
    final destination), then every terminal forwards each color to its
    destination.  The returned schedule carries end-to-end entries tagged
    by (origin, destination) commodity, each the concatenation of a
    stage-1 and a stage-2 path matched at their junction terminal.

    Both stages come from the `Witness` that `tau_mcf` recorded for n':
    a congestion-1 routing at tau* of the uniform demand n_w/k per ordered
    pair, for some n_w >= n'.  Each source's witness flow is decomposed
    into paths once.  Write rows[u] and cols[w] for the demand's row and
    column sums.
    - Stage 1 sends rows[u]/k from u to every terminal: each witness path
      of u, carrying n_w/k to its end in total, is scaled by rows[u]/n_w,
      and a dwell path (all memory steps) keeps u's own share rows[u]/k.
    - Stage 2 sends cols[w]/k from every v to w: each witness path of v
      that ends at w is scaled by cols[w]/n_w, and a dwell path keeps
      cols[v]/k at v.

    Proof that each stage has congestion <= 1: the demand is n'-bounded
    and n' <= n_w, so every factor rows[u]/n_w and cols[w]/n_w is at most
    1.  An edge arc's load in a stage is a sum over sources of their
    witness flow on the arc, each scaled by a factor <= 1, so it is at
    most the witness's load, which is at most 1; dwell paths use only
    memory arcs.  At a junction v the stage-1 inflow of color w is
    sum_u (rows[u]/k) (d(u, w)/rows[u]) = cols[w]/k, the stage-2 outflow
    of color w, so the matching consumes every parcel.
    """
    terminals = tuple(sorted(terminals))
    k = len(terminals)
    if not demand.is_bounded(n_prime):
        raise BoundedDemandError(f"demand is not {n_prime}-bounded")
    if demand.total == 0:
        return RoutingSchedule(0, (), congestion=1, tolerance=LP_TOLERANCE)
    tau_star = tau_mcf(g, terminals, n_prime)
    witness = _LEDGER[(g, terminals)][Fraction(n_prime)]

    tg = build_timed_graph(g, tau_star)
    eps = 1e-9
    flows = _source_flows(tg, k, witness.support, witness.amounts)
    paths = {u: decompose_paths(tg, flow, (u,), eps)
             for u, flow in zip(terminals, flows)}

    def dwell(v):
        return TimedPath(0, (v,) * (tau_star + 1), (None,) * tau_star)

    rows = {u: demand.row_sum(u) for u in terminals}
    cols = {v: demand.col_sum(v) for v in terminals}
    # stage-1 parcels split by color (= final destination), grouped by the
    # junction terminal they land on
    inflow = {}  # (junction, color) -> list of (origin, path, amount)
    for u in terminals:
        if rows[u] <= 0:
            continue
        scale = rows[u] / witness.n_prime
        parcels = [(path, amt * scale) for path, amt in paths[u]]
        parcels.append((dwell(u), rows[u] / k))
        for path, amt in parcels:
            junction = path.verts[-1]
            for color in terminals:
                d_uc = demand.amount(u, color)
                if d_uc <= 0:
                    continue
                share = amt * d_uc / rows[u]
                if share > eps:
                    inflow.setdefault((junction, color), []).append(
                        (u, path, share))
    outflow = {}  # (junction, color) -> list of [path, amount]
    for v in terminals:
        parcels = [(path, amt * cols[path.verts[-1]] / witness.n_prime)
                   for path, amt in paths[v]]
        parcels.append((dwell(v), cols[v] / k))
        for path, amt in parcels:
            if amt > eps:
                outflow.setdefault((v, path.verts[-1]), []).append(
                    [path, amt])
    entries = []
    for key in sorted(inflow):
        outs = outflow.get(key, [])
        oi = 0
        for origin, path1, amt in inflow[key]:
            remaining = amt
            while remaining > eps:
                if oi >= len(outs):
                    raise AssertionError(
                        f"junction {key} under-supplied by stage 2")
                path2, avail = outs[oi]
                take = min(remaining, avail)
                entries.append(ScheduleEntry(
                    (origin, path2.verts[-1]),
                    _concat_paths(path1, path2, tau_star),
                    take))
                remaining -= take
                outs[oi][1] -= take
                if outs[oi][1] <= eps:
                    oi += 1
    return RoutingSchedule(horizon=2 * tau_star, entries=tuple(entries),
                           congestion=1, tolerance=LP_TOLERANCE,
                           meta={"tau_mcf": tau_star})


def _concat_paths(path1, path2, offset):
    assert path1.verts[-1] == path2.verts[0]
    return TimedPath(path1.start,
                     path1.verts + path2.verts[1:],
                     path1.edge_ids + path2.edge_ids)


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
    return [path for path, units in decompose_paths(tg, flow.arc_units(),
                                                    side_a)
            for _ in range(units)]


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
        return TimedPath(0, (src,), ()) if src == dst else None
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
    return TimedPath(0, tuple(verts), tuple(eids))
