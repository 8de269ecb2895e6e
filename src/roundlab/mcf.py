"""Delay-constrained multicommodity flow on timed graphs.

The central quantity is the least horizon tau at which the uniform
all-pairs demand (n'/k per ordered terminal pair) admits a fractional
congestion-1 routing in the tau-layer expansion.  Feasibility is decided
by an exact arc-based LP (HiGHS), with the solver tolerance recorded on
every produced schedule.

Also here: the two-stage router that handles every n'-bounded demand
within twice that horizon, the balanced-partition edge-disjoint path
extractor, and a small integral unit-demand router used by the bit-level
protocol builders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .graphs import GraphError, UnreachableError, tree_terminal_diameter
from .schedules import RoutingSchedule, ScheduleEntry
from .timed import (
    TimedPath, base_min_cut, build_timed_graph, decompose_paths,
    least_feasible_horizon, timed_max_flow,
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
    """The arc-based LP of `_solve_mcf` as (cost, A_ub, b_ub, A_eq, b_eq).

    Variable si * len(arcs) + ai is commodity si's flow on arc ai (in
    `TimedGraph.arcs` order).  Each commodity numbers its conservation rows
    by first appearance along the arcs, tail before head.  HiGHS picks
    among optimal vertices by input order, and the routed paths come from
    that vertex, so the numbering is kept exactly.
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


def _solve_mcf(g, tau, demands_by_source):
    """Exact-feasibility multicommodity LP on the tau-layer expansion.

    demands_by_source: {source: {dest: amount}}.  Returns per-source arc
    flows ({source: {arc_key: amount}}) or None when infeasible, and
    raises LPSolveError when HiGHS ends without deciding.  Memory arcs are
    free in the objective, so idle commodities dwell in place.
    """
    tg = build_timed_graph(g, tau)
    sources = sorted(demands_by_source)
    if not sources:
        return {}
    if tau == 0:
        ok = all(u == v or amt == 0
                 for u, d in demands_by_source.items() for v, amt in d.items())
        return {u: {} for u in sources} if ok else None
    cost, a_ub, b_ub, a_eq, b_eq = _assemble_mcf_lp(tg, demands_by_source)
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    if res.status == 2:
        return None
    if res.status != 0:
        raise LPSolveError(
            f"HiGHS status {res.status} at tau={tau} with {len(sources)} "
            f"commodities: {res.message}")
    arcs = tg.arcs
    x = res.x.reshape(len(sources), len(arcs))
    out = {}
    for si, src in enumerate(sources):
        used = np.flatnonzero(x[si] > LP_TOLERANCE / 10).tolist()
        out[src] = {arcs[ai]: x[si, ai] for ai in used}
    return out


def mcf_feasible(g, demand, tau):
    """Whether a DemandMatrix routes fractionally at horizon tau."""
    by_source = {}
    for (u, v), amt in demand.amounts.items():
        by_source.setdefault(u, {})[v] = amt
    return _solve_mcf(g, tau, by_source) is not None


def tau_mcf(g, terminals, n_prime):
    """Least tau at which the uniform n'/k all-pairs demand is routable.

    `least_feasible_horizon` over exact LP feasibility, from
    `tau_mcf_lower_bound`.  Results are memoised per (graph, sorted
    terminals, exact n') in a least-recently-used cache of 256 entries.
    """
    if n_prime <= 0:
        raise GraphError("n_prime must be positive")
    terminals = tuple(sorted(terminals))
    if len(terminals) < 2:
        raise GraphError("need at least two terminals")
    return _tau_mcf(g, terminals, Fraction(n_prime))


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
    terminals = tuple(sorted(terminals))
    if not g.connected(terminals):
        raise UnreachableError("terminals are disconnected")
    k = len(terminals)
    lo = tree_terminal_diameter(g, None, terminals)
    if k <= CUT_BOUND_MAX_TERMINALS:
        first, others = terminals[0], terminals[1:]
        sides = [(first,) + tuple(t for i, t in enumerate(others)
                                  if mask >> i & 1)
                 for mask in range(2 ** (k - 1) - 1)]
    else:
        sides = [(t,) for t in terminals]
    for side in sides:
        rest = [t for t in terminals if t not in side]
        crossing = Fraction(len(side) * len(rest)) * Fraction(n_prime) / k
        lo = max(lo, math.ceil(crossing / base_min_cut(g, side, rest)))
    return lo


@lru_cache(maxsize=256)
def _tau_mcf(g, terminals, n_prime):
    lo = tau_mcf_lower_bound(g, terminals, n_prime)
    demand = uniform_demand(terminals, n_prime)
    cutoff = (int(n_prime) + 1) * g.n * len(terminals) ** 2 + g.n
    return least_feasible_horizon(lambda tau: mcf_feasible(g, demand, tau),
                                  lo, cutoff, "tau_mcf")


def route_bounded_demand(g, terminals, demand, n_prime):
    """Route any n'-bounded demand in at most twice the uniform horizon.

    Two stages of the uniform-routing horizon tau* each: first every origin
    scatters its outgoing commodity evenly over all terminals (colored by
    final destination), then every terminal forwards each color to its
    destination.  The returned schedule carries end-to-end entries tagged
    by (origin, destination) commodity.
    """
    terminals = tuple(sorted(terminals))
    k = len(terminals)
    if not demand.is_bounded(n_prime):
        raise BoundedDemandError(f"demand is not {n_prime}-bounded")
    if demand.total == 0:
        return RoutingSchedule(0, (), congestion=1, tolerance=LP_TOLERANCE)
    tau_star = tau_mcf(g, terminals, n_prime)

    rows = {u: demand.row_sum(u) for u in terminals}
    stage1 = {u: {v: rows[u] / k for v in terminals}
              for u in terminals if rows[u] > 0}
    sol1 = _solve_mcf(g, tau_star, stage1)
    if sol1 is None:
        raise AssertionError("stage-1 routing infeasible at tau_mcf horizon")
    cols = {v: demand.col_sum(v) for v in terminals}
    stage2 = {v: {w: cols[w] / k for w in terminals if cols[w] > 0}
              for v in terminals}
    stage2 = {v: d for v, d in stage2.items() if d}
    sol2 = _solve_mcf(g, tau_star, stage2)
    if sol2 is None:
        raise AssertionError("stage-2 routing infeasible at tau_mcf horizon")

    tg = build_timed_graph(g, tau_star)
    eps = 1e-9
    # stage-1 parcels split by color (= final destination), grouped by the
    # junction terminal they land on
    inflow = {}  # (junction, color) -> list of (origin, path, amount)
    for u in stage1:
        for path, amt in decompose_paths(tg, sol1[u], (u,), eps):
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
    for v in stage2:
        for path, amt in decompose_paths(tg, sol2[v], (v,), eps):
            color = path.verts[-1]
            if amt > eps:
                outflow.setdefault((v, color), []).append([path, amt])
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
    s, t = tg.node_count, tg.node_count + 1
    terminal_arcs = ([(s, tg.node(u, 0), n_prime) for u in side_a]
                     + [(tg.node(v, tau), t, n_prime) for v in side_b])
    flow = timed_max_flow(tg, s, t, terminal_arcs)
    required = n_prime * len(side_a)
    if flow.value < required:
        raise PartitionInfeasibleError(flow.value, required)
    return [path for path, units in decompose_paths(tg, flow.arc_flows(),
                                                    side_a)
            for _ in range(units)]


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
