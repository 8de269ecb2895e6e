"""Delay-constrained multicommodity flow on timed graphs.

The central quantity is tau_MCF(G, K, n'), the least horizon tau at which
the uniform all-pairs demand (n'/k per ordered terminal pair) admits a
fractional congestion-1 routing in the tau-layer expansion.  Feasibility
is decided by an exact arc-based LP (HiGHS), read off the solver's status
alone; no routing is read back.  Each probe solves that LP in two
stages.  The restricted LP lets each commodity cross an edge only away
from its source (by static BFS distance); it is the full LP with columns
fixed at 0, so a feasible point of it is one of the full LP, and it
certifies most feasible probes at a fraction of the cost.  Only when it
is not feasible does the full LP decide.  `tau_mcf` is a pure function of
the graph, the terminals and a set of n': one call decides the whole set,
largest n' first, so a caller with several n' (the circuit compiler's
routed levels) asks once.  Each search solves only the LPs that its
flow-over-time cut bound, read in closed form off static min-cost flows
between terminal subsets, and the answer at the next larger n' leave
open, because feasibility is monotone up in tau and down in n'.

Also here: a small integral unit-demand router used by the bit-level
protocol builders.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .graphs import GraphError, UnreachableError, tree_terminal_diameter
from .timed import (
    TimedPath, _static_flow, base_min_cut, build_timed_graph,
    least_feasible_horizon, least_horizon,
)

# terminal sets up to this size bound tau_MCF with the min cut of every
# terminal bipartition (2**(k-1) - 1 cuts); larger ones use the k singletons
CUT_BOUND_MAX_TERMINALS = 10


class LPSolveError(RuntimeError):
    """HiGHS ended without deciding feasibility (iteration limit,
    numerical trouble); such a probe is never read as infeasible."""


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


def _forward_bounds(g, sources, tau):
    """The column bounds of the restricted LP, an (n_src * n_arcs, 2)
    array over the `_assemble_mcf_lp` columns: commodity s keeps (0, inf)
    on every memory arc and on each edge arc u -> v with d(s, v) = d(s,
    u) + 1 (static BFS distances), and every other edge arc, those of
    vertices s cannot reach included, is fixed at 0."""
    ends = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
    tails, heads = ends.ravel(), ends[:, ::-1].ravel()
    # -2 for an unreachable vertex: an arc with such a tail has such a
    # head, and -2 != -2 + 1
    dist = np.array([[-2 if d is None else d for d in g.distances_from(s)]
                     for s in sources], dtype=np.int64)
    keep = np.column_stack([dist[:, heads] == dist[:, tails] + 1,
                            np.ones((len(sources), g.n), dtype=bool)])
    upper = np.where(np.tile(keep, (1, tau)).ravel(), np.inf, 0.0)
    return np.column_stack([np.zeros(upper.size), upper])


def mcf_feasible(g, by_source, tau):
    """Whether the positive demands {source: {dest: amount}} route
    fractionally at horizon tau.

    Decides in two stages on the one `_assemble_mcf_lp` LP.  Stage 1
    solves the restricted LP, in which each commodity may cross an edge
    only away from its source (`_forward_bounds`); status 0 there is
    feasible.  Otherwise stage 2 solves the full LP and its status
    decides: 0 is feasible, 2 is infeasible, and any other raises
    LPSolveError.  Proof: the restricted LP is the full LP with some
    columns fixed at 0, so each of its feasible points is one of the full
    LP; an infeasible or failed restricted LP decides nothing.  No demand
    moves in zero rounds, so tau = 0 is infeasible without an LP."""
    tg = build_timed_graph(g, tau)
    if tau == 0:
        return False
    cost, a_ub, b_ub, a_eq, b_eq = _assemble_mcf_lp(tg, by_source)
    lp = dict(A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, method="highs")
    restricted = linprog(
        cost, bounds=_forward_bounds(g, sorted(by_source), tau), **lp)
    if restricted.status == 0:
        return True
    res = linprog(cost, bounds=(0, None), **lp)
    if res.status not in (0, 2):
        raise LPSolveError(
            f"HiGHS status {res.status} at tau={tau} with "
            f"{len(by_source)} commodities: {res.message}")
    return res.status == 0


# ---------------------------------------------------------------------------
# tau_MCF: cut bounds and monotone search

def tau_mcf(g, terminals, n_primes):
    """{n': tau} for every n' in `n_primes`, tau the least horizon at which
    the uniform n'/k all-pairs demand is routable.

    The distinct n' are decided largest first, each by
    `least_feasible_horizon` from `tau_mcf_flow_bound`, and every horizon
    at or past the answer of the next larger n' reads as feasible without
    an LP.  Proof: a routing of the n'-demand at horizon tau, scaled by
    n''/n' <= 1, routes the n''-demand at tau, so routability is monotone
    down in n' (and up in tau, since commodities can dwell); the answer at
    a larger n' is thus a feasible horizon for every smaller one.  The
    result depends on the arguments alone: nothing is kept between calls.
    """
    terminals = tuple(sorted(terminals))
    if len(terminals) < 2:
        raise GraphError("need at least two terminals")
    n_primes = sorted({Fraction(n) for n in n_primes}, reverse=True)
    if n_primes and n_primes[-1] <= 0:
        raise GraphError("n_prime must be positive")
    answers, hi = {}, math.inf
    for n_prime in n_primes:
        share = n_prime / len(terminals)
        by_source = {s: {t: share for t in terminals if t != s}
                     for s in terminals}
        hi = answers[n_prime] = least_feasible_horizon(
            lambda tau: tau >= hi or mcf_feasible(g, by_source, tau),
            tau_mcf_flow_bound(g, terminals, n_prime),
            _search_cutoff(g, terminals, n_prime), "tau_mcf")
    return answers


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
    """(tau_mcf_lower_bound, the bipartitions (T, K - T) that
    `tau_mcf_flow_bound` checks: the singletons and every one whose cut
    term attains the largest)."""
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
    top = max(term for term, _, _ in cuts)
    lo = max(top, tree_terminal_diameter(g, None, terminals))
    return lo, [(side, rest) for term, side, rest in cuts
                if term == top or min(len(side), len(rest)) == 1]


def tau_mcf_flow_bound(g, terminals, n_prime):
    """The flow-over-time cut bound on tau_mcf, at least
    `tau_mcf_lower_bound`.

    It is the largest of `tau_mcf_lower_bound` and the least tau with
    F_XY(tau) >= units(X, Y) = need - c_a |T - X| - c_b |(K - T) - Y|,
    over each checked bipartition (T, K - T), with c_a = ceil(|K - T|
    n'/k), c_b = ceil(|T| n'/k) and need = ceil(|T| |K - T| n'/k), and
    every nonempty X of T and Y of K - T with units(X, Y) > 0.
    F_XY(tau) = sum_i max(0, tau + 1 - l_i)
    over the path lengths l_i of the static flow from X to Y
    (`timed._static_flow`), and `timed.least_horizon` reads that tau off
    them.  Checked are the singletons and every bipartition whose cut term
    attains the largest one (`_base_bound`); the others count only through
    the base bound.  F_XY grows with X and Y, so a pair whose units the
    flow of a smaller pair (one x or one y fewer) already carries by the
    bound so far cannot raise it, and needs no static flow of its own.

    Proof: at tau_mcf the uniform demand routes with congestion 1.  Its
    commodities from T to K - T together form a flow of |T| |K - T| n'/k
    units from T x {0} to (K - T) x {tau} that uses each edge arc at most
    once, sends |K - T| n'/k from each t and delivers |T| n'/k to each u.
    So in the timed network with a super source feeding each (t, 0)
    through an arc of capacity c_a and a super sink fed by an arc of
    capacity c_b from each (u, tau), the maximum flow, integral since the
    capacities are, reaches need.  A minimum cut of that network leaves
    the super arcs of some X of T and Y of K - T uncut; past them it must
    separate X x {0} from Y x {tau}, which costs the maximum flow from
    the one to the other, F_XY(tau).  So by max-flow min-cut, need <=
    min over X, Y of c_a |T - X| + c_b |(K - T) - Y| + F_XY(tau), the
    subset condition of transshipments over time (Hoppe and Tardos,
    Mathematics of Operations Research 2000).  F_XY(tau) is the flow over
    time temporally repeated from the static min-cost flow between a super
    source over X and a super sink over Y (Ford and Fulkerson 1958).  An
    empty X or Y never binds, since c_a |T| >= need and c_b |K - T| >=
    need.  This is the cut condition on the timed network: unlike the
    per-round base-cut bound, it counts the rounds a unit needs to reach
    the cut.  Reversing time maps a flow from T to K - T onto one from
    K - T to T with the two capacities swapped, so one direction per
    bipartition suffices.  With two terminals a, b the one condition is
    X = {a}, Y = {b} and units = ceil(n'/2): the bound is the larger of
    the base bound and tau_route(a, b, ceil(n'/2)).  Raises
    UnreachableError for disconnected terminals.

    Supported k: at most 14.  The loop visits (2**|T| - 1)(2**|K - T| -
    1) subset pairs per checked side, so at least k (2**(k-1) - 1) over
    the singletons alone, even where the pruning skips their flows; each
    further terminal about doubles the time.  Nothing checks k.
    """
    terminals = tuple(sorted(terminals))
    n_prime = Fraction(n_prime)
    lo, sides = _base_bound(g, terminals, n_prime)
    share = n_prime / len(terminals)
    for side, rest in sides:
        cap_a = math.ceil(len(rest) * share)
        cap_b = math.ceil(len(side) * share)
        need = math.ceil(len(side) * len(rest) * share)
        # (X, Y) -> the lengths of a static flow between subsets of X and
        # Y, whose flow over time is at most F_XY
        known, subsets_of_rest = {}, _subsets(rest)
        for xs in _subsets(side):
            for ys in subsets_of_rest:
                units = (need - cap_a * (len(side) - len(xs))
                         - cap_b * (len(rest) - len(ys)))
                if units <= 0:
                    continue
                lengths = (known.get((xs[:-1], ys))
                           or known.get((xs, ys[:-1])))
                if lengths is None or least_horizon(lengths, units) > lo:
                    lengths, _ = _static_flow(g, xs, ys)
                    lo = max(lo, least_horizon(lengths, units))
                known[xs, ys] = lengths
    return lo


def _subsets(items):
    """The nonempty subsets of `items`, as tuples."""
    return [sub for size in range(1, len(items) + 1)
            for sub in combinations(items, size)]


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
