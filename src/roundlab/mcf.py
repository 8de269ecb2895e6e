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
is not feasible does the full LP decide.

Each stage solves the quotient of its LP by colour refinement (Grohe,
Kersting, Mladenov and Selman, "Dimension reduction via colour
refinement", ESA 2014; for symmetry groups, Boedi, Herr and Joswig,
Mathematical Programming 2013).  `_colour_classes` splits the columns
(commodity, arc) and the rows of the LP at horizon 1 into the coarsest
equitable partition that refines the colours b, the cost and the
restricted bounds are read from; lifted layer by layer to (class, layer),
it is equitable at every horizon: the rows of a row class have equal sums
over each column class, and the columns of a column class equal sums over
each row class.  The quotient LP has one column per column class, costing
the sum over its members, and one row per row class, that of a member,
with the member counts of each column class as coefficients.  Proof that
it decides as the full LP: let X_P average a vector over each column
class and X_Q over each row class.  Equitability is A X_P = X_Q A, and b,
c and the bounds are constant on classes.  So if x is feasible, A X_P x =
X_Q A x meets each row as A x does (an average of equal values, or of
values at most 1), X_P x keeps the bounds, and c X_P x = c x: averaging
gives a feasible class-constant x of the same cost.  A class-constant x
is a quotient solution y lifted, the rows of a class agree on it, and so
x is feasible exactly when y is.  Each stage's LP and its quotient are
thus feasible together, with the same optimum.  The quotient is laid out
layer-major, each layer's classes in class order (`ArcLP`); all-singleton
classes, as on a graph without symmetry, give the full LP with its
columns and rows in that order.

`tau_mcf` is a pure function of the graph, the terminals and a set of
n': one call decides the whole set, largest n' first, so a caller with
several n' (the circuit compiler's routed levels) asks once and refines
once.  Each search solves only the LPs that its flow-over-time cut bound,
read in closed form off static min-cost flows between terminal subsets,
and the answer at the next larger n' leave open, because feasibility is
monotone up in tau and down in n'.  With two terminals that cut bound is
exact, so `tau_mcf` answers from it and solves no LP.

Also here: a small integral unit-demand router used by the bit-level
protocol builders.
"""

from __future__ import annotations

import math
from collections import deque, namedtuple
from fractions import Fraction

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .graphs import GraphError, UnreachableError, check_terminals
from .timed import (
    TimedPath, _static_flow, least_feasible_horizon, least_horizon,
)

# the most arcs a timed network of `mcf` may have: about twice the 17.3
# million of path_graph(1200) at horizon 4,810
MAX_TIMED_ARCS = 2 ** 25


class LPSolveError(RuntimeError):
    """HiGHS ended without deciding feasibility (iteration limit,
    numerical trouble); such a probe is never read as infeasible."""


# ---------------------------------------------------------------------------
# arc-based LP, solved on its quotient by colour refinement

def _relabel(signatures):
    """(labels, count): each signature numbered by first appearance."""
    ids = {}
    return [ids.setdefault(sig, len(ids)) for sig in signatures], len(ids)


def _colour_classes(g, by_source, tails, heads, forward):
    """The coarsest equitable partition of the static arc LP of
    `by_source` on `g`: lists of class labels (columns, conservation rows,
    capacity rows), each numbered by first appearance.

    The static LP is the LP at horizon 1.  Static column si * (2m + n) + a
    is commodity si's flow on arc a, from vertex tails[a] to heads[a], of
    the static layer of `ArcLP.of` (sources sorted), first coloured by
    (memory arc, forward[column]).  Static conservation row si * n + v is
    the pair (source, v), first coloured by (supply if v is the source,
    demand source -> v).  Capacity row a is edge arc a; they start alike.
    Colour refinement with exact signatures then splits classes until
    none splits: a column takes the colours of its tail row, head row and
    capacity row; a conservation row the sorted colours of its out- and
    of its in-columns; a capacity row the sorted colours of its columns.
    Every signature starts with the old colour, so a pass only splits,
    and a pass that splits no class ends the refinement."""
    sources = sorted(by_source)
    n, n_edge, n_arcs = g.n, 2 * g.m, len(tails)
    commodities = range(len(sources))
    out_arcs, in_arcs = [[] for _ in range(n)], [[] for _ in range(n)]
    for a, (u, v) in enumerate(zip(tails, heads)):
        out_arcs[u].append(a)
        in_arcs[v].append(a)
    row, _ = _relabel(
        (sum(by_source[s].values()) if v == s else 0, by_source[s].get(v, 0))
        for s in sources for v in range(n))
    col, _ = _relabel((a >= n_edge, forward[si * n_arcs + a])
                      for si in commodities for a in range(n_arcs))
    cap, counts = [0] * n_edge, None
    while True:
        col, n_col = _relabel(
            (col[si * n_arcs + a], row[si * n + tails[a]],
             row[si * n + heads[a]], cap[a] if a < n_edge else -1)
            for si in commodities for a in range(n_arcs))
        cap, n_cap = _relabel(
            (cap[a], tuple(sorted(col[si * n_arcs + a] for si in commodities)))
            for a in range(n_edge))
        row, n_row = _relabel(
            (row[si * n + v],
             tuple(sorted(col[si * n_arcs + a] for a in out_arcs[v])),
             tuple(sorted(col[si * n_arcs + a] for a in in_arcs[v])))
            for si in commodities for v in range(n))
        if (n_col, n_cap, n_row) == counts:
            return col, row, cap
        counts = n_col, n_cap, n_row


class ArcLP(namedtuple("ArcLP", (
        "graph by_source col_cost col_upper col_tail col_out col_head col_in "
        "cap_cols cap_of cap_count row_src row_v"))):
    """The arc-based LP of the demands {source: {dest: amount}} on
    `graph`, with what its quotients at every horizon share: the classes
    of `_colour_classes` and, per class, what `_assemble_mcf_lp` reads.
    `of` refines; `scaled` gives the LP of the demand times a positive
    factor, which has the same classes, since b scaled by one factor
    stays constant on each of them, so a search refines once.

    Per column class, in class order: `col_cost` and `col_upper` (the
    restricted stage's bound) of each member; `col_tail` and `col_head`,
    the row classes of its members' tails and heads, and `col_out` and
    `col_in`, how many members leave and enter one row of each.  Per edge
    column class, in class order: `cap_cols` the class, `cap_of` its
    capacity class, `cap_count` how many members one capacity row of it
    meets.  Per conservation row class: `row_src` and `row_v`, the
    commodity index and vertex of its first member.  The quotient at a
    horizon repeats these per layer, layer-major (`_assemble_mcf_lp`)."""

    @classmethod
    def of(cls, g, by_source):
        """Computes the BFS distances behind the forward flags and refines,
        once.  Static arc 2 eid is edge eid's u -> v and 2 eid + 1 its
        v -> u, for edges[eid] = (u, v), and 2m + v is v's memory arc."""
        sources, n = sorted(by_source), g.n
        ends = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
        tails = np.concatenate([ends.ravel(), np.arange(n)])
        heads = np.concatenate([ends[:, ::-1].ravel(), np.arange(n)])
        is_edge = np.arange(tails.size) < ends.size
        # -2 for an unreachable vertex: an arc with such a tail has such a
        # head, and -2 != -2 + 1
        dist = np.array([[-2 if d is None else d for d in g.distances_from(s)]
                         for s in sources], dtype=np.int64)
        forward = ((dist[:, heads] == dist[:, tails] + 1) | ~is_edge).ravel()
        col, row, cap = (np.array(labels, dtype=np.int64) for labels in
                         _colour_classes(g, by_source, tails.tolist(),
                                         heads.tolist(), forward.tolist()))
        src, arc = np.divmod(np.arange(col.size), tails.size)
        first, first_row = (np.unique(labels, return_index=True)[1]
                            for labels in (col, row))
        tail_row, head_row = (row[src[first] * n + ends[arc[first]]]
                              for ends in (tails, heads))
        edge_cols = np.flatnonzero(is_edge[arc[first]])
        cap_of = cap[arc[first[edge_cols]]]
        # the partition being equitable, the members of a column class
        # spread evenly over the rows of each row class they meet
        size, row_size = np.bincount(col), np.bincount(row)
        return cls(
            g, by_source,
            col_cost=np.where(is_edge[arc[first]], size, 0.0),
            col_upper=np.where(forward[first], np.inf, 0.0),
            col_tail=tail_row, col_out=size / row_size[tail_row],
            col_head=head_row, col_in=size / row_size[head_row],
            cap_cols=edge_cols, cap_of=cap_of,
            cap_count=size[edge_cols] / np.bincount(cap)[cap_of],
            row_src=first_row // n, row_v=first_row % n)

    def scaled(self, factor):
        """The ArcLP of the demand times `factor` > 0."""
        if not factor > 0:
            raise ValueError(f"scale factor {factor} is not positive")
        return self._replace(by_source={
            s: {t: factor * amt for t, amt in row.items()}
            for s, row in self.by_source.items()})


def _assemble_mcf_lp(lp, tau):
    """The quotient at horizon tau of the arc-based LP of `lp`, an
    ArcLP, by its classes lifted layer by layer to (class, layer), as
    (cost, A_ub, b_ub, A_eq, b_eq).

    The full LP's column is one commodity's flow on one arc of the timed
    network, a layer's copy of a static arc of `ArcLP.of` (sources
    sorted).  Each edge arc carries at most one unit over all
    commodities; memory arcs are free in the objective, so idle
    commodities dwell in place.  The quotient has one column per lifted
    column class, costing the sum over its members, and one row per
    lifted row class, that of the class's first member, whose
    coefficients are its member counts per column class.  It is laid out
    layer-major: with C column, R conservation row and Q capacity row
    classes, column (c, layer l) is l C + c, conservation row (r, l) is
    l R + r and capacity row (q, l) is l Q + q.
    """
    n_cols, n_rows = lp.col_cost.size, lp.row_src.size
    layer = np.arange(tau)[:, None]
    a_eq = sparse.coo_matrix(
        (np.concatenate([np.tile(lp.col_out, tau), -np.tile(lp.col_in, tau)]),
         (np.concatenate([(n_rows * layer + lp.col_tail).ravel(),
                          (n_rows * (layer + 1) + lp.col_head).ravel()]),
          np.tile(np.arange(tau * n_cols), 2))),
        shape=((tau + 1) * n_rows, tau * n_cols))
    b_eq = np.zeros((tau + 1) * n_rows)
    sources = sorted(lp.by_source)
    for r, (si, v) in enumerate(zip(lp.row_src.tolist(), lp.row_v.tolist())):
        demand = lp.by_source[sources[si]]
        if v == sources[si]:
            b_eq[r] += float(sum(demand.values()))
        b_eq[tau * n_rows + r] -= float(demand.get(v, 0))

    n_cap = lp.cap_of.max() + 1 if lp.cap_of.size else 0
    a_ub = sparse.coo_matrix(
        (np.tile(lp.cap_count, tau),
         ((n_cap * layer + lp.cap_of).ravel(),
          (n_cols * layer + lp.cap_cols).ravel())),
        shape=(tau * n_cap, tau * n_cols))
    return np.tile(lp.col_cost, tau), a_ub, np.ones(tau * n_cap), a_eq, b_eq


def _forward_bounds(lp, tau):
    """The column bounds of the restricted stage's quotient LP at horizon
    tau, an (n_cols, 2) array: (0, inf) for a class of memory arcs or of
    edge arcs u -> v with d(s, v) = d(s, u) + 1 (static BFS distances
    from the commodity s), (0, 0) for the other edge arcs, those of
    vertices s cannot reach included."""
    upper = np.tile(lp.col_upper, tau)
    return np.column_stack([np.zeros(upper.size), upper])


def mcf_feasible(g, by_source, tau):
    """Whether the positive demands {source: {dest: amount}} route
    fractionally at horizon tau.  `by_source` may also be an ArcLP of
    `g`, whose classes are then not refined again; one of another graph
    raises ValueError.

    Decides in two stages, each on the quotient LP of `_assemble_mcf_lp`.
    Stage 1 solves the restricted LP, in which each commodity may cross
    an edge only away from its source (`_forward_bounds`); status 0 there
    is feasible.  Otherwise stage 2 solves the full LP and its status
    decides: 0 is feasible, 2 is infeasible, and any other raises
    LPSolveError.  Proof: the restricted LP is the full LP with some
    columns fixed at 0, so each of its feasible points is one of the full
    LP; an infeasible or failed restricted LP decides nothing.  Each
    quotient is feasible exactly when its LP is (module docstring).  No
    demand moves in zero rounds, so tau = 0 is infeasible without an LP.
    A negative tau, or a timed network past MAX_TIMED_ARCS arcs, (2m + n)
    tau, raises GraphError before anything is allocated."""
    if tau < 0:
        raise GraphError("horizon must be nonnegative")
    if tau == 0:
        return False
    count = (2 * g.m + g.n) * tau
    if count > MAX_TIMED_ARCS:
        raise GraphError(
            f"timed network with m={g.m} edges at tau={tau} "
            f"has {count} arcs, past the limit {MAX_TIMED_ARCS}")
    if not isinstance(by_source, ArcLP):
        lp = ArcLP.of(g, by_source)
    elif by_source.graph is g:
        lp = by_source
    else:
        raise ValueError("an ArcLP of another graph")
    cost, a_ub, b_ub, a_eq, b_eq = _assemble_mcf_lp(lp, tau)
    kwargs = dict(A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, method="highs")
    restricted = linprog(cost, bounds=_forward_bounds(lp, tau), **kwargs)
    if restricted.status == 0:
        return True
    res = linprog(cost, bounds=(0, None), **kwargs)
    if res.status not in (0, 2):
        raise LPSolveError(
            f"HiGHS status {res.status} in the full stage at tau={tau} on "
            f"|V|={g.n} with {len(lp.by_source)} commodities, quotient LP "
            f"{a_eq.shape[0] + a_ub.shape[0]} rows x {cost.size} columns: "
            f"{res.message}")
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
    n'-demands are the unit demand scaled by n'/k, so one ArcLP, refined
    once, serves every probe of the call.  The result depends on the
    arguments alone: nothing is kept between calls.

    Two terminals a, b need no LP: one static a -> b flow, of path
    lengths l_1 <= ... <= l_lambda (`timed._static_flow`), answers every
    n' with tau_route(a, b, c) = `least_horizon`(lengths, c), c =
    ceil(n'/2).  Proof.  Lower bound: any routing at horizon tau carries
    n'/2 units from (a, 0) to (b, tau) over edge arcs of capacity 1, so the
    maximum flow over time F_ab(tau) >= n'/2, and F_ab is integral, so
    F_ab(tau) >= c.  Upper bound: at tau = tau_route(a, b, c), the
    temporally repeated flow of `timed.max_route_flow` carries F_ab(tau)
    >= c units a -> b; keep c of them.  Its static flow, from
    `timed._static_flow`, is a min-cost flow, so it never uses both
    directions of one edge: cancelling such a pair keeps its value and
    lowers its cost by 2.  Each of its paths is repeated from distinct
    starts, and the paths share no directed arc, so the flow over time
    uses each directed edge arc at most once per layer.  Its copy
    reversed in time and in arc direction, a unit on u -> v in layer l
    moved to v -> u in layer tau - 1 - l, routes c units b -> a on the
    opposite arcs of the same edges, so the two commodities share no edge
    arc; memory arcs are free.  So n'/2 <= c units each way route at
    tau_route(a, b, c), which is thus tau_MCF.  It is also
    `tau_mcf_flow_bound`, max(base bound, tau_route(a, b, c)), as the base
    bound never exceeds it: at tau = tau_route(a, b, c), c <= F_ab(tau) <=
    lambda (tau + 1 - l_1) with l_1 >= 1 gives tau >= ceil(c / lambda) >=
    ceil(n' / (2 lambda)), the cut term, and F_ab(tau) > 0 needs tau >=
    l_1 = d(a, b), the terminal diameter.  Like tau = 0 in
    `mcf_feasible`, this is a proven case of the same function; k >= 3
    searches with the LP, computing the n'-free part of the cut bound
    (`_terminal_cuts`) once per call.  Raises GraphError for a bad request
    (`_check_request`) and UnreachableError for disconnected terminals.
    """
    terminals, n_primes = _check_request(g, terminals, n_primes)
    if len(terminals) == 2 and n_primes:
        lengths, _ = _static_flow(g, terminals[:1], terminals[1:])
        if not lengths:
            raise UnreachableError("terminals are disconnected")
        return {n_prime: least_horizon(lengths, math.ceil(n_prime / 2))
                for n_prime in n_primes}
    answers, hi, unit = {}, math.inf, None
    for n_prime in n_primes:
        if unit is None:
            terminal_cuts = _terminal_cuts(g, terminals)
            unit = ArcLP.of(g, {s: {t: 1 for t in terminals if t != s}
                                for s in terminals})
        lp = unit.scaled(n_prime / len(terminals))
        hi = answers[n_prime] = least_feasible_horizon(
            lambda tau: tau >= hi or mcf_feasible(g, lp, tau),
            _flow_bound(g, terminals, terminal_cuts, n_prime),
            (int(n_prime) + 1) * g.n * len(terminals) ** 2 + g.n, "tau_mcf")
    return answers


def _check_request(g, terminals, n_primes):
    """(terminals sorted, the distinct n' as Fractions, largest first), or
    GraphError naming a bad terminal (`graphs.check_terminals`), for fewer
    than two terminals or for an n' that is not positive."""
    terminals = check_terminals(terminals, g.n)
    if len(terminals) < 2:
        raise GraphError("need at least two terminals")
    n_primes = sorted({Fraction(n) for n in n_primes}, reverse=True)
    if n_primes and n_primes[-1] <= 0:
        raise GraphError("n_prime must be positive")
    return terminals, n_primes


def tau_mcf_lower_bound(g, terminals, n_prime):
    """max(terminal diameter, max over the chain bipartitions (T, K - T) of
    ceil(|T| |K - T| n' / (k lambda(T, K - T)))), a lower bound on tau_mcf.

    Proof (the Leighton-Rao cut condition, per round): the uniform demand
    sends |T| |K - T| n'/k units from T to K - T, and the lambda base edges
    of a min cut carry at most lambda units that way per round.  So every
    bipartition gives a lower bound.  The chain bipartitions are cut: for
    each terminal t, the proper prefixes of the terminals sorted by (hop
    distance from t, vertex), at most k (k - 1) cuts, the k singletons
    among them.  Raises GraphError for a bad request (`_check_request`)
    and UnreachableError for disconnected terminals.
    """
    terminals, (n_prime,) = _check_request(g, terminals, [n_prime])
    return _base_bound(terminals, _terminal_cuts(g, terminals), n_prime)[0]


def _terminal_cuts(g, terminals):
    """The part of the cut bounds free of n', computed once per request:
    (terminal diameter, {t: hop distances from t} over the terminals,
    [(T, K - T, lengths)] over the chain bipartitions of
    `tau_mcf_lower_bound`), T holding the least terminal and lengths those
    of the static flow from T to K - T (`timed._static_flow`), lambda(T,
    K - T) of them.  Raises UnreachableError for disconnected terminals."""
    dist = {t: g.distances_from(t) for t in terminals}
    if None in (dist[terminals[0]][t] for t in terminals):
        raise UnreachableError("terminals are disconnected")
    sides = {}
    for t in terminals:
        order = sorted(terminals, key=dist[t].__getitem__)  # ties by vertex
        for j in range(1, len(order)):
            side = order[:j] if terminals[0] in order[:j] else order[j:]
            sides.setdefault(tuple(sorted(side)), None)
    cuts = []
    for side in sides:
        rest = tuple(t for t in terminals if t not in side)
        cuts.append((side, rest, _static_flow(g, side, rest)[0]))
    return max(dist[a][b] for a in terminals for b in terminals), dist, cuts


def _base_bound(terminals, terminal_cuts, n_prime):
    """(tau_mcf_lower_bound, the cuts (T, K - T, lengths) that
    `tau_mcf_flow_bound` checks: the singletons and every one whose cut
    term attains the largest), from `_terminal_cuts`."""
    diameter, _, cuts = terminal_cuts
    terms = [math.ceil(len(side) * len(rest) * n_prime / len(terminals)
                       / len(lengths))
             for side, rest, lengths in cuts]
    top = max(terms)
    return max(top, diameter), [
        cut for term, cut in zip(terms, cuts)
        if term == top or min(len(cut[0]), len(cut[1])) == 1]


def tau_mcf_flow_bound(g, terminals, n_prime):
    """The flow-over-time cut bound on tau_mcf, at least
    `tau_mcf_lower_bound`.

    It is the largest of `tau_mcf_lower_bound` and the least tau with
    F_XY(tau) >= units(X, Y) = need - c_a |T - X| - c_b |(K - T) - Y|,
    over each checked bipartition (T, K - T), with c_a = ceil(|K - T|
    n'/k), c_b = ceil(|T| n'/k) and need = ceil(|T| |K - T| n'/k), and
    each X of T and Y of K - T of `_subset_chains` with units(X, Y) > 0.
    F_XY(tau) = sum_i max(0, tau + 1 - l_i) over the path lengths l_i of
    the static flow from X to Y (`timed._static_flow`), and
    `timed.least_horizon` reads that tau off them.  Checked are the
    singletons and every chain bipartition whose cut term attains the
    largest one (`_base_bound`); the others count only through the base
    bound.  X = T, Y = K - T reads the cut's own flow.  F_XY grows with X
    and Y, so a pair whose units the flow of a pair one vertex smaller
    already carries by the bound so far cannot raise it, and needs no
    static flow of its own.

    Proof: at tau_mcf the uniform demand routes with congestion 1.  Its
    commodities from T to K - T together form a flow of |T| |K - T| n'/k
    units from T x {0} to (K - T) x {tau} that uses each edge arc at most
    once, sends |K - T| n'/k from each t and delivers |T| n'/k to each u.
    So in the timed network with a super source feeding each (t, 0)
    through an arc of capacity c_a and a super sink fed by an arc of
    capacity c_b from each (u, tau), the maximum flow, integral since the
    capacities are, reaches need.  A minimum cut of that network leaves
    the super arcs of some X of T and Y of K - T uncut; past them it must
    separate X x {0} from Y x {tau}, which costs the maximum flow from the
    one to the other, F_XY(tau).  So by max-flow min-cut, need <= min over
    X, Y of c_a |T - X| + c_b |(K - T) - Y| + F_XY(tau), the subset
    condition of transshipments over time (Hoppe and Tardos, Mathematics
    of Operations Research 2000); any of these conditions bounds tau_mcf.
    F_XY(tau) is the flow over time temporally repeated from the static
    min-cost flow between a super source over X and a super sink over Y
    (Ford and Fulkerson 1958).  An empty X or Y never binds, since
    c_a |T| >= need and c_b |K - T| >= need.  This is the cut condition on
    the timed network: unlike the per-round base-cut bound, it counts the
    rounds a unit needs to reach the cut.  Reversing time maps a flow from
    T to K - T onto one from K - T to T with the two capacities swapped,
    so one direction per bipartition suffices.  With two terminals a, b
    the one condition is X = {a}, Y = {b} and units = ceil(n'/2): the
    bound is the larger of the base bound and tau_route(a, b, ceil(n'/2)).
    Raises GraphError for a bad request (`_check_request`) and
    UnreachableError for disconnected terminals.

    Supported k: 32.  The cuts take at most k (k - 1) static flows, and a
    checked side O(k^2); at n' = 32 the bound took 0.07 s at k = 14 and
    1.6-1.8 s at k = 32 (the `cli` docstring has the measurements).
    """
    terminals, (n_prime,) = _check_request(g, terminals, [n_prime])
    return _flow_bound(g, terminals, _terminal_cuts(g, terminals), n_prime)


def _flow_bound(g, terminals, terminal_cuts, n_prime):
    """`tau_mcf_flow_bound`, from `_terminal_cuts`."""
    lo, cuts = _base_bound(terminals, terminal_cuts, n_prime)
    dist, share = terminal_cuts[1], n_prime / len(terminals)
    for side, rest, cut_lengths in cuts:
        cap_a = math.ceil(len(rest) * share)
        cap_b = math.ceil(len(side) * share)
        need = math.ceil(len(side) * len(rest) * share)
        # (X, Y) -> the lengths of a static flow between subsets of X and
        # Y, whose flow over time is at most F_XY
        known = {(frozenset(side), frozenset(rest)): cut_lengths}
        rest_chains = _subset_chains(rest, side, dist)
        for xs in _subset_chains(side, rest, dist):
            for ys in rest_chains:
                units = (need - cap_a * (len(side) - len(xs))
                         - cap_b * (len(rest) - len(ys)))
                if units <= 0:
                    continue
                if (xs, ys) not in known:
                    fits = [known[pair] for pair in
                            [(xs - {x}, ys) for x in xs]
                            + [(xs, ys - {y}) for y in ys]
                            if pair in known
                            and least_horizon(known[pair], units) <= lo]
                    known[xs, ys] = (fits[0] if fits
                                     else _static_flow(g, xs, ys)[0])
                lo = max(lo, least_horizon(known[xs, ys], units))
    return lo


def _subset_chains(side, rest, dist):
    """The subsets of `side` that `_flow_bound` checks against `rest`, as
    frozensets, smallest first: the prefixes of `side` sorted by (hop
    distance to `rest`, vertex), nearest first and farthest first, and
    the singletons."""
    near = sorted(side, key=lambda x: (min(dist[x][y] for y in rest), x))
    subsets = ([near[:j] for j in range(1, len(near) + 1)]
               + [near[j:] for j in range(1, len(near))] + [[x] for x in side])
    return sorted(dict.fromkeys(map(frozenset, subsets)), key=len)


# ---------------------------------------------------------------------------
# integral unit-demand router (for bit protocols)

def route_unit_demands(g, units, horizon):
    """Route unit (src, dst) demands as edge-disjoint timed paths within
    `horizon` layers, or return None.

    Greedy sequential BFS with a few deterministic orderings; memory steps
    are free.  Exact enough at desk scale; callers escalate the horizon on
    failure.
    """
    dists = {}
    for src, dst in units:
        if src not in dists:
            dists[src] = g.distances_from(src)
        if dists[src][dst] is None or dists[src][dst] > horizon:
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
        routed[idx] = _bfs_timed(g, *units[idx], horizon, used)
        if routed[idx] is None:
            return None
    return routed


def _bfs_timed(g, src, dst, horizon, used):
    """Residual timed path minimizing edge crossings (0-1 BFS: memory
    steps are free), so units dwell instead of burning spare arcs.

    Node (v, layer) is layer n + v, and the arc of edge eid from v to w
    in a layer is layer (2m + n) + 2 eid + (v > w), that layer's copy of
    the static arc of `ArcLP.of`.  `used` is the set of arcs that earlier
    paths took; a path found adds its own."""
    n, width = g.n, 2 * g.m + g.n
    target = horizon * n + dst
    dist = [math.inf] * ((horizon + 1) * n)
    parent = [None] * len(dist)     # node -> (previous node, arc or None)
    dist[src] = 0
    queue = deque([src])
    while queue:
        node = queue.popleft()
        if node == target:
            break
        layer, v = divmod(node, n)
        if layer == horizon:
            continue
        d = dist[node]
        if dist[node + n] > d:
            dist[node + n], parent[node + n] = d, (node, None)
            queue.appendleft(node + n)
        for eid, w in g.incidence[v]:
            arc = layer * width + 2 * eid + (v > w)
            nxt = node + n - v + w
            if arc not in used and dist[nxt] > d + 1:
                dist[nxt], parent[nxt] = d + 1, (node, arc)
                queue.append(nxt)
    if dist[target] == math.inf:
        return None
    verts, eids, node = [dst], [], target
    while parent[node] is not None:
        node, arc = parent[node]
        verts.append(node % n)
        if arc is None:
            eids.append(None)
        else:
            eids.append(arc % width // 2)
            used.add(arc)
    return TimedPath(tuple(verts[::-1]), tuple(eids[::-1]))
