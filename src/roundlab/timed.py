"""Timed (layered) expansions of a graph and single-pair routing bounds.

The tau-horizon expansion has one copy of each vertex per layer 0..tau.
Each undirected base edge contributes, per layer, one unit-capacity arc in
each direction; every vertex also has a memory arc to its next-layer copy.
Memory arcs are conceptually unbounded; they are realized with a finite
capacity that no cut or demand can saturate, so min cuts never contain
them.

Congestion-1 flows from (a,0) to (b,tau) are exactly the tau-round
transmission schedules from a to b.

Every maximum flow here comes from one engine, `timed_max_flow`: it lays
the arcs out as an int32 CSR capacity matrix straight from
`TimedGraph.arc_arrays` and runs scipy's C Dinic on it
(`scipy.sparse.csgraph.maximum_flow`), so no horizon meets a recursion
limit.  The index of `arc_arrays` is the one layout of a timed flow: a
flow is a vector with one entry per arc, as are the LP columns of `mcf`.
The CSR sums parallel arcs into one entry; `TimedFlow.arc_units` splits
each summed flow back over its parallel base edges in edge-id order.
Flows become timed paths through the one decomposer, `decompose_paths`.
A network of more than MAX_TIMED_ARCS arcs is refused with a GraphError
before anything is allocated.  The level vector of
`extract_level_vector` is read off the residual network: the set of
nodes reachable from the source is the source side of the minimal min
cut, which is the same for every maximum flow, so the levels do not
depend on which maximum flow Dinic finds.

Both horizons, tau_route here and tau_MCF in `mcf`, come from the one
monotone search `least_feasible_horizon`, started at a certified lower
bound.  Both bounds begin with base-graph min cuts (`base_min_cut`, the
same C Dinic on the base graph): a base cut of lambda edges carries at
most lambda units per direction per round.  tau_route's bound is
Ford-Fulkerson's bound for flows over time, built on that cut.  tau_MCF's
bound raises the base-cut bound with timed max flows across terminal
bipartitions (`mcf.tau_mcf_flow_bound`), found by the same search with
`timed_max_flow` as its predicate.  No horizon below either bound is
feasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .graphs import GraphError, UnreachableError

INT32_MAX = int(np.iinfo(np.int32).max)
# the most arcs a timed network may have: about twice the 17.3 million of
# path_graph(1200) at horizon 4,810, the desk-scale cut certificate
MAX_TIMED_ARCS = 2 ** 25


class RoutableError(ValueError):
    """The level-vector extraction was called on a routable instance."""


class SearchLimitError(RuntimeError):
    """A monotone horizon search exceeded its safety cutoff."""


@dataclass(frozen=True)
class TimedGraph:
    base: object
    tau: int

    @property
    def memory_capacity(self):
        """Strictly larger than the total non-memory capacity, so a min cut
        can always avoid memory arcs."""
        return 2 * self.base.m * self.tau + 1

    def node(self, v, layer):
        return layer * self.base.n + v

    @property
    def node_count(self):
        return (self.tau + 1) * self.base.n

    def arc_arrays(self):
        """The arcs as numpy columns (tail, head, is_edge); tail and head
        are node ids (layer * n + vertex).  Arc index i lies in layer
        i // (2m + n); within a layer, index 2 * eid is edge eid's arc
        u -> v and 2 * eid + 1 its arc v -> u, for edges[eid] = (u, v),
        and 2m + v is vertex v's memory arc.  Every timed flow is a vector
        over this index.  Raises GraphError, before allocating, past
        MAX_TIMED_ARCS."""
        n, m = self.base.n, self.base.m
        count = (2 * m + n) * self.tau
        if count > MAX_TIMED_ARCS:
            raise GraphError(
                f"timed network with m={m} edges at tau={self.tau} "
                f"has {count} arcs, past the limit {MAX_TIMED_ARCS}")
        ends = np.array(self.base.edges, dtype=np.int64).reshape(-1, 2)
        verts = np.arange(n)
        layer_tails = np.concatenate([ends.ravel(), verts])
        layer_heads = np.concatenate([ends[:, ::-1].ravel(), verts])
        offsets = n * np.arange(self.tau)[:, None]
        is_edge = np.arange(layer_tails.size) < ends.size
        return ((offsets + layer_tails).ravel(),
                (offsets + n + layer_heads).ravel(),
                np.tile(is_edge, self.tau))


def build_timed_graph(g, tau):
    if tau < 0:
        raise GraphError("horizon must be nonnegative")
    return TimedGraph(g, tau)


@dataclass(frozen=True)
class TimedPath:
    """A path through consecutive layers of a timed graph.

    verts[j] sits at layer start+j; edge_ids[j] is the base edge used for
    the step to layer start+j+1, or None for a memory (dwell) step.
    """

    start: int
    verts: tuple
    edge_ids: tuple

    def __post_init__(self):
        if len(self.verts) != len(self.edge_ids) + 1:
            raise GraphError("vertex/step count mismatch")

    @property
    def end(self):
        return self.start + len(self.edge_ids)

    def steps(self):
        """Yield (layer, edge_id, tail, head) per step."""
        for j, eid in enumerate(self.edge_ids):
            yield (self.start + j, eid, self.verts[j], self.verts[j + 1])


def validate_timed_path(g, path, horizon):
    if path.start < 0 or path.end > horizon:
        raise GraphError(f"path layers [{path.start},{path.end}] exceed horizon {horizon}")
    for layer, eid, u, v in path.steps():
        if eid is None:
            if u != v:
                raise GraphError(f"memory step changes vertex at layer {layer}")
        else:
            if g.edges[eid] != (min(u, v), max(u, v)):
                raise GraphError(f"step at layer {layer} does not ride edge {eid}")


def mirror_timed_path(path, tau):
    """Reverse a full-span path in time: the step ((u,t-1),(v,t)) maps to
    ((v,tau-t),(u,tau-t+1)).  An involution on (a,0)->(b,tau) paths."""
    if path.start != 0 or path.end != tau:
        raise GraphError("only full-span paths can be mirrored")
    verts = tuple(reversed(path.verts))
    eids = tuple(reversed(path.edge_ids))
    return TimedPath(0, verts, eids)


@dataclass(frozen=True)
class LevelVector:
    a: int
    b: int
    horizon: int
    levels: tuple
    cost: int


@dataclass(frozen=True)
class TimedFlow:
    """A maximum flow of `timed_max_flow`.

    `capacity` and `flow` are square CSR matrices over node ids; `flow` is
    antisymmetric, so the reverse entry of an arc holds its negated flow.
    """

    tg: TimedGraph
    value: int
    capacity: object
    flow: object

    def arc_units(self):
        """Units per arc, a vector indexed like `tg.arc_arrays()`.  The
        CSR summed parallel arcs; each sum is handed back one unit per
        edge arc in edge-id order (memory arcs have no parallels)."""
        tg = self.tg
        tails, heads, is_edge = tg.arc_arrays()
        summed = np.asarray(self.flow[tails, heads]).ravel()
        rank, seen = [], {}
        for u, v in tg.base.edges:
            for pair in ((u, v), (v, u)):
                rank.append(seen.get(pair, 0))
                seen[pair] = rank[-1] + 1
        rank = np.tile(rank + [0] * tg.base.n, tg.tau)
        return np.where(is_edge, summed > rank, summed)

    def residual_reachable(self, node):
        """Boolean mask of the nodes reachable from `node` along arcs with
        positive residual capacity (reverse arcs of flow included)."""
        from scipy.sparse.csgraph import breadth_first_order

        residual = self.capacity - self.flow
        residual.eliminate_zeros()
        reached = breadth_first_order(residual, node, directed=True,
                                      return_predecessors=False)
        mask = np.zeros(residual.shape[0], dtype=bool)
        mask[reached] = True
        return mask


@dataclass(frozen=True)
class FlowSolution:
    """A maximum (a, 0) -> (b, tau) flow of `max_route_flow`.  Its arc
    flows and unit paths are built on first read: the paths take memory
    in value x tau, and callers that need only `value` build neither."""

    value: int
    flow: TimedFlow
    source: int

    @cached_property
    def units(self):
        """Units per arc, indexed like `TimedGraph.arc_arrays()`."""
        return self.flow.arc_units()

    @cached_property
    def paths(self):
        """The flow as `value` unit timed paths."""
        return tuple(path for path, units in decompose_paths(
            self.flow.tg, self.units, (self.source,))
            for _ in range(units))

    def max_nonmemory_load(self):
        return int(self.units[self.flow.tg.arc_arrays()[2]].max(initial=0))


def timed_max_flow(tg, src, dst, extra_arcs=()):
    """Maximum src -> dst flow in the timed network of `tg` (C Dinic).

    Node ids are `tg.node(v, layer)`; `extra_arcs` adds (tail, head,
    capacity) arcs whose ends may be new nodes numbered from
    `tg.node_count` on (super sources and sinks).  Edge arcs have
    capacity 1 and memory arcs `tg.memory_capacity`.  Raises GraphError,
    before allocating anything, when a capacity does not fit int32.
    """
    # imported on first use: csgraph's ten extension modules add about
    # 0.8 MB of resident memory to every command, most of which run no flow
    from scipy.sparse.csgraph import maximum_flow

    cap_max = max([tg.memory_capacity] + [c for _, _, c in extra_arcs])
    if cap_max > INT32_MAX:
        raise GraphError(
            f"timed network with m={tg.base.m} edges at tau={tg.tau} needs "
            f"arc capacity {cap_max}, past the int32 limit {INT32_MAX}")
    tails, heads, is_edge = tg.arc_arrays()
    caps = np.where(is_edge, 1, tg.memory_capacity)
    size = tg.node_count
    if extra_arcs:
        extra = np.array(extra_arcs, dtype=np.int64)
        tails = np.concatenate([tails, extra[:, 0]])
        heads = np.concatenate([heads, extra[:, 1]])
        caps = np.concatenate([caps, extra[:, 2]])
        size = max(size, int(extra[:, :2].max()) + 1)
    capacity = sparse.csr_matrix(
        (caps.astype(np.int32), (tails, heads)), shape=(size, size))
    res = maximum_flow(capacity, src, dst, method="dinic")
    return TimedFlow(tg, int(res.flow_value), capacity, res.flow)


def base_min_cut(g, side_a, side_b):
    """lambda(A, B): the fewest base edges whose removal separates the
    vertex set `side_a` from the disjoint set `side_b`.

    The maximum A -> B flow of the base graph with capacity 1 per edge and
    direction (parallel edges sum), between a super source feeding A and a
    super sink fed by B, on the same C Dinic as `timed_max_flow`.
    """
    from scipy.sparse.csgraph import maximum_flow

    n, m = g.n, g.m
    ends = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
    # n is the super source, n + 1 the super sink; their arcs (capacity
    # m + 1) are never cut
    tails = np.concatenate([ends.ravel(), np.full(len(side_a), n), side_b])
    heads = np.concatenate([ends[:, ::-1].ravel(), side_a,
                            np.full(len(side_b), n + 1)])
    caps = np.where(np.arange(tails.size) < 2 * m, 1, m + 1)
    capacity = sparse.csr_matrix(
        (caps.astype(np.int32), (tails, heads)), shape=(n + 2, n + 2))
    return int(maximum_flow(capacity, n, n + 1, method="dinic").flow_value)


def decompose_paths(tg, flow, sources, eps=1e-9):
    """Split a flow vector, indexed like `TimedGraph.arc_arrays()`, into
    (TimedPath, amount) parcels running from layer 0 to layer tau.

    For each source vertex in turn, walk from (source, 0), at every node
    taking the lowest-indexed arc whose residual exceeds eps, and cut the
    walk's bottleneck; repeat until no flow leaves (source, 0).  Only the
    arcs above eps are indexed.  Valid for conserved flows on the layered
    network, which has no cycles.  Integral flows give integral amounts.
    """
    n, m = tg.base.n, tg.base.m
    used = np.flatnonzero(flow > eps)
    tails, heads, _ = tg.arc_arrays()
    arcs = used.tolist()
    residual = dict(zip(arcs, flow[used].tolist()))
    step, by_tail = {}, {}   # arc -> (head node, edge id or None)
    for ai, tail, head in zip(arcs, tails[used].tolist(),
                              heads[used].tolist()):
        r = ai % (2 * m + n)
        step[ai] = (head, r // 2 if r < 2 * m else None)
        by_tail.setdefault(tail, []).append(ai)

    def next_arc(node):
        for ai in by_tail.get(node, ()):
            if residual[ai] > eps:
                return ai
        return None

    parcels = []
    for source in sources:
        while next_arc(tg.node(source, 0)) is not None:
            nodes, eids, walk = [tg.node(source, 0)], [], []
            for _ in range(tg.tau):
                ai = next_arc(nodes[-1])
                if ai is None:
                    raise AssertionError("flow decomposition stalled")
                walk.append(ai)
                nodes.append(step[ai][0])
                eids.append(step[ai][1])
            amount = min(residual[ai] for ai in walk)
            for ai in walk:
                residual[ai] -= amount
            parcels.append((TimedPath(0, tuple(v % n for v in nodes),
                                      tuple(eids)), amount))
    return parcels


def max_route_flow(g, a, b, tau):
    """Maximum (a,0) -> (b,tau) flow in the timed expansion, unit capacity
    per non-memory arc.  Integral and fractional optima coincide here, so
    the solution decomposes into unit paths, on the first read of
    `FlowSolution.paths`."""
    if a == b:
        raise GraphError("endpoints must differ")
    if not (0 <= a < g.n and 0 <= b < g.n):
        raise GraphError("endpoint out of range")
    tg = build_timed_graph(g, tau)
    flow = timed_max_flow(tg, tg.node(a, 0), tg.node(b, tau))
    return FlowSolution(flow.value, flow, a)


def least_feasible_horizon(feasible, lo, cutoff, name):
    """Least horizon tau >= lo with feasible(tau), for a predicate monotone
    in tau and a certified lower bound lo >= 1 (no tau < lo is feasible).

    Probe order: gallop upward, lo, lo+1, lo+3, lo+7, ..., lo + 2**j - 1,
    to the first feasible horizon hi, then bisect over (last infeasible
    probe, hi], probing mid = (lo + hi) // 2 and keeping [lo, mid] when mid
    is feasible and [mid + 1, hi] otherwise.  A feasible lo is thus
    certified minimal after one probe, and a bound short by d costs about
    2 log2(d) probes.  Raises SearchLimitError, naming `name`, when the
    gallop passes 2 * cutoff or the result exceeds cutoff.
    """
    hi, step = lo, 1
    while not feasible(hi):
        lo, hi = hi + 1, hi + step
        step *= 2
        if hi > 2 * cutoff:
            raise SearchLimitError(f"{name} exceeded cutoff {cutoff}")
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1
    if lo > cutoff:
        raise SearchLimitError(f"{name} result {lo} exceeds cutoff {cutoff}")
    return lo


def tau_route_lower_bound(g, a, b, n_prime):
    """dist(a, b) - 1 + ceil(n' / lambda(a, b)), a lower bound on
    tau_route: Ford-Fulkerson's bound for flows over time.

    Proof: every path has length >= dist and the static flow is at most
    lambda, so the flow over tau rounds is at most lambda * (tau - dist +
    1).  Since n' >= 1 the bound is at least dist.  The endpoints must
    differ.  Raises UnreachableError for disconnected endpoints.
    """
    dist = g.distances_from(a)[b]
    if dist is None:
        raise UnreachableError(f"vertices {a} and {b} are disconnected")
    return dist - 1 - (-n_prime // base_min_cut(g, (a,), (b,)))


def tau_route(g, a, b, n_prime):
    """Least horizon tau with max_route_flow value >= n_prime.

    `least_feasible_horizon` from `tau_route_lower_bound`; where the bound
    is exact (paths, and every tau-route instance of the benchmark) one
    max flow certifies the answer.  Raises UnreachableError for
    disconnected endpoints and SearchLimitError past the n_prime * |V|
    safety cutoff.
    """
    for v in (a, b):
        if not 0 <= v < g.n:
            raise GraphError(f"endpoint {v} out of range for n={g.n}")
    if a == b:
        raise GraphError("endpoints must differ")
    if n_prime < 1:
        raise GraphError("n_prime must be >= 1")
    lo = tau_route_lower_bound(g, a, b, n_prime)

    def feasible(tau):
        tg = build_timed_graph(g, tau)
        return timed_max_flow(tg, tg.node(a, 0), tg.node(b, tau)).value \
            >= n_prime

    return least_feasible_horizon(feasible, lo, n_prime * g.n, "tau_route")


def extract_level_vector(g, a, b, n_bits, horizon):
    """Min-cut level extraction for unroutable instances.

    Requires max_route_flow(g,a,b,horizon).value < n_bits.  Returns levels
    with levels[a]=0, levels[b]=horizon+1 and
    sum over edges of max(|lvl_u - lvl_v| - 1, 0) < n_bits, built from the
    monotone family A_0 <= ... <= A_T of the residual min cut (memory arcs
    are never cut).
    """
    if a == b:
        raise GraphError("endpoints must differ")
    tg = build_timed_graph(g, horizon)
    src = tg.node(a, 0)
    flow = timed_max_flow(tg, src, tg.node(b, horizon))
    if flow.value >= n_bits:
        raise RoutableError(
            f"routable: {flow.value} >= {n_bits} units fit in horizon {horizon}")
    # reach[t, v]: (v, t) is on the source side of the minimal min cut
    reach = flow.residual_reachable(src).reshape(horizon + 1, g.n)
    if np.any(reach[:-1] > reach[1:]):
        raise AssertionError("residual cut layers are not monotone")
    levels = np.where(reach.any(axis=0), reach.argmax(axis=0),
                      horizon + 1).tolist()
    if levels[a] != 0 or levels[b] != horizon + 1:
        raise AssertionError("endpoint levels violated by residual cut")
    cost = sum(max(abs(levels[u] - levels[v]) - 1, 0) for u, v in g.edges)
    if cost != flow.value:
        raise AssertionError(f"level cost {cost} != min cut value {flow.value}")
    return LevelVector(a, b, horizon, tuple(levels), cost)
