"""Timed (layered) expansions of a graph and single-pair routing bounds.

The tau-horizon expansion has one copy of each vertex per layer 0..tau.
Each undirected base edge contributes, per layer, one unit-capacity arc in
each direction; every vertex also has a memory arc to its next-layer copy.
Memory arcs are conceptually unbounded; they are realized with a finite
capacity that no cut or demand can saturate, so min cuts never contain
them.

Congestion-1 flows from (a,0) to (b,tau) are exactly the tau-round
transmission schedules from a to b.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .flownet import FlowNetwork
from .graphs import GraphError, UnreachableError


class RoutableError(ValueError):
    """The level-vector extraction was called on a routable instance."""


class SearchLimitError(RuntimeError):
    """A monotone horizon search exceeded its safety cutoff."""


@dataclass(frozen=True)
class TimedGraph:
    base: object
    tau: int
    memory_capacity: int

    def node(self, v, layer):
        return layer * self.base.n + v

    @property
    def node_count(self):
        return (self.tau + 1) * self.base.n

    @property
    def nonmemory_edge_count(self):
        return 2 * self.base.m * self.tau

    @cached_property
    def arcs(self):
        """All arcs as (layer, edge_id, tail, head); edge_id None = memory."""
        out = []
        for layer in range(self.tau):
            for eid, (u, v) in enumerate(self.base.edges):
                out.append((layer, eid, u, v))
                out.append((layer, eid, v, u))
            for v in range(self.base.n):
                out.append((layer, None, v, v))
        return tuple(out)

    def arc_arrays(self):
        """`arcs` as numpy columns (tail, head, is_edge), entry i for
        arcs[i]; tail and head are node ids (layer * n + vertex)."""
        n = self.base.n
        ends = np.array(self.base.edges, dtype=np.int64).reshape(-1, 2)
        verts = np.arange(n)
        layer_tails = np.concatenate([ends.ravel(), verts])
        layer_heads = np.concatenate([ends[:, ::-1].ravel(), verts])
        offsets = n * np.arange(self.tau)[:, None]
        is_edge = np.arange(layer_tails.size) < ends.size
        return ((offsets + layer_tails).ravel(),
                (offsets + n + layer_heads).ravel(),
                np.tile(is_edge, self.tau))


def build_timed_graph(g, tau, memory_capacity=None):
    if tau < 0:
        raise GraphError("horizon must be nonnegative")
    if memory_capacity is None:
        # strictly larger than the total non-memory capacity, so a min cut
        # can always avoid memory arcs
        memory_capacity = 2 * g.m * tau + 1
    return TimedGraph(g, tau, memory_capacity)


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

    @property
    def hops(self):
        """Number of non-memory steps."""
        return sum(1 for e in self.edge_ids if e is not None)

    def steps(self):
        """Yield (layer, edge_id, tail, head) per step."""
        for j, eid in enumerate(self.edge_ids):
            yield (self.start + j, eid, self.verts[j], self.verts[j + 1])

    def shifted(self, offset):
        return TimedPath(self.start + offset, self.verts, self.edge_ids)

    def base_path(self):
        """Project to the base graph, dropping memory dwell steps."""
        verts = [self.verts[0]]
        eids = []
        for j, eid in enumerate(self.edge_ids):
            if eid is not None:
                verts.append(self.verts[j + 1])
                eids.append(eid)
        return tuple(verts), tuple(eids)


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
class FlowSolution:
    value: int
    paths: tuple
    utilization: dict

    def max_nonmemory_load(self):
        loads = [amt for (layer, eid, u, v), amt in self.utilization.items()
                 if eid is not None]
        return max(loads, default=0)


@dataclass(frozen=True)
class LevelVector:
    a: int
    b: int
    horizon: int
    levels: tuple
    cost: int


def _build_network(tg, extra_nodes=0):
    """Dinic network over the timed nodes; returns (net, arc_meta list).

    extra_nodes reserves trailing node ids for super sources/sinks.
    """
    g = tg.base
    net = FlowNetwork(tg.node_count + extra_nodes)
    meta = []
    for layer in range(tg.tau):
        for eid, (u, v) in enumerate(g.edges):
            aid = net.add_edge(tg.node(u, layer), tg.node(v, layer + 1), 1)
            meta.append((aid, (layer, eid, u, v)))
            aid = net.add_edge(tg.node(v, layer), tg.node(u, layer + 1), 1)
            meta.append((aid, (layer, eid, v, u)))
        for w in range(g.n):
            aid = net.add_edge(tg.node(w, layer), tg.node(w, layer + 1),
                               tg.memory_capacity)
            meta.append((aid, (layer, None, w, w)))
    return net, meta


def decompose_unit_paths(tg, net, arc_by_id, src, dst, value, start_vertex):
    """Strip `value` unit paths from a computed flow, deterministically.

    Walks forward arcs in insertion order, consuming one unit per walk;
    valid on layered networks (no flow cycles).
    """
    paths = []
    for _ in range(value):
        node = src
        verts = [start_vertex]
        eids = []
        while node != dst:
            for aid in net.head[node]:
                if aid % 2 == 1 or aid not in arc_by_id:
                    continue
                if net.flow_on(aid) <= 0:
                    continue
                layer, eid, u, v = arc_by_id[aid]
                net.cap[aid ^ 1] -= 1
                net.cap[aid] += 1
                verts.append(v)
                eids.append(eid)
                node = net.to[aid]
                break
            else:
                raise AssertionError("flow decomposition stalled")
        paths.append(TimedPath(0, tuple(verts), tuple(eids)))
    return paths


def max_route_flow(g, a, b, tau, integral=True):
    """Maximum (a,0) -> (b,tau) flow in the timed expansion, unit capacity
    per non-memory arc.  Integral and fractional optima coincide here, so
    the solution is always decomposed into unit paths."""
    if a == b:
        raise GraphError("endpoints must differ")
    if not (0 <= a < g.n and 0 <= b < g.n):
        raise GraphError("endpoint out of range")
    tg = build_timed_graph(g, tau)
    net, meta = _build_network(tg)
    src, dst = tg.node(a, 0), tg.node(b, tau)
    if tau == 0:
        return FlowSolution(0, (), {})
    value = net.max_flow(src, dst)
    arc_by_id = {aid: info for aid, info in meta}
    paths = decompose_unit_paths(tg, net, arc_by_id, src, dst, value, a)
    utilization = {}
    for p in paths:
        for key in p.steps():
            utilization[key] = utilization.get(key, 0) + 1
    return FlowSolution(value, tuple(paths), utilization)


def tau_route(g, a, b, n_prime):
    """Least horizon tau with max_route_flow value >= n_prime.

    Monotone search: exponential doubling then binary search.  Raises
    UnreachableError for disconnected endpoints and SearchLimitError past
    the n_prime * |V| safety cutoff.
    """
    if n_prime < 1:
        raise GraphError("n_prime must be >= 1")
    dist = g.distances_from(a)[b]
    if dist is None:
        raise UnreachableError(f"vertices {a} and {b} are disconnected")
    cutoff = n_prime * g.n

    def feasible(tau):
        net_val = _flow_value_only(g, a, b, tau, cutoff=n_prime)
        return net_val >= n_prime

    hi = max(dist, 1)
    while not feasible(hi):
        hi *= 2
        if hi > 2 * cutoff:
            raise SearchLimitError(
                f"tau_route exceeded cutoff {cutoff} (disconnected demand?)")
    lo = max(dist, 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1
    if lo > cutoff:
        raise SearchLimitError(f"tau_route result {lo} exceeds cutoff {cutoff}")
    return lo


def _flow_value_only(g, a, b, tau, cutoff=None):
    if tau == 0:
        return 0
    tg = build_timed_graph(g, tau)
    net, _ = _build_network(tg)
    return net.max_flow(tg.node(a, 0), tg.node(b, tau), cutoff=cutoff)


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
    net, _ = _build_network(tg)
    src, dst = tg.node(a, 0), tg.node(b, horizon)
    value = net.max_flow(src, dst) if horizon > 0 else 0
    if value >= n_bits:
        raise RoutableError(
            f"routable: {value} >= {n_bits} units fit in horizon {horizon}")
    if horizon == 0:
        reach = [False] * tg.node_count
        reach[src] = True
    else:
        reach = net.residual_reachable(src)
    chain = []
    for t in range(horizon + 1):
        layer_set = {v for v in range(g.n) if reach[tg.node(v, t)]}
        if chain and not (chain[-1] <= layer_set):
            raise AssertionError("residual cut layers are not monotone")
        chain.append(layer_set)
    levels = []
    for v in range(g.n):
        for t in range(horizon + 1):
            if v in chain[t]:
                levels.append(t)
                break
        else:
            levels.append(horizon + 1)
    if levels[a] != 0 or levels[b] != horizon + 1:
        raise AssertionError("endpoint levels violated by residual cut")
    cost = sum(max(abs(levels[u] - levels[v]) - 1, 0) for u, v in g.edges)
    if cost != value:
        raise AssertionError(f"level cost {cost} != min cut value {value}")
    return LevelVector(a, b, horizon, tuple(levels), cost)
