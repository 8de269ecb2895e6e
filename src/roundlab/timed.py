"""Flows over time in the timed (layered) expansion of a graph, computed
from static flows.

The tau-horizon expansion has one copy of each vertex per layer 0..tau.
Each undirected base edge contributes, per layer, one unit-capacity arc in
each direction; every vertex also has an unbounded memory arc to its
next-layer copy.  Congestion-1 flows from (a,0) to (b,tau) are exactly the
tau-round transmission schedules from a to b.

No flow here builds a timed network.  A maximum flow over time from a
vertex set X (at layer 0) to a disjoint set Y (at layer tau) is
temporally repeated (Ford and Fulkerson, "Constructing maximal dynamic
flows from static flows", Operations Research 1958) from one static
min-cost flow on the base graph: each edge gives two arcs, u -> v and
v -> u, of capacity 1 and cost 1 (parallel edges stay separate), and
successive shortest paths (`_static_flow`) from X to Y augment along
paths of lengths l_1 <= ... <= l_lambda.  The maximum flow is F(tau) =
sum_i max(0, tau + 1 - l_i), and `least_horizon` reads the least tau
with F(tau) >= n' straight from the l_i.  For single pairs, `tau_route`
is that horizon, `max_route_flow` walks the static flow into paths and
repeats each from every start that fits the horizon, and
`extract_level_vector` reads the minimal min cut off shortest distances
in the static residual network.  Between terminal sets, the static
flow's value is the base-graph min cut, and its lengths give the cut
bounds of `mcf`.

Nothing else builds one either: `mcf` reads the timed network as an
index.  Arc l (2m + n) + a is layer l's copy of static arc a of
`mcf.ArcLP.of`; a column of the full LP, whose quotient `mcf` solves, is
one such arc of one commodity, and the unit router names its paths' arcs
by the same numbers.  `mcf.mcf_feasible` refuses a network past
`mcf.MAX_TIMED_ARCS` arcs before allocating.  tau_MCF comes from the
monotone search `least_feasible_horizon`, started at the certified lower
bound; the circuit compiler escalates a level's routing by the same
search.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

from .graphs import GraphError, UnreachableError


class RoutableError(ValueError):
    """The level-vector extraction was called on a routable instance."""


class SearchLimitError(RuntimeError):
    """A monotone horizon search exceeded its safety cutoff."""


@dataclass(frozen=True)
class TimedPath:
    """A path through consecutive layers of a timed graph, from layer 0.

    verts[j] sits at layer j; edge_ids[j] is the base edge used for the
    step to layer j+1, or None for a memory (dwell) step.
    """

    verts: tuple
    edge_ids: tuple
    # every path starts at layer 0; the benchmark's flow check reads it
    start = 0

    def __post_init__(self):
        if len(self.verts) != len(self.edge_ids) + 1:
            raise GraphError("vertex/step count mismatch")

    def steps(self):
        """Yield (layer, edge_id, tail, head) per step."""
        for j, eid in enumerate(self.edge_ids):
            yield (j, eid, self.verts[j], self.verts[j + 1])


def validate_timed_path(g, path, horizon):
    if len(path.edge_ids) > horizon:
        raise GraphError(f"path of {len(path.edge_ids)} steps exceeds "
                         f"horizon {horizon}")
    for layer, eid, u, v in path.steps():
        if eid is None:
            if u != v:
                raise GraphError(f"memory step changes vertex at layer {layer}")
        else:
            if g.edges[eid] != (min(u, v), max(u, v)):
                raise GraphError(f"step at layer {layer} does not ride edge {eid}")


@dataclass(frozen=True)
class LevelVector:
    a: int
    b: int
    horizon: int
    levels: tuple
    cost: int


@dataclass(frozen=True)
class FlowSolution:
    """A maximum (a, 0) -> (b, tau) flow of `max_route_flow`: `value`
    units, temporally repeated from `static_paths`, the a -> b paths
    (verts, edge_ids) of a static min-cost flow.  The unit paths are
    built on first read: they take memory in value x tau, and callers
    that need only `value` never build them."""

    value: int
    tau: int
    static_paths: tuple

    @cached_property
    def paths(self):
        """The flow as `value` unit timed paths from (a, 0) to (b, tau):
        each static path P, started at every s = 0..tau - |P|, dwells at a
        for s layers, walks P, then dwells at b."""
        out = []
        for verts, eids in self.static_paths:
            for s in range(self.tau - len(eids) + 1):
                rest = self.tau - s - len(eids)
                out.append(TimedPath(
                    (verts[0],) * s + verts + (verts[-1],) * rest,
                    (None,) * s + eids + (None,) * rest))
        return tuple(out)


def least_feasible_horizon(feasible, lo, cutoff, name):
    """Least horizon tau >= lo with feasible(tau), for a predicate monotone
    in tau and a start lo >= 1.  `mcf.tau_mcf` starts at a certified lower
    bound (no tau < lo is feasible), and `protocols.compile_circuit` routes
    each level from 2 tau_MCF of its peak load.

    Probe order: gallop upward, lo, lo+1, lo+3, lo+7, ..., lo + 2**j - 1,
    to the first feasible horizon hi, then bisect over (last infeasible
    probe, hi], probing mid = (lo + hi) // 2 and keeping [lo, mid] when mid
    is feasible and [mid + 1, hi] otherwise.  A feasible lo is thus
    certified minimal after one probe, and a bound short by d costs about
    2 log2(d) probes.  Raises SearchLimitError, naming `name`, when the
    gallop passes 2 * cutoff or the result exceeds cutoff.  For a
    predicate that is not monotone, the result is still a horizon >= lo
    where it held, and every probe below that horizon failed: each
    feasible probe lowers hi, and the result is the last hi.
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


# ---------------------------------------------------------------------------
# flows over time, temporally repeated from one static flow

def _check_pair(g, a, b):
    for v in (a, b):
        if not 0 <= v < g.n:
            raise GraphError(f"endpoint {v} out of range for n={g.n}")
    if a == b:
        raise GraphError("endpoints must differ")


def _arc_ends(g, arc):
    """(tail, head) of static arc `arc`: 2 * eid is edge eid's u -> v and
    2 * eid + 1 its v -> u, for edges[eid] = (u, v)."""
    u, v = g.edges[arc // 2]
    return (u, v) if arc % 2 == 0 else (v, u)


def _incident_arcs(g):
    """Per vertex x, the static arcs at x in arc-id order, as (arc, y,
    cost): cost +1 for the arc x -> y, residual while unused, and -1 for
    its twin y -> x, residual (reversed) while used."""
    arcs = []
    for x, entries in enumerate(g.incidence):
        at_x = []
        for eid, y in entries:
            out = 2 * eid + (x > y)
            pair = [(out, y, 1), (out ^ 1, y, -1)]
            at_x += pair if x < y else pair[::-1]
        arcs.append(at_x)
    return arcs


def _residual_distances(arcs, sources, used, shortcut=None):
    """(dist, pred): shortest distances from the vertex set `sources`, all
    at distance 0, in the residual network of the static flow `used` (a
    set of arc ids) over the `_incident_arcs` lists `arcs`, with an unused
    arc at cost +1, a used arc reversed at cost -1, and the optional arc
    `shortcut` = (tail, head, cost), cost > 0.  dist[v] is None where v is
    unreachable, and pred[v] is the arc whose residual last lowered it.

    Bellman-Ford with a FIFO queue, since reversed arcs cost -1.  The
    residual network of a min-cost flow has no negative cycle, so it
    ends, and pred leads from every reached vertex back to a source.
    """
    if shortcut is not None:
        tail, head, cost = shortcut
        arcs = list(arcs)
        arcs[tail] = [*arcs[tail], (None, head, cost)]
    dist, pred = [None] * len(arcs), [None] * len(arcs)
    for x in sources:
        dist[x] = 0
    queue, queued = deque(sources), set(sources)
    while queue:
        x = queue.popleft()
        queued.discard(x)
        for arc, y, cost in arcs[x]:
            if (arc in used) != (cost < 0):
                continue
            d = dist[x] + cost
            if dist[y] is None or d < dist[y]:
                dist[y], pred[y] = d, arc
                if y not in queued:
                    queued.add(y)
                    queue.append(y)
    return dist, pred


def _static_flow(g, sources, sinks, horizon=None):
    """(lengths, used): successive shortest paths from the vertex set
    `sources` to the disjoint set `sinks` in the base graph with unit
    capacity and unit cost per arc, as from a super source over `sources`
    to a super sink over `sinks`.  Each augmentation ends at the nearest
    sink, the first of `sinks` at the least residual distance.  `lengths`
    are the augmenting-path costs l_1 <= l_2 <= ..., and `used` the arcs
    that carry the resulting min-cost flow, of value len(lengths) and cost
    sum(lengths).  With `horizon` given, no path longer than it is
    augmented.  Without it the flow is maximum, with capacity 1 per edge
    and direction, so its value is the base min cut lambda(sources,
    sinks), the fewest edges (parallel ones counted apart) that meet every
    path between them."""
    arcs = _incident_arcs(g)
    lengths, used = [], set()
    while True:
        dist, pred = _residual_distances(arcs, sources, used)
        reached = [y for y in sinks if dist[y] is not None]
        if not reached:
            return lengths, used
        v = min(reached, key=dist.__getitem__)
        if horizon is not None and dist[v] > horizon:
            return lengths, used
        lengths.append(dist[v])
        while pred[v] is not None:
            arc = pred[v]
            tail, head = _arc_ends(g, arc)
            if arc in used:     # walked in reverse, head -> tail
                used.remove(arc)
                v = head
            else:
                used.add(arc)
                v = tail


def least_horizon(lengths, units):
    """The least tau with F(tau) = sum_i max(0, tau + 1 - l_i) >= units,
    for the nonempty lengths l_1 <= l_2 <= ... of `_static_flow` and
    units >= 1.

    The terms fall with i, so F(tau) = max over k of sum_{i <= k} (tau +
    1 - l_i), and F(tau) >= units exactly when some k has tau >=
    ceil((units + l_1 + ... + l_k) / k) - 1; the answer is the least of
    these.
    """
    return min(-(-(units + total) // k) - 1
               for k, total in enumerate(accumulate(lengths), 1))


def _horizon_flow(g, a, b, tau):
    """(F(tau), used): the static flow of the shortest paths no longer
    than tau, and F(tau) = sum_i (tau + 1 - l_i) over their lengths, the
    units they carry from (a,0) to (b,tau) when each is repeated from
    every start 0..tau - l_i."""
    _check_pair(g, a, b)
    if tau < 0:
        raise GraphError("horizon must be nonnegative")
    lengths, used = _static_flow(g, (a,), (b,), tau)
    return sum(tau + 1 - ell for ell in lengths), used


def max_route_flow(g, a, b, tau):
    """Maximum (a,0) -> (b,tau) flow in the timed expansion, unit capacity
    per non-memory arc, as a temporally repeated flow: its value is
    F(tau) = sum_i max(0, tau + 1 - l_i) over the successive shortest
    path lengths l_i, and `FlowSolution.paths` repeats each path P_j of
    the static flow of the paths with l_i <= tau from every start s =
    0..tau - |P_j| (Ford-Fulkerson 1958).  The P_j are walks of the
    static flow from a: out of each vertex, the lowest flow arc id not yet
    walked, until no flow arc leaves.  Its support has no cycle at min
    cost (every arc costs 1, so a cycle could be cancelled): no flow arc
    leaves b, and every walk from a ends there.

    Proof that every P_j fits the horizon: the static flow x_k of the k
    augmented paths has the least cost of any flow of value k, and x_k -
    P_j is a flow of value k - 1, which costs at least the min cost
    c(x_k) - l_k of that value.  So |P_j| <= l_k <= tau.  P_j repeated
    from its tau + 1 - |P_j| starts carries sum_j (tau + 1 - |P_j|) =
    k (tau + 1) - c(x_k) = F(tau) units, and no timed arc twice: the P_j
    use each directed base arc at most once between them, and the starts
    of one P_j put that arc in different layers.  F(tau) is maximum: the
    cut at the residual distances, as in `extract_level_vector`, costs
    exactly F(tau).
    """
    value, used = _horizon_flow(g, a, b, tau)
    out = {}    # vertex -> its flow arcs not yet walked, lowest id last
    for arc in sorted(used, reverse=True):
        out.setdefault(_arc_ends(g, arc)[0], []).append(arc)
    paths = []
    while out.get(a):
        verts, eids = [a], []
        while out.get(verts[-1]):
            arc = out[verts[-1]].pop()
            verts.append(_arc_ends(g, arc)[1])
            eids.append(arc // 2)
        paths.append((tuple(verts), tuple(eids)))
    return FlowSolution(value, tau, tuple(paths))


def tau_route(g, a, b, n_prime):
    """Least horizon tau with max_route_flow value >= n_prime: the
    `least_horizon` of the static a -> b flow's path lengths.  Raises
    UnreachableError for disconnected endpoints."""
    _check_pair(g, a, b)
    if n_prime < 1:
        raise GraphError("n_prime must be >= 1")
    lengths, _ = _static_flow(g, (a,), (b,))
    if not lengths:
        raise UnreachableError(f"vertices {a} and {b} are disconnected")
    return least_horizon(lengths, n_prime)


def extract_level_vector(g, a, b, n_bits, horizon):
    """Min-cut level extraction for unroutable instances.

    Requires max_route_flow(g,a,b,horizon).value < n_bits.  Returns levels
    with levels[a]=0, levels[b]=horizon+1 and
    sum over edges of max(|lvl_u - lvl_v| - 1, 0) < n_bits.  The levels
    are the minimal min cut of the timed network, whose source side holds
    (v, t) for t >= lvl_v: lvl_v = min(horizon + 1, d(v)), for d the
    shortest distance from a in the residual network of the static flow
    of `max_route_flow`, with forward arcs at cost +1, reversed flow arcs
    at cost -1 and, when the flow is nonzero, one arc a -> b of cost
    horizon + 1 (the reverse of the return arc b -> a in the flow's
    circulation form).  The cut's cost is checked against F(horizon),
    which it must equal as a min cut; the two are computed independently.
    """
    value, used = _horizon_flow(g, a, b, horizon)
    if value >= n_bits:
        raise RoutableError(
            f"routable: {value} >= {n_bits} units fit in horizon {horizon}")
    dist, _ = _residual_distances(_incident_arcs(g), (a,), used,
                                  (a, b, horizon + 1) if used else None)
    levels = [horizon + 1 if d is None else min(horizon + 1, d)
              for d in dist]
    if levels[a] != 0 or levels[b] != horizon + 1:
        raise AssertionError("endpoint levels violated by residual cut")
    cost = sum(max(abs(levels[u] - levels[v]) - 1, 0) for u, v in g.edges)
    if cost != value:
        raise AssertionError(f"level cost {cost} != min cut value {value}")
    return LevelVector(a, b, horizon, tuple(levels), cost)
