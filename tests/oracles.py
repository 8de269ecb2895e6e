"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately written against the problem definitions,
not against the package internals: naive Ford-Fulkerson on an explicitly
materialized layered graph, scipy's Dinic on the timed network that
roundlab itself never builds for a flow, exhaustive path-set
enumeration, path-form LP feasibility, and plain truth-table evaluators.
"""

from __future__ import annotations

import itertools
import math
from collections import deque, namedtuple
from fractions import Fraction

from roundlab.timed import TimedPath, _static_flow, least_horizon


# ---------------------------------------------------------------------------
# naive max flow on the explicit layered graph

def timed_flow_bruteforce(g, a, b, tau):
    """Max (a,0)->(b,tau) flow by repeated augmenting-path search on an
    adjacency-matrix capacity table (memory capacity = big).

    Returns (flow value, source side): the node ids i * n + v of the
    (v, i) reachable from (a, 0) in the final residual graph.
    """
    n = g.n
    big = 2 * g.m * tau + 1
    size = n * (tau + 1)

    def nid(v, i):
        return i * n + v

    cap = {}
    for i in range(tau):
        for (u, v) in g.edges:
            cap[(nid(u, i), nid(v, i + 1))] = cap.get((nid(u, i), nid(v, i + 1)), 0) + 1
            cap[(nid(v, i), nid(u, i + 1))] = cap.get((nid(v, i), nid(u, i + 1)), 0) + 1
        for w in range(n):
            cap[(nid(w, i), nid(w, i + 1))] = big
    s, t = nid(a, 0), nid(b, tau)
    flow = 0
    while True:
        # BFS for an augmenting path in the residual graph
        parent = {s: None}
        queue = [s]
        while queue and t not in parent:
            x = queue.pop(0)
            for (p, q), c in cap.items():
                if p == x and c > 0 and q not in parent:
                    parent[q] = (p, q)
                    queue.append(q)
        if t not in parent:
            return flow, frozenset(parent)
        # trace back, find bottleneck
        path = []
        node = t
        while parent[node] is not None:
            path.append(parent[node])
            node = parent[node][0]
        bottleneck = min(cap[e] for e in path)
        for (p, q) in path:
            cap[(p, q)] -= bottleneck
            cap[(q, p)] = cap.get((q, p), 0) + bottleneck
        flow += bottleneck


def base_cut_bruteforce(g, side_a, side_b):
    """Fewest base edges crossing a vertex bipartition (S, V - S) with
    side_a inside S and side_b outside, over every such S."""
    side_a, side_b = set(side_a), set(side_b)
    free = [v for v in range(g.n) if v not in side_a | side_b]
    best = None
    for r in range(len(free) + 1):
        for extra in itertools.combinations(free, r):
            inside = side_a | set(extra)
            crossing = sum(1 for u, v in g.edges
                           if (u in inside) != (v in inside))
            best = crossing if best is None else min(best, crossing)
    return best


def tau_route_bruteforce(g, a, b, n_prime, tau_max=64):
    for tau in range(0, tau_max + 1):
        if timed_flow_bruteforce(g, a, b, tau)[0] >= n_prime:
            return tau
    raise RuntimeError("no feasible horizon within brute-force range")


# ---------------------------------------------------------------------------
# hop distances

def distances_bruteforce(g, edge_ids=None):
    """All-pairs hop distances over the edges `edge_ids` (default: all) by
    Floyd-Warshall; dist[u][v] is None when v is unreachable from u."""
    inf = float("inf")
    dist = [[0 if u == v else inf for v in range(g.n)] for u in range(g.n)]
    for eid, (u, v) in enumerate(g.edges):
        if edge_ids is None or eid in edge_ids:
            dist[u][v] = dist[v][u] = 1
    for w in range(g.n):
        for u in range(g.n):
            for v in range(g.n):
                if dist[u][w] + dist[w][v] < dist[u][v]:
                    dist[u][v] = dist[u][w] + dist[w][v]
    return [[None if d == inf else d for d in row] for row in dist]


# ---------------------------------------------------------------------------
# Steiner tree enumeration + exact packing (integral and LP)

def all_steiner_trees(g, terminals, delta):
    """All edge-id subsets forming a Steiner tree for `terminals` with
    terminal-to-terminal diameter <= delta.  Exponential; tiny graphs only."""
    terms = set(terminals)
    found = []
    for size in range(len(terms) - 1, g.m + 1):
        for combo in itertools.combinations(range(g.m), size):
            if _is_steiner_tree(g, combo, terms) and \
               _tree_terminal_diameter(g, combo, terms) <= delta:
                found.append(frozenset(combo))
    return found


def _is_steiner_tree(g, edge_ids, terms):
    verts = set()
    for eid in edge_ids:
        u, v = g.edges[eid]
        verts.update((u, v))
    if not terms <= verts:
        return False
    if len(edge_ids) != len(verts) - 1:
        return False  # not a tree (given connectivity check below)
    # connectivity over the chosen edges
    seen = {next(iter(verts))}
    frontier = list(seen)
    adj = {}
    for eid in edge_ids:
        u, v = g.edges[eid]
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    while frontier:
        x = frontier.pop()
        for y in adj.get(x, ()):
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    if seen != verts:
        return False
    # every leaf must be a terminal, otherwise a smaller subset also works;
    # keep non-pruned trees out so enumeration counts canonical trees only
    deg = {v: 0 for v in verts}
    for eid in edge_ids:
        u, v = g.edges[eid]
        deg[u] += 1
        deg[v] += 1
    return all(v in terms for v, d in deg.items() if d == 1)


def _tree_terminal_diameter(g, edge_ids, terms):
    adj = {}
    for eid in edge_ids:
        u, v = g.edges[eid]
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    best = 0
    for src in terms:
        dist = {src: 0}
        q = [src]
        while q:
            x = q.pop(0)
            for y in adj.get(x, ()):
                if y not in dist:
                    dist[y] = dist[x] + 1
                    q.append(y)
        for t in terms:
            best = max(best, dist.get(t, 10 ** 9))
    return best


def max_integral_packing_bruteforce(g, terminals, delta):
    """Max number of pairwise edge-disjoint diameter-bounded Steiner trees."""
    trees = all_steiner_trees(g, terminals, delta)
    best = 0

    def search(idx, used, count):
        nonlocal best
        best = max(best, count)
        if count + (len(trees) - idx) <= best:
            return
        for j in range(idx, len(trees)):
            if not (trees[j] & used):
                search(j + 1, used | trees[j], count + 1)

    search(0, frozenset(), 0)
    return best


def greedy_packing_reference(g, terminals, delta):
    """The greedy integral packing, every search run afresh: while some
    centre, in vertex order, has a BFS tree over the unused edges that
    reaches every terminal and whose terminal-to-centre paths form a tree
    of terminal diameter <= delta, the first such tree is packed.  The BFS
    scans each vertex's edges in edge-id order.  Returns the packed trees
    as (edge set, terminal diameter) pairs, in packing order."""
    terms = sorted(set(terminals))
    adj = [[] for _ in range(g.n)]
    for eid, (u, v) in enumerate(g.edges):
        adj[u].append((eid, v))
        adj[v].append((eid, u))
    unused = set(range(g.m))
    trees = []
    while True:
        for center in range(g.n):
            parent = {center: None}
            queue = [center]
            for x in queue:
                for eid, y in adj[x]:
                    if eid in unused and y not in parent:
                        parent[y] = (eid, x)
                        queue.append(y)
            if any(t not in parent for t in terms):
                continue
            tree = set()
            for t in terms:
                while parent[t] is not None:
                    eid, t = parent[t]
                    tree.add(eid)
            diam = _tree_terminal_diameter(g, tree, terms)
            if diam <= delta:
                break
        else:
            return trees
        trees.append((frozenset(tree), diam))
        unused -= tree


def lp_packing_value_bruteforce(g, terminals, delta):
    """Exact optimum of the fractional diameter-bounded packing LP, by
    enumerating all trees and solving the LP with scipy."""
    from scipy.optimize import linprog

    trees = all_steiner_trees(g, terminals, delta)
    if not trees:
        return 0.0
    a_ub = [[1.0 if eid in tree else 0.0 for tree in trees]
            for eid in range(g.m)]
    res = linprog(c=[-1.0] * len(trees), A_ub=a_ub, b_ub=[1.0] * g.m,
                  bounds=(0, None), method="highs")
    assert res.status == 0
    return -res.fun


# ---------------------------------------------------------------------------
# multicommodity feasibility via path-form LP (independent formulation)

def timed_paths_between(g, src, dst, tau):
    """All (src,0)->(dst,tau) timed paths as step tuples (mem steps allowed)."""
    out = []

    def extend(v, layer, steps):
        if layer == tau:
            if v == dst:
                out.append(tuple(steps))
            return
        extend(v, layer + 1, steps + [(layer, None, v, v)])
        for eid, w in g.incidence[v]:
            extend(w, layer + 1, steps + [(layer, eid, v, w)])

    extend(src, 0, [])
    return out


def mcf_feasible_bruteforce(g, demands, tau, tol=1e-7):
    """Feasibility of a demand dict {(u,v): amount} at horizon tau, through
    the path formulation: variables = flow per explicit timed path."""
    from scipy.optimize import linprog

    commodities = [(pair, amt) for pair, amt in sorted(demands.items()) if amt > 0]
    if not commodities:
        return True
    all_paths = []
    owners = []
    for idx, ((u, v), _) in enumerate(commodities):
        for p in timed_paths_between(g, u, v, tau):
            all_paths.append(p)
            owners.append(idx)
    if not all_paths:
        return False
    arc_index = {}
    for p in all_paths:
        for step in p:
            if step[1] is not None and step not in arc_index:
                arc_index[step] = len(arc_index)
    n_var = len(all_paths)
    a_eq = [[0.0] * n_var for _ in commodities]
    b_eq = [float(amt) for _, amt in commodities]
    for j, owner in enumerate(owners):
        a_eq[owner][j] = 1.0
    a_ub = [[0.0] * n_var for _ in arc_index]
    for j, p in enumerate(all_paths):
        for step in p:
            if step[1] is not None:
                a_ub[arc_index[step]][j] += 1.0
    res = linprog(c=[0.0] * n_var, A_ub=a_ub, b_ub=[1.0] * len(arc_index),
                  A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    return res.status == 0


# ---------------------------------------------------------------------------
# the timed arcs, enumerated one by one, and the static path walk

def timed_arcs(g, tau):
    """Every arc of the tau-horizon timed graph as (layer, eid, tail, head),
    eid None for a memory arc, in the order of roundlab's arc index: per
    layer, edge eid's arcs u -> v and v -> u for each eid in turn, then
    each vertex's memory arc."""
    out = []
    for layer in range(tau):
        for eid, (u, v) in enumerate(g.edges):
            out.append((layer, eid, u, v))
            out.append((layer, eid, v, u))
        for v in range(g.n):
            out.append((layer, None, v, v))
    return out


def arc_key_flows(g, tau, flow):
    """A flow vector over `timed_arcs` order as {arc_key: amount} over its
    nonzero entries (amounts as Python numbers)."""
    arcs = timed_arcs(g, tau)
    return {arcs[i]: amount for i, amount in enumerate(flow.tolist())
            if amount}


def static_paths_reference(g, a, b, used):
    """The static a -> b flow `used` (a set of arc ids: 2 * eid is edge
    eid's u -> v and 2 * eid + 1 its v -> u, for edges[eid] = (u, v)) as
    paths (verts, edge_ids), walking the lowest-numbered flow arc out of
    each vertex until the walk reaches b, while a flow arc leaves a."""
    out = {}
    for arc in sorted(used, reverse=True):
        u, v = g.edges[arc // 2]
        tail, head = (u, v) if arc % 2 == 0 else (v, u)
        out.setdefault(tail, []).append((head, arc // 2))
    paths = []
    while out.get(a):
        verts, eids = [a], []
        while verts[-1] != b:
            head, eid = out[verts[-1]].pop()
            verts.append(head)
            eids.append(eid)
        paths.append((tuple(verts), tuple(eids)))
    return tuple(paths)


# ---------------------------------------------------------------------------
# the unit-demand router on (layer, eid, tail, head) arc keys and a
# dict-based 0-1 BFS: `roundlab.mcf`'s router on the timed arc index must
# give the same paths

def route_unit_demands_reference(g, units, horizon):
    """Route unit (src, dst) demands as edge-disjoint timed paths within
    `horizon` layers, or return None.

    One greedy sequential BFS pass, farthest units first (ties by index);
    memory steps are free.  None where a unit finds no residual path.
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
    used = set()
    routed = [None] * len(units)
    for idx in sorted(range(len(units)),
                      key=lambda i: (-dists[units[i][0]][units[i][1]], i)):
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


# ---------------------------------------------------------------------------
# timed max flows by scipy's C Dinic on the explicit timed network: the
# reference engine for the flows over time that roundlab reads off static
# flows

def timed_max_flow(g, tau, src, dst, extra_arcs=()):
    """(value, units): a maximum src -> dst flow in the tau-horizon timed
    network of `g`, with `units` its units per arc, a vector indexed like
    `timed_arcs(g, tau)`.

    Node ids are layer * n + v; `extra_arcs` adds (tail, head, capacity)
    arcs whose ends may be new nodes numbered from (tau + 1) n on (super
    sources and sinks).  Edge arcs have capacity
    1 and memory arcs 2 m tau + 1, more than all edge arcs together.  The
    CSR capacity matrix sums parallel arcs; each summed flow is handed back
    one unit per edge arc in edge-id order (memory arcs have no
    parallels).
    """
    import numpy as np
    from scipy import sparse
    from scipy.sparse.csgraph import maximum_flow

    arcs = timed_arcs(g, tau)
    arc_tails = np.array([layer * g.n + u for layer, _, u, _ in arcs],
                         dtype=np.int64)
    arc_heads = np.array([(layer + 1) * g.n + v for layer, _, _, v in arcs],
                         dtype=np.int64)
    is_edge = np.array([eid is not None for _, eid, _, _ in arcs], dtype=bool)
    caps = np.where(is_edge, 1, 2 * g.m * tau + 1)
    tails, heads, size = arc_tails, arc_heads, (tau + 1) * g.n
    if extra_arcs:
        extra = np.array(extra_arcs, dtype=np.int64)
        tails = np.concatenate([tails, extra[:, 0]])
        heads = np.concatenate([heads, extra[:, 1]])
        caps = np.concatenate([caps, extra[:, 2]])
        size = max(size, int(extra[:, :2].max()) + 1)
    capacity = sparse.csr_matrix(
        (caps.astype(np.int32), (tails, heads)), shape=(size, size))
    res = maximum_flow(capacity, src, dst, method="dinic")
    summed = np.asarray(res.flow[arc_tails, arc_heads]).ravel()
    # each arc's rank among the parallel arcs before it in its layer
    rank, seen = [], {}
    for layer, _, u, v in arcs:
        rank.append(seen.get((layer, u, v), 0))
        seen[layer, u, v] = rank[-1] + 1
    return int(res.flow_value), np.where(is_edge, summed > rank, summed)


def partition_flow(g, tau, side_a, side_b, cap_a, cap_b):
    """`timed_max_flow` from side_a x {0} to side_b x {tau} in the
    tau-horizon timed network of `g`, through a super source with an arc
    of capacity cap_a into each (a, 0) and a super sink fed by an arc of
    capacity cap_b from each (b, tau)."""
    n = g.n
    s, t = (tau + 1) * n, (tau + 1) * n + 1
    arcs = ([(s, u, cap_a) for u in side_a]
            + [(tau * n + v, t, cap_b) for v in side_b])
    return timed_max_flow(g, tau, s, t, arcs)


def flow_bound_reference(g, sides, n_prime, lo):
    """The least tau >= lo at which every bipartition (T, K - T) of
    `sides` passes the side test of tau_mcf's flow bound on the timed
    network: the `partition_flow` from T to K - T with capacities
    ceil(|K - T| n'/k) and ceil(|T| n'/k) reaches ceil(|T| |K - T| n'/k).
    An upward scan of timed networks, one max flow per side and
    horizon."""
    share = Fraction(n_prime) / (len(sides[0][0]) + len(sides[0][1]))

    def passes(tau, side, rest):
        value, _ = partition_flow(
            g, tau, side, rest,
            math.ceil(len(rest) * share), math.ceil(len(side) * share))
        return value >= math.ceil(len(side) * len(rest) * share)

    tau = lo
    while not all(passes(tau, side, rest) for side, rest in sides):
        tau += 1
    return tau


def cut_flow_bound_reference(g, n_prime):
    """The least tau >= the terminal diameter at which, on every
    bipartition (T, K - T) of `terminal_bipartitions`, the uncapacitated
    `partition_flow` from T to K - T reaches ceil(|T| |K - T| n'/k).  An
    upward scan of timed networks, one max flow per side and horizon."""
    terminals = tuple(sorted(g.terminals))
    share = Fraction(n_prime) / len(terminals)
    dist = distances_bruteforce(g)
    tau = max(dist[a][b] for a in terminals for b in terminals)

    def passes(side, rest):
        big = 2 * g.m * tau + 1     # more than all the edge arcs carry
        value, _ = partition_flow(g, tau, side, rest, big, big)
        return value >= math.ceil(len(side) * len(rest) * share)

    while not all(passes(side, rest)
                  for side, rest in terminal_bipartitions(terminals)):
        tau += 1
    return tau


def terminal_bipartitions(terminals):
    """Every bipartition (T, K - T) of the sorted `terminals` into two
    nonempty sides, written as the side T that holds the least terminal."""
    first, others = terminals[0], terminals[1:]
    return [((first,) + side, tuple(t for t in others if t not in side))
            for size in range(len(others))
            for side in itertools.combinations(others, size)]


def cut_bounds_exhaustive(g, n_prime):
    """(base-cut bound, flow bound) of tau_mcf over every bipartition
    (T, K - T) of `terminal_bipartitions` and every nonempty X of T and Y
    of K - T: a reference above the bounds of `roundlab.mcf`, which read
    the chain bipartitions alone, each with X = T and Y = K - T.

    The base bound is the largest of the terminal diameter and
    ceil(|T| |K - T| n'/(k lambda(T, K - T))), lambda by
    `base_cut_bruteforce`.  The flow bound is the largest of it and the
    least tau with F_XY(tau) >= need - c_a |T - X| - c_b |(K - T) - Y| > 0
    (c_a = ceil(|K - T| n'/k), c_b = ceil(|T| n'/k), need = ceil(|T|
    |K - T| n'/k)), read off the static min-cost flow from X to Y of
    `roundlab.timed`; `flow_bound_reference` finds it on the timed network.
    """
    terminals = tuple(sorted(g.terminals))
    share = Fraction(n_prime) / len(terminals)
    dist = distances_bruteforce(g)
    base = max(dist[a][b] for a in terminals for b in terminals)
    units_by_pair = []
    for side, rest in terminal_bipartitions(terminals):
        cut = base_cut_bruteforce(g, side, rest)
        base = max(base, math.ceil(len(side) * len(rest) * share / cut))
        cap_a = math.ceil(len(rest) * share)
        cap_b = math.ceil(len(side) * share)
        need = math.ceil(len(side) * len(rest) * share)
        for xs, ys in itertools.product(_nonempty_subsets(side),
                                        _nonempty_subsets(rest)):
            units_by_pair.append((xs, ys, need - cap_a * (len(side) - len(xs))
                                  - cap_b * (len(rest) - len(ys))))
    return base, max([base] + [
        least_horizon(_static_flow(g, xs, ys)[0], units)
        for xs, ys, units in units_by_pair if units > 0])


def _nonempty_subsets(items):
    return [sub for size in range(1, len(items) + 1)
            for sub in itertools.combinations(items, size)]


# ---------------------------------------------------------------------------
# arc-based multicommodity LP, assembled entry by entry

def mcf_lp_reference(g, tau, demands_by_source):
    """(cost, A_ub, b_ub, A_eq, b_eq) of the arc-based LP, one Python call
    per matrix entry: the reference for the vectorised assembly in
    `roundlab.mcf`.  Rows are numbered per commodity by first appearance
    along `timed_arcs` (tail row, then head row).  tau >= 1."""
    import numpy as np
    from scipy import sparse

    arcs = timed_arcs(g, tau)
    n_arcs = len(arcs)
    sources = sorted(demands_by_source)
    n_src = len(sources)

    def var(si, ai):
        return si * n_arcs + ai

    node_of = {}
    rows, cols, vals, b_eq = [], [], [], []

    def row_id(si, v, layer):
        key = (si, v, layer)
        if key not in node_of:
            node_of[key] = len(b_eq)
            b_eq.append(0.0)
        return node_of[key]

    for si, src in enumerate(sources):
        for ai, (layer, eid, u, v) in enumerate(arcs):
            r_out = row_id(si, u, layer)
            rows.append(r_out); cols.append(var(si, ai)); vals.append(1.0)
            r_in = row_id(si, v, layer + 1)
            rows.append(r_in); cols.append(var(si, ai)); vals.append(-1.0)
        supply = sum(demands_by_source[src].values())
        b_eq[row_id(si, src, 0)] += float(supply)
        for dst, amt in demands_by_source[src].items():
            b_eq[row_id(si, dst, tau)] -= float(amt)
    a_eq = sparse.coo_matrix((vals, (rows, cols)),
                             shape=(len(b_eq), n_src * n_arcs))

    ub_rows, ub_cols, ub_vals = [], [], []
    nonmem = [ai for ai, a in enumerate(arcs) if a[1] is not None]
    for r, ai in enumerate(nonmem):
        for si in range(n_src):
            ub_rows.append(r); ub_cols.append(var(si, ai)); ub_vals.append(1.0)
    a_ub = sparse.coo_matrix((ub_vals, (ub_rows, ub_cols)),
                             shape=(len(nonmem), n_src * n_arcs))

    cost = np.zeros(n_src * n_arcs)
    for ai, a in enumerate(arcs):
        if a[1] is not None:
            for si in range(n_src):
                cost[var(si, ai)] = 1.0
    return cost, a_ub, np.ones(len(nonmem)), a_eq, np.array(b_eq)


def forward_bounds_reference(g, tau, sources):
    """The column bounds of `mcf_lp_reference`'s restricted LP, one Python
    call per column: commodity s keeps (0, inf) on every memory arc and on
    each edge arc u -> v with d(s, v) = d(s, u) + 1 (BFS distances), and
    every other edge arc is fixed at (0, 0)."""
    import numpy as np

    bounds = []
    for s in sorted(sources):
        dist = g.distances_from(s)
        for _, eid, u, v in timed_arcs(g, tau):
            keep = eid is None or (dist[u] is not None
                                   and dist[v] == dist[u] + 1)
            bounds.append((0.0, math.inf if keep else 0.0))
    return np.array(bounds)


def has_triangle_bruteforce(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    for u in range(n):
        for v in adj[u]:
            if v > u and adj[u] & adj[v]:
                return True
    return False


def components_unionfind(n, edges):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(x) for x in range(n)})


def is_acyclic_bruteforce(n, edges):
    # a graph is a forest iff every component has |E| = |V| - 1
    return components_unionfind(n, edges) == n - len(edges) if len(edges) <= n \
        else False


def is_bipartite_bruteforce(n, edges):
    color = [None] * n
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for s in range(n):
        if color[s] is not None:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if color[y] is None:
                    color[y] = color[x] ^ 1
                    stack.append(y)
                elif color[y] == color[x]:
                    return False
    return True


# ---------------------------------------------------------------------------
# flooding checkpoint records

# a checkpoint's up record, field by field: pending traffic, token count,
# duplicate-receipt flag, parity-conflict flag, has-untokened flag and the
# least untokened vertex
UpRecord = namedtuple("UpRecord", "pending count dup par has_untok untok")

UP_IDENTITY = UpRecord(0, 0, 0, 0, 0, 0)


def combine_up_records(a, b):
    """The whole-record fold of two up records: the flags OR, the counts
    add, and the least untokened vertex is the min over the records that
    have one (0 when none has)."""
    untoks = [rec.untok for rec in (a, b) if rec.has_untok]
    return UpRecord(a.pending | b.pending, a.count + b.count,
                    a.dup | b.dup, a.par | b.par, int(bool(untoks)),
                    min(untoks, default=0))


# ---------------------------------------------------------------------------
# function oracles

def disj_oracle(inputs):
    """inputs: sequence of equal-length bit tuples, one per terminal."""
    n = len(inputs[0])
    return int(any(all(x[i] for x in inputs) for i in range(n)))


def ed_oracle(inputs):
    return int(len({tuple(x) for x in inputs}) == len(inputs))


def pair_disj_oracle(x, y):
    return int(any(a and b for a, b in zip(x, y)))


def or_disj_oracle(strings):
    """strings: dict (u,v) -> bit tuple over ordered pairs."""
    players = sorted({u for u, _ in strings})
    val = 0
    for i, u in enumerate(players):
        for w in players[i + 1:]:
            val |= pair_disj_oracle(strings[(u, w)], strings[(w, u)])
    return val


def and_disj_oracle(strings):
    players = sorted({u for u, _ in strings})
    val = 1
    for i, u in enumerate(players):
        for w in players[i + 1:]:
            val &= pair_disj_oracle(strings[(u, w)], strings[(w, u)])
    return val


# ---------------------------------------------------------------------------
# reference Steiner aggregation protocol

def aggregate_protocol_reference(g, terminals, packing, func):
    """The Steiner aggregation protocol with a `step` that scans every
    tree's plan for every vertex in every round: the plain form of
    `roundlab.protocols.steiner_aggregate_protocol`, whose transcripts
    (bits, outputs, rounds) it must reproduce exactly.  When every inner
    table is [0]*k + [1], a coordinate travels as one bit, the AND of the
    subtree's inputs; otherwise as a ceil(log2 k)-bit one-count."""
    import math

    from roundlab.graphs import bfs_tree
    from roundlab.sim import ContractViolation, ProtocolSpec

    terms = tuple(sorted(terminals))
    k = len(terms)
    trees = [tree for tree, _ in packing.trees]
    root = terms[0]
    n = func.n
    m = math.ceil(n / len(trees)) if n else 0
    conjunctive = all(list(t) == [0] * k + [1] for t in func.tables)
    bits_per = 1 if conjunctive else max(1, math.ceil(math.log2(k)))

    shapes = [bfs_tree(g, root, tree.edge_ids) for tree in trees]
    plans = []
    for j, (parent, depth, children) in enumerate(shapes):
        height = {}
        for v in sorted(depth, key=lambda x: -depth[x]):
            kids = [w for _, w in children[v]]
            height[v] = 1 + max((height[w] for w in kids), default=-1)
        plans.append({
            "coords": range(j * m, min((j + 1) * m, n)),
            "parent": parent,
            "children": children,
            "start": {v: height[v] + 1 for v in parent},
        })
    data_rounds = 0
    for plan in plans:
        width = len(plan["coords"]) * bits_per
        if width == 0:
            continue
        for _, child in plan["children"][root]:
            data_rounds = max(data_rounds, plan["start"][child] + width - 1)
    parent0, depth0, children0 = shapes[0]
    bcast_rounds = max((depth0[t] for t in terms), default=0)

    def init(v, _g, block):
        return {"in": block, "buf": {}, "carry": {}, "bcast": None}

    def step(v, rnd, state, inbox, pub):
        sends = {}
        out = None
        for j, plan in enumerate(plans):
            if v not in plan["parent"]:
                continue
            width = len(plan["coords"]) * bits_per
            for eid, child in plan["children"][v]:
                q = rnd - 1 - plan["start"][child]
                if 0 <= q < width and eid in inbox:
                    state["buf"].setdefault((j, child), {})[q] = inbox[eid]
        for j, plan in enumerate(plans):
            if v == root or v not in plan["parent"]:
                continue
            width = len(plan["coords"]) * bits_per
            q = rnd - plan["start"][v]
            if 0 <= q < width and conjunctive:
                bits = [state["buf"].get((j, child), {}).get(q, 0)
                        for _, child in plan["children"][v]]
                if v in terms and state["in"] is not None:
                    bits.append(state["in"][plan["coords"][q]])
                sends[plan["parent"][v][0]] = int(all(bits))
            elif 0 <= q < width:
                coord = plan["coords"][q // bits_per]
                total = state["carry"].get(j, 0)
                if q % bits_per == 0:
                    if total:
                        raise ContractViolation("carry persisted across coords")
                    if v in terms and state["in"] is not None:
                        total += state["in"][coord]
                for _, child in plan["children"][v]:
                    total += state["buf"].get((j, child), {}).get(q, 0)
                sends[plan["parent"][v][0]] = total & 1
                state["carry"][j] = total >> 1
        if rnd == data_rounds + 1 and v == root:
            inner = []
            for j, plan in enumerate(plans):
                for ci, coord in enumerate(plan["coords"]):
                    if conjunctive:
                        bits = [state["buf"].get((j, child), {}).get(ci, 0)
                                for _, child in plan["children"][root]]
                        if state["in"] is not None:
                            bits.append(state["in"][coord])
                        inner.append((coord, int(all(bits))))
                        continue
                    count = state["in"][coord] if state["in"] is not None else 0
                    for _, child in plan["children"][root]:
                        buf = state["buf"].get((j, child), {})
                        for bp in range(bits_per):
                            count += buf.get(ci * bits_per + bp, 0) << bp
                    inner.append((coord, func.tables[coord][count]))
            inner.sort()
            state["bcast"] = int(func.outer(tuple(bit for _, bit in inner)))
            out = state["bcast"]
        if state["bcast"] is None and v in depth0 and depth0[v] > 0:
            if rnd == data_rounds + depth0[v] + 1:
                eid, _ = parent0[v]
                if eid not in inbox:
                    raise ContractViolation(
                        f"broadcast bit missing at vertex {v} round {rnd}")
                state["bcast"] = inbox[eid]
                if v in terms:
                    out = state["bcast"]
        if state["bcast"] is not None and v in children0:
            for eid, _ in children0[v]:
                if rnd == data_rounds + depth0[v] + 1:
                    sends[eid] = state["bcast"]
        return sends, state, out

    return ProtocolSpec(data_rounds + bcast_rounds + 2, init, step)


# ---------------------------------------------------------------------------
# reference two-party extraction

def two_party_reference(g, protocol, lv, inputs, seed=0):
    """`roundlab.sim.extract_two_party` by lazy, recursive, dense
    simulation: each crossing bit steps its sender on demand.  Same
    crossing rules and message order; returns a TwoPartyTranscript or
    raises the same ExtractionError.  The recursion is one Python frame
    pair per round, so long horizons exceed the interpreter's limit."""
    from roundlab.sim import ExtractionError, PublicRandomness, \
        TwoPartyTranscript

    class LazyParty:
        """One simulated party: it steps a vertex only when some bit needs
        it, recursing through the vertices whose sends that vertex's inbox
        needs, and fills every send set and inbox densely.

        knows(v, r) says whether this party may reconstruct v's receive
        history through round r; the hidden vertex's input is never read.
        """

        def __init__(self, g, protocol, inputs, hidden, pub, knows):
            self.g = g
            self.protocol = protocol
            self.hidden = hidden
            self.pub = pub
            self.knows = knows
            self.states = {}
            self.stepped = {}
            self.sends = {}      # (v, round) -> dense {edge_id: bit}
            self.outputs = {}
            self.received = {}   # (u, v, edge_id, round) -> bit
            for v in range(g.n):
                if v != hidden:
                    self.states[v] = protocol.init(v, g, inputs.get(v))
                    self.stepped[v] = 0

        def sends_of(self, v, rnd):
            if v == self.hidden:
                raise ExtractionError((v, v, -1, rnd))
            if (v, rnd) not in self.sends:
                for r in range(self.stepped[v] + 1, rnd + 1):
                    inbox = self._inbox_for(v, r - 1)
                    sends, state, out = self.protocol.step(
                        v, r, self.states[v], inbox, self.pub)
                    dense = {eid: 0 for eid, _ in self.g.incidence[v]}
                    dense.update(sends or {})
                    self.sends[(v, r)] = dense
                    self.states[v] = state
                    if out is not None and v not in self.outputs:
                        self.outputs[v] = out
                    self.stepped[v] = r
            return self.sends[(v, rnd)]

        def _inbox_for(self, v, rnd):
            if rnd == 0:
                return {}
            inbox = {}
            for eid, w in self.g.incidence[v]:
                if w != self.hidden and self.knows(w, rnd - 1):
                    inbox[eid] = self.sends_of(w, rnd)[eid]
                else:
                    key = (w, v, eid, rnd)
                    if key not in self.received:
                        raise ExtractionError(key)
                    inbox[eid] = self.received[key]
            return inbox

    tau = protocol.max_rounds
    assert lv.horizon == 2 * tau
    a, b = lv.a, lv.b
    levels = lv.levels
    pub = PublicRandomness(seed)
    party_a = LazyParty(g, protocol, inputs, hidden=b, pub=pub,
                         knows=lambda v, r: levels[v] <= 2 * tau - r)
    party_b = LazyParty(g, protocol, inputs, hidden=a, pub=pub,
                         knows=lambda v, r: levels[v] >= r + 1)
    messages = []
    for t in range(1, tau + 1):
        a_rules = []
        b_rules = []
        for eid, (x, y) in enumerate(g.edges):
            for u, v in ((x, y), (y, x)):
                if levels[u] < t < levels[v]:
                    a_rules.append((u, v, eid))
                elif levels[v] < 2 * tau + 1 - t < levels[u]:
                    b_rules.append((u, v, eid))
        for u, v, eid in sorted(a_rules):
            bit = party_a.sends_of(u, t)[eid]
            messages.append(("a->b", bit, (u, v, eid, t)))
            party_b.received[(u, v, eid, t)] = bit
        for u, v, eid in sorted(b_rules):
            bit = party_b.sends_of(u, t)[eid]
            messages.append(("b->a", bit, (u, v, eid, t)))
            party_a.received[(u, v, eid, t)] = bit
    party_a.sends_of(a, tau)
    party_b.sends_of(b, tau)
    if a not in party_a.outputs or b not in party_b.outputs:
        raise ExtractionError((a, b, -1, tau))
    return TwoPartyTranscript(tuple(messages),
                              party_a.outputs[a], party_b.outputs[b])


def extraction_failure_reference(g, lv):
    """The origin of the ExtractionError that `extract_two_party` raises
    first, or None, by scanning every directed edge in every round.

    Party a' owns v != b in round t iff t <= tau and lvl_v <= 2*tau+1-t,
    party b' owns v != a iff t <= tau and lvl_v >= t.  In round t, an arc
    that does not cross fails when a party owns its head in round t+1
    but not its tail in round t (edge order); then a crossing arc fails
    when its party does not own its tail (sorted, a'->b' first)."""
    tau = lv.horizon // 2
    last = 2 * tau + 1
    levels = lv.levels
    owns = (lambda v, t: t <= tau and v != lv.b and levels[v] <= last - t,
            lambda v, t: t <= tau and v != lv.a and levels[v] >= t)
    for t in range(1, tau + 1):
        rules = ([], [])
        for eid, (x, y) in enumerate(g.edges):
            for u, v in ((x, y), (y, x)):
                if levels[u] < t < levels[v]:
                    rules[0].append((u, v, eid))
                elif levels[v] < last - t < levels[u]:
                    rules[1].append((u, v, eid))
                elif any(owns[p](v, t + 1) and not owns[p](u, t)
                         for p in (0, 1)):
                    return (u, v, eid, t)
        for p in (0, 1):
            for u, v, eid in sorted(rules[p]):
                if not owns[p](u, t):
                    return (u, v, eid, t)
    return None
