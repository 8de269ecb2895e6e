"""Diameter-bounded Steiner tree packing and its building blocks.

The pipeline mirrors how low-diameter packings are assembled from short
path collections: every terminal ships a budget of short edge-disjoint
paths to an anchor; a support graph of those paths is greedily packed
with Steiner trees; each tree yields a matching over the terminals with
edge-disjoint supporting paths (deepest-common-ancestor pairing); and
repeated matching rounds shrink the terminal set to a single survivor,
leaving a low-diameter Steiner tree.  Sampling that randomized builder
induces a fractional packing.

Exact bounded-length disjoint-path packing is NP-hard in general; the
search here is exhaustive with pruning and is intended for desk-scale
instances (the rest of the package never needs more).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .graphs import GraphError, UnreachableError, bfs, tree_terminal_diameter

# the sampled packing draws this many randomized trees
PACKING_SAMPLES = 24
# simple-path enumeration gives up past this many paths
MAX_SIMPLE_PATHS = 500_000


class HypothesisError(ValueError):
    """A terminal lacks the required short-path budget to the anchor."""

    def __init__(self, terminal, found, needed):
        super().__init__(
            f"terminal {terminal} has only {found} of {needed} required "
            f"edge-disjoint short paths to the anchor")
        self.terminal = terminal
        self.found = found
        self.needed = needed


class NoGoodTreeError(RuntimeError):
    """Every packed support tree produced too many long paths."""


class ConvergenceError(RuntimeError):
    """The matching rounds of `build_steiner_tree` did not shrink the
    terminal set to one survivor within their round budget."""


@dataclass(frozen=True)
class BasePath:
    verts: tuple
    edge_ids: tuple

    def __post_init__(self):
        if len(self.verts) != len(self.edge_ids) + 1:
            raise GraphError("vertex/edge count mismatch")

    @property
    def length(self):
        return len(self.edge_ids)


@dataclass(frozen=True)
class PathCollection:
    paths: tuple

    @property
    def value(self):
        return len(self.paths)


@dataclass(frozen=True)
class SteinerTree:
    edge_ids: frozenset
    terminals: tuple
    diameter: int


@dataclass
class TreePacking:
    trees: list              # (SteinerTree, weight)
    bound_used: float        # bound actually enforced/recorded
    meta: dict = field(default_factory=dict)

    @property
    def value(self):
        return sum(w for _, w in self.trees)

    def edge_weights(self):
        out = {}
        for tree, w in self.trees:
            for eid in tree.edge_ids:
                out[eid] = out.get(eid, 0) + w
        return out

    def validate(self):
        for tree, w in self.trees:
            if w < 0:
                raise GraphError("negative tree weight")
            if tree.diameter > self.bound_used:
                raise GraphError(
                    f"tree diameter {tree.diameter} exceeds bound {self.bound_used}")
        for eid, w in self.edge_weights().items():
            if w > 1 + 1e-12:
                raise GraphError(f"edge {eid} weight {w} exceeds 1")


# ---------------------------------------------------------------------------
# tree utilities

def tree_from_edges(g, edge_ids, terminals):
    """Validate acyclicity + terminal connectivity and measure diameter."""
    edge_ids = frozenset(edge_ids)
    verts = set()
    for eid in edge_ids:
        verts.update(g.edges[eid])
    if edge_ids and len(edge_ids) != len(verts) - 1:
        raise GraphError("edge set is not a tree")
    diameter = tree_terminal_diameter(g, edge_ids, terminals) if edge_ids else 0
    if len(set(terminals)) > 1 and not edge_ids:
        raise GraphError("empty edge set cannot connect terminals")
    return SteinerTree(edge_ids, tuple(sorted(set(terminals))), diameter)

def prune_to_terminal_tree(g, edge_ids, terminals):
    """BFS spanning tree of the edge set from min(terminals), pruned so
    every leaf is a terminal."""
    terminals = sorted(set(terminals))
    parent = bfs(g, terminals[0], edge_ids)[0]
    missing = [t for t in terminals if t not in parent]
    if missing:
        raise GraphError(f"edge set does not reach terminals {missing}")
    return tree_from_edges(g, _paths_to_root(parent, terminals), terminals)


def _paths_to_root(parent, terminals):
    """Edge ids of the BFS-tree paths from the terminals up to the root."""
    keep = set()
    for t in terminals:
        v = t
        while parent[v] is not None:
            eid, v = parent[v]
            if eid in keep:
                break
            keep.add(eid)
    return keep


# ---------------------------------------------------------------------------
# bounded-length edge-disjoint paths

def _simple_paths(g, a, b, max_hops):
    """Every simple a-b path of at most max_hops edges, depth first in
    `g.incidence` order.  The DFS keeps an explicit stack of incidence
    iterators, so path length is not bounded by the recursion limit."""
    if max_hops < 1:
        return []
    out = []
    visited = {a}
    verts = [a]
    eids = []
    stack = [iter(g.incidence[a])]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            visited.remove(verts.pop())
            if eids:
                eids.pop()
            continue
        eid, w = step
        if w in visited:
            continue
        if len(out) > MAX_SIMPLE_PATHS:
            raise GraphError("path enumeration exceeded the desk-scale cap")
        if w == b:
            out.append(BasePath(tuple(verts) + (w,), tuple(eids) + (eid,)))
        elif len(eids) + 1 < max_hops:
            visited.add(w)
            verts.append(w)
            eids.append(eid)
            stack.append(iter(g.incidence[w]))
    return out


def short_disjoint_paths(g, a, b, max_hops, target=None):
    """Maximum-cardinality set of pairwise edge-disjoint a-b paths of
    length <= max_hops (exhaustive search with pruning).

    With `target` set, the search stops as soon as that many disjoint
    paths are found and returns exactly `target` of them; that is all the
    hypothesis checks need and it is much cheaper than the full optimum.
    A bound below the a-b distance yields an empty collection.
    """
    if a == b:
        raise GraphError("endpoints must differ")
    if target is not None and target <= 0:
        return PathCollection(())
    hop_limits = [max_hops]
    if target is not None:
        dist = g.distances_from(a)[b]
        if dist is None or dist > max_hops:
            return PathCollection(())
        hop_limits = list(range(dist, max_hops + 1))
    # edge-disjoint a-b paths leave a and enter b on distinct edges
    bound = min(g.degree(a), g.degree(b))
    best = []
    for limit in hop_limits:
        candidates = _simple_paths(g, a, b, limit)
        candidates.sort(key=lambda p: (p.length, p.edge_ids))
        found = _max_disjoint(candidates, target, bound)
        if len(found) > len(best):
            best = found
        if target is not None and len(best) >= target:
            return PathCollection(tuple(best[:target]))
    return PathCollection(tuple(best))


def _max_disjoint(candidates, target, bound):
    """Largest pairwise edge-disjoint subfamily of `candidates`, searched
    include-first with an explicit stack; stops once `target` or the
    upper bound `bound` (no family can be larger) is reached."""
    sets = [frozenset(p.edge_ids) for p in candidates]
    stop = bound if target is None else min(target, bound)
    best = ()
    # frame: (avail, offset, chosen); the open candidates are avail[offset:]
    stack = [(list(range(len(candidates))), 0, ())]
    while stack:
        avail, offset, chosen = stack.pop()
        if len(chosen) > len(best):
            best = chosen
            if len(best) >= stop:
                break
        if offset == len(avail) or \
                len(chosen) + len(avail) - offset <= len(best):
            continue
        head = avail[offset]
        filtered = [j for j in avail[offset + 1:] if not (sets[j] & sets[head])]
        stack.append((avail, offset + 1, chosen))
        stack.append((filtered, 0, chosen + (head,)))
    return [candidates[j] for j in best]


# ---------------------------------------------------------------------------
# matching over a tree by deepest common ancestor

def pair_terminals_on_tree(g, edge_ids, subset, root):
    """Perfect matching over an even subset of tree vertices, each pair
    supported by its tree path; paths are pairwise edge-disjoint.

    Pairs are chosen deepest-common-ancestor first (ties broken by vertex
    order), which guarantees the disjointness.
    """
    subset = sorted(subset)
    if len(subset) % 2:
        raise GraphError("subset must have even cardinality")
    parent, depth = bfs(g, root, edge_ids)
    for t in subset:
        if t not in parent:
            raise GraphError(f"vertex {t} is not in the tree")

    def lca_depth(u, v):
        x, y = u, v
        while x != y:
            if depth[x] >= depth[y]:
                x = parent[x][1]
            else:
                y = parent[y][1]
        return depth[x], x

    def tree_path(u, v):
        up_u, up_v = [], []
        eu, ev = [], []
        x, y = u, v
        while x != y:
            if depth[x] >= depth[y]:
                eid, p = parent[x]
                up_u.append(x)
                eu.append(eid)
                x = p
            else:
                eid, p = parent[y]
                up_v.append(y)
                ev.append(eid)
                y = p
        verts = up_u + [x] + list(reversed(up_v))
        return BasePath(tuple(verts), tuple(eu + list(reversed(ev))))

    remaining = list(subset)
    matching = []
    paths = []
    while remaining:
        best = None
        for i, u in enumerate(remaining):
            for v in remaining[i + 1:]:
                d, _ = lca_depth(u, v)
                key = (-d, u, v)
                if best is None or key < best[0]:
                    best = (key, u, v)
        _, u, v = best
        matching.append((u, v))
        paths.append(tree_path(u, v))
        remaining.remove(u)
        remaining.remove(v)
    return matching, paths


# ---------------------------------------------------------------------------
# the matching-with-paths subroutine

@dataclass(frozen=True)
class MatchingResult:
    matching: tuple
    paths: tuple


def matching_with_paths(g, k_prime, path_budget, max_hops, seed):
    """Match at least a quarter of an even terminal subset along
    edge-disjoint paths of length <= 16 * max_hops.

    Hypothesis (checked): every terminal of k_prime ships `path_budget`
    edge-disjoint paths of length <= max_hops to the anchor terminal
    (the smallest terminal of g).  A greedy integral Steiner packing of
    the support stands in for the fractional packing existence result;
    trees whose deepest-ancestor pairing has too many long paths are
    discarded, and one good tree is sampled uniformly.
    """
    k_prime = sorted(k_prime)
    if len(k_prime) % 2 or len(k_prime) < 2:
        raise GraphError("k_prime must be even and nonempty")
    anchor = min(g.terminals)
    support = set()
    for t in k_prime:
        if t == anchor:
            continue
        pc = short_disjoint_paths(g, t, anchor, max_hops, target=path_budget)
        if pc.value < path_budget:
            raise HypothesisError(t, pc.value, path_budget)
        for p in pc.paths:
            support.update(p.edge_ids)
    sub, back = g.with_edges(sorted(support))
    residual = set(range(sub.m))
    trees = []
    while True:
        grown = _grow_steiner_tree(sub, k_prime, residual)
        if grown is None:
            break
        residual -= grown
        trees.append(frozenset(back[e] for e in grown))
    length_bound = 16 * max_hops
    good = []
    for tree_edges in trees:
        root = min(v for eid in tree_edges for v in g.edges[eid])
        matching, paths = pair_terminals_on_tree(g, tree_edges, k_prime, root)
        long_count = sum(1 for p in paths if p.length > length_bound)
        if 4 * long_count < len(k_prime):
            good.append((matching, paths))
    if not good:
        raise NoGoodTreeError(
            f"all {len(trees)} support trees were bad for k'={k_prime}")
    rng = random.Random(f"match:{seed}")
    matching, paths = good[rng.randrange(len(good))]
    kept = [(m, p) for m, p in zip(matching, paths)
            if p.length <= length_bound]
    matching = tuple(m for m, _ in kept)
    paths = tuple(p for _, p in kept)
    assert 4 * len(matching) >= len(k_prime)
    used = set()
    for p in paths:
        for eid in p.edge_ids:
            assert eid not in used, "matching paths overlap"
            used.add(eid)
    return MatchingResult(matching, paths)


def _grow_steiner_tree(g, terminals, residual):
    """One Steiner tree in the residual edge set, by repeatedly attaching
    the nearest unconnected terminal; None when some terminal is cut off."""
    terminals = sorted(set(terminals))
    comp = {terminals[0]}
    targets = set(terminals[1:])
    tree = set()
    while targets:
        parent = bfs(g, sorted(comp), residual)[0]
        reached = next((v for v in parent if v in targets), None)
        if reached is None:
            return None
        v = reached
        while parent[v] is not None:
            eid, p = parent[v]
            tree.add(eid)
            comp.add(v)
            v = p
        targets.discard(reached)
    return tree


# ---------------------------------------------------------------------------
# randomized low-diameter tree builder

def build_steiner_tree(g, terminals, max_hops, path_budget, seed):
    """Shrink the terminal set by repeated matching rounds; the union of
    the matched paths, pruned, is a Steiner tree of diameter at most
    64 * max_hops * log2(k) (recorded by callers; measured here).

    Matched pairs drop their higher-indexed member; with an odd terminal
    count the anchor (or the smallest member) sits the round out.
    """
    terms = sorted(set(terminals))
    if len(terms) < 2:
        raise GraphError("need at least two terminals")
    anchor = min(g.terminals)
    alive = list(terms)
    edges_acc = set()
    max_rounds = 8 * max(1, math.ceil(math.log2(len(terms)))) + 8
    rounds = 0
    while len(alive) > 1:
        if rounds > max_rounds:
            raise ConvergenceError(
                f"matching rounds failed to converge: {len(alive)} of "
                f"{len(terms)} terminals left after {rounds} rounds")
        if len(alive) % 2:
            hold = anchor if anchor in alive else alive[0]
            playing = [t for t in alive if t != hold]
        else:
            playing = list(alive)
        res = matching_with_paths(g, playing, path_budget, max_hops,
                                  seed=f"{seed}:{rounds}")
        for p in res.paths:
            edges_acc.update(p.edge_ids)
        for u, v in res.matching:
            alive.remove(max(u, v))
        rounds += 1
    return prune_to_terminal_tree(g, edges_acc, terms)


# ---------------------------------------------------------------------------
# packing

def pack_steiner_trees(g, terminals, delta, mode="greedy", seed=0):
    """Diameter-bounded Steiner tree packing.

    greedy: integral; repeatedly carve a diameter-<=delta tree out of the
    residual edges (shortest-path trees around candidate centers) until
    none fits.  sample: fractional; the randomized tree builder is sampled
    PACKING_SAMPLES times and each distinct tree gets weight
    (p / (16 log2 k)) * frequency, where p is the common short-path budget
    the graph supports at bound delta.  Per-edge weight <= 1 is enforced
    (scaled down if violated).
    """
    terms = tuple(sorted(set(terminals)))
    if len(terms) < 2:
        raise GraphError("need at least two terminals")
    if delta < 1:
        raise GraphError("delta must be >= 1")
    if mode == "greedy":
        return _pack_greedy(g, terms, delta)
    if mode == "sample":
        return _pack_sampled(g, terms, delta, seed)
    raise GraphError(f"unknown packing mode {mode!r}")


def _spt_tree(g, center, terminals, residual):
    parent = bfs(g, center, residual)[0]
    if any(t not in parent for t in terminals):
        return None
    return _paths_to_root(parent, terminals)


def _pack_greedy(g, terms, delta):
    residual = set(range(g.m))
    trees = []
    while True:
        found = None
        for center in range(g.n):
            keep = _spt_tree(g, center, terms, residual)
            if keep is None:
                continue
            diam = tree_terminal_diameter(g, keep, terms)
            if diam <= delta:
                # a pruned BFS tree is a tree that spans the terminals,
                # and diam is its diameter: tree_from_edges would redo both
                found = SteinerTree(frozenset(keep), terms, diam)
                break
        if found is None:
            break
        trees.append((found, 1))
        residual -= found.edge_ids
    packing = TreePacking(trees, bound_used=delta)
    packing.validate()
    return packing


def _pack_sampled(g, terms, delta, seed):
    anchor = min(g.terminals)
    budget = None
    for t in terms:
        if t == anchor:
            continue
        pc = short_disjoint_paths(g, t, anchor, delta)
        budget = pc.value if budget is None else min(budget, pc.value)
    if not budget:
        return TreePacking([], bound_used=delta, meta={"path_budget": 0})
    log_k = max(1, math.ceil(math.log2(len(terms))))
    bound_used = 64 * delta * max(1.0, math.log2(len(terms)))
    counts = {}
    kept = {}
    for i in range(PACKING_SAMPLES):
        tree = build_steiner_tree(g, terms, delta, budget, seed=f"{seed}:{i}")
        counts[tree.edge_ids] = counts.get(tree.edge_ids, 0) + 1
        kept[tree.edge_ids] = tree
    unit = Fraction(budget, 16 * log_k)
    trees = [(kept[key], unit * Fraction(c, PACKING_SAMPLES))
             for key, c in sorted(counts.items(), key=lambda kv: sorted(kv[0]))]
    packing = TreePacking(trees, bound_used=bound_used,
                          meta={"path_budget": budget})
    heaviest = max(packing.edge_weights().values(), default=0)
    if heaviest > 1:
        factor = Fraction(1) / Fraction(heaviest)
        packing.trees = [(t, w * factor) for t, w in packing.trees]
    packing.validate()
    return packing


@dataclass(frozen=True)
class DisjointnessBound:
    value: Fraction
    delta: int
    packing_values: dict
    packing: TreePacking     # the greedy packing at `delta`


def disjointness_bound(g, terminals, n_bits):
    """min over delta in [|V|] of (n / greedy packing value + delta); the
    aggregate-protocol comparandum.

    A Steiner tree's terminal diameter is at least the terminals' diameter
    in g, so every delta below that packs nothing and is recorded as 0
    without packing.
    """
    if n_bits < 1:
        raise GraphError("n_bits must be >= 1")
    terms = tuple(sorted(set(terminals)))
    if len(terms) < 2:
        raise GraphError("need at least two terminals")
    if not g.connected(terms):
        raise UnreachableError("terminals are disconnected")
    spread = tree_terminal_diameter(g, None, terms)
    best = None     # (value, delta, packing)
    table = {}
    for delta in range(1, g.n + 1):
        if delta < spread:
            table[delta] = 0
            continue
        packing = _pack_greedy(g, terms, delta)
        table[delta] = packing.value
        if packing.value == 0:
            continue
        candidate = Fraction(n_bits, packing.value) + delta
        if best is None or candidate < best[0]:
            best = (candidate, delta, packing)
    if best is None:
        raise UnreachableError("no Steiner tree at any diameter bound")
    value, delta, packing = best
    return DisjointnessBound(value, delta, table, packing)
