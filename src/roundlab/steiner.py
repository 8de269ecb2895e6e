"""Diameter-bounded Steiner tree packing and the DISJ upper bound.

`pack_steiner_trees` packs greedily and integrally, carving trees out of
the residual edges until no centre's BFS tree fits the diameter bound.
Below the terminals' diameter in g no tree fits, so no search runs there.
`disjointness_bound` takes min over delta of n / (packing value) + delta,
the comparandum of the Steiner aggregation protocol.  Its deltas share
one memo of centre scans, keyed by the edges already packed, so each
residual edge set is searched once per call, however many deltas reach
it; the memo lives only as long as the call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .graphs import GraphError, UnreachableError, bfs, tree_terminal_diameter


@dataclass(frozen=True)
class SteinerTree:
    edge_ids: frozenset
    diameter: int


@dataclass
class TreePacking:
    trees: list              # (SteinerTree, weight)
    bound_used: int          # the delta the trees were packed under

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


def pack_steiner_trees(g, terminals, delta):
    """Greedy integral packing of Steiner trees of terminal diameter <=
    delta: until none fits, the first centre (in vertex order) whose BFS
    tree over the residual edges reaches every terminal within diameter
    delta gives up the union of its terminal-to-centre paths, with weight
    1.  The value is a lower bound on the packing number ST_delta.
    """
    terms = tuple(sorted(set(terminals)))
    if len(terms) < 2:
        raise GraphError("need at least two terminals")
    if delta < 1:
        raise GraphError("delta must be >= 1")
    [(_, packing)] = _greedy_packings(g, terms, (delta,))
    return packing


def _greedy_packings(g, terms, deltas):
    """(delta, greedy packing) for each of `deltas`.  A Steiner tree's
    terminal diameter is at least the terminals' diameter in g, so a delta
    below that, or any delta when g does not connect the terminals, gets
    the empty packing without a search.  The deltas share one memo of
    centre scans (`_pack_greedy`)."""
    spread = (tree_terminal_diameter(g, None, terms) if g.connected(terms)
              else math.inf)
    scans = {}
    for delta in deltas:
        yield delta, (_pack_greedy(g, terms, delta, scans) if delta >= spread
                      else TreePacking([], bound_used=delta))


def _centre_scan(g, terms, residual):
    """The Steiner tree of each centre, in vertex order, whose BFS tree
    over the `residual` edges reaches every terminal: the union of its
    terminal-to-centre paths, with that union's terminal diameter."""
    for center in range(g.n):
        parent = bfs(g, center, residual)[0]
        if all(t in parent for t in terms):
            keep = _paths_to_root(parent, terms)
            # the terminals' paths up a BFS tree form a tree that spans
            # the terminals
            yield SteinerTree(frozenset(keep),
                              tree_terminal_diameter(g, keep, terms))


def _pack_greedy(g, terms, delta, scans):
    """The greedy packing at `delta`.  `scans` maps the edges used so far
    to that residual's centre scan as (trees scanned, the scan's rest), so
    later calls walk the scanned trees before scanning further; a scan
    depends on the residual alone, so sharing it leaves every packing as
    an unshared search would find it."""
    used = frozenset()
    trees = []
    while True:
        scan = scans.get(used)
        if scan is None:
            residual = set(range(g.m)) - used
            scan = scans[used] = ([], _centre_scan(g, terms, residual))
        scanned, rest = scan
        found = next((t for t in scanned if t.diameter <= delta), None)
        if found is None:
            for tree in rest:
                scanned.append(tree)
                if tree.diameter <= delta:
                    found = tree
                    break
        if found is None:
            break
        trees.append((found, 1))
        used |= found.edge_ids
    packing = TreePacking(trees, bound_used=delta)
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
    aggregate-protocol comparandum.  Every delta below the terminals'
    diameter in g is recorded as 0 without packing."""
    if n_bits < 1:
        raise GraphError("n_bits must be >= 1")
    terms = tuple(sorted(set(terminals)))
    if len(terms) < 2:
        raise GraphError("need at least two terminals")
    if not g.connected(terms):
        raise UnreachableError("terminals are disconnected")
    best = None     # (value, delta, packing)
    table = {}
    for delta, packing in _greedy_packings(g, terms, range(1, g.n + 1)):
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
