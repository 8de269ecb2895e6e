"""Expander construction inside timed graphs via the cut-matching game.

The game builds a d-regular multigraph over the terminals, one perfect
matching per iteration, together with an embedding that maps every
directed expander edge to a timed path.  The cut player is spectral
(median split of the lazy-walk second eigenvector); the matching player
samples one of the n' matchings carried by a balanced-partition flow.
Expansion is measured by brute force and the whole game retries, at most
MAX_RETRIES times, until the target 1/2 is reached.  `embed-expander`
reports the embedding (expander edges, paths, congestion, lambda2,
expansion); nothing routes over it.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import Graph, GraphError
from .mcf import balanced_partition_paths
from .timed import mirror_timed_path

# cut-matching games played, each with fresh randomness, before giving up
MAX_RETRIES = 64


class ExpansionNotReached(RuntimeError):
    """All cut-matching retries ended below the target expansion."""

    def __init__(self, attempts, best):
        super().__init__(
            f"no 1/2-expander after {attempts} games (best expansion {best})")
        self.attempts = attempts
        self.best = best


def expansion(h):
    """Brute-force expansion: min over nonempty S, |S| <= |V|/2, of
    boundary(S)/|S| (parallel edges counted with multiplicity)."""
    n = h.n
    if n < 2:
        raise GraphError("expansion needs at least two vertices")
    if n > 20:
        raise GraphError("brute-force expansion is limited to 20 vertices")
    masks = np.arange(1 << n, dtype=np.int64)
    boundary = np.zeros(1 << n, dtype=np.int64)
    for u, v in h.edges:
        boundary += ((masks >> u) ^ (masks >> v)) & 1
    sizes = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        sizes += (masks >> i) & 1
    valid = (sizes >= 1) & (sizes <= n // 2)
    ratios = np.where(valid, boundary / np.maximum(sizes, 1), np.inf)
    best = int(np.argmin(ratios))
    return Fraction(int(boundary[best]), int(sizes[best]))


def adjacency_counts(h):
    a = np.zeros((h.n, h.n))
    for u, v in h.edges:
        a[u, v] += 1
        a[v, u] += 1
    return a


def second_eigenvalue(h):
    """Second largest adjacency eigenvalue (dense symmetric solve)."""
    vals = np.linalg.eigvalsh(adjacency_counts(h))
    return float(vals[-2])


@dataclass
class ExpanderEmbedding:
    terminals: tuple        # index i in the expander = terminals[i] in g
    expander: Graph         # multigraph over range(k)
    d: int
    paths: dict             # (i, j, iteration) -> TimedPath in g's expansion
    lambda2: float
    expansion: Fraction
    congestion_per_iteration: tuple
    congestion: int
    retries: int


def _perfect_matching(k_half, adj):
    """Kuhn's augmenting matching on a bipartite adjacency (A-side -> list
    of (b, edge_token)); returns {a: (b, token)} covering all of A or None."""
    match_b = {}
    match_a = {}

    def try_augment(a, seen):
        for b, token in adj[a]:
            if b in seen:
                continue
            seen.add(b)
            if b not in match_b or try_augment(match_b[b][0], seen):
                match_b[b] = (a, token)
                match_a[a] = (b, token)
                return True
        return False

    for a in range(k_half):
        if not try_augment(a, set()):
            return None
    return match_a


def _decompose_matchings(pairs, n_prime, side_a, side_b):
    """Split an n'-regular bipartite multigraph into n' perfect matchings.

    pairs: list of (a_vertex, b_vertex, path).
    """
    a_index = {u: i for i, u in enumerate(side_a)}
    b_index = {v: i for i, v in enumerate(side_b)}
    remaining = list(range(len(pairs)))
    matchings = []
    for _ in range(n_prime):
        adj = [[] for _ in side_a]
        for token in remaining:
            u, v, _ = pairs[token]
            adj[a_index[u]].append((b_index[v], token))
        match = _perfect_matching(len(side_a), adj)
        if match is None:
            raise AssertionError("regular bipartite decomposition failed")
        used = [match[a][1] for a in range(len(side_a))]
        matchings.append([pairs[t] for t in used])
        remaining = [t for t in remaining if t not in set(used)]
    return matchings


def _congestion(paths):
    """Most of the timed paths on one non-memory arc."""
    loads = Counter(key for tp in paths for key in tp.steps()
                    if key[1] is not None)
    return max(loads.values(), default=0)


def cut_matching_embed(g, terminals, tau, n_prime, seed):
    """Run the cut-matching game over the terminals at horizon tau.

    Per iteration the spectral cut player proposes a balanced bipartition
    (random on the first move), the matching player extracts n' matchings
    from a balanced-partition flow and plays one uniformly at random, and
    both the matched paths and their time-mirrored twins enter the
    embedding (congestion at most 2 per iteration).  The game retries with
    fresh randomness, at most MAX_RETRIES games, until the measured
    expansion reaches 1/2.
    """
    terms = tuple(sorted(terminals))
    k = len(terms)
    if k < 2 or k % 2:
        raise GraphError("cut-matching game needs an even number of terminals")
    if n_prime < 1:
        raise GraphError(f"n_prime must be at least 1, got {n_prime}")
    budget = max(1, int(np.ceil(np.log2(k))) ** 2)
    best_seen = Fraction(0)
    for attempt in range(MAX_RETRIES):
        rng = random.Random(f"cmg:{seed}:{attempt}")
        edges = []
        paths = {}
        cong_iters = []
        for it in range(budget):
            if it == 0:
                order = list(range(k))
                rng.shuffle(order)
            else:
                x = Graph(k, tuple(edges), tuple(range(k)))
                a = adjacency_counts(x)
                walk = (np.eye(k) + a / (it)) / 2.0
                vals, vecs = np.linalg.eigh(walk)
                vec = vecs[:, -2]
                order = sorted(range(k), key=lambda i: (vec[i], i))
            side_a = sorted(terms[i] for i in order[: k // 2])
            side_b = sorted(terms[i] for i in order[k // 2:])
            flow_paths = balanced_partition_paths(g, tau, side_a, side_b,
                                                  n_prime)
            pairs = [(p.verts[0], p.verts[-1], p) for p in flow_paths]
            matchings = _decompose_matchings(pairs, n_prime, side_a, side_b)
            chosen = matchings[rng.randrange(n_prime)]
            term_index = {t: i for i, t in enumerate(terms)}
            played = []
            for u, v, path in chosen:
                i, j = term_index[u], term_index[v]
                edges.append((min(i, j), max(i, j)))
                mirrored = mirror_timed_path(path, tau)
                paths[(i, j, it)] = path
                paths[(j, i, it)] = mirrored
                played += (path, mirrored)
            cong_iters.append(_congestion(played))
            x = Graph(k, tuple(edges), tuple(range(k)))
            phi = expansion(x)
            best_seen = max(best_seen, phi)
            if phi >= Fraction(1, 2):
                return ExpanderEmbedding(
                    terminals=terms,
                    expander=x,
                    d=it + 1,
                    paths=paths,
                    lambda2=second_eigenvalue(x),
                    expansion=phi,
                    congestion_per_iteration=tuple(cong_iters),
                    congestion=_congestion(paths.values()),
                    retries=attempt,
                )
    raise ExpansionNotReached(MAX_RETRIES, best_seen)

