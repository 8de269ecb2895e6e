"""Expander construction inside timed graphs via the cut-matching game.

The game builds a d-regular multigraph over the terminals, one perfect
matching per iteration, together with an embedding that maps every
directed expander edge to a timed path.  The cut player is spectral
(median split of the lazy-walk second eigenvector); the matching player
samples one of the n' matchings carried by a balanced-partition flow.
Expansion is measured by brute force and the whole game retries until the
target 1/2 is reached.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import Graph, GraphError
from .mcf import balanced_partition_paths
from .schedules import RoutingSchedule, ScheduleEntry
from .timed import TimedPath, mirror_timed_path


class ExpansionNotReached(RuntimeError):
    """All cut-matching retries ended below the target expansion."""

    def __init__(self, attempts, best):
        super().__init__(
            f"no 1/2-expander after {attempts} games (best expansion {best})")
        self.attempts = attempts
        self.best = best


class MixingError(ValueError):
    """The walk length is too short for the required per-entry mass."""

    def __init__(self, given, required):
        super().__init__(
            f"T={given} does not reach the 1/(2k) entry bound; need T>={required}")
        self.required = required


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


def regular_degree(h):
    degs = {h.degree(v) for v in range(h.n)}
    if len(degs) != 1:
        raise GraphError("graph is not regular")
    return degs.pop()


def second_eigenvalue(h):
    """Second largest adjacency eigenvalue (dense symmetric solve)."""
    vals = np.linalg.eigvalsh(adjacency_counts(h))
    return float(vals[-2])


def cheeger_bounds(h):
    """(d - lambda2)/2 <= expansion <= sqrt(2 d (d - lambda2))."""
    d = regular_degree(h)
    lam2 = second_eigenvalue(h)
    gap = max(d - lam2, 0.0)
    return gap / 2.0, float(np.sqrt(2.0 * d * gap))


def lazy_walk_distribution(x, q, steps):
    """Exact lazy-walk distribution ((I + A/d)/2)^T q on a regular
    multigraph, in rational arithmetic.

    Also verifies the mixing inequality
    ||result - uniform||_1 <= sqrt(N) * ((1 + lambda2/d)/2)^T
    against the measured lambda2 (1e-9 arithmetic slack).
    """
    d = regular_degree(x)
    n = x.n
    if len(q) != n:
        raise GraphError("distribution length mismatch")
    p = [Fraction(v) if not isinstance(v, float) else Fraction(v) for v in q]
    if sum(p) != 1:
        raise GraphError("initial distribution must sum to 1")
    counts = [[0] * n for _ in range(n)]
    for u, v in x.edges:
        counts[u][v] += 1
        counts[v][u] += 1
    for _ in range(steps):
        nxt = [Fraction(0)] * n
        for v in range(n):
            if p[v] == 0:
                continue
            nxt[v] += p[v] / 2
            share = p[v] / (2 * d)
            row = counts[v]
            for w in range(n):
                if row[w]:
                    nxt[w] += share * row[w]
        p = nxt
    l1 = float(sum(abs(pi - Fraction(1, n)) for pi in p))
    lam2 = second_eigenvalue(x)
    bound = np.sqrt(n) * ((1 + lam2 / d) / 2) ** steps
    if l1 > bound + 1e-9:
        raise AssertionError(
            f"lazy walk L1 distance {l1} exceeds spectral bound {bound}")
    return tuple(p)


@dataclass
class ExpanderEmbedding:
    terminals: tuple        # index i in the expander = terminals[i] in g
    expander: Graph         # multigraph over range(k)
    d: int
    tau: int
    n_prime: int
    paths: dict             # (i, j, iteration) -> TimedPath in g's expansion
    lambda2: float
    expansion: Fraction
    congestion_per_iteration: tuple
    congestion: int
    retries: int

    def out_instances(self, i):
        """Directed edge instances leaving expander vertex i."""
        return sorted(key for key in self.paths if key[0] == i)


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


def _congestion(paths, tau):
    """Most of the timed paths on one non-memory arc."""
    return RoutingSchedule(
        tau, tuple(ScheduleEntry(None, tp, 1) for tp in paths)).max_load()


def cut_matching_embed(g, terminals, tau, n_prime, seed, max_retries=64):
    """Run the cut-matching game over the terminals at horizon tau.

    Per iteration the spectral cut player proposes a balanced bipartition
    (random on the first move), the matching player extracts n' matchings
    from a balanced-partition flow and plays one uniformly at random, and
    both the matched paths and their time-mirrored twins enter the
    embedding (congestion at most 2 per iteration).  The game retries with
    fresh randomness until the measured expansion reaches 1/2.
    """
    terms = tuple(sorted(terminals))
    k = len(terms)
    if k < 2 or k % 2:
        raise GraphError("cut-matching game needs an even number of terminals")
    budget = max(1, int(np.ceil(np.log2(k))) ** 2)
    best_seen = Fraction(0)
    for attempt in range(max_retries):
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
            cong_iters.append(_congestion(played, tau))
            x = Graph(k, tuple(edges), tuple(range(k)))
            phi = expansion(x)
            best_seen = max(best_seen, phi)
            if phi >= Fraction(1, 2):
                return ExpanderEmbedding(
                    terminals=terms,
                    expander=x,
                    d=it + 1,
                    tau=tau,
                    n_prime=n_prime,
                    paths=paths,
                    lambda2=second_eigenvalue(x),
                    expansion=phi,
                    congestion_per_iteration=tuple(cong_iters),
                    congestion=_congestion(paths.values(), tau),
                    retries=attempt,
                )
    raise ExpansionNotReached(max_retries, best_seen)


def minimal_mixing_steps(emb, cap=10_000):
    """Smallest T at which every entry of the lazy-walk distribution from
    every start vertex reaches 1/(2k)."""
    k = emb.expander.n
    d = emb.d
    a = adjacency_counts(emb.expander)
    walk = (np.eye(k) + a / d) / 2.0
    target = 1.0 / (2 * k)
    power = np.eye(k)
    for steps in range(cap + 1):
        if power.min() >= target - 1e-12:
            # confirm exactly with rationals (float guard)
            if _exact_min_entry(emb, steps) >= Fraction(1, 2 * k):
                return steps
        power = walk @ power
    raise MixingError(cap, None)


def _exact_min_entry(emb, steps):
    k = emb.expander.n
    low = None
    for start in range(k):
        q = [Fraction(1) if i == start else Fraction(0) for i in range(k)]
        dist = lazy_walk_distribution(emb.expander, q, steps)
        m = min(dist)
        low = m if low is None else min(low, m)
    return low


def random_walk_route(emb, steps):
    """Simulate the lazy walk over the embedded expander as a fractional
    schedule on the (steps * tau)-horizon expansion of the base graph.

    Each walk step t time-shifts the embedded paths by (t-1)*tau; staying
    mass rides memory edges.  Amounts are exact rationals, scaled by 2n'
    so that every ordered terminal pair receives at least n'/k flow; the
    resulting congestion is measured and recorded (use congestion_to_delay
    for a congestion-1 schedule).
    """
    k = emb.expander.n
    d = emb.d
    tau = emb.tau
    if _exact_min_entry(emb, steps) < Fraction(1, 2 * k):
        required = minimal_mixing_steps(emb)
        raise MixingError(steps, required)
    scale = 2 * emb.n_prime
    mass = {(i, i): Fraction(1) for i in range(k)}
    out_inst = {i: emb.out_instances(i) for i in range(k)}
    entries = []
    for t in range(1, steps + 1):
        offset = (t - 1) * tau
        nxt = {}
        for (v, com), amt in sorted(mass.items()):
            if amt == 0:
                continue
            stay = amt / 2
            u_term = emb.terminals[v]
            entries.append(ScheduleEntry(
                ("walk", emb.terminals[com]),
                TimedPath(offset, (u_term,) * (tau + 1), (None,) * tau),
                stay * scale))
            nxt[(v, com)] = nxt.get((v, com), Fraction(0)) + stay
            share = amt / (2 * d)
            for key in out_inst[v]:
                _, j, _ = key
                entries.append(ScheduleEntry(
                    ("walk", emb.terminals[com]),
                    emb.paths[key].shifted(offset),
                    share * scale))
                nxt[(j, com)] = nxt.get((j, com), Fraction(0)) + share
        mass = nxt
    delivered_min = min(mass[(v, c)] for v in range(k) for c in range(k)) * scale
    schedule = RoutingSchedule(
        horizon=steps * tau,
        entries=tuple(entries),
        tolerance=0.0,
        meta={"walk_steps": steps, "tau": tau, "scale": scale,
              "delivered_min": delivered_min,
              "per_pair_target": Fraction(emb.n_prime, k)},
    )
    schedule.congestion = schedule.max_load()
    return schedule
