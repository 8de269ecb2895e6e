"""Undirected multigraphs with designated terminal sets.

Vertices are integers 0..n-1.  Parallel edges are allowed and carry
independent capacity (one bit per direction per round); self-loops are not.
Every graph designates a set of terminals holding inputs in the
communication problems built on top of it.

`bfs` is the package's one breadth-first search over a `Graph`,
optionally restricted to an edge subset.  Its callers: hop distances,
terminal diameters, the protocols' BFS trees, the greedy packing's
centre trees and the flooding's next hops.
"""

from __future__ import annotations

import json
import numbers
import random
from dataclasses import dataclass
from functools import cached_property


class GraphError(ValueError):
    """Raised on malformed graph data."""


class UnreachableError(RuntimeError):
    """Raised when a routing query involves disconnected endpoints."""


def is_integer(value):
    """Whether `value` is an integer: vertices, counts and sizes read from
    JSON may not be floats (which would be truncated or used as indices)
    or booleans."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_terminals(terminals, n):
    """`terminals` sorted, or GraphError naming the first that is not an
    integer, is not a vertex 0..n-1 or repeats an earlier one."""
    seen = set()
    for t in terminals:
        if not is_integer(t):
            raise GraphError(f"terminal {t!r} is not an integer")
        if not 0 <= t < n:
            raise GraphError(f"terminal {t} out of range for n={n}")
        if t in seen:
            raise GraphError(f"terminal {t} is repeated")
        seen.add(t)
    return tuple(sorted(terminals))


@dataclass(frozen=True)
class Graph:
    """Immutable undirected multigraph with terminals.

    `edges` is a tuple of (u, v) pairs with u < v; the index of an edge in
    this tuple is its identity (parallel edges are distinct entries).
    """

    n: int
    edges: tuple
    terminals: tuple

    def __post_init__(self):
        if not is_integer(self.n):
            raise GraphError(
                f"vertex count n must be an integer, got {self.n!r}")
        if self.n <= 0:
            raise GraphError("graph needs at least one vertex")
        norm = []
        for e in self.edges:
            u, v = e
            if not (is_integer(u) and is_integer(v)):
                raise GraphError(f"edge {list(e)} has a non-integer vertex")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge {e} out of range for n={self.n}")
            norm.append((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", tuple(norm))
        terms = check_terminals(self.terminals, self.n)
        if not terms:
            raise GraphError("terminal set must be nonempty")
        object.__setattr__(self, "terminals", terms)

    @property
    def m(self):
        return len(self.edges)

    @property
    def k(self):
        return len(self.terminals)

    @cached_property
    def incidence(self):
        """Per vertex: tuple of (edge_id, other_endpoint), in edge-id order."""
        inc = [[] for _ in range(self.n)]
        for eid, (u, v) in enumerate(self.edges):
            inc[u].append((eid, v))
            inc[v].append((eid, u))
        return tuple(tuple(entries) for entries in inc)

    def distances_from(self, source):
        """BFS hop distances; unreachable vertices get None."""
        depth = bfs(self, source)[1]
        return [depth.get(v) for v in range(self.n)]

    def connected(self, vertices=None):
        """True if the given vertices (default: all) lie in one component."""
        targets = range(self.n) if vertices is None else list(vertices)
        if not targets:
            return True
        dist = self.distances_from(targets[0])
        return all(dist[v] is not None for v in targets)


def bfs(g, roots, edge_ids=None):
    """Breadth-first search from `roots` (one vertex, or a list or tuple
    of vertices), all at depth 0.

    Returns (parent, depth): dicts over the reached vertices in discovery
    order, parent[v] = (edge_id, parent vertex) and None at a root.  Each
    vertex scans its incidences in edge-id order.  With `edge_ids` given
    (any container; it is used as given, not copied, so pass a set) only
    those edges are crossed.
    """
    if not isinstance(roots, (list, tuple)):
        roots = (roots,)
    parent = dict.fromkeys(roots)
    depth = dict.fromkeys(roots, 0)
    order = list(parent)
    for u in order:
        next_depth = depth[u] + 1
        for eid, w in g.incidence[u]:
            if w not in parent and (edge_ids is None or eid in edge_ids):
                parent[w] = (eid, u)
                depth[w] = next_depth
                order.append(w)
    return parent, depth


def tree_terminal_diameter(g, edge_ids, terminals):
    """Largest hop distance between two terminals using only `edge_ids`
    (None: every edge), one `bfs` per terminal but the last.  Raises
    GraphError when the edges do not connect the terminals."""
    # hop distances are symmetric: the last terminal needs no search
    terminals = list(terminals)
    best = 0
    for t in terminals[:-1]:
        dist = bfs(g, t, edge_ids)[1]
        for s in terminals:
            if s not in dist:
                raise GraphError("edge set does not connect the terminals")
            best = max(best, dist[s])
    return best


def bfs_tree(g, root, edge_ids=None):
    """`bfs` from one root as (parent, depth, children); children[v] lists
    (edge_id, child) in discovery order."""
    parent, depth = bfs(g, root, edge_ids)
    children = {v: [] for v in parent}
    for v, link in parent.items():
        if link is not None:
            children[link[1]].append((link[0], v))
    return parent, depth, children


# ---------------------------------------------------------------------------
# constructors

def path_graph(length, terminals=None):
    """Simple path with `length` edges; default terminals are its endpoints."""
    if length < 1:
        raise GraphError("path needs at least one edge")
    edges = tuple((i, i + 1) for i in range(length))
    return Graph(length + 1, edges, terminals or (0, length))

def cycle_graph(n, terminals=None):
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    edges = tuple((i, (i + 1) % n) for i in range(n))
    return Graph(n, edges, terminals or tuple(range(n)))

def clique(k, terminals=None):
    edges = tuple((i, j) for i in range(k) for j in range(i + 1, k))
    return Graph(k, edges, terminals or tuple(range(k)))

def star_graph(leaves, terminals=None):
    edges = tuple((0, i) for i in range(1, leaves + 1))
    return Graph(leaves + 1, edges, terminals or tuple(range(1, leaves + 1)))

def parallel_edges(count, terminals=None):
    """Two vertices joined by `count` parallel edges."""
    if count < 1:
        raise GraphError("need at least one edge")
    return Graph(2, tuple((0, 1) for _ in range(count)), terminals or (0, 1))

def grid_graph(rows, cols, terminals=None):
    """rows x cols grid; default terminals are the four corners."""
    def vid(r, c):
        return r * cols + c
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    if terminals is None:
        terminals = tuple(sorted({vid(0, 0), vid(0, cols - 1),
                                  vid(rows - 1, 0), vid(rows - 1, cols - 1)}))
    return Graph(rows * cols, tuple(edges), terminals)

def ring_of_cliques(num_cliques, clique_size, terminals=None):
    """`num_cliques` cliques arranged in a ring, consecutive ones bridged.

    Default terminals: the first vertex of each clique.
    """
    if num_cliques < 3 or clique_size < 2:
        raise GraphError("need >=3 cliques of size >=2")
    edges = []
    for c in range(num_cliques):
        base = c * clique_size
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                edges.append((base + i, base + j))
        nxt = ((c + 1) % num_cliques) * clique_size
        edges.append((base + clique_size - 1, nxt))
    if terminals is None:
        terminals = tuple(c * clique_size for c in range(num_cliques))
    return Graph(num_cliques * clique_size, tuple(edges), terminals)

def intro_split_graph(num_paths=4, path_length=4):
    """One direct a-b edge plus `num_paths` disjoint a-b paths of given length."""
    a, b = 0, 1
    edges = [(a, b)]
    n = 2
    for _ in range(num_paths):
        prev = a
        for step in range(path_length - 1):
            edges.append((prev, n))
            prev = n
            n += 1
        edges.append((prev, b))
    return Graph(n, tuple(edges), (a, b))

def random_connected_graph(n, extra_edges, seed, k=2):
    """Random connected multigraph: a random spanning tree plus extra edges."""
    rng = random.Random(seed)
    if n < 2:
        raise GraphError("need at least two vertices")
    order = list(range(n))
    rng.shuffle(order)
    edges = []
    for i in range(1, n):
        edges.append((order[rng.randrange(i)], order[i]))
    for _ in range(extra_edges):
        for _attempt in range(50):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            e = (min(u, v), max(u, v))
            if e not in edges:
                edges.append(e)
                break
        # after 50 rejected draws the extra edge is dropped.  The draw is
        # normalised to (min, max) but the tree edges are stored as
        # (order[j], order[i]), so an extra edge can repeat a tree edge:
        # rand12 (n=12, 10 extra edges, seed 1) has (1, 5) twice.  Golden
        # files and a benchmark instance are built on that, so it stays.
    if k > n:
        raise GraphError("more terminals than vertices")
    terminals = tuple(sorted(rng.sample(range(n), k)))
    return Graph(n, tuple(edges), terminals)


# ---------------------------------------------------------------------------
# serialization

def format_graph_text(g):
    lines = [f"graph {g.n} {g.m} {g.k}"]
    lines += [f"{u} {v}" for u, v in g.edges]
    lines.append(" ".join(str(t) for t in g.terminals))
    return "\n".join(lines) + "\n"

def parse_graph_text(text):
    rows = [ln for ln in (ln.strip() for ln in text.splitlines()) if ln]
    if not rows or not rows[0].startswith("graph"):
        raise GraphError("missing 'graph <n> <m> <k>' header")
    try:
        _, n, m, k = rows[0].split()
        n, m, k = int(n), int(m), int(k)
        if len(rows) != m + 2:
            raise ValueError(f"{m} edges need {m + 2} rows, got {len(rows)}")
        edges = tuple(tuple(map(int, row.split())) for row in rows[1:-1])
        if any(len(e) != 2 for e in edges):
            raise ValueError("an edge row needs exactly two vertices")
        terminals = tuple(map(int, rows[-1].split()))
    except ValueError as exc:
        raise GraphError(f"malformed graph text: {exc}") from exc
    if len(terminals) != k:
        raise GraphError(f"expected {k} terminals, got {len(terminals)}")
    return Graph(n, edges, terminals)

def graph_to_json(g):
    return {"n": g.n, "edges": [list(e) for e in g.edges],
            "terminals": list(g.terminals)}

def graph_from_json(obj):
    try:
        return Graph(obj["n"],
                     tuple(tuple(e) for e in obj["edges"]),
                     tuple(obj["terminals"]))
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed graph JSON: {exc}") from exc

def load_graph(path):
    """Read a graph file; JSON if the suffix is .json, text format otherwise."""
    with open(path) as fh:
        data = fh.read()
    if str(path).endswith(".json"):
        return graph_from_json(json.loads(data))
    return parse_graph_text(data)
