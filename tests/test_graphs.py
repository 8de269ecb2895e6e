import pytest
from hypothesis import given, settings, strategies as st

from roundlab import (
    Graph, GraphError, path_graph, parallel_edges, grid_graph,
    parse_graph_text, format_graph_text, graph_to_json, graph_from_json,
)
from roundlab.graphs import bfs, bfs_tree
from roundlab.steiner import tree_terminal_diameter
from oracles import _tree_terminal_diameter, distances_bruteforce


def test_basic_invariants():
    g = Graph(3, ((0, 1), (1, 2), (2, 0)), (0, 1))
    assert g.m == 3 and g.k == 2
    assert len(g.incidence[0]) == 2
    assert g.distances_from(0)[2] == 1


def test_rejects_self_loops_and_bad_terminals():
    with pytest.raises(GraphError):
        Graph(2, ((0, 0),), (0,))
    with pytest.raises(GraphError):
        Graph(2, ((0, 1),), ())
    with pytest.raises(GraphError):
        Graph(2, ((0, 1),), (0, 0))
    with pytest.raises(GraphError):
        Graph(2, ((0, 2),), (0,))


def test_parallel_edges_are_distinct():
    g = parallel_edges(3)
    assert g.m == 3
    assert len(g.incidence[0]) == 3


def test_text_roundtrip():
    g = Graph(4, ((0, 1), (1, 2), (0, 1)), (0, 2))
    text = format_graph_text(g)
    h = parse_graph_text(text)
    assert h == g


def test_json_roundtrip():
    g = grid_graph(2, 3)
    assert graph_from_json(graph_to_json(g)) == g


def test_parse_errors():
    with pytest.raises(GraphError):
        parse_graph_text("nope")
    with pytest.raises(GraphError):
        parse_graph_text("graph 2 1 1\n0 1\n0 1\n")


@pytest.mark.parametrize("text,message", [
    ("graph 3 1 2\n0 1\n1 2\n0 2\n", "1 edges need 3 rows, got 4"),
    ("graph 3 2 2\n0 1\n0 2\n", "2 edges need 4 rows, got 3"),
    ("graph 3 2 2\n0 1 2\n1 2\n0 2\n", "exactly two vertices"),
    ("graph 3 2 2\n0\n1 2\n0 2\n", "exactly two vertices"),
], ids=["extra-edge-row", "missing-edge-row", "three-ints", "one-int"])
def test_parse_checks_rows_against_header(text, message):
    with pytest.raises(GraphError, match=message):
        parse_graph_text(text)


def test_path_and_grid_shapes():
    p = path_graph(4)
    assert p.n == 5 and p.terminals == (0, 4)
    g = grid_graph(3, 3)
    assert g.n == 9 and g.m == 12
    assert g.terminals == (0, 2, 6, 8)


@st.composite
def filtered_multigraphs(draw):
    """A small multigraph (parallel edges allowed), a nonempty root list
    and an edge filter (None or a random edge-id subset)."""
    n = draw(st.integers(1, 6))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    edges = tuple(draw(st.lists(pair, max_size=9))) if n > 1 else ()
    roots = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    ids = st.sets(st.sampled_from(range(len(edges)))) if edges else \
        st.just(set())
    keep = draw(st.none() | ids)
    return Graph(n, edges, (0,)), roots, keep


@settings(max_examples=150, deadline=None)
@given(filtered_multigraphs())
def test_bfs_matches_floyd_warshall(case):
    g, roots, keep = case
    dist = distances_bruteforce(g, keep)
    parent, depth = bfs(g, roots, keep)
    for v in range(g.n):
        reach = [dist[r][v] for r in roots if dist[r][v] is not None]
        assert depth.get(v) == (min(reach) if reach else None)
    assert list(depth) == list(parent)
    assert list(depth.values()) == sorted(depth.values())
    for v, link in parent.items():
        if link is None:
            assert v in roots
            continue
        eid, u = link
        assert keep is None or eid in keep
        assert g.edges[eid] == (min(u, v), max(u, v))
        assert depth[u] == depth[v] - 1
    if keep is None:
        assert g.distances_from(roots[0]) == dist[roots[0]]


@settings(max_examples=100, deadline=None)
@given(filtered_multigraphs())
def test_tree_terminal_diameter_matches_oracle(case):
    g, terms, keep = case
    keep = frozenset(range(g.m)) if keep is None else frozenset(keep)
    expected = _tree_terminal_diameter(g, keep, set(terms))
    if expected >= 10 ** 9:
        with pytest.raises(GraphError):
            tree_terminal_diameter(g, keep, terms)
    else:
        assert tree_terminal_diameter(g, keep, terms) == expected


def test_bfs_tree_children_follow_discovery_order():
    g = grid_graph(3, 3)
    parent, depth, children = bfs_tree(g, 4, {0, 1, 2, 3, 5, 7, 9, 10})
    assert list(children) == list(parent)
    for v, kids in children.items():
        assert kids == [(parent[w][0], w) for w in parent
                        if parent[w] is not None and parent[w][1] == v]
