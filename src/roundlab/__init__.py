"""roundlab: topology-sensitive round complexity on small networks.

Graph-theoretic bounds (single-pair routing horizons, delay-constrained
multicommodity flow, diameter-bounded Steiner tree packing), a synchronous
one-bit-per-edge network simulator, protocol constructions (Steiner
aggregation, circuit compilation, distributed BFS), and the machinery to
compare measured protocol rounds against the computed bounds.
"""

from .graphs import (
    Graph, GraphError, UnreachableError,
    path_graph, cycle_graph, clique, star_graph, parallel_edges,
    grid_graph, ring_of_cliques, intro_split_graph, random_connected_graph,
    parse_graph_text, format_graph_text, graph_to_json, graph_from_json,
    load_graph,
)
from .timed import (
    TimedPath, FlowSolution, LevelVector, RoutableError, SearchLimitError,
    max_route_flow, tau_route, extract_level_vector, validate_timed_path,
)

__all__ = [name for name in dir() if not name.startswith("_")]
