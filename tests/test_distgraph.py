import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import event, given, settings, strategies as st

from roundlab import (
    Graph, GraphError, clique, grid_graph, path_graph, random_connected_graph)
from roundlab.distgraph import (
    DistributedGraphInput, _fold_up, _pack, _unpack, _up_slots,
    and_disj_instance, bfs_protocol, edge_to_node_rebalance, graph_oracles,
    instance_from_json, or_disj_instance, random_pair_strings,
)
from roundlab.sim import replay_matches, run_protocol

from oracles import (
    UP_IDENTITY, UpRecord, and_disj_oracle, combine_up_records,
    components_unionfind, has_triangle_bruteforce, is_acyclic_bruteforce,
    is_bipartite_bruteforce, or_disj_oracle,
)


def all_pair_strings(terminals, n):
    terms = sorted(terminals)
    pairs = [(u, w) for u in terms for w in terms if u != w]
    for bits in itertools.product(
            itertools.product((0, 1), repeat=n), repeat=len(pairs)):
        yield dict(zip(pairs, bits))


# ---------------------------------------------------------------------------
# reduction soundness

def test_or_disj_figure_instance():
    # the illustrated 3-player instance: exactly one pairwise intersection,
    # between players 2 and 3 at index 2 (1-based), so the triangle is
    # {y^{2,3}, y^{3,2}, x_2^{{2,3}}} and the rest is a forest
    strings = {
        (1, 2): (1, 0, 1), (2, 1): (0, 1, 0),
        (1, 3): (1, 1, 0), (3, 1): (0, 0, 1),
        (2, 3): (0, 1, 1), (3, 2): (0, 1, 0),
    }
    inst = or_disj_instance(strings, (1, 2, 3), 3)
    assert graph_oracles(inst.num_vertices, inst.edges, "triangle")
    tri = {inst.names[("y", 2, 3)], inst.names[("y", 3, 2)],
           inst.names[("x", 2, 3, 1)]}
    adj = inst.adjacency()
    for u in tri:
        assert len(tri & set(adj[u])) == 2
    # removing the triangle's x-vertex leaves a forest
    remaining = [e for e in inst.edges
                 if inst.names[("x", 2, 3, 1)] not in e]
    assert is_acyclic_bruteforce(inst.num_vertices, remaining)


def test_or_disj_all_zero_is_forest():
    terms = (0, 1, 2)
    strings = {(u, w): (0, 0) for u in terms for w in terms if u != w}
    inst = or_disj_instance(strings, terms, 2)
    assert is_acyclic_bruteforce(inst.num_vertices, inst.edges)
    assert not graph_oracles(inst.num_vertices, inst.edges, "triangle")


def test_or_disj_exhaustive_small():
    terms = (0, 1, 2)
    n = 1
    for strings in all_pair_strings(terms, n):
        inst = or_disj_instance(strings, terms, n)
        want = or_disj_oracle(strings)
        has_tri = graph_oracles(inst.num_vertices, inst.edges, "triangle")
        assert has_tri == bool(want)
        assert has_triangle_bruteforce(inst.num_vertices, inst.edges) == \
            bool(want)
        if not want:
            assert is_acyclic_bruteforce(inst.num_vertices, inst.edges)


def test_or_disj_pair_gadget_exhaustive_n3():
    # soundness is per-pair: gadgets of distinct pairs are vertex-disjoint,
    # so exhausting one pair's 2^(2n) inputs covers every k
    terms = (0, 1)
    for strings in all_pair_strings(terms, 3):
        inst = or_disj_instance(strings, terms, 3)
        want = bool(or_disj_oracle(strings))
        assert graph_oracles(inst.num_vertices, inst.edges, "triangle") == want
        if not want:
            assert is_acyclic_bruteforce(inst.num_vertices, inst.edges)


def test_and_disj_figure_instance():
    strings = {
        (1, 2): (0, 1, 1), (2, 1): (1, 0, 0),
        (1, 3): (1, 1, 1), (3, 1): (0, 0, 1),
        (2, 3): (0, 1, 0), (3, 2): (0, 1, 1),
    }
    inst = and_disj_instance(strings, (1, 2, 3), 3)
    assert components_unionfind(inst.num_vertices, inst.edges) == 2
    # the separated component is l^{{1,2}} with x_2, x_3 of that pair
    blue = {inst.names[("l", 1, 2)], inst.names[("x", 1, 2, 1)],
            inst.names[("x", 1, 2, 2)]}
    adj = inst.adjacency()
    seen = set()
    stack = [inst.names[("l", 1, 2)]]
    while stack:
        x = stack.pop()
        if x in seen:
            continue
        seen.add(x)
        stack.extend(adj[x])
    assert seen == blue


def test_and_disj_all_intersecting_connected():
    terms = (0, 1, 2)
    strings = {(u, w): (1, 1) for u in terms for w in terms if u != w}
    inst = and_disj_instance(strings, terms, 2)
    assert graph_oracles(inst.num_vertices, inst.edges, "connected")


def test_and_disj_exhaustive_small():
    terms = (0, 1, 2)
    n = 1
    for strings in all_pair_strings(terms, n):
        inst = and_disj_instance(strings, terms, n)
        want = bool(and_disj_oracle(strings))
        assert graph_oracles(inst.num_vertices, inst.edges, "connected") == \
            want
        assert (components_unionfind(inst.num_vertices, inst.edges) == 1) == \
            want


def test_and_disj_pair_gadget_exhaustive_n3():
    terms = (0, 1)
    for strings in all_pair_strings(terms, 3):
        inst = and_disj_instance(strings, terms, 3)
        want = bool(and_disj_oracle(strings))
        assert graph_oracles(inst.num_vertices, inst.edges, "connected") == want


def test_gadget_locality_and_sizes():
    terms = (0, 1, 2, 3)
    n = 3
    strings = random_pair_strings(terms, n, seed=5)
    inst = or_disj_instance(strings, terms, n)
    k = len(terms)
    pairs = k * (k - 1) // 2
    assert inst.num_vertices == pairs * (n + 2)
    # every edge owner contributed it from its own strings
    for (u, v), owner in zip(inst.edges, inst.assignment):
        assert owner in terms
    sizes = inst.sizes()
    assert max(sizes.values()) <= n * (k - 1) + (k - 1)


def test_instance_json_roundtrip():
    terms = (0, 1, 2)
    strings = random_pair_strings(terms, 2, seed=1)
    inst = and_disj_instance(strings, terms, 2)
    again = instance_from_json(inst.to_json())
    assert again.edges == inst.edges
    assert again.assignment == inst.assignment


# ---------------------------------------------------------------------------
# oracles cross-check (dual implementations)

def test_graph_oracles_cross_check():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randint(2, 12)
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.25:
                    edges.append((u, v))
        edges = tuple(edges)
        assert graph_oracles(n, edges, "triangle") == \
            has_triangle_bruteforce(n, edges)
        assert graph_oracles(n, edges, "components") == \
            components_unionfind(n, edges)
        assert graph_oracles(n, edges, "connected") == \
            (components_unionfind(n, edges) <= 1)
        assert graph_oracles(n, edges, "acyclic") == \
            is_acyclic_bruteforce(n, edges)
        assert graph_oracles(n, edges, "bipartite") == \
            is_bipartite_bruteforce(n, edges)


# ---------------------------------------------------------------------------
# rebalance

def test_rebalance_moves_edge_input_to_node_input():
    g = clique(3)
    terms = g.terminals
    strings = random_pair_strings(terms, 2, seed=3)
    inst = or_disj_instance(strings, terms, 2)
    node_inp = edge_to_node_rebalance(terms, inst, seed=0)
    assert node_inp.mode == "node"
    assert set(node_inp.assignment) == set(range(inst.num_vertices))
    assert set(node_inp.assignment.values()) <= set(terms)
    assert node_inp.edges == inst.edges


def test_rebalance_empty_graph():
    g = clique(3)
    inst = DistributedGraphInput(3, (), "edge", g.terminals, ())
    node_inp = edge_to_node_rebalance(g.terminals, inst, seed=1)
    assert node_inp.mode == "node" and node_inp.edges == ()
    assert set(node_inp.assignment) == {0, 1, 2}


def test_rebalance_rejects_other_terminals():
    terms = (0, 1, 2)
    inst = and_disj_instance(random_pair_strings(terms, 2, seed=0), terms, 2)
    with pytest.raises(GraphError, match="input terminals do not match"):
        edge_to_node_rebalance((0, 4, 8, 12), inst, seed=0)


def test_rebalance_balance_concentrates():
    g = clique(4)
    rng = random.Random(9)
    for seed in range(20):
        n_h = rng.randint(6, 20)
        edges = []
        for u in range(n_h):
            for v in range(u + 1, n_h):
                if rng.random() < 0.3:
                    edges.append((u, v))
        if not edges:
            continue
        inst = DistributedGraphInput(
            n_h, tuple(edges), "edge", g.terminals,
            tuple(g.terminals[0] for _ in edges))  # everything at one player
        node_inp = edge_to_node_rebalance(g.terminals, inst, seed=seed)
        m_h = len(edges)
        delta_h = inst.max_degree
        bound = 4 * (m_h / 4 + delta_h) * math.log2(n_h * 4 + 2)
        assert max(node_inp.sizes().values()) <= bound


# ---------------------------------------------------------------------------
# flooding protocols

def _random_node_instance(rng, n_h, terms, densities=(0.1, 0.25, 0.5)):
    edges = []
    for u in range(n_h):
        for v in range(u + 1, n_h):
            if rng.random() < rng.choice(densities):
                edges.append((u, v))
    placement = {v: terms[rng.randrange(len(terms))] for v in range(n_h)}
    return DistributedGraphInput(n_h, tuple(edges), "node", terms, placement)


def _run_variant(g, inp, variant, seed=0):
    proto = bfs_protocol(g, g.terminals, inp, variant)
    tr = run_protocol(g, proto, inp.blocks(), seed=seed)
    outs = set(tr.outputs.values())
    assert len(outs) == 1
    return outs.pop(), tr


def test_bfs_single_path_connected():
    g = Graph(2, ((0, 1),), (0, 1))
    inp = DistributedGraphInput(3, ((0, 1), (1, 2)), "node", (0, 1),
                                {0: 0, 1: 1, 2: 0})
    ans, _ = _run_variant(g, inp, "connectivity")
    assert ans is True


def test_bfs_disconnected_components():
    g = clique(3)
    inp = DistributedGraphInput(4, ((0, 1), (2, 3)), "node", g.terminals,
                                {0: 0, 1: 1, 2: 2, 3: 0})
    ans, _ = _run_variant(g, inp, "connectivity")
    assert ans is False
    ans, _ = _run_variant(g, inp, "components")
    assert ans == 2


def test_bfs_cycle_detection():
    g = clique(3)
    tri = DistributedGraphInput(3, ((0, 1), (1, 2), (0, 2)), "node",
                                g.terminals, {0: 0, 1: 1, 2: 2})
    ans, _ = _run_variant(g, tri, "acyclicity")
    assert ans is False
    ans, _ = _run_variant(g, tri, "bipartiteness")
    assert ans is False
    tree = DistributedGraphInput(4, ((0, 1), (1, 2), (1, 3)), "node",
                                 g.terminals, {0: 0, 1: 1, 2: 2, 3: 0})
    ans, _ = _run_variant(g, tree, "acyclicity")
    assert ans is True
    ans, _ = _run_variant(g, tree, "bipartiteness")
    assert ans is True


def test_bfs_and_disj_connectivity_matches_oracle():
    g = clique(3)
    terms = g.terminals
    for seed in range(6):
        strings = random_pair_strings(terms, 2, seed=seed)
        inst = and_disj_instance(strings, terms, 2)
        node_inp = edge_to_node_rebalance(terms, inst, seed=seed)
        ans, _ = _run_variant(g, node_inp, "connectivity", seed=seed)
        assert ans == bool(and_disj_oracle(strings))


VARIANT_QUERIES = (("connectivity", "connected"), ("components", "components"),
                   ("acyclicity", "acyclic"), ("bipartiteness", "bipartite"))


def test_bfs_random_instances_all_variants():
    rng = random.Random(42)
    for case in range(25):
        n_g = rng.randint(2, 5)
        g = random_connected_graph(n_g, rng.randint(1, 4),
                                   seed=1000 + case,
                                   k=rng.randint(2, min(3, n_g)))
        inp = _random_node_instance(rng, rng.randint(2, 12), g.terminals)
        for variant, query in VARIANT_QUERIES:
            ans, _ = _run_variant(g, inp, variant, seed=case)
            want = graph_oracles(inp.num_vertices, inp.edges, query)
            assert ans == want, (case, variant)


# communication graphs with deeper sync trees than the random ones above:
# on a path the non-terminals relay every up record and decision, and a
# one-vertex graph has a sync tree of depth 0
DEEP = {"path8": path_graph(8), "path10": path_graph(10),
        "path12": path_graph(12), "grid4x4": grid_graph(4, 4),
        "single": Graph(1, (), (0,))}


@pytest.mark.parametrize("name", sorted(DEEP))
def test_bfs_deep_sync_trees_all_variants(name):
    g = DEEP[name]
    rng = random.Random(name)
    for case in range(3):
        inp = _random_node_instance(rng, rng.randint(2, 12), g.terminals)
        for variant, query in VARIANT_QUERIES:
            ans, _ = _run_variant(g, inp, variant, seed=case)
            want = graph_oracles(inp.num_vertices, inp.edges, query)
            assert ans == want, (case, variant)


def _component_minima(inp):
    """The least vertex of each component of H, in increasing order."""
    adj = inp.adjacency()
    seen, minima = set(), []
    for s in range(inp.num_vertices):
        if s not in seen:
            minima.append(s)
            stack = [s]
            seen.add(s)
            while stack:
                for w in adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
    return minima


@pytest.mark.parametrize("name", ["path10", "grid4x4"])
def test_bfs_restarts_elect_the_min_untokened_vertex(name):
    # each restart floods from the least vertex that no earlier flood
    # reached, which is the least vertex of the next component: so the
    # floods of `components` start at the components' minima in order
    g = DEEP[name]
    rng = random.Random(name)
    restarts = 0
    for case in range(4):
        inp = _random_node_instance(rng, rng.randint(8, 14), g.terminals,
                                    densities=(0.1,))
        proto = bfs_protocol(g, g.terminals, inp, "components")
        starts = {}

        def step(v, rnd, state, inbox, pub):
            if state["inject"] is not None:
                starts[state["flood"]] = state["inject"]
            return proto.step(v, rnd, state, inbox, pub)

        tr = run_protocol(g, dataclasses.replace(proto, step=step),
                          inp.blocks(), seed=case)
        minima = _component_minima(inp)
        assert set(tr.outputs.values()) == {len(minima)}
        assert starts == dict(enumerate(minima, start=1))
        restarts += len(minima) - 1
    assert restarts >= 10


@st.composite
def far_terminal_cases(draw):
    """A path on 6-14 vertices with up to three chords of span 2, both
    ends and up to two inner vertices as terminals, and a node-distributed
    H of 2-12 vertices: frames cross several relays, so they are cut
    through and run on across chunk boundaries."""
    n = draw(st.integers(6, 14))
    chords = draw(st.lists(st.integers(0, n - 3), max_size=3, unique=True))
    edges = [(v, v + 1) for v in range(n - 1)] + [(v, v + 2) for v in chords]
    inner = draw(st.lists(st.integers(1, n - 2), max_size=2, unique=True))
    terms = tuple(sorted({0, n - 1, *inner}))
    n_h = draw(st.integers(2, 12))
    # mostly a tree over vertices that mostly alternate between the two
    # ends, so that most floods are long and cross the whole path
    rare = st.integers(0, 3).map(lambda x: x == 3)
    h_edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n_h)
               if not draw(rare)}
    pair = st.integers(0, n_h - 2).flatmap(
        lambda u: st.tuples(st.just(u), st.integers(u + 1, n_h - 1)))
    h_edges |= set(draw(st.lists(pair, max_size=6)))
    owners = {v: draw(st.sampled_from(terms)) if draw(rare)
              else (0, n - 1)[v % 2] for v in range(n_h)}
    return (Graph(n, tuple(edges), terms),
            DistributedGraphInput(n_h, tuple(sorted(h_edges)), "node",
                                  terms, owners))


@settings(max_examples=40, deadline=None)
@given(far_terminal_cases())
def test_bfs_far_terminals_all_variants(case):
    g, inp = case
    for variant, query in VARIANT_QUERIES:
        proto = bfs_protocol(g, g.terminals, inp, variant)
        chunk_len = proto.meta["chunk_len"]
        ends = set()

        def step(v, rnd, state, inbox, pub):
            phase, r = state["phase"], rnd - state["start"]
            if phase == "transport" and r and r % chunk_len == 0 and (
                    state["tx"] or state["rx"]):
                event("a frame runs across a chunk boundary")
            sends, state, out = proto.step(v, rnd, state, inbox, pub)
            if state["cut"]:
                event("a relay cuts a frame through")
            if phase == "sync" and state["phase"] != "sync":
                ends.add(rnd)
            return sends, state, out

        tr = run_protocol(g, dataclasses.replace(proto, step=step),
                          inp.blocks(), seed=0)
        want = graph_oracles(inp.num_vertices, inp.edges, query)
        assert set(tr.outputs.values()) == {want}, variant
        assert replay_matches(g, proto, inp.blocks(), 0, tr)
        # no frame or checkpoint bit is in flight as a checkpoint ends
        assert ends and not any(tr.bits[rnd - 1] for rnd in ends)


def test_bfs_continue_checkpoints_last_twice_the_depth_plus_one():
    # H is a path whose vertices alternate between the two ends of the
    # communication path, so every token crosses all ten hops and the
    # first checkpoints find frames queued
    g = path_graph(10)
    inp = DistributedGraphInput(8, tuple((v, v + 1) for v in range(7)),
                                "node", g.terminals,
                                {v: 10 * (v % 2) for v in range(8)})
    proto = bfs_protocol(g, g.terminals, inp, "connectivity")
    spans = {v: [] for v in range(g.n)}

    def step(v, rnd, state, inbox, pub):
        phase, first = state["phase"], state["start"]
        sends, state, out = proto.step(v, rnd, state, inbox, pub)
        if phase == "sync" and state["phase"] != "sync":
            spans[v].append((rnd - first + 1, state["phase"] == "transport"))
        return sends, state, out

    tr = run_protocol(g, dataclasses.replace(proto, step=step), inp.blocks(),
                      seed=0)
    assert set(tr.outputs.values()) == {True}
    assert proto.meta["continue_len"] == 2 * 10 + 1
    # every vertex leaves every checkpoint in the same round
    [checkpoints] = {tuple(cps) for cps in spans.values()}
    assert [length for length, _ in checkpoints] == [
        proto.meta["continue_len"] if cont else proto.meta["sync_len"]
        for _, cont in checkpoints]
    assert sum(cont for _, cont in checkpoints) >= 2


@pytest.mark.parametrize("hops", [1, 2, 3])
def test_cut_through_saves_packet_minus_target_bits_per_relay(hops):
    # one frame, from H vertex 0 at terminal 0 to H vertex 1 at the far
    # end of the path; 16 H vertices give b_v = 4 and 9-bit frames
    b_v, packet_bits = 4, 9
    g = path_graph(hops)
    inp = DistributedGraphInput(16, ((0, 1),), "node", g.terminals,
                                {v: hops * (v == 1) for v in range(16)})
    proto = bfs_protocol(g, g.terminals, inp, "connectivity")
    assert proto.meta["chunk_len"] == 2 * (packet_bits + 3)
    arrived = []

    def step(v, rnd, state, inbox, pub):
        sends, state, out = proto.step(v, rnd, state, inbox, pub)
        if v == hops and 1 in state["tokens"] and not arrived:
            arrived.append(rnd)
        return sends, state, out

    tr = run_protocol(g, dataclasses.replace(proto, step=step), inp.blocks(),
                      seed=0)
    assert set(tr.outputs.values()) == {False}
    # started in round 1, a stored frame would wait packet_bits + 1
    # rounds per hop
    store_and_forward = 1 + hops * (packet_bits + 1)
    assert arrived == [store_and_forward - (hops - 1) * (packet_bits - b_v)]


@pytest.mark.parametrize("variant,want", [
    ("connectivity", True), ("components", 0), ("acyclicity", True),
    ("bipartiteness", True)])
def test_bfs_empty_graph_answers_at_once(variant, want):
    g = clique(3)
    inp = DistributedGraphInput(0, (), "node", g.terminals, {})
    ans, tr = _run_variant(g, inp, variant)
    assert ans == want and type(ans) is type(want)
    assert tr.rounds == 1 and tr.total_bits == 0


def test_bfs_rejects_bad_calls():
    g = clique(3)
    inp = DistributedGraphInput(2, ((0, 1),), "node", g.terminals,
                                {0: 0, 1: 1})
    with pytest.raises(GraphError, match="unknown variant 'planarity'"):
        bfs_protocol(g, g.terminals, inp, "planarity")
    by_edge = DistributedGraphInput(2, ((0, 1),), "edge", g.terminals, (0,))
    with pytest.raises(GraphError, match="node-distributed"):
        bfs_protocol(g, g.terminals, by_edge, "connectivity")
    with pytest.raises(GraphError, match="terminals do not match"):
        bfs_protocol(g, (0, 1), inp, "connectivity")
    split = Graph(4, ((0, 1), (2, 3)), (0, 1, 2))
    with pytest.raises(GraphError, match="must be connected"):
        bfs_protocol(split, split.terminals, inp, "connectivity")


# ---------------------------------------------------------------------------
# message codec

@given(st.lists(st.integers(0, 12).flatmap(
    lambda w: st.tuples(st.integers(0, (1 << w) - 1), st.just(w))),
    max_size=8))
def test_pack_unpack_round_trip(fields):
    values = [v for v, _ in fields]
    widths = [w for _, w in fields]
    bits = _pack(values, widths)
    assert len(bits) == sum(widths) and set(bits) <= {0, 1}
    assert _unpack(bits, widths) == values


@st.composite
def up_records(draw):
    """(b_c, b_v, records): a vertex's own up record and 0-6 children's,
    each field within its width and the counts summing to at most
    2^b_c - 1.  The untokened vertices mostly share their high bits, and
    a record without one may still carry untok bits, which must not
    count."""
    b_c, b_v = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    size = 1 + draw(st.integers(0, 6))
    total = draw(st.integers(0, (1 << b_c) - 1))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=size - 1,
                                max_size=size - 1)))
    counts = [hi - lo for lo, hi in zip([0] + cuts, cuts + [total])]
    shared = draw(st.integers(0, (1 << b_v) - 1))
    flag = st.integers(0, 1)
    records = [UpRecord(draw(flag), count, draw(flag), draw(flag), draw(flag),
                        draw(st.one_of(st.integers(0, 3).map(
                            lambda low: (shared ^ low) % (1 << b_v)),
                            st.integers(0, (1 << b_v) - 1))))
               for count in counts]
    return b_c, b_v, records


@given(up_records())
def test_bit_serial_fold_matches_whole_record_fold(case):
    b_c, b_v, records = case
    want = UP_IDENTITY
    for rec in records:
        want = combine_up_records(want, rec)
    slots = _up_slots(b_c, b_v)
    assert len(slots) == 1 + b_c + 3 + b_v
    acc = [0] * 7
    sent = [_fold_up(acc, (field, bit), [rec[field] >> bit & 1
                                         for rec in records])
            for field, bit in slots]
    assert UpRecord(*acc[:6]) == want
    assert sent == [want[field] >> bit & 1 for field, bit in slots]
