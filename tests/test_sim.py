import dataclasses
import hashlib
import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from roundlab import (
    Graph, path_graph, extract_level_vector, max_route_flow,
    random_connected_graph,
)
from roundlab.circuits import build_ed_circuit
from roundlab.distgraph import VARIANTS, DistributedGraphInput, bfs_protocol
from roundlab.protocols import (
    ComposedFunction, compile_circuit, disjointness_function,
    steiner_aggregate_protocol,
)
from roundlab.sim import (
    ContractViolation, ExtractionError, MaxRoundsExceeded, ProtocolSpec,
    PublicRandomness, extract_two_party, fixed_windows, replay_matches,
    run_protocol,
)
from roundlab.steiner import disjointness_bound, pack_steiner_trees
from roundlab.timed import LevelVector

from oracles import (
    disj_oracle, ed_oracle, extraction_failure_reference, two_party_reference,
)


def _prf_bit(*args):
    return hashlib.sha256("|".join(map(str, args)).encode()).digest()[0] & 1


def make_random_protocol(g, rounds, proto_seed, subset=False):
    """Every bit is a PRF of the sender's history, which it reads from a
    dense copy of its inbox (an omitted bit reads as 0).  Full-send by
    default; with `subset`, each send is itself switched on by a PRF."""

    def init(v, _g, block):
        return {"in": block, "hist": ()}

    def step(v, rnd, state, inbox, pub):
        dense = tuple(inbox.get(eid, 0) for eid, _ in g.incidence[v])
        hist = state["hist"] + (dense,)
        pubbit = pub.bits(f"round{rnd}", 1)[0]
        sends = {eid: _prf_bit(proto_seed, "s", v, eid, rnd, state["in"],
                               hist, pubbit)
                 for eid, _ in g.incidence[v]
                 if not subset or _prf_bit(proto_seed, "on", v, eid, rnd,
                                           state["in"], hist)}
        out = None
        if rnd == rounds and v in g.terminals:
            out = _prf_bit(proto_seed, "out", v, state["in"], hist)
        return sends, {"in": state["in"], "hist": hist}, out

    return ProtocolSpec(rounds, init, step)


def one_shot_protocol(g):
    """Vertex 0 sends its input bit to vertex 1 over the single edge."""

    def init(v, _g, block):
        return block

    def step(v, rnd, state, inbox, pub):
        if v == 0:
            return {0: state}, state, state
        if inbox:
            return {}, state, inbox[0]
        return {}, state, None

    return ProtocolSpec(2, init, step)


def test_one_round_send():
    g = Graph(2, ((0, 1),), (0, 1))
    tr = run_protocol(g, one_shot_protocol(g), {0: 1, 1: None}, seed=0)
    assert tr.outputs == {0: 1, 1: 1}
    assert tr.bits[0] == {(0, 1, 0): 1}


def test_echo_along_path():
    length = 4
    g = path_graph(length)

    def init(v, _g, block):
        return {"val": block if v == 0 else None}

    def step(v, rnd, state, inbox, pub):
        val = state["val"]
        if val is None and inbox:
            val = list(inbox.values())[0]
        sends = {}
        if val is not None:
            for eid, w in g.incidence[v]:
                if w == v + 1:
                    sends[eid] = val
        out = None
        if v == 0:
            out = state["val"]
        if v == length and val is not None:
            out = val
        return sends, {"val": val}, out

    p = ProtocolSpec(2 * length, init, step)
    tr = run_protocol(g, p, {0: 1, length: None}, seed=0)
    assert tr.outputs[length] == 1
    # the bit crosses the last edge at round `length` (store-and-forward);
    # the endpoint consumes it on the following step
    assert any(key[1] == length for key in tr.bits[length - 1])
    assert tr.rounds == length + 1


def test_determinism_and_replay():
    g = random_connected_graph(5, 4, seed=8)
    p = make_random_protocol(g, rounds=4, proto_seed=1)
    inputs = {t: (t % 2,) for t in g.terminals}
    t1 = run_protocol(g, p, inputs, seed=3)
    t2 = run_protocol(g, p, inputs, seed=3)
    assert t1.bits == t2.bits and t1.outputs == t2.outputs
    assert replay_matches(g, p, inputs, 3, t1)


def test_transcript_keys_are_shared_across_rounds():
    # one (tail, head, edge_id) key object per directed edge, not one
    # fresh tuple per bit
    g = random_connected_graph(6, 5, seed=4)
    p = make_random_protocol(g, rounds=5, proto_seed=2)
    tr = run_protocol(g, p, {t: (1,) for t in g.terminals}, seed=0)
    first = {}
    for round_bits in tr.bits:
        for key in round_bits:
            assert first.setdefault(key, key) is key
    assert len(first) == 2 * g.m and tr.total_bits == tr.rounds * 2 * g.m


def test_contract_violations():
    g = Graph(2, ((0, 1),), (0, 1))

    def bad_step(v, rnd, state, inbox, pub):
        return {5: 1}, state, None

    with pytest.raises(ContractViolation):
        run_protocol(g, ProtocolSpec(2, lambda v, g2, b: None, bad_step),
                     {0: None, 1: None})

    def nonbit(v, rnd, state, inbox, pub):
        return {0: 2}, state, None

    with pytest.raises(ContractViolation):
        run_protocol(g, ProtocolSpec(2, lambda v, g2, b: None, nonbit),
                     {0: None, 1: None})


@pytest.mark.parametrize("sends, message", [
    ({5: 1}, "non-incident edge 5"),
    ({0: 1, 1: 0, 5: 1}, "non-incident edge 5"),
    ({1: 2}, "non-bit 2"),
    ({0: 1, 1: 2}, "non-bit 2"),
    # the lowest edge's violation is reported, whatever the insertion order
    ({5: 1, 1: 2}, "non-bit 2"),
])
def test_contract_violations_single_and_multi_send(sends, message):
    # vertex 1 of the path 0-1-2 owns edges 0 and 1
    g = path_graph(2)

    def step(v, rnd, state, inbox, pub):
        return (sends if v == 1 else {}), state, None

    with pytest.raises(ContractViolation, match=f"vertex 1 .*{message}"):
        run_protocol(g, ProtocolSpec(2, lambda v, g2, b: None, step),
                     {0: None, 2: None})


def test_max_rounds_exhaustion():
    g = Graph(2, ((0, 1),), (0, 1))

    def silent(v, rnd, state, inbox, pub):
        return {}, state, None

    with pytest.raises(MaxRoundsExceeded) as exc:
        run_protocol(g, ProtocolSpec(3, lambda v, g2, b: None, silent),
                     {0: None, 1: None})
    assert exc.value.transcript.rounds == 3


def test_inputs_must_cover_terminals():
    g = Graph(2, ((0, 1),), (0, 1))
    p = one_shot_protocol(g)
    with pytest.raises(Exception):
        run_protocol(g, p, {0: 1})


def test_public_randomness_is_label_addressed():
    pub = PublicRandomness(7)
    assert pub.bits("x", 16) == pub.bits("x", 16)
    assert pub.bits("x", 16) != pub.bits("y", 16)


# ---------------------------------------------------------------------------
# two-party extraction

def test_extract_single_edge_one_round():
    g = Graph(2, ((0, 1),), (0, 1))
    p = make_random_protocol(g, rounds=1, proto_seed=5)
    inputs = {0: (1,), 1: (0,)}
    lv = extract_level_vector(g, 0, 1, n_bits=3, horizon=2)
    assert lv.levels == (0, 3)
    tr = run_protocol(g, p, inputs, seed=2)
    two = extract_two_party(g, p, lv, inputs, seed=2)
    # both directions cross: a' ships x^1_{0,1} and b' ships x^1_{1,0}
    assert ("a->b", tr.bits[0][(0, 1, 0)], (0, 1, 0, 1)) in two.messages
    assert ("b->a", tr.bits[0][(1, 0, 0)], (1, 0, 0, 1)) in two.messages
    assert two.total_bits <= 2 * 3 - 2
    assert two.output_a == tr.outputs[0]
    assert two.output_b == tr.outputs[1]


def test_extract_no_communication_when_cost_zero():
    g = path_graph(3, terminals=(0, 3))
    p = make_random_protocol(g, rounds=1, proto_seed=6)
    inputs = {0: (1,), 3: (1,)}
    assert max_route_flow(g, 0, 3, 2).value == 0
    lv = extract_level_vector(g, 0, 3, n_bits=1, horizon=2)
    assert lv.cost == 0
    two = extract_two_party(g, p, lv, inputs, seed=0)
    assert two.messages == ()
    tr = run_protocol(g, p, inputs, seed=0)
    assert two.output_a == tr.outputs[0] and two.output_b == tr.outputs[3]


def test_extract_random_protocols_exhaustive_inputs():
    cases = 0
    for seed in range(25):
        g = random_connected_graph(5, 3, seed=900 + seed)
        a, b = g.terminals[0], g.terminals[1]
        g = Graph(g.n, g.edges, (a, b))
        rounds = 1 + seed % 3
        p = make_random_protocol(g, rounds, proto_seed=seed)
        horizon = 2 * rounds
        flow = max_route_flow(g, a, b, horizon).value
        n_bits = flow + 1 + (seed % 2)
        lv = extract_level_vector(g, a, b, n_bits, horizon)
        for xa, xb in itertools.product((0, 1), repeat=2):
            inputs = {a: (xa,), b: (xb,)}
            tr = run_protocol(g, p, inputs, seed=seed)
            two = extract_two_party(g, p, lv, inputs, seed=seed)
            assert two.output_a == tr.outputs[a]
            assert two.output_b == tr.outputs[b]
            assert two.total_bits <= 2 * lv.cost
            assert two.total_bits <= 2 * n_bits - 2
            cases += 1
    assert cases >= 100


def _level_vector(g, a, b, protocol):
    """The min-cut level vector at twice the protocol's rounds (any n_bits
    above the max flow gives the same cut)."""
    horizon = 2 * protocol.max_rounds
    return extract_level_vector(g, a, b, horizon * g.m + 1, horizon)


def _aggregate(g, n):
    packing = disjointness_bound(g, g.terminals, n).packing
    return steiner_aggregate_protocol(g, g.terminals, packing,
                                      disjointness_function(2, n))


@st.composite
def extraction_cases(draw):
    """A random connected multigraph with two terminals and a protocol on
    it: random full-send, random subset-send (1-4 rounds) or the DISJ
    aggregate protocol."""
    size = draw(st.integers(2, 6))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, size)]
    pair = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
    edges += draw(st.lists(pair.filter(lambda e: e[0] != e[1]),
                           max_size=5))
    edges += draw(st.lists(st.sampled_from(edges), max_size=3))
    a, b = sorted(draw(st.lists(st.integers(0, size - 1), min_size=2,
                                max_size=2, unique=True)))
    g = Graph(size, tuple(edges), (a, b))
    kind = draw(st.sampled_from(("full", "subset", "disj")))
    if kind == "disj":
        n = draw(st.integers(1, 4))
        protocol = _aggregate(g, n)
    else:
        n = 1
        protocol = make_random_protocol(g, draw(st.integers(1, 4)),
                                        draw(st.integers(0, 999)),
                                        subset=kind == "subset")
    bits = st.tuples(*[st.integers(0, 1)] * n)
    inputs = {a: draw(bits), b: draw(bits)}
    return g, protocol, inputs, draw(st.integers(0, 3))


@settings(max_examples=150, deadline=None)
@given(extraction_cases())
def test_extract_matches_lazy_reference(case):
    g, protocol, inputs, seed = case
    a, b = g.terminals
    lv = _level_vector(g, a, b, protocol)
    try:
        want = two_party_reference(g, protocol, lv, inputs, seed=seed)
    except ExtractionError as exc:
        with pytest.raises(ExtractionError) as got:
            extract_two_party(g, protocol, lv, inputs, seed=seed)
        assert got.value.origin == exc.origin
        return
    two = extract_two_party(g, protocol, lv, inputs, seed=seed)
    assert two.messages == want.messages
    assert (two.output_a, two.output_b) == (want.output_a, want.output_b)
    assert two.total_bits <= 2 * lv.cost
    tr = run_protocol(g, protocol, inputs, seed=seed)
    assert (two.output_a, two.output_b) == (tr.outputs[a], tr.outputs[b])


def test_extract_long_path_needs_no_recursion():
    # 805 rounds; a lazy simulation that recurses once per round runs out
    # of interpreter frames here
    g = path_graph(400)
    protocol = _aggregate(g, 4)
    assert protocol.max_rounds == 805
    inputs = {0: (1, 0, 1, 1), 400: (0, 1, 1, 0)}
    lv = _level_vector(g, 0, 400, protocol)
    two = extract_two_party(g, protocol, lv, inputs, seed=0)
    want = disj_oracle([inputs[0], inputs[400]])
    assert two.output_a == two.output_b == want == 1
    assert two.total_bits <= 2 * lv.cost


def test_extract_unknown_bit_raises():
    # b's level 4 (not horizon + 1 = 5) keeps its round-1 bit to a from
    # crossing, yet party a' steps a again in round 2
    g = Graph(2, ((0, 1),), (0, 1))
    p = make_random_protocol(g, rounds=2, proto_seed=0)
    lv = LevelVector(0, 1, 4, (0, 4), 0)
    with pytest.raises(ExtractionError, match=r"\(1->0, edge 0, round 1\)"):
        extract_two_party(g, p, lv, {0: (0,), 1: (1,)})


def test_extract_compiled_ed_matches_run():
    # the far terminal takes the broadcast answer from its tree parent,
    # not from whichever silent edge crosses the cut as 0
    g = path_graph(2)
    c, pos = build_ed_circuit(2, 2)
    protocol = compile_circuit(g, g.terminals, c, seed=0, output_pos=pos)
    inputs = {0: (0, 1), 2: (1, 1)}
    tr = run_protocol(g, protocol, inputs, seed=0)
    two = extract_two_party(g, protocol, _level_vector(g, 0, 2, protocol),
                            inputs, seed=0)
    assert ed_oracle(list(inputs.values())) == 1
    assert tr.outputs == {0: 1, 2: 1}
    assert (two.output_a, two.output_b) == (1, 1)


@st.composite
def level_vector_cases(draw):
    """A random connected multigraph with two terminals, a random
    full-send or subset-send protocol (1-4 rounds) and random levels in
    [0, 2*tau+1], half the time with the endpoints' levels fixed at 0
    and 2*tau+1: most such vectors are no min cut, so the extraction
    often fails."""
    size = draw(st.integers(2, 6))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, size)]
    pair = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
    edges += draw(st.lists(pair.filter(lambda e: e[0] != e[1]),
                           max_size=4))
    a, b = sorted(draw(st.lists(st.integers(0, size - 1), min_size=2,
                                max_size=2, unique=True)))
    g = Graph(size, tuple(edges), (a, b))
    rounds = draw(st.integers(1, 4))
    protocol = make_random_protocol(g, rounds, draw(st.integers(0, 999)),
                                    subset=draw(st.booleans()))
    levels = draw(st.lists(st.integers(0, 2 * rounds + 1), min_size=size,
                           max_size=size))
    if draw(st.booleans()):
        levels[a], levels[b] = 0, 2 * rounds + 1
    lv = LevelVector(a, b, 2 * rounds, tuple(levels), 0)
    inputs = {a: (draw(st.integers(0, 1)),), b: (draw(st.integers(0, 1)),)}
    return g, protocol, lv, inputs


@settings(max_examples=200, deadline=None)
@given(level_vector_cases())
def test_extraction_fails_where_the_scan_does(case):
    # the per-arc failure rules against a scan of every arc in every
    # round; without a failure, every message is the bit the simulator
    # sends (an omitted one as 0)
    g, protocol, lv, inputs = case
    a, b = g.terminals
    want = extraction_failure_reference(g, lv)
    try:
        two = extract_two_party(g, protocol, lv, inputs, seed=1)
    except ExtractionError as exc:
        assert exc.origin == (want or (a, b, -1, protocol.max_rounds))
        return
    assert want is None
    tr = run_protocol(g, protocol, inputs, seed=1)
    for _, bit, (u, v, eid, t) in two.messages:
        assert bit == tr.bits[t - 1].get((u, v, eid), 0)
    assert (two.output_a, two.output_b) == (tr.outputs[a], tr.outputs[b])


# ---------------------------------------------------------------------------
# wake windows: a run steps only the vertices with an open window or mail

def test_fixed_windows_merge_and_skip_past_rounds():
    wake = fixed_windows([[(5, 6), (1, 2), (3, 3), (9, 9)], []])
    assert [wake(0, rnd, None) for rnd in (0, 2, 3, 6, 8, 9)] == [
        (1, 3), (1, 3), (5, 6), (9, 9), (9, 9), None]
    assert wake(1, 0, None) is None


def test_mail_steps_a_vertex_without_windows():
    # vertex 1 declares no window: only vertex 0's bit gets it stepped
    g = Graph(2, ((0, 1),), (0, 1))
    calls = []

    def step(v, rnd, state, inbox, pub):
        calls.append((v, rnd))
        if v == 0 and rnd == 3:
            return {0: 1}, state, 1
        return {}, state, inbox.get(0)

    wake = fixed_windows([[(3, 3)], []])
    tr = run_protocol(g, ProtocolSpec(9, lambda v, _g, b: None, step,
                                      wake=wake), {0: None, 1: None})
    assert calls == [(0, 3), (1, 4)]
    assert tr.rounds == 4 and tr.outputs == {0: 1, 1: 1}


def _count_function(k, n, tables, flip):
    """A composed function whose count tables are never DISJ's, so the
    aggregate sends partial counts."""
    tables = tuple((1,) + tuple(t[1:]) for t in tables)
    return ComposedFunction(n, k, lambda bits: (sum(bits) + flip) % 2,
                            tables)


@st.composite
def wake_cases(draw, two_terminals=False):
    """A random connected multigraph (a spanning tree, up to two copies of
    it and extra edges) with k = 2-4 terminals, and a protocol family that
    declares wake windows: the aggregate with DISJ or with a count
    encoding (n = 1-6 bits), the compiled ED circuit, or a BFS variant
    over a random node-distributed H of 1-6 vertices."""
    size = draw(st.integers(2, 6))
    spanning = [(draw(st.integers(0, v - 1)), v) for v in range(1, size)]
    pair = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
    edges = spanning * draw(st.integers(1, 2))
    edges += draw(st.lists(pair.filter(lambda e: e[0] != e[1]),
                           max_size=4))
    k = 2 if two_terminals else draw(st.integers(2, min(4, size)))
    terms = tuple(sorted(draw(st.lists(st.integers(0, size - 1), min_size=k,
                                       max_size=k, unique=True))))
    g = Graph(size, tuple(edges), terms)
    kinds = ("disj", "count") + (() if two_terminals else ("ed",) + VARIANTS)
    kind = draw(st.sampled_from(kinds))
    if kind in ("disj", "count"):
        n = draw(st.integers(1, 6))
        packing = pack_steiner_trees(g, terms, draw(st.integers(1, size)))
        assume(packing.value > 0)
        if kind == "disj":
            func = disjointness_function(k, n)
        else:
            table = st.lists(st.integers(0, 1), min_size=k + 1,
                             max_size=k + 1)
            func = _count_function(k, n, draw(st.lists(table, min_size=n,
                                                       max_size=n)),
                                   draw(st.integers(0, 1)))
        protocol = steiner_aggregate_protocol(g, terms, packing, func)
        bits = st.tuples(*[st.integers(0, 1)] * n)
        inputs = {t: draw(bits) for t in terms}
    elif kind == "ed":
        m = draw(st.integers(1, 2))
        circuit, pos = build_ed_circuit(k, m)
        protocol = compile_circuit(g, terms, circuit,
                                   seed=draw(st.integers(0, 9)),
                                   output_pos=pos)
        bits = st.tuples(*[st.integers(0, 1)] * m)
        inputs = {t: draw(bits) for t in terms}
    else:
        n_h = draw(st.integers(1, 6))
        h_pair = st.tuples(st.integers(0, n_h - 1), st.integers(0, n_h - 1))
        h_edges = draw(st.lists(h_pair.filter(lambda e: e[0] < e[1]),
                                max_size=8, unique=True))
        owners = draw(st.lists(st.sampled_from(terms), min_size=n_h,
                               max_size=n_h))
        inst = DistributedGraphInput(n_h, tuple(h_edges), "node", terms,
                                     dict(enumerate(owners)))
        protocol = bfs_protocol(g, terms, inst, kind)
        inputs = inst.blocks()
    return g, protocol, inputs, draw(st.integers(0, 3))


@settings(max_examples=120, deadline=None)
@given(wake_cases())
def test_wake_windows_match_stepping_every_vertex(case):
    g, protocol, inputs, seed = case
    assert protocol.wake is not None
    tr = run_protocol(g, protocol, inputs, seed=seed)
    every = run_protocol(g, dataclasses.replace(protocol, wake=None), inputs,
                         seed=seed)
    assert tr.rounds == every.rounds
    assert tr.bits == every.bits
    assert tr.outputs == every.outputs


def _extraction(g, protocol, lv, inputs, seed, extract):
    try:
        return extract(g, protocol, lv, inputs, seed=seed)
    except ExtractionError as exc:
        return exc.origin


@settings(max_examples=60, deadline=None)
@given(wake_cases(two_terminals=True))
def test_wake_windows_keep_the_extraction(case):
    g, protocol, inputs, seed = case
    lv = _level_vector(g, *g.terminals, protocol)
    want = _extraction(g, protocol, lv, inputs, seed, two_party_reference)
    for proto in (protocol, dataclasses.replace(protocol, wake=None)):
        assert _extraction(g, proto, lv, inputs, seed,
                           extract_two_party) == want


def test_desk_scale_path_certificate_counts_steps():
    # 2,404 rounds on 1,201 vertices: stepping every vertex in every round
    # took 2,887,204 step calls; the windows and the mail need 6,004
    g = path_graph(1200)
    protocol = _aggregate(g, 4)
    calls = []

    def step(*args):
        calls.append(args[0])
        return protocol.step(*args)

    counted = dataclasses.replace(protocol, step=step)
    inputs = {0: (1, 0, 1, 1), 1200: (0, 1, 1, 1)}
    want = disj_oracle([inputs[0], inputs[1200]])
    tr = run_protocol(g, counted, inputs, seed=0)
    assert tr.rounds == 2404 and tr.total_bits == 6000
    assert len(calls) <= 10_000
    assert tr.outputs == {0: want, 1200: want}
    lv = _level_vector(g, 0, 1200, protocol)
    two = extract_two_party(g, protocol, lv, inputs, seed=0)
    assert two.output_a == two.output_b == want == 1
    assert two.total_bits <= 2 * lv.cost
