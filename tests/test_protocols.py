import dataclasses
import itertools
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

import roundlab.protocols as protocols_mod
from roundlab import (
    Graph, clique, grid_graph, intro_split_graph, parallel_edges,
    path_graph, random_connected_graph, ring_of_cliques, star_graph,
)
from roundlab.circuits import BooleanCircuit, CircuitBuilder, Gate, build_ed_circuit
from roundlab.distgraph import (
    and_disj_instance, bfs_protocol, edge_to_node_rebalance,
    random_pair_strings,
)
from roundlab.mcf import tau_mcf
from roundlab.protocols import (
    ComposedFunction, compile_circuit, default_input_layout, disj_oracle,
    disjointness_function, ed_hash_reduce, ed_oracle,
    steiner_aggregate_protocol,
)
from roundlab.sim import ContractViolation, ProtocolSpec, run_protocol
from roundlab.timed import TimedPath
from roundlab.steiner import disjointness_bound, pack_steiner_trees

from oracles import aggregate_protocol_reference
from oracles import disj_oracle as disj_ref
from oracles import ed_oracle as ed_ref
from test_transcripts import transcript_digest


def parity_of_majorities(k, n):
    table = tuple(int(c > k / 2) for c in range(k + 1))
    return ComposedFunction(n, k, lambda bits: sum(bits) % 2, (table,) * n)


def all_unique_marks(k, n):
    """1 iff every coordinate is held by exactly one terminal."""
    table = tuple(int(c == 1) for c in range(k + 1))
    return ComposedFunction(n, k, lambda bits: int(all(bits)), (table,) * n)


def test_reference_oracles_agree_with_test_oracles():
    assert disj_oracle([(1, 0, 1), (0, 1, 1), (1, 1, 1)]) == 1 == \
        disj_ref([(1, 0, 1), (0, 1, 1), (1, 1, 1)])
    assert disj_oracle([(1, 0), (0, 1)]) == 0 == disj_ref([(1, 0), (0, 1)])
    assert ed_oracle([(0, 1), (0, 1)]) == 0 == ed_ref([(0, 1), (0, 1)])
    assert ed_oracle([(0, 1), (1, 0)]) == 1 == ed_ref([(0, 1), (1, 0)])


def test_composed_function_evaluate():
    f = disjointness_function(3, 2)
    assert f.evaluate({0: (1, 0), 1: (1, 1), 2: (1, 0)}) == 1
    assert f.evaluate({0: (1, 0), 1: (0, 1), 2: (1, 0)}) == 0


# ---------------------------------------------------------------------------
# aggregation

def _run_aggregate(g, func, packing, inputs, seed=0):
    proto = steiner_aggregate_protocol(g, g.terminals, packing, func)
    tr = run_protocol(g, proto, inputs, seed=seed)
    return proto, tr


def test_aggregate_disj_star_exhaustive():
    g = star_graph(3)  # terminals 1, 2, 3 around center 0
    func = disjointness_function(3, 2)
    packing = pack_steiner_trees(g, g.terminals, delta=2)
    assert packing.value == 1
    for bits in itertools.product((0, 1), repeat=6):
        inputs = {1: bits[0:2], 2: bits[2:4], 3: bits[4:6]}
        proto, tr = _run_aggregate(g, func, packing, inputs)
        want = disj_ref([inputs[t] for t in sorted(inputs)])
        assert set(tr.outputs.values()) == {want}, bits
        assert proto.meta["data_rounds"] <= proto.meta["round_bound"]


def test_aggregate_other_composed_functions():
    g = clique(4)
    packing = pack_steiner_trees(g, g.terminals, delta=2)
    rng = random.Random(4)
    for func in (parity_of_majorities(4, 2), all_unique_marks(4, 2)):
        for _ in range(40):
            inputs = {t: (rng.randint(0, 1), rng.randint(0, 1))
                      for t in g.terminals}
            proto, tr = _run_aggregate(g, func, packing, inputs)
            assert set(tr.outputs.values()) == {func.evaluate(inputs)}


def test_aggregate_constant_outer():
    g = star_graph(3)
    func = ComposedFunction(0, 3, lambda bits: 1, ())
    packing = pack_steiner_trees(g, g.terminals, delta=2)
    proto, tr = _run_aggregate(g, func, packing,
                               {1: (), 2: (), 3: ()})
    assert proto.meta["data_rounds"] == 0
    assert set(tr.outputs.values()) == {1}


def test_aggregate_parallel_bundle_round_bound():
    k_edges = 8
    g = parallel_edges(k_edges)
    packing = pack_steiner_trees(g, (0, 1), delta=1)
    assert packing.value == k_edges
    func = disjointness_function(2, 8)
    inputs = {0: (1, 0, 1, 0, 1, 0, 1, 0), 1: (1, 1, 0, 0, 1, 1, 0, 0)}
    proto, tr = _run_aggregate(g, func, packing, inputs)
    # m = 1 block per tree, one bit per coordinate count
    assert proto.meta["block_size"] == 1
    assert proto.meta["data_rounds"] <= 1 * 1 + 1
    assert set(tr.outputs.values()) == {1}


def test_aggregate_round_accounting_vs_transcript():
    g = star_graph(4)
    func = disjointness_function(4, 4)
    packing = pack_steiner_trees(g, g.terminals, delta=2)
    inputs = {t: (1, 0, 1, 0) for t in g.terminals}
    proto, tr = _run_aggregate(g, func, packing, inputs)
    assert tr.rounds <= proto.meta["data_rounds"] + \
        proto.meta["broadcast_rounds"] + 2


def test_aggregate_partial_count_past_its_width_raises():
    # k = 4 counts in 2 bits; a non-bit input of 2 at terminal 2 takes the
    # centre's partial count to 4, whose high bit no position can carry
    g = star_graph(4)
    packing = pack_steiner_trees(g, g.terminals, delta=2)
    inputs = {1: (0,), 2: (2,), 3: (1,), 4: (1,)}
    with pytest.raises(ContractViolation,
                       match="partial count 4 at vertex 0 overflows 2 bits"):
        _run_aggregate(g, parity_of_majorities(4, 1), packing, inputs)


def test_aggregate_missing_broadcast_bit_raises():
    g = star_graph(3)
    packing = pack_steiner_trees(g, g.terminals, delta=2)
    proto = steiner_aggregate_protocol(g, g.terminals, packing,
                                       disjointness_function(3, 2))
    last = proto.meta["data_rounds"]

    def deaf(v, rnd, state, inbox, pub):
        return proto.step(v, rnd, state, inbox if rnd <= last else {}, pub)

    with pytest.raises(ContractViolation,
                       match=f"broadcast bit missing at vertex 0 round "
                             f"{last + 2}"):
        run_protocol(g, ProtocolSpec(proto.max_rounds, proto.init, deaf),
                     {1: (1, 0), 2: (1, 1), 3: (0, 1)})
    # the relay round is one of the protocol's own wake windows, so the
    # deaf vertex is stepped there without mail too
    with pytest.raises(ContractViolation,
                       match=f"broadcast bit missing at vertex 0 round "
                             f"{last + 2}"):
        run_protocol(g, dataclasses.replace(proto, step=deaf),
                     {1: (1, 0), 2: (1, 1), 3: (0, 1)})


@st.composite
def aggregate_cases(draw):
    """A connected multigraph (a random spanning tree, up to three copies
    of it, and extra edges), k = 2-5 terminals, a greedy packing, a composed function
    and inputs of n = 1-40 bits."""
    size = draw(st.integers(2, 7))
    spanning = [(draw(st.integers(0, v - 1)), v) for v in range(1, size)]
    edges = spanning * draw(st.integers(1, 3))
    pair = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
    edges += draw(st.lists(pair.filter(lambda e: e[0] != e[1]),
                           max_size=10))
    k = draw(st.integers(2, min(5, size)))
    terms = draw(st.lists(st.integers(0, size - 1), min_size=k, max_size=k,
                          unique=True))
    g = Graph(size, tuple(edges), tuple(terms))
    packing = pack_steiner_trees(g, terms, draw(st.integers(1, size)))
    assume(packing.value > 0)
    n = draw(st.one_of(st.integers(1, 3), st.integers(1, 40)))
    make = draw(st.sampled_from((disjointness_function, parity_of_majorities,
                                 all_unique_marks)))
    inputs = {t: tuple(draw(st.lists(st.integers(0, 1), min_size=n,
                                     max_size=n)))
              for t in g.terminals}
    return g, packing, make(k, n), inputs


def _assert_matches_reference(g, packing, func, inputs):
    fast = steiner_aggregate_protocol(g, g.terminals, packing, func)
    slow = aggregate_protocol_reference(g, g.terminals, packing, func)
    assert fast.max_rounds == slow.max_rounds
    tr = run_protocol(g, fast, inputs, seed=0)
    ref = run_protocol(g, slow, inputs, seed=0)
    assert tr.bits == ref.bits
    assert tr.outputs == ref.outputs
    assert tr.rounds == ref.rounds
    assert set(tr.outputs.values()) == {func.evaluate(inputs)}


@settings(max_examples=80, deadline=None)
@given(aggregate_cases())
def test_aggregate_matches_reference(case):
    _assert_matches_reference(*case)


def test_aggregate_matches_reference_with_empty_trees():
    # 6 trees for 3 coordinates: three trees carry no coordinate
    g = parallel_edges(6)
    packing = pack_steiner_trees(g, g.terminals, delta=1)
    assert packing.value == 6
    _assert_matches_reference(g, packing, disjointness_function(2, 3),
                              {0: (1, 0, 1), 1: (0, 1, 1)})
    # k = 5 needs 3 bits per coordinate, so partial counts carry
    g = Graph(7, tuple((c, t) for c in (0, 6) for t in range(1, 6)),
              (1, 2, 3, 4, 5))
    packing = pack_steiner_trees(g, g.terminals, delta=2)
    assert packing.value == 2
    _assert_matches_reference(g, packing, parity_of_majorities(5, 5),
                              {t: (1, 1, 0, 1, 1) for t in g.terminals})


@st.composite
def disj_cases(draw):
    """An `aggregate_cases` graph and packing with DISJ over k = 2-5
    terminals and n = 1-40 bits; half the draws plant a coordinate that
    every terminal holds."""
    g, packing, _, inputs = draw(aggregate_cases())
    n = len(inputs[g.terminals[0]])
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        inputs = {t: x[:i] + (1,) + x[i + 1:] for t, x in inputs.items()}
    return g, packing, disjointness_function(g.k, n), inputs


@settings(max_examples=80, deadline=None)
@given(disj_cases())
def test_aggregate_disj_matches_oracle(case):
    g, packing, func, inputs = case
    proto, tr = _run_aggregate(g, func, packing, inputs)
    want = disj_ref([inputs[t] for t in sorted(inputs)])
    assert set(tr.outputs.values()) == {want}
    assert set(tr.outputs) == set(g.terminals)


@pytest.mark.parametrize("make,bits_per", [
    (disjointness_function, 1),     # the AND: one bit per coordinate
    (parity_of_majorities, 3),      # a count table: ceil(log2 5) bits
    (all_unique_marks, 3),
])
def test_aggregate_round_bound_follows_width(make, bits_per):
    g = Graph(7, tuple((c, t) for c in (0, 6) for t in range(1, 6)),
              (1, 2, 3, 4, 5))
    packing = pack_steiner_trees(g, g.terminals, delta=2)
    assert packing.value == 2
    proto = steiner_aggregate_protocol(g, g.terminals, packing, make(5, 7))
    m = proto.meta["block_size"]
    assert m == 4
    diameter = max(tree.diameter for tree, _ in packing.trees)
    assert proto.meta["round_bound"] == m * bits_per + diameter
    assert proto.meta["data_rounds"] <= proto.meta["round_bound"]


# name -> (rounds, total bits, sha256 of the transcript) of a count-encoded
# aggregation: parity_of_majorities at k = 4 sends 2-bit partial counts,
# which no CLI path builds
COUNT_PINS = {
    "ring44": (72, 390,
        "a03d604de31adc58e729cbdd5cb58e50b9e61009e3f50ff929e7f5f827bfa612"),
    "grid6": (53, 1202,
        "0360b64487bab81da4fa78127ee16ece965d3d305f0f4f025fc76e6f58184580"),
}


@pytest.mark.parametrize("name,graph", [
    ("ring44", ring_of_cliques(4, 4)), ("grid6", grid_graph(6, 6)),
])
def test_aggregate_count_transcript_is_pinned(name, graph):
    n = 32
    rng = random.Random("count-pin")
    inputs = {t: tuple(rng.randint(0, 1) for _ in range(n))
              for t in graph.terminals}
    packing = disjointness_bound(graph, graph.terminals, n).packing
    func = parity_of_majorities(graph.k, n)
    _, tr = _run_aggregate(graph, func, packing, inputs)
    assert set(tr.outputs.values()) == {func.evaluate(inputs)}
    assert (tr.rounds, tr.total_bits, transcript_digest(tr)) == COUNT_PINS[name]


@pytest.mark.parametrize("graph", [
    intro_split_graph(), grid_graph(6, 6), ring_of_cliques(4, 4),
    random_connected_graph(12, 10, seed=1, k=4),
], ids=["intro", "grid6", "ring44", "rand12"])
def test_aggregate_disj_meets_its_bound(graph):
    n = 4096
    best = disjointness_bound(graph, graph.terminals, n)
    func = disjointness_function(graph.k, n)
    proto = steiner_aggregate_protocol(graph, graph.terminals, best.packing,
                                       func)
    assert proto.max_rounds <= 1.01 * best.value


# ---------------------------------------------------------------------------
# compiled circuits

def _identity_circuit():
    levels = ((Gate("CONST", ()), Gate("CONST", ())),
              (Gate("DUP", (0,)), Gate("DUP", (1,))))
    return BooleanCircuit(1, 2, levels)


def test_compile_identity_single_edge():
    g = Graph(2, ((0, 1),), (0, 1))
    c = _identity_circuit()
    proto = compile_circuit(g, (0, 1), c, seed=0, output_pos=0)
    for bits in itertools.product((0, 1), repeat=2):
        tr = run_protocol(g, proto, {0: (bits[0],), 1: (bits[1],)}, seed=0)
        assert set(tr.outputs.values()) == {bits[0]}


def test_compile_and_gate():
    g = Graph(2, ((0, 1),), (0, 1))
    b = CircuitBuilder(1, 2)
    c, pos = b.finalize([b.and_(0, 1)])
    proto = compile_circuit(g, (0, 1), c, seed=1, output_pos=pos[0])
    for bits in itertools.product((0, 1), repeat=2):
        tr = run_protocol(g, proto, {0: (bits[0],), 1: (bits[1],)}, seed=0)
        assert set(tr.outputs.values()) == {bits[0] & bits[1]}


def test_compile_and_gate_reading_one_input_twice():
    # the AND of input 0 with itself sits at terminal 1 while input 0
    # stays at terminal 0, so two units carry one value to terminal 1
    g = Graph(2, ((0, 1),), (0, 1))
    b = CircuitBuilder(1, 2)
    c, pos = b.finalize([b.and_(0, 0)])
    proto = compile_circuit(g, (0, 1), c, seed=7, output_pos=pos[0])
    assert proto.meta["assignment"] == ((0, 1), (1,))
    assert proto.meta["windows"] == (0, 2)
    for bits in itertools.product((0, 1), repeat=2):
        tr = run_protocol(g, proto, {0: (bits[0],), 1: (bits[1],)}, seed=0)
        assert set(tr.outputs.values()) == {bits[0]}
        assert tr.per_edge_bits()[(0, 1, 0)] == 2


@pytest.mark.parametrize("broken,error,message", [
    # each unit's path runs backwards, from a terminal without the value
    (lambda path: TimedPath(path.verts[::-1], path.edge_ids[::-1]),
     ContractViolation, r"must forward \(0, 0\) before holding it"),
    # each unit stays home, so a gate misses its argument
    (lambda path: TimedPath(path.verts[:1], ()), KeyError, r"\(0, 0\)"),
], ids=["forward-before-holding", "missing-gate-argument"])
def test_compile_broken_routes_fail_loudly(monkeypatch, broken, error,
                                           message):
    route = protocols_mod.route_unit_demands
    monkeypatch.setattr(protocols_mod, "route_unit_demands",
                        lambda g, pairs, horizon: [
                            broken(p) for p in route(g, pairs, horizon)])
    g = Graph(2, ((0, 1),), (0, 1))
    b = CircuitBuilder(1, 2)
    c, pos = b.finalize([b.and_(0, 0)])
    proto = compile_circuit(g, (0, 1), c, seed=7, output_pos=pos[0])
    with pytest.raises(error, match=message):
        run_protocol(g, proto, {0: (1,), 1: (0,)}, seed=0)


def random_circuit(k, n, depth, seed):
    rng = random.Random(seed)
    b = CircuitBuilder(n, k)
    frontier = list(b.inputs)
    for _ in range(depth):
        width = rng.randint(2, max(2, min(6, len(frontier))))
        nxt = []
        for _ in range(width):
            kind = rng.choice(("AND", "OR", "NOT"))
            if kind == "NOT":
                nxt.append(b.not_(rng.choice(frontier)))
            elif kind == "AND":
                nxt.append(b.and_(rng.choice(frontier), rng.choice(frontier)))
            else:
                nxt.append(b.or_(rng.choice(frontier), rng.choice(frontier)))
        frontier = nxt
    out = b.reduce(b.and_, frontier)
    return b.finalize([out])


def test_compile_random_circuits_match_evaluation():
    for seed in range(6):
        g = path_graph(2, terminals=(0, 2)) if seed % 2 else clique(3)
        terms = g.terminals
        k, n = len(terms), 2
        c, pos = random_circuit(k, n, depth=3, seed=seed)
        proto = compile_circuit(g, terms, c, seed=seed, output_pos=pos[0])
        for bits in itertools.product((0, 1), repeat=n * k):
            inputs = {t: bits[i * n:(i + 1) * n] for i, t in enumerate(terms)}
            want = c.evaluate(bits)[pos[0]]
            tr = run_protocol(g, proto, inputs, seed=0)
            assert set(tr.outputs.values()) == {want}, (seed, bits)


def test_compile_round_accounting():
    g = clique(3)
    c, pos = random_circuit(3, 2, depth=3, seed=11)
    proto = compile_circuit(g, g.terminals, c, seed=11, output_pos=pos[0])
    inputs = {t: (1, 0) for t in g.terminals}
    tr = run_protocol(g, proto, inputs, seed=0)
    windows = proto.meta["windows"]
    levels = list(zip(windows, proto.meta["thresholds"]))
    taus = tau_mcf(g, g.terminals, [3 * t for window, t in levels if window])
    bounds = [0 if window == 0 else 2 * taus[3 * t] for window, t in levels]
    assert sum(windows) <= sum(bounds)
    assert tr.rounds <= sum(bounds) + proto.meta["broadcast_rounds"] + 2


def test_compile_routes_levels_at_their_unit_loads(monkeypatch):
    # the build path asks tau_mcf once, for the routed levels' peak unit
    # loads, never for the reporting-only 3*threshold horizons
    asked = []

    def recording_tau_mcf(g, terminals, n_primes):
        asked.append(list(n_primes))
        return tau_mcf(g, terminals, n_primes)

    monkeypatch.setattr(protocols_mod, "tau_mcf", recording_tau_mcf)
    circuit, pos = random_circuit(3, 2, depth=3, seed=11)
    ed_circuit, ed_pos = build_ed_circuit(2, 4)
    for g, c, out_pos, seed in ((clique(3), circuit, pos[0], 11),
                                (clique(2), ed_circuit, ed_pos, 0)):
        asked.clear()
        proto = compile_circuit(g, g.terminals, c, seed=seed,
                                output_pos=out_pos)
        assignment = proto.meta["assignment"]
        holder = {j: t for t, bits in default_input_layout(
            g.terminals, c.n).items() for j in bits}
        peaks = []
        for li, level in enumerate(c.levels):
            if li == 0:
                pairs = [(holder[p], assignment[0][p])
                         for p in range(len(level))]
            else:
                pairs = [(assignment[li - 1][a], assignment[li][p])
                         for p, gate in enumerate(level) for a in gate.args]
            pairs = [(s, t) for s, t in pairs if s != t]
            assert (proto.meta["windows"][li] == 0) == (not pairs)
            if pairs:
                peaks.append(max(*Counter(s for s, _ in pairs).values(),
                                 *Counter(t for _, t in pairs).values()))
        assert peaks and len(asked) == 1 and set(asked[0]) == set(peaks)


def test_compile_ed_circuit_small():
    g = clique(3)
    c, pos = build_ed_circuit(3, 1)
    proto = compile_circuit(g, g.terminals, c, seed=5, output_pos=pos)
    for bits in itertools.product((0, 1), repeat=3):
        inputs = {t: (bits[i],) for i, t in enumerate(g.terminals)}
        tr = run_protocol(g, proto, inputs, seed=0)
        want = ed_ref([(b,) for b in bits])
        assert set(tr.outputs.values()) == {want}


# ---------------------------------------------------------------------------
# the silence contract: an omitted send reads as 0

def _dense_inboxes(g, proto):
    """`proto` with every inbox filled densely: each incident edge that
    carried no bit shows a 0."""

    def step(v, rnd, state, inbox, pub):
        dense = {eid: inbox.get(eid, 0) for eid, _ in g.incidence[v]}
        return proto.step(v, rnd, state, dense, pub)

    return ProtocolSpec(proto.max_rounds, proto.init, step, proto.meta)


def _disj_case(g):
    rng = random.Random(3)
    inputs = {t: tuple(rng.randint(0, 1) for _ in range(16))
              for t in g.terminals}
    packing = disjointness_bound(g, g.terminals, 16).packing
    func = disjointness_function(len(g.terminals), 16)
    return g, steiner_aggregate_protocol(g, g.terminals, packing, func), inputs


def _ed_case(g):
    # distinct inputs, so the answer is 1 and a silent edge read as the
    # answer shows
    c, pos = build_ed_circuit(len(g.terminals), 2)
    inputs = {t: ((i >> 1) & 1, i & 1) for i, t in enumerate(g.terminals)}
    return g, compile_circuit(g, g.terminals, c, seed=0, output_pos=pos), inputs


def _bfs_case(variant):
    g = ring_of_cliques(4, 4)
    terms = g.terminals
    inst = and_disj_instance(random_pair_strings(terms, 2, seed=0), terms, 2)
    inst = edge_to_node_rebalance(terms, inst, seed=0)
    return g, bfs_protocol(g, terms, inst, variant), inst.blocks()


SILENCE_CASES = {
    "disj-grid6": lambda: _disj_case(grid_graph(6, 6)),
    "disj-ring44": lambda: _disj_case(ring_of_cliques(4, 4)),
    "disj-intro": lambda: _disj_case(intro_split_graph()),
    "ed-k3": lambda: _ed_case(clique(3)),
    "ed-path2": lambda: _ed_case(path_graph(2)),
    **{f"bfs-{variant}": lambda variant=variant: _bfs_case(variant)
       for variant in ("connectivity", "components", "acyclicity",
                       "bipartiteness")},
}


@pytest.mark.parametrize("case", sorted(SILENCE_CASES))
def test_protocols_read_silence_as_zero(case):
    g, proto, inputs = SILENCE_CASES[case]()
    tr = run_protocol(g, proto, inputs, seed=0)
    dense = run_protocol(g, _dense_inboxes(g, proto), inputs, seed=0)
    assert dense.bits == tr.bits
    assert dense.outputs == tr.outputs
    assert dense.rounds == tr.rounds


# ---------------------------------------------------------------------------
# hashing reduction

def test_hash_reduce_equal_inputs_collide():
    red = ed_hash_reduce([(1, 0, 1), (1, 0, 1), (0, 1, 1)], seed=3,
                         n_bits=3)
    assert red.hashes[0] == red.hashes[1]
    strings = red.bitstrings()
    assert strings[0] == strings[1]


def test_hash_reduce_distinct_inputs_rarely_collide():
    rng = random.Random(8)
    bad = 0
    runs = 400
    for s in range(runs):
        vals = rng.sample(range(1 << 12), 4)
        red = ed_hash_reduce(vals, seed=s, n_bits=12)
        if len(set(red.hashes)) < 4:
            bad += 1
    assert bad / runs <= 1 / 3


def test_hash_reduce_k2_exhaustive_one_bit():
    mismatch = 0
    total = 0
    for seed in range(200):
        for x, y in itertools.product((0, 1), repeat=2):
            red = ed_hash_reduce([x, y], seed=seed, n_bits=1)
            same_hash = red.hashes[0] == red.hashes[1]
            if (x == y) != same_hash:
                mismatch += 1
            total += 1
    assert mismatch / total <= 1 / 3


def test_hash_reduce_shapes():
    red = ed_hash_reduce([3, 5, 9], seed=0, n_bits=4)
    assert red.bits_per_hash == 2 * 2 + 2
    assert len(red.hashes) == 3
    assert all(0 <= h < 2 ** red.bits_per_hash for h in red.hashes)
