import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from roundlab.circuits import (
    GATE_OPS, BooleanCircuit, CircuitBuilder, Gate, batcher_comparators,
    build_ed_circuit, circuit_from_json, circuit_to_json,
    sorting_network_sorts,
)
from roundlab.graphs import GraphError

from oracles import ed_oracle


def test_builder_basic_gates():
    b = CircuitBuilder(2, 1)
    out = b.and_(b.inputs[0], b.inputs[1])
    c, pos = b.finalize([out])
    for bits in itertools.product((0, 1), repeat=2):
        assert c.evaluate(bits)[pos[0]] == (bits[0] & bits[1])


def test_builder_xor():
    b = CircuitBuilder(2, 1)
    out = b.xor(b.inputs[0], b.inputs[1])
    c, pos = b.finalize([out])
    for bits in itertools.product((0, 1), repeat=2):
        assert c.evaluate(bits)[pos[0]] == (bits[0] ^ bits[1])


def test_builder_legalizes_high_fanout():
    b = CircuitBuilder(1, 1)
    x = b.inputs[0]
    outs = [b.not_(x) for _ in range(5)]  # x consumed 5 times
    c, pos = b.finalize(outs)
    # validation inside BooleanCircuit would have rejected fan-out > 2
    for bits in ((0,), (1,)):
        vals = c.evaluate(bits)
        assert all(vals[p] == bits[0] ^ 1 for p in pos)


def test_levelization_pads_skipping_wires():
    b = CircuitBuilder(3, 1)
    deep = b.and_(b.and_(b.inputs[0], b.inputs[1]), b.inputs[2])
    shallow = b.inputs[0]
    c, pos = b.finalize([deep, shallow])
    assert c.depth >= 2
    for bits in itertools.product((0, 1), repeat=3):
        vals = c.evaluate(bits)
        assert vals[pos[0]] == (bits[0] & bits[1] & bits[2])
        assert vals[pos[1]] == bits[0]


@st.composite
def builder_dags(draw):
    """(builder, outputs): a random DAG of AND, OR and NOT nodes, each
    argument drawn from every node before it."""
    b = CircuitBuilder(draw(st.integers(1, 2)), draw(st.integers(1, 3)))
    for _ in range(draw(st.integers(1, 20))):
        kind = draw(st.sampled_from((b.and_, b.or_, b.not_)))
        node = st.integers(0, len(b.kinds) - 1)
        kind(*(draw(node) for _ in range(1 if kind == b.not_ else 2)))
    return b, draw(st.lists(st.integers(0, len(b.kinds) - 1), min_size=1,
                            max_size=4))


@settings(max_examples=100, deadline=None)
@given(builder_dags())
def test_finalize_evaluates_like_the_dag(case):
    # legalized and levelized, a DAG with fan-out above two and wires that
    # skip levels computes what it computes node by node
    b, outputs = case
    depth = []
    for args in b.args:
        depth.append(1 + max((depth[a] for a in args), default=-1))
    fan_out = Counter(a for args in b.args for a in args) + Counter(outputs)
    assume(max(fan_out.values()) > 2)
    assume(any(depth[a] < depth[nid] - 1
               for nid, args in enumerate(b.args) for a in args))
    c, pos = b.finalize(outputs)
    for bits in itertools.product((0, 1), repeat=b.n * b.k):
        values = list(bits)
        for kind, args in zip(b.kinds[len(bits):], b.args[len(bits):]):
            values.append(GATE_OPS[kind](*(values[a] for a in args)))
        got = c.evaluate(bits)
        assert [got[p] for p in pos] == [values[o] for o in outputs]


def test_circuit_validation_rejects_bad_wiring():
    with pytest.raises(GraphError):
        BooleanCircuit(1, 1, ((Gate("CONST", ()),),
                              (Gate("AND", (0, 5)),)))
    with pytest.raises(GraphError):
        BooleanCircuit(1, 2, ((Gate("CONST", ()),),))  # wrong level-0 size


def test_circuit_json_roundtrip():
    c, pos = build_ed_circuit(2, 2)
    again = circuit_from_json(circuit_to_json(c))
    assert again == c


def test_batcher_sorts_exhaustively():
    # 0-1 principle, all k <= 8
    for k in range(1, 9):
        assert sorting_network_sorts(k), k


def test_batcher_comparator_count():
    # O(k log^2 k) comparators
    for k in (2, 4, 8, 16):
        comps = batcher_comparators(k)
        assert len(comps) <= 2 * k * max(1, math.log2(k)) ** 2


def test_ed_circuit_k2_m1_is_xor():
    c, pos = build_ed_circuit(2, 1)
    for bits in itertools.product((0, 1), repeat=2):
        want = bits[0] ^ bits[1]
        assert c.evaluate(bits)[pos] == want


def test_ed_circuit_k3_m2_matches_oracle():
    c, pos = build_ed_circuit(3, 2)
    for bits in itertools.product((0, 1), repeat=6):
        inputs = [bits[0:2], bits[2:4], bits[4:6]]
        assert c.evaluate(bits)[pos] == ed_oracle(inputs), bits


def test_ed_circuit_k4_m3_spot_and_sizes():
    c, pos = build_ed_circuit(4, 3)
    rng = random.Random(1)
    for _ in range(300):
        bits = tuple(rng.randint(0, 1) for _ in range(12))
        inputs = [bits[i * 3:(i + 1) * 3] for i in range(4)]
        assert c.evaluate(bits)[pos] == ed_oracle(inputs)
    # wire count stays within a sane multiple of k * m * log^2 k
    k, m = 4, 3
    constant = c.wire_count / (k * m * math.log2(k) ** 2)
    assert constant < 60, constant


def test_ed_circuit_levels_are_wired_adjacently():
    c, _ = build_ed_circuit(3, 2)
    # constructor validates; double check size bookkeeping
    assert c.level_sizes[0] == 6
    assert c.wire_count == sum(len(g.args) for lv in c.levels for g in lv)
    assert c.depth == len(c.levels) - 1
