"""Leveled boolean circuits with fan-in/fan-out at most two.

Level 0 holds one CONST gate per input bit; every wire connects adjacent
levels (the builder inserts DUP identity gates to replicate signals past
the fan-out limit and to pad wires across levels).  Sizes follow the wire
count convention: s = total fan-in over all gates, s_i = gates per level.

The duplicate-detection circuit sorts the k inputs with a Batcher
odd-even mergesort network (practical O(log^2 k)-depth replacement for
asymptotically optimal sorting networks), then ANDs together the
adjacent-pair inequality tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .graphs import GraphError, is_integer

# each gate kind above level 0: its fan-in, and its value given its
# argument values
FAN_IN = {"NOT": 1, "DUP": 1, "AND": 2, "OR": 2}
GATE_OPS = {"NOT": lambda a: a ^ 1, "DUP": lambda a: a,
            "AND": lambda a, b: a & b, "OR": lambda a, b: a | b}


@dataclass(frozen=True)
class Gate:
    kind: str
    args: tuple


@dataclass(frozen=True)
class BooleanCircuit:
    n: int
    k: int
    levels: tuple

    def __post_init__(self):
        for name, value in (("n", self.n), ("k", self.k)):
            if not is_integer(value):
                raise GraphError(
                    f"circuit {name} must be an integer, got {value!r}")
        if not self.levels:
            raise GraphError("circuit needs at least the input level")
        for pos, gate in enumerate(self.levels[0]):
            if gate.kind != "CONST" or gate.args:
                raise GraphError("level 0 must be argument-free CONST gates")
        if len(self.levels[0]) != self.n * self.k:
            raise GraphError(
                f"level 0 has {len(self.levels[0])} gates, expected n*k = "
                f"{self.n * self.k}")
        for li in range(1, len(self.levels)):
            prev = len(self.levels[li - 1])
            consumers = [0] * prev
            for pos, gate in enumerate(self.levels[li]):
                if gate.kind not in FAN_IN:
                    raise GraphError(f"bad gate kind {gate.kind!r} above level 0")
                if len(gate.args) != FAN_IN[gate.kind]:
                    raise GraphError(f"{gate.kind} needs {FAN_IN[gate.kind]} args")
                for a in gate.args:
                    if not is_integer(a):
                        raise GraphError(
                            f"level {li} gate {pos} has a non-integer input "
                            f"{a!r}")
                    if not 0 <= a < prev:
                        raise GraphError("wire does not connect adjacent levels")
                    consumers[a] += 1
            if any(c > 2 for c in consumers):
                raise GraphError("fan-out above two")

    @property
    def depth(self):
        return len(self.levels) - 1

    @cached_property
    def level_sizes(self):
        return tuple(len(lv) for lv in self.levels)

    @cached_property
    def wire_count(self):
        return sum(len(g.args) for lv in self.levels for g in lv)

    def evaluate(self, bits):
        if len(bits) != self.n * self.k:
            raise GraphError(f"expected {self.n * self.k} input bits")
        values = list(bits)
        for lv in self.levels[1:]:
            values = [GATE_OPS[g.kind](*(values[a] for a in g.args))
                      for g in lv]
        return tuple(values)


def circuit_to_json(c):
    return {"n": c.n, "k": c.k,
            "levels": [[{"kind": g.kind, "inputs": list(g.args)} for g in lv]
                       for lv in c.levels]}


def circuit_from_json(obj):
    try:
        levels = tuple(tuple(Gate(g["kind"], tuple(g["inputs"])) for g in lv)
                       for lv in obj["levels"])
        return BooleanCircuit(obj["n"], obj["k"], levels)
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed circuit JSON: {exc}") from exc


class CircuitBuilder:
    """DAG-first construction; finalize() legalizes fan-out with DUP trees,
    levelizes with DUP padding, and emits a BooleanCircuit."""

    def __init__(self, n, k):
        self.n = n
        self.k = k
        self.kinds = ["CONST"] * (n * k)
        self.args = [()] * (n * k)

    @property
    def inputs(self):
        return list(range(self.n * self.k))

    def _node(self, kind, *args):
        for a in args:
            if not 0 <= a < len(self.kinds):
                raise GraphError("argument node does not exist")
        self.kinds.append(kind)
        self.args.append(tuple(args))
        return len(self.kinds) - 1

    def and_(self, a, b):
        return self._node("AND", a, b)

    def or_(self, a, b):
        return self._node("OR", a, b)

    def not_(self, a):
        return self._node("NOT", a)

    def xor(self, a, b):
        return self.and_(self.or_(a, b), self.not_(self.and_(a, b)))

    def reduce(self, op, nodes):
        """Balanced binary reduction (op is self.and_ or self.or_)."""
        nodes = list(nodes)
        if not nodes:
            raise GraphError("empty reduction")
        while len(nodes) > 1:
            nxt = [op(nodes[i], nodes[i + 1])
                   for i in range(0, len(nodes) - 1, 2)]
            if len(nodes) % 2:
                nxt.append(nodes[-1])
            nodes = nxt
        return nodes[0]

    def finalize(self, outputs):
        kinds = list(self.kinds)
        args = [list(a) for a in self.args]
        outputs = list(outputs)
        n_inputs = self.n * self.k

        # consumer slots per node: (consumer_id, arg_position); output slots
        # are (None, output_position)
        slots = {i: [] for i in range(len(kinds))}
        for nid in range(n_inputs, len(kinds)):
            for pos, a in enumerate(args[nid]):
                slots[a].append((nid, pos))
        for pos, nid in enumerate(outputs):
            slots[nid].append((None, pos))

        def rewire(slot, new_id):
            consumer, pos = slot
            if consumer is None:
                outputs[pos] = new_id
            else:
                args[consumer][pos] = new_id

        # a node's level is one past its deepest argument: the serve loop
        # reaches each original node after its arguments, earlier nodes or
        # DUPs made when an earlier node was served
        level = [0] * len(kinds)

        def dup(nid):
            kinds.append("DUP")
            args.append([nid])
            level.append(level[nid] + 1)
            return len(kinds) - 1

        def serve(nid, consumer_slots):
            if len(consumer_slots) <= 2:
                for slot in consumer_slots:
                    rewire(slot, nid)
                return
            left, right = dup(nid), dup(nid)
            half = (len(consumer_slots) + 1) // 2
            serve(left, consumer_slots[:half])
            serve(right, consumer_slots[half:])

        for nid in range(len(self.kinds)):
            if nid >= n_inputs:
                level[nid] = 1 + max(level[a] for a in args[nid])
            if len(slots[nid]) > 2:
                serve(nid, slots[nid])
        out_level = max((level[o] for o in outputs), default=0)
        out_level = max(out_level, 1)

        # pad wires that skip levels (fresh DUP chains keep fan-out legal)
        def lift(nid, target):
            while level[nid] < target:
                nid = dup(nid)
            return nid

        for nid in range(n_inputs, len(kinds)):
            for pos in range(len(args[nid])):
                args[nid][pos] = lift(args[nid][pos], level[nid] - 1)
        for pos in range(len(outputs)):
            outputs[pos] = lift(outputs[pos], out_level)

        # reachable = outputs plus everything feeding them; keep all inputs
        keep = set(range(n_inputs))
        stack = list(outputs)
        while stack:
            x = stack.pop()
            if x in keep:
                continue
            keep.add(x)
            stack.extend(args[x])

        by_level = {}
        for nid in sorted(keep):
            by_level.setdefault(level[nid], []).append(nid)
        position = {}
        levels = []
        for li in range(out_level + 1):
            row = by_level.get(li, [])
            for pos, nid in enumerate(row):
                position[nid] = pos
            gates = []
            for nid in row:
                gates.append(Gate(kinds[nid],
                                  tuple(position[a] for a in args[nid])))
            levels.append(tuple(gates))
        circuit = BooleanCircuit(self.n, self.k, tuple(levels))
        out_positions = tuple(position[o] for o in outputs)
        return circuit, out_positions


# ---------------------------------------------------------------------------
# sorting network

def batcher_comparators(k):
    """Comparator list (i, j) of the odd-even mergesort on k wires.

    Non-powers of two are handled by padding to the next power of two with
    phantom items (a prefix below every input, a suffix above every
    input); comparators touching phantoms never move anything and are
    dropped.
    """
    if k < 1:
        raise GraphError("need at least one wire")
    size = 1 << (k - 1).bit_length()
    fill = size - k
    items = [None] * (fill // 2) + list(range(k)) + [None] * ((fill + 1) // 2)

    def sort_net(idx):
        if len(idx) == 2:
            yield (idx[0], idx[1])
        elif len(idx) > 2:
            mid = len(idx) // 2
            yield from sort_net(idx[:mid])
            yield from sort_net(idx[mid:])
            yield from merge_net(idx)

    def merge_net(idx):
        if len(idx) == 2:
            yield (idx[0], idx[1])
        elif len(idx) > 2:
            yield from merge_net(idx[0::2])
            yield from merge_net(idx[1::2])
            for a, b in zip(idx[1::2], idx[2::2]):
                yield (a, b)

    return [(a, b) for a, b in sort_net(items)
            if a is not None and b is not None]


def sorting_network_sorts(k):
    """0-1 principle check: the network sorts every 0/1 sequence."""
    comps = batcher_comparators(k)
    for mask in range(1 << k):
        vals = [(mask >> i) & 1 for i in range(k)]
        for a, b in comps:
            if vals[a] > vals[b]:
                vals[a], vals[b] = vals[b], vals[a]
        if vals != sorted(vals):
            return False
    return True


# ---------------------------------------------------------------------------
# duplicate-detection circuit

def _less_than(b, xs, ys):
    """Strict unsigned comparison of two bit vectors (index 0 = MSB)."""
    lt = b.and_(b.not_(xs[0]), ys[0])
    eq = b.not_(b.xor(xs[0], ys[0]))
    for j in range(1, len(xs)):
        lt = b.or_(lt, b.and_(eq, b.and_(b.not_(xs[j]), ys[j])))
        if j < len(xs) - 1:
            eq = b.and_(eq, b.not_(b.xor(xs[j], ys[j])))
    return lt


def _compare_swap(b, xs, ys):
    lt = _less_than(b, xs, ys)
    mins, maxs = [], []
    for x, y in zip(xs, ys):
        mins.append(b.or_(b.and_(lt, x), b.and_(b.not_(lt), y)))
        maxs.append(b.or_(b.and_(lt, y), b.and_(b.not_(lt), x)))
    return mins, maxs


def build_ed_circuit(k, m):
    """Circuit deciding whether k m-bit inputs are pairwise distinct.

    Sorting network of m-bit compare-swap blocks, then an AND tree over
    adjacent-pair inequality tests.  Returns (circuit, output_position).
    """
    if k < 2 or m < 1:
        raise GraphError("need k >= 2 inputs of m >= 1 bits")
    b = CircuitBuilder(m, k)
    wires = [[b.inputs[u * m + j] for j in range(m)] for u in range(k)]
    for i, j in batcher_comparators(k):
        lo, hi = _compare_swap(b, wires[i], wires[j])
        wires[i], wires[j] = lo, hi
    neqs = []
    for i in range(k - 1):
        xors = [b.xor(x, y) for x, y in zip(wires[i], wires[i + 1])]
        neqs.append(b.reduce(b.or_, xors))
    out = b.reduce(b.and_, neqs) if len(neqs) > 1 else neqs[0]
    circuit, positions = b.finalize([out])
    return circuit, positions[0]
