"""Concrete protocols: Steiner-tree aggregation and compiled circuits.

Aggregation handles any outer function composed with per-coordinate
symmetric inner functions: coordinate blocks are pipelined up each packed
tree (one-round latency per hop), the common root finishes the
computation, and the answer floods back down.  Each vertex folds its
children's streams into one running value per coordinate per tree.
Where every inner table is "all k ones" (DISJ), that value is the AND of
the subtree's input bits and travels as one bit; otherwise it is the
subtree's one-count and travels as ceil(log2 k) bits, low bit first.

The compiler maps circuit gates to random terminals (load balanced by
rejection resampling) and ships each level's gate values with the
integral timed-graph router, one window of rounds per level.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain

from .circuits import GATE_OPS
from .graphs import GraphError, bfs_tree
from .mcf import route_unit_demands, tau_mcf
from .sim import ContractViolation, ProtocolSpec, fixed_windows

# random gate assignments drawn before compilation gives up
ASSIGN_RESAMPLES = 64


class CompileError(RuntimeError):
    """Gate placement or level routing could not be completed."""


# ---------------------------------------------------------------------------
# composed functions and reference oracles

@dataclass(frozen=True)
class ComposedFunction:
    """outer(inner_1(count_1), ..., inner_n(count_n)) where count_i is the
    number of ones among the terminals' i-th bits and each inner function
    is a (k+1)-entry count table."""

    n: int
    k: int
    outer: object
    tables: tuple

    def __post_init__(self):
        if len(self.tables) != self.n:
            raise GraphError("need one count table per coordinate")
        for t in self.tables:
            if len(t) != self.k + 1:
                raise GraphError("count tables need k+1 entries")

    def evaluate(self, inputs_by_terminal):
        xs = [inputs_by_terminal[t] for t in sorted(inputs_by_terminal)]
        if len(xs) != self.k or any(len(x) != self.n for x in xs):
            raise GraphError("input shape mismatch")
        inner = tuple(self.tables[i][sum(x[i] for x in xs)]
                      for i in range(self.n))
        return int(self.outer(inner))


def disjointness_function(k, n):
    """Output 1 iff some coordinate is held by every terminal."""
    table = tuple([0] * k + [1])
    return ComposedFunction(n, k, lambda bits: int(any(bits)), (table,) * n)


def disj_oracle(xs):
    n = len(xs[0])
    return int(any(all(x[i] for x in xs) for i in range(n)))


def ed_oracle(xs):
    return int(len({tuple(x) for x in xs}) == len(xs))


# ---------------------------------------------------------------------------
# Steiner aggregation

def steiner_aggregate_protocol(g, terminals, packing, func):
    """Protocol computing a ComposedFunction over an integral tree packing.

    Coordinates split evenly over the trees (m = ceil(n/T) per tree), and
    each tree pipelines one value per coordinate up to the shared root,
    which applies the outer function and broadcasts the answer down the
    first tree.  Every vertex keeps one running value per coordinate per
    tree, seeded with its own bit, folds each child's bit in as it
    arrives (an omitted bit reads 0) and sends stream position q straight
    from that value.  The encoding is read off `func.tables`:

    - every table is the all-ones table [0]*k + [1] (DISJ): one bit per
      coordinate, the AND of the subtree's input bits (seed 1 at a
      non-terminal), and the root's value is the inner value;
    - otherwise: the subtree's one-count in bits_per = ceil(log2 k) bits,
      low bit first (seed 0 at a non-terminal; bit q adds 2^(q mod
      bits_per)), and the root reads the inner value from the table at
      the full count.

    A vertex sends position q at round height + 1 + q, after every child
    bit at a position <= q has arrived; bits at higher positions only add
    multiples of higher powers of two, so the bit sent is the full
    partial count's.  A partial count below the root is at most k - 1 <
    2^bits_per; a larger one is a ContractViolation.

    Data rounds stay within meta["round_bound"] = m * bits_per +
    diameter, bits_per being 1 for DISJ (both are 1 at k = 2); broadcast
    rounds are reported separately in meta.
    """
    terms = tuple(sorted(terminals))
    k = len(terms)
    if func.k != k:
        raise GraphError("function arity does not match terminal count")
    trees = [tree for tree, w in packing.trees]
    if not trees:
        raise GraphError("empty packing")
    if any(w != 1 for _, w in packing.trees):
        raise GraphError("aggregation needs an integral packing")
    root = terms[0]
    n = func.n
    m = math.ceil(n / len(trees)) if n else 0
    all_ones = (0,) * k + (1,)
    conjunctive = all(tuple(t) == all_ones for t in func.tables)
    bits_per = 1 if conjunctive else max(1, math.ceil(math.log2(k)))

    shapes = [bfs_tree(g, root, tree.edge_ids) for tree in trees]
    # per vertex, one plan per tree carrying coordinates: the plan's
    # coordinates, and its children's streams and its own stream (none at
    # the root) as flat lists of (plan index, edge, first round, last round)
    plans = [[] for _ in range(g.n)]
    recvs = [[] for _ in range(g.n)]
    ups = [[] for _ in range(g.n)]
    data_rounds = 0
    for j, (parent, depth, children) in enumerate(shapes):
        coords = range(j * m, min((j + 1) * m, n))
        width = len(coords) * bits_per
        if width == 0:
            continue
        height = {}
        for v in sorted(depth, key=lambda x: -depth[x]):
            height[v] = 1 + max((height[w] for _, w in children[v]),
                                default=-1)
        for v, kids in children.items():
            i = len(plans[v])
            plans[v].append(coords)
            recvs[v] += [(i, eid, height[w] + 2, height[w] + 1 + width)
                         for eid, w in kids]
            if v != root:
                ups[v].append((i, parent[v][0], height[v] + 1,
                               height[v] + width))
        data_rounds = max([data_rounds] + [height[w] + width
                                           for _, w in children[root]])
    parent0, depth0, children0 = shapes[0]
    bcast_rounds = max((depth0[t] for t in terms), default=0)
    relay = {v: data_rounds + d + 1 for v, d in depth0.items()}
    # the rounds each vertex has work in: those streams and its broadcast
    # relay
    spans = [[(first, last) for _, _, first, last in recvs[v] + ups[v]]
             for v in range(g.n)]
    for v, rnd in relay.items():
        spans[v].append((rnd, rnd))
    term_set = set(terms)

    def init(v, _g, block):
        # one running value per coordinate of each plan, seeded with the
        # vertex's own bit (the AND's or the count's identity off a terminal)
        return [[int(conjunctive)] * len(coords) if block is None
                else list(block[coords.start:coords.stop])
                for coords in plans[v]]

    def step(v, rnd, state, inbox, pub):
        sends = {}
        out = None
        # a plan's own stream reads only its own running values, so every
        # fold can come before every send
        for j, eid, first, last in recvs[v]:
            if first <= rnd <= last:
                q = rnd - first
                if conjunctive:
                    state[j][q] &= inbox.get(eid, 0)
                else:
                    state[j][q // bits_per] += (inbox.get(eid, 0)
                                                << q % bits_per)
        for j, up, start, last in ups[v]:
            if start <= rnd <= last:
                q = rnd - start
                if conjunctive:
                    sends[up] = state[j][q]
                else:
                    value = state[j][q // bits_per]
                    if value >> bits_per:
                        raise ContractViolation(
                            f"partial count {value} at vertex {v} "
                            f"overflows {bits_per} bits")
                    sends[up] = value >> q % bits_per & 1
        # the answer floods down the first tree, the root computing it
        if rnd == relay.get(v):
            if v == root:
                inner = [value if conjunctive else func.tables[c][value]
                         for coords, acc in zip(plans[v], state)
                         for c, value in zip(coords, acc)]
                answer = int(func.outer(tuple(inner)))
            elif parent0[v][0] in inbox:
                answer = inbox[parent0[v][0]]
            else:
                raise ContractViolation(
                    f"broadcast bit missing at vertex {v} round {rnd}")
            for eid, _ in children0[v]:
                sends[eid] = answer
            if v in term_set:
                out = answer
        return sends, state, out

    return ProtocolSpec(
        max_rounds=data_rounds + bcast_rounds + 2,
        init=init,
        step=step,
        meta={"data_rounds": data_rounds, "broadcast_rounds": bcast_rounds,
              "block_size": m,
              "round_bound": m * bits_per + max(t.diameter for t in trees)},
        wake=fixed_windows(spans),
    )


# ---------------------------------------------------------------------------
# circuit compilation

def default_input_layout(terminals, n):
    terms = sorted(terminals)
    return {t: tuple(range(i * n, (i + 1) * n)) for i, t in enumerate(terms)}


def _assign_gates(circuit, terms, seed):
    """Random gate->terminal map, resampled (at most ASSIGN_RESAMPLES
    draws) until every level's gates-plus-inputs load stays within the
    explicit threshold."""
    k = len(terms)
    d = max(1, circuit.depth)
    s = max(1, circuit.wire_count)
    sizes = circuit.level_sizes
    log_term = math.ceil(math.log(2 * k * d * s))
    thresholds = [3 * max(math.ceil(sz / k) * log_term, 1) for sz in sizes]
    rng = random.Random(f"assign:{seed}")
    worst = None
    for _ in range(ASSIGN_RESAMPLES):
        assignment = [tuple(terms[rng.randrange(k)] for _ in range(sz))
                      for sz in sizes]
        ok = True
        observed = 0
        for li, level in enumerate(circuit.levels):
            loads = {t: 0 for t in terms}
            for pos, gate in enumerate(level):
                loads[assignment[li][pos]] += 1
                for a in gate.args:
                    loads[assignment[li - 1][a]] += 1
            peak = max(loads.values())
            observed = max(observed, peak)
            if peak > thresholds[li]:
                ok = False
                break
        worst = observed if worst is None else min(worst, observed)
        if ok:
            return assignment, thresholds
    raise CompileError(
        f"no balanced gate assignment in {ASSIGN_RESAMPLES} resamples "
        f"(best observed peak load {worst})")


def compile_circuit(g, terminals, circuit, seed, output_pos=0):
    """Compile a leveled circuit into a synchronous protocol.

    Gates are mapped to terminals at random (load-balanced by rejection);
    per level, the gate values cross the network as an integral routing of
    unit demands inside a dedicated window of rounds, starting from the
    bounded-demand horizon 2*tau_mcf at the level's peak unit load and
    escalating one round at a time if the integral router needs slack.
    The peaks of all routed levels go to `tau_mcf` in one request.
    Terminal i (in sorted order) holds input bits i*n .. (i+1)*n - 1
    (`default_input_layout`).  Gate `output_pos` of the output level is
    the answer, and GraphError is raised unless that gate exists.  Its
    owner broadcasts the answer over a BFS tree; every other vertex takes
    it from its tree parent's edge.

    meta keys: windows (rounds per level, 0 for a level with no units),
    thresholds (per-level load thresholds of the gate assignment),
    data_rounds, broadcast_rounds and assignment (per level, the terminal
    owning each gate).
    """
    terms = tuple(sorted(terminals))
    n = circuit.n
    if circuit.k != len(terms):
        raise GraphError("circuit terminal arity mismatch")
    width = len(circuit.levels[-1])
    if not 0 <= output_pos < width:
        raise GraphError(f"output_pos {output_pos} is not in [0, {width}), "
                         f"the output level's width")
    input_layout = default_input_layout(terms, n)
    holder = {j: t for t, bits in input_layout.items() for j in bits}
    assignment, thresholds = _assign_gates(circuit, terms, seed)

    # per-level unit demands, each keyed by the value it carries:
    # (level, pos), level 0 being the input bits
    level_units = [[(holder[pos], assignment[0][pos], (0, pos))
                    for pos in range(len(circuit.levels[0]))]]
    level_units += [[(assignment[li - 1][a], assignment[li][pos], (li - 1, a))
                     for pos, gate in enumerate(level) for a in gate.args]
                    for li, level in enumerate(circuit.levels[1:], 1)]
    level_units = [[u for u in units if u[0] != u[1]] for units in level_units]

    # each level's peak unit load: the most units one terminal sends or
    # receives (0 for a level with no units)
    peaks = [max([*Counter(s for s, _, _ in units).values(),
                  *Counter(t for _, t, _ in units).values()], default=0)
             for units in level_units]
    taus = tau_mcf(g, terms, [peak for peak in peaks if peak])

    # route each level inside its own window
    windows = []
    send_plan = {}   # (round, vertex) -> list of (edge_id, key)
    recv_plan = {}   # (round, vertex, edge_id) -> key
    offset = 0
    for li, units in enumerate(level_units):
        if not units:
            windows.append(0)
            continue
        pairs = [(s, t) for s, t, _ in units]
        horizon = 2 * taus[peaks[li]]
        cap = horizon + 4 * g.n + 8
        routed = None
        while routed is None:
            routed = route_unit_demands(g, pairs, horizon)
            if routed is None:
                horizon += 1
                if horizon > cap:
                    raise CompileError(
                        f"level {li} routing found no horizon <= {cap}")
        windows.append(horizon)
        for (_, _, key), path in zip(units, routed):
            for layer, eid, uu, vv in path.steps():
                if eid is not None:
                    rnd = offset + layer + 1
                    send_plan.setdefault((rnd, uu), []).append((eid, key))
                    recv_plan[(rnd + 1, vv, eid)] = key
        offset += horizon
    # level li is evaluated once its window has closed; built in level
    # order, since levels with empty windows share an evaluation round
    eval_round = [t + 1 for t in accumulate(windows)]
    answer_round = eval_round[-1]
    evaluations = {}   # (round, vertex) -> list of (level, pos)
    for li, level in enumerate(circuit.levels[1:], 1):
        for pos in range(len(level)):
            evaluations.setdefault((eval_round[li], assignment[li][pos]),
                                   []).append((li, pos))

    owner = assignment[-1][output_pos]
    parent_b, depth_b, children_b = bfs_tree(g, owner)
    for t in terms:
        if t not in depth_b:
            raise GraphError("terminals are disconnected")
    bcast_depth = max(depth_b[t] for t in terms)
    max_rounds = answer_round + bcast_depth + 2
    term_set = set(terms)
    # the rounds each vertex receives, sends, evaluates or relays the
    # answer in; a receipt would get its step from the mail anyway, but
    # inside a window it costs no re-arming
    spans = [[] for _ in range(g.n)]
    for rnd, v, *_ in chain(send_plan, recv_plan, evaluations):
        spans[v].append((rnd, rnd))
    for v, d in depth_b.items():
        spans[v].append((answer_round + d, answer_round + d))

    def init(v, _g, block):
        if v in input_layout and block is not None:
            return {"vals": {(0, j): block[idx]
                             for idx, j in enumerate(input_layout[v])}}
        return {"vals": {}}

    def step(v, rnd, state, inbox, pub):
        sends = {}
        out = None
        vals = state["vals"]
        for eid, bit in inbox.items():
            key = recv_plan.get((rnd, v, eid))
            if key is not None:
                vals[key] = bit
        for li, pos in evaluations.get((rnd, v), ()):
            gate = circuit.levels[li][pos]
            vals[(li, pos)] = GATE_OPS[gate.kind](
                *(vals[(li - 1, a)] for a in gate.args))
        for eid, key in send_plan.get((rnd, v), ()):
            if key not in vals:
                raise ContractViolation(
                    f"vertex {v} must forward {key} before holding it")
            sends[eid] = vals[key]
        # the owner computes the answer; every other vertex takes it from
        # its tree parent (an omitted bit reads as 0) and passes it on
        if v in depth_b and rnd == answer_round + depth_b[v]:
            if v == owner:
                ans = vals[(circuit.depth, output_pos)]
            else:
                ans = inbox.get(parent_b[v][0], 0)
            if v in term_set:
                out = ans
            for eid, _ in children_b[v]:
                sends[eid] = ans
        return sends, state, out

    data_rounds = sum(windows)
    return ProtocolSpec(
        max_rounds=max_rounds,
        init=init,
        step=step,
        meta={"windows": tuple(windows), "thresholds": tuple(thresholds),
              "data_rounds": data_rounds,
              "broadcast_rounds": bcast_depth,
              "assignment": tuple(tuple(row) for row in assignment)},
        wake=fixed_windows(spans),
    )


# ---------------------------------------------------------------------------
# hashing reduction for duplicate detection

@dataclass(frozen=True)
class HashReduction:
    hashes: tuple   # one hash per input
    bits_per_hash: int

    def bitstrings(self):
        return tuple(tuple((h >> i) & 1 for i in range(self.bits_per_hash))
                     for h in self.hashes)


def _to_int(x):
    if isinstance(x, int):
        return x
    return sum(bit << i for i, bit in enumerate(x))


def ed_hash_reduce(inputs, seed, n_bits):
    """Compress k inputs of n_bits bits to one short pairwise-independent
    hash each.

    Multiply-shift over 2w-bit words, w = max(n_bits, bits): hash(x) =
    ((a x + b) mod 2^{2w}) >> (2w - bits), bits = 2 ceil(log2 k) + 2.
    Equal inputs always collide; an unequal pair collides with
    probability at most 1/(4 k^2), so by the union bound over the k(k-1)/2
    pairs all distinct inputs keep distinct hashes with probability over
    7/8.  Raises GraphError for n_bits < 1 or fewer than two inputs.
    """
    if n_bits < 1:
        raise GraphError("n_bits must be >= 1")
    k = len(inputs)
    if k < 2:
        raise GraphError("need at least two inputs")
    bits = 2 * max(1, math.ceil(math.log2(k))) + 2
    width = 2 * max(n_bits, bits)
    mask = (1 << width) - 1
    rng = random.Random(f"edhash:{seed}")
    a = rng.randrange(1, 1 << width) | 1
    b = rng.randrange(0, 1 << width)
    return HashReduction(tuple(((a * _to_int(x) + b) & mask) >> (width - bits)
                               for x in inputs), bits)
