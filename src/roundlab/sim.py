"""Deterministic synchronous network simulator.

One bit per directed edge instance per round, both directions usable
simultaneously, public randomness shared by every node.  Runs produce a
per-round bit log (Transcript) that can be replayed bit-for-bit, plus the
terminals' outputs.

Also here: the reduction of a two-terminal graph protocol to a two-party
message exchange guided by a min-cut level vector.  Both simulated
parties run round-synchronously on the same round step as the simulator,
each stepping exactly the vertices whose receive history it is entitled
to know; if a stepped vertex ever needs a bit outside that entitlement
the extraction fails loudly (that would disprove the knowledge invariant,
so it doubles as a correctness bug detector).
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

from .graphs import GraphError


class ContractViolation(RuntimeError):
    """A node behavior broke the one-bit-per-edge-per-round model."""


class MaxRoundsExceeded(RuntimeError):
    def __init__(self, transcript):
        super().__init__(
            f"protocol did not terminate within {transcript.rounds} rounds")
        self.transcript = transcript


class ExtractionError(RuntimeError):
    """A two-party simulation needed a bit outside its knowledge set."""

    def __init__(self, origin):
        u, v, eid, t = origin
        super().__init__(
            f"extraction needs unknown bit ({u}->{v}, edge {eid}, round {t})")
        self.origin = origin


class PublicRandomness:
    """Label-addressed shared random bits: every node reading the same
    label sees the same values, regardless of read order."""

    def __init__(self, seed):
        self.seed = seed

    def bits(self, label, count):
        out = []
        block = 0
        while len(out) < count:
            digest = hashlib.sha256(
                f"{self.seed}|{label}|{block}".encode()).digest()
            for byte in digest:
                for i in range(8):
                    out.append((byte >> i) & 1)
                    if len(out) == count:
                        return tuple(out)
            block += 1
        return tuple(out)


@dataclass(frozen=True)
class ProtocolSpec:
    """Node behavior for the synchronous simulator.

    init(vertex, graph, input_block) -> initial state; input_block is None
    for non-terminals.  step(vertex, round, state, inbox, pub) ->
    (sends, state, output): inbox and sends map incident edge ids to bits;
    omitted edges carry no bit.  output None means "not done yet";
    max_rounds is the declared horizon.

    An omitted send reads as 0: a step must act the same whether an edge
    is absent from its inbox or present with bit 0.  The simulator
    delivers only the bits that were sent, while the two-party extractor
    ships every crossing bit, an omitted one as 0; this contract makes
    the two agree.

    step runs for every vertex in every round, so an idle vertex should
    return at once; an empty or None send set costs the simulator nothing
    (no checks, no delivery).
    """

    max_rounds: int
    init: object
    step: object
    meta: dict = field(default_factory=dict)


@dataclass
class Transcript:
    rounds: int
    bits: tuple     # bits[t-1]: dict (tail, head, edge_id) -> bit, round t
    outputs: dict

    @property
    def total_bits(self):
        return sum(len(r) for r in self.bits)

    def per_edge_bits(self):
        return dict(Counter(chain.from_iterable(self.bits)))


def _check_sends(v, sends, incident):
    """sends as (edge_id, bit) pairs in edge order, after checking that
    every edge is in `incident` (a container of v's edge ids) and every
    value is a bit."""
    items = sorted(sends.items()) if len(sends) > 1 else sends.items()
    for eid, bit in items:
        if eid not in incident:
            raise ContractViolation(
                f"vertex {v} sent on non-incident edge {eid}")
        if bit not in (0, 1):
            raise ContractViolation(
                f"vertex {v} emitted non-bit {bit!r} on edge {eid}")
    return items


def _step_round(step, rnd, vertices, states, inbox, ends, pub, terminals,
                outputs):
    """Step each of `vertices` in round rnd on inbox[v], check and deliver
    its sends, and apply the output rules: only a terminal outputs, and it
    never changes its output.  Returns the round's bits, keyed (tail, head,
    edge_id), and the next round's inboxes."""
    nxt = [{} for _ in inbox]
    round_bits = {}
    for v in vertices:
        sends, states[v], out = step(v, rnd, states[v], inbox[v], pub)
        if sends:
            to = ends[v]
            for eid, bit in _check_sends(v, sends, to):
                w = to[eid]
                round_bits[(v, w, eid)] = bit
                nxt[w][eid] = bit
        if out is not None:
            if v not in terminals:
                raise ContractViolation(
                    f"non-terminal {v} produced an output")
            if v in outputs and outputs[v] != out:
                raise ContractViolation(
                    f"terminal {v} changed its output")
            outputs[v] = out
    return round_bits, nxt


def run_protocol(g, protocol, inputs, seed=0, max_rounds=None):
    """Synchronous execution; halts once every terminal has output.

    inputs must cover exactly the terminals.  Raises ContractViolation on
    model violations and MaxRoundsExceeded (carrying the partial
    transcript) on non-termination.
    """
    if set(inputs) != set(g.terminals):
        raise GraphError("inputs must cover exactly the terminals")
    if max_rounds is not None and max_rounds < 0:
        raise GraphError(f"max_rounds must be nonnegative, got {max_rounds}")
    limit = max_rounds if max_rounds is not None else protocol.max_rounds
    pub = PublicRandomness(seed)
    ends = [dict(g.incidence[v]) for v in range(g.n)]
    states = [protocol.init(v, g, inputs.get(v)) for v in range(g.n)]
    inbox = [{} for _ in range(g.n)]
    outputs = {}
    log = []
    terminals = set(g.terminals)
    for rnd in range(1, limit + 1):
        round_bits, inbox = _step_round(protocol.step, rnd, range(g.n),
                                        states, inbox, ends, pub, terminals,
                                        outputs)
        log.append(round_bits)
        if len(outputs) == len(terminals):
            break
    else:
        raise MaxRoundsExceeded(Transcript(len(log), tuple(log), outputs))
    return Transcript(len(log), tuple(log), outputs)


def replay_matches(g, protocol, inputs, seed, transcript):
    """Re-run and compare bit-for-bit (the determinism/replay invariant)."""
    again = run_protocol(g, protocol, inputs, seed=seed,
                         max_rounds=transcript.rounds)
    return again.bits == transcript.bits and again.outputs == transcript.outputs


# ---------------------------------------------------------------------------
# two-party extraction

@dataclass
class TwoPartyTranscript:
    messages: tuple   # (direction, bit, (u, v, edge_id, round))
    output_a: object
    output_b: object

    @property
    def total_bits(self):
        return len(self.messages)


def extract_two_party(g, protocol, lv, inputs, seed=0):
    """Simulate a two-terminal protocol as a two-party exchange.

    lv must come from extract_level_vector at horizon 2 * max_rounds.  Per
    round t and directed edge (u,v): the bit crosses a'->b' iff
    lvl_u < t < lvl_v, crosses b'->a' iff lvl_v < 2*tau+1-t < lvl_u, and
    stays local otherwise; an omitted send crosses as 0.  Both simulated
    parties finish knowing their endpoint's output; total bits are bounded
    by twice the level-vector cost.

    The parties run round by round on the simulator's round step.  In
    round t party a' steps every v != b with lvl_v <= 2*tau+1-t and party
    b' every v != a with lvl_v >= t; both sets only shrink.  Each stepped
    vertex's inbox holds the bits its party computed in round t-1 plus the
    bits that crossed to it; a bit from neither source raises
    ExtractionError.
    """
    tau = protocol.max_rounds
    if lv.horizon != 2 * tau:
        raise GraphError(
            f"level vector horizon {lv.horizon} != 2 * protocol rounds {2 * tau}")
    a, b = lv.a, lv.b
    if set(inputs) != set(g.terminals):
        raise GraphError("inputs must cover exactly the terminals")
    levels = lv.levels
    last = 2 * tau + 1
    owns = (lambda v, t: t <= tau and v != b and levels[v] <= last - t,
            lambda v, t: t <= tau and v != a and levels[v] >= t)
    pub = PublicRandomness(seed)
    ends = [dict(g.incidence[v]) for v in range(g.n)]
    terminals = set(g.terminals)
    # a party never initialises the other endpoint, so never reads its input
    states = [[protocol.init(v, g, inputs.get(v)) if v != hidden else None
               for v in range(g.n)] for hidden in (b, a)]
    inbox = [[{} for _ in range(g.n)] for _ in (a, b)]
    outputs = ({}, {})
    now = [{v for v in range(g.n) if owns[p](v, 1)} for p in (0, 1)]
    messages = []
    for t in range(1, tau + 1):
        sent = []
        for p in (0, 1):
            bits, inbox[p] = _step_round(protocol.step, t, sorted(now[p]),
                                         states[p], inbox[p], ends, pub,
                                         terminals, outputs[p])
            sent.append(bits)
        nxt = [{v for v in now[p] if owns[p](v, t + 1)} for p in (0, 1)]
        rules = ([], [])
        for eid, (x, y) in enumerate(g.edges):
            for u, v in ((x, y), (y, x)):
                if levels[u] < t < levels[v]:
                    rules[0].append((u, v, eid))
                elif levels[v] < last - t < levels[u]:
                    rules[1].append((u, v, eid))
                elif (v in nxt[0] and u not in now[0]
                      or v in nxt[1] and u not in now[1]):
                    raise ExtractionError((u, v, eid, t))
        for p, direction in ((0, "a->b"), (1, "b->a")):
            for u, v, eid in sorted(rules[p]):
                if u not in now[p]:
                    raise ExtractionError((u, v, eid, t))
                bit = sent[p].get((u, v, eid), 0)
                messages.append((direction, bit, (u, v, eid, t)))
                inbox[1 - p][v][eid] = bit
        now = nxt
    if a not in outputs[0] or b not in outputs[1]:
        raise ExtractionError((a, b, -1, tau))
    return TwoPartyTranscript(tuple(messages), outputs[0][a], outputs[1][b])
