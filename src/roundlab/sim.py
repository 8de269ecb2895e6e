"""Deterministic synchronous network simulator.

One bit per directed edge instance per round, both directions usable
simultaneously, public randomness shared by every node.  Runs produce a
per-round bit log (Transcript) that can be replayed bit-for-bit, plus the
terminals' outputs.

Also here: the reduction of a two-terminal graph protocol to a two-party
message exchange guided by a min-cut level vector.  Each party simulates
exactly the vertices whose receive history it is entitled to know; if a
simulation ever needs a bit outside that entitlement the extraction fails
loudly (that would disprove the knowledge invariant, so it doubles as a
correctness bug detector).
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

    def randint(self, label, lo, hi):
        raw = int.from_bytes(
            hashlib.sha256(f"{self.seed}|{label}|int".encode()).digest()[:8],
            "big")
        return lo + raw % (hi - lo + 1)


@dataclass(frozen=True)
class ProtocolSpec:
    """Node behavior for the synchronous simulator.

    init(vertex, graph, input_block) -> initial state; input_block is None
    for non-terminals.  step(vertex, round, state, inbox, pub) ->
    (sends, state, output): inbox and sends map incident edge ids to bits;
    omitted edges carry no bit.  output None means "not done yet";
    max_rounds is the declared horizon.

    step runs for every vertex in every round, so an idle vertex should
    return at once; an empty or None send set costs the simulator nothing
    (no checks, no delivery).
    """

    name: str
    max_rounds: int
    init: object
    step: object
    meta: dict = field(default_factory=dict)


@dataclass
class Transcript:
    rounds: int
    bits: tuple     # bits[t-1]: dict (tail, head, edge_id) -> bit, round t
    outputs: dict
    halted: bool

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


def run_protocol(g, protocol, inputs, seed=0, max_rounds=None):
    """Synchronous execution; halts once every terminal has output.

    inputs must cover exactly the terminals.  Raises ContractViolation on
    model violations and MaxRoundsExceeded (carrying the partial
    transcript) on non-termination.
    """
    if set(inputs) != set(g.terminals):
        raise GraphError("inputs must cover exactly the terminals")
    limit = max_rounds if max_rounds is not None else protocol.max_rounds
    pub = PublicRandomness(seed)
    other = [dict(g.incidence[v]) for v in range(g.n)]
    states = [protocol.init(v, g, inputs.get(v)) for v in range(g.n)]
    inbox = [dict() for _ in range(g.n)]
    outputs = {}
    log = []
    halted = False
    terminals = set(g.terminals)
    for rnd in range(1, limit + 1):
        nxt = [dict() for _ in range(g.n)]
        round_bits = {}
        for v in range(g.n):
            sends, state, out = protocol.step(v, rnd, states[v], inbox[v], pub)
            states[v] = state
            if sends:
                ends = other[v]
                for eid, bit in _check_sends(v, sends, ends):
                    w = ends[eid]
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
        inbox = nxt
        log.append(round_bits)
        if len(outputs) == len(terminals):
            halted = True
            break
    transcript = Transcript(len(log), tuple(log), outputs, halted)
    if not halted:
        raise MaxRoundsExceeded(transcript)
    return transcript


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


class _PartyView:
    """Partial simulation owned by one simulated party.

    knows(v, r) says whether this party may reconstruct v's receive
    history through round r; the hidden vertex's input is never readable.
    """

    def __init__(self, g, protocol, inputs, hidden, pub, knows):
        self.g = g
        self.protocol = protocol
        self.hidden = hidden
        self.pub = pub
        self.knows = knows
        self.ends = [dict(g.incidence[v]) for v in range(g.n)]
        self.states = {}
        self.stepped = {}
        self.sends = {}      # (v, round) -> dense {edge_id: bit}
        self.outputs = {}
        self.received = {}   # (u, v, edge_id, round) -> bit
        for v in range(g.n):
            if v == hidden:
                continue
            self.states[v] = protocol.init(v, g, inputs.get(v))
            self.stepped[v] = 0

    def sends_of(self, v, rnd):
        if v == self.hidden:
            raise ExtractionError((v, v, -1, rnd))
        key = (v, rnd)
        if key not in self.sends:
            self._advance(v, rnd)
        return self.sends[key]

    def _advance(self, v, rnd):
        for r in range(self.stepped[v] + 1, rnd + 1):
            inbox = self._inbox_for(v, r - 1)
            sends, state, out = self.protocol.step(
                v, r, self.states[v], inbox, self.pub)
            dense = dict.fromkeys(self.ends[v], 0)
            if sends:
                dense.update(_check_sends(v, sends, self.ends[v]))
            self.sends[(v, r)] = dense
            self.states[v] = state
            if out is not None and v not in self.outputs:
                self.outputs[v] = out
            self.stepped[v] = r

    def _inbox_for(self, v, rnd):
        """Bits v received during round rnd (dense; omitted sends are 0)."""
        if rnd == 0:
            return {}
        inbox = {}
        for eid, w in self.g.incidence[v]:
            if w != self.hidden and self.knows(w, rnd - 1):
                inbox[eid] = self.sends_of(w, rnd)[eid]
            else:
                key = (w, v, eid, rnd)
                if key not in self.received:
                    raise ExtractionError(key)
                inbox[eid] = self.received[key]
        return inbox


def extract_two_party(g, protocol, lv, inputs, seed=0):
    """Simulate a two-terminal protocol as a two-party exchange.

    lv must come from extract_level_vector at horizon 2 * max_rounds.  Per
    round t and directed edge (u,v): the bit crosses a'->b' iff
    lvl_u < t < lvl_v, crosses b'->a' iff lvl_v < 2*tau+1-t < lvl_u, and
    stays local otherwise.  Both simulated parties finish knowing their
    endpoint's output; total bits are bounded by twice the level-vector
    cost.
    """
    tau = protocol.max_rounds
    if lv.horizon != 2 * tau:
        raise GraphError(
            f"level vector horizon {lv.horizon} != 2 * protocol rounds {2 * tau}")
    a, b = lv.a, lv.b
    if set(inputs) != set(g.terminals):
        raise GraphError("inputs must cover exactly the terminals")
    levels = lv.levels
    pub = PublicRandomness(seed)
    party_a = _PartyView(g, protocol, inputs, hidden=b, pub=pub,
                         knows=lambda v, r: levels[v] <= 2 * tau - r)
    party_b = _PartyView(g, protocol, inputs, hidden=a, pub=pub,
                         knows=lambda v, r: levels[v] >= r + 1)
    messages = []
    for t in range(1, tau + 1):
        a_rules = []
        b_rules = []
        for eid, (x, y) in enumerate(g.edges):
            for u, v in ((x, y), (y, x)):
                if levels[u] < t < levels[v]:
                    a_rules.append((u, v, eid))
                elif levels[v] < 2 * tau + 1 - t < levels[u]:
                    b_rules.append((u, v, eid))
        for u, v, eid in sorted(a_rules):
            bit = party_a.sends_of(u, t)[eid]
            messages.append(("a->b", bit, (u, v, eid, t)))
            party_b.received[(u, v, eid, t)] = bit
        for u, v, eid in sorted(b_rules):
            bit = party_b.sends_of(u, t)[eid]
            messages.append(("b->a", bit, (u, v, eid, t)))
            party_a.received[(u, v, eid, t)] = bit
    party_a.sends_of(a, tau)
    party_b.sends_of(b, tau)
    if a not in party_a.outputs or b not in party_b.outputs:
        raise ExtractionError((a, b, -1, tau))
    return TwoPartyTranscript(tuple(messages),
                              party_a.outputs[a], party_b.outputs[b])
