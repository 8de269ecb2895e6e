"""Deterministic synchronous network simulator.

One bit per directed edge instance per round, both directions usable
simultaneously, public randomness shared by every node.  Runs produce a
per-round bit log (Transcript) that can be replayed bit-for-bit, plus the
terminals' outputs.

The round loop is event-driven: each round it steps only the vertices
with an open wake window (`ProtocolSpec.wake`) or a bit in their inbox,
so a run's time grows with the steps that do work, not with vertices
times rounds (beyond one fresh list of inbox slots per round).

Also here: the reduction of a two-terminal graph protocol to a two-party
message exchange guided by a min-cut level vector.  Both simulated
parties run on the simulator's round loop, each stepping only vertices
whose receive history it is entitled to know; the crossing rules are
read once per arc.  If a stepped vertex would ever need a bit outside
that entitlement the extraction fails loudly (that would disprove the
knowledge invariant, so it doubles as a correctness bug detector).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from types import MappingProxyType

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

    wake(vertex, round, state) -> (lo, hi) or None names the vertex's next
    window of rounds after `round` (its rounds up to `round` are ignored)
    in which it must be stepped even with an empty inbox; None means it is
    stepped only when bits reach it.  The simulator asks after init (round
    0), when a window closes, and after a step that only mail caused.  The
    contract: outside its windows and with an empty inbox, a step is a
    no-op (no sends, no output, no change of state), so extra steps are
    harmless.  An absent wake is one window over every round of the run.
    An empty or None send set costs the simulator nothing (no checks, no
    delivery).
    """

    max_rounds: int
    init: object
    step: object
    meta: dict = field(default_factory=dict)
    wake: object = None


def fixed_windows(spans):
    """A wake function for windows known in advance: spans[v] lists v's
    (lo, hi) rounds of work, in any order; overlapping and adjacent spans
    merge."""
    merged = []
    for vspans in spans:
        windows = []
        for lo, hi in sorted(vspans):
            if windows and lo <= windows[-1][1] + 1:
                windows[-1] = (windows[-1][0], max(windows[-1][1], hi))
            else:
                windows.append((lo, hi))
        merged.append((windows, [hi for _, hi in windows]))

    def wake(v, rnd, state):
        windows, lasts = merged[v]
        i = bisect_right(lasts, rnd)
        return windows[i] if i < len(windows) else None

    return wake


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


# the inbox of a vertex that no bit reached
_EMPTY = MappingProxyType({})


def _reject(v, to, sends):
    """Raise the ContractViolation of v's lowest-edge bad send."""
    for eid, bit in sorted(sends.items()):
        if eid not in to:
            raise ContractViolation(
                f"vertex {v} sent on non-incident edge {eid}")
        if bit not in (0, 1):
            raise ContractViolation(
                f"vertex {v} emitted non-bit {bit!r} on edge {eid}")


class _Network:
    """The one round loop: a copy of the network that steps round by
    round, either the simulator's or one party's in the extraction.

    Vertex v is stepped in round rnd iff rnd <= until[v] and rnd lies in
    v's open wake window or some bit reached v in round rnd - 1, in
    vertex order.  A window is armed by `protocol.wake` and clipped to
    the rounds after the asking round and up to until[v]; `opens` buckets
    the armed windows by their first round (a vertex re-armed before its
    window opened leaves a stale entry, skipped by the `armed` check) and
    `closes` the open ones by their last.  The sorted awake list is
    rebuilt only in rounds where a window opens or closes.  Each inbox is
    _EMPTY until a bit arrives, and `mail` lists the receivers that may
    not be awake in the next round: those that were not awake when their
    first bit arrived and those whose window closed.
    """

    def __init__(self, g, protocol, states, until, pub, outputs):
        self.step = protocol.step
        self.wake = protocol.wake or (lambda v, rnd, state: (1, until[v]))
        self.states = states
        self.until = until
        self.pub = pub
        # per vertex, edge id -> (head, the arc's transcript key): one key
        # object per directed edge, shared by every round that uses it
        self.ends = [{eid: (w, (v, w, eid)) for eid, w in g.incidence[v]}
                     for v in range(g.n)]
        self.terminals = set(g.terminals)
        self.outputs = outputs
        self.inbox = [_EMPTY] * g.n      # the next round's inboxes
        self.mail = []
        self.armed = [None] * g.n
        self.opens = {}
        self.closes = {}
        self.awake = set()
        self.order = []
        for v in range(g.n):
            if until[v] > 0:
                self._arm(v, 0)

    def _arm(self, v, rnd):
        window = self.wake(v, rnd, self.states[v])
        self.armed[v] = None
        if window is not None:
            lo, hi = max(window[0], rnd + 1), min(window[1], self.until[v])
            if lo <= hi:
                self.armed[v] = (lo, hi)
                self.opens.setdefault(lo, []).append(v)

    def post(self, w, eid, bit):
        """Deliver `bit` on edge eid to w's inbox for the next round."""
        box = self.inbox[w]
        if box is _EMPTY:
            box = self.inbox[w] = {}
            self.mail.append(w)
        box[eid] = bit

    def run_round(self, rnd):
        """Step round rnd: check and deliver every send in its step's
        order (`_reject` names a bad step's lowest-edge fault), and apply
        the output rules (only a terminal outputs, and it never changes its
        output).  Returns the round's bits, keyed (tail, head, edge_id)."""
        awake = self.awake
        if rnd in self.opens:
            armed = self.armed
            for v in self.opens.pop(rnd):
                window = armed[v]
                if window is not None and window[0] == rnd:
                    armed[v] = None
                    awake.add(v)
                    self.closes.setdefault(window[1], []).append(v)
            self.order = sorted(awake)
        inbox, mail = self.inbox, self.mail
        if mail:
            until = self.until
            mail = [w for w in mail if w not in awake and rnd <= until[w]]
        step, states, pub, ends = self.step, self.states, self.pub, self.ends
        nxt = [_EMPTY] * len(inbox)
        nxt_mail = []
        round_bits = {}
        for v in sorted(self.order + mail) if mail else self.order:
            sends, states[v], out = step(v, rnd, states[v], inbox[v], pub)
            if sends:
                to = ends[v]
                for eid, bit in sends.items():
                    arc = to.get(eid)
                    if arc is None or bit not in (0, 1):
                        _reject(v, to, sends)
                    w, key = arc
                    round_bits[key] = bit
                    box = nxt[w]
                    if box is _EMPTY:
                        box = nxt[w] = {}
                        if w not in awake:
                            nxt_mail.append(w)
                    box[eid] = bit
            if out is not None:
                if v not in self.terminals:
                    raise ContractViolation(
                        f"non-terminal {v} produced an output")
                if v in self.outputs and self.outputs[v] != out:
                    raise ContractViolation(
                        f"terminal {v} changed its output")
                self.outputs[v] = out
        self.inbox, self.mail = nxt, nxt_mail
        for v in mail:
            self._arm(v, rnd)
        if rnd in self.closes:
            for v in self.closes.pop(rnd):
                awake.discard(v)
                if nxt[v] is not _EMPTY:
                    nxt_mail.append(v)
                self._arm(v, rnd)
            self.order = sorted(awake)
        return round_bits


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
    states = [protocol.init(v, g, inputs.get(v)) for v in range(g.n)]
    outputs = {}
    net = _Network(g, protocol, states, [limit] * g.n,
                   PublicRandomness(seed), outputs)
    log = []
    for rnd in range(1, limit + 1):
        log.append(net.run_round(rnd))
        if len(outputs) == len(net.terminals):
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


def _crossings(g, levels, tau, until):
    """The crossing rules, read once per arc, and the extraction's first
    failure, as (crossings, fail).

    Arc (u, v) crosses a'->b' in the rounds lvl_u < t < lvl_v and b'->a'
    in the rounds lvl_v < 2*tau+1-t < lvl_u: one interval of rounds, for
    at most one party.  crossings maps round t to the arcs (u, v,
    edge_id) crossing a'->b' and b'->a' then, each list sorted.

    Party p owns vertex x in rounds 1..until[p][x].  Round t fails on an
    arc that does not cross then if some party owns its head in round
    t+1 but not its tail in round t (in edge order), and after those on
    a crossing arc whose party does not own its tail.  fail is the
    (round, ExtractionError origin) of the first failure, or None.
    """
    last = 2 * tau + 1
    crossings = {}
    first = None
    arcs = sorted((u, v, eid, u != x) for eid, (x, y) in enumerate(g.edges)
                  for u, v in ((x, y), (y, x)))
    for u, v, eid, d in arcs:
        lu, lv = levels[u], levels[v]
        p, lo, hi = ((0, lu + 1, lv - 1) if lu < lv else
                     (1, last - lu + 1, last - lv - 1) if lv < lu else
                     (0, 1, 0))
        lo, hi = max(lo, 1), min(hi, tau)
        fails = []
        # a crossing bit whose sender its party does not step
        t = max(lo, until[p][u] + 1)
        if t <= hi:
            fails.append((t, 1, p, (u, v, eid, t)))
        # a bit that its receiver's party needs and cannot compute
        for q in (0, 1):
            klo, khi = max(until[q][u] + 1, 1), until[q][v] - 1
            t = hi + 1 if lo <= klo <= hi else klo
            if t <= khi:
                fails.append((t, 0, eid, d, (u, v, eid, t)))
        if fails:
            fail = min(fails)
            first = fail if first is None else min(first, fail)
        for t in range(lo, hi + 1):
            crossings.setdefault(t, ([], []))[p].append((u, v, eid))
    return crossings, first and (first[0], first[-1])


def extract_two_party(g, protocol, lv, inputs, seed=0):
    """Simulate a two-terminal protocol as a two-party exchange.

    lv must come from extract_level_vector at horizon 2 * max_rounds.  Per
    round t and directed edge (u,v): the bit crosses a'->b' iff
    lvl_u < t < lvl_v, crosses b'->a' iff lvl_v < 2*tau+1-t < lvl_u, and
    stays local otherwise; an omitted send crosses as 0.  Both simulated
    parties finish knowing their endpoint's output; total bits are bounded
    by twice the level-vector cost.

    Each party is a copy of the network on the simulator's round loop.
    Party a' owns every v != b with lvl_v <= 2*tau+1-t in round t and
    party b' every v != a with lvl_v >= t, so each owns each vertex for a
    prefix of the rounds and steps it there as the simulator would.  Each
    stepped vertex's inbox holds the bits its party computed in round t-1
    plus the bits that crossed to it; when a bit from neither source is
    needed, ExtractionError names the first such bit (`_crossings`).
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
    until = ([0 if v == b else max(0, min(tau, last - levels[v]))
              for v in range(g.n)],
             [0 if v == a else max(0, min(tau, levels[v]))
              for v in range(g.n)])
    crossings, fail = _crossings(g, levels, tau, until)
    pub = PublicRandomness(seed)
    outputs = ({}, {})
    # a party never initialises the other endpoint, so never reads its input
    nets = [_Network(g, protocol,
                     [protocol.init(v, g, inputs.get(v)) if v != hidden
                      else None for v in range(g.n)],
                     until[p], pub, outputs[p])
            for p, hidden in ((0, b), (1, a))]
    messages = []
    for t in range(1, tau + 1):
        sent = [net.run_round(t) for net in nets]
        if fail and fail[0] == t:
            raise ExtractionError(fail[1])
        for p, direction in ((0, "a->b"), (1, "b->a")):
            for u, v, eid in crossings.get(t, ((), ()))[p]:
                bit = sent[p].get((u, v, eid), 0)
                messages.append((direction, bit, (u, v, eid, t)))
                nets[1 - p].post(v, eid, bit)
    if a not in outputs[0] or b not in outputs[1]:
        raise ExtractionError((a, b, -1, tau))
    return TwoPartyTranscript(tuple(messages), outputs[0][a], outputs[1][b])
