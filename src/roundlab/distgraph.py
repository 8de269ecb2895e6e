"""Distributed graph computation over the simulator.

A problem graph H lives on the terminals either edge-distributed or
node-distributed (whole adjacency lists).  The reduction generators build
the pairwise-gadget instances whose triangle/connectivity structure
encodes OR/AND of two-party intersections; each player's subgraph is a
function of that player's strings only.  `edge_to_node_rebalance` turns
an edge distribution into a random node distribution; it draws the
placement only and computes no routing for it.

The flooding protocols simulate BFS over H on top of the communication
graph: token notifications travel as framed packets along fixed shortest
paths, cut through at each relay once their target is read.  At
geometrically spaced checkpoints a spanning tree folds the progress bit
by bit up to its root (pending traffic, token counts, duplicate and
parity flags, next start vertex) and pipes the decision back down; while
traffic is pending, the root short-circuits the checkpoint with one bit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .graphs import GraphError, bfs, bfs_tree, is_integer
from .sim import ProtocolSpec


@dataclass
class DistributedGraphInput:
    """H = union of per-terminal subgraphs, with its distribution mode."""

    num_vertices: int
    edges: tuple                  # global edge list of H
    mode: str                     # "node" | "edge"
    terminals: tuple
    assignment: object            # edge mode: tuple, owner per edge
                                  # node mode: dict vertex -> owner
    names: dict = field(default_factory=dict)

    def __post_init__(self):
        for t in self.terminals:
            if not is_integer(t):
                raise GraphError(f"instance terminal {t!r} is not an integer")
        self.terminals = tuple(sorted(self.terminals))
        if not is_integer(self.num_vertices):
            raise GraphError(f"H vertex count n must be an integer, "
                             f"got {self.num_vertices!r}")
        if self.num_vertices < 0:
            raise GraphError(
                f"H vertex count n must be >= 0, got {self.num_vertices}")
        for e in self.edges:
            if len(e) != 2:
                raise GraphError(f"H edge {list(e)} is not a vertex pair")
            u, v = e
            if not (is_integer(u) and is_integer(v)):
                raise GraphError(f"H edge {list(e)} has a non-integer vertex")
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise GraphError("H edge out of range")
            if u == v:
                raise GraphError("H must be loop-free")
        if self.mode == "edge":
            if len(self.assignment) != len(self.edges):
                raise GraphError("need one owner per edge")
        elif self.mode == "node":
            if set(self.assignment) != set(range(self.num_vertices)):
                raise GraphError("need one owner per vertex")
        else:
            raise GraphError(f"unknown mode {self.mode!r}")
        terms = set(self.terminals)
        vals = (self.assignment.values() if self.mode == "node"
                else self.assignment)
        for t in vals:
            if not is_integer(t):
                raise GraphError(f"owner {t!r} is not an integer")
        if any(t not in terms for t in vals):
            raise GraphError("owner outside the terminal set")

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def max_degree(self):
        deg = [0] * self.num_vertices
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return max(deg, default=0)

    def adjacency(self):
        adj = {v: [] for v in range(self.num_vertices)}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(sorted(ws)) for v, ws in adj.items()}

    def sizes(self):
        """Per-terminal share under the mode's size measure."""
        out = {t: 0 for t in self.terminals}
        if self.mode == "edge":
            for owner in self.assignment:
                out[owner] += 1
        else:
            adj = self.adjacency()
            for v, owner in self.assignment.items():
                out[owner] += len(adj[v])
        return out

    def blocks(self):
        """Per-terminal protocol input blocks: the owned edges in edge
        mode, the owned vertices' adjacency lists in node mode."""
        if self.mode == "edge":
            return {t: tuple(e for e, owner in zip(self.edges, self.assignment)
                             if owner == t) for t in self.terminals}
        adj = self.adjacency()
        out = {t: {} for t in self.terminals}
        for v, owner in sorted(self.assignment.items()):
            out[owner][v] = adj[v]
        return out

    def to_json(self):
        return {
            "H": {"n": self.num_vertices, "edges": [list(e) for e in self.edges]},
            "mode": self.mode,
            "assignment": (list(self.assignment) if self.mode == "edge"
                           else {str(v): o for v, o in self.assignment.items()}),
            "terminals": list(self.terminals),
            "per_terminal_sizes": {str(t): s for t, s in self.sizes().items()},
        }


def _vertex_key(key):
    """A node-mode assignment key as an H vertex; JSON writes it as a
    decimal string."""
    try:
        return key if is_integer(key) else int(str(key))
    except ValueError:
        raise GraphError(
            f"assignment key {key!r} is not an integer vertex") from None


def instance_from_json(obj):
    try:
        mode = obj["mode"]
        assignment = (tuple(obj["assignment"]) if mode == "edge"
                      else {_vertex_key(v): o
                            for v, o in obj["assignment"].items()})
        return DistributedGraphInput(
            num_vertices=obj["H"]["n"],
            edges=tuple(tuple(e) for e in obj["H"]["edges"]),
            mode=mode,
            terminals=tuple(obj["terminals"]),
            assignment=assignment,
        )
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed instance JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# reduction instance generators

def _pair_vertex_names(terminals, n, with_hub):
    """Canonical vertex numbering for the pairwise gadgets."""
    names = {}
    counter = 0
    if with_hub:
        names[("hub",)] = 0
        counter = 1
    terms = sorted(terminals)
    for i, u in enumerate(terms):
        for w in terms[i + 1:]:
            for idx in range(n):
                names[("x", u, w, idx)] = counter
                counter += 1
            if with_hub:
                names[("l", u, w)] = counter
                counter += 1
            else:
                names[("y", u, w)] = counter
                names[("y", w, u)] = counter + 1
                counter += 2
    return names, counter


def or_disj_player_edges(player, own_strings, terminals, n, names):
    """Edges player contributes to the triangle/forest instance; depends on
    the player's own strings only."""
    edges = []
    for w in sorted(terminals):
        if w == player:
            continue
        bits = own_strings[w]
        lo, hi = min(player, w), max(player, w)
        mine = names[("y", player, w)]
        for i in range(n):
            if bits[i]:
                edges.append((names[("x", lo, hi, i)], mine))
        if player < w:
            edges.append((names[("y", player, w)], names[("y", w, player)]))
    return edges


def _gadget_instance(strings, terminals, n, player_edges, with_hub):
    """The union of every player's `player_edges`, each edge owned by the
    player that contributes it."""
    terms = tuple(sorted(terminals))
    names, total = _pair_vertex_names(terms, n, with_hub)
    edges = []
    owners = []
    for u in terms:
        own = {w: strings[(u, w)] for w in terms if w != u}
        for e in player_edges(u, own, terms, n, names):
            edges.append((min(e), max(e)))
            owners.append(u)
    return DistributedGraphInput(total, tuple(edges), "edge", terms,
                                 tuple(owners), names=names)


def or_disj_instance(strings, terminals, n):
    """Pairwise-intersection gadgets: the union graph has a triangle iff
    some ordered pair's strings intersect; otherwise it is a forest.

    strings: {(u, w): n-bit tuple} over ordered terminal pairs.
    """
    return _gadget_instance(strings, terminals, n, or_disj_player_edges,
                            with_hub=False)


def and_disj_player_edges(player, own_strings, terminals, n, names):
    edges = []
    hub = names[("hub",)]
    for w in sorted(terminals):
        if w == player:
            continue
        bits = own_strings[w]
        lo, hi = min(player, w), max(player, w)
        for i in range(n):
            x = names[("x", lo, hi, i)]
            if player < w:
                if bits[i]:
                    edges.append((x, names[("l", lo, hi)]))
                else:
                    edges.append((x, hub))
            elif bits[i]:
                edges.append((x, hub))
    return edges


def and_disj_instance(strings, terminals, n):
    """Hub-and-spoke gadgets: the union graph is connected iff every
    unordered pair's strings intersect."""
    return _gadget_instance(strings, terminals, n, and_disj_player_edges,
                            with_hub=True)


def random_pair_strings(terminals, n, seed):
    """One random n-bit string per ordered pair of distinct terminals.
    Raises GraphError for fewer than two terminals or n < 1."""
    terms = sorted(terminals)
    if len(terms) < 2:
        raise GraphError(f"need k >= 2 terminals, got {len(terms)}")
    if n < 1:
        raise GraphError(f"need n >= 1 bits per string, got n={n}")
    rng = random.Random(seed)
    return {(u, w): tuple(rng.randint(0, 1) for _ in range(n))
            for u in terms for w in terms if u != w}


# ---------------------------------------------------------------------------
# ground-truth graph oracles

def graph_oracles(num_vertices, edges, query):
    if query == "triangle":
        adj = [set() for _ in range(num_vertices)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        return any(adj[u] & adj[v] for u, v in edges)
    if query in ("connected", "components", "acyclic"):
        parent = list(range(num_vertices))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in edges:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
        comps = len({find(x) for x in range(num_vertices)})
        if query == "components":
            return comps
        if query == "connected":
            return comps <= 1
        return comps == num_vertices - len(edges)
    if query == "bipartite":
        color = {}
        adj = [[] for _ in range(num_vertices)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        for s in range(num_vertices):
            if s in color:
                continue
            color[s] = 0
            stack = [s]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in color:
                        color[y] = color[x] ^ 1
                        stack.append(y)
                    elif color[y] == color[x]:
                        return False
        return True
    raise GraphError(f"unknown query {query!r}")


# ---------------------------------------------------------------------------
# edge -> node rebalance

def edge_to_node_rebalance(terminals, inp, seed):
    """Convert an edge distribution to a uniformly random node distribution.

    Each vertex of H goes to a terminal drawn from a generator seeded with
    `seed`.  Only the placement is computed: the routing that would ship
    the adjacency entries there (an n'-bounded demand, 2 tau_MCF rounds in
    the paper's reduction) is not.  Raises GraphError unless `inp` is
    edge-distributed over exactly `terminals`."""
    if inp.mode != "edge":
        raise GraphError("input must be edge-distributed")
    terms = tuple(sorted(terminals))
    if inp.terminals != terms:
        raise GraphError("input terminals do not match")
    rng = random.Random(f"rebalance:{seed}")
    placement = {v: terms[rng.randrange(len(terms))]
                 for v in range(inp.num_vertices)}
    return DistributedGraphInput(
        inp.num_vertices, inp.edges, "node", terms, placement,
        names=inp.names)


# ---------------------------------------------------------------------------
# flooding BFS protocol family

VARIANTS = ("connectivity", "components", "acyclicity", "bipartiteness")


# the fields of a checkpoint's up record
PENDING, COUNT, DUP, PAR, HAS_UNTOK, UNTOK = range(6)


def _up_slots(b_c, b_v):
    """The (field, bit) that each position of the up stream carries."""
    return ([(PENDING, 0)] + [(COUNT, i) for i in range(b_c)]
            + [(DUP, 0), (PAR, 0), (HAS_UNTOK, 0)]
            + [(UNTOK, i) for i in reversed(range(b_v))])


def _fold_up(acc, slot, bits):
    """Fold `bits`, each stream's bit at `slot` in a fixed stream order,
    into the running record `acc` (six fields from 0, then the streams'
    tied flags) and return its bit there: flags OR, counts add with a
    carry, and the untokened vertex is a min over the tied streams."""
    field, bit = slot
    if field == COUNT:
        acc[COUNT] += sum(bits) << bit
    elif field == UNTOK:
        low = min((b for b, tied in zip(bits, acc[6]) if tied), default=0)
        acc[6] = [tied and b == low for b, tied in zip(bits, acc[6])]
        acc[UNTOK] |= low << bit
    else:
        acc[field] |= max(bits)
        if field == HAS_UNTOK:
            acc[6] = bits
    return acc[field] >> bit & 1


def _pack(values, widths):
    """The values as one bit list, each low bit first in its width."""
    return [(v >> i) & 1 for v, w in zip(values, widths) for i in range(w)]


def _unpack(bits, widths):
    """The inverse of `_pack`: one value per width, read in order."""
    values, at = [], 0
    for w in widths:
        values.append(sum(b << i for i, b in enumerate(bits[at:at + w])))
        at += w
    return values


def bfs_protocol(g, terminals, inp, variant):
    """Flooding BFS over a node-distributed H, as a bit-level protocol.

    Token notifications are framed packets relayed along fixed shortest
    paths between terminals.  Rounds alternate transport segments with
    checkpoints on a BFS tree rooted at the least terminal, after 1, 2,
    4, ... chunks of chunk_len rounds of each flood.  A checkpoint folds
    an up record into the root, which broadcasts a down decision:
    continue, restart at a vertex, or the final answer.  Components,
    acyclicity and bipartiteness restart the flood per component;
    connectivity needs a single flood.  With b_v bits naming a vertex of
    H and b_c bits a token count, a frame is `_pack`ed after its start bit
    as target, source, parity (b_v, b_v, 1), packet_bits in all.  The up
    record is w_up bits in `_up_slots` order: pending traffic (OR), token
    count (sum, low bit first), duplicate-receipt and parity-conflict
    flags (OR), has-untokened flag (OR), least untokened vertex (min over
    the flagged records, high bit first).  The decision is code | restart
    << 2 | answer << 2 + b_v, w_down bits sent low bit first.

    Transport.  A frame may start on an idle edge in any round of a
    segment in which it ends before the segment does: started in segment
    round r, it sends its last bit in r + packet_bits <= seg_len - 3.
    Once a relay holds a frame's b_v target bits and another terminal
    owns the target, it starts the frame on its next hop in that round,
    passing each bit on the round after it arrives (b_v + 1 rounds per
    hop, not packet_bits + 1), if that edge is idle with an empty queue
    and the forwarded frame ends in the segment; else it stores the frame
    and queues it whole.  So no frame is in flight at a checkpoint, and
    pending traffic is exactly the queued frames.

    Checkpoints.  At depth d, a vertex folds its own and its children's up
    bit q (`_fold_up`) as they arrive, in checkpoint round (depth_max - d)
    + q, and sends the result on; a partial count is at most n_h < 2^b_c.
    The root folds PENDING in round depth_max.  If it is 1 the decision
    is continue and the root short-circuits: it sends a 1 to its children,
    depth d relays it in round depth_max + d and stops its up stream, and
    every vertex leaves in round 2 depth_max: meta["continue_len"] = 2
    depth_max + 1.  The parent-to-child arcs are idle in the up phase, so
    silence there reads as no short-circuit.  Otherwise the root decides
    in round up_end = depth_max + w_up - 1 and sends down bit p in round
    up_end + p, which depth d relays in round up_end + d + p:
    meta["sync_len"] = 2 depth_max + w_up + w_down - 1.  Transport state
    does not move in a checkpoint.

    max_rounds budgets chunks that each start a queued frame on every
    edge whose queue is nonempty at the chunk's start, each chunk followed
    by a full checkpoint.  A segment's chunks still do (a frame started in
    a chunk's first packet_bits + 4 rounds ends in the segment), and a
    continue checkpoint is shorter than sync_len, so the budget holds.

    The first flood starts at vertex 0, whose owner is public knowledge
    (the vertex-to-terminal map is shared); restarts are elected through
    the checkpoint aggregation itself.
    """
    if variant not in VARIANTS:
        raise GraphError(f"unknown variant {variant!r}")
    if inp.mode != "node":
        raise GraphError("flooding needs a node-distributed input")
    terms = tuple(sorted(terminals))
    if inp.terminals != terms:
        raise GraphError("input terminals do not match")
    if not g.connected():
        raise GraphError("communication graph must be connected")

    n_h = inp.num_vertices
    term_set = set(terms)
    if n_h == 0:
        trivial = {"connectivity": True, "components": 0,
                   "acyclicity": True, "bipartiteness": True}[variant]

        def step0(v, rnd, state, inbox, pub):
            return {}, state, (trivial if v in term_set else None)

        return ProtocolSpec(2, lambda v, _g, block: None, step0)

    placement = dict(inp.assignment)
    b_v = max(1, math.ceil(math.log2(max(n_h, 2))))
    b_c = max(1, math.ceil(math.log2(n_h + 1)))
    frame_widths = (b_v, b_v, 1)
    packet_bits = sum(frame_widths)

    # fixed shortest-path next hops toward each terminal, as
    # (edge_id, toward-vertex)
    next_hop = {(v, t): link for t in terms
                for v, link in bfs(g, t)[0].items() if link is not None}

    # spanning sync tree
    root = terms[0]
    s_parent, s_depth, s_children = bfs_tree(g, root)
    depth_max = max(s_depth.values())

    up_slots = _up_slots(b_c, b_v)
    w_up, w_down = len(up_slots), 2 + b_v + b_c
    chunk_len = 2 * (packet_bits + 3)
    up_end = depth_max + w_up - 1
    sync_len = up_end + depth_max + w_down
    continue_len = 2 * depth_max + 1

    max_rounds = ((4 * inp.num_edges + 2 * n_h + 24) * (chunk_len + sync_len)
                  + 64)

    def init(v, _g, block):
        return {"phase": "transport", "start": 1, "flood": 1, "chunk": 0,
                "next_cp": 1, "inject": 0, "adj": block or {},
                "tokens": {}, "dup": 0, "par": 0,
                "queues": {eid: [] for eid, _ in g.incidence[v]},
                "tx": {}, "rx": {}, "cut": {}, "own": None, "acc": None,
                "down": 0, "short": 0}

    def seg_len(state):
        """The transport rounds from the segment's start to the next
        checkpoint."""
        return (state["next_cp"] - state["chunk"]) * chunk_len

    def deliver_local(state, v_self, injections):
        """Take the tokens this vertex owns, passing each new one on to
        its target's other neighbours; queue the rest as frames."""
        tokens = state["tokens"]
        while injections:
            target, source, parity = injections.pop(0)
            owner = placement[target]
            if owner != v_self:
                eid, _ = next_hop[(v_self, owner)]
                state["queues"][eid].append(
                    _pack((target, source, parity), frame_widths))
            elif target in tokens:
                state["dup"] = 1
                if tokens[target] != parity:
                    state["par"] = 1
            else:
                tokens[target] = parity
                injections.extend((nb, target, parity ^ 1)
                                  for nb in state["adj"].get(target, ())
                                  if nb != source)

    def transport_round(state, v_self, r, inbox, sends):
        if r == 0 and state["inject"] is not None:
            if placement[state["inject"]] == v_self:
                deliver_local(state, v_self, [(state["inject"], None, 0)])
            state["inject"] = None
        tx, rx, cut, queues = (state["tx"], state["rx"], state["cut"],
                               state["queues"])
        # a frame started here sends its last bit by segment round
        # seg_len - 3, which arrives by seg_len - 2: no frame is in flight
        # at a checkpoint, so its up record checks only queues
        can_start = r + packet_bits + 2 <= seg_len(state) - 1
        # receive side: continue, cut through or start frames
        for eid, _ in g.incidence[v_self]:
            bit = inbox.get(eid, 0)
            if eid not in rx:
                if bit == 1:
                    rx[eid] = []
                continue
            frame = rx[eid]
            frame.append(bit)
            if eid in cut:
                tx[cut[eid]].append(bit)
            if len(frame) == packet_bits:
                del rx[eid]
                if cut.pop(eid, None) is None:
                    deliver_local(state, v_self,
                                  [_unpack(frame, frame_widths)])
            elif len(frame) == b_v:
                # the target is known: relay at once onto an idle next hop
                target, = _unpack(frame, (b_v,))
                link = next_hop.get((v_self, placement[target]))
                if (link and can_start and link[0] not in tx
                        and not queues[link[0]]):
                    cut[eid] = link[0]
                    tx[link[0]] = [1, *frame]
        # send side
        for eid, _ in g.incidence[v_self]:
            if eid in tx:
                sends[eid] = tx[eid].pop(0)
                if not tx[eid]:
                    del tx[eid]
            elif queues[eid] and can_start:
                sends[eid] = 1
                tx[eid] = queues[eid].pop(0)

    def decide(state, rec):
        """Root's decision at a checkpoint without pending traffic:
        (code, restart_vertex, answer)."""
        if (variant == "acyclicity" and rec[DUP]
                or variant == "bipartiteness" and rec[PAR]):
            return 2, 0, 0
        if variant == "connectivity":
            return 2, 0, int(rec[COUNT] == n_h)
        if rec[HAS_UNTOK]:
            return 1, rec[UNTOK], 0
        if variant == "components":
            return 2, 0, state["flood"]
        return 2, 0, 1  # acyclic / bipartite verdicts

    def sync_round(state, v_self, r, inbox, sends):
        d = s_depth[v_self]
        q = r - depth_max + d
        if q == 0:
            untoks = [u for u in state["adj"] if u not in state["tokens"]]
            state.update(acc=[0] * 7, down=0, own=(
                int(any(state["queues"].values())), len(state["tokens"]),
                state["dup"], state["par"], int(bool(untoks)),
                min(untoks, default=0)))
        # the short-circuit reaches depth d in round depth_max + d, on an
        # arc that is idle until the down phase
        if r == depth_max + d and v_self != root:
            state["short"] = inbox.get(s_parent[v_self][0], 0)
        if 0 <= q < w_up and not state["short"]:
            field, bit = up_slots[q]
            folded = _fold_up(state["acc"], up_slots[q], [
                state["own"][field] >> bit & 1,
                *(inbox.get(eid, 0) for eid, _ in s_children[v_self])])
            if v_self != root:
                sends[s_parent[v_self][0]] = folded
            elif q == 0:
                state["short"] = folded
            elif q == w_up - 1:
                code, restart, answer = decide(state, state["acc"])
                state["down"] = code | restart << 2 | answer << 2 + b_v
        if state["short"]:
            if r == depth_max + d:
                for eid, _ in s_children[v_self]:
                    sends[eid] = 1
            return
        p = r - up_end - d
        if 0 <= p < w_down:
            if v_self != root:
                state["down"] |= inbox.get(s_parent[v_self][0], 0) << p
            for eid, _ in s_children[v_self]:
                sends[eid] = state["down"] >> p & 1

    def wake(v, rnd, state):
        """In transport, the next round while a frame is to inject, send,
        receive or start, else the segment's last round; in a checkpoint,
        its up stream, then its down relay to the last round, or after a
        short-circuit only the common last round; once done, never."""
        start = state["start"]
        if state["phase"] == "transport":
            if (state["inject"] is not None or state["tx"] or state["rx"]
                    or any(state["queues"].values())):
                return rnd + 1, rnd + 1
            end = start + seg_len(state) - 1
            return end, end
        if state["phase"] == "sync":
            d = s_depth[v]
            spans = (((continue_len - 1, continue_len - 1),) if state["short"]
                     else ((depth_max - d, depth_max - d + w_up - 1),
                           (up_end + d, sync_len - 1)))
            for lo, hi in spans:
                if start + hi > rnd:
                    return start + lo, start + hi
        return None

    def step(v, rnd, state, inbox, pub):
        """One round of vertex v; every vertex changes phase in the same
        round, at the last round of a segment or a checkpoint."""
        sends, out = {}, None
        r = rnd - state["start"]
        if state["phase"] == "transport":
            transport_round(state, v, r, inbox, sends)
            if r == seg_len(state) - 1:
                state.update(phase="sync", chunk=state["next_cp"],
                             start=rnd + 1)
        elif state["phase"] == "sync":
            sync_round(state, v, r, inbox, sends)
            if r == (continue_len if state["short"] else sync_len) - 1:
                rest, code = divmod(state["down"], 4)
                answer, restart = divmod(rest, 1 << b_v)
                state.update(start=rnd + 1, short=0)
                if code == 0:
                    state.update(phase="transport",
                                 next_cp=state["next_cp"] * 2)
                elif code == 1:
                    state.update(phase="transport", flood=state["flood"] + 1,
                                 chunk=0, next_cp=1, inject=restart)
                else:
                    state["phase"] = "done"
                    if v in term_set:
                        out = (answer if variant == "components"
                               else bool(answer))
        return sends, state, out

    return ProtocolSpec(max_rounds=max_rounds, init=init, step=step,
                        meta={"chunk_len": chunk_len, "sync_len": sync_len,
                              "continue_len": continue_len},
                        wake=wake)
