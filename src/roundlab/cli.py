"""Experiment driver: compute bounds, run protocols, compare.

Every command echoes its seed and emits deterministic JSON (or CSV), so
re-running a configuration byte-reproduces the output.  Exact rationals are
written as JSON integers when integral and as ``"p/q"`` strings otherwise.
Exit codes: 0 ok, 2 infeasible instance, 3 input error (argparse usage
errors and files that cannot be read or written included), 4 internal
contract violation (a full tau_MCF LP that HiGHS could not decide and
a two-party extraction that reads an unknown bit included; a restricted
first-stage LP that HiGHS could not decide only hands its probe to the
full LP).
``--help`` exits 0.  ``--format csv`` writes ``key,value`` rows (the
``bench`` summary as one header row and one value row) through the csv
module, with list and dict values as compact JSON cells.  Every command's
JSON is written once, to ``--out`` or to stdout; for ``ed-circuit`` and
``gen`` it is the artifact itself (circuit or instance JSON) with the
command's summary keys added, so the file loads with ``circuit_from_json``
or ``instance_from_json``.

Size ceiling: the LP of ``tau-mcf`` is indexed by a timed network of
at most ``mcf.MAX_TIMED_ARCS`` (2**25, about 33.5 million) arcs, tau *
(2m + n); past it a command exits 3 naming m, tau and the size before
allocating.  Every other flow is read off static min-cost flows and
builds no timed network, so ``tau-route``, the cut bounds of ``tau-mcf``
and ``tau-mcf`` on two terminals, whose cut bound is its answer, have no
such ceiling.  The cut bounds run O(k^2) static flows along chains of
terminals ordered by distance (``mcf.tau_mcf_flow_bound``); k = 32 is
supported and nothing checks k.  On ``random_connected_graph(n, n, seed=3,
k)`` at n' = 32 on a shared 2-vCPU x86 host, the bound took 0.07 s at
k = 14 (n = 30), 0.35-0.50 s at k = 20 and 1.6-1.8 s at k = 32 (n = 60);
``tau-mcf`` took 1.8 s at k = 14, 6.8 s at k = 20 and 334 s at k = 32
(735 MB peak): past k = 14 the LP, not the bound, sets the time.

Steiner desk scale: ``disj-bound`` and ``run --protocol disj-aggregate``
pack greedily at every delta from the terminals' diameter up to |V|, and
the deltas share one centre scan per residual edge set.  On square grids
with their four corners as terminals that takes about 0.1 s at 12×12,
1 s at 20×20 and 16 s at 35×35 (|V| = 1,225, 82 MB peak), measured on a
shared 2-vCPU x86 host; the time grows about as |V|^2.6.  Nothing
checks |V|.

``solve`` places an edge-distributed instance on a random node
distribution and computes no routing for that move: its ``rounds`` count
only the flooding protocol, not the 2 tau_MCF rounds that the paper's
reduction spends routing the adjacency lists there.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import random
import sys
from fractions import Fraction

from .circuits import build_ed_circuit, circuit_from_json, circuit_to_json
from .distgraph import (
    and_disj_instance, bfs_protocol, graph_oracles,
    instance_from_json, or_disj_instance, random_pair_strings,
    edge_to_node_rebalance,
)
from .graphs import GraphError, UnreachableError, load_graph
from .mcf import LPSolveError, tau_mcf
from .protocols import (
    CompileError, compile_circuit, disjointness_function, disj_oracle,
    ed_hash_reduce, ed_oracle, steiner_aggregate_protocol,
)
from .sim import (
    ContractViolation, ExtractionError, MaxRoundsExceeded, replay_matches,
    run_protocol,
)
from .steiner import disjointness_bound, pack_steiner_trees
from .timed import RoutableError, SearchLimitError, tau_route

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_INPUT = 3
EXIT_CONTRACT = 4

INFEASIBLE_ERRORS = (UnreachableError, RoutableError, SearchLimitError,
                     MaxRoundsExceeded)
INPUT_ERRORS = (GraphError, OSError, json.JSONDecodeError, KeyError,
                ValueError)
CONTRACT_ERRORS = (ContractViolation, CompileError, AssertionError,
                   LPSolveError, ExtractionError)


def _jsonable(obj):
    if isinstance(obj, Fraction):
        if obj.denominator == 1:
            return obj.numerator
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_jsonable(v) for v in obj)
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, float, str)):
        return obj
    return str(obj)


def _csv_cell(value):
    if isinstance(value, (list, dict)):
        return json.dumps(value, separators=(",", ":"), sort_keys=True)
    return str(value)


def _emit(payload, args):
    payload = _jsonable(payload)
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        cols = ["instance", "k", "n", "bound_kind", "bound", "rounds",
                "ratio", "seed"]
        if set(payload) >= set(cols):
            rows = [cols, [payload[c] for c in cols]]
        else:
            rows = [[key, payload[key]] for key in sorted(payload)]
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [[_csv_cell(v) for v in row] for row in rows])
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_inputs(path, terminals):
    """The --inputs file as {terminal: bit tuple}.  It must be a JSON
    object with one key per terminal, each holding a nonempty list of
    0/1 bits, all lists of one length; anything else raises a GraphError
    naming --inputs and, where there is one, the terminal."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise GraphError("--inputs must be a JSON object of terminal: bit "
                         f"list, not a {type(raw).__name__}")
    inputs = {}
    for key, bits in raw.items():
        try:
            t = int(key)
        except ValueError:
            raise GraphError(f"--inputs key {key!r} is not a terminal") \
                from None
        if t in inputs:
            raise GraphError(f"--inputs names terminal {t} twice")
        if (not isinstance(bits, list) or not bits
                or set(map(type, bits)) != {int} or not set(bits) <= {0, 1}):
            raise GraphError(f"--inputs terminal {t}: expected a nonempty "
                             f"list of 0/1 bits, got {bits!r}")
        inputs[t] = tuple(bits)
    if sorted(inputs) != sorted(terminals):
        raise GraphError(f"--inputs covers terminals {sorted(inputs)}, "
                         f"the graph's are {sorted(terminals)}")
    first = min(inputs)
    for t in sorted(inputs):
        if len(inputs[t]) != len(inputs[first]):
            raise GraphError(
                f"--inputs terminal {t} has {len(inputs[t])} bits, "
                f"terminal {first} has {len(inputs[first])}")
    return inputs


def _random_inputs(terminals, n, seed):
    rng = random.Random(f"{seed}:inputs")
    return {t: tuple(rng.randint(0, 1) for _ in range(n))
            for t in sorted(terminals)}


# ---------------------------------------------------------------------------
# command handlers

def cmd_tau_route(args):
    g = load_graph(args.graph)
    a = args.a if args.a is not None else g.terminals[0]
    b = args.b if args.b is not None else g.terminals[-1]
    value = tau_route(g, a, b, args.nprime)
    return {"command": "tau-route", "a": a, "b": b, "nprime": args.nprime,
            "tau_route": value, "seed": args.seed}


def cmd_tau_mcf(args):
    g = load_graph(args.graph)
    value = tau_mcf(g, g.terminals, [args.nprime])[args.nprime]
    return {"command": "tau-mcf", "terminals": list(g.terminals),
            "nprime": args.nprime, "tau_mcf": value, "seed": args.seed}


def cmd_st_pack(args):
    g = load_graph(args.graph)
    packing = pack_steiner_trees(g, g.terminals, args.delta)
    trees = [{"edges": sorted(t.edge_ids), "weight": w, "diameter": t.diameter}
             for t, w in packing.trees]
    return {"command": "st-pack", "delta": args.delta, "mode": "greedy",
            "value": packing.value, "bound_used": packing.bound_used,
            "trees": trees, "seed": args.seed}


def cmd_disj_bound(args):
    g = load_graph(args.graph)
    res = disjointness_bound(g, g.terminals, args.n)
    return {"command": "disj-bound", "n": args.n, "bound": res.value,
            "best_delta": res.delta,
            "packing_values": {str(d): v for d, v in res.packing_values.items()},
            "seed": args.seed}


def _build_named_protocol(name, g, inputs, seed):
    """Build protocol `name` for the terminal inputs {terminal: bits}.

    Returns (protocol, the inputs it runs on, bound).  ed-compiled runs
    on the inputs' ED hashes.  bound is the DISJ bound min_delta(n/ST +
    delta) that disj-aggregate packs its trees at, and None for
    ed-compiled, whose compiler needs no bound.
    """
    terms = g.terminals
    n = len(next(iter(inputs.values())))
    if name == "disj-aggregate":
        best = disjointness_bound(g, terms, n)
        func = disjointness_function(len(terms), n)
        proto = steiner_aggregate_protocol(g, terms, best.packing, func)
        return proto, inputs, best.value
    if name == "ed-compiled":
        red = ed_hash_reduce([inputs[t] for t in sorted(inputs)], seed=seed,
                             n_bits=n)
        hashed = red.bitstrings()
        circuit, pos = build_ed_circuit(len(terms), red.bits_per_hash)
        proto = compile_circuit(g, terms, circuit, seed=seed, output_pos=pos)
        hashed_inputs = dict(zip(sorted(inputs), hashed))
        return proto, hashed_inputs, None
    raise GraphError(f"unknown protocol {name!r} "
                     "(available: disj-aggregate, ed-compiled)")


def cmd_run(args):
    g = load_graph(args.graph)
    inputs = _load_inputs(args.inputs, g.terminals) if args.inputs else \
        _random_inputs(g.terminals, args.n, args.seed)
    proto, inputs, _ = _build_named_protocol(args.protocol, g, inputs,
                                             args.seed)
    tr = run_protocol(g, proto, inputs, seed=args.seed,
                      max_rounds=args.max_rounds)
    return {"command": "run", "protocol": args.protocol,
            "rounds": tr.rounds,
            "outputs": {str(t): tr.outputs[t] for t in sorted(tr.outputs)},
            "total_bits": tr.total_bits,
            "per_edge_bits": {f"{u}->{v}#{e}": c for (u, v, e), c
                              in sorted(tr.per_edge_bits().items())},
            "seed": args.seed}


def cmd_compile(args):
    g = load_graph(args.graph)
    with open(args.circuit) as fh:
        circuit = circuit_from_json(json.load(fh))
    proto = compile_circuit(g, g.terminals, circuit, seed=args.seed,
                            output_pos=args.output_pos)
    payload = {"command": "compile", "depth": circuit.depth,
               "wires": circuit.wire_count,
               "level_sizes": list(circuit.level_sizes),
               "windows": list(proto.meta["windows"]),
               "data_rounds": proto.meta["data_rounds"],
               "broadcast_rounds": proto.meta["broadcast_rounds"],
               "seed": args.seed}
    if args.inputs:
        inputs = _load_inputs(args.inputs, g.terminals)
        width = len(inputs[g.terminals[0]])
        if width != circuit.n:
            raise GraphError(f"--inputs gives {width} bits per terminal, "
                             f"the circuit reads {circuit.n}")
        tr = run_protocol(g, proto, inputs, seed=args.seed)
        payload["rounds"] = tr.rounds
        payload["outputs"] = {str(t): tr.outputs[t]
                              for t in sorted(tr.outputs)}
    return payload


def cmd_ed_circuit(args):
    circuit, pos = build_ed_circuit(args.k, args.m)
    obj = circuit_to_json(circuit)
    obj.update({"command": "ed-circuit", "k": args.k, "m": args.m,
                "depth": circuit.depth, "wires": circuit.wire_count,
                "output_pos": pos, "out": args.out, "seed": args.seed})
    return obj


def cmd_gen(args):
    terms = tuple(range(args.k))
    strings = random_pair_strings(terms, args.n, seed=args.seed)
    if args.reduction == "or-disj":
        inst = or_disj_instance(strings, terms, args.n)
        truth = graph_oracles(inst.num_vertices, inst.edges, "triangle")
    else:
        inst = and_disj_instance(strings, terms, args.n)
        truth = graph_oracles(inst.num_vertices, inst.edges, "connected")
    obj = inst.to_json()
    obj.update({"command": "gen", "reduction": args.reduction,
                "ground_truth": truth, "out": args.out,
                "n_h": inst.num_vertices, "m_h": inst.num_edges,
                "seed": args.seed})
    return obj


def cmd_solve(args):
    g = load_graph(args.graph)
    with open(args.instance) as fh:
        inst = instance_from_json(json.load(fh))
    if inst.mode == "edge":
        inst = edge_to_node_rebalance(g.terminals, inst, seed=args.seed)
    proto = bfs_protocol(g, g.terminals, inst, args.variant)
    tr = run_protocol(g, proto, inst.blocks(), seed=args.seed)
    answer = tr.outputs[g.terminals[0]]
    query = {"connectivity": "connected", "components": "components",
             "acyclicity": "acyclic", "bipartiteness": "bipartite"}[args.variant]
    return {"command": "solve", "variant": args.variant,
            "answer": answer, "rounds": tr.rounds,
            "oracle": graph_oracles(inst.num_vertices, inst.edges, query),
            "seed": args.seed}


BENCH_PROTOCOLS = {"disj": "disj-aggregate", "ed": "ed-compiled"}


def cmd_bench(args):
    g = load_graph(args.graph)
    terms = g.terminals
    proto, inputs, bound = _build_named_protocol(
        BENCH_PROTOCOLS[args.function], g,
        _random_inputs(terms, args.n, args.seed), args.seed)
    xs = [inputs[t] for t in sorted(inputs)]
    if args.function == "disj":
        expected = disj_oracle(xs)
        kind = "min_delta(n/ST+delta)"
    else:
        expected = ed_oracle(xs)
        bound = Fraction(tau_mcf(g, terms, [1])[1])
        kind = "tau_mcf(G,K,1)"
    tr = run_protocol(g, proto, inputs, seed=args.seed)
    if not replay_matches(g, proto, inputs, args.seed, tr):
        raise ContractViolation("transcript replay mismatch")
    got = set(tr.outputs.values())
    if got != {expected}:
        raise ContractViolation(
            f"protocol answered {got}, oracle says {expected}")
    ratio = Fraction(tr.rounds) / Fraction(bound) if bound else Fraction(0)
    return {"instance": args.graph, "k": len(terms), "n": args.n,
            "bound_kind": kind, "bound": bound, "rounds": tr.rounds,
            "ratio": ratio, "seed": args.seed, "command": "bench",
            "audited": True}


# ---------------------------------------------------------------------------

@functools.cache
def build_parser():
    """The command-line parser, built once per process: `main` only
    parses with it, and each parse returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="roundlab",
        description="Round-complexity laboratory for small synchronous networks")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("tau-route", help="single-pair routing horizon")
    p.add_argument("--graph", required=True)
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--nprime", type=int, required=True)
    p.set_defaults(func=cmd_tau_route)

    p = sub.add_parser("tau-mcf", help="uniform multicommodity horizon")
    p.add_argument("--graph", required=True)
    p.add_argument("--nprime", type=int, required=True)
    p.set_defaults(func=cmd_tau_mcf)

    p = sub.add_parser("st-pack", help="diameter-bounded tree packing")
    p.add_argument("--graph", required=True)
    p.add_argument("--delta", type=int, required=True)
    p.set_defaults(func=cmd_st_pack)

    p = sub.add_parser("disj-bound", help="min over delta of n/ST + delta")
    p.add_argument("--graph", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_disj_bound)

    p = sub.add_parser("run", help="run a named protocol")
    p.add_argument("--graph", required=True)
    p.add_argument("--protocol", required=True)
    p.add_argument("--inputs", default=None)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--max-rounds", type=int, default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compile", help="compile a circuit JSON")
    p.add_argument("--graph", required=True)
    p.add_argument("--circuit", required=True)
    p.add_argument("--inputs", default=None)
    p.add_argument("--output-pos", type=int, default=0)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("ed-circuit", help="emit the distinctness circuit")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_ed_circuit)

    p = sub.add_parser("gen", help="generate a reduction instance")
    p.add_argument("--reduction", choices=("or-disj", "and-disj"),
                   required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_gen)

    text = ("run a flooding variant on an instance; an edge-mode instance "
            "is first placed on a random node distribution, with no routing "
            "computed, so rounds count the flooding only")
    p = sub.add_parser("solve", help=text, description=text)
    p.add_argument("--variant", required=True,
                   choices=("connectivity", "components", "acyclicity",
                            "bipartiteness"))
    p.add_argument("--graph", required=True)
    p.add_argument("--instance", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="measured rounds vs computed bound")
    p.add_argument("--function", choices=("disj", "ed"), required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, which would
        # read as "infeasible"; it has already printed the message.
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return EXIT_INPUT
    try:
        _emit(args.func(args), args)
    except INFEASIBLE_ERRORS as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except CONTRACT_ERRORS as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
