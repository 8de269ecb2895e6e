"""The four workloads: instances made from a seed, experiments, checks.

Every experiment goes through `roundlab.cli.main(argv)`, the path a user
takes, except the cut-certificate step on `route`, which has no CLI path
and calls the public API.  An experiment returns an optional protocol
record {rounds, bound} and raises `WrongAnswer` when a check fails.
"""

from __future__ import annotations

import json
import random
import traceback
from fractions import Fraction

import oracles  # tests/oracles.py: independent brute-force references
from roundlab import cli, distgraph, graphs, protocols, sim, steiner, timed

PATH_LENGTH = 3
DISJ_N = 4096          # DISJ input bits per terminal on disj-sim
CERT_N = 256           # DISJ protocol size behind the cut certificate
AND_DISJ_N = 4         # and-disj string length on mcf
ED_N = 3               # ED input bits per terminal on ed-compile

# These workloads ignore the seed and always use seed 0.  On mcf the
# and-disj instance and the CLI seed, which places H's vertices for the
# rebalance, move the LP work and the BFS rounds by 20-30 % from seed to
# seed; on ed-compile the CLI seed picks the inputs and the gate placement
# and moves the rounds by 10 %.  Both are wider than the bounds allow.
SEED_FREE = {"mcf": 0, "ed-compile": 0}

# Answers the seed commit gives on the fixed graphs.  They do not depend
# on the workload seed.
EXPECTED_TAU_ROUTE = {"grid10": 49, "grid6": 41, "rand12": 34}
EXPECTED_TAU_MCF = {"grid6": 18, "ring44": 33, "rand12": 24}
EXPECTED_DISJ_BOUND = {"intro": Fraction(4116, 5), "grid6": 2059,
                       "ring44": 4102, "rand12": 4100}
EXPECTED_ED = {"bound": 1, "rounds": 148}   # at seed 0


class WrongAnswer(Exception):
    """The program answered, but not what the check expects."""


def check(ok, message):
    if not ok:
        raise WrongAnswer(message)


def as_number(value):
    """CLI numbers come as ints or as "p/q" strings (`2/1` for 2)."""
    return Fraction(value)


GRAPHS = {
    "path3": lambda: graphs.path_graph(PATH_LENGTH),
    "grid10": lambda: graphs.grid_graph(10, 10),
    "grid6": lambda: graphs.grid_graph(6, 6),
    "ring44": lambda: graphs.ring_of_cliques(4, 4),
    "rand12": lambda: graphs.random_connected_graph(12, 10, seed=1, k=4),
    "intro": graphs.intro_split_graph,
    "k2": lambda: graphs.clique(2),
}

WORKLOAD_GRAPHS = {
    "route": ("path3", "grid10", "grid6", "rand12", "intro"),
    "mcf": ("grid6", "ring44", "rand12"),
    "ed-compile": ("k2",),
    "disj-sim": ("intro", "grid6", "ring44", "rand12"),
}


class Context:
    """Instance files of one pass and what the checks need to know."""

    def __init__(self, workload, seed, workdir):
        seed = SEED_FREE.get(workload, seed)
        self.workload = workload
        self.workdir = workdir
        self.rng = random.Random(f"perfbench:{workload}:{seed}")
        self.cli_seed = seed
        self.files = {}
        self.inputs = {}
        self.instances = {}
        self.outputs = []

    def write(self, name, text):
        path = self.workdir / name
        path.write_text(text)
        return str(path)


def setup(ctx):
    """Build and write every instance of the workload."""
    built = {}
    for key in WORKLOAD_GRAPHS[ctx.workload]:
        built[key] = GRAPHS[key]()
        ctx.files[key] = ctx.write(f"{key}.txt",
                                   graphs.format_graph_text(built[key]))
    if ctx.workload == "route":
        ctx.inputs["intro"] = disj_inputs(
            ctx.rng, built["intro"].terminals, CERT_N)
    elif ctx.workload == "mcf":
        for key in ("grid6", "ring44"):
            terms = built[key].terminals
            strings = {(u, w): tuple(ctx.rng.randint(0, 1)
                                     for _ in range(AND_DISJ_N))
                       for u in terms for w in terms if u != w}
            inst = distgraph.and_disj_instance(strings, terms, AND_DISJ_N)
            ctx.instances[key] = inst
            ctx.files[key + ".and-disj"] = ctx.write(
                f"{key}.and-disj.json", json.dumps(inst.to_json()))
    elif ctx.workload == "disj-sim":
        for key in WORKLOAD_GRAPHS["disj-sim"]:
            inputs = disj_inputs(ctx.rng, built[key].terminals, DISJ_N)
            ctx.inputs[key] = inputs
            ctx.files[key + ".inputs"] = ctx.write(
                f"{key}.inputs.json",
                json.dumps({str(t): list(bits) for t, bits in inputs.items()}))


def disj_inputs(rng, terminals, n):
    """Random bit strings whose DISJ answer is a coin flip, not always 1."""
    terms = sorted(terminals)
    bits = {t: [rng.randint(0, 1) for _ in range(n)] for t in terms}
    common = [i for i in range(n) if all(bits[t][i] for t in terms)]
    if rng.random() < 0.5:
        for i in common:
            bits[terms[rng.randrange(len(terms))]][i] = 0
    elif not common:
        i = rng.randrange(n)
        for t in terms:
            bits[t][i] = 1
    return {t: tuple(b) for t, b in bits.items()}


def run_cli(ctx, *argv):
    """One CLI call; global options go before the subcommand."""
    out = ctx.workdir / "out.json"
    code = cli.main(["--seed", str(ctx.cli_seed), "--out", str(out), *argv])
    check(code == 0, f"exit code {code}")
    text = out.read_text()
    ctx.outputs.append(text)
    return json.loads(text)


def run_experiments(ctx, experiments):
    """Run each experiment; a failure is recorded and the pass goes on."""
    records, failures = [], []
    for name, experiment in experiments:
        try:
            record = experiment(ctx)
        except WrongAnswer as exc:
            failures.append(f"{name}: wrong answer: {exc}")
            continue
        except Exception:  # a crash fails this experiment, not the pass
            failures.append(f"{name}: {traceback.format_exc(limit=-3)}")
            continue
        if record is not None:
            records.append(record)
    return records, failures


# ---------------------------------------------------------------------------
# experiments: (name, callable(ctx) -> protocol record or None)

def _tau_route(key, nprime, expected, ends=()):
    def go(ctx):
        argv = ["tau-route", "--graph", ctx.files[key],
                "--nprime", str(nprime)]
        if ends:
            argv += ["--a", str(ends[0]), "--b", str(ends[1])]
        got = run_cli(ctx, *argv)["tau_route"]
        check(got == expected, f"tau_route {got} != {expected}")
    return f"tau-route {key} n'={nprime}", go


def _check_flow_paths(g, a, b, horizon, flow):
    """Each path is a timed walk (a,0) -> (b,horizon); no non-memory arc
    carries two units."""
    check(len(flow.paths) == flow.value, "path count != flow value")
    used = set()
    for path in flow.paths:
        check(path.start == 0 and len(path.edge_ids) == horizon,
              "path does not span the horizon")
        check(path.verts[0] == a and path.verts[-1] == b,
              "path has wrong endpoints")
        for layer, eid in enumerate(path.edge_ids):
            u, v = path.verts[layer], path.verts[layer + 1]
            if eid is None:
                check(u == v, f"memory step moves at layer {layer}")
                continue
            check(g.edges[eid] == (min(u, v), max(u, v)),
                  f"step at layer {layer} does not ride edge {eid}")
            arc = (layer, eid, u, v)
            check(arc not in used, f"arc {arc} used twice")
            used.add(arc)


def cut_certificate(ctx):
    """max-flow = min-cut on intro_split_graph at twice the DISJ protocol's
    rounds, then the two-party simulation across that cut."""
    g = graphs.load_graph(ctx.files["intro"])
    a, b = g.terminals
    inputs = ctx.inputs["intro"]
    best = steiner.disjointness_bound(g, g.terminals, CERT_N)
    packing = steiner.pack_steiner_trees(g, g.terminals, best.delta)
    func = protocols.disjointness_function(len(g.terminals), CERT_N)
    proto = protocols.steiner_aggregate_protocol(g, g.terminals, packing,
                                                 func)
    horizon = 2 * proto.max_rounds
    flow = timed.max_route_flow(g, a, b, horizon)
    _check_flow_paths(g, a, b, horizon, flow)
    lv = timed.extract_level_vector(g, a, b, flow.value + 1, horizon)
    levels = lv.levels
    check(levels[a] == 0 and levels[b] == horizon + 1,
          "endpoint levels are wrong")
    cost = sum(max(abs(levels[u] - levels[v]) - 1, 0) for u, v in g.edges)
    check(cost == flow.value == lv.cost,
          f"cut cost {cost} (reported {lv.cost}) != flow {flow.value}")
    tp = sim.extract_two_party(g, proto, lv, inputs, seed=ctx.cli_seed)
    want = oracles.disj_oracle([inputs[t] for t in sorted(inputs)])
    check(tp.output_a == want and tp.output_b == want,
          f"two-party outputs {tp.output_a},{tp.output_b} != {want}")
    check(tp.total_bits <= 2 * cost, "two-party bits exceed twice the cut")
    return {"rounds": proto.max_rounds, "bound": best.value}


def _tau_mcf(key, nprime):
    def go(ctx):
        got = run_cli(ctx, "tau-mcf", "--graph", ctx.files[key],
                      "--nprime", str(nprime))["tau_mcf"]
        expected = EXPECTED_TAU_MCF[key]
        check(got == expected, f"tau_mcf {got} != {expected}")
    return f"tau-mcf {key} n'={nprime}", go


def _solve(key):
    def go(ctx):
        out = run_cli(ctx, "solve", "--variant", "connectivity",
                      "--graph", ctx.files[key],
                      "--instance", ctx.files[key + ".and-disj"])
        inst = ctx.instances[key]
        want = oracles.components_unionfind(inst.num_vertices,
                                            inst.edges) == 1
        check(out["answer"] == want, f"connectivity {out['answer']} != {want}")
        return {"rounds": out["rounds"], "bound": EXPECTED_TAU_MCF[key]}
    return f"solve connectivity {key}", go


def ed_bench(ctx):
    out = run_cli(ctx, "bench", "--function", "ed",
                  "--graph", ctx.files["k2"], "--n", str(ED_N))
    bound, ratio = as_number(out["bound"]), as_number(out["ratio"])
    check(out["bound_kind"] == "tau_mcf(G,K,1)" and out["audited"] is True,
          "unexpected bench payload")
    check(out["k"] == 2 and out["n"] == ED_N, "bench echoed wrong sizes")
    check(bound == EXPECTED_ED["bound"] and out["rounds"] == EXPECTED_ED[
        "rounds"], f"bound {bound}, rounds {out['rounds']} != {EXPECTED_ED}")
    check(ratio == out["rounds"] / bound,
          f"ratio {ratio} != rounds {out['rounds']} / bound {bound}")
    return {"rounds": out["rounds"], "bound": bound}


def _disj(key):
    def go(ctx):
        bound = as_number(run_cli(ctx, "disj-bound", "--graph",
                                  ctx.files[key], "--n", str(DISJ_N))["bound"])
        check(bound == EXPECTED_DISJ_BOUND[key],
              f"disj bound {bound} != {EXPECTED_DISJ_BOUND[key]}")
        out = run_cli(ctx, "run", "--protocol", "disj-aggregate",
                      "--graph", ctx.files[key],
                      "--inputs", ctx.files[key + ".inputs"])
        inputs = ctx.inputs[key]
        want = oracles.disj_oracle([inputs[t] for t in sorted(inputs)])
        got = set(out["outputs"].values())
        check(got == {want}, f"DISJ outputs {got} != {want}")
        check(out["total_bits"] > 0, "no bits sent")
        return {"rounds": out["rounds"], "bound": bound}
    return f"disj {key}", go


EXPERIMENTS = {
    "route": (
        _tau_route("path3", 300, 300 + PATH_LENGTH - 1),
        _tau_route("path3", 520, 520 + PATH_LENGTH - 1),
        _tau_route("grid10", 64, EXPECTED_TAU_ROUTE["grid10"], (0, 99)),
        _tau_route("grid6", 64, EXPECTED_TAU_ROUTE["grid6"], (0, 35)),
        _tau_route("rand12", 64, EXPECTED_TAU_ROUTE["rand12"]),
        ("cut certificate intro", cut_certificate),
    ),
    "mcf": (
        _tau_mcf("grid6", 32),
        _tau_mcf("ring44", 64),
        _tau_mcf("rand12", 32),
        _solve("grid6"),
        _solve("ring44"),
    ),
    "ed-compile": (("bench ed k2", ed_bench),),
    "disj-sim": tuple(_disj(key) for key in WORKLOAD_GRAPHS["disj-sim"]),
}
