"""Outside-in tracer: wraps public roundlab functions in timed spans.

Nothing inside roundlab knows about it.  `Tracer.install(HOOKS)` replaces
each target wherever a roundlab module binds it (module globals, and the
class attribute for methods), records one span per call with its parent
span, and feeds the call's arguments and result to an optional counter
callback.  A target that no longer exists is listed in `tracer.missing`
and its metrics read zero; installing never raises for it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []        # [name, parent index or None, start, end]
        self.counters = Counter()
        self.missing = []
        self._stack = []
        self._patches = []     # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def wrap(self, name, fn, on_call=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            idx = len(tracer.spans)
            tracer.spans.append([name, parent, tracer.clock(), None])
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                tracer.spans[idx][3] = tracer.clock()
            if on_call is not None:
                on_call(tracer.counters, args, kwargs, result)
            return result

        return traced

    def calls(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    def total(self, name):
        """Inclusive time of the spans called `name`."""
        return sum((s[3] - s[2] for s in self.spans if s[0] == name), 0.0)

    def self_times(self):
        """Per span name: duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for (name, _, start, end), inner in zip(self.spans, child_time):
            out[name] = out.get(name, 0.0) + (end - start) - inner
        return out

    def count_under(self, name, ancestor):
        """Spans called `name` that run inside a span called `ancestor`."""
        return sum(1 for s in self.spans
                   if s[0] == name and self._has_ancestor(s, ancestor))

    def _has_ancestor(self, span, name):
        parent = span[1]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][1]
        return False

    # -- hooks -------------------------------------------------------------

    def install(self, hooks):
        """hooks: iterable of (span name, module, attribute path, on_call).

        The attribute path is `func` or `Class.method`.  For a function,
        every loaded roundlab module that binds the same object gets the
        wrapper, so `from .mcf import tau_mcf` copies are traced too.
        """
        for name, module, path, on_call in hooks:
            try:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original, on_call)
            if outer:
                self._patch(owner, attr, original, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or mod_name.split(".")[0] != "roundlab":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# counter callbacks (read only arguments and results)

def _count_lp(counters, args, kwargs, result):
    rows = nnz = 0
    for key in ("A_ub", "A_eq"):
        mat = kwargs.get(key)
        if mat is not None:
            rows += mat.shape[0]
            nnz += mat.nnz
    counters["mcf.lp.rows"] += rows
    counters["mcf.lp.nnz"] += nnz
    if result.status == 2:
        counters["mcf.lp.infeasible"] += 1
    elif result.status != 0:
        counters["mcf.lp.failed"] += 1


def _count_unit_routing(counters, args, kwargs, result):
    if result is None:
        counters["mcf.route_unit_demands.misses"] += 1


def _count_sim(counters, args, kwargs, result):
    counters["sim.rounds"] += result.rounds
    counters["sim.bits"] += result.total_bits


HOOKS = (
    ("flownet.max_flow", "roundlab.flownet", "FlowNetwork.max_flow", None),
    ("timed.tau_route", "roundlab.timed", "tau_route", None),
    ("timed.max_route_flow", "roundlab.timed", "max_route_flow", None),
    ("timed.extract_level_vector", "roundlab.timed", "extract_level_vector",
     None),
    ("mcf.linprog", "roundlab.mcf", "linprog", _count_lp),
    ("mcf.mcf_feasible", "roundlab.mcf", "mcf_feasible", None),
    ("mcf.tau_mcf", "roundlab.mcf", "tau_mcf", None),
    ("mcf.route_bounded_demand", "roundlab.mcf", "route_bounded_demand",
     None),
    ("mcf.route_unit_demands", "roundlab.mcf", "route_unit_demands",
     _count_unit_routing),
    ("steiner.disjointness_bound", "roundlab.steiner", "disjointness_bound",
     None),
    ("steiner.pack_steiner_trees", "roundlab.steiner", "pack_steiner_trees",
     None),
    ("circuits.build_ed_circuit", "roundlab.circuits", "build_ed_circuit",
     None),
    ("protocols.compile_circuit", "roundlab.protocols", "compile_circuit",
     None),
    ("protocols.steiner_aggregate_protocol", "roundlab.protocols",
     "steiner_aggregate_protocol", None),
    ("sim.run_protocol", "roundlab.sim", "run_protocol", _count_sim),
    ("sim.replay_matches", "roundlab.sim", "replay_matches", None),
    ("sim.extract_two_party", "roundlab.sim", "extract_two_party", None),
    ("distgraph.edge_to_node_rebalance", "roundlab.distgraph",
     "edge_to_node_rebalance", None),
    ("distgraph.bfs_protocol", "roundlab.distgraph", "bfs_protocol", None),
    ("cli.main", "roundlab.cli", "main", None),
)


UNITS = {  # unit of each per-layer metric
    "flownet.max_flow.calls": "count",
    "flownet.max_flow.s": "s",
    "timed.net_build.s": "s",
    "timed.probes_per_query": "count",
    "mcf.lp.solves": "count",
    "mcf.lp.s": "s",
    "mcf.lp.assembly_s": "s",
    "mcf.lp.rows": "count",
    "mcf.lp.nnz": "count",
    "mcf.lp.infeasible": "count",
    "mcf.lp.failed": "count",
    "mcf.tau_mcf.calls": "count",
    "mcf.tau_mcf.s": "s",
    "mcf.lp_per_tau_mcf": "count",
    "mcf.route_bounded_demand.self_s": "s",
    "mcf.route_unit_demands.calls": "count",
    "mcf.route_unit_demands.misses": "count",
    "steiner.disjointness_bound.s": "s",
    "steiner.pack_steiner_trees.s": "s",
    "circuits.build_ed_circuit.s": "s",
    "protocols.compile_circuit.self_s": "s",
    "protocols.steiner_aggregate_protocol.s": "s",
    "sim.run_protocol.s": "s",
    "sim.replay_matches.s": "s",
    "sim.extract_two_party.s": "s",
    "sim.rounds_per_s": "1/s",
    "sim.bits": "count",
    "distgraph.edge_to_node_rebalance.s": "s",
    "distgraph.bfs_protocol.s": "s",
    "cli.self_s": "s",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """The per-layer figures of one traced pass, keyed by metric name."""
    t = tracer
    own = t.self_times()
    c = t.counters
    tau_mcf_calls = t.calls("mcf.tau_mcf")
    tau_route_calls = t.calls("timed.tau_route")
    sim_s = t.total("sim.run_protocol")
    return {
        "flownet.max_flow.calls": t.calls("flownet.max_flow"),
        "flownet.max_flow.s": t.total("flownet.max_flow"),
        "timed.net_build.s": sum(own.get(n, 0.0) for n in (
            "timed.tau_route", "timed.max_route_flow",
            "timed.extract_level_vector")),
        "timed.probes_per_query": _ratio(
            t.count_under("flownet.max_flow", "timed.tau_route"),
            tau_route_calls),
        "mcf.lp.solves": t.calls("mcf.linprog"),
        "mcf.lp.s": t.total("mcf.linprog"),
        "mcf.lp.assembly_s": own.get("mcf.mcf_feasible", 0.0),
        "mcf.lp.rows": c["mcf.lp.rows"],
        "mcf.lp.nnz": c["mcf.lp.nnz"],
        "mcf.lp.infeasible": c["mcf.lp.infeasible"],
        "mcf.lp.failed": c["mcf.lp.failed"],
        "mcf.tau_mcf.calls": tau_mcf_calls,
        "mcf.tau_mcf.s": t.total("mcf.tau_mcf"),
        "mcf.lp_per_tau_mcf": _ratio(
            t.count_under("mcf.linprog", "mcf.tau_mcf"), tau_mcf_calls),
        "mcf.route_bounded_demand.self_s": own.get(
            "mcf.route_bounded_demand", 0.0),
        "mcf.route_unit_demands.calls": t.calls("mcf.route_unit_demands"),
        "mcf.route_unit_demands.misses": c["mcf.route_unit_demands.misses"],
        "steiner.disjointness_bound.s": t.total("steiner.disjointness_bound"),
        "steiner.pack_steiner_trees.s": t.total("steiner.pack_steiner_trees"),
        "circuits.build_ed_circuit.s": t.total("circuits.build_ed_circuit"),
        "protocols.compile_circuit.self_s": own.get(
            "protocols.compile_circuit", 0.0),
        "protocols.steiner_aggregate_protocol.s": t.total(
            "protocols.steiner_aggregate_protocol"),
        "sim.run_protocol.s": sim_s,
        "sim.replay_matches.s": t.total("sim.replay_matches"),
        "sim.extract_two_party.s": t.total("sim.extract_two_party"),
        "sim.rounds_per_s": _ratio(c["sim.rounds"], sim_s),
        "sim.bits": c["sim.bits"],
        "distgraph.edge_to_node_rebalance.s": t.total(
            "distgraph.edge_to_node_rebalance"),
        "distgraph.bfs_protocol.s": t.total("distgraph.bfs_protocol"),
        "cli.self_s": own.get("cli.main", 0.0),
    }
