import csv
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from scipy.optimize import OptimizeResult, linprog

import roundlab.cli as cli_mod
import roundlab.mcf as mcf_mod
import roundlab.protocols as protocols_mod
import roundlab.steiner as steiner_mod
from roundlab.sim import ExtractionError
from roundlab import (
    clique, format_graph_text, grid_graph, parallel_edges,
    path_graph, random_connected_graph, ring_of_cliques,
)
from roundlab.circuits import (
    BooleanCircuit, Gate, build_ed_circuit, circuit_from_json, circuit_to_json,
)
from roundlab.cli import main
from roundlab.distgraph import (
    and_disj_instance, instance_from_json, random_pair_strings,
)

from oracles import disj_oracle, ed_oracle


def _write_graph(tmp_path, g, name="g.txt"):
    path = tmp_path / name
    path.write_text(format_graph_text(g))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def test_usage_without_command(capsys):
    assert main([]) == 3


def test_tau_mcf_clique_identity(tmp_path, capsys):
    path = _write_graph(tmp_path, clique(4))
    code, payload = _run(capsys, ["tau-mcf", "--graph", path,
                                  "--nprime", "8"])
    assert code == 0
    assert payload["tau_mcf"] == 2
    assert payload["seed"] == 0


def test_tau_route_single_edge(tmp_path, capsys):
    path = _write_graph(tmp_path, parallel_edges(1))
    code, payload = _run(capsys, ["tau-route", "--graph", path,
                                  "--nprime", "5"])
    assert code == 0 and payload["tau_route"] == 5


def test_tau_route_unreachable_exit_code(tmp_path, capsys):
    from roundlab import Graph
    g = Graph(3, ((0, 1),), (0, 2))
    path = _write_graph(tmp_path, g)
    code = main(["tau-route", "--graph", path, "--nprime", "1"])
    assert code == 2


@pytest.mark.parametrize("a, b, message", [
    ("0", "0", "endpoints must differ"),
    ("0", "9", "endpoint 9 out of range"),
    ("-1", "3", "endpoint -1 out of range"),
])
def test_tau_route_bad_endpoints_exit_code(tmp_path, capsys, a, b, message):
    path = _write_graph(tmp_path, path_graph(3))
    code = main(["tau-route", "--graph", path, "--a", a, "--b", b,
                 "--nprime", "5"])
    err = capsys.readouterr().err
    assert code == 3
    assert len(err.strip().splitlines()) == 1 and message in err


def test_disj_bound_single_terminal_exit_code(tmp_path, capsys):
    from roundlab import Graph
    path = _write_graph(tmp_path, Graph(3, ((0, 1), (1, 2)), (1,)))
    assert main(["disj-bound", "--graph", path, "--n", "4"]) == 3
    assert "at least two terminals" in capsys.readouterr().err


def test_disj_aggregate_packs_once(tmp_path, capsys, monkeypatch):
    # one greedy packing per delta at or above the terminal diameter (4 on
    # ring44), none repeated for the protocol
    deltas = []
    real = steiner_mod._pack_greedy

    def counting(g, terms, delta, scans):
        deltas.append(delta)
        return real(g, terms, delta, scans)

    monkeypatch.setattr(steiner_mod, "_pack_greedy", counting)
    path = _write_graph(tmp_path, ring_of_cliques(4, 4))
    code, payload = _run(capsys, ["run", "--graph", path, "--protocol",
                                  "disj-aggregate", "--n", "16"])
    assert code == 0
    assert deltas == list(range(4, 17))


def test_input_error_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a graph\n")
    assert main(["tau-mcf", "--graph", str(bad), "--nprime", "1"]) == 3
    assert main(["tau-mcf", "--graph", str(tmp_path / "missing.txt"),
                 "--nprime", "1"]) == 3


def test_st_pack_and_disj_bound(tmp_path, capsys):
    path = _write_graph(tmp_path, parallel_edges(4))
    code, payload = _run(capsys, ["st-pack", "--graph", path,
                                  "--delta", "1"])
    assert code == 0 and payload["value"] == 4
    # the greedy packing is the only one, so st-pack takes no --mode
    assert main(["st-pack", "--graph", path, "--delta", "1",
                 "--mode", "greedy"]) == 3
    code, payload = _run(capsys, ["disj-bound", "--graph", path,
                                  "--n", "4"])
    assert code == 0 and payload["bound"] == 2


def test_gen_solve_roundtrip(tmp_path, capsys):
    gpath = _write_graph(tmp_path, clique(3))
    inst_path = str(tmp_path / "inst.json")
    code = main(["--out", inst_path, "gen", "--reduction", "and-disj",
                 "--k", "3", "--n", "2"])
    assert code == 0
    with open(inst_path) as fh:
        written = json.load(fh)
    inst = instance_from_json(written)
    assert written["n_h"] == inst.num_vertices
    assert written["out"] == inst_path
    code, printed = _run(capsys, ["gen", "--reduction", "and-disj",
                                  "--k", "3", "--n", "2"])
    assert code == 0 and instance_from_json(printed) == inst
    code, solved = _run(capsys, ["solve", "--variant", "connectivity",
                                 "--graph", gpath, "--instance", inst_path])
    assert code == 0
    assert solved["answer"] == solved["oracle"]


def test_ed_circuit_emission(tmp_path, capsys):
    out = str(tmp_path / "c.json")
    code = main(["--out", out, "ed-circuit", "--k", "2", "--m", "1"])
    assert code == 0 and capsys.readouterr().out == ""
    with open(out) as fh:
        written = json.load(fh)
    circ, pos = build_ed_circuit(2, 1)
    assert circuit_from_json(written) == circ
    assert written["output_pos"] == pos and written["depth"] == circ.depth


def test_compile_command(tmp_path, capsys):
    gpath = _write_graph(tmp_path, clique(2))
    cpath = str(tmp_path / "c.json")
    code = main(["ed-circuit", "--k", "2", "--m", "1", "--out", cpath])
    # --out is a global option: after the subcommand argparse rejects it,
    # and main reports the usage error as an input error
    assert code == 3
    code = main(["--out", cpath, "ed-circuit", "--k", "2", "--m", "1"])
    assert code == 0
    with open(cpath) as fh:
        pos = json.load(fh)["output_pos"]
    inputs = {"0": [1], "1": [0]}
    (tmp_path / "in.json").write_text(json.dumps(inputs))
    code, payload = _run(capsys, ["compile", "--graph", gpath,
                                  "--circuit", cpath,
                                  "--inputs", str(tmp_path / "in.json"),
                                  "--output-pos", str(pos)])
    assert code == 0
    assert set(payload["outputs"].values()) == {1}


def test_compile_overloaded_assignment_exit_code(tmp_path, capsys,
                                                monkeypatch):
    # ten AND gates over 20 inputs on K20, the draw stubbed to put every
    # gate on terminal 0: level 0's load 20 stays within its threshold 21,
    # level 1's 10 gates plus 20 inputs do not
    class FirstTerminal:
        def randrange(self, k):
            return 0

    monkeypatch.setattr(protocols_mod, "random",
                        SimpleNamespace(Random=lambda seed: FirstTerminal()))
    inputs = tuple(Gate("CONST", ()) for _ in range(20))
    ands = tuple(Gate("AND", (2 * i, 2 * i + 1)) for i in range(10))
    circuit = BooleanCircuit(1, 20, (inputs, ands))
    message = ("gate assignment overloads level 1: peak load 30 past its "
               "threshold 21")
    g = clique(20)
    with pytest.raises(protocols_mod.CompileError, match=f"^{message}$"):
        protocols_mod.compile_circuit(g, g.terminals, circuit, seed=0)
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps(circuit_to_json(circuit)))
    assert main(["compile", "--graph", _write_graph(tmp_path, g),
                 "--circuit", str(cpath)]) == 4
    assert capsys.readouterr().err == f"contract violation: {message}\n"


@pytest.mark.parametrize("argv", [
    ["tau-mcf", "--graph", "g", "--nprime", "1", "--seed", "3"],
    ["no-such-command"],
    ["tau-mcf"],
    ["tau-mcf", "--graph", "g", "--nprime", "one"],
])
def test_usage_error_exit_code(argv, capsys):
    assert main(argv) == 3
    assert "usage:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_one_parser_serves_every_command(tmp_path, capsys):
    # main parses with one parser per process: after a successful command
    # a usage error still exits 3 and --help 0, the options of one command
    # do not carry into the next, and a command run again writes the same
    # bytes
    path = _write_graph(tmp_path, clique(3))
    out = tmp_path / "out.csv"
    argv = ["--seed", "5", "--format", "csv", "--out", str(out),
            "disj-bound", "--graph", path, "--n", "6"]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(["tau-mcf", "--graph", path, "--nprime", "one"]) == 3
    assert "usage:" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out
    code, payload = _run(capsys, ["tau-mcf", "--graph", path,
                                  "--nprime", "3"])
    assert code == 0 and payload["seed"] == 0 and payload["tau_mcf"] == 1
    out.unlink()
    assert main(argv) == 0
    assert out.read_bytes() == first
    assert cli_mod.build_parser() is cli_mod.build_parser()


def test_integral_fractions_are_json_integers(tmp_path, capsys):
    path = _write_graph(tmp_path, parallel_edges(4))
    code, payload = _run(capsys, ["disj-bound", "--graph", path, "--n", "4"])
    assert code == 0 and payload["bound"] == 2
    assert type(payload["bound"]) is int
    code, payload = _run(capsys, ["bench", "--function", "disj",
                                  "--graph", path, "--n", "4"])
    assert code == 0 and payload["bound"] == 2
    assert type(payload["bound"]) is int
    code = main(["--format", "csv", "bench", "--function", "disj",
                 "--graph", path, "--n", "4"])
    row = dict(zip(*(line.split(",") for line
                     in capsys.readouterr().out.splitlines())))
    assert code == 0 and row["bound"] == "2"


def test_non_integral_fractions_stay_strings(tmp_path, capsys):
    path = _write_graph(tmp_path, parallel_edges(3))
    code, payload = _run(capsys, ["disj-bound", "--graph", path, "--n", "4"])
    assert code == 0 and payload["bound"] == "7/3"
    code, payload = _run(capsys, ["bench", "--function", "disj",
                                  "--graph", path, "--n", "4"])
    assert code == 0 and payload["ratio"] == "12/7"


def test_bench_disj_parallel_bundle(tmp_path, capsys):
    g = parallel_edges(4)
    gpath = _write_graph(tmp_path, g)
    code, payload = _run(capsys, ["bench", "--function", "disj",
                                  "--graph", gpath, "--n", "4"])
    assert code == 0
    assert payload["bound"] == 2
    assert payload["rounds"] >= 1
    assert payload["audited"] is True


def test_bench_ed_small_clique(tmp_path, capsys):
    gpath = _write_graph(tmp_path, clique(2))
    code, payload = _run(capsys, ["bench", "--function", "ed",
                                  "--graph", gpath, "--n", "3"])
    assert code == 0
    assert payload["bound_kind"] == "tau_mcf(G,K,1)"


def _count_bench_ed_lps(tmp_path, capsys, monkeypatch, g, rounds):
    """HiGHS solves of one `bench --function ed` run on `g` with n = 3,
    which takes `rounds` rounds."""
    solves = []

    def counting_linprog(*args, **kwargs):
        solves.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(mcf_mod, "linprog", counting_linprog)
    gpath = _write_graph(tmp_path, g)
    code, payload = _run(capsys, ["bench", "--function", "ed",
                                  "--graph", gpath, "--n", "3"])
    assert code == 0 and payload["rounds"] == rounds
    return len(solves)


def test_bench_ed_lp_solve_count(tmp_path, capsys, monkeypatch):
    # on K2 every tau_mcf answer, the compiler's routed levels and the
    # reported bound alike, is the two-terminal flow bound, which is exact:
    # no HiGHS solve (7 when the LP searched from that bound, 46 with
    # blind doubling)
    assert _count_bench_ed_lps(tmp_path, capsys, monkeypatch,
                               clique(2), 148) == 0


def test_bench_ed_lp_count_is_independent_of_history(tmp_path, capsys,
                                                      monkeypatch):
    # tau_mcf keeps nothing between calls, so a second run in the same
    # process solves the same LPs (a process-wide answer ledger once made
    # it 9, then 0); K3, where the LP decides, solves 11
    first = _count_bench_ed_lps(tmp_path, capsys, monkeypatch, clique(3), 730)
    assert _count_bench_ed_lps(tmp_path, capsys, monkeypatch,
                               clique(3), 730) == first > 0


def test_solve_edge_mode_solves_no_lp(tmp_path, capsys, monkeypatch):
    # an edge-mode instance is placed on a random node distribution; no
    # routing, and so no LP, is computed for that move
    def no_lp(*args, **kwargs):
        raise AssertionError("solve solved an LP")

    monkeypatch.setattr(mcf_mod, "linprog", no_lp)
    g = ring_of_cliques(4, 4)
    gpath = _write_graph(tmp_path, g)
    inst = and_disj_instance(random_pair_strings(g.terminals, 1, seed=0),
                             g.terminals, 1)
    assert inst.mode == "edge"
    ipath = tmp_path / "inst.json"
    ipath.write_text(json.dumps(inst.to_json()))
    code, payload = _run(capsys, ["solve", "--variant", "connectivity",
                                  "--graph", gpath, "--instance", str(ipath)])
    assert code == 0 and payload["answer"] == payload["oracle"]


@pytest.mark.parametrize("status,exit_code", [(1, 4), (4, 4), (2, 2)])
def test_lp_status_exit_codes(tmp_path, capsys, monkeypatch, status,
                              exit_code):
    # a solver failure is a contract violation (4); only HiGHS status 2
    # reads as infeasible (2)
    monkeypatch.setattr(mcf_mod, "linprog", lambda *a, **kw: OptimizeResult(
        status=status, message="solver gave up", x=None))
    path = _write_graph(tmp_path, clique(3))
    assert main(["tau-mcf", "--graph", path, "--nprime", "2"]) == exit_code
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    if exit_code == 4:
        assert f"HiGHS status {status}" in err


def test_csv_format(tmp_path, capsys):
    gpath = _write_graph(tmp_path, parallel_edges(4))
    code = main(["--format", "csv", "bench", "--function", "disj",
                 "--graph", gpath, "--n", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == ("instance,k,n,bound_kind,bound,rounds,ratio,seed\n"
                   f"{gpath},2,4,min_delta(n/ST+delta),2,3,3/2,0\n")


def test_reproducibility(tmp_path, capsys):
    gpath = _write_graph(tmp_path, clique(3))
    code1, p1 = _run(capsys, ["--seed", "7", "bench", "--function", "disj",
                              "--graph", gpath, "--n", "6"])
    code2, p2 = _run(capsys, ["--seed", "7", "bench", "--function", "disj",
                              "--graph", gpath, "--n", "6"])
    assert code1 == code2 == 0
    assert p1 == p2


def test_tau_route_past_recursion_ceiling_cli(tmp_path, capsys):
    path = _write_graph(tmp_path, path_graph(3))
    code, payload = _run(capsys, ["tau-route", "--graph", path,
                                  "--nprime", "800"])
    assert code == 0 and payload["tau_route"] == 802


def test_tau_route_huge_nprime_cli(tmp_path, capsys):
    # corner to corner on grid 6x6 the static flow has two paths of length
    # 10, so tau_route = ceil((n' + 20) / 2) - 1; the timed network at
    # that horizon would have 780 million arcs
    path = _write_graph(tmp_path, grid_graph(6, 6))
    code, payload = _run(capsys, ["tau-route", "--graph", path,
                                  "--nprime", "10000000"])
    assert code == 0 and payload["tau_route"] == 5_000_009


def test_tau_mcf_huge_nprime_exit_code(tmp_path, capsys):
    # the base-cut bound is 375,000,000; the flow bound, read off static
    # flows with no timed network, lifts it to 375,000,004 (each corner
    # sends 750,000,000 units over two paths of length 5), where the first
    # LP's timed network meets the arc ceiling before allocating (an LP of
    # that size asked numpy for 2.8 GiB and escaped as a raw MemoryError
    # traceback with exit 1)
    path = _write_graph(tmp_path, grid_graph(6, 6))
    code = main(["tau-mcf", "--graph", path, "--nprime", "1000000000"])
    err = capsys.readouterr().err
    assert code == 3
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert "m=60" in err and "tau=375000004" in err
    assert "58500000624 arcs" in err


def test_two_terminal_tau_mcf_has_no_arc_ceiling(tmp_path, capsys,
                                                  monkeypatch):
    # on K2 the answer is the flow bound, read off one static flow, so no
    # LP is probed or laid out; the LP's network would have 2 * 10**9
    # arcs, past the ceiling (exit 3)
    def no_network(*args):
        raise AssertionError("probed or laid out an LP")

    monkeypatch.setattr(mcf_mod, "mcf_feasible", no_network)
    monkeypatch.setattr(mcf_mod.ArcLP, "of", no_network)
    path = _write_graph(tmp_path, clique(2))
    code, payload = _run(capsys, ["tau-mcf", "--graph", path,
                                  "--nprime", "1000000000"])
    assert code == 0 and payload["tau_mcf"] == 500_000_000


def test_tau_mcf_mid_nprime_exit_code(tmp_path, capsys):
    # at n' = 10**7 the flow bound puts tau at 3,750,004; the network's
    # 585,000,624 arcs pass the arc ceiling, which stops the first LP
    # before allocating (laying its arcs out asked numpy for 4.36 GiB and
    # escaped as a raw traceback with exit 1)
    path = _write_graph(tmp_path, grid_graph(6, 6))
    code = main(["tau-mcf", "--graph", path, "--nprime", "10000000"])
    err = capsys.readouterr().err
    assert code == 3
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert "m=60" in err and "tau=3750004" in err and "585000624" in err


def test_extraction_error_exit_code(tmp_path, capsys, monkeypatch):
    def unknown_bit(*args, **kwargs):
        raise ExtractionError((0, 1, 0, 3))

    monkeypatch.setattr(cli_mod, "run_protocol", unknown_bit)
    path = _write_graph(tmp_path, clique(2))
    code = main(["run", "--graph", path, "--protocol", "ed-compiled"])
    err = capsys.readouterr().err
    assert code == 4
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert "unknown bit (0->1, edge 0, round 3)" in err


@pytest.mark.parametrize("delta,value,trees", [(1199, 0, 0), (1200, 1, 1)])
def test_st_pack_at_desk_scale(tmp_path, capsys, delta, value, trees):
    # the terminals of path_graph(1200) are 1200 hops apart: below that no
    # centre fits, at it the whole path is the one tree
    path = _write_graph(tmp_path, path_graph(1200))
    code, payload = _run(capsys, ["st-pack", "--graph", path, "--delta",
                                  str(delta)])
    assert code == 0
    assert payload["value"] == value and len(payload["trees"]) == trees
    assert all(t["diameter"] == 1200 for t in payload["trees"])


def test_csv_nested_values_are_json_cells(capsys):
    code = main(["--format", "csv", "ed-circuit", "--k", "2", "--m", "1"])
    assert code == 0
    rows = dict(csv.reader(capsys.readouterr().out.splitlines()))
    circuit, pos = build_ed_circuit(2, 1)
    assert json.loads(rows["levels"]) == circuit_to_json(circuit)["levels"]
    assert rows["command"] == "ed-circuit"
    assert rows["output_pos"] == str(pos)


@pytest.mark.parametrize("protocol,g,bits", [
    ("disj-aggregate", ring_of_cliques(4, 4),
     {0: [1, 0, 1], 4: [1, 1, 0], 8: [1, 0, 1], 12: [1, 1, 1]}),
    ("disj-aggregate", ring_of_cliques(4, 4),
     {0: [1, 0, 1], 4: [1, 1, 0], 8: [0, 0, 1], 12: [1, 1, 1]}),
    ("ed-compiled", clique(2), {0: [1, 0, 1], 1: [1, 0, 1]}),
    ("ed-compiled", clique(3), {0: [1, 0], 1: [0, 1], 2: [1, 1]}),
])
def test_run_with_inputs_file(tmp_path, capsys, protocol, g, bits):
    gpath = _write_graph(tmp_path, g)
    ipath = tmp_path / "in.json"
    ipath.write_text(json.dumps({str(t): b for t, b in bits.items()}))
    code, payload = _run(capsys, ["run", "--graph", gpath, "--protocol",
                                  protocol, "--inputs", str(ipath)])
    xs = [tuple(bits[t]) for t in sorted(bits)]
    oracle = disj_oracle if protocol == "disj-aggregate" else ed_oracle
    assert code == 0 and payload["protocol"] == protocol
    assert payload["outputs"] == {str(t): oracle(xs) for t in g.terminals}
    assert payload["rounds"] >= 1 and payload["total_bits"] > 0


@pytest.mark.parametrize("raw,message", [
    ({"0": [1, 0], "1": [1]}, "terminal 1 has 1 bits, terminal 0 has 2"),
    ({"0": [1, 0, 0], "1": [1, 0]}, "terminal 1 has 2 bits, terminal 0 has 3"),
    ({"0": [1, 2], "1": [1, 0]}, "terminal 0: expected a nonempty list"),
    ({"0": [True, False], "1": [0, 1]}, "terminal 0: expected"),
    ({"0": [], "1": []}, "terminal 0: expected a nonempty list"),
    ({"0": 5, "1": [1]}, "terminal 0: expected a nonempty list"),
    ([[1, 0], [1, 0]], "must be a JSON object"),
    ({"0": [1, 0]}, "covers terminals [0], the graph's are [0, 1]"),
    ({}, "covers terminals []"),
    ({"a": [1], "1": [0]}, "key 'a' is not a terminal"),
    ({"0": [1], "00": [0], "1": [1]}, "names terminal 0 twice"),
], ids=["unequal", "ed-prefix", "entry-2", "bools", "empty", "not-a-list",
        "top-level-list", "missing-terminal", "no-terminal", "bad-key",
        "twice"])
@pytest.mark.parametrize("command", ["disj-aggregate", "ed-compiled",
                                     "compile"])
def test_malformed_inputs_exit_code(tmp_path, capsys, raw, message,
                                    command):
    gpath = _write_graph(tmp_path, clique(2))
    ipath = tmp_path / "in.json"
    ipath.write_text(json.dumps(raw))
    if command == "compile":
        cpath = str(tmp_path / "c.json")
        assert main(["--out", cpath, "ed-circuit", "--k", "2",
                     "--m", "2"]) == 0
        argv = ["compile", "--graph", gpath, "--circuit", cpath]
    else:
        argv = ["run", "--graph", gpath, "--protocol", command]
    code = main(argv + ["--inputs", str(ipath)])
    err = capsys.readouterr().err
    assert code == 3 and "Traceback" not in err
    assert "--inputs" in err and message in err


@pytest.mark.parametrize("bits", [[1], [1, 0, 1]])
def test_compile_inputs_of_wrong_width_exit_code(tmp_path, capsys, bits):
    # a 2-bit ED circuit on K2: one bit raised a raw IndexError, and three
    # ran with the third bit ignored
    gpath = _write_graph(tmp_path, clique(2))
    cpath, ipath = str(tmp_path / "c.json"), tmp_path / "in.json"
    assert main(["--out", cpath, "ed-circuit", "--k", "2", "--m", "2"]) == 0
    ipath.write_text(json.dumps({"0": bits, "1": bits}))
    code = main(["compile", "--graph", gpath, "--circuit", cpath,
                 "--inputs", str(ipath)])
    err = capsys.readouterr().err
    assert code == 3 and "Traceback" not in err
    assert f"--inputs gives {len(bits)} bits per terminal" in err


@pytest.mark.parametrize("protocol,g", [
    ("disj-aggregate", grid_graph(3, 3)),
    ("ed-compiled", clique(2)),
])
def test_run_with_random_inputs(tmp_path, capsys, protocol, g):
    gpath = _write_graph(tmp_path, g)
    code, payload = _run(capsys, ["--seed", "5", "run", "--graph", gpath,
                                  "--protocol", protocol, "--n", "6"])
    assert code == 0
    rng = random.Random("5:inputs")
    xs = [tuple(rng.randint(0, 1) for _ in range(6)) for _ in g.terminals]
    oracle = disj_oracle if protocol == "disj-aggregate" else ed_oracle
    assert set(payload["outputs"].values()) == {oracle(xs)}
    assert payload["seed"] == 5


def test_run_max_rounds(tmp_path, capsys):
    gpath = _write_graph(tmp_path, grid_graph(3, 3))
    argv = ["run", "--graph", gpath, "--protocol", "disj-aggregate",
            "--n", "6"]
    code, full = _run(capsys, argv)
    assert code == 0
    code, capped = _run(capsys, argv + ["--max-rounds", str(full["rounds"])])
    assert code == 0 and capped == full
    assert main(argv + ["--max-rounds", "0"]) == 2
    assert "within 0 rounds" in capsys.readouterr().err
    assert main(argv + ["--max-rounds", "-1"]) == 3
    assert "max_rounds" in capsys.readouterr().err


def test_run_unknown_protocol_exit_code(tmp_path, capsys):
    gpath = _write_graph(tmp_path, clique(2))
    code = main(["run", "--graph", gpath, "--protocol", "no-such"])
    err = capsys.readouterr().err
    assert code == 3 and "unknown protocol 'no-such'" in err


def test_unroutable_level_exit_code(tmp_path, capsys, monkeypatch):
    # a level that routes at no horizon up to its search's cutoff is an
    # infeasible instance
    monkeypatch.setattr(protocols_mod, "route_unit_demands",
                        lambda g, pairs, horizon: None)
    gpath = _write_graph(tmp_path, clique(2))
    code = main(["run", "--graph", gpath, "--protocol", "ed-compiled",
                 "--n", "3"])
    err = capsys.readouterr().err
    assert code == 2 and "routing exceeded cutoff" in err


def test_bench_oracle_disagreement_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli_mod, "disj_oracle",
                        lambda xs: 1 - disj_oracle(xs))
    gpath = _write_graph(tmp_path, parallel_edges(4))
    code = main(["bench", "--function", "disj", "--graph", gpath,
                 "--n", "4"])
    err = capsys.readouterr().err
    assert code == 4 and "oracle says" in err and "Traceback" not in err


@pytest.mark.parametrize("argv,message", [
    (["--reduction", "or-disj", "--k", "0", "--n", "2"], "k >= 2"),
    (["--reduction", "or-disj", "--k", "1", "--n", "2"], "k >= 2"),
    (["--reduction", "or-disj", "--k", "-1", "--n", "2"], "k >= 2"),
    (["--reduction", "and-disj", "--k", "3", "--n", "-1"], "n >= 1"),
    (["--reduction", "and-disj", "--k", "3", "--n", "0"], "n >= 1"),
], ids=["or-k0", "or-k1", "or-k-1", "and-n-1", "and-n0"])
def test_gen_rejects_degenerate_sizes(tmp_path, capsys, argv, message):
    out = tmp_path / "inst.json"
    code = main(["--out", str(out), "gen", *argv])
    err = capsys.readouterr().err
    assert code == 3 and message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--protocol", "ed-compiled", "--n", "0"],
    ["bench", "--function", "ed", "--n", "-2"],
    ["run", "--protocol", "disj-aggregate", "--n", "0"],
], ids=["run-ed", "bench-ed", "run-disj"])
def test_ed_and_disj_reject_empty_inputs(tmp_path, capsys, argv):
    gpath = _write_graph(tmp_path, clique(2))
    code = main([*argv, "--graph", gpath])
    err = capsys.readouterr().err
    assert code == 3 and "n_bits must be >= 1" in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_flow_commands_import_no_csgraph(tmp_path):
    # every flow is read off static flows and the LP is HiGHS, so neither
    # tau-mcf nor tau-route loads scipy's graph algorithms
    gpath = _write_graph(tmp_path, grid_graph(6, 6))
    script = (
        "import sys\n"
        "from roundlab.cli import main\n"
        "out, graph = sys.argv[1:]\n"
        "assert main(['--out', out, 'tau-mcf', '--graph', graph,\n"
        "             '--nprime', '32']) == 0\n"
        "assert main(['--out', out, 'tau-route', '--graph', graph,\n"
        "             '--nprime', '16']) == 0\n"
        "print('scipy.sparse.csgraph' in sys.modules)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "out.json"), gpath],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("output_pos", ["99", "-1"])
def test_compile_output_pos_out_of_range(tmp_path, capsys, output_pos):
    # the ED circuit's output level has one gate: 99 escaped as a raw
    # IndexError and -1 silently compiled the last gate
    gpath = _write_graph(tmp_path, clique(2))
    cpath = str(tmp_path / "c.json")
    assert main(["--out", cpath, "ed-circuit", "--k", "2", "--m", "2"]) == 0
    capsys.readouterr()
    code = main(["compile", "--graph", gpath, "--circuit", cpath,
                 "--output-pos", output_pos])
    err = capsys.readouterr().err
    assert code == 3 and "Traceback" not in err
    assert f"output_pos {output_pos} is not in [0, 1)" in err


@pytest.mark.parametrize("patch", [
    lambda obj: [1, 2],
    lambda obj: {**obj, "H": {**obj["H"], "edges": None}},
    lambda obj: {**obj, "terminals": 5},
], ids=["list", "null-edges", "int-terminals"])
def test_malformed_instance_exit_code(tmp_path, capsys, patch):
    # each escaped as a raw TypeError with exit 1
    g = clique(2)
    gpath = _write_graph(tmp_path, g)
    inst = and_disj_instance(random_pair_strings(g.terminals, 1, seed=0),
                             g.terminals, 1)
    ipath = tmp_path / "inst.json"
    ipath.write_text(json.dumps(patch(inst.to_json())))
    code = main(["solve", "--variant", "connectivity", "--graph", gpath,
                 "--instance", str(ipath)])
    err = capsys.readouterr().err
    assert code == 3 and "Traceback" not in err
    assert "malformed instance JSON" in err


@pytest.mark.parametrize("h,mode,assignment,terminals,message", [
    ({"n": -1, "edges": []}, "node", {}, [0, 1],
     "H vertex count n must be >= 0"),
    ({"n": 3, "edges": [[0, 1, 2]]}, "edge", [0], [0, 1],
     "H edge [0, 1, 2] is not a vertex pair"),
    ({"n": 3, "edges": [[0, 1.5]]}, "edge", [0], [0, 1],
     "H edge [0, 1.5] has a non-integer vertex"),
    ({"n": 2.7, "edges": [[0, 1]]}, "edge", [0], [0, 1],
     "H vertex count n must be an integer, got 2.7"),
    ({"n": 2, "edges": [[0, 1]]}, "node", {"0": 0, "1": True}, [0, 1],
     "owner True is not an integer"),
    ({"n": 2, "edges": [[0, 1]]}, "edge", [0], [0, 1.0],
     "instance terminal 1.0 is not an integer"),
    ({"n": 2, "edges": [[0, 1]]}, "node", {"0": 0, "1.5": 1}, [0, 1],
     "assignment key '1.5' is not an integer vertex"),
], ids=["negative-n", "edge-triple", "float-vertex", "float-n", "bool-owner",
        "float-terminal", "float-assignment-key"])
def test_invalid_instance_field_exit_code(tmp_path, capsys, h, mode,
                                          assignment, terminals, message):
    # each exited 3 naming neither field nor edge ("math domain error"
    # from the flooding's log2, "too many values to unpack (expected 2)",
    # a bare "1.5" from a KeyError), or was solved with exit 0: n = 2.7 as
    # a 2-vertex H, and True or 1.0 as terminal 1
    gpath = _write_graph(tmp_path, clique(2))
    ipath = tmp_path / "inst.json"
    ipath.write_text(json.dumps({"H": h, "mode": mode,
                                 "assignment": assignment,
                                 "terminals": terminals}))
    code = main(["solve", "--variant", "connectivity", "--graph", gpath,
                 "--instance", str(ipath)])
    err = capsys.readouterr().err
    assert code == 3 and "Traceback" not in err
    assert message in err


@pytest.mark.parametrize("graph,message", [
    ({"n": 3, "edges": [[0, 1], [0, 1.5]], "terminals": [0, 1]},
     "edge [0, 1.5] has a non-integer vertex"),
    ({"n": 3, "edges": [[0, 1], [1, 2]], "terminals": [0, 1.5]},
     "terminal 1.5 is not an integer"),
    ({"n": 2.7, "edges": [[0, 1]], "terminals": [0, 1]},
     "vertex count n must be an integer, got 2.7"),
], ids=["float-vertex", "float-terminal", "float-n"])
@pytest.mark.parametrize("argv", [["tau-route", "--nprime", "1"],
                                  ["disj-bound", "--n", "4"]],
                         ids=["tau-route", "disj-bound"])
def test_non_integer_graph_exit_code(tmp_path, capsys, graph, message, argv):
    # a float vertex escaped as a raw TypeError (list indices must be
    # integers), and n = 2.7 was truncated to 2 and exited 0
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(graph))
    code = main(argv[:1] + ["--graph", str(gpath)] + argv[1:])
    err = capsys.readouterr().err
    assert code == 3 and "Traceback" not in err
    assert message in err


@pytest.mark.parametrize("field,value", [("n", 1.9), ("k", 2.2)])
def test_non_integer_circuit_size_exit_code(tmp_path, capsys, field, value):
    # both were truncated by int(), and the circuit compiled with exit 0
    gpath = _write_graph(tmp_path, clique(2))
    obj = circuit_to_json(build_ed_circuit(2, 1)[0])
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps({**obj, field: value}))
    code = main(["compile", "--graph", gpath, "--circuit", str(cpath)])
    err = capsys.readouterr().err
    assert code == 3 and "Traceback" not in err
    assert f"circuit {field} must be an integer, got {value}" in err


def test_non_integer_gate_input_exit_code(tmp_path, capsys):
    # escaped as "malformed circuit JSON: list indices must be integers or
    # slices, not float", naming neither the gate nor its level
    gpath = _write_graph(tmp_path, clique(2))
    obj = circuit_to_json(build_ed_circuit(2, 1)[0])
    gate = obj["levels"][1][0]
    gate["inputs"] = [0.5] + gate["inputs"][1:]
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps(obj))
    code = main(["compile", "--graph", gpath, "--circuit", str(cpath)])
    err = capsys.readouterr().err
    assert code == 3 and "Traceback" not in err
    assert "level 1 gate 0 has a non-integer input 0.5" in err


def test_solve_edge_instance_for_other_terminals_exit_code(tmp_path, capsys):
    # an edge-mode instance for terminals 0, 1, 2 on a graph whose
    # terminals are 0, 4, 8, 12 once solved with its owners dropped
    inst_path = str(tmp_path / "inst.json")
    assert main(["--out", inst_path, "gen", "--reduction", "and-disj",
                 "--k", "3", "--n", "2"]) == 0
    gpath = _write_graph(tmp_path, ring_of_cliques(4, 4))
    code = main(["solve", "--variant", "connectivity", "--graph", gpath,
                 "--instance", inst_path])
    err = capsys.readouterr().err
    assert code == 3 and "Traceback" not in err
    assert "input terminals do not match" in err


def test_graph_rows_disagreeing_with_header_exit_code(tmp_path, capsys):
    # the second edge row was read as the terminal row, so tau-route
    # reported the real terminals disconnected (exit 2)
    path = tmp_path / "g.txt"
    path.write_text("graph 3 1 2\n0 1\n1 2\n0 2\n")
    code = main(["tau-route", "--graph", str(path), "--nprime", "1"])
    err = capsys.readouterr().err
    assert code == 3 and "1 edges need 3 rows, got 4" in err


@pytest.mark.parametrize("where", ["graph-is-a-directory",
                                   "out-in-missing-directory"])
def test_file_errors_exit_code(tmp_path, capsys, where):
    # each escaped as a raw OSError with exit 1
    gpath = _write_graph(tmp_path, clique(2))
    if where == "graph-is-a-directory":
        argv = ["tau-route", "--graph", str(tmp_path), "--nprime", "1"]
    else:
        argv = ["--out", str(tmp_path / "missing" / "x.json"), "tau-route",
                "--graph", gpath, "--nprime", "1"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("input error: ")
    assert "Traceback" not in captured.err
