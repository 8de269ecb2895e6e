"""Golden CLI outputs: one invocation per subcommand on the benchmark
instances, compared byte for byte with the files under tests/golden/.

The instance files are written to a temporary directory; its path, which
`bench` and the CSV row echo, is replaced by ``<dir>`` before comparing.
Regenerate the expected files, after a change that is meant to alter an
output, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

import roundlab.cli as cli_mod
import roundlab.protocols as protocols_mod
from roundlab import graphs
from roundlab.circuits import build_ed_circuit, circuit_to_json
from roundlab.cli import main
from roundlab.distgraph import and_disj_instance, random_pair_strings

GOLDEN = Path(__file__).parent / "golden"

GRAPHS = {
    "intro": graphs.intro_split_graph(),
    "grid6": graphs.grid_graph(6, 6),
    "ring44": graphs.ring_of_cliques(4, 4),
    "rand12": graphs.random_connected_graph(12, 10, seed=1, k=4),
    "k2": graphs.clique(2),
    "k3": graphs.clique(3),
    "path3": graphs.path_graph(3),
}

# name -> argv; {name} stands for the path of fixture file `name`
CASES = {
    "tau-route-path3-800": "tau-route --graph {path3} --nprime 800",
    "tau-route-intro": "tau-route --graph {intro} --nprime 16",
    "tau-route-grid6": "tau-route --graph {grid6} --a 0 --b 35 --nprime 16",
    "tau-route-rand12": "tau-route --graph {rand12} --nprime 16",
    "tau-mcf-ring44": "tau-mcf --graph {ring44} --nprime 16",
    "tau-mcf-rand12": "tau-mcf --graph {rand12} --nprime 8",
    "tau-mcf-k3": "tau-mcf --graph {k3} --nprime 8",
    "st-pack-grid6-greedy": "st-pack --graph {grid6} --delta 10",
    "st-pack-ring44-greedy": "st-pack --graph {ring44} --delta 8",
    "disj-bound-grid6": "disj-bound --graph {grid6} --n 64",
    "disj-bound-ring44": "disj-bound --graph {ring44} --n 64",
    "disj-bound-intro": "disj-bound --graph {intro} --n 64",
    "disj-bound-rand12": "disj-bound --graph {rand12} --n 64",
    "run-disj-ring44": "run --graph {ring44} --protocol disj-aggregate --n 64",
    "run-disj-grid6": "run --graph {grid6} --protocol disj-aggregate --n 64",
    "run-disj-intro": "run --graph {intro} --protocol disj-aggregate --n 64",
    "run-disj-rand12-inputs":
        "run --graph {rand12} --protocol disj-aggregate --inputs {rand12_in}",
    "run-ed-k2": "run --graph {k2} --protocol ed-compiled --n 3",
    "run-ed-k3": "run --graph {k3} --protocol ed-compiled --n 3",
    "compile-k2": "compile --graph {k2} --circuit {ed21} --inputs {k2_in}",
    "ed-circuit": "ed-circuit --k 2 --m 1",
    "gen-and-disj": "gen --reduction and-disj --k 3 --n 2",
    "gen-or-disj": "gen --reduction or-disj --k 3 --n 2",
    "solve-ring44": "solve --variant connectivity --graph {ring44} "
                    "--instance {ring44_and_disj}",
    "solve-intro-components": "solve --variant components --graph {intro} "
                              "--instance {intro_and_disj}",
    "bench-disj-grid6": "bench --function disj --graph {grid6} --n 64",
    "bench-disj-ring44": "bench --function disj --graph {ring44} --n 64",
    "bench-disj-ring44-csv":
        "--format csv bench --function disj --graph {ring44} --n 64",
    "bench-ed-k2": "bench --function ed --graph {k2} --n 3",
}


def write_fixtures(workdir):
    """Write every instance file the cases name; returns {name: path}."""
    workdir = Path(workdir)
    files = {}

    def put(name, text):
        files[name] = str(workdir / name)
        (workdir / name).write_text(text)

    for key, g in GRAPHS.items():
        put(key, graphs.format_graph_text(g))
    rng = random.Random(0)
    put("rand12_in", json.dumps({str(t): [rng.randint(0, 1)
                                          for _ in range(16)]
                                 for t in GRAPHS["rand12"].terminals}))
    put("k2_in", json.dumps({"0": [1], "1": [0]}))
    circuit, _ = build_ed_circuit(2, 1)
    put("ed21", json.dumps(circuit_to_json(circuit)))
    for key, n in (("ring44", 1), ("intro", 2)):
        terms = GRAPHS[key].terminals
        inst = and_disj_instance(random_pair_strings(terms, n, seed=0),
                                 terms, n)
        put(f"{key}_and_disj", json.dumps(inst.to_json()))
    return files


def run_case(name, files, workdir):
    """The case's stdout with the fixture directory replaced by <dir>."""
    argv = CASES[name].format_map(files).split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, (name, code)
    return out.getvalue().replace(str(workdir), "<dir>")


def golden_path(name):
    suffix = ".csv" if "--format csv" in CASES[name] else ".json"
    return GOLDEN / (name + suffix)


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden")
    return write_fixtures(workdir), workdir


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_golden(name, fixtures):
    files, workdir = fixtures
    assert run_case(name, files, workdir) == golden_path(name).read_text()


@pytest.mark.parametrize("name", ["bench-ed-k2", "compile-k2", "run-ed-k2",
                                  "run-ed-k3"])
def test_ed_levels_route_at_twice_tau_mcf(name, fixtures, monkeypatch):
    # every routed level of the golden ED compiles routes on the one call
    # at 2 tau_MCF of its peak load, the horizon the compiler's search
    # probes first: a router that needs an escalation on this traffic
    # fails here by name, not through a golden diff
    files, workdir = fixtures
    taus, horizons, windows = set(), [], []
    tau_mcf, route = protocols_mod.tau_mcf, protocols_mod.route_unit_demands
    compile_circuit = cli_mod.compile_circuit

    def recording_tau_mcf(*args):
        answers = tau_mcf(*args)
        taus.update(answers.values())
        return answers

    def recording_route(g, pairs, horizon):
        routed = route(g, pairs, horizon)
        horizons.append((horizon, routed is not None))
        return routed

    def recording_compile(*args, **kwargs):
        proto = compile_circuit(*args, **kwargs)
        windows.extend(w for w in proto.meta["windows"] if w)
        return proto

    monkeypatch.setattr(protocols_mod, "tau_mcf", recording_tau_mcf)
    monkeypatch.setattr(protocols_mod, "route_unit_demands", recording_route)
    monkeypatch.setattr(cli_mod, "compile_circuit", recording_compile)
    run_case(name, files, workdir)
    assert windows
    assert horizons == [(window, True) for window in windows]
    assert all(window // 2 in taus and window % 2 == 0 for window in windows)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        found = write_fixtures(tmp)
        for case in sorted(CASES):
            golden_path(case).write_text(run_case(case, found, tmp))
            print(f"wrote {golden_path(case)}", file=sys.stderr)
