"""Transcript pins: a sha256 over every round's bits and the outputs of
CLI runs whose golden files record only per-edge counts (`run`,
`compile`), or that no golden file covers.  `run-disj-intro` pins the
k = 2 DISJ aggregation, the protocol that the `route` benchmark's cut
certificate runs.  The `solve` cases pin all four flooding variants:
`components` on the and-disj instance takes the restart path, and
`acyclicity` on an or-disj instance stops early on a duplicate token.
No CLI path builds a count-encoded aggregation, so `test_protocols.py`
pins that one with the same digest.

Each case runs the CLI as the golden set or the `mcf` benchmark
workload does, with `run_protocol` wrapped to keep the transcript; the
digest covers each round's sorted (tail, head, edge_id) -> bit items,
then the sorted outputs.  A refactor of a protocol must leave them
unchanged.
"""

import hashlib
import json
import random

import pytest

import roundlab.cli as cli_mod
from roundlab import (
    clique, format_graph_text, grid_graph, intro_split_graph, ring_of_cliques)
from roundlab.circuits import build_ed_circuit, circuit_to_json
from roundlab.distgraph import (
    and_disj_instance, or_disj_instance, random_pair_strings)
from roundlab.sim import run_protocol

# the mcf workload's and-disj instances: string length and string source
AND_DISJ_N = 4
AND_DISJ_RNG = "perfbench:mcf:0"

# name -> (rounds, total bits, sha256 of the transcript)
PINS = {
    "run-disj-intro": (18, 218,
        "0e58a14d713659527031584704d47e636b5cfa1c408973073906e4d2a85b4ab8"),
    "compile-k2": (32, 32,
        "fb75c0788eb610cfcb3a5171bd07f6324b2f2ab0cf522acd5046606c4420f966"),
    "run-ed-k2": (148, 214,
        "b150afc61ee54bfacc9efbb3c1a3c90566785570bc1a9377ef4caeb8313ba005"),
    "run-ed-k3": (730, 2303,
        "f8336a31df045b141ec12f2a50ec322485063622e942a87c4a6c2ad89fcfe129"),
    "solve-grid6": (2624, 8520,
        "856690342426e6ac29c2a34350652b8fbee0c0024981431483978e9f54141b15"),
    "solve-ring44": (1108, 2862,
        "0cbde58473adf2fc1d37379529d354cb965e83b9dd0f704d8a30d1e4a68ceeca"),
    "solve-ring44-components": (1428, 3690,
        "af5bde9f028cc9711796cafa3d09d52eff30a4aea7efce113d3da57c60daf71c"),
    "solve-ring44-bipartiteness": (1428, 3690,
        "4bcf04c1799aaeacd8123031d6bf36c728fbf6dc6f9f7a70892d4779068f4542"),
    "solve-ring44-or-acyclicity": (1448, 3570,
        "cec7d2d19c6f4e0c9b7866ac52d65b79baf8d0d4c72c45da64b00643638a5664"),
    "solve-ring44-or-bipartiteness": (1448, 3570,
        "cec7d2d19c6f4e0c9b7866ac52d65b79baf8d0d4c72c45da64b00643638a5664"),
}


def transcript_digest(tr):
    h = hashlib.sha256()
    for bits in tr.bits:
        h.update(repr(sorted(bits.items())).encode() + b"\n")
    h.update(repr(sorted(tr.outputs.items())).encode())
    return h.hexdigest()


def _files(tmp_path):
    """{name: path} of every instance file the cases read."""
    files = {}

    def put(name, text):
        files[name] = str(tmp_path / name)
        (tmp_path / name).write_text(text)

    grids = {"k2": clique(2), "k3": clique(3), "grid6": grid_graph(6, 6),
             "ring44": ring_of_cliques(4, 4), "intro": intro_split_graph()}
    for key, g in grids.items():
        put(key, format_graph_text(g))
    put("k2_in", json.dumps({"0": [1], "1": [0]}))
    put("ed21", json.dumps(circuit_to_json(build_ed_circuit(2, 1)[0])))
    rng = random.Random(AND_DISJ_RNG)
    for key in ("grid6", "ring44"):
        terms = grids[key].terminals
        strings = {(u, w): tuple(rng.randint(0, 1) for _ in range(AND_DISJ_N))
                   for u in terms for w in terms if u != w}
        inst = and_disj_instance(strings, terms, AND_DISJ_N)
        put(f"{key}_and_disj", json.dumps(inst.to_json()))
    terms = grids["ring44"].terminals
    inst = or_disj_instance(random_pair_strings(terms, AND_DISJ_N, seed=0),
                            terms, AND_DISJ_N)
    put("ring44_or_disj", json.dumps(inst.to_json()))
    return files


CASES = {
    "run-disj-intro": "run --graph {intro} --protocol disj-aggregate --n 64",
    "run-ed-k2": "run --graph {k2} --protocol ed-compiled --n 3",
    "run-ed-k3": "run --graph {k3} --protocol ed-compiled --n 3",
    "compile-k2": "compile --graph {k2} --circuit {ed21} --inputs {k2_in}",
    "solve-grid6": "--seed 0 solve --variant connectivity --graph {grid6} "
                   "--instance {grid6_and_disj}",
    "solve-ring44": "--seed 0 solve --variant connectivity --graph {ring44} "
                    "--instance {ring44_and_disj}",
    "solve-ring44-components": "--seed 0 solve --variant components "
                               "--graph {ring44} --instance {ring44_and_disj}",
    "solve-ring44-bipartiteness": "--seed 0 solve --variant bipartiteness "
                                  "--graph {ring44} "
                                  "--instance {ring44_and_disj}",
    "solve-ring44-or-acyclicity": "--seed 0 solve --variant acyclicity "
                                  "--graph {ring44} "
                                  "--instance {ring44_or_disj}",
    "solve-ring44-or-bipartiteness": "--seed 0 solve --variant bipartiteness "
                                     "--graph {ring44} "
                                     "--instance {ring44_or_disj}",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_transcript_is_pinned(name, tmp_path, capsys, monkeypatch):
    seen = []

    def keep(*args, **kwargs):
        seen.append(run_protocol(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(cli_mod, "run_protocol", keep)
    argv = CASES[name].format_map(_files(tmp_path)).split()
    assert cli_mod.main(argv) == 0
    capsys.readouterr()
    [tr] = seen
    assert (tr.rounds, tr.total_bits, transcript_digest(tr)) == PINS[name]
