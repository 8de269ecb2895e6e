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

`FLOODS` splits each `solve` case's rounds into its transport chunks and
its checkpoints.  A checkpoint with pending traffic continues after
`meta["continue_len"]` rounds; one that restarts or answers runs the
full `meta["sync_len"]`.  A checkpoint reads only transport state, which
does not move while it runs, so a change to the checkpoint's schedule
may change those lengths and the checkpoints' bits, and nothing else:
not the answer, the transport rounds or the checkpoint counts.
"""

import hashlib
import json
import random

import pytest

import roundlab.cli as cli_mod
import roundlab.distgraph as distgraph
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
    "solve-grid6": (577, 5470,
        "8792faf58fdb39e5bebb4e659be7cb8c9df3c33e1adb2e1e6327fc8bd8d4b0c3"),
    "solve-ring44": (517, 1650,
        "eb3e6ee61491c12de48864b89a6d949619db762f2b469bb096be7e2780cbec05"),
    "solve-ring44-components": (615, 2175,
        "747db8ebe0f42739fa7269eb58dcf5cbe798d90e76b5671cf1ab796bf19b5d6f"),
    "solve-ring44-bipartiteness": (615, 2175,
        "a0a3573d6691784af1c0d94ed7af4ca72b413ad1852c76f3a95099b38e428e44"),
    "solve-ring44-or-acyclicity": (366, 1668,
        "71263d54ce143260eabb65bcb9a4160774c49ba76d7edea2531773f82ee66d53"),
    "solve-ring44-or-bipartiteness": (366, 1668,
        "71263d54ce143260eabb65bcb9a4160774c49ba76d7edea2531773f82ee66d53"),
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


# name -> (answer, total bits, transport rounds, continue checkpoints,
# deciding checkpoints)
FLOODS = {
    "solve-grid6": (False, 5470, 448, 4, 1),
    "solve-ring44": (False, 1650, 448, 4, 1),
    "solve-ring44-components": (2, 2175, 504, 5, 2),
    "solve-ring44-bipartiteness": (True, 2175, 504, 5, 2),
    "solve-ring44-or-acyclicity": (False, 1668, 256, 4, 2),
    "solve-ring44-or-bipartiteness": (False, 1668, 256, 4, 2),
}


def _run_case(name, tmp_path, capsys, monkeypatch):
    """The case's one transcript and its printed JSON output."""
    seen = []

    def keep(*args, **kwargs):
        seen.append(run_protocol(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(cli_mod, "run_protocol", keep)
    argv = CASES[name].format_map(_files(tmp_path)).split()
    assert cli_mod.main(argv) == 0
    [tr] = seen
    return tr, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("name", sorted(CASES))
def test_transcript_is_pinned(name, tmp_path, capsys, monkeypatch):
    tr, _ = _run_case(name, tmp_path, capsys, monkeypatch)
    assert (tr.rounds, tr.total_bits, transcript_digest(tr)) == PINS[name]


@pytest.mark.parametrize("name", sorted(FLOODS))
def test_solve_rounds_are_transport_plus_checkpoints(
        name, tmp_path, capsys, monkeypatch):
    specs = []

    def build(*args, **kwargs):
        specs.append(distgraph.bfs_protocol(*args, **kwargs))
        return specs[-1]

    monkeypatch.setattr(cli_mod, "bfs_protocol", build)
    tr, out = _run_case(name, tmp_path, capsys, monkeypatch)
    answer, bits, transport, continues, decides = FLOODS[name]
    [meta] = [spec.meta for spec in specs]
    assert out["answer"] == answer and tr.total_bits == bits
    assert transport % meta["chunk_len"] == 0
    assert meta["continue_len"] < meta["sync_len"]
    assert tr.rounds == (transport + continues * meta["continue_len"]
                         + decides * meta["sync_len"])
