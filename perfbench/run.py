"""roundlab benchmark: fixed experiments through the CLI, one client.

    python3 perfbench/run.py --workload {route,mcf,ed-compile,disj-sim}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  Each pass of the workload runs in
a fresh interpreter (perfbench/one_pass.py), so imports and the tau_mcf
memo start cold as they do for every CLI user.  A run starts with set-up-only
passes, then passes run one after another until S seconds have gone, and
none starts that would, at the length of the last one, end after 1.3 x S.
Times are taken under the host-speed sampler (perfbench/speed.py) and
reported at its reference speed.  With --trace 0 the last
line of output reports the end-to-end metrics, with --trace 1 the
per-layer metrics of traced passes, which alternate with untraced ones
so the tracing overhead and identical outputs can be checked.  See
perfbench/README.md for the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from tracer import UNITS

HERE = Path(__file__).resolve().parent
WORKLOADS = ("route", "mcf", "ed-compile", "disj-sim")
SETUP_FIRST = 4           # set-up-only passes before the timed ones
MIN_SETUP_SAMPLES = 7
OVERRUN = 1.3             # no pass starts that would end past 1.3 x S
LIMIT_S = 170             # a run ends within this, whatever --seconds says


def spawn_pass(root, workload, seed, workdir, deadline, trace=False,
               setup_only=False):
    """Run one pass in a fresh interpreter, killed at `deadline`; returns
    (setup_s, result or None, error)."""
    start = time.monotonic()
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir),
           "--spawned", repr(start)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=max(deadline - start, 0.1))
    except subprocess.TimeoutExpired:
        return None, None, f"pass killed at the {LIMIT_S} s limit of a run"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, None, (f"pass exited with {proc.returncode}: "
                            f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    return result["setup_s"], result, None


def geometric_mean(ratios):
    if not ratios:
        return 0.0
    return float(math.prod(ratios)) ** (1 / len(ratios))


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = HERE.parent
    if not (root / "src" / "roundlab" / "cli.py").is_file():
        print(f"no roundlab sources under {root / 'src'}", file=sys.stderr)
        return 2
    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def measure(args, root, workdir):
    started = time.monotonic()
    deadline = started + LIMIT_S
    plain, traced, setups, errors = [], [], [], []
    attempted = failed = 0

    def setup_pass():
        nonlocal attempted, failed
        setup_s, _, error = spawn_pass(root, args.workload, args.seed,
                                       workdir, deadline, setup_only=True)
        if error:
            errors.append(error)
            attempted += 1
            failed += 1
            return False
        setups.append(setup_s)
        return True

    # set-up-only passes first: they warm the page cache and give setup_s
    # samples before anything is timed
    setup_ok = all(setup_pass() for _ in range(SETUP_FIRST))
    # passes alternate plain/traced with --trace 1, else all plain
    while setup_ok:
        trace = bool(args.trace) and len(traced) < len(plain)
        begun = time.monotonic()
        setup_s, result, error = spawn_pass(root, args.workload, args.seed,
                                            workdir, deadline, trace=trace)
        if result is None:
            errors.append(error)
            attempted += 1
            failed += 1
        else:
            if not trace:
                setups.append(setup_s)
            (traced if trace else plain).append(result)
            attempted += result["attempted"]
            failed += len(result["failures"])
            errors.extend(result["failures"])
        now = time.monotonic()
        elapsed, last = now - started, now - begun
        enough = plain and (traced or not args.trace)
        if enough and (elapsed >= args.seconds
                       or elapsed + last > OVERRUN * args.seconds):
            break
        if now >= deadline or result is None:
            break
    while (setup_ok and len(setups) < MIN_SETUP_SAMPLES
           and time.monotonic() < deadline and setup_pass()):
        pass

    digests = {r["output_digest"] for r in plain + traced}
    if len(digests) > 1:
        errors.append("passes of one seed printed different outputs")
        failed += 1
    for line in errors:
        print(f"FAILED: {line}", file=sys.stderr)
    for r in plain + traced:
        print(json.dumps({k: r[k] for k in ("wall_s", "raw_s", "setup_s",
                                           "peak_rss_mb")}
                         | {"traced": "layers" in r}))

    metrics = {}
    if plain and not args.trace:
        records = plain[0]["records"]
        ratios = [Fraction(r["rounds"]) / Fraction(r["bound"])
                  for r in records]
        metrics = {
            "wall_s": metric(statistics.median(r["wall_s"] for r in plain),
                             "s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(
                statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
            "rounds": metric(sum(r["rounds"] for r in records), "rounds"),
            "round_ratio": metric(geometric_mean(ratios), "ratio"),
        }
    elif plain and traced:
        layer_names = traced[0]["layers"]
        metrics = {}
        for name in layer_names:
            # counts repeat exactly for a seed; keep them whole numbers
            middle = statistics.median_low if UNITS[name] == "count" \
                else statistics.median
            metrics[name] = metric(
                middle(r["layers"][name] for r in traced), UNITS[name])
        metrics["trace.overhead_s"] = metric(
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["raw_s"] for r in plain), "s")
        print(json.dumps({"self_times": traced[0]["self_times"],
                          "missing_hooks": traced[0]["missing_hooks"]}))
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
