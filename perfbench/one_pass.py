"""One pass of a workload in a fresh interpreter (started by run.py).

    python3 perfbench/one_pass.py --workload NAME --seed N --workdir DIR
        --spawned T [--trace] [--setup-only]

Imports roundlab, writes the workload's instances (set-up), then runs its
experiments one after another.  Prints one JSON object: the set-up time
since the monotonic time T at which the pass was spawned, the pass wall
time, the protocol records, failures, peak RSS, a digest of every CLI
output and, with --trace, the per-layer figures.

Untraced passes run under the host-speed sampler (speed.py) and report
their times at its reference speed, with the raw wall time beside them;
traced passes run without it, so no burst lands inside a span.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from speed import SpeedSampler


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned", type=float, required=True)
    args = parser.parse_args()
    sampler = None if args.trace else SpeedSampler()
    if sampler is not None:
        sampler.start()
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root / "tests")]

    import workloads
    ctx = workloads.Context(args.workload, args.seed, Path(args.workdir))
    workloads.setup(ctx)
    setup_end = time.monotonic()
    if args.setup_only:
        sampler.stop()
        print(json.dumps({"setup_s": sampler.measure(args.spawned,
                                                     setup_end)[1]}))
        return

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install(tracing.HOOKS)

    records, failures = workloads.run_experiments(
        ctx, workloads.EXPERIMENTS[args.workload])
    end = time.monotonic()
    if sampler is not None:
        sampler.stop()
        setup_s = sampler.measure(args.spawned, setup_end)[1]
        raw_s, wall_s = sampler.measure(setup_end, end)
    else:
        setup_s, raw_s = setup_end - args.spawned, end - setup_end
        wall_s = raw_s

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "raw_s": raw_s,
        "attempted": len(workloads.EXPERIMENTS[args.workload]),
        "failures": failures,
        "records": [{"rounds": r["rounds"], "bound": str(r["bound"])}
                    for r in records],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "output_digest": hashlib.sha256(
            "\n".join(ctx.outputs).encode()).hexdigest(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracing.layer_metrics(tracer)
        result["self_times"] = tracer.self_times()
        result["missing_hooks"] = tracer.missing
    print(json.dumps(result))


if __name__ == "__main__":
    main()
