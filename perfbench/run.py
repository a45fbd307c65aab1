"""Benchmark of rewardroute's serving and training paths.

Run from the root of a checkout:

    python3 perfbench/run.py --workload route_long --seed 1 --seconds 20 --trace 0

Workloads: route_long and generate_short drive the `rewardroute serve`
gateway with a serial client; train_ablate calls rewardroute.beta_ablation
in a process of its own. --trace 0 prints the end-to-end metrics, --trace 1
runs the traced layer pass and prints the per-layer metrics. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

import ablate_load
import gateway_load
import layers
import procs

OUT_DIR = ".perfbench_out"
WORKLOADS = ("route_long", "generate_short", "train_ablate")
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one set-up per run and short traced passes, for tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit so that the finally blocks stop every child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join("src", "rewardroute", "__init__.py")):
        print("error: run from the root of a rewardroute checkout (no src/rewardroute here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    cpus = procs.Cpus()
    cpus.pin_self()
    workdir = os.path.abspath(os.path.join(OUT_DIR, f"run-{args.workload}-{args.seed}-{os.getpid()}"))
    os.makedirs(workdir)
    setup_repeats = 1 if args.smoke else SETUP_REPEATS
    try:
        if args.trace:
            trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
            result = layers.run_traced(args.workload, args.seed, workdir, cpus, args.smoke,
                                       trace_path)
        elif args.workload == "train_ablate":
            result = ablate_load.run_untraced(args.seconds, cpus, setup_repeats)
        else:
            result = gateway_load.run_untraced(args.workload, args.seed, args.seconds, workdir,
                                               cpus, setup_repeats)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in result["metrics"].items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, **result["report"]}))
    for error in result["errors"]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
