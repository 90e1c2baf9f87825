"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk_limit --seed 1 --seconds 30 --trace 0

Lines before the last describe the environment, the checks and every
metric by name and unit; the last line is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 gives the end-to-end
metrics, --trace 1 the per-layer ones. The exit code is 0 only when every
output check passes.
"""

import argparse
import json
import sys

import bootstrap


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="desk_replicates, desk_limit or wide_d2")
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: the reference seed)")
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the timed run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    bootstrap.prepare()  # before NumPy is imported
    import bench

    workload = bench.workload_named(args.workload)
    seed = bench.DEFAULT_SEED if args.seed is None else args.seed
    result = bench.run(workload, seed, args.seconds, bool(args.trace))
    for line in result.report:
        print(line)
    print(json.dumps(result.summary()), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
