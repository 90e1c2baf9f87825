"""Record the reference outputs the benchmark compares against.

    python3 perfbench/record_reference.py

Runs the first rounds of every workload at the default seed, serially,
and writes per-cell sup loglik and leading per-draw limit values to
perfbench/reference.json. Run it only when the program's outputs are
meant to change, and say so in the change that does.
"""

import json
import sys

import bootstrap

if __name__ == "__main__":
    bootstrap.prepare()
    import bench
    from workloads import WORKLOADS

    out = {
        "seed": bench.DEFAULT_SEED,
        "tolerance": f"value >= ref - {bench.REFERENCE_TOL:g} * (1 + |ref|)",
        "workloads": {},
    }
    for name, cls in WORKLOADS.items():
        workload = cls()
        inputs = workload.inputs(bench.DEFAULT_SEED)
        rounds = [workload.run_round(inputs, i, 1) for i in range(bench.REFERENCE_ROUNDS[name])]
        failed = [ch for ch in workload.checks(rounds) if ch.enforced and not ch.passed]
        if failed:
            sys.exit(f"{name}: checks failed, no reference written: {[ch.name for ch in failed]}")
        out["workloads"][name] = {"sizes": workload.sizes(), **bench.reference_view(rounds)}
        print(f"{name}: {len(rounds)} rounds recorded", flush=True)
    with open(bench.REFERENCE, "w") as fh:
        json.dump(out, fh)
        fh.write("\n")
