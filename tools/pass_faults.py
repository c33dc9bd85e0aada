"""Minor page faults per measured pass of a perfbench workload.

    python3 tools/pass_faults.py --workload ber-highsnr --seed 1 --passes 40

Run from the root of a source checkout. It sets the workload up and checks
the set-up (the ``design`` workload expands its specs there), runs the
warm-up pass 0, then passes 1..P, each followed by as many set-ups as
``--setups-between`` asks (perfbench's run.py samples set-up between its
measured passes). ``resource.getrusage(RUSAGE_SELF).ru_minflt`` is read
around each ``run_pass`` only. The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def clock(thunk):
    start = perf_counter()
    value = thunk()
    return value, perf_counter() - start


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="ber-highsnr")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=40)
    parser.add_argument("--setups-between", type=int, default=1)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.passes < 2 or args.setups_between < 0:
        parser.error("--seed and --setups-between must be >= 0 and --passes >= 2")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    workload = workloads.make(args.workload, args.seed)
    state = workload.setup()
    ok, _, detail = workload.check_setup(state)
    if not ok:
        parser.error(f"set-up check failed: {detail}")
    workload.run_pass(state, 0, clock)
    gc.collect()
    faults, seconds = [], []
    for pass_id in range(1, args.passes + 1):
        before = minor_faults()
        result = workload.run_pass(state, pass_id, clock)
        faults.append(minor_faults() - before)
        seconds.append(result.seconds)
        for _ in range(args.setups_between):
            workload.setup()
    q1, _, q3 = statistics.quantiles(faults, n=4, method="inclusive")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "passes": args.passes,
        "setups_between": args.setups_between,
        "minor_faults_per_pass": {
            "median": statistics.median(faults), "q1": q1, "q3": q3,
            "min": min(faults), "max": max(faults),
        },
        "pass_s_median": statistics.median(seconds),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
