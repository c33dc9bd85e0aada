"""Median seconds of each job kind per bundled spec over design passes.

    python3 tools/design_jobs.py --seed 1 --passes 5

Run from the root of a source checkout. It sets perfbench's ``design``
workload up and checks the set-up, runs the warm-up pass 0, then passes
1..P with every library call that ``run_pass`` times attributed to the
spec it serves: construct (the spec's generator), girth and distance
(its 20,000-evaluation search). The jobs of a pass that serve no single
spec (the ex1 ranks, ar4ja's case-1 generator and exact distance) are
reported as ``other``. One table line per spec goes to stdout, and the
last line is one JSON object. perfbench's files are read, not changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("construct", "girth", "distance")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.passes < 1:
        parser.error("--seed must be >= 0 and --passes >= 1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    workload = workloads.make("design", args.seed)
    specs = workload.specs
    state = workload.setup()
    ok, _, detail = workload.check_setup(state)
    if not ok:
        parser.error(f"set-up check failed: {detail}")
    # run_pass times its jobs in a fixed order: three ranks and one case-1
    # generator, then construct, girth and distance per spec, then the
    # exact distance.
    slots = ["other"] * 4 + [s for s in specs for _ in KINDS] + ["other"]
    kinds = ["construct"] * 4 + list(KINDS) * len(specs) + ["distance"]
    names = (*specs, "other")
    passes, totals, failed = [], [], 0
    for pass_id in range(args.passes + 1):
        times = []

        def clock(thunk):
            start = perf_counter()
            value = thunk()
            times.append(perf_counter() - start)
            return value, times[-1]

        result = workload.run_pass(state, pass_id, clock)
        failed += result.failed
        if len(times) != len(slots):
            parser.error(f"pass {pass_id} timed {len(times)} jobs, expected {len(slots)}")
        if pass_id == 0:
            continue  # warm-up
        per_pass = {name: dict.fromkeys(KINDS, 0.0) for name in names}
        for slot, kind, t in zip(slots, kinds, times):
            per_pass[slot][kind] += t
        passes.append(per_pass)
        totals.append(sum(times))
    medians = {
        name: {kind: statistics.median(p[name][kind] for p in passes) for kind in KINDS}
        for name in names
    }
    print(f"{'spec':<10}" + "".join(f"{k + '_s':>13}" for k in KINDS))
    for name, by_kind in medians.items():
        print(f"{name:<10}" + "".join(f"{by_kind[k]:>13.4f}" for k in KINDS))
    print(json.dumps({
        "workload": "design", "seed": args.seed, "passes": args.passes,
        "failed_ops": failed, "median_s": medians,
        "pass_s_median": statistics.median(totals),
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
