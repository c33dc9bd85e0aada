"""Median seconds of each job kind per bundled spec over design passes.

    python3 tools/design_jobs.py --seed 1 --passes 5

Run from the root of a source checkout. It sets perfbench's ``design``
workload up and checks the set-up, runs the warm-up pass 0, then passes
1..P with every library call that ``run_pass`` times attributed to the
spec it serves: construct (the spec's generator), girth and distance
(its 20,000-evaluation search). The jobs of a pass that serve no single
spec (the ex1 ranks, ar4ja's case-1 generator and exact distance) are
reported as ``other``. Each construct job is also split into three
stages by wrapping, for the run of this tool only, the names that
``gldpc.construct_generator`` calls: dimension (``expansion_rank`` of the
assembled H), synthesis (``generator_general`` on the reduced matrix, which
includes that matrix's own ``expansion_rank`` for its target dimension) and
verification (``expansion_rank`` of the composed G). What is left of a
construct job is the reduction, the recomposition and the syndrome check.
One table line per spec goes to stdout, and the last line is one JSON
object. perfbench's files are read, not changed.
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
STAGES = ("dimension", "synthesis", "verification")


def staged(fn, stage, stage_s):
    """fn, adding the seconds of each call to stage_s[stage()]."""

    def timed(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            name = stage()
            stage_s[name] = stage_s.get(name, 0.0) + perf_counter() - start

    return timed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.passes < 1:
        parser.error("--seed must be >= 0 and --passes >= 1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from qcldpc import gldpc

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
    stage_s = {}  # stage seconds of the job being timed
    originals = gldpc.expansion_rank, gldpc.generator_general
    # construct_generator ranks H, synthesizes, then ranks G.
    gldpc.expansion_rank = staged(
        gldpc.expansion_rank,
        lambda: "verification" if "synthesis" in stage_s else "dimension",
        stage_s,
    )
    gldpc.generator_general = staged(gldpc.generator_general, lambda: "synthesis", stage_s)
    passes, stage_passes, totals, failed = [], [], [], 0
    try:
        for pass_id in range(args.passes + 1):
            times, stages = [], []

            def clock(thunk):
                stage_s.clear()
                start = perf_counter()
                value = thunk()
                times.append(perf_counter() - start)
                stages.append(dict(stage_s))
                return value, times[-1]

            result = workload.run_pass(state, pass_id, clock)
            failed += result.failed
            if len(times) != len(slots):
                parser.error(f"pass {pass_id} timed {len(times)} jobs, expected {len(slots)}")
            if pass_id == 0:
                continue  # warm-up
            per_pass = {name: dict.fromkeys(KINDS, 0.0) for name in names}
            per_stage = {name: dict.fromkeys(STAGES, 0.0) for name in specs}
            for slot, kind, t, job_stages in zip(slots, kinds, times, stages):
                per_pass[slot][kind] += t
                for stage, seconds in job_stages.items():
                    per_stage[slot][stage] += seconds
            passes.append(per_pass)
            stage_passes.append(per_stage)
            totals.append(sum(times))
    finally:
        gldpc.expansion_rank, gldpc.generator_general = originals
    medians = {
        name: {kind: statistics.median(p[name][kind] for p in passes) for kind in KINDS}
        for name in names
    }
    stage_medians = {
        name: {stage: statistics.median(p[name][stage] for p in stage_passes) for stage in STAGES}
        for name in specs
    }
    columns = [k + "_s" for k in (*KINDS, *STAGES)]
    print(f"{'spec':<10}" + "".join(f"{c:>16}" for c in columns))
    for name, by_kind in medians.items():
        values = [*by_kind.values(), *stage_medians.get(name, {}).values()]
        print(f"{name:<10}" + "".join(f"{v:>16.4f}" for v in values))
    print(json.dumps({
        "workload": "design", "seed": args.seed, "passes": args.passes,
        "failed_ops": failed, "median_s": medians, "construct_stage_median_s": stage_medians,
        "pass_s_median": statistics.median(totals),
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
