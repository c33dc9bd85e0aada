"""Median seconds per pass of each stage of a perfbench BER workload.

    python3 tools/ber_stages.py --workload ber-waterfall --seed 1 --passes 20

Run from the root of a source checkout. It sets the workload up and checks
the set-up, runs the warm-up pass 0, then passes 1..P with these names of
``qcldpc.channel`` wrapped, for the run of this tool only:

- draw: ``_draw_trial``, one trial's message, codeword and channel LLRs;
- encode: ``encode``, the codeword part of draw;
- decode: ``_decode_frames``, one chunk of frames;
- kernel: ``bcjr_component``, the constraint updates inside decode;
- check: ``_failed_frames``, the convergence check inside decode, once per
  iteration.

``monte_carlo`` reaches each through the module's globals, so the wraps
see every call. perfbench's tracer does not wrap ``_decode_frames``, so
it cannot split a pass this way. Per stage it reports the median seconds
and calls per pass and the median microseconds per call; ``decode_own`` is
decode less kernel and check, ``rest`` the pass less draw and decode. One
table line per stage goes to stdout, and the last line is one JSON object.
perfbench's files are read, not changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
STAGES = {
    "draw": "_draw_trial",
    "encode": "encode",
    "decode": "_decode_frames",
    "kernel": "bcjr_component",
    "check": "_failed_frames",
}


def counted(fn, stage, seconds, calls):
    """fn, adding the seconds and the count of each call to stage's totals."""

    def timed(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds[stage] += perf_counter() - start
            calls[stage] += 1

    return timed


def clock(thunk):
    start = perf_counter()
    value = thunk()
    return value, perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="ber-waterfall")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=20)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.passes < 1:
        parser.error("--seed must be >= 0 and --passes >= 1")
    if not args.workload.startswith("ber-"):
        parser.error(f"--workload must be a BER workload, got {args.workload!r}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from qcldpc import channel

    workload = workloads.make(args.workload, args.seed)
    state = workload.setup()
    ok, _, detail = workload.check_setup(state)
    if not ok:
        parser.error(f"set-up check failed: {detail}")
    seconds = dict.fromkeys(STAGES, 0.0)
    calls = dict.fromkeys(STAGES, 0)
    originals = {name: getattr(channel, name) for name in STAGES.values()}
    for stage, name in STAGES.items():
        setattr(channel, name, counted(originals[name], stage, seconds, calls))
    passes, failed = [], 0  # (pass seconds, stage seconds, stage calls)
    try:
        for pass_id in range(args.passes + 1):
            seconds.update(dict.fromkeys(STAGES, 0.0))
            calls.update(dict.fromkeys(STAGES, 0))
            result = workload.run_pass(state, pass_id, clock)
            failed += result.failed
            if pass_id:  # pass 0 is the warm-up
                passes.append((result.seconds, dict(seconds), dict(calls)))
    finally:
        for name, fn in originals.items():
            setattr(channel, name, fn)
    rows = {}
    for stage in STAGES:
        per_call = [1e6 * s[stage] / c[stage] for _, s, c in passes if c[stage]]
        rows[stage] = {
            "s": statistics.median(s[stage] for _, s, _ in passes),
            "calls": statistics.median(c[stage] for _, _, c in passes),
            "us_per_call": statistics.median(per_call) if per_call else 0.0,
        }
    rows["decode_own"] = {
        "s": statistics.median(s["decode"] - s["kernel"] - s["check"] for _, s, _ in passes)
    }
    rows["rest"] = {"s": statistics.median(t - s["draw"] - s["decode"] for t, s, _ in passes)}
    print(f"{'stage':<12}{'s_per_pass':>14}{'calls':>10}{'us_per_call':>14}")
    for stage, row in rows.items():
        line = f"{stage:<12}{row['s']:>14.5f}"
        if "calls" in row:
            line += f"{row['calls']:>10}{row['us_per_call']:>14.2f}"
        print(line)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "passes": args.passes,
        "failed_ops": failed, "stages": rows,
        "pass_s_median": statistics.median(total for total, _, _ in passes),
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
