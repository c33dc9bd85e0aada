"""Page faults, time and a stage split of the passes of a perfbench workload.

    python3 tools/passes.py --workload ber-highsnr --seed 1 --passes 20 --setups-between 1

Run from the root of a source checkout; perfbench's files are read, not
changed. The tool sets the workload up, checks the set-up (the ``design``
workload expands its specs there) and runs the warm-up pass 0. Then one
loop runs passes 1..P twice:

1. With nothing wrapped. ``resource.getrusage(RUSAGE_SELF).ru_minflt`` is
   read around each ``run_pass`` only, and each pass is followed by as
   many set-ups as ``--setups-between`` asks (perfbench's run.py samples
   set-up between its measured passes). These passes give
   ``minor_faults_per_pass`` and ``pass_s_median``.
2. With the workload's stage names wrapped, for the run of this tool only.
   These passes give the stage split, as medians over the passes.

A BER workload's split wraps these names of ``qcldpc.channel``, which
``monte_carlo`` reaches through the module's globals (perfbench's tracer
does not wrap ``_decode_frames``, so it cannot split a pass this way):

- draw: ``_draw_trial``, one trial's message, codeword and channel LLRs;
- encode: ``encode``, the codeword part of draw;
- decode: ``_decode_frames``, one chunk of frames;
- plan: ``_layout_plan``, inside decode, once per set of active frames: the
  gather indices and the priors' gather, each row's views and held run
  (prepared only for a batch shape the thread has not met), and the
  check's arrays;
- kernel: ``bcjr_component``, the constraint updates inside decode;
- check: ``_failed_frames``, the convergence check inside decode, once per
  iteration.

Per stage it reports seconds and calls per pass and microseconds per call;
``decode_own`` is decode less plan, kernel and check, ``rest`` the pass
less draw and decode. Since plan holds the gather indices and the priors'
gather, ``decode_own`` leaves them out.

The ``design`` split attributes every job that ``run_pass`` times to the
spec it serves: construct (the spec's generator), girth and distance (its
20,000-evaluation search). The jobs that serve no single spec (the ex1
ranks, ar4ja's case-1 generator and exact distance) are ``other``. Each
construct job is split into four stages by wrapping the names that
``gldpc.construct_generator`` calls: dimension (``expansion_rank`` of the
assembled H), reduction (``_reduce``: the pivot blocks' determinants and
the one Schur step), synthesis (``generator_general`` on the reduced
matrix, which includes that matrix's own ``expansion_rank`` for its target
dimension) and verification (``verify_generator``: the syndrome product of
the composed G with the transposed H, and G's ``expansion_rank``); the
rest of the job is the assembly and the recomposition.
Each distance job is split into three stages by wrapping the names that
``analysis.low_weight_search`` calls: sweep (``_lightest_sweep``: every
row and the pairs inside the budget), rounds (``_lightest_round_row``: the
information-set rounds, a batch at a time) and random
(``_lightest_random``: the sparse combinations between rounds); the rest
is the expansion of the generator, the packing for the random phase and
the search's rank. The ``binmat.RowEchelon.add`` calls (bit-level span
rows, by wrapping the method on its class) and the ``gf2poly.clmul``
calls (polynomial products: ``BinaryPoly.__mul__`` makes one, and
``polymat``'s matrix product and minors call it directly) of each spec's
construct job are counted too. ``clmul`` is wrapped in every ``qcldpc``
module that binds it, as perfbench's tracer rebinds imports. The counts
repeat exactly from pass to pass, and the last pass's are reported.

After the passes the tool times ``SETUP_SAMPLES`` set-ups with nothing
wrapped, for ``setup_s_median``, and as many again with the set-up's
stage names wrapped, for the set-up split: on ``design`` the ``.pmx``
reads (``polymat.read_pmx``), the spec JSON parse (``json.load``), the
spec build (``GldpcSpec.from_json_dict``) and, inside the build, the
effective matrix (``GldpcSpec.effective_matrix``); on a BER workload
``load_spec`` and ``construct_generator``. Per stage it reports the
median seconds and calls per set-up; ``rest`` is the median of what
each wrapped set-up spent outside its outer stages (file opens and
reads, on ``design``).

One table line per stage (BER) or spec (``design``) goes to stdout, then
one per set-up stage, and the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
from collections import Counter
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BER_STAGES = {
    "draw": "_draw_trial",
    "encode": "encode",
    "decode": "_decode_frames",
    "plan": "_layout_plan",
    "kernel": "bcjr_component",
    "check": "_failed_frames",
}
KINDS = ("construct", "girth", "distance")
CONSTRUCT_STAGES = ("dimension", "reduction", "synthesis", "verification")
CONSTRUCT_COUNTS = ("echelon_adds", "poly_products")
SEARCH_STAGES = {
    "sweep": "_lightest_sweep",
    "rounds": "_lightest_round_row",
    "random": "_lightest_random",
}
SETUP_SAMPLES = 30


def clock(thunk):
    start = perf_counter()
    value = thunk()
    return value, perf_counter() - start


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def wrap(owner, name, stage, seconds, calls):
    """Rebind owner.name to add each call's seconds and count to its stage.

    Returns a function that puts the original back (a class keeps its
    own descriptor, such as a classmethod).
    """
    fn, original = getattr(owner, name), vars(owner)[name]

    def timed(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds[stage] += perf_counter() - start
            calls[stage] += 1

    setattr(owner, name, timed)
    return lambda: setattr(owner, name, original)


def wrap_stages(workload, seconds, calls):
    """Wrap the stage names of the workload called ``workload``; returns the undos."""
    from qcldpc import analysis, binmat, channel, gf2poly, gldpc

    if workload != "design":
        return [wrap(channel, name, stage, seconds, calls) for stage, name in BER_STAGES.items()]

    binders = [
        module for name, module in sorted(sys.modules.items())
        if name.startswith("qcldpc.") and vars(module).get("clmul") is gf2poly.clmul
    ]
    return [
        wrap(gldpc, "expansion_rank", "dimension", seconds, calls),
        wrap(gldpc, "_reduce", "reduction", seconds, calls),
        wrap(gldpc, "generator_general", "synthesis", seconds, calls),
        wrap(gldpc, "verify_generator", "verification", seconds, calls),
        *(wrap(analysis, name, stage, seconds, calls) for stage, name in SEARCH_STAGES.items()),
        wrap(binmat.RowEchelon, "add", "echelon_adds", seconds, calls),
        *(wrap(module, "clmul", "poly_products", seconds, calls) for module in binders),
    ]


def setup_stages(workload):
    """(stage, owner, name) of each set-up stage of the workload called ``workload``."""
    from qcldpc import gldpc, polymat

    if workload != "design":
        return [(name, gldpc, name) for name in ("load_spec", "construct_generator")]
    return [
        ("pmx", polymat, "read_pmx"),
        ("json", json, "load"),
        ("build", gldpc.GldpcSpec, "from_json_dict"),
        ("effective", gldpc.GldpcSpec, "effective_matrix"),  # inside build
    ]


def setup_split(name, workload):
    """The median seconds of the set-up of workload ``name``, unwrapped, and its stage rows."""
    targets = setup_stages(name)
    seconds, calls, unwrapped, samples = Counter(), Counter(), [], []
    for _ in range(SETUP_SAMPLES):  # alternately unwrapped and wrapped
        unwrapped.append(clock(workload.setup)[1])
        undos = [wrap(owner, attr, stage, seconds, calls) for stage, owner, attr in targets]
        try:
            seconds.clear()
            calls.clear()
            samples.append((clock(workload.setup)[1], seconds.copy(), calls.copy()))
        finally:
            for undo in undos:
                undo()
    rows = {
        stage: {
            "s": median(s[stage] for _, s, _ in samples),
            "calls": median(c[stage] for _, _, c in samples),
        }
        for stage, _, _ in targets
    }
    outer = [stage for stage in rows if stage != "effective"]
    rows["rest"] = {"s": median(t - sum(s[stage] for stage in outer) for t, s, _ in samples)}
    return {"setup_s_median": median(unwrapped), "setup_stages": rows}, rows


def ber_split(passes):
    """The stage rows of BER passes, each one job (its monte_carlo call)."""
    passes = [job for (job,) in passes]
    rows = {}
    for stage in BER_STAGES:
        per_call = [1e6 * s[stage] / c[stage] for _, s, c in passes if c[stage]]
        rows[stage] = {
            "s": median(s[stage] for _, s, _ in passes),
            "calls": median(c[stage] for _, _, c in passes),
            "us_per_call": median(per_call) if per_call else 0.0,
        }
    rows["decode_own"] = {
        "s": median(s["decode"] - s["plan"] - s["kernel"] - s["check"] for _, s, _ in passes)
    }
    rows["rest"] = {"s": median(t - s["draw"] - s["decode"] for t, s, _ in passes)}
    return {"stages": rows}, rows


def design_split(passes, specs):
    """Per-spec job and stage medians of design passes, and the construct counts."""
    # run_pass times its jobs in a fixed order: three ranks and one case-1
    # generator, then construct, girth and distance per spec, then the
    # exact distance.
    slots = ["other"] * 4 + [s for s in specs for _ in KINDS] + ["other"]
    kinds = ["construct"] * 4 + list(KINDS) * len(specs) + ["distance"]
    cells = []
    for jobs in passes:
        if len(jobs) != len(slots):
            sys.exit(f"passes.py: a design pass timed {len(jobs)} jobs, expected {len(slots)}")
        cell = Counter()
        for slot, kind, (t, s, c) in zip(slots, kinds, jobs):
            cell[slot, kind] += t
            for stage in (*CONSTRUCT_STAGES, *SEARCH_STAGES):
                cell[slot, stage] += s[stage]
            if kind == "construct":
                for count in CONSTRUCT_COUNTS:
                    cell[slot, count] = c[count]
        cells.append(cell)
    rows = {}
    for name in (*specs, "other"):
        keys = (*KINDS, *CONSTRUCT_STAGES, *SEARCH_STAGES) if name in specs else KINDS
        rows[name] = {k: median(cell[name, k] for cell in cells) for k in keys}
    for name in specs:
        for count in CONSTRUCT_COUNTS:
            rows[name][count] = cells[-1][name, count]

    def pick(names, keys):
        return {n: {k: rows[n][k] for k in keys} for n in names}

    return {
        "median_s": pick(rows, KINDS),
        "construct_stage_median_s": pick(specs, CONSTRUCT_STAGES),
        "distance_stage_median_s": pick(specs, SEARCH_STAGES),
        **{f"construct_{count}": {n: rows[n][count] for n in specs} for count in CONSTRUCT_COUNTS},
    }, rows


def print_table(first, rows):
    columns = list(dict.fromkeys(c for row in rows.values() for c in row))
    width = max(12, *(len(name) + 1 for name in rows))
    print(f"{first:<{width}}" + "".join(f"{c:>14}" for c in columns))
    for name, row in rows.items():
        cells = (f"{row[c]:>14.6g}" if c in row else " " * 14 for c in columns)
        print(f"{name:<{width}}" + "".join(cells))


def main(argv=None):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, default="ber-highsnr")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=20)
    parser.add_argument("--setups-between", type=int, default=1)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.passes < 2 or args.setups_between < 0:
        parser.error("--seed and --setups-between must be >= 0 and --passes >= 2")
    workload = workloads.make(args.workload, args.seed)
    state = workload.setup()
    ok, _, detail = workload.check_setup(state)
    if not ok:
        parser.error(f"set-up check failed: {detail}")
    failed = workload.run_pass(state, 0, clock).failed
    gc.collect()
    seconds, calls, split = Counter(), Counter(), []  # split: the wrapped passes' jobs

    def staged_clock(thunk):
        seconds.clear()
        calls.clear()
        value, t = clock(thunk)
        split[-1].append((t, seconds.copy(), calls.copy()))
        return value, t

    faults, pass_s, undos = [], [], []
    try:
        for n in range(2 * args.passes):
            if n == args.passes:  # the same passes again, wrapped, for the split
                undos = wrap_stages(args.workload, seconds, calls)
            if undos:
                split.append([])
                failed += workload.run_pass(state, n - args.passes + 1, staged_clock).failed
                continue
            before = minor_faults()
            result = workload.run_pass(state, n + 1, clock)
            faults.append(minor_faults() - before)
            failed += result.failed
            pass_s.append(result.seconds)
            for _ in range(args.setups_between):
                workload.setup()
    finally:
        for undo in undos:
            undo()
    if args.workload == "design":
        report, rows = design_split(split, workload.specs)
    else:
        report, rows = ber_split(split)
    setup_report, setup_rows = setup_split(args.workload, workload)
    print_table("spec" if args.workload == "design" else "stage", rows)
    print_table("setup stage", setup_rows)
    q1, _, q3 = quantiles(faults, n=4, method="inclusive")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "passes": args.passes,
        "setups_between": args.setups_between, "failed_ops": failed,
        "minor_faults_per_pass": {
            "median": median(faults), "q1": q1, "q3": q3, "min": min(faults), "max": max(faults),
        },
        "pass_s_median": median(pass_s), **report, **setup_report,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
