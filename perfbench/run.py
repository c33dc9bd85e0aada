"""Benchmark of the qcldpc toolkit, run from the root of a source checkout.

    python3 perfbench/run.py --workload ber-waterfall --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and README.md): ``ber-waterfall``,
``ber-highsnr`` and ``design``. A run sets up the workload several times,
runs one checked warm-up pass plus the costly checks, then measures passes
for ``--seconds``. With ``--trace 0`` it reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it runs every pass a second time with
every layer function wrapped, and reports the per-layer metrics. The last line of stdout is one JSON object; the full
result, with provenance, goes to ``perfbench/results/``.

Exits 2 without a result when the checkout has no ``src/qcldpc`` to test.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SETUP_MIN_REPS = 3  # set-up samples per run, at least
SETUP_SHARE = 0.1  # of the measured window, spent on set-up samples
SETUP_SAMPLE_S = 0.05  # set-ups are batched until one sample takes this long
SETUP_PASS = -1  # pass id of the traced set-up's spans


def cap_threads():
    """Cap BLAS/OpenMP pools at the CPUs this process may use (before numpy loads)."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(min(max(wanted, 1), nproc))
    return min(int(os.environ[var]) for var in THREAD_VARS)


def clock(thunk):
    start = perf_counter()
    value = thunk()
    return value, perf_counter() - start


def setup_batch(workload, reps):
    """Seconds per set-up, over ``reps`` set-ups in a row."""
    start = perf_counter()
    for _ in range(reps):
        workload.setup()
    return (perf_counter() - start) / reps


def measure(workload, seconds, trace):
    """Run one workload; returns (JSON-ready report, Tracer or None).

    Set-up is sampled between measured passes, up to ``SETUP_SHARE`` of
    the window, so its median samples the same machine states as the
    passes do. A sample is the mean of enough set-ups in a row to take
    ``SETUP_SAMPLE_S``, so that a set-up of a few milliseconds is not
    timed alone. With ``trace`` every pass runs twice in a row, untraced and
    traced, alternating which goes first, so that both copies see the same
    machine state and their difference is the tracing overhead.
    """
    from tracer import Tracer, layer_values, setup_values

    state, cold_setup = clock(workload.setup)
    # Warm set-ups only: the first one also pays lazy first-call work.
    setup_reps = max(1, math.ceil(SETUP_SAMPLE_S / clock(workload.setup)[1]))
    setups = []
    attempted = failed = 0
    failures = []

    def tally(ok, ops, detail):
        nonlocal attempted, failed
        attempted += ops
        if not ok:
            failed += ops
            failures.append(detail)

    def tally_pass(p):
        nonlocal attempted, failed
        attempted += p.ops
        failed += p.failed
        failures.extend(p.failures)

    tally(*workload.check_setup(state))
    warm = workload.run_pass(state, 0, clock)
    tally_pass(warm)
    for check in workload.final_checks(state, warm):
        tally(*check)

    tracer = Tracer() if trace else None

    def traced_pass(pass_id):
        tracer.pass_id = pass_id
        with tracer:
            return workload.run_pass(state, pass_id, clock)

    gc.collect()
    passes, traced = [], []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        pass_id = len(passes) + 1
        if trace and pass_id % 2 == 0:
            traced.append(traced_pass(pass_id))
        passes.append(workload.run_pass(state, pass_id, clock))
        if trace and pass_id % 2 == 1:
            traced.append(traced_pass(pass_id))
        elapsed = min(perf_counter() - start, seconds)
        if (len(setups) + 1) * setup_reps * statistics.fmean(setups or [cold_setup]) \
                <= SETUP_SHARE * elapsed:
            setups.append(setup_batch(workload, setup_reps))
    while len(setups) < SETUP_MIN_REPS:
        setups.append(setup_batch(workload, setup_reps))
    for p in passes + traced:
        tally_pass(p)

    measured_s = sum(p.seconds for p in passes)
    ops = sum(p.ops for p in passes)
    kinds = sorted({k for p in passes for k in p.kind_seconds})
    report = {
        "setup_s": statistics.median(setups),
        "setup_cold_s": cold_setup,
        "setup_samples": len(setups),
        "setup_reps_per_sample": setup_reps,
        "passes": len(passes),
        "pass_s": statistics.median(p.seconds for p in passes),
        "pass_seconds": [p.seconds for p in passes],
        "ops": ops,
        "measured_s": measured_s,
        "ops_per_s": ops / measured_s,
        "kind_s": {k: statistics.median(p.kind_seconds[k] for p in passes) for k in kinds},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }

    if trace:
        tracer.pass_id = SETUP_PASS
        with tracer:
            workload.setup()
        traced_s = sum(p.seconds for p in traced)
        layers = layer_values(tracer.summary(lambda p: p > 0), traced_s, len(traced))
        layers.update(setup_values(tracer.summary(lambda p: p == SETUP_PASS)))
        layers.update({
            "trace.untraced_s": measured_s,
            "trace.traced_s": traced_s,
            "trace.overhead_s": traced_s - measured_s,
            "trace.overhead_frac": (traced_s - measured_s) / measured_s,
            "trace.spans": len(tracer.spans),
        })
        for kind in ("construct", "girth", "distance"):
            layers[f"job.{kind}_s"] = report["kind_s"].get(kind, 0.0)
        report["layers"] = layers

    report.update(attempted=attempted, failed=failed, failures=failures)
    return report, tracer


def result_line(report, benchmark, trace):
    """The contract's last stdout line: every metric of one BENCHMARK.json list."""
    wanted = benchmark["per_layer" if trace else "end_to_end"]
    source = report["layers"] if trace else report
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "qcldpc").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json", ".pmx"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(thread_cap):
    import numpy

    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_cap": thread_cap,
    }


def _summary_lines(name, report, trace):
    """Human-readable metric lines, in the names the workload docs use."""
    lines = [f"setup_s {report['setup_s']:.6f} s (median of {report['setup_samples']} samples "
             f"of {report['setup_reps_per_sample']} set-ups)"]
    if name.startswith("ber"):
        lines.append(f"frames_per_s {report['ops_per_s']:.4f} 1/s "
                     f"({report['ops']} frames in {report['measured_s']:.3f} s)")
    else:
        lines.append(f"ops_per_s {report['ops_per_s']:.4f} 1/s "
                     f"({report['ops']} jobs in {report['measured_s']:.3f} s)")
        for kind in ("construct", "girth", "distance"):
            lines.append(f"{kind}_s {report['kind_s'][kind]:.6f} s (median per pass)")
    lines.append(f"pass_s {report['pass_s']:.6f} s (median of {report['passes']} passes)")
    lines.append(f"peak_rss_mb {report['peak_rss_mb']:.3f} MB")
    frac = report["failed"] / report["attempted"]
    lines.append(f"failed_frac {frac:.6f} ({report['failed']} failed of "
                 f"{report['attempted']} ops attempted)")
    if trace:
        layers = report["layers"]
        lines.append(
            f"trace overhead {layers['trace.overhead_s']:.4f} s = traced "
            f"{layers['trace.traced_s']:.4f} s - untraced {layers['trace.untraced_s']:.4f} s "
            f"({100 * layers['trace.overhead_frac']:.2f}%)"
        )
    lines.extend(f"FAILED {detail}" for detail in report["failures"])
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or (args.seconds is not None and args.seconds <= 0):
        parser.error("--seed must be >= 0 and --seconds > 0")

    thread_cap = cap_threads()
    if not (SRC / "qcldpc" / "__init__.py").is_file():
        print(f"error: no qcldpc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import qcldpc
    import workloads

    if Path(qcldpc.__file__).resolve().parent != SRC / "qcldpc":
        print(f"error: imported qcldpc from {qcldpc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in benchmark["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seconds is None:
        args.seconds = benchmark["run_seconds"]

    report, tracer = measure(workloads.make(args.workload, args.seed), args.seconds, args.trace)
    line = result_line(report, benchmark, args.trace)

    RESULTS_DIR.mkdir(exist_ok=True)
    stem = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    full = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(thread_cap), **report,
        "result": line,
    }
    stem.with_suffix(".json").write_text(json.dumps(full, indent=2) + "\n")
    if tracer is not None:
        tracer.write_spans(stem.with_suffix(".spans.csv"))

    for text in _summary_lines(args.workload, report, args.trace):
        print(text)
    print(f"result written to {stem.with_suffix('.json').relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
