"""Tiny-size runs of every workload, checked against BENCHMARK.json.

Run from the repository root: python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Each benchmark workload at its smallest useful size.
TINY = {
    "ber-waterfall": lambda: workloads.BerSweep(1, "c1", workloads.PINNED_SNRS, frames=1),
    "ber-highsnr": lambda: workloads.BerSweep(1, "hamming15", [3.0], frames=1,
                                              expect_error_free=True),
    "design": lambda: workloads.Design(1, specs=("n79", "c2"), search_evaluations=300),
}


def test_tiny_covers_every_workload():
    assert sorted(TINY) == sorted(w["name"] for w in BENCHMARK["workloads"])
    assert sorted(TINY) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_the_benchmark_metrics(name, trace):
    report, _ = run.measure(TINY[name](), seconds=0.01, trace=trace)
    line = run.result_line(report, BENCHMARK, trace)
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in wanted]
    assert line["correct"], report["failures"]
    assert line["failed"] == 0 and line["attempted"] >= 1
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(line["metrics"][m["name"]]["value"] > 0 for m in wanted)
    elif name == "ber-waterfall":
        assert line["metrics"]["channel.bcjr_component.self_frac"]["value"] > 0.5


def test_tracer_rebinds_every_import_and_restores():
    from qcldpc import channel, gldpc, polymat, rank

    originals = (channel.expand_binary, gldpc.rank_scalar, polymat.gcd, rank.gcd)
    with tracer.Tracer() as t:
        assert channel.expand_binary is not originals[0]
        assert gldpc.rank_scalar is not originals[1]
        assert polymat.gcd is rank.gcd is not originals[2]
        t.pass_id = 7
        spec = gldpc.load_spec(str(Path(workloads.DATA_DIR) / "c1.json"))
        gldpc.expand_binary(spec)
    assert (channel.expand_binary, gldpc.rank_scalar, polymat.gcd, rank.gcd) == originals
    summary = t.summary()
    assert summary["gldpc.expand_binary"]["calls"] == 1
    assert summary["polymat.circulant_expand"]["calls"] == 1
    # The expansion is the child of expand_binary, so it is not in its self time.
    parent = next(i for i, s in enumerate(t.spans) if t.names[s[1]] == "gldpc.expand_binary")
    child = next(s for s in t.spans if t.names[s[1]] == "polymat.circulant_expand")
    assert child[0] == 7 and child[4] == parent
    row = summary["gldpc.expand_binary"]
    assert row["self_s"] < row["busy_s"]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
