"""End-to-end tests for the command line interface.

Everything goes through cli.run(argv) so exit codes and stdout/stderr
are exercised exactly as a shell user would see them.
"""

import csv
import io
import json

import pytest

from qcldpc import cli
from qcldpc.analysis import low_weight_search
from qcldpc.binmat import read_alist
from qcldpc.cli import run
from qcldpc.gf2poly import RingModulus
from qcldpc.gldpc import construct_generator, expand_binary, load_spec
from qcldpc.polymat import circulant_expand, read_pmx

from conftest import data_path, in_kernel


def run_json(capsys, argv):
    assert run(argv) == 0, capsys.readouterr().err
    return json.loads(capsys.readouterr().out)


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "subcommand" in capsys.readouterr().out.lower() or True

    def test_missing_file_is_domain_error(self, capsys):
        assert run(["rank", "--matrix", "no_such_file.pmx", "--N", "5"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_construct_matrix_without_modulus(self, capsys):
        assert run(["construct", "--matrix", "ex1.pmx"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_girth_without_input(self, capsys):
        assert run(["girth"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "--case1", "--matrix", "ex1.pmx"],
            ["girth", "--matrix", "ex1.pmx"],
            ["export", "--matrix", "ex1.pmx", "--out", "unused.pmx"],
            ["distance", "--matrix", "ex1.pmx"],
        ],
    )
    def test_matrix_without_modulus_names_the_flag(self, capsys, argv):
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: --N is required with --matrix"]

    def test_case1_without_matrix_is_domain_error(self, capsys):
        assert run(["construct", "--case1", "--spec", "n79.json"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: give --matrix with --N"]

    def test_threads_only_on_distance(self, capsys):
        assert run(["rank", "--matrix", "ex1.pmx", "--N", "45", "--threads", "2"]) == 2
        assert "--threads" in capsys.readouterr().err

    def test_threads_below_one_is_domain_error(self, capsys):
        assert run(["distance", "--spec", "n79.json", "--threads", "0"]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: --threads must be at least 1"]

    @pytest.mark.parametrize("command", ["construct", "distance", "encode"])
    @pytest.mark.parametrize("extra", [["--matrix", "ex1.pmx", "--N", "44"], ["--N", "44"]])
    def test_spec_with_matrix_is_domain_error(self, capsys, command, extra):
        assert run([command, "--spec", "c1.json", *extra]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: give either --spec or --matrix with --N, not both"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--spec", "c1.json", "--snr=1"],
            ["distance", "--spec", "n79.json"],
            ["encode", "--spec", "n79.json"],
        ],
    )
    def test_negative_seed_is_domain_error(self, capsys, argv):
        assert run([*argv, "--seed", "-1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: --seed must be at least 0"]

    @pytest.mark.parametrize("key", ["assignment", "exponents", "N"])
    def test_spec_missing_key_is_domain_error(self, capsys, tmp_path, key):
        with open(data_path("c1.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        del spec[key]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        assert run(["gldpc", "--spec", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: spec has no {key!r} key"]


class TestRank:
    def test_bundled_example_at_45(self, capsys):
        out = run_json(capsys, ["rank", "--matrix", "ex1.pmx", "--N", "45"])
        assert out["rank"] == 132
        assert out["dimension"] == 93
        assert out["N"] == 45
        assert out["smith_diagonal"] == ["1+x^2", "1+x^2", "1+x^2"]

    def test_explicit_path_matches_bundled_name(self, capsys, tmp_path):
        out_a = run_json(capsys, ["rank", "--matrix", "ex1.pmx", "--N", "46"])
        out_b = run_json(capsys, ["rank", "--matrix", str(data_path("ex1.pmx")), "--N", "46"])
        assert out_a == out_b
        assert out_a["dimension"] == 98

    def test_out_writes_json_file(self, capsys, tmp_path):
        target = tmp_path / "rank.json"
        assert run(["rank", "--matrix", "ex1.pmx", "--N", "44", "--out", str(target)]) == 0
        out = json.loads(target.read_text())
        assert (out["rank"], out["dimension"]) == (126, 94)


class TestGirth:
    def test_exponent_row_pair(self, capsys):
        out = run_json(capsys, ["girth", "--exponents", "0,54,66,71,55,69", "--N", "79"])
        assert out == {"girth": 12, "acyclic": False}

    def test_duplicated_exponent_gives_four(self, capsys):
        out = run_json(capsys, ["girth", "--exponents", "0,5,5", "--N", "7"])
        assert out["girth"] == 4

    def test_spec_input(self, capsys):
        out = run_json(capsys, ["girth", "--spec", "c1.json"])
        assert out["girth"] == 12

    def test_acyclic_matrix(self, capsys, tmp_path):
        path = tmp_path / "tree.pmx"
        path.write_text("1;1\n")
        out = run_json(capsys, ["girth", "--matrix", str(path), "--N", "1"])
        assert out == {"girth": None, "acyclic": True}


class TestConstruct:
    def test_spec_reaches_full_dimension(self, capsys):
        out = run_json(capsys, ["construct", "--spec", "n79.json"])
        assert out["rank"] == out["target_dimension"] == 158
        assert out["complete"] is True
        assert out["min_row_weight"] == 16
        assert len(out["rows"]) == 2

    def test_case1_adds_standard_rows(self, capsys):
        out = run_json(capsys, ["construct", "--case1", "--matrix", "ar4ja.pmx", "--N", "4"])
        assert out["rank"] == 8
        assert out["complete"] is True
        assert len(out["standard_rows"]) == 2
        kinds = {o["kind"] for o in out["row_provenance"]}
        assert kinds <= {"lemma1"}

    def test_plain_matrix_uses_general_path(self, capsys):
        out = run_json(capsys, ["construct", "--matrix", "ex1.pmx", "--N", "45"])
        assert out["rank"] == 93
        assert "standard_rows" not in out


class TestGldpc:
    def test_dimension_and_rate(self, capsys):
        out = run_json(capsys, ["gldpc", "--spec", "c2.json"])
        assert out["n"] == 476
        assert out["dimension"] == 72
        assert out["design_rate"] == "1/7"
        assert len(out["generator"]["rows"]) * 68 >= 72

    def test_prelifted_spec(self, capsys):
        out = run_json(capsys, ["gldpc", "--spec", "prelift90.json"])
        assert out["n"] == 540
        assert out["dimension"] == 91


class TestDistance:
    def test_exact_small_code(self, capsys):
        out = run_json(capsys, ["distance", "--matrix", "ar4ja.pmx", "--N", "4", "--exact"])
        assert out["exact"] == 4
        assert out["upper"] == out["lower"] == 4
        assert "enumeration" in out["method"]

    def test_search_is_deterministic(self, capsys):
        argv = ["distance", "--spec", "c1.json", "--iterations", "300", "--seed", "7"]
        first = run_json(capsys, argv)
        second = run_json(capsys, argv)
        assert first == second
        assert first["upper"] == 16
        assert first["witness_polys"] is not None

    def test_short_distance_combines_to_exact(self, capsys):
        out = run_json(
            capsys,
            [
                "distance", "--matrix", "ar4ja.pmx", "--N", "4",
                "--iterations", "2000", "--seed", "0", "--short-distance", "4",
            ],
        )
        assert out["exact"] == 4

    def test_negative_iterations_is_domain_error(self, capsys):
        assert run(["distance", "--spec", "n79.json", "--iterations", "-5"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: --iterations must be at least 0"]

    def test_threads_option_accepted(self, capsys):
        out = run_json(
            capsys,
            ["distance", "--spec", "n79.json", "--iterations", "200",
             "--seed", "1", "--threads", "2"],
        )
        assert out["upper"] == 16

    def test_threads_capped_at_cpu_count_and_total_reported(self, capsys, monkeypatch):
        workers = []

        class SerialPool:
            """Runs the map in the calling thread; records the pool size."""

            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        out = run_json(
            capsys,
            ["distance", "--spec", "n79.json", "--iterations", "400",
             "--seed", "5", "--threads", "4"],
        )
        assert workers == [2]
        assert out["method"] == "row sweep + 400 randomized evaluations, seeds 5..8"
        Gb = circulant_expand(construct_generator(load_spec(data_path("n79.json"))).matrix)
        reports = [low_weight_search(Gb, 100, s) for s in range(5, 9)]
        assert out["upper"] == min(r.upper for r in reports)


class TestEncode:
    def test_seeded_message_is_reproducible(self, capsys):
        argv = ["encode", "--spec", "n79.json", "--seed", "3"]
        first = run_json(capsys, argv)
        second = run_json(capsys, argv)
        assert first == second
        assert first["n"] == 474

    def test_codeword_lies_in_expanded_kernel(self, capsys):
        out = run_json(capsys, ["encode", "--spec", "n79.json", "--seed", "11"])
        spec = load_spec(data_path("n79.json"))
        bits = 0
        for j, ch in enumerate(out["codeword"]):
            if ch == "1":
                bits |= 1 << j
        assert in_kernel(expand_binary(spec), bits)
        assert out["weight"] == bin(bits).count("1")

    def test_explicit_message_polys(self, capsys):
        out = run_json(
            capsys,
            ["encode", "--matrix", "ar4ja.pmx", "--N", "4", "--message", "1;x"],
        )
        assert out["n"] == 20
        assert len(out["codeword"]) == 20
        assert out["weight"] > 0

    def test_wrong_message_count(self, capsys):
        assert run(["encode", "--matrix", "ar4ja.pmx", "--N", "4", "--message", "1"]) == 1
        assert "error:" in capsys.readouterr().err


class TestSimulate:
    ARGS = [
        "simulate", "--spec", "c1.json", "--snr=-6",
        "--max-trials", "2", "--min-block-errors", "1",
        "--max-iterations", "2", "--seed", "5",
    ]

    def test_csv_shape(self, capsys):
        assert run(self.ARGS) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 1
        row = rows[0]
        assert row["snr_db"] == "-6.0"
        assert int(row["trials"]) <= 2
        assert float(row["ber"]) >= 0.0

    def test_multiple_points_and_reproducibility(self, capsys):
        argv = list(self.ARGS)
        argv[argv.index("--snr=-6")] = "--snr=-6,6"
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == first
        rows = list(csv.DictReader(io.StringIO(first)))
        assert [r["snr_db"] for r in rows] == ["-6.0", "6.0"]

    @pytest.mark.parametrize("snr", [["--snr=nan"], ["--snr", "inf"], ["--snr=-1,-inf"]])
    def test_non_finite_snr_is_domain_error(self, capsys, snr):
        assert run(["simulate", "--spec", "c1.json", *snr]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: --snr values must be finite")

    def test_negative_max_trials_is_domain_error(self, capsys):
        assert run(["simulate", "--spec", "c1.json", "--snr=1", "--max-trials", "-3"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: --max-trials must be at least 0"]

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_min_block_errors_below_one_is_domain_error(self, capsys, count):
        argv = ["simulate", "--spec", "c1.json", "--snr=1", "--min-block-errors", count]
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: --min-block-errors must be at least 1"]

    def test_nan_llr_clip_is_domain_error(self, capsys):
        argv = ["simulate", "--spec", "c1.json", "--snr=1", "--max-trials", "2",
                "--llr-clip", "nan"]
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: llr_clip must be positive, got nan"]

    def test_hamming15_counts_pinned(self, capsys):
        argv = [
            "simulate", "--spec", "hamming15.json", "--snr", "0,0.5",
            "--max-trials", "8", "--min-block-errors", "4", "--seed", "11",
            "--max-iterations", "40",
        ]
        assert run(argv) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [",".join(r.split(",")[:4]) for r in rows] == ["0.0,4,660,4", "0.5,7,354,4"]

    def test_out_writes_csv_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        assert run(self.ARGS + ["--out", str(target)]) == 0
        text = target.read_text()
        assert text.startswith("snr_db,trials,bit_errors,block_errors,ber,bler")


class TestExport:
    def test_requires_out(self, capsys):
        assert run(["export", "--spec", "c1.json", "--format", "alist"]) == 2
        assert "export needs --out" in capsys.readouterr().err

    def test_alist_round_trip(self, capsys, tmp_path):
        target = tmp_path / "c1.alist"
        assert run(["export", "--spec", "c1.json", "--format", "alist",
                    "--out", str(target)]) == 0
        assert "wrote" in capsys.readouterr().err
        spec = load_spec(data_path("c1.json"))
        direct = expand_binary(spec)
        again = read_alist(target)
        assert again.rows == direct.rows

    def test_pmx_round_trip(self, capsys, tmp_path):
        target = tmp_path / "ex1_copy.pmx"
        assert run(["export", "--matrix", "ex1.pmx", "--N", "45",
                    "--format", "pmx", "--out", str(target)]) == 0
        original = read_pmx(data_path("ex1.pmx"), RingModulus(45))
        copied = read_pmx(target, RingModulus(45))
        assert copied.to_text_rows() == original.to_text_rows()


class TestSelftest:
    def test_golden_corpus_passes(self, capsys):
        assert run(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "selftest: 0 failure(s)" in out
        assert "FAIL" not in out
