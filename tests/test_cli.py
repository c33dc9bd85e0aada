"""End-to-end tests for the command line interface.

Everything goes through cli.run(argv) so exit codes and stdout/stderr
are exercised exactly as a shell user would see them.
"""

import argparse
import contextlib
import copy
import csv
import hashlib
import io
import json
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from qcldpc import analysis, cli, gldpc
from qcldpc.analysis import low_weight_search
from qcldpc.binmat import read_alist
from qcldpc.cli import run
from qcldpc.gf2poly import RingModulus
from qcldpc.gldpc import GldpcSpec, construct_generator, expand_binary, load_spec
from qcldpc.polymat import circulant_expand, read_pmx

from conftest import data_path, in_kernel, large_component_spec


def _never(*args, **kwargs):
    raise AssertionError("an oversized input reached construction or expansion")


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

    # Each subcommand's option strings, as the parser has always built them.
    OPTIONS = {
        "rank": "--matrix --N",
        "construct": "--matrix --N --spec --case1",
        "gldpc": "--spec",
        "girth": "--matrix --N --spec --exponents",
        "distance": (
            "--matrix --N --spec --exact --budget --iterations --seed --short-distance --threads"
        ),
        "encode": "--matrix --N --spec --message --seed",
        "simulate": (
            "--spec --snr --max-trials --min-block-errors --seed --max-iterations --llr-clip"
        ),
        "export": "--matrix --N --spec --format",
        "selftest": "",
    }

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_each_subcommand_keeps_its_flags(self, command):
        parser = cli._build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        got = {s for a in sub.choices[command]._actions for s in a.option_strings}
        assert got == {"-h", "--help", "--out", *self.OPTIONS[command].split()}

    def test_threads_only_on_distance(self, capsys):
        assert run(["rank", "--matrix", "ex1.pmx", "--N", "45", "--threads", "2"]) == 2
        assert "--threads" in capsys.readouterr().err

    def test_threads_below_one_is_domain_error(self, capsys):
        assert run(["distance", "--spec", "n79.json", "--threads", "0"]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: --threads must be at least 1"]

    @pytest.mark.parametrize(
        "command",
        [
            "construct",
            "distance",
            "encode",
            "girth",
            pytest.param("export --out unused.alist", id="export"),
            pytest.param("construct --case1", id="construct-case1"),
        ],
    )
    @pytest.mark.parametrize("extra", [["--matrix", "ex1.pmx", "--N", "44"], ["--N", "44"]])
    def test_spec_with_matrix_is_domain_error(self, capsys, command, extra):
        assert run([*command.split(), "--spec", "c1.json", *extra]) == 1
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["--spec", "c1.json", "--exponents", "0,1,3", "--N", "7"],
            ["--matrix", "ex1.pmx", "--exponents", "0,1,3", "--N", "7"],
        ],
    )
    def test_girth_exponents_with_another_input(self, capsys, argv):
        assert run(["girth", *argv]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: give ")

    # Too large to shift by at all; a value that shifts but allocates a
    # huge int is never used here.
    HUGE = "99999999999999999999999"

    def test_oversized_exponent_without_a_ring_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "huge.pmx"
        path.write_text(f"1;x^{self.HUGE}\n", encoding="utf-8")
        assert run(["rank", "--matrix", str(path), "--N", "3"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "--matrix", "ar4ja.pmx"],
            ["girth", "--exponents", "0,1,3"],
            ["rank", "--matrix", "ex1.pmx"],
        ],
    )
    def test_oversized_N_is_domain_error(self, capsys, argv):
        assert run([*argv, "--N", "100000000000000000000"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: ")

    def test_oversized_exponent_reads_in_the_ring(self, capsys, tmp_path):
        # HUGE = 0 mod 3 and 3 mod 4, so each reads as a small exponent.
        huge, small = tmp_path / "huge.pmx", tmp_path / "small.pmx"
        huge.write_text(f"1;x^{self.HUGE};x\n", encoding="utf-8")
        small.write_text("1;1;x\n", encoding="utf-8")
        assert run(["construct", "--matrix", str(huge), "--N", "3"]) == 0
        got = capsys.readouterr().out
        assert run(["construct", "--matrix", str(small), "--N", "3"]) == 0
        assert got == capsys.readouterr().out
        base = ["encode", "--matrix", "ar4ja.pmx", "--N", "4", "--message"]
        assert run([*base, f"x^{self.HUGE};1"]) == 0
        got = capsys.readouterr().out
        assert run([*base, "x^3;1"]) == 0
        assert got == capsys.readouterr().out

    @pytest.mark.parametrize(
        "name,key,value,message",
        [
            ("c1.json", "N", "68", "N must be an integer, got '68'"),
            ("c1.json", "exponents", "013", "exponents must be a nonempty list of integers"),
            ("c1.json", "exponents", [0, 1.5, 3], "an exponent must be an integer, got 1.5"),
            ("c1.json", "assignment", None, "assignment must be a list of components or nulls"),
            ("c1.json", "assignment", [{}, None], "a component needs 'parity', a list of 0/1"),
            (
                "c1.json", "assignment", [{"parity": ["11a0"]}, None],
                "a component needs 'parity', a list of 0/1",
            ),
            ("prelift68.json", "N1", 0, "N1 must be a positive divisor of N"),
            ("prelift68.json", "N1", -4, "N1 must be a positive divisor of N"),
            ("prelift68.json", "N1", 3, "N1 must be a positive divisor of N"),
            ("prelift68.json", "N1", 2.0, "N1 must be an integer, got 2.0"),
        ],
        ids=[
            "N-string", "exponents-string", "exponents-float", "assignment-null",
            "component-no-parity", "component-bad-digit", "N1-zero", "N1-negative",
            "N1-not-divisor", "N1-float",
        ],
    )
    def test_malformed_spec_is_domain_error(self, capsys, tmp_path, name, key, value, message):
        with open(data_path(name), encoding="utf-8") as fh:
            spec = json.load(fh)
        spec[key] = value
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        assert run(["gldpc", "--spec", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith(f"error: {message}")

    # c1 at N = 10**6 expands to 4,000,000 x 7,000,000 bits; x^N + 1 itself
    # is only a million bits, so reading the input stays small.
    OVERSIZED = "error: binary expansion 4000000 x 7000000 exceeds the bound of 268435456 bits"

    @pytest.mark.parametrize(
        "command",
        ["gldpc", "distance", pytest.param("simulate --snr 3", id="simulate")],
    )
    def test_oversized_spec_is_one_error_line(self, capsys, monkeypatch, tmp_path, command):
        for module in (cli, gldpc):
            for name in ("construct_generator", "circulant_expand"):
                monkeypatch.setattr(module, name, _never)
        with open(data_path("c1.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        spec["N"] = 10**6
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        assert run([*command.split(), "--spec", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [self.OVERSIZED]

    @pytest.mark.parametrize(
        "command", ["construct", "distance", "export --out unused.alist", "girth"]
    )
    def test_oversized_matrix_is_one_error_line(self, capsys, monkeypatch, command):
        for name in ("generator_general", "circulant_expand", "girth"):
            monkeypatch.setattr(cli, name, _never)
        assert run([*command.split(), "--matrix", "ar4ja.pmx", "--N", str(10**6)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "error: binary expansion 3000000 x 5000000 exceeds the bound of 268435456 bits"
        ]

    # N = 2,000,000,000: x^N + 1 alone is 250 MB, and one term x^(N-1) as
    # much. Sizes are checked first, so reading the input stays small.
    BIG_N = 2_000_000_000

    def big_inputs(self, tmp_path):
        """(argv, the error line) of each oversized input at BIG_N."""
        with open(data_path("c1.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        spec["N"] = self.BIG_N
        split = dict(spec, N1=2, assignment=[spec["assignment"][0], None, None, None])
        bound = "exceeds the bound of 268435456 bits"
        cases = []
        for name, d, rows, cols in (
            ("spec.json", spec, 4, 7), ("split.json", split, 3, 7),
        ):
            (tmp_path / name).write_text(json.dumps(d), encoding="utf-8")
            cases.append((["gldpc", "--spec", str(tmp_path / name)],
                          f"error: binary expansion {rows * self.BIG_N} x {cols * self.BIG_N} {bound}"))
        pmx = tmp_path / "big.pmx"
        pmx.write_text(f"x^{self.BIG_N - 1}\n", encoding="utf-8")
        for command in ("construct", "girth"):
            cases.append(([command, "--matrix", str(pmx), "--N", str(self.BIG_N)],
                          f"error: binary expansion {self.BIG_N} x {self.BIG_N} {bound}"))
        # rank reads its matrix without a ring, so the exponent is taken as
        # written: the term is refused before 1 is shifted by it.
        far = tmp_path / "far.pmx"
        far.write_text("1;x^100000000000\n", encoding="utf-8")
        cases.append((["rank", "--matrix", str(far), "--N", "3"],
                      "error: term x^100000000000 exceeds the bound of 268435456 bits"))
        # A 20 x 46 component's trellis table is refused before any trial.
        (tmp_path / "large.json").write_text(json.dumps(large_component_spec()), encoding="utf-8")
        cases.append((["simulate", "--spec", str(tmp_path / "large.json"), "--snr", "1",
                       "--max-trials", "2"],
                      "error: a component of 20 parity rows over 46 bits needs a kernel table "
                      f"of {46 << 20} entries, past the bound of 32768"))
        zero = tmp_path / "zero.pmx"  # its Smith entry is 0, so d = x^N + 1
        zero.write_text("0;0;0\n", encoding="utf-8")
        cases.append((["rank", "--matrix", str(zero), "--N", str(self.BIG_N)],
                      f"error: d = x^{self.BIG_N} + 1 of a zero Smith entry {bound}"))
        edges = 6 * self.BIG_N  # [ones; x^e] over three exponents
        cases.append((["girth", "--exponents", f"0,1,{self.BIG_N - 1}", "--N", str(self.BIG_N)],
                      f"error: Tanner graph of {edges} edges exceeds the bound of "
                      f"{analysis._MAX_TANNER_EDGES} edges"))
        return cases

    def test_oversized_inputs_are_rejected_in_little_memory(self, capsys, tmp_path):
        for argv, line in self.big_inputs(tmp_path):
            tracemalloc.start()
            try:
                code = run(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            out, err = capsys.readouterr()
            assert (code, out, err.splitlines()) == (1, "", [line]), argv
            assert peak < 16 << 20, (argv, peak)

    def test_girth_past_the_edge_bound_is_one_error_line(self, capsys, monkeypatch):
        # 0,1,3 gives six terms, so this N passes the bound by a few edges,
        # while its x^N + 1 stays about a megabit. row_edges raises if it is
        # reached, so nothing of the graph's size is allocated.
        monkeypatch.setattr(analysis, "row_edges", _never)
        bound = analysis._MAX_TANNER_EDGES
        N = bound // 6 + 1
        assert run(["girth", "--exponents", "0,1,3", "--N", str(N)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"error: Tanner graph of {6 * N} edges exceeds the bound of {bound} edges"
        ]

    def test_girth_within_the_edge_bound_reaches_the_tables(self, monkeypatch):
        # N = 10**6 (girth 12, about 0.6 s) stays within the bound: the
        # search gets as far as building its tables.
        class Reached(Exception):
            pass

        def reached(H):
            raise Reached

        monkeypatch.setattr(analysis, "row_edges", reached)
        with pytest.raises(Reached):
            run(["girth", "--exponents", "0,1,3", "--N", str(10**6)])

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

    def test_n_of_a_billion_needs_no_n_bit_modulus(self, capsys):
        out = run_json(capsys, ["rank", "--matrix", "ex1.pmx", "--N", "1000000000"])
        assert (out["rank"], out["dimension"]) == (2_999_999_994, 2_000_000_006)
        assert out["d_polys"] == ["1+x^2"] * 3


class TestGirth:
    def test_exponent_row_pair(self, capsys):
        out = run_json(capsys, ["girth", "--exponents", "0,54,66,71,55,69", "--N", "79"])
        assert out == {"girth": 12, "acyclic": False}

    def test_duplicated_exponent_gives_four(self, capsys):
        out = run_json(capsys, ["girth", "--exponents", "0,5,5", "--N", "7"])
        assert out["girth"] == 4

    @pytest.mark.parametrize("exponents", ["0,1.5", "0,,3", "x"])
    def test_unparsable_exponents_name_the_flag(self, capsys, exponents):
        assert run(["girth", "--exponents", exponents, "--N", "5"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"error: --exponents must be comma-separated integers, got {exponents!r}"
        ]

    def test_spec_input(self, capsys):
        out = run_json(capsys, ["girth", "--spec", "c1.json"])
        assert out["girth"] == 12

    @pytest.mark.parametrize(
        "spec", ["n79.json", "c1.json", "c2.json", "prelift90.json", "prelift68.json",
                 "hamming15.json"],
    )
    def test_every_bundled_spec_has_girth_12(self, capsys, spec):
        assert run_json(capsys, ["girth", "--spec", spec]) == {"girth": 12, "acyclic": False}

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


# sha256 of the stdout of `qcldpc gldpc --spec <name>.json`, byte for byte.
GLDPC_STDOUT_SHA256 = {
    "n79": "01ac2fc7b1e67130b23d86348430163bb3cf7b24964dce208ebdedb4d7788ef4",
    "c1": "5ea17dc3ccb396a7f38e72fb570defb69d7fa9c9cfac99b60be3e54d2a5aa71c",
    "c2": "f986eaa3bc995b564a106d9378f56c04435239a9e2fb0f92b6689cfefa6561d3",
    "prelift90": "06f08db6efebb64998bf4e89507d2005c66f9370d75282a0e98ac098aebc67bc",
    "prelift68": "d8bab2f9b52a6a9083d1c512028e161b158c7a165b9b54b669ffa96e731bf625",
    "hamming15": "8617ea987b9b3319460e7058a308a926d57f604f6fdca4577faf95ced9cc0ae4",
}

# sha256 of the stdout of `qcldpc <argv>`, byte for byte: the case-1 and
# general constructions and the seeded multi-seed distance search.
CLI_STDOUT_SHA256 = {
    "construct --case1 --matrix ar4ja.pmx --N 4":
        "72f9462844f0cec9c2cd79096a5fefa732eaf6e3bba48ca5527775bb73873bd3",
    "construct --matrix ar4ja.pmx --N 10":
        "d56db7f2981658ba27ba4dca5b1f059aeecc87369f76335b5cd5b039b6fc95d6",
    "distance --spec n79.json --iterations 400 --seed 5 --threads 4":
        "4846c0e93d62ad402f78b3d52a756c58d7c0885719d34fa328de0b2f4b6b607a",
    "distance --spec c2.json --iterations 2000 --seed 1 --threads 3":
        "b78df11cab0ed0fe6f0d985c51fd33e756b940a4cee90c9c0ccc68eae6a9cc47",
    # These three run information-set rounds; the two above end in the pair sweep.
    "distance --spec c1.json --iterations 30000 --seed 1":
        "7a1553ab4a553220bfc838185defe3299c66eb8ce1d2d399ab8ecc899f385a8a",
    "distance --spec n79.json --iterations 20000 --seed 3":
        "9664dcd6ee2c5d1327671299deeb3f72e3bd735aae25ee781959c806554d90ac",
    "distance --spec prelift68.json --iterations 20000 --seed 2 --threads 2":
        "fb694d166b15d802ae1343f60d781513f6a35d9b75fcbf5cb929837cae449a94",
    "rank --matrix ex1.pmx --N 44":
        "c42494dddb5fd93f22906986da638b1b712599c6bcf21ec2fc7bf32e91274081",
    "rank --matrix ex1.pmx --N 45":
        "2e9f772cc51f5eaee24c588e15d712c0c9067837a48559901b410159df1a2770",
    "rank --matrix ex1.pmx --N 46":
        "74d40a930e3defd3807e83810724251e9773fcac59ea52f9ec418f67e51168f1",
}


class TestPinnedOutputs:
    @pytest.mark.parametrize("argv", sorted(CLI_STDOUT_SHA256))
    def test_stdout_is_pinned(self, capsys, argv):
        assert run(argv.split()) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == CLI_STDOUT_SHA256[argv]

    def test_case1_singular_minor_is_one_error_line(self, capsys):
        assert run(["construct", "--case1", "--matrix", "ex1.pmx", "--N", "45"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "error: minor over columns (1, 2, 3) is not invertible mod x^45+1"
        ]


class TestGldpc:
    def test_dimension_and_rate(self, capsys):
        out = run_json(capsys, ["gldpc", "--spec", "c2.json"])
        assert out["n"] == 476
        assert out["dimension"] == 72
        assert out["design_rate"] == "1/7"
        assert len(out["generator"]["rows"]) * 68 >= 72

    @pytest.mark.parametrize("name", sorted(GLDPC_STDOUT_SHA256))
    def test_output_is_pinned(self, capsys, name):
        assert run(["gldpc", "--spec", f"{name}.json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == GLDPC_STDOUT_SHA256[name]

    @pytest.mark.parametrize(
        "argv", ["gldpc --spec prelift68.json", "distance --spec n79.json --iterations 600"]
    )
    def test_builds_the_effective_matrix_at_load_and_construction(
        self, capsys, monkeypatch, argv
    ):
        builds = []
        build = GldpcSpec.effective_matrix
        monkeypatch.setattr(
            GldpcSpec, "effective_matrix", lambda self: builds.append(self) or build(self)
        )
        assert run(argv.split()) == 0, capsys.readouterr().err
        assert len(builds) == 2  # the spec's own check, then the construction

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

    @pytest.mark.parametrize("N, d", [("4", 4), ("10", 6)])
    def test_exact_output_is_pinned(self, capsys, N, d):
        assert run(["distance", "--matrix", "ar4ja.pmx", "--N", N, "--exact"]) == 0
        assert capsys.readouterr().out == (
            "{\n"
            f'  "upper": {d},\n'
            f'  "lower": {d},\n'
            f'  "exact": {d},\n'
            '  "method": "exhaustive enumeration",\n'
            '  "witness": null\n'
            "}\n"
        )

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

    def test_budget_below_one_is_domain_error(self, capsys):
        argv = ["distance", "--matrix", "ar4ja.pmx", "--N", "4", "--exact", "--budget", "-5"]
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: --budget must be at least 1"]

    def test_threads_option_accepted(self, capsys):
        out = run_json(
            capsys,
            ["distance", "--spec", "n79.json", "--iterations", "200",
             "--seed", "1", "--threads", "2"],
        )
        assert out["upper"] == 16

    def test_threads_run_seeds_in_turn_and_total_reported(self, capsys):
        out = run_json(
            capsys,
            ["distance", "--spec", "n79.json", "--iterations", "400",
             "--seed", "5", "--threads", "4"],
        )
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

    def test_message_negative_exponent_reads_in_the_ring(self, capsys):
        # x^-1 is x^78 over x^79 + 1, as in a .pmx matrix.
        base = ["encode", "--spec", "n79.json", "--message"]
        assert run([*base, "x^-1;1"]) == 0
        negative = capsys.readouterr().out
        assert run([*base, "x^78;1"]) == 0
        assert negative == capsys.readouterr().out

    def test_empty_message_is_the_message(self, capsys, tmp_path):
        # An empty --message is one zero polynomial, never a random message.
        path = tmp_path / "one_row.pmx"
        path.write_text("1;x\n", encoding="utf-8")
        words = [
            run_json(capsys, ["encode", "--matrix", str(path), "--N", "5",
                              "--message", "", "--seed", str(seed)])
            for seed in (0, 1)
        ]
        assert words[0] == words[1] == {"n": 10, "weight": 0, "codeword": "0" * 10}
        assert run(["encode", "--matrix", "ar4ja.pmx", "--N", "4", "--message", ""]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: message length 1 != 2 generator rows"]

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

    @pytest.mark.parametrize("snr", ["a", "1,,2", "1,a"])
    def test_unparsable_snr_names_the_flag(self, capsys, snr):
        assert run(["simulate", "--spec", "c1.json", f"--snr={snr}"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"error: --snr must be comma-separated numbers, got {snr!r}"
        ]

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

    def test_infinite_llr_clip_is_domain_error(self, capsys):
        argv = ["simulate", "--spec", "c1.json", "--snr=1", "--max-trials", "2",
                "--llr-clip", "inf"]
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: llr_clip must be finite, got inf"]

    @pytest.mark.parametrize("snr", ["-1e308", "1e308", "1,3080"])
    def test_snr_without_a_noise_variance_is_domain_error(self, capsys, snr):
        assert run(["simulate", "--spec", "c1.json", f"--snr={snr}", "--max-trials", "2"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "error: SNR points must be finite and give a positive finite noise variance, "
            f"got {[float(s) for s in snr.split(',')]}"
        ]

    @pytest.mark.parametrize("snr", ["3077", "1,3079"])
    def test_snr_whose_llrs_overflow_is_domain_error(self, capsys, snr):
        assert run(["simulate", "--spec", "c1.json", f"--snr={snr}", "--max-trials", "2"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "error: SNR points must give a finite LLR scale 2 / noise variance, "
            f"got {[float(s) for s in snr.split(',')]}"
        ]

    def test_hamming15_counts_pinned(self, capsys):
        argv = [
            "simulate", "--spec", "hamming15.json", "--snr", "0,0.5",
            "--max-trials", "8", "--min-block-errors", "4", "--seed", "11",
            "--max-iterations", "40",
        ]
        assert run(argv) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [",".join(r.split(",")[:4]) for r in rows] == ["0.0,4,660,4", "0.5,7,354,4"]

    # sha256 of the stdout of `qcldpc simulate` with SIMULATE_PIN_ARGS on each
    # bundled spec, byte for byte. Every spec has a point that stops on
    # --min-block-errors short of --max-trials; prelift68, c2, prelift90 and
    # hamming15 also have points that run to --max-trials (n79 and c1 lose
    # nearly every frame down to -4 dB).
    SIMULATE_PIN_ARGS = ["--seed", "5", "--max-iterations", "30",
                         "--max-trials", "10", "--min-block-errors", "3"]
    SIMULATE_STDOUT_SHA256 = {
        "n79": ("-6,-5,-4", "994ca65f8d4cfe37d71d459e7c1b170c49f80a655f59fbf6fbbac7715e7af8df"),
        "c1": ("-6,-5,-4", "5849ff33041d82b7b8fe66a30b609e55a51cc4806571ee22c89c77eafbc2124e"),
        "prelift68": (
            "-6,-5,-4", "4eb9134373f5dd7684318655a9f44c46e462b17d2edee9a474b948ed79578eba"
        ),
        "c2": ("-7,-6,-5", "ed1435aff98c241219d0f79f0f77ca4726ebca98024afa8c4e23013c0a0a5f49"),
        "prelift90": (
            "-7,-6,-5", "0ef0e9f461843ccc8e1e4b379eb338e8cc094fc9676348eb1788cd6ab142f49d"
        ),
        "hamming15": (
            "0,0.5,1", "c420a6de2712b9b735214b788da39143fc85c93f5a22887bfb1826e293b46fad"
        ),
    }

    @pytest.mark.parametrize("name", sorted(SIMULATE_STDOUT_SHA256))
    def test_output_is_pinned(self, capsys, name):
        snr, digest = self.SIMULATE_STDOUT_SHA256[name]
        argv = ["simulate", "--spec", f"{name}.json", f"--snr={snr}", *self.SIMULATE_PIN_ARGS]
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, out

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


# Values of the wrong type or out of range, for any spec field.
ODD_VALUES = st.sampled_from([None, True, "7", 7.5, -1, 0, [], {}, [1], "x", 10**30])


def _bundled_spec(name):
    with open(data_path(name), encoding="utf-8") as fh:
        return json.load(fh)


MUTATED_BASES = {name: _bundled_spec(name) for name in ("n79.json", "c1.json", "c2.json")}


@st.composite
def mutated_specs(draw):
    """A bundled spec with one to three random edits: types, values,
    dropped keys, parity rows, identity_start, components and N1."""
    d = copy.deepcopy(MUTATED_BASES[draw(st.sampled_from(sorted(MUTATED_BASES)))])
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ["N", "exponent", "drop", "parity", "identity_start", "component", "N1"]
        ))
        comps = [c for c in d.get("assignment") or () if isinstance(c, dict)]
        if kind == "N":
            d["N"] = draw(st.sampled_from([1, 2, 3, 7, 68, 79, 10**6]) | ODD_VALUES)
        elif kind == "exponent" and isinstance(d.get("exponents"), list) and d["exponents"]:
            exps = d["exponents"]
            i = draw(st.integers(0, len(exps) - 1))
            action = draw(st.sampled_from(["set", "delete", "append"]))
            value = draw(st.integers(-200, 200) | ODD_VALUES)
            if action == "set":
                exps[i] = value
            elif action == "delete":
                del exps[i]
            else:
                exps.append(value)
        elif kind == "drop" and d:
            del d[draw(st.sampled_from(sorted(d)))]
        elif kind == "parity" and comps:
            comp = draw(st.sampled_from(comps))
            rows = comp.get("parity")
            action = draw(st.sampled_from(["flip", "drop", "repeat", "extend", "replace"]))
            if action == "replace" or not isinstance(rows, list) or not rows:
                comp["parity"] = draw(ODD_VALUES)
                continue
            r = draw(st.integers(0, len(rows) - 1))
            if action == "drop":
                del rows[r]
            elif action == "repeat":
                rows.append(rows[r])
            elif not isinstance(rows[r], str):
                # An earlier replace may have left a row that is not a
                # string; only string rows are flipped or extended.
                rows[r] = draw(ODD_VALUES)
            elif action == "flip":
                k = draw(st.integers(0, len(rows[r]) - 1))
                flipped = {"0": "1", "1": "0"}.get(rows[r][k], "0")
                rows[r] = rows[r][:k] + flipped + rows[r][k + 1 :]
            else:
                rows[r] += draw(st.sampled_from(["0", "1", "2"]))
        elif kind == "identity_start" and comps:
            comp = draw(st.sampled_from(comps))
            if draw(st.booleans()):
                comp.pop("identity_start", None)
            else:
                comp["identity_start"] = draw(st.integers(-2, 8) | ODD_VALUES)
        elif kind == "component" and isinstance(d.get("assignment"), list):
            i = draw(st.integers(0, len(d["assignment"]) - 1))
            d["assignment"][i] = draw(
                st.sampled_from([None, {"parity": ["111111"]}, {"parity": ["11"]}])
                | ODD_VALUES
            )
        elif kind == "N1":
            d["N1"] = draw(st.sampled_from([1, 2, 4, 0, -2, 3, "2"]))
    return d


class TestMutatedSpecs:
    COMMANDS = (
        ["gldpc"],
        ["construct"],
        ["girth"],
        ["distance", "--iterations", "50"],
        ["encode"],
        ["export", "--out"],
        ["simulate", "--snr", "3", "--max-trials", "1"],
    )

    @settings(max_examples=30, deadline=None)
    @given(mutated_specs())
    def test_every_command_succeeds_or_gives_one_error_line(self, spec):
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/spec.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
            for command in self.COMMANDS:
                argv = [*command, f"{tmp}/out.alist"] if command[-1] == "--out" else command
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = run([*argv, "--spec", path])
                lines = err.getvalue().splitlines()
                assert "Traceback" not in err.getvalue(), (argv, spec)
                assert code == 0 or (
                    code == 1 and len(lines) == 1 and lines[0].startswith("error:")
                ), (argv, spec, code, lines)
