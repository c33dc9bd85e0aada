"""Command-line surface for construction, analysis, and simulation jobs.

Every subcommand reads polynomial matrices (.pmx), GLDPC specs (.json),
or the bundled data files, and writes JSON, CSV, or alist artifacts.
Exit codes: 0 on success, 1 on a domain error (singular pivot, budget,
incomplete generator, bad file), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import sys
from dataclasses import replace

from .analysis import (
    DistanceReport,
    _check_tanner_edges,
    bounds_combine,
    girth,
    low_weight_search,
    min_distance_exact,
)
from .binmat import bit_string, read_alist, write_alist
from .channel import DecoderConfig, encode, monte_carlo
from .construct import generator_case1, generator_general
from .gf2poly import BinaryPoly, RingModulus
from .gldpc import (
    assembled_parity,
    base_from_exponents,
    construct_generator,
    design_rate,
    expand_binary,
    load_spec,
    reduce_spec,
    schur_reduce,
)
from .polymat import PolyMatrix, circulant_expand, read_pmx, write_pmx
from .rank import rank_qc

_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def _resolve(path: str) -> str:
    """A path as given, or the bundled data file of the same name."""
    if os.path.exists(path):
        return path
    bundled = os.path.join(_DATA_DIR, os.path.basename(path))
    if os.path.exists(bundled):
        return bundled
    raise ValueError(f"no such file: {path}")


def _read_matrix(args) -> PolyMatrix:
    """The --matrix file over x^N + 1; --N is required with it."""
    if not args.matrix:
        raise ValueError("give --matrix with --N")
    if args.N is None:
        raise ValueError("--N is required with --matrix")
    return read_pmx(_resolve(args.matrix), RingModulus(args.N))


def _emit(obj, out: str | None) -> None:
    text = json.dumps(obj, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _check_inputs(args):
    """Reject inputs that would be silently ignored: --spec with --matrix/--N,
    and --exponents (girth only) with --spec or --matrix."""
    spec, matrix = getattr(args, "spec", None), getattr(args, "matrix", None)
    if spec and (matrix or getattr(args, "N", None) is not None):
        raise ValueError("give either --spec or --matrix with --N, not both")
    if getattr(args, "exponents", None) and (spec or matrix):
        raise ValueError("give --exponents with --N, without --spec or --matrix")


def _load_generator(args):
    """Build a generator from --spec or from --matrix/--N; returns (result, N)."""
    if args.spec:
        result = construct_generator(load_spec(_resolve(args.spec)))
        return result, result.matrix.modulus.N
    if not args.matrix:
        raise ValueError("give either --spec or --matrix with --N")
    return generator_general(_read_matrix(args)), args.N


def _parse_list(text: str, flag: str, kind, noun: str) -> list:
    """The comma-separated items of a flag's value, each read by ``kind``."""
    try:
        return [kind(t) for t in text.split(",")]
    except ValueError:
        raise ValueError(f"--{flag} must be comma-separated {noun}, got {text!r}") from None


def _cmd_rank(args) -> int:
    H = read_pmx(_resolve(args.matrix))
    report = rank_qc(H, RingModulus(args.N))
    _emit(report.to_dict(), args.out)
    return 0


def _cmd_construct(args) -> int:
    if args.case1:
        result, standard = generator_case1(_read_matrix(args))
        payload = result.to_dict()
        payload["standard_rows"] = standard.to_text_rows()
    else:
        result, _ = _load_generator(args)
        payload = result.to_dict()
    _emit(payload, args.out)
    return 0


def _cmd_gldpc(args) -> int:
    spec = load_spec(_resolve(args.spec))
    result = construct_generator(spec)
    G = result.matrix  # over the effective matrix's columns and ring
    _emit(
        {
            "n": G.ncols * G.modulus.N,
            "dimension": result.target_dimension,
            "design_rate": str(design_rate(spec)),
            "generator": result.to_dict(),
        },
        args.out,
    )
    return 0


def _cmd_girth(args) -> int:
    if args.spec:
        H = load_spec(_resolve(args.spec)).effective_matrix()
    elif args.exponents:
        if args.N is None:
            raise ValueError("--N is required with --exponents")
        exps = _parse_list(args.exponents, "exponents", int, "integers")
        _check_tanner_edges(2 * len(exps) * args.N)  # [ones; x^e]: one term an entry
        H = base_from_exponents(exps, RingModulus(args.N))
    elif args.matrix:
        H = _read_matrix(args)
    else:
        raise ValueError("give --spec, --matrix, or --exponents")
    g = girth(H)
    _emit(
        {"girth": None if g == math.inf else int(g), "acyclic": g == math.inf},
        args.out,
    )
    return 0


def _cmd_distance(args) -> int:
    result, N = _load_generator(args)
    Gb = circulant_expand(result.matrix)
    if args.exact:
        d = min_distance_exact(Gb, args.budget)
        report = DistanceReport(
            upper=d, lower=d, exact=d, ncols=Gb.ncols, method="exhaustive enumeration"
        )
    elif args.threads > 1:
        chunk = max(1, args.iterations // args.threads)
        seeds = range(args.seed, args.seed + args.threads)
        reports = [low_weight_search(Gb, chunk, s) for s in seeds]
        report = replace(
            min(reports, key=lambda r: r.upper),
            method=(
                f"row sweep + {chunk * args.threads} randomized evaluations, "
                f"seeds {seeds[0]}..{seeds[-1]}"
            ),
        )
    else:
        report = low_weight_search(Gb, args.iterations, args.seed)
    if args.short_distance is not None:
        report = bounds_combine(
            report.upper, args.short_distance, report.witness, report.ncols
        )
    _emit(report.to_dict(block_size=N), args.out)
    return 0


def _cmd_encode(args) -> int:
    result, N = _load_generator(args)
    G = result.matrix
    if args.message is not None:
        message = [BinaryPoly.parse(t, G.modulus) for t in args.message.split(";")]
    else:
        rng = random.Random(args.seed)
        message = [BinaryPoly(rng.getrandbits(N)) for _ in range(G.nrows)]
    word = encode(G, message)
    n = G.ncols * N
    _emit(
        {
            "n": n,
            "weight": word.bit_count(),
            "codeword": bit_string(word, n),
        },
        args.out,
    )
    return 0


def _cmd_simulate(args) -> int:
    snrs = _parse_list(args.snr, "snr", float, "numbers")
    if not all(math.isfinite(s) for s in snrs):
        raise ValueError(f"--snr values must be finite, got {args.snr}")
    cfg = DecoderConfig(max_iterations=args.max_iterations, llr_clip=args.llr_clip)
    spec = load_spec(_resolve(args.spec))
    result = construct_generator(spec)
    rows = monte_carlo(
        spec,
        result.matrix,
        snrs,
        {"min_block_errors": args.min_block_errors, "max_trials": args.max_trials},
        master_seed=args.seed,
        cfg=cfg,
    )
    fh = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.writer(fh)
        writer.writerow(["snr_db", "trials", "bit_errors", "block_errors", "ber", "bler"])
        for r in rows:
            writer.writerow(
                [r.snr_es_n0_db, r.trials, r.bit_errors, r.block_errors,
                 f"{r.ber:.8g}", f"{r.bler:.8g}"]
            )
    finally:
        if args.out:
            fh.close()
    return 0


def _cmd_export(args) -> int:
    Hp = assembled_parity(load_spec(_resolve(args.spec))) if args.spec else _read_matrix(args)
    Hb = circulant_expand(Hp)
    if args.format == "alist":
        write_alist(Hb, args.out)
    else:
        write_pmx(Hp, args.out)
    print(f"wrote {args.out} ({Hb.nrows} x {Hb.ncols} expanded)", file=sys.stderr)
    return 0


def _selftest_checks():
    """Golden-corpus checks over the bundled data files."""
    ex1 = os.path.join(_DATA_DIR, "ex1.pmx")

    def rank_check(N, want_rank, want_dim):
        def check():
            rep = rank_qc(read_pmx(ex1), RingModulus(N))
            return (rep.rank, rep.dimension) == (want_rank, want_dim), (
                f"rank {rep.rank}, dimension {rep.dimension}"
            )

        return check

    yield "rank N=45", rank_check(45, 132, 93)
    yield "rank N=46", rank_check(46, 132, 98)
    yield "rank N=44", rank_check(44, 126, 94)

    def case1_check():
        H = read_pmx(os.path.join(_DATA_DIR, "ar4ja.pmx"), RingModulus(4))
        result, standard = generator_case1(H)
        d = min_distance_exact(circulant_expand(result.matrix))
        ok = result.complete and result.target_dimension == 8 and d == 4
        return ok, f"dimension {result.target_dimension}, distance {d}"

    yield "case-1 generator", case1_check

    def gldpc_check(name, want_dim, want_weight=None):
        def check():
            result = construct_generator(load_spec(os.path.join(_DATA_DIR, name)))
            ok = result.complete and result.target_dimension == want_dim
            detail = f"dimension {result.target_dimension}"
            if want_weight is not None:
                weights = {
                    sum(p.weight() for p in row) for row in result.matrix.rows
                }
                ok = ok and weights == {want_weight}
                detail += f", row weights {sorted(weights)}"
            return ok, detail

        return check

    yield "generalized N=79", gldpc_check("n79.json", 158, 16)
    yield "generalized C1", gldpc_check("c1.json", 204, 16)
    yield "generalized C2", gldpc_check("c2.json", 72)
    yield "pre-lifted N=90", gldpc_check("prelift90.json", 91)

    def prelift68_check():
        H1s, _, _ = reduce_spec(load_spec(os.path.join(_DATA_DIR, "prelift68.json")))
        rep = rank_qc(H1s)
        rest, _, _ = schur_reduce(H1s, (1, 2, 3), (1, 2, 3))
        want = [
            "1+x^9+x^14+x^15+x^18+x^24",
            "1+x+x^2+x^3+x^4+x^5+x^8+x^9+x^15+x^27+x^32+x^33",
            "x^2+x^4+x^5+x^8+x^15+x^22+x^25+x^27+x^31+x^32+x^33",
            "x+x^3+x^4+x^5+x^8+x^9+x^21+x^23+x^25+x^27+x^33",
            "x+x^2+x^3+x^7+x^9+x^15+x^21+x^31+x^32",
        ]
        ok = rep.dimension == 136 and rest.to_text_rows()[0] == want
        return ok, f"kernel dimension {rep.dimension}"

    yield "pre-lift reduction N=34", prelift68_check

    def girth_check(name, want):
        def check():
            g = girth(load_spec(os.path.join(_DATA_DIR, name)).effective_matrix())
            return g == want, f"girth {g}"

        return check

    yield "girth N=79", girth_check("n79.json", 12)
    yield "girth C1", girth_check("c1.json", 12)
    yield "girth N=376", girth_check("hamming15.json", 12)

    def alist_check():
        import tempfile

        spec = load_spec(os.path.join(_DATA_DIR, "c1.json"))
        Hb = expand_binary(spec)
        with tempfile.NamedTemporaryFile("w", suffix=".alist", delete=False) as fh:
            path = fh.name
        try:
            write_alist(Hb, path)
            back = read_alist(path)
            ok = back.rows == Hb.rows and back.ncols == Hb.ncols
        finally:
            os.unlink(path)
        return ok, f"{Hb.nrows} x {Hb.ncols}"

    yield "alist round trip", alist_check


def _cmd_selftest(args) -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            ok, detail = check()
        except Exception as exc:  # a corpus check must never abort the table
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        status = "pass" if ok else "FAIL"
        print(f"{name:28s} {status}  ({detail})")
        failures += 0 if ok else 1
    print(f"{'-' * 44}")
    print(f"selftest: {failures} failure(s)")
    return 1 if failures else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcldpc",
        description="Quasi-cyclic and generalized LDPC construction toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="write the artifact here instead of stdout")
        return p

    p = add("rank", _cmd_rank, "rank and dimension of a polynomial matrix")
    p.add_argument("--matrix", required=True, help=".pmx file (plain polynomials)")
    p.add_argument("--N", type=int, required=True, help="circulant size")

    p = add("construct", _cmd_construct, "synthesize a polynomial generator matrix")
    p.add_argument("--matrix", help=".pmx parity-check matrix")
    p.add_argument("--N", type=int, help="circulant size")
    p.add_argument("--spec", help="GLDPC spec JSON")
    p.add_argument(
        "--case1", action="store_true",
        help="single-selection construction with standard form (needs --matrix)",
    )

    p = add("gldpc", _cmd_gldpc, "assemble and reduce a GLDPC spec end to end")
    p.add_argument("--spec", required=True, help="GLDPC spec JSON")

    p = add("girth", _cmd_girth, "Tanner-graph girth")
    p.add_argument("--matrix", help=".pmx matrix")
    p.add_argument("--spec", help="GLDPC spec JSON (uses its base graph)")
    p.add_argument("--exponents", help="comma-separated circulant exponents")
    p.add_argument("--N", type=int, help="circulant size")

    p = add("distance", _cmd_distance, "minimum-distance bounds")
    p.add_argument("--matrix", help=".pmx parity-check matrix")
    p.add_argument("--N", type=int, help="circulant size")
    p.add_argument("--spec", help="GLDPC spec JSON")
    p.add_argument("--exact", action="store_true", help="exhaustive enumeration")
    p.add_argument("--budget", type=int, default=1 << 24, help="message budget for --exact")
    p.add_argument("--iterations", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--short-distance", type=int, help="known distance of the short code")
    p.add_argument(
        "--threads", type=int, default=1,
        help="number of search seeds, run in turn from --seed; each takes --iterations / T",
    )

    p = add("encode", _cmd_encode, "encode a message with a constructed generator")
    p.add_argument("--matrix", help=".pmx parity-check matrix")
    p.add_argument("--N", type=int, help="circulant size")
    p.add_argument("--spec", help="GLDPC spec JSON")
    p.add_argument("--message", help="semicolon-separated message polynomials")
    p.add_argument("--seed", type=int, default=0, help="seed for a random message")

    p = add("simulate", _cmd_simulate, "Monte Carlo BER/BLER over BPSK-AWGN")
    p.add_argument("--spec", required=True, help="GLDPC spec JSON")
    p.add_argument("--snr", required=True, help="comma-separated E_s/N_0 points in dB")
    p.add_argument("--max-trials", type=int, default=1000)
    p.add_argument("--min-block-errors", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iterations", type=int, default=100)
    p.add_argument("--llr-clip", type=float, default=20.0)

    p = add("export", _cmd_export, "write a matrix as alist or .pmx")
    p.add_argument("--spec", help="GLDPC spec JSON")
    p.add_argument("--matrix", help=".pmx matrix")
    p.add_argument("--N", type=int, help="circulant size")
    p.add_argument("--format", choices=["alist", "pmx"], default="alist")

    p = add("selftest", _cmd_selftest, "run the bundled golden-corpus checks")

    return parser


# Lowest value of each integer flag, checked on every subcommand that has it.
_FLAG_MINIMUMS = {
    "threads": 1,
    "iterations": 0,
    "max_trials": 0,
    "min_block_errors": 1,
    "seed": 0,
    "budget": 1,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    if args.command == "export" and not args.out:
        print("error: export needs --out", file=sys.stderr)
        return 2
    try:
        for name, low in _FLAG_MINIMUMS.items():
            if getattr(args, name, low) < low:
                raise ValueError(f"--{name.replace('_', '-')} must be at least {low}")
        _check_inputs(args)
        return args.fn(args)
    except (ValueError, RuntimeError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
