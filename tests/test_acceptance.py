"""Release checklist: twelve end-to-end checks with stated tolerances.

Run `pytest tests/test_acceptance.py -v` to get one pass/fail line per
check.  Each check prints a short summary so a failing run carries the
measured numbers.  Worked values come from the bundled data files and
the frozen anchors shared with the unit suite; random checks are
compared against independent oracles (scalar rank over the circulant
expansion, exhaustive codeword enumeration).
"""

import random
import time
from collections import Counter

import numpy as np

from conftest import (
    P,
    data_path,
    hamming74,
    in_kernel,
    plain_display,
    random_poly_matrix,
    row_bits,
)
from test_channel import map_extrinsics
from test_construct import (
    PAIR_CODEWORDS,
    annihilators,
    example_matrix,
)
from qcldpc.analysis import bounds_combine, girth, low_weight_search, min_distance_exact
from qcldpc.binmat import rank as rank_scalar
from qcldpc.channel import awgn_llrs, bcjr_component, encode, gldpc_decode, monte_carlo
from qcldpc.construct import (
    codeword_lemma1,
    codeword_lemma1_reduced,
    codeword_lemma2,
    generator_case1,
    generator_general,
    verify_generator,
)
from qcldpc.gf2poly import BinaryPoly, RingModulus, gcd, transpose_poly
from qcldpc.gldpc import (
    ComponentCode,
    assembled_parity,
    base_from_exponents,
    construct_generator,
    expand_binary,
    load_spec,
    reduce_spec,
    schur_recompose,
    schur_reduce,
)
from qcldpc.polymat import (
    PolyMatrix,
    circulant_expand,
    matmul_mod,
    minor_det,
    read_pmx,
    transpose_entrywise,
)
from qcldpc.rank import rank_qc


def load(name):
    return load_spec(data_path(name))


def t(p, modulus):
    return transpose_poly(p, modulus)


def texts(row):
    return [p.to_text() for p in row]


def block_weight(row):
    return sum(p.weight() for p in row)


def constraints_hold(spec, G):
    prod = matmul_mod(G, transpose_entrywise(assembled_parity(spec)))
    return all(p.is_zero() for row in prod.rows for p in row)


def test_criterion_01_rank_formula():
    started = time.perf_counter()
    H = read_pmx(data_path("ex1.pmx"))
    results = {N: rank_qc(H, RingModulus(N)) for N in (45, 46, 44)}
    assert (results[45].rank, results[45].dimension) == (132, 93)
    assert (results[46].rank, results[46].dimension) == (132, 98)
    assert (results[44].rank, results[44].dimension) == (126, 94)
    rep = results[45]
    assert texts(rep.gammas) == ["1+x^2", "1+x^4", "1+x^2+x^4+x^6"]
    assert texts(rep.smith_diagonal) == ["1+x^2", "1+x^2", "1+x^2"]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 01: ranks 132/132/126, dims 93/98/94, {elapsed:.3f}s")


def test_criterion_02_rank_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(20260819)
    checked = 0
    for _ in range(500):
        H = random_poly_matrix(
            rng, rng.randint(1, 4), rng.randint(1, 7), rng.randint(1, 16)
        )
        assert rank_qc(H, H.modulus).rank == rank_scalar(circulant_expand(H))
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 500
    assert elapsed < 60.0
    print(f"criterion 02: {checked} random matrices, 0 mismatches, {elapsed:.2f}s")


def test_criterion_03_five_column_worked_code():
    H = read_pmx(data_path("ar4ja.pmx"), RingModulus(4))
    mod = H.modulus
    delta = mod.reduce(minor_det(H, (1, 2, 3), (1, 2, 3)))
    assert delta == P("1+x+x^2")
    result, standard = generator_case1(H)
    assert result.matrix.rows == [
        [P("1+x+x^2+x^3"), P("x"), P("0"), P("1+x^2+x^3"), P("0")],
        [P("1+x^2+x^3"), P("1+x+x^2+x^3"), P("1+x"), P("0"), P("1+x^2+x^3")],
    ]
    assert mod.mul(P("1+x^2+x^3"), P("1+x+x^2")) == P("1")
    assert [standard.entry(0, 3), standard.entry(0, 4)] == [P("1"), P("0")]
    assert [standard.entry(1, 3), standard.entry(1, 4)] == [P("0"), P("1")]
    assert verify_generator(H, standard, dimension=8)
    d = min_distance_exact(circulant_expand(result.matrix))
    assert d == 4
    n = H.ncols * mod.N
    assert (n, result.rank, d) == (20, 8, 4)
    print("criterion 03: delta(1,2,3) = 1+x+x^2, [20, 8, 4] exact")


def test_criterion_04_single_row_codeword_families():
    # Twelve two-column codewords (undivided and divided variants) plus
    # four single-column annihilator rows, then both generator styles
    # at one odd and two even moduli.  The undivided seven-row family
    # only spans at odd N; at even N every undivided row has even
    # parity in each coordinate block while the kernel contains
    # odd-parity words, so the greedy synthesis must fall back to
    # divided rows.  The fallback is part of the checked behaviour.
    for N in (7, 8, 10):
        H = example_matrix(N)
        mod = H.modulus
        got = set()
        for pair in PAIR_CODEWORDS:
            got.add(plain_display(codeword_lemma1(H, pair), mod))
            row, _ = codeword_lemma1_reduced(H, pair)
            got.add(plain_display(row, mod))
        want = {
            tuple(mod.reduce(p) for p in tup)
            for variants in PAIR_CODEWORDS.values()
            for tup in variants
        }
        assert got == want and len(want) == 12
        ann = annihilators(N)
        for i, f in enumerate(ann, start=1):
            row = codeword_lemma2(H, (), (i,), f)
            disp = plain_display(row, mod)
            assert disp[i - 1] == mod.reduce(f)
            assert all(p.is_zero() for j, p in enumerate(disp) if j != i - 1)

        divided = [PAIR_CODEWORDS[p][1] for p in ((1, 2), (1, 3), (1, 4))]
        divided.append((ann[0], P("0"), P("0"), P("0")))
        G2 = PolyMatrix([[t(p, mod) for p in r] for r in divided], mod)
        assert verify_generator(H, G2, dimension=3 * N + 1)

        undivided = [PAIR_CODEWORDS[p][0] for p in ((1, 2), (1, 3), (1, 4))]
        for i in range(4):
            unit = [P("0")] * 4
            unit[i] = ann[i]
            undivided.append(tuple(unit))
        G1 = PolyMatrix([[t(p, mod) for p in r] for r in undivided], mod)
        if N % 2 == 1:
            assert verify_generator(H, G1, dimension=3 * N + 1)
        else:
            assert not verify_generator(H, G1, dimension=3 * N + 1)
            result = generator_general(H)
            assert result.complete and result.rank == 3 * N + 1
            assert "lemma1_reduced" in {o.kind for o in result.row_provenance}
    print("criterion 04: 12 + 4 codewords and both generator styles at N = 7, 8, 10")


def test_criterion_05_six_column_gldpc_code():
    spec = load("n79.json")
    H_short, _, _ = reduce_spec(spec)
    assert texts(H_short.rows[0]) == ["1+x^55+x^71", "x^54+x^69+x^71", "x^55+x^66+x^69"]
    assert gcd(H_short.entry(0, 2), spec.base.modulus.poly) == BinaryPoly(1)
    result = construct_generator(spec)
    assert result.complete and result.rank == 158
    assert constraints_hold(spec, result.matrix)
    Gb = circulant_expand(result.matrix)
    assert rank_scalar(Gb) == 158 and Gb.ncols == 474
    assert all(block_weight(row) == 16 for row in result.matrix.rows)
    report = low_weight_search(Gb, 100_000, 0)
    assert report.upper == 16
    print("criterion 05: [474, 158], rows weight 16, search floor 16 after 1e5 tries")


def test_criterion_06_partially_generalized_code():
    spec = load("c1.json")
    result = construct_generator(spec)
    assert result.complete and result.rank == 204
    assert constraints_hold(spec, result.matrix)
    assert rank_scalar(circulant_expand(result.matrix)) == 204
    assert girth(spec.base) == 12
    assert all(block_weight(row) == 16 for row in result.matrix.rows)
    print("criterion 06: dimension 204 verified, base girth 12, rows weight 16")


def test_criterion_07_fully_generalized_code():
    spec = load("c2.json")
    mod = spec.base.modulus
    H, T, meta = reduce_spec(spec)
    minors = {
        (2, 3, 4): "x^3+x^8+x^18+x^20+x^23+x^28+x^36+x^38+x^40+x^41+x^51+x^53+x^59+x^64",
        (1, 3, 4): "x^3+x^15+x^23+x^25+x^28+x^36+x^39+x^45+x^47+x^60+x^63+x^64",
        (1, 2, 4): "x^7+x^8+x^15+x^22+x^36+x^37+x^38+x^39+x^40+x^45+x^47+x^51+x^59+x^60",
        (1, 2, 3): "x^7+x^15+x^20+x^40+x^41+x^42+x^43+x^47+x^50+x^53+x^60+x^64",
    }
    acc = BinaryPoly(0)
    for cols, text in minors.items():
        d = mod.reduce(minor_det(H, (1, 2, 3), cols))
        assert d.to_text() == text
        acc = gcd(acc, d)
    assert gcd(acc, mod.poly) == P("1+x^4")

    result = construct_generator(spec)
    assert result.complete and result.rank == 72
    kinds = Counter(o.kind for o in result.row_provenance)
    assert kinds["lemma2"] == 2

    und = PolyMatrix(
        [[t(mod.reduce(minor_det(H, (1, 2, 3), cols)), mod)
          for cols in ((2, 3, 4), (1, 3, 4), (1, 2, 4), (1, 2, 3))]],
        mod,
    )
    w = schur_recompose(und, T, meta, 7)
    assert block_weight(w.rows[0]) == 88
    prod = matmul_mod(w, transpose_entrywise(assembled_parity(spec)))
    assert all(p.is_zero() for p in prod.rows[0])

    report = bounds_combine(88, 64, witness=row_bits(w.rows[0], mod), ncols=476)
    assert (report.lower, report.upper, report.exact) == (64, 88, None)
    print("criterion 07: minor gcd 1+x^4, dim 72 via two annihilator rows, d in [64, 88]")


def test_criterion_08_split_ninety_chain():
    spec = load("prelift90.json")
    H1s, T1, meta1 = reduce_spec(spec)
    assert 6 * 45 - rank_scalar(circulant_expand(H1s)) == 91
    H2s, T, meta = schur_reduce(H1s, (1, 2, 4), (4, 5, 6))
    assert texts(H2s.rows[0]) == ["x^7+x^44", "x^26+x^27", "x^33+x^40"]

    mod = H1s.modulus
    u = P("1+x^12+x^18")
    w3 = PolyMatrix([[mod.mul(u, P(e)) for e in ("1", "x^27", "x^33")]], mod)
    assert matmul_mod(w3, transpose_entrywise(H2s)).entry(0, 0).is_zero()
    w6 = schur_recompose(w3, T, meta, 6)
    v = P("x^6+x^10+x^18+x^37+x^38+x^44")
    assert [w6.entry(0, j) for j in (3, 4, 5)] == [v, v, v]
    assert block_weight(w6.rows[0]) == 27
    prod = matmul_mod(w6, transpose_entrywise(H1s))
    assert all(p.is_zero() for p in prod.rows[0])

    w12 = schur_recompose(w6, T1, meta1, 12)
    assert block_weight(w12.rows[0]) == 39
    assert in_kernel(expand_binary(spec), row_bits(w12.rows[0], mod))

    result = construct_generator(spec)
    assert result.complete and result.rank == 91
    assert result.matrix.ncols * mod.N == 540
    print("criterion 08: [270, 91] stage, v(x) reproduced, weight-39 word in [540, 91]")


def test_criterion_09_seven_column_prelift():
    spec = load("prelift68.json")
    H1s, _, _ = reduce_spec(spec)
    assert 8 * 34 - rank_scalar(circulant_expand(H1s)) == 136
    H2s, _, _ = schur_reduce(H1s, (1, 2, 3), (1, 2, 3))
    assert texts(H2s.rows[0]) == [
        "1+x^9+x^14+x^15+x^18+x^24",
        "1+x+x^2+x^3+x^4+x^5+x^8+x^9+x^15+x^27+x^32+x^33",
        "x^2+x^4+x^5+x^8+x^15+x^22+x^25+x^27+x^31+x^32+x^33",
        "x+x^3+x^4+x^5+x^8+x^9+x^21+x^23+x^25+x^27+x^33",
        "x+x^2+x^3+x^7+x^9+x^15+x^21+x^31+x^32",
    ]
    mod = H2s.modulus
    witness = [P("0"), P("x^12+x^31"), P("x"), P("x^3+x^17+x^18"), P("x^14+x^16")]
    assert sum(p.weight() for p in witness) == 8
    acc = BinaryPoly(0)
    for w, f in zip(witness, H2s.rows[0]):
        acc = mod.add(acc, mod.mul(w, f))
    assert acc.is_zero()
    print("criterion 09: short kernel 136, f_1..f_5 exact, weight-8 vector checks")


def test_criterion_10_girth_checks():
    cases = [
        ([0, 54, 66, 71, 55, 69], 79, 12),
        ([0, 61, 49, 44, 1, 46, 14], 68, 12),
        ([0, 5, 5], 7, 4),
        ([0, 3, 16 + 3], 16, 4),
        ([0, 14, 24, 44, 46, 180, 276, 1, 49, 61, 65, 99, 117, 153, 186], 376, 12),
    ]
    for exps, N, want in cases:
        started = time.perf_counter()
        g = girth(base_from_exponents(exps, RingModulus(N)))
        elapsed = time.perf_counter() - started
        assert g == want
        assert elapsed < 10.0
    print("criterion 10: girths 12/12/4/4/12, each under 10 s")


def test_criterion_11_bcjr_against_map():
    comp = hamming74()
    rng = np.random.default_rng(1974)
    priors = rng.uniform(-8.0, 8.0, size=(1000, 7))
    got = bcjr_component(comp, priors)
    worst = 0.0
    for b in range(1000):
        worst = max(worst, np.max(np.abs(got[b] - map_extrinsics(comp, priors[b]))))
    assert worst < 1e-9

    spc = ComponentCode.spc(6)
    worst_spc = 0.0
    for _ in range(200):
        pr = rng.uniform(-8.0, 8.0, size=6)
        ext = bcjr_component(spc, pr)
        th = np.tanh(pr / 2.0)
        want = 2.0 * np.arctanh(th.prod() / th)
        worst_spc = max(worst_spc, np.max(np.abs(ext - want)))
    assert worst_spc < 1e-12
    print(f"criterion 11: BCJR vs MAP max gap {worst:.2e}, SPC gap {worst_spc:.2e}")


def test_criterion_12_simulation_properties():
    started = time.perf_counter()
    spec = load("c1.json")
    G = construct_generator(spec).matrix

    word = encode(G, [P("1+x^3+x^17"), P("x^2"), P("x^5+x^60")])
    n = G.ncols * G.modulus.N
    bits = np.fromiter(((word >> j) & 1 for j in range(n)), dtype=np.int8, count=n)
    llrs = awgn_llrs(bits, 6.0, rng=None)
    decoded, converged, iterations = gldpc_decode(spec, llrs)
    assert converged and iterations == 1 and decoded == word

    snrs = [-3.0, -2.0, -1.0]
    stop = {"min_block_errors": 10**9, "max_trials": 60}
    rows = monte_carlo(spec, G, snrs, stop, master_seed=2024)
    assert [r.trials for r in rows] == [60, 60, 60]
    assert [r.bit_errors for r in rows] == [1916, 423, 0]
    assert [r.block_errors for r in rows] == [48, 14, 0]
    assert rows[0].ber > rows[1].ber > rows[2].ber

    again = monte_carlo(spec, G, snrs, stop, master_seed=2024)
    assert again == rows
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    print(
        "criterion 12: BER 6.71e-2 > 1.48e-2 > 0 at -3/-2/-1 dB, "
        f"reproducible, noiseless in 1 iteration, {elapsed:.1f}s"
    )
