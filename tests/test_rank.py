"""Rank and dimension of quasi-cyclic parity matrices.

There are two oracles. rank_scalar on the circulant expansion reduces
the binary matrix directly and knows nothing about divisors;
all_minors_gcd finds each gamma_i by enumerating every i x i minor,
which rank_qc's Smith-form elimination never does.
"""

import json
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import P, data_path, random_poly_matrix
from qcldpc import polymat
from qcldpc.binmat import rank as rank_scalar
from qcldpc.gf2poly import BinaryPoly, RingModulus, gcd
from qcldpc.gldpc import assembled_parity, expand_binary, load_spec
from qcldpc.polymat import PolyMatrix, all_minors_gcd, circulant_expand, read_pmx, zero_matrix
from qcldpc.rank import rank_qc


class TestKnownMatrix:
    @pytest.mark.parametrize(
        "N,rank,dim",
        [(45, 132, 93), (46, 132, 98), (44, 126, 94)],
    )
    def test_rank_and_dimension(self, ex1, N, rank, dim):
        rep = rank_qc(ex1, modulus=RingModulus(N))
        assert rep.rank == rank
        assert rep.dimension == dim

    def test_gamma_chain_and_smith_form(self, ex1):
        rep = rank_qc(ex1, modulus=RingModulus(45))
        assert rep.gammas == [P("1+x^2"), P("1+x^4"), P("1+x^2+x^4+x^6")]
        assert rep.smith_diagonal == [P("1+x^2")] * 3
        assert rep.d_polys == [P("1+x")] * 3

    def test_agrees_with_expansion(self, ex1):
        for N in (44, 45, 46):
            H = PolyMatrix(ex1.rows, RingModulus(N))
            assert rank_qc(H).rank == rank_scalar(circulant_expand(H))


class TestEdgeCases:
    def test_zero_matrix(self):
        rep = rank_qc(zero_matrix(2, 3, RingModulus(4)))
        assert rep.rank == 0
        assert rep.dimension == 12
        assert rep.smith_diagonal == [P("0"), P("0")]

    def test_gcd_chain_dies(self):
        # Second gamma vanishes, so the second diagonal entry is zero
        # and its divisor is the whole ring modulus.
        m = RingModulus(2)
        H = PolyMatrix([[P("1+x"), P("1+x")], [P("1+x"), P("1+x")]], m)
        rep = rank_qc(H)
        assert rep.smith_diagonal[1] == P("0")
        assert rep.d_polys[1] == P("1+x^2")
        assert rep.rank == 1
        assert rep.dimension == 3
        assert rank_scalar(circulant_expand(H)) == 1

    def test_tall_matrix_matches_expansion(self):
        rng = random.Random(201)
        H = random_poly_matrix(rng, 4, 2, 5)
        rep = rank_qc(H)
        assert rep.rank == rank_scalar(circulant_expand(H))
        assert rep.dimension == 2 * 5 - rep.rank

    def test_modulus_required(self):
        bare = PolyMatrix([[P("1")]])
        with pytest.raises(ValueError):
            rank_qc(bare)

    def test_modulus_of_another_ring_is_rejected(self):
        # ar4ja read over x^2 + 1 once reported gammas 1, 1, x under
        # RingModulus(6); plain ar4ja gives 1, 1, 1 there.
        ar4ja_n2 = read_pmx(data_path("ar4ja.pmx"), RingModulus(2))
        with pytest.raises(ValueError, match=r"x\^2 \+ 1.*x\^6 \+ 1"):
            rank_qc(ar4ja_n2, RingModulus(6))
        plain = rank_qc(read_pmx(data_path("ar4ja.pmx")), RingModulus(6))
        assert plain.gammas == [P("1"), P("1"), P("1")]

    def test_modulus_of_the_matrix_own_ring_changes_nothing(self, ar4ja):
        assert rank_qc(ar4ja, RingModulus(4)) == rank_qc(ar4ja)

    def test_report_serializes(self, ex1):
        rep = rank_qc(ex1, modulus=RingModulus(45))
        d = json.loads(json.dumps(rep.to_dict()))
        assert d["rank"] == 132
        assert d["dimension"] == 93
        assert d["N"] == 45


class TestDivisorsAtAnyN:
    def test_divisors_equal_the_gcd_with_the_whole_modulus(self):
        # A 1 x 1 matrix [s] has Smith diagonal [s], so its d_1 is gcd(s, x^N + 1).
        rng = random.Random(207)
        for _ in range(300):
            N, s = rng.randint(1, 300), BinaryPoly(rng.getrandbits(rng.randint(0, 40)))
            rep = rank_qc(PolyMatrix([[s]]), RingModulus(N))
            assert rep.d_polys == [gcd(s, RingModulus(N).poly)]

    def test_no_gcd_operand_grows_with_n(self, ex1, monkeypatch):
        widths = []

        def recording(a, b):
            widths.extend((a.bits.bit_length(), b.bits.bit_length()))
            return gcd(a, b)

        monkeypatch.setattr("qcldpc.rank.gcd", recording)
        rep = rank_qc(ex1, RingModulus(10**5))
        assert (rep.rank, rep.dimension) == (299_994, 200_006)
        assert len(widths) == 6 and max(widths) < 300


class TestAgainstScalarOracle:
    def test_random_matrices(self):
        rng = random.Random(202)
        for _ in range(120):
            nr = rng.randint(1, 4)
            nc = rng.randint(1, 6)
            N = rng.randint(1, 12)
            H = random_poly_matrix(rng, nr, nc, N)
            rep = rank_qc(H)
            want = rank_scalar(circulant_expand(H))
            assert rep.rank == want, (nr, nc, N, H.to_text_rows())
            assert rep.dimension == nc * N - want

    def test_invariant_under_row_and_column_permutation(self):
        rng = random.Random(203)
        for _ in range(20):
            H = random_poly_matrix(rng, 3, 4, 6)
            rows = H.rows[:]
            rng.shuffle(rows)
            cols = list(range(4))
            rng.shuffle(cols)
            Hp = PolyMatrix([[r[j] for j in cols] for r in rows], H.modulus)
            assert rank_qc(Hp).rank == rank_qc(H).rank

    def test_invariant_under_monomial_scaling(self):
        rng = random.Random(204)
        for _ in range(20):
            N = rng.randint(2, 8)
            H = random_poly_matrix(rng, 2, 3, N)
            m = H.modulus
            scale = [P(f"x^{rng.randrange(N)}") for _ in range(3)]
            Hs = PolyMatrix(
                [[m.mul(r[j], scale[j]) for j in range(3)] for r in H.rows], m
            )
            assert rank_qc(Hs).rank == rank_qc(H).rank


@st.composite
def unreduced_cases(draw):
    """A 1-4 x 1-6 matrix over plain GF(2)[x] and an N of 1-9.

    Entries reach past degree N, so some are unreduced; some share a
    factor such as 1 + x, and whole rows or columns may be zero.
    """
    nr, nc, N = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 9))
    factor = draw(st.sampled_from([0b11, 0b111, 0b1011, 0b101]))
    rows = []
    for _ in range(nr):
        row = []
        for _ in range(nc):
            bits = draw(st.integers(0, (1 << (N + 4)) - 1))
            if bits and draw(st.booleans()):
                bits = (BinaryPoly(bits >> 2 or 1) * BinaryPoly(factor)).bits
            row.append(BinaryPoly(bits))
        rows.append(row)
    for i in draw(st.sets(st.integers(0, nr - 1), max_size=nr)):
        rows[i] = [BinaryPoly(0)] * nc
    for j in draw(st.sets(st.integers(0, nc - 1), max_size=nc)):
        for row in rows:
            row[j] = BinaryPoly(0)
    return PolyMatrix(rows), RingModulus(N)


def assert_matches_oracles(H, modulus):
    rep = rank_qc(H, modulus)
    gammas = [all_minors_gcd(H, i) for i in range(1, min(H.shape) + 1)]
    assert rep.gammas == gammas
    prev = BinaryPoly(1)
    for s, gamma in zip(rep.smith_diagonal, gammas):
        assert s == (gamma // prev if gamma.bits else BinaryPoly(0))
        prev = gamma
    reduced = PolyMatrix(H.rows, modulus)
    assert rep.rank == rank_scalar(circulant_expand(reduced))


class TestSmithElimination:
    @settings(max_examples=300, deadline=None)
    @given(unreduced_cases())
    def test_matches_minors_and_expansion(self, case):
        assert_matches_oracles(*case)

    def test_cycling_matrix(self):
        # Re-picking the least-degree entry after adding a row into the
        # pivot row, without cutting it mod the pivot, cycles here.
        m = RingModulus(6)
        H = PolyMatrix(
            [
                [P("x"), P("x+x^2+x^4")],
                [P("x^2"), P("1+x^2")],
                [P("x+x^2+x^3+x^5"), P("1+x+x^2+x^3+x^4+x^5")],
            ],
            m,
        )
        assert_matches_oracles(H, m)

    def test_enumerates_no_minor(self, ex1, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("rank_qc enumerated minors")

        for name in ("all_minors_gcd", "minor_det"):
            original = getattr(polymat, name)
            for module_name, module in list(sys.modules.items()):
                if module_name.partition(".")[0] == "qcldpc":
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            monkeypatch.setattr(module, attr, refuse)
        reports = [rank_qc(ex1, RingModulus(N)) for N in (44, 45, 46)]
        assert [(r.rank, r.dimension) for r in reports] == [(126, 94), (132, 93), (132, 98)]
        spec = load_spec(data_path("prelift68.json"))
        assert rank_qc(assembled_parity(spec)).rank == rank_scalar(expand_binary(spec))
