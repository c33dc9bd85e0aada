"""Rank and dimension of quasi-cyclic parity matrices.

The oracle throughout is rank_scalar on the circulant expansion, which
reduces the binary matrix directly and knows nothing about the
minor-gcd chain.
"""

import json
import random

import pytest

from conftest import P, random_poly_matrix
from qcldpc.binmat import rank as rank_scalar
from qcldpc.gf2poly import RingModulus
from qcldpc.polymat import PolyMatrix, circulant_expand, zero_matrix
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

    def test_tall_matrix_transposes_internally(self):
        rng = random.Random(201)
        H = random_poly_matrix(rng, 4, 2, 5)
        rep = rank_qc(H)
        assert rep.rank == rank_scalar(circulant_expand(H))
        assert rep.dimension == 2 * 5 - rep.rank

    def test_modulus_required(self):
        bare = PolyMatrix([[P("1")]])
        with pytest.raises(ValueError):
            rank_qc(bare)

    def test_report_serializes(self, ex1):
        rep = rank_qc(ex1, modulus=RingModulus(45))
        d = json.loads(json.dumps(rep.to_dict()))
        assert d["rank"] == 132
        assert d["dimension"] == 93
        assert d["N"] == 45


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
