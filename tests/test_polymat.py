"""Polynomial matrices: minors, expansion, and serialization.

The determinant oracle below expands over permutations directly (no
signs in characteristic 2), independent of the cofactor recursion in
minor_det.
"""

import itertools
import random

import pytest

from conftest import P, random_poly_matrix
from qcldpc.gf2poly import BinaryPoly, RingModulus, transpose_poly
from qcldpc.polymat import (
    PolyMatrix,
    all_minors_gcd,
    circulant_expand,
    identity_matrix,
    index_set,
    matmul_mod,
    minor_det,
    read_pmx,
    transpose_entrywise,
    write_pmx,
    zero_matrix,
)


def permutation_det(H):
    n = H.nrows
    acc = BinaryPoly(0)
    for perm in itertools.permutations(range(n)):
        term = BinaryPoly(1)
        for i in range(n):
            term = term * H.rows[i][perm[i]]
        acc = acc + term
    return acc


class TestConstruction:
    def test_shape_and_access(self):
        H = PolyMatrix.from_text([["1", "x"], ["0", "1+x"]])
        assert H.shape == (2, 2)
        assert H.entry(1, 1) == P("1+x")
        assert H.row(0) == [P("1"), P("x")]

    def test_modulus_reduces_entries(self):
        H = PolyMatrix([[P("x^5")]], RingModulus(4))
        assert H.entry(0, 0) == P("x")

    def test_empty_and_ragged_rejected(self):
        with pytest.raises(ValueError):
            PolyMatrix([])
        with pytest.raises(ValueError):
            PolyMatrix([[P("1")], [P("1"), P("x")]])

    def test_submatrix_is_zero_based(self):
        H = PolyMatrix.from_text([["1", "x", "x^2"], ["x^3", "x^4", "x^5"]])
        sub = H.submatrix([1], [0, 2])
        assert sub.rows == [[P("x^3"), P("x^5")]]


class TestIndexSet:
    def test_accepts_sorted_one_based(self):
        assert index_set((1, 3), 5) == (1, 3)

    def test_rejects_zero_duplicates_disorder(self):
        for bad in ((0, 1), (2, 2), (3, 1), (1, 6)):
            with pytest.raises(ValueError):
                index_set(bad, 5)


class TestMinors:
    def test_matches_permutation_expansion(self):
        rng = random.Random(101)
        for _ in range(60):
            n = rng.randint(1, 4)
            H = random_poly_matrix(rng, n, n, rng.randint(2, 6))
            assert minor_det(H) == permutation_det(H)

    def test_submatrix_selection(self):
        rng = random.Random(102)
        H = random_poly_matrix(rng, 3, 5, 4)
        d = minor_det(H, (1, 3), (2, 5))
        assert d == permutation_det(H.submatrix([0, 2], [1, 4]))

    def test_selection_must_be_square(self):
        H = identity_matrix(3, RingModulus(4))
        with pytest.raises(ValueError):
            minor_det(H, (1, 2), (1, 2, 3))

    def test_minors_stay_unreduced(self):
        # Degrees may exceed N - 1; reduction is the caller's decision.
        m = RingModulus(3)
        H = PolyMatrix([[P("x^2"), P("1")], [P("1"), P("x^2")]], m)
        assert minor_det(H) == P("1+x^4")

    def test_example_gamma_chain(self, ex1):
        want = [P("1+x^2"), P("1+x^4"), P("1+x^2+x^4+x^6")]
        got = [all_minors_gcd(ex1, i) for i in (1, 2, 3)]
        assert got == want

    def test_gamma_divisibility(self):
        rng = random.Random(103)
        for _ in range(25):
            H = random_poly_matrix(rng, rng.randint(2, 3), rng.randint(2, 4), 5)
            prev = None
            for size in range(1, min(H.nrows, H.ncols) + 1):
                g = all_minors_gcd(H, size)
                if prev is not None and not prev.is_zero() and not g.is_zero():
                    assert (g % prev).is_zero()
                prev = g

    def test_gamma_size_bounds(self):
        H = identity_matrix(2, RingModulus(3))
        assert all_minors_gcd(H, 0) == P("1")
        with pytest.raises(ValueError):
            all_minors_gcd(H, 3)

    def test_ar4ja_minor_values(self, ar4ja):
        m = ar4ja.modulus
        assert m.reduce(minor_det(ar4ja, None, (1, 2, 3))) == P("1+x+x^2")
        t = lambda cols: transpose_poly(minor_det(ar4ja, None, cols), m)
        assert t((2, 4, 5)) == P("0")
        assert t((1, 4, 5)) == P("1+x")
        assert t((3, 4, 5)) == P("x")


class TestExpansion:
    def test_identity_expands_to_identity(self):
        m = RingModulus(5)
        Hb = circulant_expand(identity_matrix(2, m))
        assert Hb.rows == [1 << i for i in range(10)]

    def test_first_column_convention(self):
        # Entry a(x) maps to A[i, j] = a_((i - j) mod N).
        m = RingModulus(5)
        a = P("1+x^2")
        A = circulant_expand(PolyMatrix([[a]], m))
        for i in range(5):
            for j in range(5):
                want = (a.bits >> ((i - j) % 5)) & 1
                assert A.get(i, j) == want

    def test_expansion_is_ring_homomorphism(self):
        rng = random.Random(104)
        for _ in range(15):
            N = rng.randint(2, 8)
            A = random_poly_matrix(rng, 2, 3, N)
            B = random_poly_matrix(rng, 3, 2, N)
            B = PolyMatrix(B.rows, A.modulus)
            lhs = circulant_expand(matmul_mod(A, B))
            rhs = circulant_expand(A).matmul(circulant_expand(B))
            assert lhs == rhs

    def test_transpose_entrywise_matches_binary_transpose(self):
        rng = random.Random(105)
        for _ in range(15):
            H = random_poly_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), 6)
            assert circulant_expand(transpose_entrywise(H)) == circulant_expand(H).transpose()

    def test_transpose_entrywise_involution(self):
        rng = random.Random(106)
        H = random_poly_matrix(rng, 3, 2, 7)
        assert transpose_entrywise(transpose_entrywise(H)) == H

    def test_modulus_required(self):
        H = PolyMatrix([[P("1")]])
        with pytest.raises(ValueError):
            circulant_expand(H)
        with pytest.raises(ValueError):
            transpose_entrywise(H)


class TestMatmul:
    def test_known_product(self):
        # x^2 * x^3 folds to x over x^4 + 1 and cancels the 1 * x term.
        m = RingModulus(4)
        A = PolyMatrix([[P("x^2"), P("1")]], m)
        B = PolyMatrix([[P("x^3")], [P("x")]], m)
        assert matmul_mod(A, B).rows == [[P("0")]]

    def test_shape_and_modulus_mismatch(self):
        a = PolyMatrix([[P("1")]], RingModulus(4))
        with pytest.raises(ValueError):
            matmul_mod(a, PolyMatrix([[P("1")], [P("x")]], RingModulus(4)))
        with pytest.raises(ValueError):
            matmul_mod(a, PolyMatrix([[P("1")]], RingModulus(5)))

    def test_zero_and_identity_helpers(self):
        m = RingModulus(3)
        Z = zero_matrix(2, 3, m)
        assert all(p.is_zero() for row in Z.rows for p in row)
        I = identity_matrix(3, m)
        H = PolyMatrix([[P("x"), P("1"), P("x^2")]], m)
        assert matmul_mod(H, I) == H


class TestSerialization:
    def test_pmx_round_trip(self, tmp_path):
        rng = random.Random(107)
        H = random_poly_matrix(rng, 3, 4, 9)
        path = tmp_path / "h.pmx"
        write_pmx(H, path)
        assert read_pmx(path, H.modulus) == H
        bare = read_pmx(path)
        assert bare.modulus is None
        assert bare.rows == H.rows

    def test_pmx_comments_and_blanks(self, tmp_path):
        path = tmp_path / "c.pmx"
        path.write_text("# header\n\n1;x # trailing\n0;1+x\n")
        H = read_pmx(path)
        assert H.to_text_rows() == [["1", "x"], ["0", "1+x"]]

    def test_pmx_empty_file(self, tmp_path):
        path = tmp_path / "e.pmx"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError):
            read_pmx(path)
