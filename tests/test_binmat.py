"""Bit-packed binary matrices, rank, and alist round trips."""

import random

import numpy as np
import pytest

from qcldpc.binmat import (
    BinMatrix,
    RowEchelon,
    bit_string,
    pack_bits,
    rank,
    read_alist,
    unpack_bits,
    write_alist,
)


def random_binmat(rng, nrows, ncols, density=0.4):
    rows = []
    for _ in range(nrows):
        bits = 0
        for c in range(ncols):
            if rng.random() < density:
                bits |= 1 << c
        rows.append(bits)
    return BinMatrix(rows, ncols)


class TestBinMatrix:
    def test_get_and_weights(self):
        m = BinMatrix([0b101, 0b011], 3)
        assert m.get(0, 0) == 1 and m.get(0, 1) == 0 and m.get(0, 2) == 1
        dense = m.to_dense()
        assert dense.sum(axis=1).tolist() == [2, 2]
        assert dense.sum(axis=0).tolist() == [2, 1, 1]

    def test_row_outside_ncols_rejected(self):
        with pytest.raises(ValueError):
            BinMatrix([0b100], 2)

    @pytest.mark.parametrize("ncols", [1, 7, 64, 5640])
    def test_negative_row_and_bit_ncols_rejected(self, ncols):
        # The former check, r & ~mask, is the oracle of which rows pass.
        mask = (1 << ncols) - 1
        for row in (-1, -(1 << ncols), 1 << ncols, (1 << ncols) | 1, mask):
            if row & ~mask:
                with pytest.raises(ValueError, match="beyond ncols"):
                    BinMatrix([0, row], ncols)
            else:
                assert BinMatrix([0, row], ncols).rows == [0, row]

    def test_transpose_involution(self):
        rng = random.Random(12)
        for _ in range(20):
            m = random_binmat(rng, rng.randint(1, 8), rng.randint(1, 12))
            t = m.transpose()
            assert t.shape == (m.shape[1], m.shape[0])
            assert t.transpose() == m

    def test_matmul_matches_dense_product(self):
        rng = random.Random(13)
        for _ in range(20):
            a = random_binmat(rng, rng.randint(1, 6), rng.randint(1, 6))
            b = random_binmat(rng, a.shape[1], rng.randint(1, 6))
            want = np.mod(a.to_dense().astype(int) @ b.to_dense().astype(int), 2)
            assert a.matmul(b).to_dense().astype(int).tolist() == want.tolist()

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            BinMatrix([0b1], 1).matmul(BinMatrix([0b11, 0b01], 2))


class TestRank:
    def test_identity_and_singular(self):
        ident = BinMatrix([1 << i for i in range(5)], 5)
        assert rank(ident) == 5
        assert rank(BinMatrix([0b11, 0b11], 2)) == 1
        assert rank(BinMatrix([0], 3)) == 0

    def test_rank_invariant_under_transpose(self):
        rng = random.Random(14)
        for _ in range(25):
            m = random_binmat(rng, rng.randint(1, 8), rng.randint(1, 8))
            assert rank(m) == rank(m.transpose())

    def test_row_echelon_contains_and_copy(self):
        ech = RowEchelon()
        assert ech.add(0b101)
        assert ech.add(0b011)
        assert not ech.add(0b110)  # xor of the first two
        assert not ech.copy().add(0b110)  # in the span
        assert ech.copy().add(0b100)  # outside it
        snapshot = ech.copy()
        assert snapshot.add(0b100)
        assert snapshot.rank == 3
        assert ech.rank == 2  # the copy is independent


class TestAlist:
    def test_round_trip(self, tmp_path):
        rng = random.Random(15)
        m = random_binmat(rng, 6, 9)
        path = tmp_path / "m.alist"
        write_alist(m, path)
        assert read_alist(path) == m

    def test_header_is_cols_then_rows(self, tmp_path):
        m = BinMatrix([0b01, 0b10, 0b11], 2)
        path = tmp_path / "m.alist"
        write_alist(m, path)
        first = path.read_text().splitlines()[0].split()
        assert first == ["2", "3"]

    def test_zero_rows_round_trip(self, tmp_path):
        m = BinMatrix([0b101, 0, 0b010], 3)
        path = tmp_path / "z.alist"
        write_alist(m, path)
        assert read_alist(path) == m


class TestPackBits:
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65])
    def test_round_trip(self, n):
        for word in {0, (1 << n) - 1, random.Random(n).getrandbits(n)}:
            bits = unpack_bits(word, n)
            assert bits.dtype == np.uint8 and bits.shape == (n,)
            assert bits.tolist() == [word >> j & 1 for j in range(n)]
            assert pack_bits(bits) == word
            assert pack_bits(bits.astype(bool)) == word

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 5640])
    def test_bit_string_matches_the_shift_loop(self, n):
        rng = random.Random(n)
        for word in {0, (1 << n) - 1, *(rng.getrandbits(n) for _ in range(3))}:
            want = "".join("1" if word >> j & 1 else "0" for j in range(n))
            assert bit_string(word, n) == want
