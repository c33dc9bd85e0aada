"""Dense binary matrices with bit-packed rows.

Rows are Python ints (bit c = column c), which keeps GF(2) row reduction
and XOR-heavy searches fast without any compiled code. A matrix may carry
the size N of the circulant blocks it is made of (``block_size``): only
``polymat.circulant_expand`` sets it, and the distance search's sweep
reads a row pair's weight from the pair's shift difference there. Every
other matrix, a transpose, product or alist read included, has block
size 1.
"""

from __future__ import annotations

import numpy as np

from .gf2poly import bit_positions


class BinMatrix:
    """A binary matrix stored as one int per row.

    ``block_size`` N says that the rows form N x N circulant blocks, each
    block row the N cyclic shifts of its first row, as
    ``polymat.circulant_expand`` writes them; N must divide both
    dimensions. It is layout, not content: equality ignores it.
    """

    __slots__ = ("rows", "ncols", "block_size")

    def __init__(self, rows, ncols, block_size=1):
        self.rows = list(rows)
        self.ncols = ncols
        if not (
            isinstance(block_size, int) and block_size >= 1
            and len(self.rows) % block_size == 0 and ncols % block_size == 0
        ):
            raise ValueError(
                f"block size {block_size!r} does not divide the shape "
                f"{len(self.rows)}x{ncols}"
            )
        self.block_size = block_size
        # r >> ncols is 0 exactly for a row in range, and costs O(1) there;
        # a row with a bit at ncols or beyond, or a negative one, leaves
        # something nonzero.
        for r in self.rows:
            if r >> ncols:
                raise ValueError("row has bits beyond ncols")

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def shape(self):
        return (len(self.rows), self.ncols)

    def to_dense(self):
        out = np.zeros((len(self.rows), self.ncols), dtype=np.uint8)
        for i, bits in enumerate(self.rows):
            out[i, bit_positions(bits)] = 1
        return out

    def get(self, i, j):
        return (self.rows[i] >> j) & 1

    def transpose(self):
        cols = [0] * self.ncols
        for i, bits in enumerate(self.rows):
            for c in bit_positions(bits):
                cols[c] |= 1 << i
        return BinMatrix(cols, len(self.rows))

    def matmul(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        out = []
        for bits in self.rows:
            acc = 0
            for c in bit_positions(bits):
                acc ^= other.rows[c]
            out.append(acc)
        return BinMatrix(out, other.ncols)

    def __eq__(self, other):
        if isinstance(other, BinMatrix):
            return self.ncols == other.ncols and self.rows == other.rows
        return NotImplemented

    def __repr__(self):
        return f"BinMatrix({len(self.rows)}x{self.ncols})"


class RowEchelon:
    """Incremental GF(2) row space: add rows, track the rank."""

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots = {}

    def add(self, bits):
        """Reduce bits against the space; returns True if rank grew."""
        while bits:
            p = bits.bit_length() - 1
            other = self.pivots.get(p)
            if other is None:
                self.pivots[p] = bits
                return True
            bits ^= other
        return False

    def copy(self):
        clone = RowEchelon()
        clone.pivots = dict(self.pivots)
        return clone

    @property
    def rank(self):
        return len(self.pivots)


def pack_bits(array):
    """The int whose bit c is element c of a 0/1 (or bool) array."""
    return int.from_bytes(np.packbits(array, bitorder="little").tobytes(), "little")


def unpack_bits(word, n):
    """Bits 0..n-1 of a nonnegative int as a uint8 array; ``pack_bits`` inverts it."""
    return np.unpackbits(
        np.frombuffer(word.to_bytes((n + 7) // 8, "little"), np.uint8),
        bitorder="little",
        count=n,
    )


def bit_string(word, n):
    """Bits 0..n-1 of a nonnegative int below 2**n as a 0/1 string, bit 0 first."""
    return (unpack_bits(word, n) + ord("0")).tobytes().decode("ascii")


def rank(matrix):
    """GF(2) rank of a BinMatrix."""
    ech = RowEchelon()
    for bits in matrix.rows:
        ech.add(bits)
    return ech.rank


def write_alist(matrix, path):
    """Write the matrix in alist format (first line 'n m', 1-based lists)."""
    cols = matrix.transpose()
    col_lists = [bit_positions(bits) for bits in cols.rows]
    row_lists = [bit_positions(bits) for bits in matrix.rows]
    max_col = max((len(s) for s in col_lists), default=0)
    max_row = max((len(s) for s in row_lists), default=0)
    lines = [
        f"{matrix.ncols} {matrix.nrows}",
        f"{max_col} {max_row}",
        " ".join(str(len(s)) for s in col_lists),
        " ".join(str(len(s)) for s in row_lists),
    ]
    for s in col_lists:
        padded = [i + 1 for i in s] + [0] * (max_col - len(s))
        lines.append(" ".join(str(v) for v in padded))
    for s in row_lists:
        padded = [i + 1 for i in s] + [0] * (max_row - len(s))
        lines.append(" ".join(str(v) for v in padded))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_alist(path):
    """Read an alist file back into a BinMatrix."""
    with open(path) as fh:
        tokens = fh.read().split()
    it = iter(tokens)
    n = int(next(it))
    m = int(next(it))
    next(it), next(it)
    col_degs = [int(next(it)) for _ in range(n)]
    row_degs = [int(next(it)) for _ in range(m)]
    max_col = max(col_degs, default=0)
    max_row = max(row_degs, default=0)
    for _ in range(n * max_col):
        next(it)
    rows = []
    for deg in row_degs:
        bits = 0
        for k in range(max_row):
            v = int(next(it))
            if k < deg and v > 0:
                bits |= 1 << (v - 1)
        rows.append(bits)
    return BinMatrix(rows, n)
