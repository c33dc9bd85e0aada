"""Matrices over GF(2)[x] and GF(2)[x]/(x^N + 1).

Minors are always computed in plain GF(2)[x] (entries are taken as their
reduced representatives, but products are not folded back), because the
codeword constructions need unreduced minors. ``Minors`` is the one
expansion: each caller that takes many minors of one matrix shares one,
and ``minor_det`` is a one-shot of it.
Index sets for minors are 1-based and strictly increasing, matching the
usual determinant notation.

``circulant_expand`` rotates each entry's circulant transpose, so its
rows are the circulant rows of the entries. Bit-level spans
(``span_step``, ``expansion_rank``) rotate the entries' own bits instead:
the transpose permutes every block's coordinates alike, so it changes no
rank.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .binmat import BinMatrix, RowEchelon
from .gf2poly import BinaryPoly, clmul, gcd, inverse_mod, is_unit, transpose_poly


class PolyMatrix:
    """Row-major matrix of BinaryPoly entries, optionally over x^N + 1."""

    __slots__ = ("rows", "modulus")

    def __init__(self, rows, modulus=None):
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise ValueError("matrix must be nonempty")
        width = len(rows[0])
        for r in rows:
            if len(r) != width:
                raise ValueError("ragged rows")
        if modulus is not None:
            rows = [[modulus.reduce(p) for p in r] for r in rows]
        self.rows = rows
        self.modulus = modulus

    @property
    def ring(self):
        """The modulus x^N + 1: the one check that a job has a ring to work in.

        ValueError for a matrix over plain GF(2)[x].
        """
        if self.modulus is None:
            raise ValueError("a ring modulus x^N + 1 is required")
        return self.modulus

    def ring_for(self, modulus=None):
        """The ring x^N + 1 a job on this matrix works in, given ``modulus``.

        A given modulus is that ring, for a plain matrix or for one
        already over it; a matrix over another ring is a ValueError naming
        both. Without one, it is ``ring``.
        """
        if modulus is None:
            return self.ring
        if self.modulus is not None and self.modulus != modulus:
            raise ValueError(
                f"the matrix is over x^{self.modulus.N} + 1, not the given x^{modulus.N} + 1"
            )
        return modulus

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0])

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def entry(self, i, j):
        return self.rows[i][j]

    def row(self, i):
        return list(self.rows[i])

    def submatrix(self, row_idx, col_idx):
        """0-based row/column selection."""
        return PolyMatrix(
            [[self.rows[i][j] for j in col_idx] for i in row_idx], self.modulus
        )

    def __eq__(self, other):
        if isinstance(other, PolyMatrix):
            return self.modulus == other.modulus and self.rows == other.rows
        return NotImplemented

    def __repr__(self):
        mod = f", N={self.modulus.N}" if self.modulus else ""
        return f"PolyMatrix({self.nrows}x{self.ncols}{mod})"

    def to_text_rows(self):
        return [[p.to_text() for p in r] for r in self.rows]


def index_set(indices, upper):
    """Validate a 1-based, strictly increasing index set bounded by upper."""
    idx = tuple(indices)
    if any(i < 1 or i > upper for i in idx):
        raise ValueError(f"index out of range 1..{upper}: {idx}")
    if list(idx) != sorted(set(idx)):
        raise ValueError(f"index set must be sorted and distinct: {idx}")
    return idx


def minor_det(H, row_idx=None, col_idx=None):
    """Unreduced determinant of the selected square submatrix.

    A one-shot Minors(H)(row_idx, col_idx), with the index sets checked.

    Parameters
    ----------
    H : PolyMatrix
    row_idx, col_idx : 1-based strictly increasing index sets; row_idx
        defaults to all rows (H restricted to col_idx must be square).
    """
    if col_idx is None:
        col_idx = tuple(range(1, H.ncols + 1))
    if row_idx is None:
        row_idx = tuple(range(1, H.nrows + 1))
    row_idx = index_set(row_idx, H.nrows)
    col_idx = index_set(col_idx, H.ncols)
    if len(row_idx) != len(col_idx):
        raise ValueError("minor selection must be square")
    return Minors(H)(row_idx, col_idx)


class Minors:
    """minor(T, S): the unreduced minor of H over 1-based rows T, columns S.

    T None stands for every row. A minor is expanded along the first row
    of T, and every minor met, the expansion's own included, is kept for
    the object's life, keyed on (T, S). So a sub-minor that several
    queries share (one row set over different columns, a determinant and
    its cofactors) is expanded once. The sets are taken as given;
    minor_det checks them.
    """

    __slots__ = ("rows", "every_row", "memo")

    def __init__(self, H):
        self.rows = H.rows
        self.every_row = tuple(range(1, H.nrows + 1))
        self.memo = {}

    def __call__(self, T, S):
        if T is None:
            T = self.every_row
        if not S:
            return BinaryPoly(1)
        got = self.memo.get((T, S))
        if got is None:
            row, rest = self.rows[T[0] - 1], T[1:]
            acc = 0
            for k, c in enumerate(S):
                p = row[c - 1].bits
                if p:
                    cofactor = self(rest, S[:k] + S[k + 1 :]).bits
                    if cofactor:
                        acc ^= clmul(p, cofactor)
            got = self.memo[T, S] = BinaryPoly(acc)
        return got


def all_minors_gcd(H, size):
    """gcd of every size x size minor in GF(2)[x]; zero if all vanish.

    Stops early once the running gcd reaches 1. The library does not call
    it: rank.rank_qc reads the same gcds off one Smith-form elimination,
    and the tests check it against this enumeration.
    """
    if size == 0:
        return BinaryPoly(1)
    if size > min(H.nrows, H.ncols):
        raise ValueError("minor size exceeds matrix dimensions")
    minor = Minors(H)
    acc = BinaryPoly(0)
    for T in combinations(range(1, H.nrows + 1), size):
        for S in combinations(range(1, H.ncols + 1), size):
            d = minor(T, S)
            if d.bits:
                acc = gcd(acc, d)
                if acc.bits == 1:
                    return acc
    return acc


def transpose_entrywise(H):
    """Transpose the matrix and apply the circulant-transpose map entrywise (zeros stay)."""
    m = H.ring
    return PolyMatrix(
        [[transpose_poly(p, m) if p.bits else p for p in col] for col in zip(*H.rows)],
        m,
    )


def matmul_mod(A, B):
    """Matrix product; reduced when either factor carries a modulus.

    Each entry XORs the clmul products of its pairs of nonzero factors
    on their bits, and only the sum becomes a BinaryPoly.
    """
    if A.ncols != B.nrows:
        raise ValueError("shape mismatch")
    modulus = A.modulus or B.modulus
    if A.modulus and B.modulus and A.modulus != B.modulus:
        raise ValueError("mismatched moduli")
    rows = [[p.bits for p in row] for row in A.rows]
    columns = [[p.bits for p in col] for col in zip(*B.rows)]
    out = []
    for row in rows:
        out_row = []
        for col in columns:
            acc = 0
            for a, b in zip(row, col):
                if a and b:
                    acc ^= clmul(a, b)
            out_row.append(BinaryPoly(acc))
        out.append(out_row)
    return PolyMatrix(out, modulus)


def zero_matrix(nrows, ncols, modulus=None):
    return PolyMatrix([[BinaryPoly(0)] * ncols for _ in range(nrows)], modulus)


def identity_matrix(n, modulus=None):
    rows = [[BinaryPoly(1 if i == j else 0) for j in range(n)] for i in range(n)]
    return PolyMatrix(rows, modulus)


def circulant_rows(blocks, N):
    """The N packed rows of a row of length-N bit blocks, shifted cyclically.

    Row r holds every block rotated left by r, i.e. block j of row r is
    x^r * b_j mod x^N + 1. All blocks turn at once: with ``top`` holding
    bit N - 1 of every block and ``low`` the bits below it, the next row
    is ((row & low) << 1) | ((row & top) >> (N - 1)).
    """
    row = 0
    for j, b in enumerate(blocks):
        row |= b << (j * N)
    full = (1 << (len(blocks) * N)) - 1
    top = full // ((1 << N) - 1) << (N - 1)  # the repunit base 2^N, shifted
    low = full ^ top
    for _ in range(N - 1):
        yield row
        row = ((row & low) << 1) | ((row & top) >> (N - 1))
    yield row


def span_step(echelon, blocks, N):
    """Add the cyclic shifts of a row of blocks to a span; the rank gained.

    The span (a binmat.RowEchelon) must hold every shift of each row in
    it, as does every span built from empty by this function alone.
    Shift x^r v is added for r = 0, 1, ... (the rows of circulant_rows)
    until one adds nothing. That one lies in the span plus v, ...,
    x^(r-1) v, which is then closed under the block shift x, so every
    later shift lies in it too: the row's Krylov sequence has stopped.
    """
    gained = 0
    for bits in circulant_rows(blocks, N):
        if not echelon.add(bits):
            break
        gained += 1
    return gained


# The most bits a binary expansion may have, 2^28 (32 MiB packed): about 25
# times the largest bundled one, hamming15's 1,880 x 5,640.
_MAX_EXPANSION_BITS = 1 << 28


def _check_expansion_size(nrows, ncols, N):
    """ValueError when an nrows x ncols matrix over x^N + 1 expands past the bound.

    Inputs are checked where they enter, before anything of that size is built.
    """
    if nrows * N * ncols * N > _MAX_EXPANSION_BITS:
        raise ValueError(
            f"binary expansion {nrows * N} x {ncols * N} exceeds the bound of "
            f"{_MAX_EXPANSION_BITS} bits"
        )


def circulant_expand(H):
    """Expand each entry to its N x N circulant (first column = coefficients).

    Entry a(x) becomes the circulant A with A[i, j] = a_((i - j) mod N),
    so the identity-shift I_r corresponds to x^r.
    """
    m = H.ring
    # Row r of the circulant of a(x) holds the coefficients of x^r * t(a).
    rows = []
    for row in H.rows:
        rows.extend(circulant_rows([transpose_poly(p, m).bits for p in row], m.N))
    return BinMatrix(rows, H.ncols * m.N)


def row_edges(H):
    """The Tanner edges of each row of H, one (N, terms) array per row.

    Row r of row i's array lists the variables of check iN + r: term x^e
    of entry (i, j) joins it to variable jN + (r - e) mod N, as the
    circulant of the entry does. Terms go by column, then by exponent.
    """
    N = H.ring.N
    edges = []
    for i in range(H.nrows):
        cols = []
        exps = []
        for j, entry in enumerate(H.rows[i]):
            for e in entry.exponents():
                cols.append(j)
                exps.append(e)
        shifts = (np.arange(N)[:, None] - np.array(exps)[None, :]) % N
        edges.append(np.array(cols) * N + shifts)
    return edges


def expansion_rank(H):
    """GF(2) rank of circulant_expand(H), eliminating unit blocks first.

    Block columns are taken once each, the fewest nonzero entries first.
    A column with a unit entry u (gf2poly.is_unit) pivots on the first
    one: every other row k gets (a_kj u^-1) times the pivot row added,
    which clears the column, and the pivot row and column drop out with N
    added to the rank. Block row and column operations by invertible
    circulants keep the rank of the expansion, so only the residual rows
    and unpivoted columns are left to rank bit by bit.

    Each residual row adds its shifts to one span with span_step, which
    stops at the row's first shift that adds nothing. Its blocks are the
    entries' own bits, as in construct's greedy build, not the transposes
    that circulant_expand rotates: the map x^e -> x^-e permutes the
    coordinates of every block in the same way, so it maps the shifts of
    a row onto the shifts of its transpose, and the span of all shifts
    and each row's gain stay the same. The blocks are the unpivoted
    columns sorted by how many rows have a nonzero entry, the fewest last:
    those land on the leading bits, where RowEchelon takes its pivots,
    and rows that lead in a block of their own reduce in a few steps.
    """
    m = H.ring
    rows = [list(row) for row in H.rows]
    units = {}

    def unit(p):
        got = units.get(p.bits)
        if got is None:
            got = units[p.bits] = is_unit(p, m)
        return got

    rank, rest = 0, []
    load = [sum(1 for row in rows if row[j].bits) for j in range(H.ncols)]
    for j in sorted(range(H.ncols), key=lambda j: load[j]):
        i = next((i for i, row in enumerate(rows) if unit(row[j])), None)
        if i is None:
            rest.append(j)
            continue
        pivot = rows.pop(i)
        rank += m.N
        inverse = None
        for row in rows:
            if not row[j].bits:
                continue
            if inverse is None:
                inverse = inverse_mod(pivot[j], m)
            c = m.mul(row[j], inverse)
            for k, p in enumerate(pivot):
                if p.bits:
                    row[k] = row[k] + m.mul(c, p)
    rows = [row for row in rows if any(row[j].bits for j in rest)]
    load = {j: sum(1 for row in rows if row[j].bits) for j in rest}
    rest.sort(key=lambda j: -load[j])
    span = RowEchelon()
    for row in rows:
        rank += span_step(span, [row[j].bits for j in rest], m.N)
    return rank


def write_pmx(H, path):
    """Write one matrix row per line, entries separated by ';'."""
    with open(path, "w") as fh:
        for row in H.rows:
            fh.write(";".join(p.to_text() for p in row) + "\n")


def read_pmx(path, modulus=None):
    """Read a ';'-separated polynomial matrix; '#' starts a comment.

    Over a ring the lines are split into entries first, and their row and
    (widest) column counts are checked against the expansion bound before
    any term is parsed.
    """
    with open(path) as fh:
        lines = [line.split("#", 1)[0].strip() for line in fh]
    texts = [line.split(";") for line in lines if line]
    if not texts:
        raise ValueError(f"no matrix rows in {path}")
    if modulus is not None:
        _check_expansion_size(len(texts), max(map(len, texts)), modulus.N)
    return PolyMatrix([[BinaryPoly.parse(t, modulus) for t in row] for row in texts], modulus)
