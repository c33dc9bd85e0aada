"""Rank and dimension of quasi-cyclic codes via determinantal divisors.

The rank of the N-fold binary expansion of a polynomial matrix H over
GF(2)[x]/(x^N + 1) is min(shape)*N - sum(deg d_i), where
d_i = gcd(s_i, x^N + 1) and s_1 | s_2 | ... is the Smith diagonal of H
taken in plain GF(2)[x]. The gcd gamma_i of all i x i minors is
s_1*...*s_i, so one elimination gives every gamma_i; the minors are
never enumerated. Each d_i is gcd(s_i, (x^N mod s_i) + 1), so no
operand is wider than s_i and the cost grows with log N, not N.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import accumulate
from operator import mul

from .gf2poly import BinaryPoly, _divmod_bits, clmul, gcd
from .polymat import _MAX_EXPANSION_BITS


@dataclass
class RankReport:
    """Determinantal-divisor data for a polynomial matrix over x^N + 1."""

    N: int
    nrows: int
    ncols: int
    gammas: list = field(default_factory=list)
    d_polys: list = field(default_factory=list)
    smith_diagonal: list = field(default_factory=list)
    rank: int = 0
    dimension: int = 0

    def to_dict(self):
        d = dict(vars(self))
        for key in ("gammas", "d_polys", "smith_diagonal"):
            d[key] = [p.to_text() for p in d[key]]
        return d


def rank_qc(H, modulus=None):
    """Rank report for the binary expansion of H over x^N + 1.

    The ring is ``H.ring_for(modulus)``: a given modulus for a plain H,
    whose entries the Smith form takes as written, and a ValueError for
    an H over another ring. An N past ``sys.maxsize``, too large for
    Python to shift by, is a ValueError too, as no int holds x^N + 1.
    So is a zero Smith entry, whose d_i is x^N + 1 itself, once N reaches
    polymat's expansion bound: x^N + 1 would have more bits than it.
    """
    modulus = H.ring_for(modulus)
    n_c, N = min(H.shape), modulus.N
    if N > sys.maxsize:
        raise ValueError(f"N = {N} is too large for Python to shift by")
    smith = _smith_diagonal(H.rows)
    if len(smith) < n_c and N >= _MAX_EXPANSION_BITS:
        raise ValueError(
            f"d = x^{N} + 1 of a zero Smith entry exceeds the bound of "
            f"{_MAX_EXPANSION_BITS} bits"
        )
    smith += [BinaryPoly(0)] * (n_c - len(smith))
    d_polys = [gcd(s, BinaryPoly(_x_power_mod(N, s.bits) ^ 1)) for s in smith]
    rank = n_c * N - sum(d.degree for d in d_polys)
    return RankReport(
        N=N, nrows=H.nrows, ncols=H.ncols, gammas=list(accumulate(smith, mul)),
        d_polys=d_polys, smith_diagonal=smith, rank=rank, dimension=H.ncols * N - rank,
    )


def _x_power_mod(N, s):
    """The bits of x^N mod s by square-and-multiply, or of x^N for a zero s."""
    if not s:
        return 1 << N
    r = 1
    for bit in bin(N)[2:]:
        r = _divmod_bits(clmul(r, r) << int(bit), s)[1]
    return r


def _smith_diagonal(rows):
    """The nonzero Smith diagonal s_1 | s_2 | ... of a matrix over GF(2)[x].

    Each round pivots on a nonzero entry p of least degree. Row steps
    clear p's column; then column steps cut p's row to its remainders
    mod p, and with the column clear they touch p's row alone. A nonzero
    remainder has lower degree than p, so the round starts over on a
    pivot of lower degree, and the elimination ends. When p's row and
    column are clear, a row holding an entry that p does not divide is
    added into p's row and cut, which leaves such a remainder; if there
    is none, p is the next diagonal entry and its row and column drop
    out.
    """
    a = [list(row) for row in rows]
    diagonal = []
    while True:
        nonzero = [
            (x.bits.bit_length(), i, j)
            for i, row in enumerate(a) for j, x in enumerate(row) if x.bits
        ]
        if not nonzero:
            return diagonal
        _, i, j = min(nonzero)
        top, p = a[i], a[i][j]
        for row in a:
            if row is not top and row[j].bits:
                q = row[j] // p
                row[:] = [x + q * y for x, y in zip(row, top)]
        if any(row[j].bits for row in a if row is not top):
            continue
        top[:] = [x % p for x in top]
        if not any(x.bits for x in top):
            bad = next((row for row in a if any((x % p).bits for x in row)), None)
            if bad is None:
                diagonal.append(p)
                a = [row[:j] + row[j + 1 :] for row in a if row is not top]
                continue
            top[:] = [x % p for x in bad]  # top held p alone, so this adds bad and cuts
        top[j] = p
