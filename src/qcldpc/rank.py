"""Rank and dimension of quasi-cyclic codes via determinantal divisors.

The rank of the N-fold binary expansion of a polynomial matrix H over
GF(2)[x]/(x^N + 1) is n_c*N - sum(deg d_i), where d_i divides x^N + 1
and is computed from the gcds gamma_i of all i x i minors of H taken in
plain GF(2)[x].
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .gf2poly import BinaryPoly, gcd
from .polymat import PolyMatrix, all_minors_gcd


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
        return {
            "N": self.N,
            "nrows": self.nrows,
            "ncols": self.ncols,
            "gammas": [g.to_text() for g in self.gammas],
            "d_polys": [d.to_text() for d in self.d_polys],
            "smith_diagonal": [s.to_text() for s in self.smith_diagonal],
            "rank": self.rank,
            "dimension": self.dimension,
        }


def rank_qc(H, modulus=None):
    """Rank report for the binary expansion of H over x^N + 1.

    Works on the transpose when H has more rows than columns (the
    divisors are symmetric in the two shapes).
    """
    if modulus is None:
        modulus = H.modulus
    if modulus is None:
        raise ValueError("a ring modulus is required")
    orig_rows, orig_cols = H.nrows, H.ncols
    if H.nrows > H.ncols:
        H = PolyMatrix(
            [[H.rows[i][j] for i in range(H.nrows)] for j in range(H.ncols)],
            H.modulus,
        )
    n_c = H.nrows
    N = modulus.N
    ring_poly = modulus.poly

    gammas = []
    d_polys = []
    smith = []
    prev = BinaryPoly(1)
    dead = False
    for i in range(1, n_c + 1):
        gamma = all_minors_gcd(H, i) if not dead else BinaryPoly(0)
        gammas.append(gamma)
        if gamma.is_zero():
            dead = True
            smith.append(BinaryPoly(0))
            d_polys.append(ring_poly)
        else:
            quotient = gamma // prev
            smith.append(quotient)
            d_polys.append(gcd(quotient, ring_poly))
        prev = gamma

    rank = n_c * N - sum(d.degree for d in d_polys)
    return RankReport(
        N=N,
        nrows=orig_rows,
        ncols=orig_cols,
        gammas=gammas,
        d_polys=d_polys,
        smith_diagonal=smith,
        rank=rank,
        dimension=orig_cols * N - rank,
    )
