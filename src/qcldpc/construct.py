"""Generator matrices for quasi-cyclic codes from polynomial minors.

Rows are produced in the generator-row sense: a row vector v(x) is a
valid codeword row exactly when matmul_mod([v], transpose_entrywise(H))
vanishes.  The binary expansion of a stack of such rows is a generator
matrix for the expanded code once its GF(2) rank reaches the code
dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .binmat import RowEchelon
from .gf2poly import BinaryPoly, NotInvertible, gcd, inverse_mod, is_unit, transpose_poly
from .polymat import (
    PolyMatrix,
    circulant_rows,
    expansion_rank,
    index_set,
    matmul_mod,
    minor_det,
    transpose_entrywise,
)


class Incomplete(RuntimeError):
    """Raised when minor-based rows cannot reach the code dimension.

    The partial result (with whatever rank was achieved) is attached.
    """

    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial


@dataclass
class RowOrigin:
    """How a generator row was produced."""

    kind: str  # "lemma1" | "lemma1_reduced" | "lemma2"
    S: tuple = ()
    T: tuple = ()
    a: BinaryPoly | None = None
    f: BinaryPoly | None = None

    def to_dict(self):
        d = {"kind": self.kind}
        if self.S:
            d["S"] = list(self.S)
        if self.T:
            d["T"] = list(self.T)
        if self.a is not None:
            d["a"] = self.a.to_text()
        if self.f is not None:
            d["f"] = self.f.to_text()
        return d


@dataclass
class GeneratorResult:
    """A (possibly partial) polynomial generator matrix."""

    matrix: PolyMatrix
    row_provenance: list = field(default_factory=list)
    rank: int = 0
    target_dimension: int = 0

    @property
    def complete(self):
        return self.rank == self.target_dimension

    def min_row_weight(self):
        """Smallest binary weight over the generator rows."""
        return min(sum(p.weight() for p in row) for row in self.matrix.rows)

    def to_dict(self):
        return {
            "rows": self.matrix.to_text_rows(),
            "N": self.matrix.modulus.N,
            "row_provenance": [o.to_dict() for o in self.row_provenance],
            "rank": self.rank,
            "target_dimension": self.target_dimension,
            "complete": self.complete,
            "min_row_weight": self.min_row_weight(),
        }


def codeword_lemma1(H, S):
    """Codeword row from an (n_c + 1)-column selection S (1-based).

    Position i in S carries t(minor of H with column i removed from S);
    all minors are computed in plain GF(2)[x] and then projected.
    """
    S = index_set(S, H.ncols)
    if len(S) != H.nrows + 1:
        raise ValueError("S must have n_c + 1 columns")
    return codeword_lemma2(H, range(1, H.nrows + 1), S, BinaryPoly(1))


def codeword_lemma1_reduced(H, S):
    """Same as codeword_lemma1 but divided by the gcd of the minors.

    The division happens in GF(2)[x] before projection.  Returns
    (row, a) where a is the common divisor; raises ValueError when
    every minor vanishes.
    """
    m = _require_modulus(H)
    S = index_set(S, H.ncols)
    if len(S) != H.nrows + 1:
        raise ValueError("S must have n_c + 1 columns")
    return _lemma1_reduced_row(H, m, S, _Minors(H))


def _lemma1_reduced_row(H, m, S, minor):
    minors = {i: minor(None, tuple(j for j in S if j != i)) for i in S}
    a = BinaryPoly(0)
    for d in minors.values():
        a = gcd(a, d)
    if a.is_zero():
        raise ValueError("all minors vanish; nothing to divide")
    row = [BinaryPoly(0)] * H.ncols
    for i, d in minors.items():
        row[i - 1] = transpose_poly(m.reduce(d // a), m)
    return row, a


def codeword_lemma2(H, T, S, f):
    """Codeword row from row set T (size s) and column set S (size s+1).

    Valid exactly when f * minor(T + {j}, S) vanishes mod x^N + 1 for
    every row j outside T; returns None otherwise.  Position i in S
    carries t(f * minor(T, S \\ i)).
    """
    m = _require_modulus(H)
    T = index_set(T, H.nrows)
    S = index_set(S, H.ncols)
    if len(S) != len(T) + 1:
        raise ValueError("S must be one column larger than T")
    return _lemma2_row(H, m, T, S, f, _Minors(H))


def _lemma2_row(H, m, T, S, f, minor):
    for j in range(1, H.nrows + 1):
        if j in T:
            continue
        delta = minor(tuple(sorted(T + (j,))), S)
        if not m.reduce(f * delta).is_zero():
            return None
    row = [BinaryPoly(0)] * H.ncols
    for i in S:
        delta = minor(T, tuple(j for j in S if j != i))
        row[i - 1] = transpose_poly(m.reduce(f * delta), m)
    return row


def generator_case1(H, S=None):
    """Generator via an invertible n_c x n_c minor (full-rank case).

    Requires gcd(minor_S, x^N + 1) = 1; raises NotInvertible otherwise.
    Returns (result, standard) where standard is the result scaled into
    standard form by the inverse of the transposed minor. The target
    dimension is nN - expansion_rank(H), so result.complete checks the
    rank (n - n_c)N that the lemma-1 rows claim against it.
    """
    m = _require_modulus(H)
    if S is None:
        S = tuple(range(1, H.nrows + 1))
    S = index_set(S, H.ncols)
    if len(S) != H.nrows:
        raise ValueError("S must select n_c columns")
    minor = _Minors(H)
    delta_S = minor(None, S)
    if not is_unit(delta_S, m):
        raise NotInvertible(
            f"minor over columns {S} is not invertible mod x^{m.N}+1"
        )
    target = H.ncols * m.N - expansion_rank(H)
    result = _greedy_build(H, m, target, S, False, minor)
    scale = inverse_mod(transpose_poly(m.reduce(delta_S), m), m)
    standard = PolyMatrix(
        [[m.mul(scale, p) for p in row] for row in result.matrix.rows], m
    )
    return result, standard


def generator_general(H, modulus=None):
    """Greedy generator synthesis from minor-based codeword rows.

    Plain lemma-1 rows over the best column selection are laid down first,
    then minimal-f lemma-2 rows are appended until the expansion rank
    reaches the code dimension.  If the plain rows cannot complete, the
    gcd-reduced variant is tried; if that also fails, Incomplete is
    raised with the best partial attached.  The code dimension is
    nN - expansion_rank(H).
    """
    m = modulus or _require_modulus(H)
    if H.modulus is None:
        H = PolyMatrix(H.rows, m)
    minor = _Minors(H)
    S_best = _best_column_selection(H, m, minor)
    target = H.ncols * m.N - expansion_rank(H)
    for reduce_rows in (False, True):
        result = _greedy_build(H, m, target, S_best, reduce_rows, minor)
        if result.complete:
            return result
        if not reduce_rows:
            plain_partial = result
    best = max((plain_partial, result), key=lambda r: r.rank)
    raise Incomplete(
        f"reached rank {best.rank} of {target}; minor-based rows exhausted",
        best,
    )


class _Minors:
    """minor(T, S): minor_det(H, T, S), each (T, S) computed once.

    One generator build shares one memo: the column search, the minimal f
    and the lemma-2 validity check take the same minors again and again.
    """

    __slots__ = ("H", "every_row", "memo")

    def __init__(self, H):
        self.H = H
        self.every_row = tuple(range(1, H.nrows + 1))
        self.memo = {}

    def __call__(self, T, S):
        key = (self.every_row if T is None else T, S)
        got = self.memo.get(key)
        if got is None:
            got = self.memo[key] = minor_det(self.H, *key)
        return got


def _best_column_selection(H, m, minor):
    """n_c-subset of columns whose minor has the smallest-degree ring gcd."""
    best, best_deg = None, None
    for S in combinations(range(1, H.ncols + 1), H.nrows):
        delta = minor(None, S)
        if delta.is_zero():
            continue
        deg = gcd(delta, m.poly).degree
        if best_deg is None or deg < best_deg:
            best, best_deg = S, deg
            if deg == 0:
                break
    return best


def _greedy_build(H, m, target, S_best, reduce_rows, minor):
    """Admit lemma-1 rows over S_best, then lemma-2 rows level by level.

    Plain rows over a unit minor (case 1) are all laid down with no rank
    tracking, as each adds N to the rank.

    Within a lemma-2 level the candidate whose N circulant rows grow the
    span the most is committed, the first such on ties, until none grows
    it. A candidate's gain never grows as the span does, because matroid
    rank is submodular, so a gain measured before a later commit is an
    upper bound on the gain now. Each round probes candidates from the
    largest bound down and stops at the first whose bound can neither
    beat the best fresh gain nor tie it at a lower index; the pick is the
    one a probe of every candidate would make.
    """
    if target == 0:
        raise ValueError("code has dimension 0; no generator exists")
    N = m.N
    if not reduce_rows and S_best is not None and is_unit(minor(None, S_best), m):
        # Lemma-1 row c holds the unit minor over S_best in its own column
        # c and every other lemma-1 row holds 0 there.
        built = list(_lemma1_rows(H, m, S_best, False, minor))
        return GeneratorResult(
            matrix=PolyMatrix([row for row, _ in built], m),
            row_provenance=[origin for _, origin in built],
            rank=len(built) * N,
            target_dimension=target,
        )
    tracker = RowEchelon()
    rows, provenance = [], []

    def admit(row, origin):
        grew = False
        for bits in circulant_rows([p.bits for p in row], N):
            grew = tracker.add(bits) or grew
        if grew:
            rows.append(row)
            provenance.append(origin)
        return tracker.rank >= target

    done = False
    if S_best is not None:
        for row, origin in _lemma1_rows(H, m, S_best, reduce_rows, minor):
            done = admit(row, origin)
            if done:
                break

    for s in range(H.nrows - 1, -1, -1):
        if done:
            break
        candidates = []
        for T in combinations(range(1, H.nrows + 1), s):
            for S in combinations(range(1, H.ncols + 1), s + 1):
                f = _minimal_f(H, m, T, S, minor)
                row = _lemma2_row(H, m, T, S, f, minor)
                if row is None or all(p.is_zero() for p in row):
                    continue
                candidates.append((row, RowOrigin("lemma2", S=S, T=T, f=f)))
        bound = [N] * len(candidates)  # N rows add at most N to the rank
        while candidates and not done:
            # Keys (gain, -index) order candidates as the pick does; a
            # gain of 0 is never committed.
            best, best_key = None, (0, 1)
            for i in sorted(range(len(candidates)), key=lambda i: (-bound[i], i)):
                if (bound[i], -i) <= best_key:
                    break
                probe = tracker.copy()
                for bits in circulant_rows([p.bits for p in candidates[i][0]], N):
                    probe.add(bits)
                bound[i] = probe.rank - tracker.rank
                if (bound[i], -i) > best_key:
                    best, best_key = i, (bound[i], -i)
            if best is None:
                break
            del bound[best]
            row, origin = candidates.pop(best)
            done = admit(row, origin)

    if not rows:
        rows = [[BinaryPoly(0)] * H.ncols]
        provenance = [RowOrigin("lemma2", f=BinaryPoly(0))]
    return GeneratorResult(
        matrix=PolyMatrix(rows, m),
        row_provenance=provenance,
        rank=tracker.rank,
        target_dimension=target,
    )


def _lemma1_rows(H, m, S_best, reduce_rows, minor):
    """(row, origin) over S_best plus each column c outside it, in order of c.

    Reduced rows skip a c whose minors all vanish.
    """
    for c in range(1, H.ncols + 1):
        if c in S_best:
            continue
        Sc = tuple(sorted(S_best + (c,)))
        if not reduce_rows:
            row = _lemma2_row(H, m, minor.every_row, Sc, BinaryPoly(1), minor)
            yield row, RowOrigin("lemma1", S=Sc)
            continue
        try:
            row, a = _lemma1_reduced_row(H, m, Sc, minor)
        except ValueError:
            continue
        yield row, RowOrigin("lemma1_reduced", S=Sc, a=a)


def _minimal_f(H, m, T, S, minor):
    """Smallest f making the lemma-2 row over (T, S) a codeword."""
    g = BinaryPoly(0)
    for j in range(1, H.nrows + 1):
        if j not in T:
            g = gcd(g, minor(tuple(sorted(T + (j,))), S))
    g_ring = gcd(g, m.poly)
    return m.poly // g_ring if not g_ring.is_zero() else BinaryPoly(1)


def verify_generator(H, G, dimension=None):
    """Check zero syndrome and full expansion rank against H.

    dimension is the known code dimension, such as the one a test
    states; without it the dimension is nN - expansion_rank(H).
    """
    m = _require_modulus(H)
    product = matmul_mod(G, transpose_entrywise(H))
    if any(p.bits for row in product.rows for p in row):
        return False
    if dimension is None:
        dimension = H.ncols * m.N - expansion_rank(H)
    return expansion_rank(G) == dimension


def _require_modulus(H):
    if H.modulus is None:
        raise ValueError("a ring modulus is required")
    return H.modulus
