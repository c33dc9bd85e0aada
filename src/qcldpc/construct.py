"""Generator matrices for quasi-cyclic codes from polynomial minors.

Rows are produced in the generator-row sense: a row vector v(x) is a
valid codeword row exactly when matmul_mod([v], transpose_entrywise(H))
vanishes.  The binary expansion of a stack of such rows is a generator
matrix for the expanded code once its GF(2) rank reaches the code
dimension.

Each build takes its minors from one polymat.Minors of H: the column
search, the minimal f and the rows ask for the same minors again and
again, and each is expanded once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .binmat import RowEchelon
from .gf2poly import BinaryPoly, NotInvertible, gcd, inverse_mod, is_unit, transpose_poly
from .polymat import (
    Minors,
    PolyMatrix,
    expansion_rank,
    index_set,
    matmul_mod,
    span_step,
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


def _lemma1_reduced_row(H, m, S, minor):
    """The lemma-1 row over S divided by the gcd of its minors.

    The division happens in GF(2)[x] before projection.  Returns
    (row, a) where a is the common divisor; raises ValueError when
    every minor vanishes.
    """
    minors = {i: minor(None, tuple(j for j in S if j != i)) for i in S}
    a = BinaryPoly(0)
    for d in minors.values():
        a = gcd(a, d)
    if a.is_zero():
        raise ValueError("all minors vanish; nothing to divide")
    row = [BinaryPoly(0)] * H.ncols
    for i, d in minors.items():
        row[i - 1] = transpose_poly(d // a, m)
    return row, a


def codeword_lemma2(H, T, S, f):
    """Codeword row from row set T (size s) and column set S (size s+1).

    Valid exactly when f * minor(T + {j}, S) vanishes mod x^N + 1 for
    every row j outside T; returns None otherwise.  Position i in S
    carries t(f * minor(T, S \\ i)).
    """
    m = H.ring
    T = index_set(T, H.nrows)
    S = index_set(S, H.ncols)
    if len(S) != len(T) + 1:
        raise ValueError("S must be one column larger than T")
    minor = Minors(H)
    for j in range(1, H.nrows + 1):
        if j not in T and m.reduce(f * minor(tuple(sorted(T + (j,))), S)).bits:
            return None
    return _lemma2_row(H, m, T, S, f, minor)


def _lemma2_row(H, m, T, S, f, minor):
    """The lemma-2 row over (T, S) scaled by f, taken as valid.

    The greedy build calls it with T every row (None), where no row j is
    left to check, or with f from _minimal_f, which makes every
    f * minor(T + {j}, S) a multiple of x^N + 1.
    """
    row = [BinaryPoly(0)] * H.ncols
    for i in S:
        delta = minor(T, tuple(j for j in S if j != i))
        row[i - 1] = transpose_poly(f * delta, m)
    return row


def generator_case1(H, S=None):
    """Generator via an invertible n_c x n_c minor (full-rank case).

    Requires gcd(minor_S, x^N + 1) = 1; raises NotInvertible otherwise.
    Returns (result, standard) where standard is the result scaled into
    standard form by the inverse of the transposed minor. The target
    dimension is nN - expansion_rank(H), so result.complete checks the
    rank (n - n_c)N that the lemma-1 rows claim against it.
    """
    m = H.ring
    if S is None:
        S = tuple(range(1, H.nrows + 1))
    S = index_set(S, H.ncols)
    if len(S) != H.nrows:
        raise ValueError("S must select n_c columns")
    minor = Minors(H)
    delta_S = minor(None, S)
    if not is_unit(delta_S, m):
        raise NotInvertible(
            f"minor over columns {S} is not invertible mod x^{m.N}+1"
        )
    target = H.ncols * m.N - expansion_rank(H)
    result = _greedy_build(H, m, target, S, False, minor)
    scale = inverse_mod(transpose_poly(delta_S, m), m)
    standard = PolyMatrix([[scale * p for p in row] for row in result.matrix.rows], m)
    return result, standard


def generator_general(H, modulus=None):
    """Greedy generator synthesis from minor-based codeword rows.

    Plain lemma-1 rows over the best column selection are laid down first,
    then minimal-f lemma-2 rows are appended until the expansion rank
    reaches the code dimension.  If the plain rows cannot complete, the
    gcd-reduced variant is tried; if that also fails, Incomplete is
    raised with the best partial attached.  The code dimension is
    nN - expansion_rank(H).

    The ring is ``H.ring_for(modulus)``: a plain H is read over a given
    modulus, and an H over another ring is a ValueError naming both.
    """
    m = H.ring_for(modulus)
    if H.modulus is None:
        H = PolyMatrix(H.rows, m)
    minor = Minors(H)
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

    Otherwise every row adds its N circulant rows to one span through
    polymat.span_step, which stops at the row's first shift that adds
    nothing: the span holds every shift of the rows in it, so no later
    shift could add more. Within a lemma-2 level each round probes every
    candidate on a copy of the span and commits the one that grows it the
    most, the first such on ties, until none grows it. A candidate leaves
    the level at its first zero gain: what a row adds to a span never
    grows as the span does. A level keeps one candidate per distinct row,
    the first: a later equal row ties with it, so loses, and adds nothing
    once it is committed.
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
        if span_step(tracker, [p.bits for p in row], N):
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
        candidates, known = [], set()
        for T in combinations(range(1, H.nrows + 1), s):
            for S in combinations(range(1, H.ncols + 1), s + 1):
                f = _minimal_f(H, m, T, S, minor)
                row = _lemma2_row(H, m, T, S, f, minor)
                if all(p.is_zero() for p in row):
                    continue
                bits = tuple(p.bits for p in row)
                if bits not in known:
                    known.add(bits)
                    candidates.append((row, RowOrigin("lemma2", S=S, T=T, f=f)))
        while candidates and not done:
            gains = [
                span_step(tracker.copy(), [p.bits for p in row], N) for row, _ in candidates
            ]
            # A gain cannot grow as the span grows: a candidate that adds
            # nothing now never will, so it leaves the level.
            candidates = [c for c, gain in zip(candidates, gains) if gain]
            gains = [gain for gain in gains if gain]
            if candidates:
                best = max(range(len(candidates)), key=gains.__getitem__)
                done = admit(*candidates.pop(best))

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
            row = _lemma2_row(H, m, None, Sc, BinaryPoly(1), minor)
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
    return m.poly // gcd(g, m.poly)


def verify_generator(H, G, dimension=None):
    """True when G is a generator of the code of H: the self-check of every build.

    Every row of G must have zero syndrome (G times the entrywise
    transpose of H vanishes), and the rank of G's binary expansion must
    equal the code dimension. dimension is that dimension where the
    caller knows it (construct_generator has it from the assembled H, a
    test may state it); without it the dimension is nN - expansion_rank(H).
    """
    product = matmul_mod(G, transpose_entrywise(H))
    if any(p.bits for row in product.rows for p in row):
        return False
    if dimension is None:
        dimension = H.ncols * H.ring.N - expansion_rank(H)
    return expansion_rank(G) == dimension
