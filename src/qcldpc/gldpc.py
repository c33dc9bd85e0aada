"""GLDPC specification, assembly, reduction, pre-lifting, and pipelines.

A GldpcSpec pairs a quasi-cyclic base matrix with a per-row constraint
assignment: None keeps the row as a single-parity check, a
ComponentCode replaces it by the component's parity rows, entrywise
scaled by the (monomial) row entries.  Any row may carry a component.
A pre-lifted spec first splits the base by any divisor N1 of N and
assigns components to the split rows.  Generators are built on one
path: the identity columns of the components are eliminated by a
single Schur step (reduce_spec), a generator is synthesized for the
short matrix, and the eliminated columns are recomposed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

# The scalar rank stays bound here: perfbench's tracer test rebinds it.
from .binmat import rank as rank_scalar  # noqa: F401
from .gf2poly import (
    BinaryPoly, NotInvertible, RingModulus, gcd, inverse_mod, is_unit, transpose_poly,
)
from .polymat import (
    Minors,
    PolyMatrix,
    _check_expansion_size,
    circulant_expand,
    expansion_rank,
    matmul_mod,
    transpose_entrywise,
)
from .construct import (
    GeneratorResult, codeword_lemma1, codeword_lemma2, generator_general, verify_generator,
)


class ComponentCode:
    """Binary parity-check matrix of a constraint code.

    parity is a p x q 0/1 matrix.  When p of its columns form an
    identity block, reduce_spec eliminates those positions with one
    Schur step, wherever the block sits.  The block is detected
    automatically (rightmost contiguous identity block) or can be given
    explicitly as identity_start.
    """

    def __init__(self, parity, identity_start=None):
        rows = tuple(tuple(map(int, row)) for row in parity)  # a row may be a 0/1 string
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("parity must be a nonempty rectangular matrix")
        if not set().union(*rows) <= {0, 1}:
            raise ValueError("parity entries must be 0 or 1")
        self.parity = rows
        if identity_start is None:
            identity_start = self._detect_identity()
        elif not self._is_identity_at(identity_start):
            raise ValueError(f"columns {identity_start}.. do not form an identity")
        self.identity_start = identity_start

    @property
    def p(self):
        return len(self.parity)

    @property
    def q(self):
        return len(self.parity[0])

    @classmethod
    def spc(cls, q):
        return cls([(1,) * q])

    def _is_identity_at(self, start):
        """Whether columns start.. hold the p x p identity: row r's slice is unit row r."""
        p = self.p
        if start < 0 or start + p > self.q:
            return False
        return all(
            row[start : start + p] == (0,) * r + (1,) + (0,) * (p - 1 - r)
            for r, row in enumerate(self.parity)
        )

    def _detect_identity(self):
        for start in range(self.q - self.p, -1, -1):
            if self._is_identity_at(start):
                return start
        return None

    def __eq__(self, other):
        return isinstance(other, ComponentCode) and self.parity == other.parity

    def __repr__(self):
        return f"ComponentCode(p={self.p}, q={self.q})"

    def to_dict(self):
        d = {"parity": ["".join(str(b) for b in row) for row in self.parity]}
        if self.identity_start is not None:
            d["identity_start"] = self.identity_start
        return d

    @classmethod
    def from_dict(cls, d):
        rows = d.get("parity") if isinstance(d, dict) else None
        if not isinstance(rows, list) or not all(
            isinstance(r, str) and set(r) <= {"0", "1"} for r in rows
        ):
            raise ValueError("a component needs 'parity', a list of 0/1 strings")
        start = d.get("identity_start")
        start = None if start is None else _int(start, "identity_start")
        return cls(rows, start)


def _int(value, what):
    """value itself when it is a JSON integer, else ValueError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


@dataclass
class GldpcSpec:
    """Base constraint matrix plus per-row component assignment.

    For a pre-lifted spec (prelift = N1, a divisor of N) the assignment
    addresses the rows of the split base, N1 per base row.
    """

    base: PolyMatrix
    assignment: tuple
    prelift: int | None = None

    def __post_init__(self):
        N = self.base.ring.N  # a base over plain GF(2)[x] is a ValueError
        self.assignment = tuple(self.assignment)
        parity = _check_spec_size(N, self.prelift, self.base.ncols, self.assignment)
        eff = self.effective_matrix()
        if len(self.assignment) != eff.nrows:
            raise ValueError(
                f"assignment length {len(self.assignment)} != {eff.nrows} constraint rows"
            )
        for i, comp in enumerate(self.assignment):
            if comp is None:
                continue
            entries = [p.bits for p in eff.rows[i] if p.bits]
            if comp.q != len(entries):
                raise ValueError(
                    f"component length {comp.q} != weight {len(entries)} of constraint row {i}"
                )
            if any(bits & (bits - 1) for bits in entries):
                raise ValueError("generalized rows must have monomial entries")
        if not 0 < parity < eff.ncols:  # the design rate 1 - parity / ncols in (0, 1)
            raise ValueError(f"design rate {design_rate(self)} outside (0, 1)")

    def effective_matrix(self):
        """The constraint matrix the assignment addresses.

        A pre-lift sorts split column j*N1 + c by (residues(j), c, j),
        residues(j) being per base row the exponents mod N1 of entry j,
        which are the residues t whose part g_t of that entry is nonzero.
        On the [ones; x^e] base with N1 = 2 this gives the column groups
        [even res-0 | even res-1 | odd res-0 | odd res-1]. Each base entry
        is split once, and the split rows are written in that order.
        """
        if self.prelift is None:
            return self.base
        N1 = self.prelift
        m2, parts = _split_entries(self.base, N1)
        residues = [
            tuple(tuple(t for t, part in enumerate(entry) if part) for entry in column)
            for column in zip(*parts)
        ]
        order = sorted((residues[j], c, j) for j in range(self.base.ncols) for c in range(N1))
        return _lifted(parts, N1, [(j, c) for _, c, j in order], m2)

    def to_json_dict(self):
        """The spec's JSON keys; a ValueError unless the base is [ones; x^e]."""
        exponents = [p.bits.bit_length() - 1 for p in self.base.rows[-1]]
        if base_from_exponents(exponents, self.base.modulus) != self.base:
            raise ValueError("only a base [1 ... 1; x^e1 ... x^en] can be written as a spec")
        d = {"N": self.base.modulus.N}
        if self.prelift is not None:
            d["N1"] = self.prelift
        d["exponents"] = exponents
        d["assignment"] = [
            None if c is None else c.to_dict() for c in self.assignment
        ]
        return d

    @classmethod
    def from_json_dict(cls, d):
        if not isinstance(d, dict):
            raise ValueError("a spec must be a JSON object")
        for key in ("N", "exponents", "assignment"):
            if key not in d:
                raise ValueError(f"spec has no {key!r} key")
        if "alternative_form" in d:
            raise ValueError(
                "spec key 'alternative_form' is not supported; "
                "list the assignment in base-row order"
            )
        m = RingModulus(_int(d["N"], "N"))
        exponents = d["exponents"]
        if not isinstance(exponents, list) or not exponents:
            raise ValueError("exponents must be a nonempty list of integers")
        exponents = [_int(e, "an exponent") for e in exponents]
        if not isinstance(d["assignment"], list):
            raise ValueError("assignment must be a list of components or nulls")
        assignment = tuple(
            None if c is None else ComponentCode.from_dict(c)
            for c in d["assignment"]
        )
        prelift = _int(d["N1"], "N1") if "N1" in d else None
        # Sizes first: nothing of the spec's size is built past the bound.
        _check_spec_size(m.N, prelift, len(exponents), assignment)
        return cls(base_from_exponents(exponents, m), assignment, prelift)


def _check_spec_size(N, prelift, ncols, assignment):
    """A spec's parity row count, checked against the expansion bound.

    Reads sizes only: N, the pre-lift N1, the base's column count and
    each component's row count. An N1 that does not divide N is the
    ValueError of a pre-lift.
    """
    N1 = 1 if prelift is None else prelift
    N2 = _lift_ring(N, N1)
    parity = sum(1 if c is None else c.p for c in assignment)
    _check_expansion_size(parity, ncols * N1, N2)
    return parity


def base_from_exponents(exponents, modulus):
    """The two-row constraint form [all ones; monomials x^e]."""
    ones = [BinaryPoly(1)] * len(exponents)
    mono = [BinaryPoly(1) << (e % modulus.N) for e in exponents]
    return PolyMatrix([ones, mono], modulus)


def design_rate(spec):
    """1 - (sum of parity rows) / n_v, counting 1 per plain SPC row.

    n_v is the column count of the effective matrix: a pre-lift by N1
    splits each base column into N1.
    """
    parity = sum(1 if c is None else c.p for c in spec.assignment)
    return 1 - Fraction(parity, spec.base.ncols * (spec.prelift or 1))


def _component_rows(row, comp):
    """Component parity rows placed at the row's support, scaled by its monomial entries."""
    support = [c for c, p in enumerate(row) if not p.is_zero()]
    out = []
    for r in range(comp.p):
        new = [BinaryPoly(0)] * len(row)
        for s, c in enumerate(support):
            if comp.parity[r][s]:
                new[c] = row[c]
            # a zero component bit leaves a zero entry
        out.append(new)
    return out


def gshort_forms(H_short, pivot=None):
    """The plain and gcd-divided generator forms for a single-row H_short.

    Returns (G_short, G_short_reduced).  Rows pair the pivot entry with
    each other entry; the reduced form divides those pairs by
    g = gcd(f_1, ..., f_m, x^N + 1) in GF(2)[x].  Rows built from
    f = (x^N + 1)/g are appended unless g = 1 makes them vanish.  The
    pivot defaults to the last entry and is re-selected to one whose
    ring gcd equals g when needed.
    """
    if H_short.nrows != 1:
        raise ValueError("H_short must be a single polynomial row")
    mod = H_short.ring
    fs = H_short.rows[0]
    m_count = len(fs)
    if all(p.is_zero() for p in fs):
        raise ValueError("all entries vanish")
    g_poly = BinaryPoly(0)
    for p in fs:
        g_poly = gcd(g_poly, p)
    g = gcd(g_poly, mod.poly)

    def ring_gcd(i):
        return gcd(fs[i - 1], mod.poly)

    if pivot is None:
        pivot = m_count
        if ring_gcd(pivot) != g:
            pivot = next(
                (i for i in range(1, m_count + 1) if ring_gcd(i) == g), None
            )
            if pivot is None:
                raise ValueError("no entry attains the common ring gcd")
    elif ring_gcd(pivot) != g:
        raise ValueError(f"entry {pivot} does not attain the common ring gcd")

    f_piv = fs[pivot - 1]
    plain_rows, reduced_rows = [], []
    for j in range(1, m_count + 1):
        if j == pivot:
            continue
        plain_rows.append(codeword_lemma1(H_short, sorted((j, pivot))))
        red = [BinaryPoly(0)] * m_count
        red[j - 1] = transpose_poly(f_piv // g, mod)
        red[pivot - 1] = transpose_poly(fs[j - 1] // g, mod)
        reduced_rows.append(red)
    if g.bits != 1:
        f = mod.poly // g
        f_rows = [codeword_lemma2(H_short, (), (i,), f) for i in range(1, m_count + 1)]
        plain_rows.extend(f_rows)
        reduced_rows.append(f_rows[pivot - 1])
    if not plain_rows or not reduced_rows:
        raise ValueError("kernel is trivial; no generator rows exist")
    return PolyMatrix(plain_rows, mod), PolyMatrix(reduced_rows, mod)


def _residue_parts(g, N1, N):
    """The bits of g_0, ..., g_(N1-1) in g(x) = sum_t x^t g_t(x^N1) mod x^N + 1.

    N1 divides N, and each g_t is taken over x^(N/N1) + 1.
    """
    parts = [0] * N1
    for e in g.exponents():
        parts[e % N1] |= 1 << ((e % N) // N1)
    return parts


def _lift_ring(N, N1):
    """N / N1, the circulant size of a pre-lift by N1; ValueError unless N1 divides N."""
    if N1 < 1 or N % N1:
        raise ValueError(
            f"N1 must be a positive divisor of N: N={N} is not divisible by N1={N1}"
        )
    return N // N1


def _split_entries(H, N1):
    """(the ring x^(N/N1) + 1, the residue parts of every entry of H)."""
    N = H.ring.N
    m2 = RingModulus(_lift_ring(N, N1))
    return m2, [[_residue_parts(p, N1, N) for p in row] for row in H.rows]


def _lifted(parts, N1, columns, m2):
    """The pre-lifted matrix from its entries' residue parts, split columns in order.

    columns lists the split columns (j, c) to write. Split row i*N1 + r
    holds at (j, c) the entry of prelift_entry's block of base entry
    (i, j) at (r, c): part (r - c) mod N1, times x when r < c.
    """
    rows = []
    for row_parts in parts:
        polys = [[BinaryPoly(b) for b in entry] for entry in row_parts]
        for r in range(N1):
            rows.append([
                polys[j][(r - c) % N1] << 1 if r < c else polys[j][(r - c) % N1]
                for j, c in columns
            ])
    return PolyMatrix(rows, m2)


def prelift_entry(g, N1, m2):
    """N1 x N1 block over modulus m2 replacing one entry over N1 * m2.N.

    Decomposes g(x) = sum_t x^t g_t(x^N1): g_0 sits on the diagonal,
    with x * g_{N1-1} immediately above and g_1 immediately below.
    """
    parts = [[_residue_parts(g, N1, N1 * m2.N)]]
    return _lifted(parts, N1, [(0, c) for c in range(N1)], m2)


def prelift_matrix(H, N1):
    """Blockwise pre-lift of every entry; modulus drops to N / N1."""
    m2, parts = _split_entries(H, N1)
    return _lifted(parts, N1, [(j, c) for j in range(H.ncols) for c in range(N1)], m2)


def assembled_parity(spec, eff=None):
    """All constraint rows as one PolyMatrix (SPC rows plus component rows).

    ``eff`` is ``spec.effective_matrix()`` where the caller has built it.
    """
    if eff is None:
        eff = spec.effective_matrix()
    rows = []
    for i, comp in enumerate(spec.assignment):
        if comp is None:
            rows.append(eff.row(i))
        else:
            rows.extend(_component_rows(eff.rows[i], comp))
    return PolyMatrix(rows, eff.modulus)


def expand_binary(spec):
    """Full (sum p_i * N) x (n_v * N) binary parity-check matrix."""
    return circulant_expand(assembled_parity(spec))


def reduce_spec(spec):
    """Eliminate the components' identity columns: (H_short, T, meta).

    Components are taken greedily in assignment order.  Each one with an
    identity block offers its parity rows as pivot rows and the columns
    under its block as pivot columns; it is skipped when those columns
    overlap ones already taken, when it would leave no row behind, or
    when the enlarged pivot block is not invertible: its determinant (a
    minor of the assembled matrix) must be a unit mod x^N + 1.  Returns
    schur_reduce(assembled_parity(spec), pivot rows, pivot columns), run
    once on the final pivots; with no pivots H_short is the assembled
    matrix itself.
    """
    eff = spec.effective_matrix()
    return _reduce(spec, eff, assembled_parity(spec, eff))


def _reduce(spec, eff, H):
    """``reduce_spec`` given the effective matrix and its assembly H.

    A component's enlarged pivot block is accepted by its determinant
    alone; the one Schur step runs on the final pivot set.
    """
    minor = Minors(H)
    rows, cols = (), ()
    next_row = 1
    for i, comp in enumerate(spec.assignment):
        first, next_row = next_row, next_row + (1 if comp is None else comp.p)
        if comp is None or comp.identity_start is None or len(rows) + comp.p >= H.nrows:
            continue
        support = [c for c, p in enumerate(eff.rows[i], 1) if not p.is_zero()]
        comp_cols = tuple(support[comp.identity_start : comp.identity_start + comp.p])
        if set(comp_cols) & set(cols):
            continue
        comp_rows = tuple(range(first, next_row))
        if is_unit(minor(rows + comp_rows, tuple(sorted(cols + comp_cols))), H.modulus):
            rows, cols = rows + comp_rows, cols + comp_cols
    return schur_reduce(H, rows, cols)


def construct_generator(spec):
    """Reduce, synthesize on the short matrix, and compose back.

    The composed G is checked by construct.verify_generator against the
    assembled H: zero syndrome, and an expansion rank equal to the code
    dimension nN - expansion_rank(H). A failure is a RuntimeError, so a
    returned result has rank equal to that dimension. Incomplete
    propagates from the synthesis on the short matrix.
    """
    eff = spec.effective_matrix()  # built once, passed down
    H = assembled_parity(spec, eff)
    dim = H.ncols * H.ring.N - expansion_rank(H)
    H_short, T, meta = _reduce(spec, eff, H)
    inner = generator_general(H_short)
    G = schur_recompose(inner.matrix, T, meta, H.ncols)
    if not verify_generator(H, G, dim):
        raise RuntimeError("composed generator fails the syndrome or rank check")
    return GeneratorResult(
        matrix=G, row_provenance=list(inner.row_provenance), rank=dim, target_dimension=dim
    )


@dataclass
class SchurMeta:
    """Bookkeeping from schur_reduce for recomposing generators."""

    pivot_rows: tuple
    pivot_cols: tuple
    rest_cols: tuple
    det: BinaryPoly


def schur_reduce(H, pivot_rows, pivot_cols):
    """Eliminate an invertible block of H against the remaining rows.

    pivot_rows (1-based) select the equations solved for the pivot
    columns pivot_cols; NotInvertible is raised when that block is not
    invertible. Returns (H_rest, T, meta) where H_rest is the reduced
    matrix on the remaining columns and T recomposes generator rows: a
    row v of a generator for ker(H_rest) extends to the pivot columns as
    v * T.
    With no pivot rows nothing is eliminated: H_rest is H and T is None.
    """
    mod = H.ring
    pivot_rows = tuple(sorted(set(pivot_rows)))
    pivot_cols = tuple(sorted(set(pivot_cols)))
    if len(pivot_cols) != len(pivot_rows):
        raise ValueError("pivot row and column counts must match")
    if not pivot_rows:
        return H, None, SchurMeta((), (), tuple(range(1, H.ncols + 1)), BinaryPoly(1))
    rest_rows = tuple(i for i in range(1, H.nrows + 1) if i not in pivot_rows)
    rest_cols = tuple(j for j in range(1, H.ncols + 1) if j not in pivot_cols)
    B = H.submatrix([i - 1 for i in pivot_rows], [j - 1 for j in pivot_cols])
    B_inv, det = _invert(B, mod)
    A = H.submatrix([i - 1 for i in pivot_rows], [j - 1 for j in rest_cols])
    BA = matmul_mod(B_inv, A)
    if rest_rows:
        R_pivot = H.submatrix(
            [i - 1 for i in rest_rows], [j - 1 for j in pivot_cols]
        )
        R_rest = H.submatrix(
            [i - 1 for i in rest_rows], [j - 1 for j in rest_cols]
        )
        fold = matmul_mod(R_pivot, BA)
        rows = [
            [R_rest.rows[r][c] + fold.rows[r][c] for c in range(len(rest_cols))]
            for r in range(len(rest_rows))
        ]
        H_rest = PolyMatrix(rows, mod)
    else:
        H_rest = None
    T = transpose_entrywise(BA)
    return H_rest, T, SchurMeta(pivot_rows, pivot_cols, rest_cols, det)


def schur_recompose(G_rest, T, meta, ncols):
    """Place reduced generator rows back into the original column order."""
    if not meta.pivot_cols:
        return G_rest
    ext = matmul_mod(G_rest, T)
    rows = []
    for r in range(G_rest.nrows):
        row = [BinaryPoly(0)] * ncols
        for c, j in enumerate(meta.rest_cols):
            row[j - 1] = G_rest.rows[r][c]
        for c, j in enumerate(meta.pivot_cols):
            row[j - 1] = ext.rows[r][c]
        rows.append(row)
    return PolyMatrix(rows, G_rest.modulus)


def _invert(B, mod):
    """Ring inverse of a square PolyMatrix via the adjugate.

    The determinant and its cofactors come from one Minors(B), which
    expands each minor they share once.
    """
    minor = Minors(B)
    every = minor.every_row
    det = mod.reduce(minor(every, every))
    if not is_unit(det, mod):
        raise NotInvertible("pivot block determinant shares a factor with x^N+1")
    inv_det = inverse_mod(det, mod)
    n = len(every)
    rows = [
        [minor(every[:j] + every[j + 1 :], every[:i] + every[i + 1 :]) * inv_det for j in range(n)]
        for i in range(n)
    ]
    return PolyMatrix(rows, mod), det


def save_spec(spec, path):
    text = json.dumps(spec.to_json_dict(), indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_spec(path):
    with open(path, encoding="utf-8") as fh:
        return GldpcSpec.from_json_dict(json.load(fh))
