"""Polynomial matrices: minors, expansion, and serialization.

The determinant oracle below expands over permutations directly (no
signs in characteristic 2), independent of the cofactor recursion in
Minors, which minor_det and all_minors_gcd go through.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import P, data_path, poly_matrix, random_poly_matrix
from qcldpc import polymat
from qcldpc.analysis import girth
from qcldpc.binmat import RowEchelon, rank
from qcldpc.channel import encode
from qcldpc.construct import codeword_lemma2, generator_case1, generator_general, verify_generator
from qcldpc.gf2poly import BinaryPoly, RingModulus, bit_positions, gcd, transpose_poly
from qcldpc.gldpc import (
    GldpcSpec,
    assembled_parity,
    construct_generator,
    gshort_forms,
    load_spec,
    prelift_matrix,
    schur_reduce,
)
from qcldpc.polymat import (
    Minors,
    PolyMatrix,
    all_minors_gcd,
    circulant_expand,
    circulant_rows,
    expansion_rank,
    identity_matrix,
    index_set,
    matmul_mod,
    minor_det,
    read_pmx,
    row_edges,
    span_step,
    transpose_entrywise,
    write_pmx,
    zero_matrix,
)
from qcldpc.rank import rank_qc


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
        H = PolyMatrix([[P("1"), P("x")], [P("0"), P("1+x")]])
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
        H = PolyMatrix([[P("1"), P("x"), P("x^2")], [P("x^3"), P("x^4"), P("x^5")]])
        sub = H.submatrix([1], [0, 2])
        assert sub.rows == [[P("x^3"), P("x^5")]]


# Every job that works in GF(2)[x]/(x^N + 1), run on one matrix over plain GF(2)[x].
RING_JOBS = {
    "transpose_entrywise": transpose_entrywise,
    "circulant_expand": circulant_expand,
    "expansion_rank": expansion_rank,
    "row_edges": row_edges,
    "codeword_lemma2": lambda H: codeword_lemma2(H, (), (1,), P("1")),
    "generator_case1": generator_case1,
    "generator_general": generator_general,
    "verify_generator": lambda H: verify_generator(H, H),
    "GldpcSpec": lambda H: GldpcSpec(H, (None,)),
    "gshort_forms": gshort_forms,
    "prelift_matrix": lambda H: prelift_matrix(H, 1),
    "schur_reduce": lambda H: schur_reduce(H, (1,), (1,)),
    "rank_qc": rank_qc,
    "girth": girth,
    "encode": lambda G: encode(G, [P("1")]),
}


class TestRing:
    def test_ring_is_the_modulus(self):
        m = RingModulus(5)
        assert PolyMatrix([[P("x^6")]], m).ring is m

    def test_ring_for_a_given_modulus(self):
        # rank_qc and generator_general both take their ring from ring_for.
        m5, m7 = RingModulus(5), RingModulus(7)
        plain, over5 = PolyMatrix([[P("x^6")]]), PolyMatrix([[P("x^6")]], m5)
        assert plain.ring_for(m7) is m7
        assert over5.ring_for(m5) is m5 and over5.ring_for() is m5
        with pytest.raises(ValueError, match=r"^the matrix is over x\^5 \+ 1, not the given x\^7 \+ 1$"):
            over5.ring_for(m7)
        with pytest.raises(ValueError, match=r"^a ring modulus x\^N \+ 1 is required$"):
            plain.ring_for()

    @pytest.mark.parametrize("job", sorted(RING_JOBS))
    def test_a_plain_matrix_has_no_ring(self, job):
        # One message for every job: PolyMatrix.ring is the one check.
        plain = PolyMatrix([[P("1"), P("x"), P("1+x")]])
        with pytest.raises(ValueError, match=r"^a ring modulus x\^N \+ 1 is required$"):
            RING_JOBS[job](plain)


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

    def test_one_shared_minors_answers_queries_in_any_order(self):
        # A Minors keeps every minor it expands, sub-minors included, so
        # its answers must not depend on which queries came first.
        rng = random.Random(104)
        for _ in range(40):
            nrows, ncols, N = rng.randint(1, 4), rng.randint(1, 5), rng.randint(1, 5)
            H = poly_matrix(
                [[rng.choice((0, rng.getrandbits(N))) for _ in range(ncols)] for _ in range(nrows)],
                N,
            )
            minor = Minors(H)
            sizes = range(1, min(nrows, ncols) + 1)
            queries = [
                (T, S)
                for size in sizes
                for T in itertools.combinations(range(1, nrows + 1), size)
                for S in itertools.combinations(range(1, ncols + 1), size)
            ]
            rng.shuffle(queries)
            gammas = {size: P("0") for size in sizes}
            for T, S in queries:
                want = permutation_det(H.submatrix([i - 1 for i in T], [j - 1 for j in S]))
                assert minor(T, S) == want, (T, S)
                assert minor_det(H, T, S) == want
                if len(T) == nrows:
                    assert minor(None, S) == want
                gammas[len(T)] = gcd(gammas[len(T)], want)
            assert [all_minors_gcd(H, size) for size in sizes] == list(gammas.values())

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


@st.composite
def sparse_poly_matrices(draw):
    """1-4 x 1-6 matrices over N = 1..12, often with zero entries, a zero
    row, a zero column or a repeated column."""
    N = draw(st.integers(1, 12))
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.integers(0, (1 << N) - 1))
    rows = draw(st.lists(
        st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows
    ))
    if draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [0] * ncols
    if draw(st.booleans()):
        j = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[j] = 0
    if draw(st.booleans()):
        src, dst = draw(st.integers(0, ncols - 1)), draw(st.integers(0, ncols - 1))
        for row in rows:
            row[dst] = row[src]
    return PolyMatrix([[BinaryPoly(b) for b in row] for row in rows], RingModulus(N))


@st.composite
def unit_block_matrices(draw):
    """1-5 x 1-6 matrices over N = 1..21 for the unit-block elimination.

    Entries are zero, monomials (units), even-weight polynomials, odd-weight
    multiples of 1 + x + x^2 (non-units when 3 | N) or arbitrary. A later
    row may be a monomial times an earlier row plus one monomial, so the
    Schur update cancels its units or creates one; a zero row and a zero
    column may be set.
    """
    N = draw(st.integers(1, 21))
    m = RingModulus(N)
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    monomial = st.integers(0, N - 1).map(lambda e: 1 << e)
    word = st.integers(0, (1 << N) - 1)
    even = word.map(lambda b: b ^ (b.bit_count() & 1))
    odd_multiple = word.map(lambda b: m.reduce(BinaryPoly(b | 1) * BinaryPoly(0b111)).bits)
    entry = st.one_of(st.just(0), monomial, even, odd_multiple, word)
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    for k in range(1, nrows):
        if draw(st.booleans()):
            i, shift = draw(st.integers(0, k - 1)), draw(monomial)
            rows[k] = [m.mul(BinaryPoly(shift), BinaryPoly(b)).bits for b in rows[i]]
            if draw(st.booleans()):
                rows[k][draw(st.integers(0, ncols - 1))] ^= draw(monomial)
    if draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [0] * ncols
    if draw(st.booleans()):
        j = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[j] = 0
    return PolyMatrix([[BinaryPoly(b) for b in row] for row in rows], m)


def per_block_rotation(blocks, N):
    """Row r of the circulant rows, each block rotated left by r on its own."""
    mask = (1 << N) - 1
    return [
        sum((((b << r) | (b >> (N - r))) & mask) << (j * N) for j, b in enumerate(blocks))
        for r in range(N)
    ]


@st.composite
def block_rows(draw):
    """N = 1..12 and 0-6 blocks of N bits, often zero."""
    N = draw(st.integers(1, 12))
    entry = st.one_of(st.just(0), st.integers(0, (1 << N) - 1))
    return N, draw(st.lists(entry, max_size=6))


class TestCirculantRows:
    """The whole-row rotation against a rotation of each block on its own."""

    @settings(max_examples=200)
    @given(block_rows())
    def test_matches_per_block_rotation(self, case):
        N, blocks = case
        assert list(circulant_rows(blocks, N)) == per_block_rotation(blocks, N)

    @pytest.mark.parametrize(
        "N, blocks",
        [
            (1, [1, 0, 1]),
            (1, []),
            (2, [0b01, 0b10, 0b11, 0]),
            (2, [0, 0]),
            (5, [0, 0b10011, 0]),
        ],
    )
    def test_small_and_zero_blocks(self, N, blocks):
        rows = list(circulant_rows(blocks, N))
        assert len(rows) == N
        assert rows == per_block_rotation(blocks, N)


class CountingEchelon(RowEchelon):
    """A RowEchelon that counts its add calls."""

    __slots__ = ("adds",)

    def __init__(self):
        super().__init__()
        self.adds = 0

    def add(self, bits):
        self.adds += 1
        return super().add(bits)


@st.composite
def span_rows(draw):
    """N = 1..12 and 1-6 rows of 1-3 blocks, each row's blocks sharing a factor.

    The factor (1, 1 + x, 1 + x^2 or 1 + x + x^2) often divides x^N + 1,
    so a row's shifts span less than N; blocks are often zero, and a
    later row may be an earlier one shifted.
    """
    N = draw(st.integers(1, 12))
    m = RingModulus(N)
    width = draw(st.integers(1, 3))
    word = st.one_of(st.just(0), st.integers(0, (1 << N) - 1))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        if rows and draw(st.booleans()):
            shift = BinaryPoly(1 << draw(st.integers(0, N - 1)))
            earlier = draw(st.sampled_from(rows))
            rows.append([m.mul(shift, BinaryPoly(b)).bits for b in earlier])
            continue
        factor = BinaryPoly(draw(st.sampled_from([0b1, 0b11, 0b101, 0b111])))
        rows.append([m.mul(factor, BinaryPoly(draw(word))).bits for _ in range(width)])
    return N, rows


class TestSpanStep:
    """span_step against adding all N shifts of each row."""

    @settings(max_examples=400)
    @given(span_rows())
    def test_gain_equals_adding_every_shift(self, case):
        N, rows = case
        full, stepped = RowEchelon(), CountingEchelon()
        for blocks in rows:
            before = full.rank
            for bits in circulant_rows(blocks, N):
                full.add(bits)
            adds = stepped.adds
            gain = span_step(stepped, blocks, N)
            assert gain == full.rank - before
            assert stepped.adds - adds <= gain + 1
            assert stepped.rank == full.rank

    @pytest.mark.parametrize(
        "N, blocks, gain",
        [
            (4, [0, 0], 0),  # a zero row
            (1, [1], 1),
            (4, [0b11], 3),  # gcd(1 + x, x^4 + 1) = 1 + x
            (6, [0b101, 0], 4),  # gcd(1 + x^2, x^6 + 1) = 1 + x^2
            (7, [0b1011, 1], 7),
        ],
    )
    def test_stops_after_first_dependent_shift(self, N, blocks, gain):
        span = CountingEchelon()
        assert span_step(span, blocks, N) == span.rank == gain
        assert span.adds == min(gain + 1, N)


class TestExpansionRank:
    """expansion_rank against the scalar rank of the expansion in its own order."""

    @settings(max_examples=300)
    @given(sparse_poly_matrices())
    def test_matches_rank_of_expansion(self, H):
        assert expansion_rank(H) == rank(circulant_expand(H))

    @settings(max_examples=400)
    @given(unit_block_matrices())
    def test_unit_block_elimination_matches_rank_of_expansion(self, H):
        assert expansion_rank(H) == rank(circulant_expand(H))

    def test_hamming15_needs_no_scalar_rank(self, monkeypatch):
        # Every block row of hamming15's H and G pivots on a unit, so no
        # residual row is left to rank bit by bit. c2's H leaves some.
        spec = load_spec(data_path("hamming15.json"))
        H = assembled_parity(spec)
        G = construct_generator(spec).matrix
        residual = []
        monkeypatch.setattr(
            polymat, "span_step", lambda *args: residual.append(args) or span_step(*args)
        )
        assert (expansion_rank(H), expansion_rank(G)) == (1880, 3760)
        assert residual == []
        expansion_rank(assembled_parity(load_spec(data_path("c2.json"))))
        assert residual

    @pytest.mark.parametrize(
        "name, parity_rank, dimension",
        [
            ("n79", 316, 158),
            ("c1", 272, 204),
            ("c2", 404, 72),
            ("prelift90", 449, 91),
            ("prelift68", 340, 136),
            ("hamming15", 1880, 3760),
        ],
    )
    def test_bundled_parity_and_generator(self, name, parity_rank, dimension):
        spec = load_spec(data_path(f"{name}.json"))
        H = assembled_parity(spec)
        G = construct_generator(spec).matrix
        assert expansion_rank(H) == rank(circulant_expand(H)) == parity_rank
        assert expansion_rank(G) == rank(circulant_expand(G)) == dimension

    def test_modulus_required(self):
        with pytest.raises(ValueError):
            expansion_rank(PolyMatrix([[P("1")]]))


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

    @pytest.mark.parametrize("zeros", ["A", "B", "both"])
    @pytest.mark.parametrize("N", [None, 7, 64])
    def test_equals_sum_of_entrywise_products(self, zeros, N):
        # The entrywise sum, as matmul_mod took it one BinaryPoly per term.
        rng = random.Random(f"{zeros} {N}")
        modulus = RingModulus(N) if N else None
        width = N or 40

        def factor(nrows, ncols, blank):
            rows = [
                [BinaryPoly(0 if blank and rng.random() < 0.4 else rng.getrandbits(2 * width))
                 for _ in range(ncols)]
                for _ in range(nrows)
            ]
            if blank:
                rows[0][0] = BinaryPoly(0)
            return PolyMatrix(rows, modulus)

        for _ in range(5):
            A = factor(3, 4, zeros in ("A", "both"))
            B = factor(4, 5, zeros in ("B", "both"))
            want = []
            for i in range(A.nrows):
                row = []
                for j in range(B.ncols):
                    acc = BinaryPoly(0)
                    for k in range(A.ncols):
                        acc = acc + A.rows[i][k] * B.rows[k][j]
                    row.append(acc)
                want.append(row)
            assert matmul_mod(A, B) == PolyMatrix(want, modulus)


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

    def test_pmx_over_a_ring_checks_sizes_before_any_term(self, tmp_path):
        # The widest row counts; the bad term is never reached.
        path = tmp_path / "wide.pmx"
        path.write_text("1\n1;x;x^zz\n")
        with pytest.raises(ValueError) as exc:
            read_pmx(path, RingModulus(10_000))
        assert str(exc.value) == (
            "binary expansion 20000 x 30000 exceeds the bound of 268435456 bits"
        )
        with pytest.raises(ValueError, match="bad polynomial term: 'x\\^zz'"):
            read_pmx(path, RingModulus(100))

    def test_pmx_empty_file(self, tmp_path):
        path = tmp_path / "e.pmx"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError):
            read_pmx(path)


class TestRowEdges:
    """The Tanner edge map against the expansion and a pinned formula."""

    def test_rows_list_the_set_bits_of_the_expansion(self):
        rng = random.Random(14)
        for _ in range(60):
            N = rng.randint(1, 9)
            multi = (1 << N) - 1 if N > 1 else 1  # all N terms
            entries = [0, 1 << rng.randrange(N), multi]
            ncols = rng.randint(1, 4)
            bits = [
                [rng.choice(entries + [rng.getrandbits(N)]) for _ in range(ncols)]
                for _ in range(rng.randint(1, 3))
            ]
            H = poly_matrix(bits, N)
            Hb = circulant_expand(H)
            for i, idx in enumerate(row_edges(H)):
                assert idx.shape == (N, sum(p.weight() for p in H.rows[i]))
                for r in range(N):
                    assert sorted(idx[r].tolist()) == bit_positions(Hb.rows[i * N + r])

    @pytest.mark.parametrize(
        "name", ["c1", "c2", "n79", "hamming15", "prelift68", "prelift90"]
    )
    def test_bundled_specs_match_the_term_formula(self, name):
        # Term x^e of entry (i, j) gives column j*N + (r - e) mod N in row r,
        # terms in column order, then exponent order.
        H = load_spec(data_path(f"{name}.json")).effective_matrix()
        N = H.modulus.N
        edges = row_edges(H)
        assert len(edges) == H.nrows
        for i, idx in enumerate(edges):
            terms = [(j, e) for j, p in enumerate(H.rows[i]) for e in p.exponents()]
            want = np.array([[j * N + (r - e) % N for j, e in terms] for r in range(N)])
            assert idx.dtype.kind == "i" and np.array_equal(idx, want)
