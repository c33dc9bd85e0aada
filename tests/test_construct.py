"""Codeword rows from minors and generator synthesis.

Two display senses show up in the anchors here: generator rows are
compared directly (they live in the transposed sense the verifier
uses), while single-codeword tuples for the 1 x 4 example are compared
through plain_display.  conftest.py explains the distinction.

The synthesis oracle below is the greedy build that probes every
candidate's gain before each lemma-2 commit.
"""

import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import P, data_path, plain_display, poly_matrix, random_poly_matrix
from qcldpc.binmat import RowEchelon
from qcldpc.binmat import rank as rank_scalar
from qcldpc.construct import (
    GeneratorResult,
    Incomplete,
    RowOrigin,
    codeword_lemma1,
    codeword_lemma1_reduced,
    codeword_lemma2,
    generator_case1,
    generator_general,
    verify_generator,
)
from qcldpc.gf2poly import BinaryPoly, NotInvertible, RingModulus, gcd, transpose_poly
from qcldpc.gldpc import (
    assembled_parity,
    construct_generator,
    load_spec,
    reduce_spec,
    schur_recompose,
    schur_reduce,
)
from qcldpc.polymat import (
    PolyMatrix,
    circulant_expand,
    circulant_rows,
    identity_matrix,
    matmul_mod,
    minor_det,
    read_pmx,
    transpose_entrywise,
    zero_matrix,
)
from qcldpc.rank import rank_qc


def ring_poly(N):
    return BinaryPoly((1 << N) | 1)


class TestLemma1:
    def test_weight_four_row(self, ar4ja):
        row = codeword_lemma1(ar4ja, (1, 2, 4, 5))
        assert row == [P("0"), P("1+x"), P("0"), P("1+x"), P("0")]

    def test_two_column_toy(self):
        H = PolyMatrix([[P("1"), P("x")]], RingModulus(5))
        assert codeword_lemma1(H, (1, 2)) == [P("x^4"), P("1")]

    def test_rows_satisfy_parity(self):
        rng = random.Random(301)
        hits = 0
        while hits < 15:
            H = random_poly_matrix(rng, 2, 4, rng.randint(2, 7))
            S = (1, 2, 3)
            row = codeword_lemma1(H, S)
            if all(p.is_zero() for p in row):
                continue
            hits += 1
            G = PolyMatrix([row], H.modulus)
            prod = matmul_mod(G, transpose_entrywise(H))
            assert all(p.is_zero() for p in prod.rows[0])

    def test_selection_size_enforced(self, ar4ja):
        with pytest.raises(ValueError):
            codeword_lemma1(ar4ja, (1, 2, 3))

    def test_reduced_strips_common_divisor(self):
        H = PolyMatrix([[P("1+x"), P("1+x^2")]], RingModulus(7))
        row, a = codeword_lemma1_reduced(H, (1, 2))
        assert a == P("1+x")
        assert plain_display(row, H.modulus) == (P("1+x"), P("1"))

    def test_reduced_rejects_all_zero(self):
        H = PolyMatrix([[P("0"), P("0")]], RingModulus(4))
        with pytest.raises(ValueError):
            codeword_lemma1_reduced(H, (1, 2))


class TestLemma2:
    def test_invalid_f_returns_none(self):
        H = PolyMatrix([[P("1+x"), P("1+x^2")]], RingModulus(7))
        assert codeword_lemma2(H, (), (1,), P("1")) is None

    def test_annihilator_row(self):
        N = 7
        H = PolyMatrix([[P("1+x"), P("1+x^2")]], RingModulus(N))
        f = ring_poly(N) // gcd(P("1+x"), ring_poly(N))
        row = codeword_lemma2(H, (), (1,), f)
        assert row is not None
        assert plain_display(row, H.modulus) == (H.modulus.reduce(f), P("0"))

    def test_sizes_enforced(self, ar4ja):
        with pytest.raises(ValueError):
            codeword_lemma2(ar4ja, (1,), (1, 2, 3), P("1"))


class TestCase1Generator:
    def test_matches_known_rows(self, ar4ja):
        result, standard = generator_case1(ar4ja)
        assert result.matrix.rows == [
            [P("1+x+x^2+x^3"), P("x"), P("0"), P("1+x^2+x^3"), P("0")],
            [P("1+x^2+x^3"), P("1+x+x^2+x^3"), P("1+x"), P("0"), P("1+x^2+x^3")],
        ]
        assert result.rank == 8
        assert result.complete
        assert verify_generator(ar4ja, result.matrix, dimension=8)

    def test_standard_form_has_identity_part(self, ar4ja):
        _, standard = generator_case1(ar4ja)
        assert standard.entry(0, 3) == P("1")
        assert standard.entry(0, 4) == P("0")
        assert standard.entry(1, 3) == P("0")
        assert standard.entry(1, 4) == P("1")
        assert verify_generator(ar4ja, standard, dimension=8)

    def test_non_invertible_selection(self, ar4ja):
        with pytest.raises(NotInvertible):
            generator_case1(ar4ja, (1, 2, 4))

    def test_toy_row(self):
        H = PolyMatrix([[P("1"), P("x")]], RingModulus(5))
        result, standard = generator_case1(H, (1,))
        assert result.matrix.rows == [[P("x^4"), P("1")]]
        assert standard.rows == [[P("x^4"), P("1")]]

    def test_square_matrix_has_no_generator(self):
        H = PolyMatrix([[P("1")]], RingModulus(3))
        for build in (generator_case1, generator_general):
            with pytest.raises(ValueError, match="dimension 0"):
                build(H)

    @pytest.mark.parametrize("seed", range(12))
    def test_unit_minor_builds_as_the_tracker_would(self, monkeypatch, seed):
        # With a unit minor both builds claim the rank (n - n_c)N without
        # tracking it, and match an admit loop that tracks the rank of
        # every circulant row.
        H, S = seeded_unit_minor_matrix(seed)
        m = H.modulus
        dimension = rank_qc(H).dimension
        assert dimension == (H.ncols - H.nrows) * m.N
        want_case1 = _build_probing_all(H, m, dimension, S, False)
        want_general = probe_every_candidate(H)
        with monkeypatch.context() as patch:
            forbid_minor_ranks(patch)
            case1, _ = generator_case1(H, S)
            general = generator_general(H)
            for got, want in ((case1, want_case1), (general, want_general)):
                assert got == want
                assert got.complete
                assert got.target_dimension == (
                    H.ncols * m.N - rank_scalar(circulant_expand(H))
                )
                assert got.rank == rank_scalar(circulant_expand(got.matrix))
                assert verify_generator(H, got.matrix)


class TestConstructionDimension:
    def test_constructions_never_enumerate_minors(self, monkeypatch):
        # Every construction takes its dimension from expansion_rank; the
        # minor enumeration only serves the rank report.
        specs = {name: load_spec(data_path(name)) for name in SPEC_FILES}
        ar4ja_4 = read_pmx(data_path("ar4ja.pmx"), RingModulus(4))
        with monkeypatch.context() as patch:
            forbid_minor_ranks(patch)
            for name, spec in specs.items():
                result = construct_generator(spec)
                assert result.complete, name
                assert verify_generator(assembled_parity(spec), result.matrix), name
            for name in ("c2.json", "prelift90.json"):
                H_short, _, _ = reduce_spec(specs[name])
                result = generator_general(H_short)
                assert verify_generator(H_short, result.matrix), name
            result, standard = generator_case1(ar4ja_4)
            assert result.complete
            assert verify_generator(ar4ja_4, standard)


SPEC_FILES = (
    "c1.json", "c2.json", "hamming15.json", "n79.json", "prelift68.json", "prelift90.json",
)


def forbid_minor_ranks(patch):
    """Make every qcldpc binding of rank_qc and all_minors_gcd raise."""
    for module_name, module in list(sys.modules.items()):
        if module_name != "qcldpc" and not module_name.startswith("qcldpc."):
            continue
        for name in ("rank_qc", "all_minors_gcd"):
            if hasattr(module, name):
                patch.setattr(module, name, _forbidden(name))


def _forbidden(name):
    def call(*args, **kwargs):
        raise AssertionError(f"{name} called on a construction path")

    return call


def seeded_unit_minor_matrix(seed):
    """(H, S): a seeded 1-3 row matrix whose column set S has a unit minor.

    Entries mix zeros, monomials and arbitrary words over N in 3..12,
    with 1-3 columns beyond the rows; S is the first such column set.
    """
    rng = random.Random(seed)
    while True:
        N = rng.randint(3, 12)
        nrows = rng.randint(1, 3)
        ncols = nrows + rng.randint(1, 3)
        H = poly_matrix(
            [
                [rng.choice([0, 1 << rng.randrange(N), rng.getrandbits(N)]) for _ in range(ncols)]
                for _ in range(nrows)
            ],
            N,
        )
        for S in combinations(range(1, ncols + 1), nrows):
            if gcd(minor_det(H, None, S), H.modulus.poly).bits == 1:
                return H, S


# The 1 x 4 worked example: h = (1+x, 1+x^2, (1+x)(1+x^3), 1+x^3).
EXAMPLE_ROW = [P("1+x"), P("1+x^2"), P("1+x+x^3+x^4"), P("1+x^3")]

PAIR_CODEWORDS = {
    (1, 2): ((P("1+x^2"), P("1+x"), P("0"), P("0")),
             (P("1+x"), P("1"), P("0"), P("0"))),
    (1, 3): ((P("1+x+x^3+x^4"), P("0"), P("1+x"), P("0")),
             (P("1+x^3"), P("0"), P("1"), P("0"))),
    (1, 4): ((P("1+x^3"), P("0"), P("0"), P("1+x")),
             (P("1+x+x^2"), P("0"), P("0"), P("1"))),
    (2, 3): ((P("0"), P("1+x+x^3+x^4"), P("1+x^2"), P("0")),
             (P("0"), P("1+x+x^2"), P("1"), P("0"))),
    (2, 4): ((P("0"), P("1+x^3"), P("0"), P("1+x^2")),
             (P("0"), P("1+x+x^2"), P("0"), P("1+x"))),
    (3, 4): ((P("0"), P("0"), P("1+x^3"), P("1+x+x^3+x^4")),
             (P("0"), P("0"), P("1"), P("1+x"))),
}


def example_matrix(N):
    return PolyMatrix([EXAMPLE_ROW], RingModulus(N))


def annihilators(N):
    ring = ring_poly(N)
    return [ring // gcd(h, ring) for h in EXAMPLE_ROW]


@pytest.mark.parametrize("N", [7, 8, 10])
class TestSingleRowExample:
    def test_pair_codewords(self, N):
        H = example_matrix(N)
        got = set()
        for pair in PAIR_CODEWORDS:
            got.add(plain_display(codeword_lemma1(H, pair), H.modulus))
            row, _ = codeword_lemma1_reduced(H, pair)
            got.add(plain_display(row, H.modulus))
        want = {
            tuple(H.modulus.reduce(p) for p in tup)
            for variants in PAIR_CODEWORDS.values()
            for tup in variants
        }
        assert got == want
        assert len(want) == 12

    def test_annihilator_rows(self, N):
        H = example_matrix(N)
        ring = ring_poly(N)
        for i, f in enumerate(annihilators(N), start=1):
            assert f * gcd(EXAMPLE_ROW[i - 1], ring) == ring
            row = codeword_lemma2(H, (), (i,), f)
            assert row is not None
            disp = plain_display(row, H.modulus)
            assert disp[i - 1] == H.modulus.reduce(f)
            assert all(p.is_zero() for j, p in enumerate(disp) if j != i - 1)

    def test_seven_row_generator(self, N):
        # Three undivided pair codewords plus all four annihilator rows.
        # At even N every one of these rows has even coordinate sums
        # (the annihilators pick up an extra 1+x factor), while the code
        # contains odd-parity words, so the undivided family can only
        # span the full kernel when N is odd.
        m = RingModulus(N)
        f = annihilators(N)
        rows = [PAIR_CODEWORDS[p][0] for p in ((1, 2), (1, 3), (1, 4))]
        for i in range(4):
            unit = [P("0")] * 4
            unit[i] = f[i]
            rows.append(tuple(unit))
        G = PolyMatrix([[transpose_poly(p, m) for p in r] for r in rows], m)
        H = example_matrix(N)
        prod = matmul_mod(G, transpose_entrywise(H))
        assert all(p.is_zero() for row in prod.rows for p in row)
        assert verify_generator(H, G, dimension=3 * N + 1) == (N % 2 == 1)

    def test_four_row_generator(self, N):
        # Three divided pair codewords sharing column 1, plus one
        # annihilator row for that column.
        m = RingModulus(N)
        rows = [PAIR_CODEWORDS[p][1] for p in ((1, 2), (1, 3), (1, 4))]
        rows.append((annihilators(N)[0], P("0"), P("0"), P("0")))
        G = PolyMatrix([[transpose_poly(p, m) for p in r] for r in rows], m)
        H = example_matrix(N)
        assert verify_generator(H, G, dimension=3 * N + 1)
        weights = [sum(p.weight() for p in r) for r in rows]
        assert min(weights) == 3

    def test_greedy_synthesis_completes(self, N):
        H = example_matrix(N)
        result = generator_general(H)
        assert result.complete
        assert result.rank == 3 * N + 1
        assert verify_generator(H, result.matrix, dimension=3 * N + 1)
        kinds = {o.kind for o in result.row_provenance}
        if N % 2 == 1:
            # Undivided rows suffice; no divided fallback taken.
            assert "lemma1_reduced" not in kinds
        else:
            assert "lemma1_reduced" in kinds


class TestGeneralSynthesis:
    def test_full_rank_case(self, ar4ja):
        result = generator_general(ar4ja)
        assert result.complete
        assert result.rank == 8
        assert verify_generator(ar4ja, result.matrix, dimension=8)

    def test_modulus_rebind(self, ex1):
        result = generator_general(ex1, modulus=RingModulus(45))
        assert result.complete
        assert result.rank == 93
        H45 = PolyMatrix(ex1.rows, RingModulus(45))
        assert verify_generator(H45, result.matrix, dimension=93)

    def test_incomplete_carries_partial(self):
        m = RingModulus(2)
        H = PolyMatrix([[P("1+x"), P("1+x")], [P("1+x"), P("1+x")]], m)
        with pytest.raises(Incomplete) as exc:
            generator_general(H)
        partial = exc.value.partial
        assert partial.rank == 2
        assert partial.target_dimension == 3
        assert not partial.complete

    def test_dimension_zero_rejected(self):
        H = identity_matrix(2, RingModulus(3))
        with pytest.raises(ValueError):
            generator_general(H)

    def test_provenance_recorded(self, ar4ja):
        result = generator_general(ar4ja)
        kinds = {o.kind for o in result.row_provenance}
        assert kinds <= {"lemma1", "lemma1_reduced", "lemma2"}
        assert len(result.row_provenance) == result.matrix.nrows
        d = result.to_dict()
        assert d["rank"] == 8
        assert d["complete"] is True


def probe_every_candidate(H):
    """generator_general with every lemma-2 candidate probed before each commit."""
    m = H.modulus
    target = rank_qc(H, m).dimension
    every_row = tuple(range(1, H.nrows + 1))
    S_best, best_deg = None, None
    for S in combinations(range(1, H.ncols + 1), H.nrows):
        delta = minor_det(H, every_row, S)
        if delta.is_zero():
            continue
        deg = gcd(delta, m.poly).degree
        if best_deg is None or deg < best_deg:
            S_best, best_deg = S, deg
            if deg == 0:
                break
    results = [_build_probing_all(H, m, target, S_best, r) for r in (False, True)]
    for result in results:
        if result.complete:
            return result
    best = max(results, key=lambda r: r.rank)
    raise Incomplete(f"reached rank {best.rank} of {target}; minor-based rows exhausted", best)


def _build_probing_all(H, m, target, S_best, reduce_rows):
    if target == 0:
        raise ValueError("code has dimension 0; no generator exists")
    tracker = RowEchelon()
    rows, provenance = [], []

    def admit(row, origin):
        grew = False
        for bits in circulant_rows([p.bits for p in row], m.N):
            grew = tracker.add(bits) or grew
        if grew:
            rows.append(row)
            provenance.append(origin)
        return tracker.rank >= target

    done = False
    lemma1_columns = range(1, H.ncols + 1) if S_best is not None else ()
    for c in lemma1_columns:
        if done or c in S_best:
            continue
        Sc = tuple(sorted(S_best + (c,)))
        if reduce_rows:
            try:
                row, a = codeword_lemma1_reduced(H, Sc)
            except ValueError:
                continue
            done = admit(row, RowOrigin("lemma1_reduced", S=Sc, a=a))
        else:
            done = admit(codeword_lemma1(H, Sc), RowOrigin("lemma1", S=Sc))
    for s in range(H.nrows - 1, -1, -1):
        if done:
            break
        candidates = []
        for T in combinations(range(1, H.nrows + 1), s):
            for S in combinations(range(1, H.ncols + 1), s + 1):
                g = BinaryPoly(0)
                for j in range(1, H.nrows + 1):
                    if j not in T:
                        g = gcd(g, minor_det(H, tuple(sorted(T + (j,))), S))
                g_ring = gcd(g, m.poly)
                f = m.poly // g_ring if not g_ring.is_zero() else BinaryPoly(1)
                row = codeword_lemma2(H, T, S, f)
                if row is not None and not all(p.is_zero() for p in row):
                    candidates.append((row, RowOrigin("lemma2", S=S, T=T, f=f)))
        while candidates and not done:
            gains = []
            for row, _ in candidates:
                probe = tracker.copy()
                for bits in circulant_rows([p.bits for p in row], m.N):
                    probe.add(bits)
                gains.append(probe.rank - tracker.rank)
            best = max(range(len(candidates)), key=lambda i: gains[i])
            if gains[best] == 0:
                break
            done = admit(*candidates.pop(best))
    if not rows:
        rows = [[BinaryPoly(0)] * H.ncols]
        provenance = [RowOrigin("lemma2", f=BinaryPoly(0))]
    return GeneratorResult(PolyMatrix(rows, m), provenance, tracker.rank, target)


@st.composite
def synthesis_matrices(draw):
    """1-3 x (rows+1)-(rows+3) matrices over N = 1..9, entries often zero."""
    N = draw(st.integers(1, 9))
    nrows = draw(st.integers(1, 3))
    ncols = draw(st.integers(nrows + 1, nrows + 3))
    entry = st.one_of(st.just(0), st.integers(0, (1 << N) - 1))
    rows = draw(st.lists(
        st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows
    ))
    return poly_matrix(rows, N)


def synthesis_outcome(build, H):
    """(kind, rows, provenance, rank, target) of a build, or its error."""
    try:
        result, kind = build(H), "complete"
    except Incomplete as exc:
        result, kind = exc.partial, f"incomplete: {exc}"
    except ValueError as exc:
        return (f"error: {exc}",)
    provenance = [o.to_dict() for o in result.row_provenance]
    return kind, result.matrix, provenance, result.rank, result.target_dimension


class TestSynthesisOracle:
    @settings(max_examples=150, deadline=None)
    @given(synthesis_matrices())
    def test_matches_probing_every_candidate(self, H):
        want = synthesis_outcome(probe_every_candidate, H)
        assert synthesis_outcome(generator_general, H) == want

    @pytest.mark.parametrize("N", [44, 45, 46])
    def test_ex1_matches_probing_every_candidate(self, ex1, N):
        H = PolyMatrix(ex1.rows, RingModulus(N))
        want = synthesis_outcome(probe_every_candidate, H)
        assert synthesis_outcome(generator_general, H) == want

    def test_incomplete_partial_matches(self):
        H = poly_matrix([[0b11, 0b11], [0b11, 0b11]], 2)
        want = synthesis_outcome(probe_every_candidate, H)
        assert want[0].startswith("incomplete")
        assert synthesis_outcome(generator_general, H) == want


def shorten_compose(G, A):
    """Extend short-code rows G across the identity columns of [[H, 0], [A, I]]."""
    ident = identity_matrix(A.nrows, A.modulus)
    H = PolyMatrix([a + i for a, i in zip(A.rows, ident.rows)], A.modulus)
    pivot_cols = range(A.ncols + 1, H.ncols + 1)
    _, T, meta = schur_reduce(H, range(1, A.nrows + 1), pivot_cols)
    return schur_recompose(G, T, meta, H.ncols)


class TestCompositionAndVerify:
    def test_shorten_compose_blocks(self):
        # The link matrix has one row per appended block and one column
        # per original column.
        m = RingModulus(5)
        G = PolyMatrix([[P("1"), P("x")]], m)
        A = PolyMatrix([[P("x^2"), P("0")]], m)
        ext = shorten_compose(G, A)
        assert ext.shape == (1, 3)
        assert ext.rows[0][:2] == [P("1"), P("x")]
        assert ext.rows[0][2] == transpose_poly(P("x^2"), m)

    def test_compose_with_zero_link(self):
        m = RingModulus(4)
        G = PolyMatrix([[P("1+x"), P("1")]], m)
        A = zero_matrix(2, 2, m)
        ext = shorten_compose(G, A)
        assert ext.rows[0][2:] == [P("0"), P("0")]

    def test_compose_preserves_rank(self):
        rng = random.Random(302)
        for _ in range(10):
            N = rng.randint(2, 6)
            G = random_poly_matrix(rng, 2, 3, N)
            A = random_poly_matrix(rng, 2, 3, N)
            A = PolyMatrix(A.rows, G.modulus)
            ext = shorten_compose(G, A)
            assert rank_scalar(circulant_expand(ext)) == rank_scalar(circulant_expand(G))

    def test_verify_rejects_wrong_matrix(self, ar4ja):
        bad = identity_matrix(5, ar4ja.modulus)
        assert not verify_generator(ar4ja, bad)

    def test_verify_checks_dimension(self, ar4ja):
        result, _ = generator_case1(ar4ja)
        assert verify_generator(ar4ja, result.matrix, dimension=8)
        assert not verify_generator(ar4ja, result.matrix, dimension=9)

    def test_min_row_weight(self, ar4ja):
        # Row weights are 4+1+3 = 8 and 3+4+2+3 = 12.
        result, _ = generator_case1(ar4ja)
        assert result.min_row_weight() == 8
