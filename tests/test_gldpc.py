"""Generalized constraint assembly, identity elimination, and pre-lifting.

Worked values for the bundled specs (n79, c1, c2, prelift90, prelift68) are
frozen here after hand-derivation; display-sense conversions follow the
conventions in conftest.py.  The short-matrix eliminations (reduce_spec,
or schur_reduce on a hand-built stack) are checked both against frozen
rows and against scalar rank on the binary expansions.
"""

import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    P,
    data_path,
    hamming64,
    hamming74,
    in_kernel,
    permuted74,
    plain_display,
    random_poly_matrix,
    row_bits,
)
from qcldpc import construct, gldpc, polymat
from qcldpc.analysis import girth
from qcldpc.binmat import rank as rank_scalar
from qcldpc.construct import Incomplete, generator_general, verify_generator
from qcldpc.gf2poly import (
    BinaryPoly,
    NotInvertible,
    RingModulus,
    gcd,
    transpose_poly,
)
from qcldpc.gldpc import (
    ComponentCode,
    GldpcSpec,
    assembled_parity,
    base_from_exponents,
    construct_generator,
    design_rate,
    expand_binary,
    gshort_forms,
    load_spec,
    prelift_entry,
    prelift_matrix,
    reduce_spec,
    save_spec,
    schur_recompose,
    schur_reduce,
)
from qcldpc.polymat import (
    PolyMatrix,
    circulant_expand,
    matmul_mod,
    minor_det,
    transpose_entrywise,
)
from qcldpc.rank import rank_qc


def load(name):
    return load_spec(data_path(name))


def t(p, modulus):
    return transpose_poly(modulus.reduce(p), modulus)


def texts(row):
    return [p.to_text() for p in row]


def scaled_rows(row, comp):
    """Component rows on a full-support base row, entrywise scaled.

    Builds stacks that GldpcSpec would reject (design rate 0), so their
    eliminations can still be checked through schur_reduce.
    """
    return [
        [p if bit else BinaryPoly(0) for p, bit in zip(row, bits)]
        for bits in comp.parity
    ]


FRONT_IDENTITY64 = ComponentCode(
    [[1, 0, 0, 1, 1, 0], [0, 1, 0, 1, 0, 1], [0, 0, 1, 0, 1, 1]],
    identity_start=0,
)


@pytest.fixture(scope="module")
def n79():
    return load("n79.json")


@pytest.fixture(scope="module")
def c1():
    return load("c1.json")


@pytest.fixture(scope="module")
def c2():
    return load("c2.json")


@pytest.fixture(scope="module")
def prelift90():
    return load("prelift90.json")


@pytest.fixture(scope="module")
def prelift68():
    return load("prelift68.json")


class TestComponentCode:
    def test_spc_constructor(self):
        c = ComponentCode.spc(6)
        assert c.parity == ((1,) * 6,) and c.p == 1 and c.q == 6
        assert c.identity_start == 5
        assert c.identity_start == 5

    def test_identity_detected_on_right(self):
        c = hamming64()
        assert c.identity_start == 3

    def test_identity_elsewhere_has_no_split(self):
        c = permuted74()
        assert c.identity_start == 0

    def test_explicit_identity_start_is_checked(self):
        with pytest.raises(ValueError):
            ComponentCode([[1, 1, 0], [1, 0, 1]], identity_start=0)
        assert ComponentCode([[1, 1, 0], [1, 0, 1]], identity_start=1).identity_start == 1

    def test_rejects_ragged_and_nonbinary(self):
        with pytest.raises(ValueError):
            ComponentCode([[1, 0], [1]])
        with pytest.raises(ValueError):
            ComponentCode([[1, 2, 0]])

    def test_dict_round_trip(self):
        for c in (hamming64(), hamming74(), permuted74(), ComponentCode.spc(4)):
            assert ComponentCode.from_dict(c.to_dict()) == c

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_identity_detection_matches_a_scan(self, data):
        """The rightmost identity block, and every explicit start, as an
        entry-by-entry scan finds them; string rows read as int rows."""
        p = data.draw(st.integers(1, 4))
        q = data.draw(st.integers(p, 9))
        rows = data.draw(st.lists(
            st.lists(st.integers(0, 1), min_size=q, max_size=q), min_size=p, max_size=p
        ))
        if data.draw(st.booleans()):  # plant a block, so that one is found
            start = data.draw(st.integers(0, q - p))
            for r, row in enumerate(rows):
                row[start : start + p] = [int(r == c) for c in range(p)]
        comp = ComponentCode(rows)
        assert comp.identity_start == identity_by_scan(rows)
        assert ComponentCode(["".join(map(str, row)) for row in rows]) == comp
        for start in range(-2, q + 2):
            if identity_at_by_scan(rows, start):
                assert ComponentCode(rows, start).identity_start == start
            else:
                with pytest.raises(ValueError) as exc:
                    ComponentCode(rows, start)
                assert str(exc.value) == f"columns {start}.. do not form an identity"

    @pytest.mark.parametrize(
        "parity,start,message",
        [
            ([[1, 0], [1]], None, "parity must be a nonempty rectangular matrix"),
            (["10", "1"], None, "parity must be a nonempty rectangular matrix"),
            ([], None, "parity must be a nonempty rectangular matrix"),
            ([[1, 2, 0]], None, "parity entries must be 0 or 1"),
            ([[1, 1, 0], [0, 1, -1]], None, "parity entries must be 0 or 1"),
            ([[1, 1, 0], [1, 0, 1]], 0, "columns 0.. do not form an identity"),
            ([[1, 1, 0], [1, 0, 1]], 2, "columns 2.. do not form an identity"),
            ([[1, 1, 0], [1, 0, 1]], -1, "columns -1.. do not form an identity"),
        ],
    )
    def test_rejections_keep_their_messages(self, parity, start, message):
        with pytest.raises(ValueError) as exc:
            ComponentCode(parity, start)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "d,message",
        [
            ({"parity": ["10", "1"]}, "parity must be a nonempty rectangular matrix"),
            ({"parity": []}, "parity must be a nonempty rectangular matrix"),
            ({"parity": ["102"]}, "a component needs 'parity', a list of 0/1 strings"),
            ({"parity": [[1, 0]]}, "a component needs 'parity', a list of 0/1 strings"),
            ({"parity": ["110", "101"], "identity_start": 0}, "columns 0.. do not form an identity"),
            ({"parity": ["10"], "identity_start": "0"}, "identity_start must be an integer, got '0'"),
        ],
    )
    def test_dict_rejections_keep_their_messages(self, d, message):
        with pytest.raises(ValueError) as exc:
            ComponentCode.from_dict(d)
        assert str(exc.value) == message


def identity_at_by_scan(rows, start):
    """Columns start.. of rows hold the identity, checked entry by entry."""
    p, q = len(rows), len(rows[0])
    if start < 0 or start + p > q:
        return False
    return all(rows[r][start + c] == (1 if r == c else 0) for r in range(p) for c in range(p))


def identity_by_scan(rows):
    """The rightmost start of an identity block, or None."""
    p, q = len(rows), len(rows[0])
    return next((s for s in range(q - p, -1, -1) if identity_at_by_scan(rows, s)), None)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-50, 50) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)

# Spec-shaped objects whose fields may each be malformed, so the checks
# past the first key are reached as well.
SPEC_LIKE = st.fixed_dictionaries(
    {
        "N": st.integers(-2, 12) | JSON_VALUES,
        "exponents": st.lists(st.integers(-20, 20), max_size=5) | JSON_VALUES,
        "assignment": st.lists(
            st.none()
            | st.fixed_dictionaries(
                {"parity": st.lists(st.text("01", max_size=6), max_size=3) | JSON_VALUES},
                optional={"identity_start": st.integers(-2, 6) | JSON_VALUES},
            )
            | JSON_VALUES,
            max_size=4,
        )
        | JSON_VALUES,
    },
    optional={"N1": st.integers(-2, 6) | JSON_VALUES},
)


class TestSpecAndRate:
    def test_base_from_exponents(self):
        m = RingModulus(5)
        base = base_from_exponents([0, 3, 7], m)
        assert texts(base.rows[0]) == ["1", "1", "1"]
        assert texts(base.rows[1]) == ["1", "x^3", "x^2"]

    def test_negative_exponent_folds(self):
        m = RingModulus(376)
        base = base_from_exponents([0, -100], m)
        assert base.entry(1, 1) == P("x^276")

    @pytest.mark.parametrize(
        "name,rate",
        [
            ("n79.json", Fraction(1, 3)),
            ("c1.json", Fraction(3, 7)),
            ("c2.json", Fraction(1, 7)),
            ("prelift90.json", Fraction(1, 6)),
            ("prelift68.json", Fraction(2, 7)),
            ("hamming15.json", Fraction(2, 3)),
        ],
    )
    def test_design_rates(self, name, rate):
        assert design_rate(load(name)) == rate

    def test_all_spc_rate(self):
        base = base_from_exponents([0, 1, 3, 4, 5, 9], RingModulus(13))
        spec = GldpcSpec(base, (None, None))
        assert design_rate(spec) == Fraction(2, 3)

    def test_assignment_length_checked(self):
        base = base_from_exponents([0, 1, 3], RingModulus(7))
        with pytest.raises(ValueError, match="assignment length"):
            GldpcSpec(base, (None,))

    def test_component_width_checked(self):
        base = base_from_exponents([0, 1, 3], RingModulus(7))
        with pytest.raises(ValueError, match="component length"):
            GldpcSpec(base, (hamming64(), None))

    def test_generalized_row_with_a_multi_term_entry_rejected(self):
        # JSON bases are monomial; a base built in Python need not be. A
        # component would scale its parity rows by x + x^2 here.
        m = RingModulus(7)
        rows = base_from_exponents(range(7), m).rows
        rows[1][1] = P("x+x^2")
        base = PolyMatrix(rows, m)
        assert GldpcSpec(base, (hamming74(), None)).assignment[1] is None
        with pytest.raises(ValueError, match="^generalized rows must have monomial entries$"):
            GldpcSpec(base, (None, hamming74()))

    def test_degenerate_rate_rejected(self):
        base = base_from_exponents([0, 1, 3], RingModulus(7))
        comp = ComponentCode([[1, 1, 0], [0, 1, 1]], identity_start=None)
        with pytest.raises(ValueError, match="design rate"):
            GldpcSpec(base, (comp, comp))

    def test_json_round_trip(self, c2, prelift90):
        for spec in (c2, prelift90):
            again = GldpcSpec.from_json_dict(spec.to_json_dict())
            assert again == spec

    def test_alternative_form_rejected(self, c2):
        d = c2.to_json_dict()
        d["alternative_form"] = True
        with pytest.raises(ValueError, match="alternative_form"):
            GldpcSpec.from_json_dict(d)

    @pytest.mark.parametrize("key", ["N", "exponents", "assignment"])
    def test_missing_key_named(self, c2, key):
        d = c2.to_json_dict()
        del d[key]
        with pytest.raises(ValueError, match=f"no '{key}' key"):
            GldpcSpec.from_json_dict(d)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(JSON_VALUES, SPEC_LIKE))
    def test_malformed_spec_raises_value_error(self, d):
        """Any JSON value is a spec or a ValueError, never another exception."""
        try:
            GldpcSpec.from_json_dict(d)
        except ValueError:
            pass

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "spec.json"
        for name in ("n79", "c1", "c2", "prelift90", "prelift68", "hamming15"):
            spec = load(f"{name}.json")
            save_spec(spec, path)
            assert load_spec(path) == spec, name

    @pytest.mark.parametrize(
        "rows",
        [
            [["x", "1", "1", "1"], ["1", "x", "x^3", "x^5"]],
            [["1", "1", "1", "1"], ["1", "x", "x^2", "x^3"], ["1", "x^2", "x^4", "x^6"]],
        ],
        ids=["first-row-not-ones", "three-rows"],
    )
    def test_save_refuses_a_base_the_exponents_cannot_hold(self, tmp_path, rows):
        """Only [ones; x^e] is written; another base is refused, and no file is left."""
        m = RingModulus(7)
        spec = GldpcSpec(PolyMatrix([[P(e) for e in r] for r in rows], m), (None,) * len(rows))
        path = tmp_path / "spec.json"
        with pytest.raises(ValueError, match=r"^only a base \[1 \.\.\. 1; x\^e1 \.\.\. x\^en\]"):
            save_spec(spec, path)
        assert not path.exists()


class TestAssembly:
    def test_partial_stack_layout(self, n79):
        assert n79.assignment == (hamming64(), None)
        H = assembled_parity(n79)
        assert H.nrows == 4 and H.ncols == 6
        assert list(H.rows[3]) == list(n79.base.rows[1])
        for r in range(3):
            comp_row = hamming64().parity[r]
            for c in range(6):
                want = n79.base.entry(0, c) if comp_row[c] else BinaryPoly(0)
                assert H.entry(r, c) == want

    def test_spc_component_returns_base(self, n79):
        spec = GldpcSpec(n79.base, (ComponentCode.spc(6), None))
        assert assembled_parity(spec) == n79.base

    def test_front_identity_component_is_eliminated(self, n79):
        spec = GldpcSpec(n79.base, (FRONT_IDENTITY64, None))
        H_short, _, meta = reduce_spec(spec)
        assert meta.pivot_rows == (1, 2, 3) and meta.pivot_cols == (1, 2, 3)
        assert H_short.shape == (1, 3)
        result = construct_generator(spec)
        assert result.complete and result.rank == 158

    def test_width_mismatch_rejected(self, n79):
        with pytest.raises(ValueError, match="component length 7 != weight 6"):
            GldpcSpec(n79.base, (hamming74(), None))

    def test_fifteen_column_stack_is_five_rows(self):
        spec = load("hamming15.json")
        H = assembled_parity(spec)
        assert H.nrows == 5 and H.ncols == 15
        # component rows come first, the untouched SPC row last
        assert list(H.rows[4]) == list(spec.base.rows[1])
        comp = spec.assignment[0]
        for r in range(4):
            assert [p.bits for p in H.rows[r]] == list(comp.parity[r])

    def test_full_stack_scales_top_rows(self, c2):
        assert c2.assignment == (hamming74(), permuted74())
        H = assembled_parity(c2)
        assert H.nrows == 6
        mono = c2.base.rows[1]
        for r in range(3):
            for c in range(7):
                want = (
                    BinaryPoly(1) if hamming74().parity[r][c] else BinaryPoly(0)
                )
                assert H.entry(r, c) == want
            for c in range(7):
                want = mono[c] if permuted74().parity[r][c] else BinaryPoly(0)
                assert H.entry(r + 3, c) == want


EX4_FS = ["1+x^55+x^71", "x^54+x^69+x^71", "x^55+x^66+x^69"]
C1_FS = ["1+x+x^14+x^46", "x+x^46+x^61", "x+x^14+x^49", "x^14+x^44+x^46"]


class TestReducePartial:
    """One generalized row: the identity columns fold into the SPC row."""

    def test_six_column_elimination(self, n79):
        H_short, T, meta = reduce_spec(n79)
        assert texts(H_short.rows[0]) == EX4_FS
        assert meta.pivot_cols == (4, 5, 6) and meta.rest_cols == (1, 2, 3)
        # T is the transpose of the component's M part (here symmetric)
        assert T.nrows == 3 and T.ncols == 3
        assert [[p.bits for p in row] for row in T.rows] == [
            [1, 1, 0],
            [1, 0, 1],
            [0, 1, 1],
        ]

    def test_last_entry_is_coprime(self, n79):
        H_short, _, _ = reduce_spec(n79)
        f3 = H_short.entry(0, 2)
        assert gcd(f3, n79.base.modulus.poly) == BinaryPoly(1)

    def test_seven_column_elimination(self, c1):
        H_short, _, _ = reduce_spec(c1)
        assert texts(H_short.rows[0]) == C1_FS

    def test_zero_m_part_leaves_monomials(self):
        base = base_from_exponents([0, 2, 5], RingModulus(9))
        comp = ComponentCode([[0, 1, 0], [0, 0, 1]], identity_start=1)
        H = PolyMatrix(scaled_rows(base.rows[0], comp) + [base.rows[1]], base.modulus)
        H_short, T, _ = schur_reduce(H, (1, 2), (2, 3))
        assert texts(H_short.rows[0]) == ["1"]
        assert all(p.is_zero() for row in T.rows for p in row)

    def test_rejects_width_mismatch(self, c1):
        with pytest.raises(ValueError, match="component length 6 != weight 7"):
            GldpcSpec(c1.base, (hamming64(), None))


class TestGshortForms:
    def test_pivot_pairs_last_coprime_entry(self, c1):
        H_short, _, _ = reduce_spec(c1)
        plain, reduced = gshort_forms(H_short)
        mod = H_short.modulus
        fs = H_short.rows[0]
        assert plain == reduced
        assert plain.nrows == 3
        for j in range(3):
            want = [BinaryPoly(0)] * 4
            want[j] = t(fs[3], mod)
            want[3] = t(fs[j], mod)
            assert list(plain.rows[j]) == want

    def test_composed_rows_match_display(self, n79):
        H_short, T, meta = reduce_spec(n79)
        plain, _ = gshort_forms(H_short)
        G = schur_recompose(plain, T, meta)
        mod = n79.base.modulus
        f1, f2, f3 = H_short.rows[0]
        t1, t2, t3 = (t(f, mod) for f in (f1, f2, f3))
        zero = BinaryPoly(0)
        assert list(G.rows[0]) == [t3, zero, t1, t3, mod.reduce(t1 + t3), t1]
        assert list(G.rows[1]) == [zero, t3, t2, t3, t2, mod.reduce(t2 + t3)]
        for row in G.rows:
            assert sum(p.weight() for p in row) == 16

    def test_shared_factor_appends_annihilator_rows(self):
        mod = RingModulus(4)
        H_short = PolyMatrix([[P("1+x"), P("1+x^3")]], mod)
        plain, reduced = gshort_forms(H_short)
        f = P("1+x+x^2+x^3")
        assert plain.nrows == 3
        assert list(plain.rows[1]) == [f, BinaryPoly(0)]
        assert list(plain.rows[2]) == [BinaryPoly(0), f]
        assert reduced.nrows == 2
        assert list(reduced.rows[1]) == [BinaryPoly(0), f]
        for form in (plain, reduced):
            prod = matmul_mod(form, transpose_entrywise(H_short))
            assert all(p.is_zero() for row in prod.rows for p in row)
        # At an even modulus the undivided pairs miss the odd-parity
        # part of the kernel (same effect as in the four-entry single
        # row example); the reduced form is exact.
        dim = 2 * 4 - rank_scalar(circulant_expand(H_short))
        assert dim == 5
        assert rank_scalar(circulant_expand(plain)) == 4
        assert rank_scalar(circulant_expand(reduced)) == 5

    def test_shared_factor_spans_at_odd_modulus(self):
        mod = RingModulus(7)
        H_short = PolyMatrix([[P("1+x"), P("1+x^2+x^3+x^4")]], mod)
        plain, reduced = gshort_forms(H_short)
        dim = 2 * 7 - rank_scalar(circulant_expand(H_short))
        assert dim == 8
        assert rank_scalar(circulant_expand(plain)) == 8
        assert rank_scalar(circulant_expand(reduced)) == 8

    def test_both_forms_generate_the_kernel(self, c1):
        H_short, _, _ = reduce_spec(c1)
        plain, reduced = gshort_forms(H_short)
        dim = 4 * 68 - rank_scalar(circulant_expand(H_short))
        for form in (plain, reduced):
            prod = matmul_mod(form, transpose_entrywise(H_short))
            assert all(p.is_zero() for row in prod.rows for p in row)
            assert rank_scalar(circulant_expand(form)) == dim

    def test_requires_single_row(self, c1):
        with pytest.raises(ValueError, match="single polynomial row"):
            gshort_forms(c1.base)

    def test_all_zero_row_rejected(self):
        H = PolyMatrix([[BinaryPoly(0), BinaryPoly(0)]], RingModulus(4))
        with pytest.raises(ValueError, match="vanish"):
            gshort_forms(H)

    def test_pivot_override_must_attain_gcd(self):
        mod = RingModulus(4)
        H_short = PolyMatrix([[P("1+x"), P("1+x^2")]], mod)
        with pytest.raises(ValueError, match="does not attain"):
            gshort_forms(H_short, pivot=2)
        plain, _ = gshort_forms(H_short, pivot=1)
        assert plain.entry(0, 0) == t(P("1+x^2"), mod)


C2_MINORS = {
    (2, 3, 4): "x^3+x^8+x^18+x^20+x^23+x^28+x^36+x^38+x^40+x^41+x^51+x^53+x^59+x^64",
    (1, 3, 4): "x^3+x^15+x^23+x^25+x^28+x^36+x^39+x^45+x^47+x^60+x^63+x^64",
    (1, 2, 4): "x^7+x^8+x^15+x^22+x^36+x^37+x^38+x^39+x^40+x^45+x^47+x^51+x^59+x^60",
    (1, 2, 3): "x^7+x^15+x^20+x^40+x^41+x^42+x^43+x^47+x^50+x^53+x^60+x^64",
}


class TestReduceFull:
    """Both rows generalized: the top rows fold through the bottom identity."""

    def test_two_component_elimination(self, c2):
        H, _, _ = reduce_spec(c2)
        assert [texts(r) for r in H.rows] == [
            ["1+x+x^46", "x+x^46", "x", "x^44+x^46"],
            ["x+x^14", "x+x^61", "x+x^14", "x^14+x^44"],
            ["x^14+x^46", "x^46", "x^14+x^49", "x^14+x^44+x^46"],
        ]

    def test_maximal_minors_share_quartic_factor(self, c2):
        H, _, _ = reduce_spec(c2)
        mod = c2.base.modulus
        acc = BinaryPoly(0)
        for cols, text in C2_MINORS.items():
            d = mod.reduce(minor_det(H, (1, 2, 3), cols))
            assert d.to_text() == text
            acc = gcd(acc, d)
        assert gcd(acc, mod.poly) == P("1+x^4")

    def test_identity_top_reduces_to_diagonal(self, n79):
        comp_top = ComponentCode(
            [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]],
            identity_start=0,
        )
        rows = scaled_rows(n79.base.rows[0], hamming64())
        rows += scaled_rows(n79.base.rows[1], comp_top)
        H, _, _ = schur_reduce(PolyMatrix(rows, n79.base.modulus), (1, 2, 3), (4, 5, 6))
        mono = n79.base.rows[1]
        for r in range(3):
            for c in range(3):
                want = mono[c] if r == c else BinaryPoly(0)
                assert H.entry(r, c) == want

    def test_symmetric_variant_is_not_reducible(self, n79):
        rows = scaled_rows(n79.base.rows[0], hamming64())
        rows += scaled_rows(n79.base.rows[1], FRONT_IDENTITY64)
        H, _, _ = schur_reduce(PolyMatrix(rows, n79.base.modulus), (1, 2, 3), (4, 5, 6))
        assert [texts(r) for r in H.rows] == [
            ["1+x^55+x^71", "x^71", "x^55"],
            ["x^71", "x^54+x^69+x^71", "x^69"],
            ["x^55", "x^69", "x^55+x^66+x^69"],
        ]
        with pytest.raises(NotInvertible):
            schur_reduce(H, (1, 2, 3), (1, 2, 3))


class TestPrelift:
    def test_even_monomial_entry(self):
        m2 = RingModulus(6)
        B = prelift_entry(P("x^6"), 2, m2)
        assert [texts(r) for r in B.rows] == [["x^3", "0"], ["0", "x^3"]]

    def test_odd_monomial_entry(self):
        m2 = RingModulus(6)
        B = prelift_entry(P("x^7"), 2, m2)
        assert [texts(r) for r in B.rows] == [["0", "x^4"], ["x^3", "0"]]

    def test_factor_three_entry(self):
        m2 = RingModulus(5)
        B = prelift_entry(P("x^5"), 3, m2)
        assert [texts(r) for r in B.rows] == [
            ["0", "x^2", "0"],
            ["0", "0", "x^2"],
            ["x", "0", "0"],
        ]

    def test_general_polynomial_entry(self):
        m2 = RingModulus(3)
        B = prelift_entry(P("1+x+x^2"), 2, m2)
        assert [texts(r) for r in B.rows] == [["1+x", "x"], ["1", "1+x"]]

    @pytest.mark.parametrize("N1", [2, 3])
    def test_entry_map_is_a_ring_morphism(self, N1):
        rng = random.Random(60 + N1)
        for N2 in (3, 4, 7):
            mod = RingModulus(N1 * N2)
            m2 = RingModulus(N2)
            for _ in range(12):
                a = mod.reduce(BinaryPoly(rng.getrandbits(mod.N)))
                b = mod.reduce(BinaryPoly(rng.getrandbits(mod.N)))
                A = prelift_entry(a, N1, m2)
                B = prelift_entry(b, N1, m2)
                assert prelift_entry(mod.mul(a, b), N1, m2) == matmul_mod(A, B)
                summed = PolyMatrix(
                    [
                        [m2.reduce(A.rows[r][c] + B.rows[r][c]) for c in range(N1)]
                        for r in range(N1)
                    ],
                    m2,
                )
                assert prelift_entry(mod.reduce(a + b), N1, m2) == summed

    def test_matrix_prelift_preserves_code_and_graph(self):
        rng = random.Random(61)
        for N1 in (2, 3):
            H = random_poly_matrix(rng, 2, 3, 4 * N1)
            Hp = prelift_matrix(H, N1)
            Hb, Hpb = circulant_expand(H), circulant_expand(Hp)
            assert (Hpb.nrows, Hpb.ncols) == (Hb.nrows, Hb.ncols)
            assert rank_scalar(Hpb) == rank_scalar(Hb)
            assert girth(Hp) == girth(H)
            assert sorted(r.bit_count() for r in Hpb.rows) == sorted(
                r.bit_count() for r in Hb.rows
            )

    def test_divisibility_required(self):
        H = random_poly_matrix(random.Random(62), 1, 2, 5)
        with pytest.raises(ValueError, match="not divisible"):
            prelift_matrix(H, 2)

    def test_split_groups_columns_by_parity(self, prelift90):
        S = prelift90.effective_matrix()
        assert S.nrows == 4 and S.ncols == 12
        # exponents 0,54,66 are even and 71,55,69 odd; group layout is
        # [even res-0 | even res-1 | odd res-0 | odd res-1]
        P2 = prelift_matrix(prelift90.base, 2)
        order = [0, 2, 4, 1, 3, 5, 6, 8, 10, 7, 9, 11]
        for r in range(4):
            assert list(S.rows[r]) == [P2.rows[r][j] for j in order]

    def test_split_all_even_degenerates(self):
        base = base_from_exponents([0, 2, 4], RingModulus(6))
        S = GldpcSpec(base, (None,) * 4, 2).effective_matrix()
        P2 = prelift_matrix(base, 2)
        order = [0, 2, 4, 1, 3, 5]
        for r in range(4):
            assert list(S.rows[r]) == [P2.rows[r][j] for j in order]

    def test_split_needs_even_modulus(self):
        base = base_from_exponents([0, 1, 3], RingModulus(7))
        with pytest.raises(ValueError, match="not divisible"):
            GldpcSpec(base, (None,) * 4, 2)

    @pytest.mark.parametrize("name", ["n79", "c1", "c2", "prelift90", "prelift68", "hamming15"])
    def test_effective_matrix_matches_the_blocks_sorted_by_residue(self, name):
        spec = load(f"{name}.json")
        assert spec.effective_matrix() == effective_by_blocks(spec.base, spec.prelift or 1)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_effective_matrix_of_any_base_matches_the_blocks(self, data):
        """Zero, monomial and multi-term entries; N1 = 1, a proper divisor, or N."""
        N1 = data.draw(st.sampled_from([1, 2, 3, 4]))
        N2 = data.draw(st.sampled_from([1, 2, 3, 5]))
        N = N1 * N2
        nrows = data.draw(st.integers(1, 3))
        ncols = data.draw(st.integers(nrows + 1, 5))
        entry = st.one_of(
            st.just(0),
            st.integers(0, N - 1).map(lambda e: 1 << e),
            st.integers(0, (1 << N) - 1),
        )
        rows = data.draw(st.lists(
            st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows
        ))
        base = PolyMatrix([[BinaryPoly(b) for b in row] for row in rows], RingModulus(N))
        spec = GldpcSpec(base, (None,) * (nrows * N1), N1)
        assert spec.effective_matrix() == effective_by_blocks(base, N1)

    @pytest.mark.parametrize("N1", [0, -2, 3, 14])
    def test_bad_split_keeps_its_message(self, N1):
        base = base_from_exponents([0, 1, 3], RingModulus(7))
        message = f"N1 must be a positive divisor of N: N=7 is not divisible by N1={N1}"
        for build in (lambda: GldpcSpec(base, (None,) * 4, N1), lambda: prelift_matrix(base, N1)):
            with pytest.raises(ValueError) as exc:
                build()
            assert str(exc.value) == message

    def test_split_by_four_groups_columns_by_residue(self, prelift68):
        """N1 = 4: sub-column c of every residue class, base order inside."""
        spec = GldpcSpec(prelift68.base, (None,) * 8, 4)
        S = spec.effective_matrix()
        P4 = prelift_matrix(prelift68.base, 4)
        # exponents 0,44,46,14,61,49,1 leave residues 0,0,2,2,1,1,1 mod 4
        classes = [[0, 1], [4, 5, 6], [2, 3]]
        order = [4 * j + c for cols in classes for c in range(4) for j in cols]
        assert S.shape == (8, 28) and S.modulus.N == 17
        assert S == P4.submatrix(range(8), order)


def effective_by_blocks(base, N1):
    """A pre-lift's effective matrix by its definition: the prelift_entry
    blocks put side by side, split column j*N1 + c sorted by
    (residues of column j, c, j)."""
    m2 = RingModulus(base.modulus.N // N1)
    blocks = [[prelift_entry(p, N1, m2) for p in row] for row in base.rows]
    rows = [
        [blocks[i][j].rows[r][c] for j in range(base.ncols) for c in range(N1)]
        for i in range(base.nrows)
        for r in range(N1)
    ]
    residues = [
        tuple(tuple(sorted({e % N1 for e in p.exponents()})) for p in column)
        for column in zip(*base.rows)
    ]
    order = sorted(
        range(base.ncols * N1), key=lambda k: (residues[k // N1], k % N1, k // N1)
    )
    return PolyMatrix([[row[k] for k in order] for row in rows], m2)


N90_SHORT = [
    ["1", "x^27", "0", "x^36", "x^36", "0"],
    ["1", "0", "x^33", "x^28", "0", "x^28"],
    ["0", "x^27", "x^33", "0", "x^35", "x^35"],
    ["x^27+x^35", "x^34+x^35", "x^27+x^34", "1", "x^27", "x^33"],
]

PRELIFT68_SHORT = [
    ["1", "x^22", "x^23", "0", "x^31", "x^31", "x^31", "0"],
    ["1", "x^22", "0", "x^7", "x^25", "x^25", "0", "x^25"],
    ["1", "0", "x^23", "x^7", "x", "0", "x", "x"],
    ["1+x^24+x^30", "x^24+x^30", "1+x^30", "1+x^24", "1", "x^22", "x^23", "x^7"],
]

PRELIFT68_F = [
    "1+x^9+x^14+x^15+x^18+x^24",
    "1+x+x^2+x^3+x^4+x^5+x^8+x^9+x^15+x^27+x^32+x^33",
    "x^2+x^4+x^5+x^8+x^15+x^22+x^25+x^27+x^31+x^32+x^33",
    "x+x^3+x^4+x^5+x^8+x^9+x^21+x^23+x^25+x^27+x^33",
    "x+x^2+x^3+x^7+x^9+x^15+x^21+x^31+x^32",
]


class TestReducePrelift:
    """Split rows generalized: two components' identity columns go at once."""

    def test_six_column_short_matrix(self, prelift90):
        H1s, T, meta = reduce_spec(prelift90)
        assert [texts(r) for r in H1s.rows] == N90_SHORT
        assert meta.pivot_rows == (1, 2, 3, 4, 5, 6)
        assert meta.pivot_cols == (7, 8, 9, 10, 11, 12)
        # T = transpose of the outer map diag(M, M) recovering the odd groups
        M = [row[:3] for row in hamming64().parity]
        assert T.nrows == 6 and T.ncols == 6
        for r in range(3):
            for c in range(3):
                assert T.entry(c, r).bits == M[r][c]
                assert T.entry(c + 3, r + 3).bits == M[r][c]
                assert T.entry(c + 3, r).is_zero()
                assert T.entry(c, r + 3).is_zero()

    def test_eight_column_short_matrix(self, prelift68):
        H1s, _, _ = reduce_spec(prelift68)
        assert [texts(r) for r in H1s.rows] == PRELIFT68_SHORT

    def test_component_shape_checked(self, prelift68):
        with pytest.raises(ValueError, match="component length 6 != weight 7"):
            GldpcSpec(prelift68.base, (hamming64(),) * 3 + (None,), 2)

    def test_short_kernel_dimensions(self, prelift90, prelift68):
        H90, _, _ = reduce_spec(prelift90)
        assert 6 * 45 - rank_scalar(circulant_expand(H90)) == 91
        Hb, _, _ = reduce_spec(prelift68)
        assert 8 * 34 - rank_scalar(circulant_expand(Hb)) == 136


class TestSchur:
    def test_recompose_round_trip(self):
        rng = random.Random(63)
        done = 0
        while done < 10:
            H = random_poly_matrix(rng, 2, 4, 5)
            try:
                H_rest, T, meta = schur_reduce(H, (1,), (rng.randint(1, 4),))
            except NotInvertible:
                continue
            try:
                inner = generator_general(H_rest)
            except Incomplete as exc:
                inner = exc.partial
            G = schur_recompose(inner.matrix, T, meta)
            prod = matmul_mod(G, transpose_entrywise(H))
            assert all(p.is_zero() for row in prod.rows for p in row)
            assert rank_scalar(circulant_expand(G)) == inner.rank
            done += 1

    def test_full_pivot_leaves_no_rest(self):
        mod = RingModulus(3)
        H = PolyMatrix([[P("x"), P("1+x")]], mod)
        H_rest, T, meta = schur_reduce(H, (1,), (1,))
        assert H_rest is None
        assert meta.pivot_cols == (1,) and meta.rest_cols == (2,)
        assert T.entry(0, 0) == t(mod.mul(P("x^2"), P("1+x")), mod)

    def test_pivot_count_mismatch(self):
        H = random_poly_matrix(random.Random(64), 2, 3, 5)
        with pytest.raises(ValueError, match="counts must match"):
            schur_reduce(H, (1, 2), (1,))

    def test_second_stage_elimination_rows(self, prelift68):
        H1s, _, _ = reduce_spec(prelift68)
        H2s, T, meta = schur_reduce(H1s, (1, 2, 3), (1, 2, 3))
        assert meta.det == P("x^11")
        assert meta.rest_cols == (4, 5, 6, 7, 8)
        assert texts(H2s.rows[0]) == PRELIFT68_F
        assert 5 * 34 - rank_scalar(circulant_expand(H2s)) == 136

    def test_second_stage_low_weight_member(self, prelift68):
        H1s, _, _ = reduce_spec(prelift68)
        H2s, _, _ = schur_reduce(H1s, (1, 2, 3), (1, 2, 3))
        mod = H2s.modulus
        witness = [
            P("0"),
            P("x^12+x^31"),
            P("x"),
            P("x^3+x^17+x^18"),
            P("x^14+x^16"),
        ]
        assert sum(p.weight() for p in witness) == 8
        acc = BinaryPoly(0)
        for w, f in zip(witness, H2s.rows[0]):
            acc = mod.reduce(acc + mod.mul(w, f))
        assert acc.is_zero()


class TestNinetyChain:
    """The two-stage elimination on the split 90-cycle base."""

    V_TEXT = "x^6+x^10+x^18+x^37+x^38+x^44"

    def test_second_stage_short_row(self, prelift90):
        H1s, _, _ = reduce_spec(prelift90)
        H2s, T, meta = schur_reduce(H1s, (1, 2, 4), (4, 5, 6))
        assert meta.pivot_cols == (4, 5, 6)
        assert texts(H2s.rows[0]) == ["x^7+x^44", "x^26+x^27", "x^33+x^40"]
        assert gcd(meta.det, H1s.modulus.poly) == BinaryPoly(1)
        assert 3 * 45 - rank_scalar(circulant_expand(H2s)) == 91

    def test_weight_27_recomposed_witness(self, prelift90):
        H1s, _, _ = reduce_spec(prelift90)
        H2s, T, meta = schur_reduce(H1s, (1, 2, 4), (4, 5, 6))
        mod = H1s.modulus
        u = P("1+x^12+x^18")
        w3 = PolyMatrix(
            [[mod.mul(u, P(e)) for e in ("1", "x^27", "x^33")]], mod
        )
        syn = matmul_mod(w3, transpose_entrywise(H2s))
        assert syn.entry(0, 0).is_zero()
        w6 = schur_recompose(w3, T, meta)
        V = P(self.V_TEXT)
        assert [w6.entry(0, j) for j in (3, 4, 5)] == [V, V, V]
        assert sum(p.weight() for p in w6.rows[0]) == 27
        prod = matmul_mod(w6, transpose_entrywise(H1s))
        assert all(p.is_zero() for p in prod.rows[0])

    def test_weight_39_composed_codeword(self, prelift90):
        H1s, T1, meta1 = reduce_spec(prelift90)
        H2s, T, meta = schur_reduce(H1s, (1, 2, 4), (4, 5, 6))
        mod = H1s.modulus
        u = P("1+x^12+x^18")
        w3 = PolyMatrix(
            [[mod.mul(u, P(e)) for e in ("1", "x^27", "x^33")]], mod
        )
        w6 = schur_recompose(w3, T, meta)
        w12 = schur_recompose(w6, T1, meta1)
        assert w12.ncols == 12
        blocks = list(w12.rows[0])
        assert blocks[6:9] == [
            mod.mul(u, P(e)) for e in ("1+x^27", "1+x^33", "x^27+x^33")
        ]
        assert all(p.is_zero() for p in blocks[9:])
        assert sum(p.weight() for p in blocks) == 39
        bits = row_bits(w12.rows[0], mod)
        assert in_kernel(expand_binary(prelift90), bits)


class TestBinaryExpansion:
    @pytest.mark.parametrize(
        "name,rank,shape",
        [
            ("n79.json", 316, (4 * 79, 6 * 79)),
            ("c1.json", 272, (4 * 68, 7 * 68)),
            ("c2.json", 404, (6 * 68, 7 * 68)),
            ("prelift90.json", 449, (10 * 45, 12 * 45)),
            ("prelift68.json", 340, (10 * 34, 14 * 34)),
        ],
    )
    def test_expansion_rank(self, name, rank, shape):
        Hb = expand_binary(load(name))
        assert (Hb.nrows, Hb.ncols) == shape
        assert rank_scalar(Hb) == rank

    def test_all_spc_expansion_matches_base(self):
        base = base_from_exponents([0, 1, 3, 4, 5, 9], RingModulus(13))
        spec = GldpcSpec(base, (None, None))
        assert expand_binary(spec) == circulant_expand(base)

    def test_elimination_preserves_dimension(self, prelift90, prelift68):
        for spec, cols, width in ((prelift90, 12, 6), (prelift68, 14, 8)):
            H1s, _, _ = reduce_spec(spec)
            N2 = H1s.modulus.N
            full = cols * N2 - rank_scalar(expand_binary(spec))
            short = width * N2 - rank_scalar(circulant_expand(H1s))
            assert full == short

    def test_dimension_meets_design_rate(self):
        for name in ("n79.json", "c1.json", "c2.json", "prelift90.json", "prelift68.json"):
            spec = load(name)
            Hb = expand_binary(spec)
            dim = Hb.ncols - rank_scalar(Hb)
            assert dim >= design_rate(spec) * Hb.ncols


class TestConstructGenerator:
    def test_single_component_pipeline(self, n79):
        result = construct_generator(n79)
        assert result.complete
        assert result.rank == result.target_dimension == 158
        for row in result.matrix.rows:
            assert sum(p.weight() for p in row) == 16

    @pytest.mark.parametrize("name", ["n79", "c2", "prelift68"])
    def test_builds_the_effective_matrix_once(self, monkeypatch, name):
        spec = load_spec(data_path(f"{name}.json"))
        builds = []
        build = GldpcSpec.effective_matrix
        monkeypatch.setattr(
            GldpcSpec, "effective_matrix", lambda self: builds.append(self) or build(self)
        )
        assert construct_generator(spec).complete
        assert builds == [spec]

    def test_seven_column_pipeline(self, c1):
        result = construct_generator(c1)
        assert result.complete and result.rank == 204
        assert {o.kind for o in result.row_provenance} == {"lemma1"}
        assert all(
            sum(p.weight() for p in row) == 16 for row in result.matrix.rows
        )

    def test_two_component_pipeline(self, c2):
        result = construct_generator(c2)
        assert result.complete and result.rank == 72
        kinds = Counter(o.kind for o in result.row_provenance)
        assert kinds == Counter({"lemma1": 1, "lemma2": 2})

    def test_two_component_witness_row(self, c2):
        H, T, meta = reduce_spec(c2)
        mod = c2.base.modulus
        und = PolyMatrix(
            [[t(mod.reduce(minor_det(H, (1, 2, 3), cols)), mod)
              for cols in ((2, 3, 4), (1, 3, 4), (1, 2, 4), (1, 2, 3))]],
            mod,
        )
        w = schur_recompose(und, T, meta)
        assert sum(p.weight() for p in w.rows[0]) == 88
        assert plain_display(w.rows[0][4:], mod) == (
            P("x^7+x^18+x^20+x^22+x^25+x^36+x^37+x^41+x^53+x^63"),
            P("x^7+x^8+x^18+x^25+x^38+x^39+x^42+x^43+x^45+x^50+x^51+x^59+x^63+x^64"),
            P("x^3+x^18+x^22+x^23+x^28+x^37+x^39+x^40+x^42+x^43+x^45+x^50"),
        )
        prod = matmul_mod(w, transpose_entrywise(assembled_parity(c2)))
        assert all(p.is_zero() for p in prod.rows[0])

    def test_prelift_pipeline(self, prelift90):
        result = construct_generator(prelift90)
        assert result.complete
        assert result.rank == result.target_dimension == 91
        assert result.matrix.ncols == 12

    def test_prelift_assignment_shape_enforced(self, prelift90):
        """Components on any subset of the split rows still build."""
        d = prelift90.to_json_dict()
        d["assignment"] = [d["assignment"][0], None, None, d["assignment"][0]]
        spec = GldpcSpec.from_json_dict(d)
        result = construct_generator(spec)
        assert result.complete and result.rank == result.target_dimension == 181
        assert verify_generator(assembled_parity(spec), result.matrix, 181)

    @pytest.mark.parametrize(
        "name,N1,rows,dim", [("prelift90.json", 3, 2, 240), ("prelift68.json", 4, 3, 238)]
    )
    def test_other_split_factors_build(self, name, N1, rows, dim):
        """The bundled bases split by 3 and 4, components on the first rows."""
        d = load(name).to_json_dict()
        d["N1"] = N1
        d["assignment"] = [d["assignment"][0]] * rows + [None] * (2 * N1 - rows)
        spec = GldpcSpec.from_json_dict(d)
        assert GldpcSpec.from_json_dict(spec.to_json_dict()) == spec
        result = construct_generator(spec)
        assert result.complete and result.rank == result.target_dimension == dim
        assert verify_generator(assembled_parity(spec), result.matrix, dim)
        assert girth(spec.effective_matrix()) == 12

    def test_unreducible_spec_rejected(self):
        """An SPC component on the monomial row is eliminated like any other."""
        base = base_from_exponents([0, 1, 3, 4, 5, 9], RingModulus(13))
        spec = GldpcSpec(base, (None, ComponentCode.spc(6)))
        assert reduce_spec(spec)[0].shape == (1, 5)
        result = construct_generator(spec)
        assert result.complete and result.rank == result.target_dimension == 53
        assert verify_generator(assembled_parity(spec), result.matrix, 53)

    def test_component_on_monomial_row(self, c1):
        d = c1.to_json_dict()
        d["assignment"].reverse()
        spec = GldpcSpec.from_json_dict(d)
        assert reduce_spec(spec)[0].shape == (1, 4)
        result = construct_generator(spec)
        assert result.complete and result.rank == result.target_dimension == 204
        assert verify_generator(assembled_parity(spec), result.matrix, 204)

    def test_composed_rows_satisfy_all_constraints(self, c1):
        result = construct_generator(c1)
        prod = matmul_mod(
            result.matrix, transpose_entrywise(assembled_parity(c1))
        )
        assert all(p.is_zero() for row in prod.rows for p in row)
        bits = row_bits(result.matrix.rows[0], c1.base.modulus)
        assert in_kernel(expand_binary(c1), bits)


@st.composite
def two_row_cases(draw, max_N2=16, max_width=7, max_split_width=21, mixed=False):
    """A two-row base of width n split by N1 = 1, 2 or 3 over x^N2 + 1, and a
    component with its identity block anywhere on some of the split rows.

    With mixed, each of those rows draws a component of its own.
    """
    n = draw(st.integers(3, max_width))
    N1 = draw(st.sampled_from([f for f in (1, 2, 3) if f * n <= max_split_width]))
    N2 = draw(st.integers(3, max_N2))
    exponents = draw(st.lists(st.integers(0, N1 * N2 - 1), min_size=n, max_size=n))

    def component():
        p = draw(st.integers(1, n - 1))
        start = draw(st.integers(0, n - p))
        bits = st.lists(st.integers(0, 1), min_size=n - p, max_size=n - p)
        rest = draw(st.lists(bits, min_size=p, max_size=p))
        parity = [
            row[:start] + [int(k == r) for k in range(p)] + row[start:]
            for r, row in enumerate(rest)
        ]
        return ComponentCode(parity, identity_start=start)

    comp = component()
    rows = st.lists(st.booleans(), min_size=2 * N1, max_size=2 * N1).filter(any)
    assignment = tuple(
        (component() if mixed else comp) if on else None for on in draw(rows)
    )
    return base_from_exponents(exponents, RingModulus(N1 * N2)), assignment, N1


# Split rows 1 and 3 carry different one-row components: the second
# enlarged pivot block has determinant x^2 + x^4, which is not a unit.
REJECTED_SECOND_BLOCK = (
    base_from_exponents([4, 8, 3], RingModulus(10)),
    (ComponentCode([[1, 1, 0]], 1), None, ComponentCode([[1, 1, 1]], 0), None),
    2,
)


class TestReduceSpec:
    @settings(max_examples=60, deadline=None)
    @given(two_row_cases())
    def test_reduction_preserves_dimension(self, case):
        try:
            spec = GldpcSpec(*case)
        except ValueError:
            return  # design rate outside (0, 1)
        H_short, _, _ = reduce_spec(spec)
        N = H_short.modulus.N
        Hb = expand_binary(spec)
        short_dim = H_short.ncols * N - rank_scalar(circulant_expand(H_short))
        assert short_dim == Hb.ncols - rank_scalar(Hb)

    @settings(max_examples=40, deadline=None)
    @given(two_row_cases())
    def test_rank_formula_matches_expansion(self, case):
        """The rank from the Smith diagonal equals the scalar rank."""
        try:
            spec = GldpcSpec(*case)
        except ValueError:
            return  # design rate outside (0, 1)
        assert rank_qc(assembled_parity(spec)).rank == rank_scalar(expand_binary(spec))

    @pytest.mark.parametrize("name", ["prelift68", "prelift90"])
    def test_rank_formula_on_prelifted_specs(self, request, name):
        spec = request.getfixturevalue(name)
        assert rank_qc(assembled_parity(spec)).rank == rank_scalar(expand_binary(spec))

    def test_no_component_keeps_the_base(self):
        base = base_from_exponents([0, 1, 3, 4, 5, 9], RingModulus(13))
        spec = GldpcSpec(base, (None, None))
        H_short, T, meta = reduce_spec(spec)
        assert H_short == base and T is None and meta.pivot_cols == ()
        result = construct_generator(spec)
        assert result.complete
        assert result.matrix == generator_general(base).matrix

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(two_row_cases(), two_row_cases(mixed=True)))
    @example(REJECTED_SECOND_BLOCK)
    def test_matches_a_schur_step_per_component(self, case):
        """Accepting blocks by determinant picks what trying each Schur step did.

        One component per spec never meets a singular enlarged block; two
        different ones can, as in the example.
        """
        try:
            spec = GldpcSpec(*case)
        except ValueError:
            return  # design rate outside (0, 1)
        H_short, T, meta = reduce_spec(spec)
        want_short, want_T, want_meta = reduce_by_trial(spec)
        assert H_short.to_text_rows() == want_short.to_text_rows()
        assert (T is None) == (want_T is None)
        if T is not None:
            assert T.to_text_rows() == want_T.to_text_rows()
        assert meta == want_meta


def reduce_by_trial(spec):
    """The oracle: reduce_spec as a Schur step tried on every component.

    A component's rows and columns join the pivots when schur_reduce on
    the enlarged set does not raise NotInvertible; the last step that
    succeeded is the reduction.
    """
    eff = spec.effective_matrix()
    H = assembled_parity(spec, eff)
    rows, cols = (), ()
    reduced = schur_reduce(H, rows, cols)
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
        try:
            reduced = schur_reduce(H, rows + comp_rows, cols + comp_cols)
        except NotInvertible:
            continue
        rows, cols = rows + comp_rows, cols + comp_cols
    return reduced


BUNDLED_SPECS = ("c1", "hamming15", "n79", "c2", "prelift68", "prelift90")


class TestOneSchurStep:
    @pytest.mark.parametrize("name", BUNDLED_SPECS)
    def test_construct_runs_one_schur_step(self, monkeypatch, name):
        calls = Counter()
        for fn_name in ("schur_reduce", "_schur_step"):
            fn = getattr(gldpc, fn_name)

            def counted(*args, _fn=fn, _name=fn_name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(gldpc, fn_name, counted)
        construct_generator(load(f"{name}.json"))
        assert calls == {"_schur_step": 1}

    @pytest.mark.parametrize("name", BUNDLED_SPECS)
    def test_construct_builds_one_minor_engine_per_matrix(self, monkeypatch, name):
        # One Minors of the assembled H serves the reduction, the pivot
        # block's inverse included, and one of H_short the synthesis.
        built = []

        def counted(H, _real=polymat.Minors):
            built.append(H.shape)
            return _real(H)

        for module in (gldpc, construct, polymat):
            monkeypatch.setattr(module, "Minors", counted)
        spec = load(f"{name}.json")
        H = assembled_parity(spec)
        construct_generator(spec)
        assert len(built) == 2
        assert built[0] == H.shape


class TestSchurOracle:
    """The Schur step against minors of H alone, on seeded random H.

    With pivot rows R and columns C, B the block on them: Sylvester's
    identity gives det B * H_rest[r][c] = minor(R + r, C + c), and
    Cramer's rule det B * (B^-1 A)[i][c] = minor(R, C - C[i] + c), all
    mod x^N + 1 (over GF(2) no sign depends on the order).
    """

    @staticmethod
    def cases(count):
        rng = random.Random(37)
        done = 0
        while done < count:
            nrows, ncols = rng.randint(1, 4), rng.randint(2, 5)
            k = rng.randint(1, min(nrows, ncols - 1))
            H = random_poly_matrix(rng, nrows, ncols, rng.randint(1, 9))
            rows = tuple(sorted(rng.sample(range(1, nrows + 1), k)))
            cols = tuple(sorted(rng.sample(range(1, ncols + 1), k)))
            try:
                reduced = schur_reduce(H, rows, cols)
            except NotInvertible:
                continue
            done += 1
            yield H, rows, cols, reduced

    def test_entries_are_minor_ratios(self):
        for H, R, C, (H_rest, T, meta) in self.cases(400):
            mod = H.modulus

            def minor(rows, cols):
                return mod.reduce(minor_det(H, tuple(sorted(rows)), tuple(sorted(cols))))

            assert meta.det == minor(R, C)
            rest_rows = [i for i in range(1, H.nrows + 1) if i not in R]
            assert (H_rest is None) == (not rest_rows)
            for r, row in zip(rest_rows, H_rest.rows if H_rest else ()):
                for c, entry in zip(meta.rest_cols, row):
                    assert mod.mul(meta.det, entry) == minor(R + (r,), C + (c,))
            BA = transpose_entrywise(T)
            for i, row in enumerate(BA.rows):
                for c, entry in zip(meta.rest_cols, row):
                    assert mod.mul(meta.det, entry) == minor(R, C[:i] + C[i + 1 :] + (c,))


class TestExpansionBound:
    def test_oversized_spec_is_rejected_before_any_expansion(self, monkeypatch):
        # N = 10**6 keeps x^N + 1 itself small (a million bits).
        for target in (gldpc, polymat):
            monkeypatch.setattr(target, "circulant_expand", _never)
        with open(data_path("c1.json"), encoding="utf-8") as fh:
            d = json.load(fh)
        d["N"] = 10**6
        with pytest.raises(ValueError, match="binary expansion 4000000 x 7000000 exceeds"):
            GldpcSpec.from_json_dict(d)

    def test_oversized_split_is_rejected_before_the_split(self, monkeypatch):
        # Split by 2**10, the base's 2 x 3 entries would become 2**21 split
        # entries; the sizes alone reject it.
        monkeypatch.setattr(gldpc, "_lifted", _never)
        base = base_from_exponents([0, 1, 3], RingModulus(1 << 20))
        with pytest.raises(ValueError, match="binary expansion 2097152 x 3145728 exceeds"):
            GldpcSpec(base, (None,) * (1 << 11), 1 << 10)

    @pytest.mark.parametrize("name", BUNDLED_SPECS)
    def test_bundled_specs_stay_far_below_the_bound(self, name):
        Hb = expand_binary(load(f"{name}.json"))
        assert 20 * Hb.nrows * Hb.ncols <= polymat._MAX_EXPANSION_BITS


def _never(*args, **kwargs):
    raise AssertionError("an oversized input reached the expansion")
