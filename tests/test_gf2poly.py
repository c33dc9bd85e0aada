"""Plain GF(2)[x] arithmetic and the x^N + 1 ring helpers."""

import pytest
from hypothesis import example, given, strategies as st

from qcldpc.gf2poly import (
    BinaryPoly,
    NotInvertible,
    RingModulus,
    bit_positions,
    gcd,
    inverse_mod,
    is_unit,
    transpose_poly,
    xgcd,
)

polys = st.integers(min_value=0, max_value=(1 << 96) - 1).map(BinaryPoly)
small_polys = st.integers(min_value=0, max_value=(1 << 48) - 1).map(BinaryPoly)
nonzero = st.integers(min_value=1, max_value=(1 << 96) - 1).map(BinaryPoly)
moduli = st.integers(min_value=1, max_value=64).map(RingModulus)


def P(text, modulus=None):
    return BinaryPoly.parse(text, modulus)


class TestParse:
    def test_basic_forms(self):
        assert P("0").is_zero()
        assert P("").is_zero()
        assert P("1").bits == 1
        assert P("x").bits == 2
        assert P("1+x^2").bits == 0b101
        assert P(" 1 + x ^2 ".replace(" ^", "^")).bits == 0b101

    def test_repeated_terms_cancel(self):
        assert P("x^3+x^3").is_zero()
        assert P("1+x+1").bits == 2

    def test_hex_form(self):
        assert P("0x1f").bits == 31
        assert P("0X10").bits == 16

    def test_negative_exponent_needs_modulus(self):
        assert P("x^-100", RingModulus(376)).exponents() == [276]
        with pytest.raises(ValueError):
            P("x^-1")

    def test_modulus_reduces_every_exponent(self):
        assert P("1+x^7+x^13", RingModulus(5)) == P("1+x^2+x^3")
        assert P("x^99999999999999999999999", RingModulus(4)) == P("x^3")

    def test_rejects_garbage(self):
        for bad in ("y", "x**2", "2x", "x^", "1-x"):
            with pytest.raises(ValueError):
                P(bad)

    @given(polys)
    def test_to_text_round_trip(self, a):
        assert P(a.to_text()) == a

    def test_to_text_ascending(self):
        assert BinaryPoly(0b1101).to_text() == "1+x^2+x^3"
        assert BinaryPoly(0).to_text() == "0"
        assert BinaryPoly(2).to_text() == "x"


class TestBasics:
    def test_from_exponents(self):
        assert BinaryPoly.from_exponents([0, 2]) == P("1+x^2")
        assert BinaryPoly.from_exponents([1, 1]).is_zero()
        with pytest.raises(ValueError):
            BinaryPoly.from_exponents([-1])

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError):
            BinaryPoly(-1)

    def test_degree_weight_exponents(self):
        assert BinaryPoly(0).degree == float("-inf")
        assert P("1+x^4").degree == 4
        assert P("1+x^4").weight() == 2
        assert P("x+x^9").exponents() == [1, 9]

    @given(polys, polys)
    def test_add_is_involutive_xor(self, a, b):
        assert (a + b) + b == a
        assert (a + a).is_zero()

    @given(small_polys, small_polys, small_polys)
    def test_mul_commutes_and_distributes(self, a, b, c):
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(polys, nonzero)
    def test_divmod_identity(self, a, b):
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(P("1+x"), BinaryPoly(0))


class TestGcd:
    @given(polys, polys)
    def test_gcd_divides_both(self, a, b):
        g = gcd(a, b)
        if g.is_zero():
            assert a.is_zero() and b.is_zero()
        else:
            assert (a % g).is_zero()
            assert (b % g).is_zero()

    @given(polys)
    def test_gcd_with_zero(self, a):
        assert gcd(a, BinaryPoly(0)) == a
        assert gcd(BinaryPoly(0), a) == a

    @given(polys, polys)
    def test_xgcd_certificate(self, a, b):
        g, u, v = xgcd(a, b)
        assert u * a + v * b == g
        assert g == gcd(a, b)


class TestRingModulus:
    def test_validation(self):
        with pytest.raises(ValueError):
            RingModulus(0)

    def test_folds_xn_to_one(self):
        m = RingModulus(4)
        assert m.reduce(P("x^4+1")).is_zero()
        assert m.reduce(P("x^5")) == P("x")

    @given(polys, moduli)
    def test_reduce_matches_plain_remainder(self, a, m):
        assert m.reduce(a) == a % m.poly

    @given(small_polys, small_polys, moduli)
    def test_mul_is_reduced_product(self, a, b, m):
        assert m.mul(a, b) == m.reduce(a * b)

    def test_equality_and_hash(self):
        assert RingModulus(7) == RingModulus(7)
        assert RingModulus(7) != RingModulus(8)
        assert hash(RingModulus(7)) == hash(RingModulus(7))


class TestInverse:
    def test_known_inverse(self):
        m = RingModulus(4)
        inv = inverse_mod(P("1+x^2+x^3"), m)
        assert inv == P("1+x+x^2")
        assert m.mul(inv, P("1+x^2+x^3")).bits == 1

    def test_not_invertible(self):
        with pytest.raises(NotInvertible):
            inverse_mod(P("1+x"), RingModulus(4))
        assert issubclass(NotInvertible, ValueError)

    @given(nonzero, moduli)
    def test_inverse_certificate(self, a, m):
        try:
            inv = inverse_mod(a, m)
        except NotInvertible:
            assert gcd(m.reduce(a), m.poly).bits != 1
        else:
            assert m.mul(a, inv).bits == 1

    @pytest.mark.parametrize("N", range(1, 13))
    def test_is_unit_on_every_residue(self, N):
        # x^2+x+1 divides x^N+1 when 3 | N, so odd weight alone is not enough.
        m = RingModulus(N)
        for bits in range(1 << N):
            a = BinaryPoly(bits)
            assert is_unit(a, m) == (gcd(a, m.poly).bits == 1)

    @given(polys, moduli)
    def test_is_unit_needs_no_reduction(self, a, m):
        assert is_unit(a, m) == is_unit(m.reduce(a), m) == (gcd(a, m.poly).bits == 1)


class TestTranspose:
    def test_monomial_map(self):
        m = RingModulus(45)
        for k in (0, 1, 27, 33, 44):
            expect = BinaryPoly(1 << ((45 - k) % 45))
            assert transpose_poly(BinaryPoly(1 << k), m) == expect

    @given(st.integers(min_value=0, max_value=(1 << 96) - 1), moduli)
    def test_matches_definition(self, bits, m):
        # Includes a = 0 and N = 1 (every a reduces to 0 or 1 there).
        a = BinaryPoly(bits)
        want = BinaryPoly.from_exponents((m.N - e) % m.N for e in m.reduce(a).exponents())
        assert transpose_poly(a, m) == want

    def test_edge_cases(self):
        one = RingModulus(1)
        assert transpose_poly(BinaryPoly(0), one) == BinaryPoly(0)
        assert transpose_poly(P("1+x+x^2"), one) == BinaryPoly(1)
        assert transpose_poly(P("x^2"), one) == BinaryPoly(1)
        assert transpose_poly(BinaryPoly(0), RingModulus(7)) == BinaryPoly(0)

    @given(polys, moduli)
    def test_involution(self, a, m):
        assert transpose_poly(transpose_poly(a, m), m) == m.reduce(a)

    @given(small_polys, small_polys, moduli)
    def test_ring_automorphism(self, a, b, m):
        lhs = transpose_poly(m.mul(a, b), m)
        rhs = m.mul(transpose_poly(a, m), transpose_poly(b, m))
        assert lhs == rhs


class TestBitPositions:
    @given(st.integers(min_value=0, max_value=(1 << 1200) - 1))
    @example(0)
    @example(1 << 1000)
    @example((1 << 1100) - 1)
    def test_matches_naive_scan(self, bits):
        want = [k for k in range(bits.bit_length()) if bits >> k & 1]
        assert bit_positions(bits) == want
        assert BinaryPoly(bits).exponents() == want
