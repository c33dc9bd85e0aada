"""Binary polynomial arithmetic, plain and modulo x^N + 1.

Polynomials over GF(2) are bit-packed into Python ints: bit k holds the
coefficient of x^k.  All plain operations (+, *, divmod, gcd) happen in
GF(2)[x]; ring operations modulo x^N + 1 go through a RingModulus.
``clmul`` is the one product, on the ints themselves, so a caller that
sums many products (polymat's matrix product and minors) makes one
BinaryPoly per sum rather than one per term.
"""

from __future__ import annotations

import re


class NotInvertible(ValueError):
    """Raised when an element has no inverse modulo x^N + 1."""


def clmul(a, b):
    """Carry-less product of two bit-packed polynomials: their product in GF(2)[x].

    One shifted copy of the denser operand is XORed in per set bit of the
    sparser one.
    """
    if a.bit_count() > b.bit_count():
        a, b = b, a
    r = 0
    while a:
        low = a & -a
        r ^= b << (low.bit_length() - 1)
        a ^= low
    return r


def bit_positions(bits):
    """Ascending positions of the set bits of a nonnegative int."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


_TERM_RE = re.compile(r"^(1|x(\^(-?\d+))?)$")


class BinaryPoly:
    """A polynomial over GF(2), coefficients bit-packed into an int."""

    __slots__ = ("bits",)

    def __init__(self, bits=0):
        if bits < 0:
            raise ValueError("coefficient bits must be nonnegative")
        self.bits = bits

    @classmethod
    def parse(cls, text, modulus=None):
        """Parse '1+x^27+x^33' or compact hex '0x...'.

        Given a modulus, every exponent is reduced mod N, so x^-100 and
        x^(N + 1) read as in the ring; without one, negative exponents are
        rejected.  Repeated terms cancel.
        """
        text = text.strip()
        if text in ("0", ""):
            return cls(0)
        if text.startswith(("0x", "0X")):
            return cls(int(text, 16))
        bits = 0
        for term in text.replace(" ", "").split("+"):
            m = _TERM_RE.match(term)
            if not m:
                raise ValueError(f"bad polynomial term: {term!r}")
            if term == "1":
                e = 0
            elif term == "x":
                e = 1
            else:
                e = int(m.group(3))
            if modulus is not None:
                e %= modulus.N
            elif e < 0:
                raise ValueError(f"negative exponent {e} needs a modulus")
            bits ^= 1 << e
        return cls(bits)

    @property
    def degree(self):
        """Degree of the polynomial; -inf for the zero polynomial."""
        if self.bits == 0:
            return float("-inf")
        return self.bits.bit_length() - 1

    def weight(self):
        """Number of nonzero coefficients."""
        return self.bits.bit_count()

    def exponents(self):
        """Sorted exponents of the nonzero terms."""
        return bit_positions(self.bits)

    def is_zero(self):
        return self.bits == 0

    def __bool__(self):
        return self.bits != 0

    def __eq__(self, other):
        if isinstance(other, BinaryPoly):
            return self.bits == other.bits
        return NotImplemented

    def __hash__(self):
        return hash(("BinaryPoly", self.bits))

    def __add__(self, other):
        return BinaryPoly(self.bits ^ other.bits)

    __sub__ = __add__

    def __mul__(self, other):
        return BinaryPoly(clmul(self.bits, other.bits))

    def __lshift__(self, k):
        return BinaryPoly(self.bits << k)

    def __divmod__(self, other):
        q, r = _divmod_bits(self.bits, other.bits)
        return BinaryPoly(q), BinaryPoly(r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def to_text(self):
        if self.bits == 0:
            return "0"
        parts = []
        for e in self.exponents():
            if e == 0:
                parts.append("1")
            elif e == 1:
                parts.append("x")
            else:
                parts.append(f"x^{e}")
        return "+".join(parts)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"BinaryPoly({self.to_text()!r})"


def _divmod_bits(a, b):
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    length = b.bit_length()
    q = 0
    shift = a.bit_length() - length
    while shift >= 0:
        q ^= 1 << shift
        a ^= b << shift
        shift = a.bit_length() - length
    return q, a


def gcd(a, b):
    """Greatest common divisor in GF(2)[x]; gcd(0, 0) = 0.

    Euclid on remainders alone: while y is nonzero, x loses its leading
    term to a shift of y, or the two swap once x falls below y. ``length``
    is y's bit length, carried across a swap rather than recounted.
    """
    x, y = a.bits, b.bits
    length = y.bit_length()
    while y:
        shift = x.bit_length() - length
        if shift < 0:
            x, y, length = y, x, length + shift
        else:
            x ^= y << shift
    return BinaryPoly(x)


class RingModulus:
    """The ring GF(2)[x]/(x^N + 1) for a given N >= 1.

    ``poly``, x^N + 1 itself, is built on first use: reducing by the ring
    needs only N, so naming a ring whose size is still to be checked
    holds no N-bit number.
    """

    __slots__ = ("N", "_poly")

    def __init__(self, N):
        if N < 1:
            raise ValueError("N must be at least 1")
        self.N = N
        self._poly = None

    @property
    def poly(self):
        if self._poly is None:
            self._poly = BinaryPoly((1 << self.N) | 1)
        return self._poly

    def reduce(self, a):
        """Reduce a plain polynomial modulo x^N + 1 (folds x^N -> 1).

        An a with no bit at or above x^N is already reduced and comes back
        as is, so reducing again allocates nothing.
        """
        bits, N = a.bits, self.N
        if not bits >> N:
            return a
        mask = (1 << N) - 1
        while bits >> N:
            bits = (bits & mask) ^ (bits >> N)
        return BinaryPoly(bits)

    def mul(self, a, b):
        return self.reduce(a * b)

    def __eq__(self, other):
        if isinstance(other, RingModulus):
            return self.N == other.N
        return NotImplemented

    def __hash__(self):
        return hash(("RingModulus", self.N))

    def __repr__(self):
        return f"RingModulus({self.N})"


def is_unit(a, modulus):
    """True when a is invertible modulo x^N + 1.

    x + 1 divides x^N + 1 and every even-weight polynomial, so a unit has
    odd weight; a monomial always is one, and any other odd-weight a is
    one when gcd(a, x^N + 1) = 1. Folding x^N to 1 keeps both the parity
    of the weight and the gcd, so a need not be reduced.
    """
    weight = a.bits.bit_count()
    return weight % 2 == 1 and (weight == 1 or gcd(a, modulus.poly).bits == 1)


def inverse_mod(a, modulus):
    """Inverse of a modulo x^N + 1; raises NotInvertible if none exists.

    ``gcd``'s loop on a and x^N + 1, each remainder carrying its cofactor
    of a: x = u·a and y = w·a modulo x^N + 1, so u is the inverse once
    the gcd x is 1.
    """
    x, y = modulus.reduce(a).bits, modulus.poly.bits
    u, w = 1, 0
    length = y.bit_length()
    while y:
        shift = x.bit_length() - length
        if shift < 0:
            x, y, u, w, length = y, x, w, u, length + shift
        else:
            x ^= y << shift
            u ^= w << shift
    if x != 1:
        raise NotInvertible(f"gcd with x^{modulus.N}+1 is {BinaryPoly(x)}, not 1")
    return modulus.reduce(BinaryPoly(u))


# Byte b reversed: bit k of b is bit 7 - k of _REVERSED_BYTES[b].
_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def transpose_poly(a, modulus):
    """Map sum x^e to sum x^((N-e) mod N); the circulant-transpose map.

    This is a ring automorphism of GF(2)[x]/(x^N + 1) and an involution.
    Reversing the N-bit word sends e to N-1-e, and a one-bit left
    rotation then gives N-e mod N. The word is reversed a byte at a time:
    its B = ceil(N / 8) little-endian bytes, each reversed by table and
    read big-endian, put bit e at 8B-1-e, and a shift right by 8B-N
    leaves it at N-1-e.
    """
    N = modulus.N
    size = (N + 7) // 8
    word = modulus.reduce(a).bits.to_bytes(size, "little").translate(_REVERSED_BYTES)
    rev = int.from_bytes(word, "big") >> (8 * size - N)
    return BinaryPoly(((rev << 1) | (rev >> (N - 1))) & ((1 << N) - 1))
