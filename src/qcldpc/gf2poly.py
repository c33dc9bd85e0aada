"""Binary polynomial arithmetic, plain and modulo x^N + 1.

Polynomials over GF(2) are bit-packed into Python ints: bit k holds the
coefficient of x^k.  All plain operations (+, *, divmod, gcd) happen in
GF(2)[x]; ring operations modulo x^N + 1 go through a RingModulus.
"""

from __future__ import annotations

import re


class NotInvertible(ValueError):
    """Raised when an element has no inverse modulo x^N + 1."""


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
    def from_exponents(cls, exponents):
        bits = 0
        for e in exponents:
            if e < 0:
                raise ValueError("negative exponent outside ring context")
            bits ^= 1 << e
        return cls(bits)

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
        a, b, r = self.bits, other.bits, 0
        if a.bit_count() > b.bit_count():
            a, b = b, a
        while a:
            low = a & -a
            r ^= b << (low.bit_length() - 1)
            a ^= low
        return BinaryPoly(r)

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


ZERO = BinaryPoly(0)
ONE = BinaryPoly(1)


def _divmod_bits(a, b):
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    db = b.bit_length() - 1
    q = 0
    while a.bit_length() - 1 >= db and a:
        shift = a.bit_length() - 1 - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def gcd(a, b):
    """Greatest common divisor in GF(2)[x]; gcd(0, 0) = 0."""
    x, y = a.bits, b.bits
    while y:
        if x.bit_length() < y.bit_length():
            x, y = y, x
            continue
        x = _divmod_bits(x, y)[1]
        x, y = y, x
    return BinaryPoly(x)


def xgcd(a, b):
    """Extended gcd: returns (g, u, v) with u*a + v*b = g in GF(2)[x]."""
    r0, r1 = a, b
    u0, u1 = ONE, ZERO
    v0, v1 = ZERO, ONE
    while r1:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 + q * u1
        v0, v1 = v1, v0 + q * v1
    return r0, u0, v0


class RingModulus:
    """The ring GF(2)[x]/(x^N + 1) for a given N >= 1."""

    __slots__ = ("N", "poly")

    def __init__(self, N):
        if N < 1:
            raise ValueError("N must be at least 1")
        self.N = N
        self.poly = BinaryPoly((1 << N) | 1)

    def reduce(self, a):
        """Reduce a plain polynomial modulo x^N + 1 (folds x^N -> 1)."""
        bits, N = a.bits, self.N
        mask = (1 << N) - 1
        while bits >> N:
            bits = (bits & mask) ^ (bits >> N)
        return BinaryPoly(bits)

    def add(self, a, b):
        return self.reduce(a + b)

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
    """Inverse of a modulo x^N + 1; raises NotInvertible if none exists."""
    a = modulus.reduce(a)
    g, u, _ = xgcd(a, modulus.poly)
    if g.bits != 1:
        raise NotInvertible(f"gcd with x^{modulus.N}+1 is {g}, not 1")
    return modulus.reduce(u)


def transpose_poly(a, modulus):
    """Map sum x^e to sum x^((N-e) mod N); the circulant-transpose map.

    This is a ring automorphism of GF(2)[x]/(x^N + 1) and an involution.
    Reversing the N-bit word sends e to N-1-e, and a one-bit left
    rotation then gives N-e mod N.
    """
    N = modulus.N
    rev = int(format(modulus.reduce(a).bits, f"0{N}b")[::-1], 2)
    return BinaryPoly(((rev << 1) | (rev >> (N - 1))) & ((1 << N) - 1))
