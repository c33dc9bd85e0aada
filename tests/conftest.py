"""Shared helpers: bundled data, component codes, display conversions.

Worked displays in the test suite come in two senses.  A generator-sense
row r satisfies G * transpose_entrywise(H) = 0 and its binary codeword
is the concatenation of the transposed entries; the plain display is the
entrywise transpose of r, which satisfies sum_j h_ij * c_j = 0 directly.
Helpers below convert between the two so each frozen anchor can be
asserted in the sense it is stated in.
"""

import os

import pytest
from hypothesis import settings

import qcldpc
from qcldpc.gf2poly import BinaryPoly, RingModulus, transpose_poly
from qcldpc.gldpc import ComponentCode
from qcldpc.polymat import PolyMatrix, read_pmx

DATA_DIR = os.path.join(os.path.dirname(qcldpc.__file__), "data")

# HYPOTHESIS_PROFILE=ci replays the same examples on every run and drops
# the per-example deadline, so a slow runner cannot fail a property test.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def data_path(name):
    return os.path.join(DATA_DIR, name)


def P(text, modulus=None):
    return BinaryPoly.parse(text, modulus)


def plain_display(row, modulus):
    """Generator-sense row -> the plain codeword form used in displays."""
    return tuple(transpose_poly(p, modulus) for p in row)


def row_bits(row, modulus):
    """Binary codeword bits of a generator-sense polynomial row."""
    N = modulus.N
    bits = 0
    for j, p in enumerate(row):
        bits |= transpose_poly(p, modulus).bits << (j * N)
    return bits


def plain_bits(row, modulus):
    """Binary bits of a plain-display polynomial vector."""
    N = modulus.N
    bits = 0
    for j, p in enumerate(row):
        bits |= modulus.reduce(p).bits << (j * N)
    return bits


def in_kernel(Hb, bits):
    """True when the bit-packed word has zero syndrome against Hb."""
    return all((r & bits).bit_count() % 2 == 0 for r in Hb.rows)


def random_poly_matrix(rng, nrows, ncols, N):
    return poly_matrix([[rng.getrandbits(N) for _ in range(ncols)] for _ in range(nrows)], N)


def poly_matrix(bit_rows, N):
    """PolyMatrix over x^N + 1 from rows of coefficient bit masks."""
    return PolyMatrix([[BinaryPoly(b) for b in row] for row in bit_rows], RingModulus(N))


def large_component_spec():
    """A 138-bit GLDPC spec over x^3 + 1 whose first row takes a 20 x 46 component.

    Its q * 2^p = 46 * 2^20 trellis table is past the decoder's kernel
    bound; its generator, girth and distance stay small.
    """
    parity = [
        "".join("1" if (c + r) % 3 == 0 else "0" for c in range(26))
        + "0" * r + "1" + "0" * (19 - r)
        for r in range(20)
    ]
    return {
        "N": 3, "exponents": [k % 3 for k in range(46)],
        "assignment": [{"parity": parity}, None],
    }


def hamming64():
    """[6,3] shortened Hamming parity in [M | I] form."""
    return ComponentCode(
        [[1, 1, 0, 1, 0, 0], [1, 0, 1, 0, 1, 0], [0, 1, 1, 0, 0, 1]]
    )


def hamming74():
    """[7,4] Hamming parity in [M | I] form."""
    return ComponentCode(
        [[1, 1, 1, 0, 1, 0, 0], [1, 1, 0, 1, 0, 1, 0], [1, 0, 1, 1, 0, 0, 1]]
    )


def permuted74():
    """Column permutation of hamming74 used as a second constraint."""
    return ComponentCode(
        [[1, 0, 0, 1, 1, 1, 0], [0, 1, 0, 1, 1, 0, 1], [0, 0, 1, 1, 0, 1, 1]]
    )


@pytest.fixture
def ex1():
    """Three-row example matrix, entries unreduced (no modulus)."""
    return read_pmx(data_path("ex1.pmx"))


@pytest.fixture
def ar4ja():
    return read_pmx(data_path("ar4ja.pmx"), RingModulus(4))
