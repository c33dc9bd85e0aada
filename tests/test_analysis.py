"""Girth computation and distance bounds.

The girth oracle here removes one edge at a time and measures the
shortest path between its endpoints, which is exact on the small random
graphs used. Two distance oracles enumerate every message on Python ints:
directly, and by a Gray-code sweep that reaches the larger dimensions.
The search oracle runs every information-set round on its own, one
big-int elimination at a time, as the draws come. The random
combinations' block path is checked against their scalar replay, which
is numpy's own ``integers``/``choice`` calls one combination at a time
(``numpy_combinations``, the loop the sequential search uses too): on
seeded generators, and on PCG64 generators set to give a chosen raw word
where Lemire's method then redraws halves.
"""

import math
import random
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import P, in_kernel, poly_matrix, random_poly_matrix
from qcldpc import analysis
from qcldpc.analysis import (
    BudgetExceeded,
    DistanceReport,
    bounds_combine,
    girth,
    low_weight_search,
    min_distance_exact,
)
from qcldpc.binmat import BinMatrix
from qcldpc.binmat import rank as rank_scalar
from qcldpc.construct import generator_case1
from qcldpc.gf2poly import BinaryPoly, RingModulus
from qcldpc.gldpc import base_from_exponents, construct_generator, load_spec
from qcldpc.polymat import PolyMatrix, circulant_expand, read_pmx
from conftest import data_path


def edge_removal_girth(Hb):
    """Exact girth: shortest u-v path after deleting each edge (u, v)."""
    m = Hb.nrows
    adj = [set() for _ in range(m + Hb.ncols)]
    for i, bits in enumerate(Hb.rows):
        b = bits
        while b:
            j = (b & -b).bit_length() - 1
            adj[i].add(m + j)
            adj[m + j].add(i)
            b &= b - 1
    best = math.inf
    for u in range(len(adj)):
        for v in adj[u]:
            if v < u:
                continue
            dist = {u: 0}
            queue = deque([u])
            while queue:
                a = queue.popleft()
                if a == v:
                    break
                for b in adj[a]:
                    if (a, b) == (u, v) or (b, a) == (v, u):
                        continue
                    if b not in dist:
                        dist[b] = dist[a] + 1
                        queue.append(b)
            if v in dist:
                best = min(best, dist[v] + 1)
    return best


def over_n_1(Hb):
    """The bits of a binary matrix as a polynomial matrix over N = 1."""
    return poly_matrix([[Hb.get(i, j) for j in range(Hb.ncols)] for i in range(Hb.nrows)], 1)


def brute_min_distance(Gb):
    best = 0
    for msg in range(1, 1 << Gb.nrows):
        word = 0
        for i in range(Gb.nrows):
            if msg >> i & 1:
                word ^= Gb.rows[i]
        if word:
            w = word.bit_count()
            if best == 0 or w < best:
                best = w
    return best


def gray_min_distance(Gb):
    """One XOR and one popcount per message, in Gray-code order."""
    best = 0
    word = 0
    for i in range(1, 1 << Gb.nrows):
        word ^= Gb.rows[(i & -i).bit_length() - 1]
        if word:
            w = word.bit_count()
            if best == 0 or w < best:
                best = w
    return best


def numpy_combinations(rng, k, count):
    """The row indices of ``count`` sparse combinations, by numpy's own calls.

    This is the draw loop ``low_weight_search`` replays from raw words.
    """
    for _ in range(count):
        size = min(int(rng.integers(2, 5)), k)
        yield rng.choice(k, size=size, replace=False).tolist()


def combination_word(rows, picked):
    word = 0
    for t in picked:
        word ^= rows[t]
    return word


def echelon_rows(rows, perm):
    """The nonzero rows of the reduced echelon form under column order ``perm``, in pivot order."""
    work = list(rows)
    k = len(work)
    r_idx = 0
    for col in perm:
        mask = 1 << int(col)
        sel = next((t for t in range(r_idx, k) if work[t] & mask), None)
        if sel is None:
            continue
        work[r_idx], work[sel] = work[sel], work[r_idx]
        for t in range(k):
            if t != r_idx and work[t] & mask:
                work[t] ^= work[r_idx]
        r_idx += 1
        if r_idx == k:
            break
    return work[:r_idx]


def sequential_low_weight_search(Gb, iterations=100_000, seed=0):
    """low_weight_search with each information-set round reduced as it is drawn."""
    rows = Gb.rows
    k = Gb.nrows
    best_w = 0
    best_word = 0
    evals = 0

    def consider(word):
        nonlocal best_w, best_word
        if not word:
            return
        w = word.bit_count()
        if best_w == 0 or w < best_w:
            best_w, best_word = w, word

    for r in rows:
        consider(r)
        evals += 1
    done = evals >= iterations
    for i in range(k):
        if done:
            break
        for j in range(i + 1, k):
            consider(rows[i] ^ rows[j])
            evals += 1
            if evals >= iterations:
                done = True
                break

    rng = np.random.default_rng(seed)
    while evals < iterations:
        if evals % 500 == 0:
            work = echelon_rows(rows, rng.permutation(Gb.ncols))
            if not work:
                break
            for t in range(len(work)):
                consider(work[t])
                evals += 1
                if evals >= iterations:
                    break
        else:
            for picked in numpy_combinations(rng, k, 1):
                consider(combination_word(rows, picked))
            evals += 1

    return DistanceReport(
        upper=best_w,
        lower=1 if best_w else 0,
        witness=best_word if best_w else 0,
        ncols=Gb.ncols,
        method=f"row sweep + {iterations} randomized evaluations, seed {seed}",
    )


@st.composite
def generators(draw, max_rows=17):
    """Rows across word boundaries: random, sparse, zero, repeated, dependent."""
    ncols = draw(st.sampled_from([1, 7, 63, 64, 65, 127, 128, 129]))
    k = draw(st.integers(0, max_rows))
    rows = []
    for _ in range(k):
        kind = draw(st.sampled_from(["random", "sparse", "zero", "repeat", "sum"]))
        if kind == "random":
            row = draw(st.integers(0, (1 << ncols) - 1))
        elif kind == "sparse":
            row = sum(1 << c for c in draw(st.sets(st.integers(0, ncols - 1), max_size=3)))
        elif kind == "zero" or not rows:
            row = 0
        elif kind == "repeat":
            row = draw(st.sampled_from(rows))
        else:
            row = draw(st.sampled_from(rows)) ^ draw(st.sampled_from(rows))
        rows.append(row)
    return BinMatrix(rows, ncols)


@st.composite
def tanner_poly_matrices(draw):
    """1-3 x 1-4 matrices over N = 1..6 with zero, one-term and many-term entries."""
    N = draw(st.integers(1, 6))
    nrows, ncols = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    term = st.integers(0, N - 1)
    entry = st.one_of(
        st.just(0),
        term.map(lambda e: 1 << e),
        st.sets(term, min_size=min(2, N), max_size=3).map(lambda es: sum(1 << e for e in es)),
    )
    rows = draw(st.lists(
        st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows
    ))
    return poly_matrix(rows, N)


@st.composite
def tanner_bin_matrices(draw):
    """1-6 x 1-12 binary matrices of low row weight, zero rows included."""
    ncols = draw(st.integers(1, 12))
    columns = st.sets(st.integers(0, ncols - 1), max_size=4)
    row = columns.map(lambda cs: sum(1 << c for c in cs))
    return BinMatrix(draw(st.lists(row, min_size=1, max_size=6)), ncols)


@st.composite
def dense_generators(draw):
    """Dense random rows, one maybe repeated: the rounds' rows beat the sweep's."""
    ncols = draw(st.sampled_from([20, 30, 64, 65, 129]))
    rows = draw(st.lists(st.integers(0, (1 << ncols) - 1), min_size=2, max_size=24))
    if draw(st.booleans()):
        rows.append(rows[0] ^ rows[-1])
    return BinMatrix(rows, ncols)


@st.composite
def tied_generators(draw):
    """Up to 60 rows of few kinds, so that equal weights fall in many blocks.

    Each row is zero or one of up to four patterns of one weight, on top
    of a shared mask that may be dense. Under a dense mask the single rows
    are heavy and the pairs of distinct patterns light, so ties among
    pairs decide; under none, ties among single rows do.
    """
    ncols = draw(st.sampled_from([7, 64, 65, 129]))
    weight = draw(st.integers(1, min(ncols, 5)))
    column_sets = st.sets(st.integers(0, ncols - 1), min_size=weight, max_size=weight)
    pool = draw(st.lists(column_sets.map(lambda cs: sum(1 << c for c in cs)), min_size=1, max_size=4))
    mask = draw(st.sampled_from([0, (1 << ncols) - 1, draw(st.integers(0, (1 << ncols) - 1))]))
    rows = draw(st.lists(st.sampled_from([0, *pool]), max_size=60))
    return BinMatrix([r and r ^ mask for r in rows], ncols)


@st.composite
def repeated_column_generators(draw):
    """Rows over a few distinct columns, each repeated from once to dozens of times.

    A round's pivots fall on the first copy of each independent column
    in its order, so how many columns it takes to reach full rank varies
    widely from one column order to the next.
    """
    k = draw(st.integers(2, 16))
    distinct = draw(st.integers(1, 10))
    base = draw(st.lists(st.integers(0, (1 << distinct) - 1), min_size=k, max_size=k))
    copies = draw(st.lists(st.integers(1, 40), min_size=distinct, max_size=distinct))
    zeros = draw(st.integers(0, 30))
    layout = [c for c, n in enumerate(copies) for _ in range(n)] + [None] * zeros
    layout = draw(st.permutations(layout))
    rows = [
        sum(1 << j for j, c in enumerate(layout) if c is not None and b >> c & 1) for b in base
    ]
    return BinMatrix(rows, len(layout))


@st.composite
def circulant_generators(draw):
    """circulant_expand of a polynomial generator over x^N + 1, N in 1..7.

    Entries come from a pool that holds zero, every entry x^0 + x^d +
    x^2d + ... with d a divisor of N (d < N turns into itself after d
    shifts, so its rotations repeat with period d; d = 1 is the all-ones
    entry) and a few random ones. A block row is fresh, zero, or a copy
    of an earlier one. Up to 12 block columns reach two 64-bit words.
    """
    N = draw(st.integers(1, 7))
    full = (1 << N) - 1
    periodic = [full // ((1 << d) - 1) for d in range(1, N + 1) if N % d == 0]
    pool = [0, *periodic, *draw(st.lists(st.integers(0, full), min_size=1, max_size=3))]
    width = draw(st.integers(1, 12))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["fresh", "zero", "copy"]))
        if kind == "zero":
            rows.append([0] * width)
        elif kind == "copy" and rows:
            rows.append(draw(st.sampled_from(rows)))
        else:
            rows.append(draw(st.lists(st.sampled_from(pool), min_size=width, max_size=width)))
    H = PolyMatrix([[BinaryPoly(e) for e in row] for row in rows], RingModulus(N))
    return circulant_expand(H)


# Over x^6 + 1, entries [1, J, J] and [x + x^4, J, J], J all ones, give
# rows (0, 0) = (1, J, J) and (1, 0) = (x^2 + x^5, J, J), the entries'
# transposes. The rows weigh 13 and 14, and rows (0, s) and (1, t) XOR
# to weight 1 where t - s = 1 or 4 (mod 6), else 3: row (0, 0) meets
# weight 1 at t = 1, shift difference s - t = 5, before t = 4, the
# smaller difference 2. x + x^4 has period 3, so pairs (1, s) and
# (1, s + 3) are zero.
TIED_SHIFTS = circulant_expand(
    PolyMatrix(
        [[BinaryPoly(e) for e in row] for row in [[0b1, 0b111111, 0b111111], [0b10010, 0b111111, 0b111111]]],
        RingModulus(6),
    )
)


TIED_PAIRS = BinMatrix([(2**64 - 1) ^ p for p in (0b11, 0b11000, 0b101000, 0b101)], 64)


def swept_in_order(Gb, iterations):
    """(weight, evaluation, word) of the lightest single row or pair, by enumeration."""
    rows, k = Gb.rows, Gb.nrows
    words = list(rows)
    words += [rows[i] ^ rows[j] for i in range(k) for j in range(i + 1, k)]
    words = words[: max(k, iterations)]
    rated = [(w.bit_count(), at, w) for at, w in enumerate(words) if w]
    return min(rated, default=None)


def crafted_generator(p, word, buffered=None):
    """A PCG64 generator whose raw 64-bit output at position ``p`` is ``word``.

    PCG64's output from a state with high half 0 and low half W is W, and
    stepping 2^128 - (p + 1) times is stepping back p + 1 times, so the
    generator reaches that state with its (p + 1)-th output. The words
    before and after are PCG64's own. ``buffered`` is a 32-bit half the
    generator holds for its next bounded draw.
    """
    bitgen = np.random.PCG64(0)
    state = bitgen.state
    state["state"]["state"] = word
    bitgen.state = state
    bitgen.advance(2**128 - (p + 1))
    if buffered is not None:
        state = bitgen.state
        state["has_uint32"], state["uinteger"] = 1, buffered
        bitgen.state = state
    return np.random.Generator(bitgen)


def numpy_lightest(rows, rng, first, count):
    """(weight, evaluation, word) of the lightest of ``count`` combinations numpy draws."""
    rated = []
    for at, picked in enumerate(numpy_combinations(rng, len(rows), count), first):
        word = combination_word(rows, picked)
        if word:
            rated.append((word.bit_count(), at, word))
    return min(rated)


def position(rng):
    """A generator's state, less the stale half numpy keeps once it used it."""
    state = rng.bit_generator.state
    return state["state"], state["has_uint32"] and state["uinteger"]


def redrawn_halves(rng, k, combination):
    """Halves numpy redraws in combination ``combination`` (0 = first) on ``rng``.

    The combinations before it are drawn first. Without redraws a
    combination of size s takes 2s halves, 2s - 1 when s = k; the halves
    it took are counted by stepping a copy of the generator to where
    numpy's calls left it.
    """
    draws = numpy_combinations(rng, k, combination + 1)
    for _ in range(combination):
        next(draws)
    start = rng.bit_generator.state
    size = len(next(draws))
    end = rng.bit_generator.state
    copy = np.random.PCG64(0)
    copy.state = start
    words = 0
    while copy.state["state"] != end["state"]:
        copy.random_raw()
        words += 1
    taken = 2 * words + start["has_uint32"] - end["has_uint32"]
    return taken - (2 * size - (size == k))


def ar4ja_generator():
    H = read_pmx(data_path("ar4ja.pmx"), RingModulus(4))
    result, _ = generator_case1(H)
    return result.matrix


class TestGirth:
    def test_four_cycle(self):
        assert girth(poly_matrix([[1, 1], [1, 1]], 1)) == 4

    def test_six_cycle(self):
        assert girth(poly_matrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]], 1)) == 6

    def test_tree_has_no_cycle(self):
        assert girth(poly_matrix([[1, 1, 0], [0, 0, 1]], 1)) == math.inf

    def test_duplicated_exponent_gives_four(self):
        H = base_from_exponents([0, 5, 5], RingModulus(7))
        assert girth(H) == 4

    def test_monomial_star_has_no_cycle(self):
        H = PolyMatrix([[P("1"), P("x^5"), P("x^5")]], RingModulus(7))
        assert girth(H) == math.inf

    def test_polynomial_matrix_needs_modulus(self):
        H = PolyMatrix([[P("1+x")]])
        with pytest.raises(ValueError, match="modulus"):
            girth(H)

    def test_matches_edge_removal_oracle_binary(self):
        rng = random.Random(70)
        for _ in range(30):
            rows = [rng.getrandbits(8) for _ in range(5)]
            Hb = BinMatrix(rows, 8)
            assert girth(over_n_1(Hb)) == edge_removal_girth(Hb)

    def test_block_symmetry_shortcut_matches_full_search(self):
        # Over N = 1 every variable node of the expansion is a root.
        rng = random.Random(71)
        for _ in range(20):
            H = random_poly_matrix(rng, 2, 3, 6)
            assert girth(H) == girth(over_n_1(circulant_expand(H)))

    @settings(max_examples=120, deadline=None)
    @given(tanner_poly_matrices())
    def test_matches_edge_removal_oracle_polynomial(self, H):
        want = edge_removal_girth(circulant_expand(H))
        assert girth(H) == want
        assert girth(over_n_1(circulant_expand(H))) == want

    @settings(max_examples=120, deadline=None)
    @given(tanner_bin_matrices(), st.sampled_from([1, 64, 1 << 16]))
    def test_binary_matches_oracle_in_any_root_batch(self, Hb, seen_bytes):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_GIRTH_SEEN_BYTES", seen_bytes)
            assert girth(over_n_1(Hb)) == edge_removal_girth(Hb)

    @pytest.mark.parametrize(
        "H",
        [
            poly_matrix([[0] * 4] * 2, 1),
            poly_matrix([[0, 0], [0, 0]], 5),
            poly_matrix([[0b1, 0b100, 0b10]], 3),
        ],
        ids=["zero-rows", "zero-poly", "one-monomial-row"],
    )
    def test_empty_and_acyclic(self, H):
        assert girth(H) == math.inf

    @pytest.mark.parametrize("seen_bytes", [1, 1 << 16])
    @pytest.mark.parametrize("column", [0, 1, 2, 3])
    def test_cycle_inside_one_block_column(self, column, seen_bytes):
        # 1 + x over x^2 + 1 is the all-ones 2 x 2 block, a 4-cycle; every
        # other variable has one check, so only that block's root finds it.
        bits = [[0b01] * 4]
        bits[0][column] = 0b11
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_GIRTH_SEEN_BYTES", seen_bytes)
            assert girth(poly_matrix(bits, 2)) == 4


class TestMinDistanceExact:
    def test_repetition_row(self):
        assert min_distance_exact(BinMatrix([0b11], 2)) == 2

    def test_matches_brute_enumeration(self):
        rng = random.Random(72)
        for _ in range(20):
            k = rng.randrange(1, 8)
            Gb = BinMatrix([rng.getrandbits(12) for _ in range(k)], 12)
            assert min_distance_exact(Gb) == brute_min_distance(Gb)

    def test_zero_row_space(self):
        assert min_distance_exact(BinMatrix([0, 0], 6)) == 0

    def test_budget_guard(self):
        Gb = BinMatrix([1 << i for i in range(25)], 25)
        with pytest.raises(BudgetExceeded):
            min_distance_exact(Gb)
        assert min_distance_exact(Gb, budget=1 << 25) == 1

    def test_known_small_code(self):
        Gb = circulant_expand(ar4ja_generator())
        assert Gb.shape == (8, 20)
        assert min_distance_exact(Gb) == 4

    @settings(max_examples=60, deadline=None)
    @given(generators())
    def test_matches_gray_sweep(self, Gb):
        assert min_distance_exact(Gb) == gray_min_distance(Gb)

    @settings(max_examples=40, deadline=None)
    @given(generators(max_rows=8), st.sampled_from([8, 16, 24, 64, 256]))
    def test_small_tables_match_gray_sweep(self, Gb, table_bytes):
        # A table too small for one row of words still holds the zero row.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_TABLE_BYTES", table_bytes)
            assert min_distance_exact(Gb) == gray_min_distance(Gb)

    @pytest.mark.parametrize("ncols", [63, 64, 65, 127, 128, 129])
    def test_walk_beyond_the_table(self, ncols):
        rng = random.Random(ncols)
        rows = [rng.getrandbits(ncols) for _ in range(16)]
        rows.append(rows[3] ^ rows[12])
        Gb = BinMatrix(rows, ncols)
        assert min_distance_exact(Gb) == gray_min_distance(Gb)

    def test_weight_in_the_last_word_only(self):
        Gb = BinMatrix([0b11 << 127, 1 << 128 | 1], 129)
        assert min_distance_exact(Gb) == 2


class TestLowWeightSearch:
    def test_zero_generator(self):
        report = low_weight_search(BinMatrix([0, 0], 4), iterations=10)
        assert report.upper == 0 and report.lower == 0

    @pytest.mark.parametrize(
        "rows, iterations", [([0, 0], 600), ([], 5)], ids=["zero-rows", "no-rows"]
    )
    def test_zero_row_space_ends(self, rows, iterations):
        report = low_weight_search(BinMatrix(rows, 4), iterations=iterations)
        assert report.upper == report.lower == 0

    def test_single_rows_always_swept(self):
        Gb = BinMatrix([0b111, 0b011], 3)
        report = low_weight_search(Gb, iterations=0)
        assert report.upper == 2
        assert report.witness == 0b011

    def test_deterministic_per_seed(self):
        Gb = circulant_expand(ar4ja_generator())
        a = low_weight_search(Gb, iterations=3000, seed=9)
        b = low_weight_search(Gb, iterations=3000, seed=9)
        assert a == b

    def test_more_iterations_never_worsen(self):
        Gb = circulant_expand(ar4ja_generator())
        small = low_weight_search(Gb, iterations=100, seed=5)
        large = low_weight_search(Gb, iterations=5000, seed=5)
        assert large.upper <= small.upper

    def test_finds_exact_distance_of_small_code(self):
        Gb = circulant_expand(ar4ja_generator())
        report = low_weight_search(Gb, iterations=5000, seed=0)
        assert report.upper == 4
        assert report.witness.bit_count() == 4

    def test_witness_is_a_codeword(self):
        H = read_pmx(data_path("ar4ja.pmx"), RingModulus(4))
        Gb = circulant_expand(ar4ja_generator())
        report = low_weight_search(Gb, iterations=2000, seed=3)
        assert in_kernel(circulant_expand(H), report.witness)

    @settings(max_examples=80, deadline=None)
    @given(generators(), st.integers(0, 2600), st.integers(0, 40))
    def test_matches_sequential_rounds(self, Gb, iterations, seed):
        # Budgets below k, inside the pair sweep, and ending mid-round.
        want = sequential_low_weight_search(Gb, iterations, seed)
        assert low_weight_search(Gb, iterations, seed) == want

    @settings(max_examples=40, deadline=None)
    @given(dense_generators(), st.integers(501, 3000), st.sampled_from([8, 600, 1 << 18]))
    def test_matches_sequential_rounds_in_any_batch(self, Gb, iterations, round_bytes):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_ROUND_BYTES", round_bytes)
            got = low_weight_search(Gb, iterations, 7)
        assert got == sequential_low_weight_search(Gb, iterations, 7)

    @settings(max_examples=80, deadline=None)
    @given(repeated_column_generators(), st.integers(0, 2**32 - 1), st.integers(1, 9))
    def test_round_batch_rates_what_each_round_rates_alone(self, Gb, seed, n_rounds):
        # Each round of the batch gets its last pivot at its own step and
        # then stays as it is while the others go on; the batch's lightest
        # row must be the lightest of the rows that each round's reduced
        # echelon form rates on its own, the budget ending inside the last
        # round.
        rank = rank_scalar(Gb)
        assume(rank > 0)
        rng = np.random.default_rng(seed)
        takes = [rank] * (n_rounds - 1) + [int(rng.integers(1, rank + 1))]
        rounds = [(rng.permutation(Gb.ncols), 500 * r, take) for r, take in enumerate(takes)]
        rated = [
            (word.bit_count(), first + t, word)
            for perm, first, take in rounds
            for t, word in enumerate(echelon_rows(Gb.rows, perm)[:take])
        ]
        words = analysis._packed_rows(Gb.rows, Gb.ncols)
        assert analysis._lightest_round_row(words, rounds, rank) == min(rated)

    @pytest.mark.parametrize("extra", [1, 37, 520, 1200])
    def test_sweep_ending_on_a_round(self, extra):
        # 375 rows give 375 + 375 * 374 / 2 = 70,500 sweep evaluations, a
        # multiple of 500, so the random phase opens with a round.
        rng = random.Random(extra)
        rows = [rng.getrandbits(40) for _ in range(375)]
        Gb = BinMatrix(rows, 40)
        iterations = 70_500 + extra
        want = sequential_low_weight_search(Gb, iterations, 2)
        assert low_weight_search(Gb, iterations, 2) == want

    def test_matches_sequential_rounds_on_a_code(self):
        Gb = circulant_expand(ar4ja_generator())
        for seed in range(4):
            want = sequential_low_weight_search(Gb, 4000, seed)
            assert low_weight_search(Gb, 4000, seed) == want

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_sequential_rounds_on_few_rows(self, k):
        # The size is capped at k, and for k <= 4 Floyd's draw at j = 0
        # is below 1, which consumes nothing; budgets cross round 500.
        rng = random.Random(k)
        for seed in range(3):
            rows = [rng.getrandbits(12) | 1 << rng.randrange(12) for _ in range(k)]
            Gb = BinMatrix(rows, 12)
            for iterations in (499, 500, 501, 1001, 1700):
                want = sequential_low_weight_search(Gb, iterations, seed)
                assert low_weight_search(Gb, iterations, seed) == want

    @pytest.mark.parametrize("seed", [0, 77])
    def test_matches_sequential_rounds_on_a_bundled_spec(self, seed):
        # prelift68's witness moves with the draw stream (weight 56 at
        # seed 3, 39 at seed 77), so a replay off numpy's stream shows.
        spec = load_spec(data_path("prelift68.json"))
        Gb = circulant_expand(construct_generator(spec).matrix)
        want = sequential_low_weight_search(Gb, 20_000, seed)
        assert low_weight_search(Gb, 20_000, seed) == want

    @settings(max_examples=80, deadline=None)
    @given(tied_generators(), st.integers(0, 2600), st.sampled_from([8, 600, analysis._SWEEP_BYTES]))
    # Pairs (0, 3) and (1, 2) weigh 2, the other pairs 4 and the rows 62;
    # (0, 3) is evaluated first, and wins with one pair per broadcast too.
    @example(TIED_PAIRS, 10, 8)
    @example(TIED_PAIRS, 10, analysis._SWEEP_BYTES)
    def test_matches_sequential_rounds_in_any_sweep_block(self, Gb, iterations, sweep_bytes):
        # 8 bytes make a broadcast of one pair; 600 split a lead row's
        # pairs with up to 60 rows of one to three words into 1 to 3
        # broadcasts. Ties must go to the first evaluation wherever the
        # broadcasts fall.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_SWEEP_BYTES", sweep_bytes)
            swept = analysis._lightest_sweep(Gb, iterations)
            got = low_weight_search(Gb, iterations, 5)
        want = swept_in_order(Gb, iterations)
        assert swept == want if want else swept[0] > Gb.ncols
        assert got == sequential_low_weight_search(Gb, iterations, 5)

    @settings(max_examples=40, deadline=None)
    @given(
        repeated_column_generators(),
        st.integers(501, 4000),
        st.sampled_from([8, 1200, 1 << 18]),
    )
    def test_matches_sequential_rounds_leaving_at_any_step(self, Gb, iterations, round_bytes):
        # Columns repeated many times make a round's rank-th pivot come
        # early under one column order and late under another, so the
        # rounds of a batch leave the lockstep at very different steps.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_ROUND_BYTES", round_bytes)
            got = low_weight_search(Gb, iterations, 3)
        assert got == sequential_low_weight_search(Gb, iterations, 3)

    @settings(max_examples=150, deadline=None)
    @given(
        circulant_generators().flatmap(
            lambda Gb: st.tuples(st.just(Gb), st.integers(0, Gb.nrows * (Gb.nrows + 1) // 2 + 2))
        ),
        st.sampled_from([8, 600, analysis._SWEEP_BYTES]),
    )
    @example((TIED_SHIFTS, 19), analysis._SWEEP_BYTES)
    @example((TIED_SHIFTS, 19), 8)
    @example((TIED_SHIFTS, 25), 600)
    @example((TIED_SHIFTS, 18), analysis._SWEEP_BYTES)  # the weight-1 pair, evaluation 18, just past
    def test_sweep_reads_shifted_pairs_in_order(self, sweep, sweep_bytes):
        # A circulant generator's pairs are read from its shift tables;
        # the first lightest evaluation must win whatever the budget (in
        # or past a lead row, or past every pair) and however the tables'
        # broadcasts fall: 8 bytes make a broadcast of one pair.
        Gb, iterations = sweep
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_SWEEP_BYTES", sweep_bytes)
            swept = analysis._lightest_sweep(Gb, iterations)
        want = swept_in_order(Gb, iterations)
        assert swept == want if want else swept[0] > Gb.ncols

    def test_sweep_packs_rows_a_block_at_a_time(self):
        # hamming15's generator is 3760 x 5640, 2.7 MB packed whole; at
        # both budgets the search ends inside the pair sweep, which packs
        # the 10 base rows and the 376 rows of one block row, and XORs a
        # bounded run of them at a time.
        spec = load_spec(data_path("hamming15.json"))
        Gb = circulant_expand(construct_generator(spec).matrix)
        # numpy.random's first use in a process allocates about 790 KB of
        # its own; a shorter search takes it.
        low_weight_search(Gb, 1_000, 1)
        for iterations in (20_000, 1_000_000):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                report = low_weight_search(Gb, iterations, 1)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert report.upper == report.witness.bit_count() > 0
            assert peak < 512 * 1024, iterations

    @pytest.mark.parametrize("name", ["n79", "prelift68"])
    def test_search_with_rounds_stays_small(self, name):
        # At 20,000 evaluations these two searches run information-set
        # rounds and random combinations after the sweep; a batch of
        # rounds holds two copies of its rows per round, and the sweep a
        # chunk of pairs.
        spec = load_spec(data_path(f"{name}.json"))
        Gb = circulant_expand(construct_generator(spec).matrix)
        # numpy.random's first use in a process allocates about 700 KB of
        # its own; a shorter search that reaches every phase takes it.
        low_weight_search(Gb, 14_000, 3)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            report = low_weight_search(Gb, 20_000, 3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert report.upper == report.witness.bit_count() > 0
        assert peak <= 800 * 1024


def _buffered_generator(seed):
    """A PCG64 generator holding the high half of its last word."""
    rng = np.random.default_rng(seed)
    rng.integers(0, 3)
    assert rng.bit_generator.state["has_uint32"] == 1
    return rng


class TestReplay:
    # 2^31 + 1 rejects about half its draws, so many halves are redrawn.
    @pytest.mark.parametrize(
        "r", [1, 2, 3, 5, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32]
    )
    @pytest.mark.parametrize("seed", [0, 5, 2**40 + 7])
    def test_bounded_draws_match_integers(self, r, seed):
        # Drawing below r from every half that Lemire's method keeps must
        # give numpy's integers(0, r); numpy draws nothing for r = 1.
        ref, rng = _buffered_generator(seed), _buffered_generator(seed)
        want = [int(ref.integers(0, r)) for _ in range(3001)]
        start, halves = analysis._read_halves(rng.bit_generator, 4000)
        if r == 1:
            got, used = [0] * 3001, 0
        else:
            values, redrawn = analysis._below(halves, r)
            kept = np.flatnonzero(~redrawn)[:3001]
            got, used = values[kept].tolist(), int(kept[-1]) + 1
        assert got == want
        analysis._hand_back(rng.bit_generator, start, used, halves[used : used + 1])
        assert rng.integers(0, 10**9) == ref.integers(0, 10**9)

    @pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered"])
    @pytest.mark.parametrize("draws", [0, 1, 2, 5, 6, 1100])
    def test_hand_back_leaves_numpy_position(self, buffered, draws):
        # From a fresh generator an odd count of draws below 3 leaves a
        # buffered half; from a buffered one an even count does. Each
        # draw below 3 takes one half, as these seeds give no u = 0.
        make = _buffered_generator if buffered else np.random.default_rng
        ref, rng = make(11), make(11)
        for _ in range(draws):
            ref.integers(0, 3)
        start, halves = analysis._read_halves(rng.bit_generator, draws // 2 + 1)
        analysis._hand_back(rng.bit_generator, start, draws, halves[draws : draws + 1])
        assert rng.permutation(50).tolist() == ref.permutation(50).tolist()
        assert rng.integers(0, 10**9) == ref.integers(0, 10**9)


# (position, raw word, buffered half) of a crafted generator and the halves
# numpy redraws in its first combination of 10 rows. Halves are numbered
# from the buffered one, else from the low half of word 0; half 0 draws
# the size below 3, which redraws only u = 0, and u = 0 at a draw below r
# is redrawn when 2^32 mod r != 0.
REDRAWS = {
    "none": (0, 0x0123456789ABCDEF, None, 0),
    "size": (0, 0xDEADBEEF << 32, None, 1),  # u = 0 at half 0
    # Size 4 from half 0, so half 1 is Floyd's draw below 7 (2^32 mod 7 = 4).
    "floyd": (0, 0xFFFFFFFF, None, 1),
    # Size 3 from the buffered half, three Floyd draws, then half 4 (word
    # 1's high half) is the shuffle's draw below 3.
    "shuffle": (1, 12345, 2**31, 1),
    "buffered": (0, 0x0123456789ABCDEF, 0, 1),  # u = 0 at the buffered size draw
    "adjacent": (0, 0, None, 2),  # halves 0 and 1 both redrawn
    # u = 0 at the buffered size draw. Size 3 from half 1 then makes half
    # 2 (u = 0) Floyd's draw below 8, which keeps it; before the redraw is
    # dropped, half 2 would be a draw below 10, which redraws u = 0.
    "shifted": (0, 2**31, 0, 1),
}


class TestRandomBlock:
    """The block path against the scalar replay: numpy's own draws, one at a time."""

    def check_against_numpy(self, Gb, make, first, count):
        block, scalar = make(), make()
        words = analysis._packed_rows(Gb.rows, Gb.ncols)
        got = analysis._lightest_random(words, block, first, count)
        assert got == numpy_lightest(Gb.rows, scalar, first, count)
        assert position(block) == position(scalar)
        assert block.permutation(50).tolist() == scalar.permutation(50).tolist()
        assert block.integers(0, 10**9) == scalar.integers(0, 10**9)

    @pytest.mark.parametrize("buffered", [None, 0xABCDEF], ids=["fresh", "buffered"])
    @pytest.mark.parametrize("p", [0, 1, 1995])
    def test_crafted_generator_draws_the_word(self, p, buffered):
        # A change to numpy's PCG64 would leave the redraw cases testing nothing.
        word = 0x0123456789ABCDEF
        bitgen = crafted_generator(p, word, buffered).bit_generator
        assert int(bitgen.random_raw(p + 1)[p]) == word
        assert bitgen.state["has_uint32"] == (buffered is not None)

    @pytest.mark.parametrize("case", list(REDRAWS))
    @pytest.mark.parametrize("count", [1, 40, 499])
    def test_redraws_fall_back_to_the_scalar_replay(self, case, count):
        # Where Lemire's method redraws halves, the block path must give
        # numpy's (weight, evaluation, word) and leave the generator
        # where numpy's calls leave it.
        p, word, buffered, redraws = REDRAWS[case]
        rng = random.Random(count)
        Gb = BinMatrix([rng.getrandbits(70) for _ in range(10)], 70)
        assert redrawn_halves(crafted_generator(p, word, buffered), 10, 0) == redraws
        self.check_against_numpy(
            Gb, lambda: crafted_generator(p, word, buffered), 1000, count
        )

    def test_redraw_in_the_last_combination(self):
        # A zero word at position 1,488 falls in the 499th combination,
        # where it makes numpy redraw two halves.
        rng = random.Random(499)
        Gb = BinMatrix([rng.getrandbits(70) for _ in range(10)], 70)
        assert redrawn_halves(crafted_generator(1488, 0), 10, 498) == 2
        self.check_against_numpy(Gb, lambda: crafted_generator(1488, 0), 1000, 499)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 40])
    @pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered"])
    def test_matches_the_scalar_replay_on_numpy(self, k, buffered):
        rng = random.Random(k)
        Gb = BinMatrix([rng.getrandbits(64) for _ in range(k)], 64)
        make = _buffered_generator if buffered else np.random.default_rng
        block, scalar = make(k), make(k)
        words = analysis._packed_rows(Gb.rows, Gb.ncols)
        for first, count in ((7, 493), (500, 1), (1001, 499)):
            got = analysis._lightest_random(words, block, first, count)
            assert got == numpy_lightest(Gb.rows, scalar, first, count)
            assert position(block) == position(scalar)


class TestDistanceReport:
    def test_bounds_validated(self):
        with pytest.raises(ValueError, match="exceeds upper"):
            DistanceReport(upper=3, lower=5)
        with pytest.raises(ValueError, match="outside bounds"):
            DistanceReport(upper=6, lower=2, exact=8)
        with pytest.raises(ValueError, match="witness weight"):
            DistanceReport(upper=3, witness=0b11)

    def test_witness_rendering(self):
        report = DistanceReport(upper=2, witness=0b0101, ncols=4)
        assert report.witness_bits() == "1010"
        polys = report.witness_polys(2)
        assert polys == [P("1"), P("1")]
        assert report.witness_polys(3) is None

    def test_to_dict_with_blocks(self):
        report = DistanceReport(upper=2, witness=0b011, ncols=4, method="m")
        d = report.to_dict(block_size=2)
        assert d["upper"] == 2 and d["witness"] == "1100"
        assert d["witness_polys"] == ["1+x", "0"]


class TestBoundsCombine:
    def test_exact_when_bounds_meet(self):
        report = bounds_combine(16, 16)
        assert report.exact == 16 and report.lower == 16

    def test_open_interval(self):
        report = bounds_combine(88, 64, witness=None, ncols=476)
        assert report.exact is None
        assert (report.lower, report.upper) == (64, 88)

    def test_short_distance_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            bounds_combine(10, 0)

    def test_inconsistent_bounds_rejected(self):
        with pytest.raises(ValueError, match="exceeds upper"):
            bounds_combine(10, 12)
