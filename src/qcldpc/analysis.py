"""Tanner-graph girth and minimum-distance estimation.

Girth is the length of the shortest cycle in the bipartite check/variable
graph of a polynomial parity-check matrix's binary expansion (always even,
at least 4). Minimum distance is certified exactly only for small message
spaces, by enumerating every message on generator rows packed into 64-bit
words: a table of all combinations of the leading rows (at most 2^17
bytes) is XORed against each combination of the other rows, taken in Gray
order. Everything larger gets an upper bound from witnesses and searches
plus a lower bound inherited from an exactly analysed shortened code. The
search weighs packed words too: its row and pair sweep a bounded block of
rows at a time, its random combinations a block between two
information-set rounds at a time, and its rounds a batch of lockstep
eliminations at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .binmat import BinMatrix, bit_string
from .binmat import rank as rank_scalar
from .gf2poly import BinaryPoly
from .polymat import PolyMatrix, row_edges, transpose_entrywise

__all__ = [
    "BudgetExceeded",
    "DistanceReport",
    "girth",
    "min_distance_exact",
    "low_weight_search",
    "bounds_combine",
]


class BudgetExceeded(RuntimeError):
    """Exact enumeration would exceed the allowed message budget."""


@dataclass(frozen=True)
class DistanceReport:
    """Distance bounds with the codeword that achieves the upper bound.

    ``witness`` is a bit-packed codeword (bit j = coordinate j) of weight
    ``upper``; ``exact`` is set only when the true distance is certified.
    """

    upper: int
    lower: int = 1
    exact: int | None = None
    witness: int | None = None
    ncols: int = 0
    method: str = ""

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(
                f"lower bound {self.lower} exceeds upper bound {self.upper}"
            )
        if self.exact is not None and not self.lower <= self.exact <= self.upper:
            raise ValueError(f"exact distance {self.exact} outside bounds")
        if self.witness is not None and self.witness.bit_count() != self.upper:
            raise ValueError("witness weight does not match upper bound")

    def witness_bits(self) -> str | None:
        """The witness as a 0/1 string in coordinate order."""
        if self.witness is None:
            return None
        return bit_string(self.witness, self.ncols)

    def witness_polys(self, N: int) -> list[BinaryPoly] | None:
        """The witness split into length-N blocks, one polynomial per block."""
        if self.witness is None or self.ncols % N:
            return None
        mask = (1 << N) - 1
        return [BinaryPoly(self.witness >> (b * N) & mask) for b in range(self.ncols // N)]

    def to_dict(self, block_size: int | None = None):
        out = {
            "upper": self.upper,
            "lower": self.lower,
            "exact": self.exact,
            "method": self.method,
            "witness": self.witness_bits(),
        }
        if block_size:
            polys = self.witness_polys(block_size)
            if polys is not None:
                out["witness_polys"] = [p.to_text() for p in polys]
        return out


def _tanner_tables(H: PolyMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Neighbour tables of the Tanner graph: (variables, checks).

    Checks are nodes 0..m-1 and variables m..m+n-1; row v of the first
    table lists the checks of variable v, row c of the second the nodes of
    the variables on check c, each padded with the absent node m + n.
    Both come from the one edge map, ``row_edges``: the checks' table is
    m + row_edges(H), and the variables' table is row_edges of the
    entrywise transpose, since x^e -> x^(N - e) inverts each circulant's
    edges.
    """
    N = H.modulus.N
    m, n = H.nrows * N, H.ncols * N
    checks, variables = row_edges(H), row_edges(transpose_entrywise(H))
    return _stacked(variables, 0, m + n), _stacked(checks, m, m + n)


def _stacked(edges: list, offset: int, pad: int) -> np.ndarray:
    """The blocks of ``edges`` plus ``offset`` one under another, padded with ``pad``."""
    width = max((e.shape[1] for e in edges), default=0) or 1
    out = np.full((sum(map(len, edges)), width), pad, np.intp)
    top = 0
    for e in edges:
        out[top : top + len(e), : e.shape[1]] = e + offset
        top += len(e)
    return out


_GIRTH_SEEN_BYTES = 1 << 16  # cap on the seen-flags of one batch of BFS roots

# Cap on the Tanner edges of a polynomial matrix that girth builds tables
# for: about 35 bytes each at peak, so N = 10^6 over six terms (6 * 10^6
# edges) takes about 250 MB.
_MAX_TANNER_EDGES = 1 << 23


def _check_tanner_edges(edges: int) -> None:
    """ValueError when a Tanner graph of ``edges`` edges is over ``_MAX_TANNER_EDGES``."""
    if edges > _MAX_TANNER_EDGES:
        raise ValueError(
            f"Tanner graph of {edges} edges exceeds the bound of {_MAX_TANNER_EDGES} edges"
        )


def girth(H: PolyMatrix) -> float:
    """Length of the shortest Tanner-graph cycle of H's expansion, or math.inf.

    H is a polynomial matrix over x^N + 1; a binary matrix is the same
    bits over N = 1, where every variable node is a root. The neighbour
    tables come from ``row_edges`` of H and of its entrywise transpose
    (see ``_tanner_tables``), without expanding the circulants. The N-fold
    cyclic symmetry of the expansion means every cycle can be shifted onto
    a representative variable node in each column block, so one BFS root
    per block suffices. A matrix of more than ``_MAX_TANNER_EDGES`` edges
    (N times its terms) is a ValueError, raised before any table is built.

    Roots are searched in batches, one BFS layer at a time, each root with
    its own seen-flags. Expanding the layer at depth d reaches the unseen
    neighbours of its nodes; the graph is bipartite, so a node reached
    twice closes a cycle of length 2(d + 1) through its root, and the
    first layer where that happens gives the shortest cycle through the
    batch. The first root is searched alone, so that its cycle length
    stops every later batch one layer short of the widest one.
    """
    N = H.ring.N
    _check_tanner_edges(N * sum(p.bits.bit_count() for row in H.rows for p in row))
    var_table, check_table = _tanner_tables(H)
    m, nodes = len(check_table), len(check_table) + len(var_table)
    roots = np.arange(m, nodes, N, dtype=np.intp)
    # Layers alternate: roots and even depths are variables, odd depths checks.
    tables = ((var_table, m), (check_table, 0))
    stride = nodes + 1  # one row of seen-flags per root; node ``nodes`` pads
    batch = max(1, _GIRTH_SEEN_BYTES // stride)
    best = math.inf
    starts = [0, *range(1, len(roots), batch)]
    for start, stop in zip(starts, [*starts[1:], len(roots)]):
        chunk = roots[start:stop]
        seen = np.zeros((len(chunk), stride), dtype=bool)
        seen[:, nodes] = True
        seen = seen.ravel()
        # Frontier entries are keys root_slot * stride + node.
        front = np.arange(len(chunk), dtype=np.intp) * stride + chunk
        seen[front] = True
        depth = 0
        while len(front) and 2 * (depth + 1) < best:
            table, offset = tables[depth % 2]
            node = front % stride
            reached = ((front - node)[:, None] + table[node - offset]).ravel()
            reached = reached[~seen[reached]]
            known = np.count_nonzero(seen)
            seen[reached] = True
            if np.count_nonzero(seen) - known < len(reached):
                best = 2 * (depth + 1)  # some node was reached twice
                break
            front = reached
            depth += 1
        if best == 4:
            break
    return best


_TABLE_BYTES = 1 << 17  # cap on min_distance_exact's combination table


def min_distance_exact(Gb: BinMatrix, budget: int = 1 << 24) -> int:
    """Exact minimum nonzero codeword weight over all 2^k - 1 messages.

    The k rows are packed into 64-bit words. The first a rows give a table
    of their 2^a XOR combinations, with a as large as fits in 2^17 bytes.
    A Gray-order walk over the other k - a rows XORs one row into a running
    word per step, and each step weighs the whole table XOR that word.
    Zero codewords from dependent rows are skipped.

    Raises BudgetExceeded when 2^k - 1 messages would exceed the budget.
    Returns 0 for a generator whose row space is trivial.
    """
    k = Gb.nrows
    if (1 << k) - 1 > budget:
        raise BudgetExceeded(f"2^{k} - 1 messages exceed budget {budget}")
    words = _packed_rows(Gb.rows, Gb.ncols)
    nw = words.shape[0]
    a = min(k, max(0, (_TABLE_BYTES // (8 * nw)).bit_length() - 1))
    table = np.zeros((nw, 1 << a), dtype=np.uint64)
    for i in range(a):
        np.bitwise_xor(table[:, : 1 << i], words[:, i, None], out=table[:, 1 << i : 2 << i])
    buf = np.empty_like(table)
    counts = np.empty(table.shape, dtype=np.uint8)
    running = np.zeros((nw, 1), dtype=np.uint64)
    best, _ = _lightest(np.bitwise_count(table, out=counts))
    for step in range(1, 1 << (k - a)):
        running ^= words[:, a + (step & -step).bit_length() - 1, None]
        np.bitwise_xor(table, running, out=buf)
        best = min(best, _lightest(np.bitwise_count(buf, out=counts))[0])
    return best if best <= Gb.ncols else 0


def _lightest(counts: np.ndarray) -> tuple[int, int]:
    """(weight, column) of the first lightest nonzero column of word-major popcounts.

    ``counts`` holds each column's per-word popcounts down its first axis;
    the column is a flat C-order index into the other axes. The weight is
    above 64·words when every column is zero.
    """
    w = _weights(counts)
    t = int(w.argmin())
    return int(w.flat[t]) + 1, t


def _weights(counts: np.ndarray) -> np.ndarray:
    """Column weights less one of word-major popcounts; a zero column wraps to the maximum.

    The sum runs over the first, outer axis, a whole row of columns per
    add, into the narrowest unsigned type that holds 64·words. A single
    word is its own weight: ``counts`` is then changed in place.
    """
    if len(counts) == 1:
        w = counts[0]
    else:
        w = np.add.reduce(counts, axis=0, dtype=np.uint16 if len(counts) < 1024 else np.uint32)
    w -= 1
    return w


def _packed_rows(rows: list[int], ncols: int) -> np.ndarray:
    """The rows as a word-major (words, len(rows)) array of 64-bit words.

    Column r holds row r, its little-endian words down the column.
    """
    nw = max(1, -(-ncols // 64))
    packed = np.frombuffer(b"".join(r.to_bytes(8 * nw, "little") for r in rows), dtype="<u8")
    return np.ascontiguousarray(packed.reshape(len(rows), nw).T)


_ROUND_EVERY = 500  # evaluations from one information-set round to the next
_SWEEP_BYTES = 1 << 16  # cap on the packed rows of one block of the pair sweep
_PAIR_BYTES = 1 << 18  # cap on the XORed words of one chunk of sweep pairs


def low_weight_search(
    Gb: BinMatrix, iterations: int = 100_000, seed: int = 0
) -> DistanceReport:
    """Randomized upper bound on minimum distance, deterministic per seed.

    Sweeps single rows and row pairs of the generator first, then spends
    the remaining iteration budget on seeded sparse row combinations with
    an information-set re-encoding round every ``_ROUND_EVERY`` (500)
    evaluations. More iterations with the same seed never worsen the
    bound. A round that finds rank 0 (rows spanning only the zero word)
    ends the search. Every phase weighs its words on rows packed
    word-major, into 64-bit words down a column per row, so that a weight
    sums popcounts over the outer axis; each phase reports its lightest
    nonzero word, and the lightest word overall, the first evaluated on
    ties, is the witness.

    Row j is evaluation j, and pair (i, j), i < j, is evaluation
    k + i·k - i(i+1)/2 + (j - i - 1). The sweep packs at most
    ``_SWEEP_BYTES`` of rows at a time, never the whole generator, and
    weighs each block against the rows i whose pairs with it lie inside
    the budget, many rows i per numpy call (see ``_lightest_sweep``).

    A sparse combination XORs ``rng.choice(k, size, replace=False)`` rows
    with ``size = min(rng.integers(2, 5), k)``, on numpy's stream from
    ``default_rng(seed)``. Those draws are replayed from the generator's
    raw words rather than made through numpy's calls, a block of
    combinations up to the next round at a time (see ``_lightest_random``),
    so this depends on numpy's algorithm for ``Generator.choice``: Floyd's
    sampling and a trailing shuffle over Lemire's bounded draws, the
    draws Lemire's method redraws included. The tier-1 tests, run by
    both CI jobs (``numpy-floor``, numpy 2.0, included), check the
    replay against numpy's own calls, also on generators set to give
    raw words that force redraws.

    A round rates the rows of the reduced echelon form under a random
    column order. That form is unique for a given order, and it has
    rank(G) rows whatever the order, so a round uses up rank(G)
    evaluations (fewer where the budget ends) and the draw stream never
    depends on what a round finds. The rounds are drawn in order with the
    combinations, then reduced together in batches, one plain lockstep a
    batch, which ends once every round in it has its rank pivots (see
    ``_lightest_round_row``).
    """
    k = Gb.nrows
    # Single rows are always swept so the report is well formed even on a
    # tiny budget; pairs and the random phase respect the budget strictly.
    found = [_lightest_sweep(Gb, iterations)]  # (weight, evaluation, word)
    evals = max(k, min(iterations, k + k * (k - 1) // 2))
    rng = np.random.default_rng(seed)
    rounds = []  # (column order, first evaluation index, rows rated)
    if evals < iterations:
        words = _packed_rows(Gb.rows, Gb.ncols)
        rank = rank_scalar(Gb)
        per_batch = max(1, _ROUND_BYTES // max(1, words.nbytes))
    while evals < iterations:
        if evals % _ROUND_EVERY == 0:
            if rank == 0:
                break  # the rows span only the zero word
            take = min(rank, iterations - evals)
            rounds.append((rng.permutation(Gb.ncols), evals, take))
            evals += take
            if len(rounds) == per_batch:
                found.append(_lightest_round_row(words, rounds, rank))
                rounds.clear()
            continue
        count = min(_ROUND_EVERY - evals % _ROUND_EVERY, iterations - evals)
        found.append(_lightest_random(words, rng, evals, count))
        evals += count
    if rounds:
        found.append(_lightest_round_row(words, rounds, rank))
    best_w, _, best_word = min(found)
    if best_w > Gb.ncols:  # no phase rated a nonzero word
        best_w = best_word = 0

    return DistanceReport(
        upper=best_w,
        lower=1 if best_w else 0,
        witness=best_word,
        ncols=Gb.ncols,
        method=f"row sweep + {iterations} randomized evaluations, seed {seed}",
    )


def _lightest_sweep(Gb: BinMatrix, iterations: int) -> tuple[int, int, int]:
    """(weight, evaluation index, word) of the lightest row or pair swept.

    Every row is rated, pairs only below ``iterations``. Pair (i, j) is
    evaluation first_i + j, with first_i growing in i, so row i leads
    pairs inside the budget while its first pair, (i, i + 1), is; a budget
    of B evaluations over k rows leaves about B / k lead rows. The rows
    are packed word-major in blocks of at most ``_SWEEP_BYTES``, and the
    lead rows in the first block once for the whole sweep. Each block is
    weighed as it is, then against the lead rows with pairs in it, a chunk
    of lead rows per broadcast XOR (see ``_lightest_pairs``). The weight
    is above ncols if no word is nonzero.
    """
    rows, k, ncols = Gb.rows, Gb.nrows, Gb.ncols
    nw = max(1, -(-ncols // 64))
    per_block = max(1, _SWEEP_BYTES // (8 * nw))
    first = _first_pairs(k, iterations)
    leads = len(first)
    heads = min(leads, per_block)
    head = _packed_rows(rows[:heads], ncols)
    # A chunk holds whole lead rows against a block, at most _PAIR_BYTES of
    # words. The head's rows split evenly into as few chunks as that allows,
    # so that the buffers hold no more than a chunk needs.
    width = min(per_block, k)
    cap = max(1, _PAIR_BYTES // (8 * nw * max(1, width)))
    per_chunk = -(-heads // -(-heads // cap)) if heads else 1
    room = nw * per_chunk * width
    buffers = np.empty(room, np.uint64), np.empty(room, np.uint8)
    best = (math.inf, 0, 0, 0)  # weight, evaluation, rows i <= j (i == j: one row)
    for j0 in range(0, k, per_block):
        j1 = min(j0 + per_block, k)
        block = _packed_rows(rows[j0:j1], ncols)
        w, t = _lightest(np.bitwise_count(block))
        best = min(best, (w, j0 + t, j0 + t, j0 + t))
        # Rows i with a pair here: i < j1 - 1, and (i, max(j0, i + 1)) in the budget.
        stop = min(leads, j1 - 1, int(np.searchsorted(first, iterations - j0)))
        for a0 in range(0, stop, per_block):  # the lead rows, a block's worth at a time
            a1 = min(a0 + per_block, stop)
            lead = head if a0 == 0 else block if a0 == j0 else _packed_rows(rows[a0:a1], ncols)
            pairs = _lightest_pairs(lead, a0, a1, block, j0, first, iterations, per_chunk, buffers)
            best = min(best, pairs)
    w, at, i, j = best
    return w, at, 0 if w > ncols else rows[i] if i == j else rows[i] ^ rows[j]


def _first_pairs(k: int, iterations: int) -> np.ndarray:
    """first[i] of each row i that leads a pair inside the budget.

    Pair (i, j), i < j, of k rows is evaluation first[i] + j, with
    first[i] = (i + 1)(2k - 2 - i) / 2. Row i leads while its first pair,
    (i, i + 1), lies below ``iterations``; first + i + 1 grows with i, so
    the lead rows are the first rows.
    """
    i = np.arange(max(k - 1, 0), dtype=np.int64)
    first = (i + 1) * (2 * k - 2 - i) // 2
    return first[first + i + 1 < iterations]


def _lightest_pairs(
    lead: np.ndarray, a0: int, a1: int, block: np.ndarray, j0: int,
    first: np.ndarray, iterations: int, per_chunk: int, buffers: tuple,
) -> tuple[int, int, int, int]:
    """(weight, evaluation, i, j) of the lightest pair of lead row i and block row j.

    ``lead`` holds rows a0 <= i < a1 from column 0, and ``block`` rows
    j0, j0 + 1, ..., both word-major; lead rows lie in the block or in
    blocks before it, and each has a pair inside the budget here. A
    chunk of lead rows i, at most ``_PAIR_BYTES`` of words against the
    block's rows j > i, is weighed by one broadcast XOR into ``buffers``
    and one sum over the word axis. Its argmin runs in row-major order,
    which is evaluation order, since every pair of row i comes before
    those of row i + 1. Pairs with j <= i, or outside the budget, are
    masked only in a chunk that meets the diagonal or the budget's end.
    The weight is above 64·words if every pair is zero.
    """
    nw = len(block)
    best = (math.inf, 0, 0, 0)
    for c0 in range(a0, a1, per_chunk):
        c1 = min(c0 + per_chunk, a1)
        lo, hi = max(j0, c0 + 1), min(j0 + block.shape[1], iterations - int(first[c0]))
        shape = (nw, c1 - c0, hi - lo)
        size = math.prod(shape)
        pairs = np.bitwise_xor(
            block[:, None, lo - j0 : hi - j0], lead[:, c0 - a0 : c1 - a0, None],
            out=buffers[0][:size].reshape(shape),
        )
        w = _weights(np.bitwise_count(pairs, out=buffers[1][:size].reshape(shape)))
        heaviest = np.iinfo(w.dtype).max  # as a zero word weighs
        if lo == c0 + 1 and c1 - c0 > 1:  # pair (i, j) with j <= i sits below the diagonal
            m = min(c1 - c0, hi - lo)
            w[:, :m][np.tri(c1 - c0, m, -1, dtype=bool)] = heaviest
        if first[c1 - 1] + hi > iterations:  # row c1 - 1 ends the budget inside the chunk
            w[np.arange(lo, hi) >= iterations - first[c0:c1, None]] = heaviest
        t = int(w.argmin())
        r, s = divmod(t, hi - lo)
        best = min(best, (int(w.flat[t]) + 1, int(first[c0 + r]) + lo + s, c0 + r, lo + s))
    return best


def _lightest_random(
    words: np.ndarray, rng: np.random.Generator, first: int, count: int
) -> tuple[int, int, int]:
    """(weight, evaluation index, word) of the lightest of ``count`` combinations.

    The sparse combinations are evaluations first, first + 1, ..., drawn
    as numpy's ``integers(2, 5)`` and ``choice`` would draw them, but for
    the whole block at once on the word-major packed rows ``words``, the
    combinations of each size gathered, XORed and weighed together. The
    raw PCG64 words are read once and split into the 32-bit halves numpy
    draws from, a buffered half first (see ``_below``). A combination of size
    s takes 2s halves (2s - 1 when s = k, as Floyd's draw below 1 takes
    none): one for the size, s for Floyd's picks and s - 1 for numpy's
    trailing shuffle, which a XOR ignores. So walking the chain of sizes
    places every combination's halves, and each size's picks are computed
    together. Where Lemire's method would redraw a half, the earliest
    such half is dropped, the halves of one more raw word are appended,
    and the chain is walked again, until no draw is redrawn. The
    generator is left where numpy's own calls leave it; it is read and
    set only through the public BitGenerator API: ``random_raw``,
    ``state`` and ``advance``. The weight is above 64·words if every
    combination is zero.
    """
    k = words.shape[1]
    bitgen = rng.bit_generator
    start, halves = _read_halves(bitgen, 4 * count)  # a combination takes <= 8 halves
    steps = [2 * s - (s == k) for s in (min(2 + x, k) for x in range(3))]
    dropped = 0
    while True:
        drawn, redrawn = _below(halves, 3)  # integers(2, 5) - 2 at a size draw
        xs, at, pos = drawn.tolist(), [], 0
        for _ in range(count):  # the chain of sizes: one step per combination
            at.append(pos)
            pos += steps[xs[pos]]
        at = np.array(at)
        sizes = np.minimum(drawn[at] + np.uint64(2), k)
        rejected = [at[redrawn[at]]]  # halves Lemire's method would redraw
        groups = []  # (evaluations, picks) per size
        for size in range(min(2, k), min(4, k) + 1):
            e = np.flatnonzero(sizes == size)
            if not len(e):
                continue
            half = at[e] + 1
            picks = [np.zeros(len(e), np.uint64)] if size == k else []  # j = 0: row 0
            for j in range(max(k - size, 1), k):  # Floyd's method
                t, redrawn = _below(halves[half], j + 1)
                rejected.append(half[redrawn])
                clash = np.zeros(len(e), bool)
                for p in picks:
                    clash |= t == p
                picks.append(np.where(clash, np.uint64(j), t))
                half += 1
            for r in range(size, 1, -1):  # numpy's trailing shuffle
                if (1 << 32) % r:  # else no half is redrawn
                    rejected.append(half[_below(halves[half], r)[1]])
                half += 1
            groups.append((e, picks))
        rejected = np.concatenate(rejected)
        if not len(rejected):
            break
        raw = bitgen.random_raw(1)  # the halves of one more word
        kept = np.delete(halves, rejected.min())
        halves = np.concatenate((kept, raw & np.uint64(_M32), raw >> np.uint64(32)))
        dropped += 1
    lightest = []
    for e, picks in groups:
        acc = words.take(picks[0], axis=1)
        for p in picks[1:]:
            acc ^= words.take(p, axis=1)
        w, t = _lightest(np.bitwise_count(acc))
        lightest.append((w, first + int(e[t]), int.from_bytes(acc[:, t].tobytes(), "little")))
    _hand_back(bitgen, start, pos + dropped, halves[pos : pos + 1])
    return min(lightest)


_M32 = 0xFFFFFFFF


def _read_halves(bitgen, words: int) -> tuple[dict, np.ndarray]:
    """The state of ``bitgen`` and the 32-bit halves of its next ``words`` outputs.

    numpy draws the half the generator holds buffered first, then each
    output's low half before its high half.
    """
    start = bitgen.state
    buffered = start["has_uint32"]
    raw = bitgen.random_raw(words)
    halves = np.empty(buffered + 2 * words, np.uint64)
    halves[:buffered] = start["uinteger"]
    halves[buffered::2] = raw & np.uint64(_M32)
    halves[buffered + 1 :: 2] = raw >> np.uint64(32)
    return start, halves


def _below(halves: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's draws below r from each of the 32-bit ``halves``: (values, redrawn).

    numpy's ``rng.integers(0, r)``, for 1 < r <= 2^32, draws from the
    next half u by Lemire's method (Lemire, ACM TOMACS 2019): m = u·r
    gives m >> 32, unless m mod 2^32 falls below 2^32 mod r, where the
    half is redrawn, that is, dropped for the next one.
    """
    m = halves * np.uint64(r)
    return m >> np.uint64(32), (m & np.uint64(_M32)) < (1 << 32) % r


def _hand_back(bitgen, start: dict, used: int, after: np.ndarray) -> None:
    """Set ``bitgen`` to just after ``used`` of the halves drawn from ``start``.

    The halves are the 32-bit halves read from state ``start`` on, its
    buffered half first, and ``after`` is the slice of at most one half
    that follows the used ones. An odd count of the halves of words read
    after the start leaves that half buffered, as numpy does; none used
    from a buffered start counts as -1 and buffers it again.
    """
    bitgen.state = start
    drawn = used - start["has_uint32"]  # halves of the words read after the start
    bitgen.advance((drawn + 1) // 2)  # also drops the buffered half
    if drawn % 2:
        state = bitgen.state
        state["has_uint32"], state["uinteger"] = 1, int(after[0])
        bitgen.state = state


_ROUND_BYTES = 1 << 18  # cap on the packed rows of one batch of rounds
_BITS = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))  # bit b of a word


def _lightest_round_row(
    words: np.ndarray, rounds: list, rank: int
) -> tuple[int, int, int]:
    """(weight, evaluation index, word) of the lightest row the rounds rate.

    All rounds run one Gauss-Jordan elimination in lockstep on copies of
    the word-major rows, held as (rounds, words, k), each row a column:
    step c takes each round's c-th column, picks its first unused row with
    that bit as the pivot, and clears the bit from every other row. A
    round's t-th pivot row is the one it rates t-th, at evaluation index
    first + t. A round with rank pivots has no unused nonzero row left, so
    later steps find it no pivot and change none of its rows; its pivot
    writes land in the spare column rank of ``order``. The lockstep ends
    when every round holds rank pivots.
    """
    n_rounds, k = len(rounds), words.shape[1]
    every = np.arange(n_rounds)
    # Word and bit of each step's column, one column of the table per round.
    lanes = np.stack([perm >> 6 for perm, _, _ in rounds], axis=1).astype(np.int32)
    shifts = np.stack([perm & 63 for perm, _, _ in rounds], axis=1).astype(np.uint8)
    work = np.repeat(words[None], n_rounds, axis=0)
    flip = np.empty_like(work)
    unused = np.ones((n_rounds, k), dtype=bool)
    order = np.zeros((n_rounds, rank + 1), dtype=np.intp)
    found = np.zeros(n_rounds, dtype=np.intp)
    for c in range(len(lanes)):
        hit = work[every, lanes[c]]
        hit &= _BITS[shifts[c], None]
        hit = hit.astype(bool)
        free = hit & unused
        sel = free.argmax(axis=1)
        pivots = free[every, sel]
        hit[every, sel] = False  # the pivot row keeps its bit
        mask = hit.astype(np.uint64)
        np.negative(mask, out=mask)  # 1 -> all ones
        pivot_rows = work[every, :, sel]
        pivot_rows *= pivots[:, None]  # a round without a pivot here clears nothing
        np.bitwise_and(pivot_rows[:, :, None], mask[:, None], out=flip)
        work ^= flip
        unused[every, sel] ^= pivots
        order[every, found] = sel
        found += pivots
        if found.min() == rank:
            break
    # Weights less one: a pivot row is never zero, so none wraps.
    weight = _weights(np.bitwise_count(work).swapaxes(0, 1))[every[:, None], order[:, :rank]]
    # Only the last round can end the budget before its last row.
    weight[-1, rounds[-1][2] :] = np.iinfo(weight.dtype).max
    at = int(weight.argmin())  # row-major: the first evaluated of the lightest
    r, t = divmod(at, rank)
    word = int.from_bytes(work[r, :, order[r, t]].tobytes(), "little")
    return int(weight[r, t]) + 1, rounds[r][1] + t, word


def bounds_combine(
    upper: int, short_distance: int, witness: int | None = None, ncols: int = 0
) -> DistanceReport:
    """Bracket a composed code: lower bound inherited from its short code.

    ``short_distance`` must be a positive exact distance of the shortened
    code; ``upper`` comes from a witness codeword of the composed code.
    """
    if short_distance <= 0:
        raise ValueError("short-code distance must be a positive integer")
    return DistanceReport(
        upper=upper,
        lower=short_distance,
        exact=upper if upper == short_distance else None,
        witness=witness,
        ncols=ncols,
        method="witness upper bound, shortened-code lower bound",
    )
