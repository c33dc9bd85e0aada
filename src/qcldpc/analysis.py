"""Tanner-graph girth and minimum-distance estimation.

Girth is the length of the shortest cycle in the bipartite check/variable
graph of a binary parity-check matrix (always even, at least 4). Minimum
distance is certified exactly only for small message spaces, by enumerating
every message on generator rows packed into 64-bit words: a table of all
combinations of the leading rows (at most 2^17 bytes) is XORed against each
combination of the other rows, taken in Gray order. Everything larger gets
an upper bound from witnesses and searches plus a lower bound inherited
from an exactly analysed shortened code.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .binmat import BinMatrix
from .gf2poly import BinaryPoly
from .polymat import PolyMatrix, circulant_expand

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
        return "".join("1" if self.witness >> j & 1 else "0" for j in range(self.ncols))

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


def _adjacency(Hb: BinMatrix) -> list[list[int]]:
    """Bipartite adjacency lists: checks 0..m-1, variables m..m+n-1."""
    m = Hb.nrows
    adj: list[list[int]] = [[] for _ in range(m + Hb.ncols)]
    for i, bits in enumerate(Hb.rows):
        b = bits
        while b:
            j = (b & -b).bit_length() - 1
            adj[i].append(m + j)
            adj[m + j].append(i)
            b &= b - 1
    return adj


def _shortest_cycle_through(adj: list[list[int]], root: int, cap: float) -> float:
    """Shortest cycle length through root, pruned once it cannot beat cap."""
    best = cap
    dist = {root: 0}
    parent = {root: -1}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        du = dist[u]
        # Any candidate discovered from depth du has length >= 2*du.
        if 2 * du >= best:
            break
        for w in adj[u]:
            dw = dist.get(w)
            if dw is None:
                dist[w] = du + 1
                parent[w] = u
                queue.append(w)
            elif parent[u] != w:
                cand = du + dw + 1
                if cand < best:
                    best = cand
    return best


def girth(H: PolyMatrix | BinMatrix) -> float:
    """Length of the shortest Tanner-graph cycle, or math.inf if none exists.

    For a polynomial matrix the N-fold cyclic symmetry of the expansion
    means every cycle can be shifted onto a representative variable node
    in each column block, so one BFS root per block suffices. A plain
    binary matrix is searched from every variable node.
    """
    if isinstance(H, PolyMatrix):
        if H.modulus is None:
            raise ValueError("girth of a polynomial matrix needs a modulus")
        N = H.modulus.N
        Hb = circulant_expand(H)
        roots = [Hb.nrows + j * N for j in range(H.ncols)]
    else:
        Hb = H
        roots = [Hb.nrows + j for j in range(Hb.ncols)]
    adj = _adjacency(Hb)
    best = math.inf
    for root in roots:
        best = _shortest_cycle_through(adj, root, best)
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
    nw = max(1, -(-Gb.ncols // 64))
    words = np.frombuffer(
        b"".join(r.to_bytes(8 * nw, "little") for r in Gb.rows), dtype="<u8"
    ).reshape(k, nw)
    a = min(k, max(0, (_TABLE_BYTES // (8 * nw)).bit_length() - 1))
    table = np.zeros((1 << a, nw), dtype=np.uint64)
    for i in range(a):
        np.bitwise_xor(table[: 1 << i], words[i], out=table[1 << i : 2 << i])
    buf = np.empty_like(table)
    counts = np.empty(table.shape, dtype=np.uint8)
    running = np.zeros(nw, dtype=np.uint64)
    best = _min_nonzero_weight(np.bitwise_count(table, out=counts))
    for step in range(1, 1 << (k - a)):
        running ^= words[a + (step & -step).bit_length() - 1]
        np.bitwise_xor(table, running, out=buf)
        best = min(best, _min_nonzero_weight(np.bitwise_count(buf, out=counts)))
    return best if best <= Gb.ncols else 0


def _min_nonzero_weight(counts: np.ndarray) -> int:
    """Least nonzero row sum of per-word popcounts; above 64·words if none."""
    w = counts[:, 0] if counts.shape[1] == 1 else counts.sum(axis=1, dtype=np.uint32)
    w -= 1  # a zero word wraps to the dtype's maximum
    return int(w.min()) + 1


def low_weight_search(
    Gb: BinMatrix, iterations: int = 100_000, seed: int = 0
) -> DistanceReport:
    """Randomized upper bound on minimum distance, deterministic per seed.

    Sweeps single rows and row pairs of the generator first, then spends
    the remaining iteration budget on seeded sparse row combinations with
    an information-set re-encoding round every 500 evaluations. More
    iterations with the same seed never worsen the bound. A round that
    finds rank 0 (rows spanning only the zero word) ends the search.
    """
    rows = Gb.rows
    k = Gb.nrows
    best_w = 0
    best_word = 0
    evals = 0

    def consider(word: int) -> None:
        nonlocal best_w, best_word
        if not word:
            return
        w = word.bit_count()
        if best_w == 0 or w < best_w:
            best_w, best_word = w, word

    # Single rows are always swept so the report is well formed even on a
    # tiny budget; pairs and the random phase respect the budget strictly.
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
            # Information-set round: eliminate on a random column order and
            # rate every surviving row (each one is a codeword).
            perm = rng.permutation(Gb.ncols)
            work = list(rows)
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
            if r_idx == 0:
                break  # the rows span only the zero word
            for t in range(r_idx):
                consider(work[t])
                evals += 1
                if evals >= iterations:
                    break
        else:
            size = min(int(rng.integers(2, 5)), k)
            word = 0
            for t in rng.choice(k, size=size, replace=False):
                word ^= rows[int(t)]
            consider(word)
            evals += 1

    return DistanceReport(
        upper=best_w,
        lower=1 if best_w else 0,
        witness=best_word if best_w else 0,
        ncols=Gb.ncols,
        method=f"row sweep + {iterations} randomized evaluations, seed {seed}",
    )


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
