"""Encoding, BPSK-AWGN channel, and iterative GLDPC decoding.

The decoder updates every constraint of a GLDPC spec in parallel
(flooding). Circulant structure batches the N shift instances of each
base row through one vectorized update, and ``bcjr_component`` is the
one constraint-node update for every row, a plain single-parity check
included. It returns the exact bitwise MAP extrinsics through one of
three kernels, chosen from the component alone:

- single-parity checks (p = 1, all ones) use the tanh rule;
- components with at most q * 2^p codewords (2^(q-p) of them) enumerate
  their codebook: one matrix product gives every codeword's metric and
  a second sums them per bit value;
- the others run a log-domain BCJR sweep over the 2^p states of the
  syndrome trellis (Bahl et al. 1974; Wolf 1978), the reference kernel.

Enumerated rows whose metrics would span more than a double's exponent
range also go to the trellis. The edge indices, components and parity
arrays a spec needs are built at its first decode and reused.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .gf2poly import BinaryPoly, transpose_poly
# expand_binary defines convergence (see gldpc_decode) but the decoder
# checks it row by row from its tables; the name stays importable here,
# where perfbench's tracer test rebinds it.
from .gldpc import ComponentCode, GldpcSpec, expand_binary  # noqa: F401
from .polymat import PolyMatrix, matmul_mod

__all__ = [
    "DecoderConfig",
    "TrialResult",
    "encode",
    "awgn_llrs",
    "bcjr_component",
    "gldpc_decode",
    "monte_carlo",
]


@dataclass(frozen=True)
class DecoderConfig:
    """Iteration and clipping limits for the message-passing decoder.

    ``llr_clip`` bounds every prior a constraint update sees; it must be
    a positive number (NaN is rejected).
    """

    max_iterations: int = 100
    llr_clip: float = 20.0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not self.llr_clip > 0:
            raise ValueError(f"llr_clip must be positive, got {self.llr_clip}")


@dataclass(frozen=True)
class TrialResult:
    """Aggregated Monte Carlo counts for one E_s/N_0 point."""

    snr_es_n0_db: float
    trials: int
    bit_errors: int
    block_errors: int
    seed: int
    nbits: int

    def __post_init__(self):
        if self.bit_errors > self.trials * self.nbits:
            raise ValueError("more bit errors than transmitted bits")
        if self.block_errors > self.trials:
            raise ValueError("more block errors than trials")

    @property
    def ber(self) -> float:
        return self.bit_errors / (self.trials * self.nbits) if self.trials else 0.0

    @property
    def bler(self) -> float:
        return self.block_errors / self.trials if self.trials else 0.0


def encode(G: PolyMatrix, message) -> int:
    """Encode a polynomial message vector to bit-packed codeword bits.

    Generator rows satisfy the transposed parity identity, so each entry
    of the message-times-G product is transposed as it is expanded; the
    result then has zero syndrome against the plain circulant expansion
    of the parity-check matrix.
    """
    message = list(message)
    if len(message) != G.nrows:
        raise ValueError(f"message length {len(message)} != {G.nrows} generator rows")
    if G.modulus is None:
        raise ValueError("generator matrix needs a modulus to encode")
    N = G.modulus.N
    row = matmul_mod(PolyMatrix([message], G.modulus), G).rows[0]
    bits = 0
    for j, entry in enumerate(row):
        bits |= transpose_poly(entry, G.modulus).bits << (j * N)
    return bits


def awgn_llrs(codeword, es_n0_db: float, rng=None) -> np.ndarray:
    """Channel LLRs for a codeword sent as BPSK (0 -> +1) over AWGN.

    ``rng`` may be a numpy Generator, an integer seed, or None for the
    noiseless channel (LLR signs then match the transmitted bits).
    """
    bits = np.asarray(codeword, dtype=np.int8)
    symbols = 1.0 - 2.0 * bits
    sigma2 = 1.0 / (2.0 * 10.0 ** (es_n0_db / 10.0))
    if rng is None:
        received = symbols
    else:
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        received = symbols + rng.standard_normal(bits.size) * np.sqrt(sigma2)
    return 2.0 * received / sigma2


def _spc_extrinsics(priors: np.ndarray) -> np.ndarray:
    """Leave-one-out tanh-rule check update, batched over rows."""
    t = np.tanh(priors / 2.0)
    q = priors.shape[-1]
    left = np.ones_like(t)
    right = np.ones_like(t)
    for k in range(1, q):
        left[..., k] = left[..., k - 1] * t[..., k - 1]
        right[..., q - 1 - k] = right[..., q - k] * t[..., q - k]
    loo = np.clip(left * right, -1.0 + 1e-15, 1.0 - 1e-15)
    return 2.0 * np.arctanh(loo)


def bcjr_component(comp: ComponentCode, priors) -> np.ndarray:
    """Per-bit extrinsic LLRs of a component code: the constraint update.

    The kernel follows from the component: the tanh rule for a
    single-parity check, codeword enumeration when 2^(q-p) <= q * 2^p,
    otherwise the syndrome trellis, whose metrics are clamped at
    ``_TRELLIS_CLAMP``. Accepts a single length-q prior vector or a
    batch of them.
    """
    arr = np.asarray(priors, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.shape[1] != comp.q:
        raise ValueError(f"got {arr.shape[1]} priors for a length-{comp.q} component")
    if comp.p == 1 and all(comp.parity[0]):
        ext = _spc_extrinsics(arr)
    elif 2 ** (comp.q - comp.p) <= comp.q * 2**comp.p:
        ext = _enumerated_extrinsics(comp, arr)
    else:
        ext = _trellis_extrinsics(comp, arr)
    return ext[0] if single else ext


# A row whose priors sum to at most this in magnitude keeps every codeword
# metric within this distance of the largest, and exp(-700) is still a
# normal double, so no codeword's weight underflows.
_ENUM_SPAN = 700.0

# Bound on the max-normalized trellis metrics.
_TRELLIS_CLAMP = 2.5e4


@functools.cache
def _codebook(parity: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Half-sign table (q x K) and bit-value masks (K x 2q) of K codewords.

    Column w of the sign table holds +1/2 where codeword w has a 0 and
    -1/2 where it has a 1; row w of the masks is [bit is 0 | bit is 1].
    """
    q = len(parity[0])
    pivots = {}  # reduced row echelon form: pivot column -> row mask
    for row in parity:
        mask = sum(b << j for j, b in enumerate(row))
        for col, r in pivots.items():
            if mask >> col & 1:
                mask ^= r
        if mask:
            col = (mask & -mask).bit_length() - 1
            for c, r in pivots.items():
                if r >> col & 1:
                    pivots[c] = r ^ mask
            pivots[col] = mask
    words = [0]
    for free in (j for j in range(q) if j not in pivots):
        basis = (1 << free) | sum(1 << c for c, r in pivots.items() if r >> free & 1)
        words += [w ^ basis for w in words]
    ones = np.array([[w >> j & 1 for j in range(q)] for w in words], dtype=np.float64)
    half_signs = (0.5 - ones).T.copy()
    masks = np.hstack([1.0 - ones, ones])
    half_signs.setflags(write=False)
    masks.setflags(write=False)
    return half_signs, masks


def _enumerated_extrinsics(comp, arr):
    """Exact MAP extrinsics by summing over the enumerated codebook."""
    wide = np.abs(arr).sum(axis=1) > _ENUM_SPAN
    if wide.any():
        ext = np.empty_like(arr)
        ext[wide] = _trellis_extrinsics(comp, arr[wide])
        ext[~wide] = _enumerated_extrinsics(comp, arr[~wide])
        return ext
    half_signs, masks = _codebook(comp.parity)
    metric = arr @ half_signs
    metric -= metric.max(axis=1, keepdims=True)
    sums = np.log(np.exp(metric) @ masks)
    return sums[:, : comp.q] - sums[:, comp.q :] - arr


def _trellis_extrinsics(comp, arr):
    """Extrinsics of a batch of prior rows via the syndrome trellis.

    States are the 2^p partial syndromes; forward and backward metrics
    are max-normalized each step and clamped at ``_TRELLIS_CLAMP``.
    """
    nstates = 1 << comp.p
    cols = [
        sum((row[k] & 1) << i for i, row in enumerate(comp.parity))
        for k in range(comp.q)
    ]
    perms = [np.arange(nstates) ^ col for col in cols]
    batch = arr.shape[0]

    def _step(metric, k, perm):
        g = arr[:, k, None] / 2.0
        nxt = np.logaddexp(metric + g, metric[:, perm] - g)
        nxt -= nxt.max(axis=1, keepdims=True)
        return np.clip(nxt, -_TRELLIS_CLAMP, _TRELLIS_CLAMP)

    alphas = np.full((comp.q + 1, batch, nstates), -np.inf)
    alphas[0, :, 0] = 0.0
    for k in range(comp.q):
        # Bit 0 keeps the syndrome state, bit 1 xors in column k; xor by a
        # constant is an involution so the same permutation serves both
        # the gather and the scatter direction.
        alphas[k + 1] = _step(alphas[k], k, perms[k])

    ext = np.empty_like(arr)
    beta = np.full((batch, nstates), -np.inf)
    beta[:, 0] = 0.0
    for k in range(comp.q - 1, -1, -1):
        joint = alphas[k] + beta
        joint_flip = alphas[k] + beta[:, perms[k]]
        with np.errstate(divide="ignore"):
            ext[:, k] = _logsumexp(joint) - _logsumexp(joint_flip)
        beta = _step(beta, k, perms[k])
    return ext


def _logsumexp(a: np.ndarray) -> np.ndarray:
    m = a.max(axis=1)
    safe = np.where(np.isfinite(m), m, 0.0)
    return safe + np.log(np.exp(a - safe[:, None]).sum(axis=1))


def _row_edges(H: PolyMatrix):
    """Per-row (column, exponent) pairs, one per term of each entry."""
    N = H.modulus.N
    edges = []
    for i in range(H.nrows):
        cols = []
        exps = []
        for j, entry in enumerate(H.rows[i]):
            for e in entry.exponents():
                cols.append(j)
                exps.append(e)
        shifts = (np.arange(N)[:, None] - np.array(exps)[None, :]) % N
        edges.append(np.array(cols) * N + shifts)
    return edges


# The tables of the spec decoded last: ((spec, base, assignment, prelift),
# (n, rows)). GldpcSpec is unhashable, so the key is compared by identity.
_decoder_cache = None


def _decoder_tables(spec: GldpcSpec):
    """Code length and the per-row tables of ``spec``, built once.

    One entry per constraint row: (edge indices, component with None
    resolved to its single-parity check, transposed uint8 parity).
    """
    global _decoder_cache
    key = (spec, spec.base, spec.assignment, spec.prelift)
    cached = _decoder_cache
    if cached is not None and all(a is b for a, b in zip(cached[0], key)):
        return cached[1]
    eff = spec.effective_matrix()
    rows = []
    for idx, comp in zip(_row_edges(eff), spec.assignment):
        if comp is None:
            comp = ComponentCode.spc(idx.shape[1])
        parity_t = np.array(comp.parity, dtype=np.uint8).T.copy()
        rows.append((idx, comp, parity_t))
    tables = (eff.ncols * eff.modulus.N, rows)
    _decoder_cache = (key, tables)
    return tables


def _packed(hard: np.ndarray) -> int:
    return int.from_bytes(np.packbits(hard, bitorder="little").tobytes(), "little")


def gldpc_decode(spec: GldpcSpec, llrs, cfg: DecoderConfig | None = None):
    """Flooding decode; returns (bit-packed word, converged, iterations).

    Convergence means the hard decision has zero syndrome against
    expand_binary(spec); the decoder stops at the first such iteration.
    """
    if cfg is None:
        cfg = DecoderConfig()
    n, rows = _decoder_tables(spec)
    llr = np.asarray(llrs, dtype=np.float64)
    if llr.size != n:
        raise ValueError(f"got {llr.size} LLRs for a length-{n} code")
    ext = [np.zeros(idx.shape) for idx, _, _ in rows]
    total = llr
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        new_total = llr.copy()
        for i, (idx, comp, _) in enumerate(rows):
            priors = np.clip(total[idx] - ext[i], -cfg.llr_clip, cfg.llr_clip)
            ext[i] = bcjr_component(comp, priors)
            np.add.at(new_total, idx, ext[i])
        total = new_total
        hard = total < 0
        if not any(((hard[idx] @ parity_t) & 1).any() for idx, _, parity_t in rows):
            return _packed(hard), True, iterations
    return _packed(hard), False, iterations


def monte_carlo(
    spec: GldpcSpec,
    G: PolyMatrix,
    snr_list,
    stop: dict | None = None,
    master_seed: int = 0,
    cfg: DecoderConfig | None = None,
) -> list[TrialResult]:
    """BER/BLER measurement over a list of E_s/N_0 points.

    Each trial draws its own generator from (master seed, SNR index,
    trial index), so results are reproducible and order-independent. A
    SNR point stops at ``min_block_errors`` or ``max_trials``, whichever
    comes first; ``max_trials`` of 0 yields an empty result list.
    """
    stop = stop or {}
    min_block_errors = stop.get("min_block_errors", 100)
    max_trials = stop.get("max_trials", 1000)
    if max_trials == 0:
        return []
    N = G.modulus.N
    n = G.ncols * N
    results = []
    for snr_idx, snr_db in enumerate(snr_list):
        trials = bit_errors = block_errors = 0
        while trials < max_trials and block_errors < min_block_errors:
            rng = np.random.default_rng([master_seed, snr_idx, trials])
            message = [
                BinaryPoly(
                    int.from_bytes(
                        np.packbits(
                            rng.integers(0, 2, size=N, dtype=np.uint8),
                            bitorder="little",
                        ).tobytes(),
                        "little",
                    )
                )
                for _ in range(G.nrows)
            ]
            sent = encode(G, message)
            sent_arr = np.frombuffer(
                np.unpackbits(
                    np.frombuffer(sent.to_bytes((n + 7) // 8, "little"), np.uint8),
                    bitorder="little",
                    count=n,
                ),
                dtype=np.uint8,
            )
            llr = awgn_llrs(sent_arr, snr_db, rng)
            word, _, _ = gldpc_decode(spec, llr, cfg)
            errs = (word ^ sent).bit_count()
            bit_errors += errs
            block_errors += 1 if errs else 0
            trials += 1
        results.append(
            TrialResult(snr_db, trials, bit_errors, block_errors, master_seed, n)
        )
    return results
