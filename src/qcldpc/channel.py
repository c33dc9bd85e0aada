"""Encoding, BPSK-AWGN channel, and iterative decoding with BCJR components.

The decoder updates every constraint of a GLDPC spec in parallel
(flooding): single-parity-check rows use the tanh rule, generalized
rows run a log-domain BCJR sweep over the component's syndrome trellis.
Circulant structure batches the N shift instances of each base row
through one vectorized update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf2poly import BinaryPoly, transpose_poly
from .gldpc import ComponentCode, GldpcSpec, expand_binary
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
    """Iteration and clipping limits for the message-passing decoder."""

    max_iterations: int = 100
    llr_clip: float = 20.0
    bcjr_metric_threshold: float = 2.5e4

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.llr_clip <= 0:
            raise ValueError("llr_clip must be positive")


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


def bcjr_component(
    comp: ComponentCode, priors, metric_threshold: float = 2.5e4
) -> np.ndarray:
    """Per-bit extrinsic LLRs of a component code via the syndrome trellis.

    States are the 2^p partial syndromes; forward and backward metrics
    are max-normalized each step and clamped at ``metric_threshold``.
    Accepts a single length-q prior vector or a batch of them.
    """
    arr = np.asarray(priors, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.shape[1] != comp.q:
        raise ValueError(f"got {arr.shape[1]} priors for a length-{comp.q} component")
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
        return np.clip(nxt, -metric_threshold, metric_threshold)

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
    return ext[0] if single else ext


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


def gldpc_decode(spec: GldpcSpec, llrs, cfg: DecoderConfig | None = None):
    """Flooding decode; returns (bit-packed word, converged, iterations).

    Convergence means the hard decision has zero syndrome against
    expand_binary(spec); the decoder stops at the first such iteration.
    """
    if cfg is None:
        cfg = DecoderConfig()
    eff = spec.effective_matrix()
    N = eff.modulus.N
    n = eff.ncols * N
    llr = np.asarray(llrs, dtype=np.float64)
    if llr.size != n:
        raise ValueError(f"got {llr.size} LLRs for a length-{n} code")
    var_idx = _row_edges(eff)
    ext = [np.zeros(idx.shape) for idx in var_idx]
    parity_rows = expand_binary(spec).rows
    total = llr
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        new_total = llr.copy()
        for i, comp in enumerate(spec.assignment):
            priors = np.clip(total[var_idx[i]] - ext[i], -cfg.llr_clip, cfg.llr_clip)
            if comp is None:
                ext[i] = _spc_extrinsics(priors)
            else:
                ext[i] = bcjr_component(comp, priors, cfg.bcjr_metric_threshold)
            np.add.at(new_total, var_idx[i], ext[i])
        total = new_total
        word = int.from_bytes(
            np.packbits(total < 0, bitorder="little").tobytes(), "little"
        )
        if all((row & word).bit_count() % 2 == 0 for row in parity_rows):
            return word, True, iterations
    return word, False, iterations


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
