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
- the others run a BCJR sweep over the 2^p states of the syndrome
  trellis (Bahl et al. 1974; Wolf 1978) in the probability domain: one
  exp gives the bit weights, each step is a multiply-add over the state
  permutation, and one log ends it. State sums at most double per step,
  so they are divided by their largest entry only every 256 steps.

Both probability-domain kernels take only rows whose weights fit a
double's exponent range; the wider rows run the same trellis in the log
domain, the reference kernel. The edge indices, components and parity
checks a spec needs are built at its first decode and reused; the edge
indices are ``polymat.row_edges`` of the spec's effective matrix, the
same Tanner edge map that ``analysis.girth`` reads.

The decoder stores its gathered priors and its extrinsics bit-major: the
block of one constraint row holds bit k of all its instances (frames x
N) contiguously, for each k in turn. Every kernel computes on such a
(q x rows) block, so each step spans contiguous memory, and
``bcjr_component`` sees its (rows x q) transpose view.

One decoder core, ``_decode_frames``, runs a stack of frames at once, so
each kernel call covers the rows of every active frame; ``gldpc_decode``
is its one-frame call. ``monte_carlo`` draws every trial from its own
generator and decodes the frames in chunks of about ``_CHUNK_ROWS`` rows
per kernel call, spanning SNR points. No arithmetic mixes frames and
errors are counted in trial order, so results do not depend on the
chunk size; at most one chunk per SNR point is decoded past its early
stop, and the frames past the stop are discarded.

The decoder's large per-iteration arrays (gathered priors, totals and
extrinsics, the tanh rule's temporaries, the trellis's weights, state
probabilities and sums) are work arrays that each thread keeps and reuses
from call to call, growing them only when a larger batch needs it: a
decode then writes into pages it has already touched instead of asking
malloc for fresh ones.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .binmat import pack_bits, unpack_bits
from .gf2poly import BinaryPoly, transpose_poly
# expand_binary defines convergence (see gldpc_decode) but the decoder
# checks it row by row from its tables; the name stays importable here,
# where perfbench's tracer test rebinds it.
from .gldpc import ComponentCode, GldpcSpec, expand_binary  # noqa: F401
from .polymat import PolyMatrix, matmul_mod, row_edges

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


# The calling thread's work arrays, by name (see _work).
_workspace = threading.local()


def _work(name: str, shape, dtype=np.float64) -> np.ndarray:
    """The calling thread's work array ``name``, viewed as ``shape``.

    It holds whatever its last user left there. It only grows, so a
    smaller request reuses the pages of a larger one; each name has one
    user at a time, and nothing returned to a caller is a work array.
    """
    size = math.prod(shape)
    buf = getattr(_workspace, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(size, dtype)
        setattr(_workspace, name, buf)
    return buf[:size].reshape(shape)


def _spc_extrinsics(priors: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Leave-one-out tanh-rule check update, batched over rows, into ``out``.

    It runs on the (q x rows) transposes, so each prefix and suffix
    product step spans bit k of every row: contiguous memory when the
    priors are a bit-major view.
    """
    bits = priors.T
    q = bits.shape[0]
    t = _work("spc_t", bits.shape)
    np.divide(bits, 2.0, out=t)
    np.tanh(t, out=t)
    left = _work("spc_left", bits.shape)
    right = _work("spc_right", bits.shape)
    left[0] = 1.0
    right[q - 1] = 1.0
    for k in range(1, q):
        np.multiply(left[k - 1], t[k - 1], out=left[k])
        np.multiply(right[q - k], t[q - k], out=right[q - 1 - k])
    loo = np.multiply(left, right, out=left)
    np.clip(loo, -1.0 + 1e-15, 1.0 - 1e-15, out=loo)
    np.multiply(2.0, np.arctanh(loo, out=loo), out=out.T)
    return out


def bcjr_component(comp: ComponentCode, priors, *, out=None) -> np.ndarray:
    """Per-bit extrinsic LLRs of a component code: the constraint update.

    A single-parity check takes the tanh rule. Any other component takes
    codeword enumeration when 2^(q-p) <= q * 2^p and the probability-
    domain syndrome trellis otherwise; rows whose priors sum to more than
    ``_PROB_SPAN`` in magnitude go to the log-domain trellis instead,
    whose metrics are clamped at ``_TRELLIS_CLAMP``. Accepts a single
    length-q prior vector or a batch of them (rows x q) with any strides.
    The extrinsics go to a new array of the priors' layout, or into
    ``out``, a float64 array of the priors' shape with any strides.

    Every kernel computes on the (q x rows) transpose, so it runs fastest
    on a bit-major batch: the ``.T`` view of a C-ordered (q x rows) array,
    which is how the decoder passes its priors and ``out``.
    """
    arr = np.asarray(priors, dtype=np.float64)
    ext = np.empty_like(arr) if out is None else out
    rows = ext
    if arr.ndim == 1:
        arr, rows = arr[None, :], ext[None, :]
    if arr.shape[1] != comp.q:
        raise ValueError(f"got {arr.shape[1]} priors for a length-{comp.q} component")
    if comp.p == 1 and all(comp.parity[0]):
        _spc_extrinsics(arr, rows)
    else:
        if 2 ** (comp.q - comp.p) <= comp.q * 2**comp.p:
            kernel = _enumerated_extrinsics
        else:
            kernel = _product_trellis
        bits = arr.T
        wide = np.abs(bits, out=_work("span_abs", bits.shape)).sum(axis=0) > _PROB_SPAN
        if wide.any():
            rows[wide] = _trellis_extrinsics(comp, arr[wide])
            rows[~wide] = _in_pairs(kernel, comp, bits[:, ~wide].T)
        else:
            _in_pairs(kernel, comp, arr, rows)
    return ext


def _in_pairs(kernel, comp, arr, out=None):
    """``kernel(comp, arr, out)``, with a lone row run as two equal rows.

    A one-row batch rounds differently from the same row in a larger one:
    numpy hands a one-column product to BLAS gemv, and a one-column state
    sum takes another order. Two rows round as any larger batch does.
    """
    if len(arr) != 1:
        return kernel(comp, arr, out)
    pair = kernel(comp, np.repeat(arr, 2, axis=0))
    if out is None:
        return pair[:1]
    out[...] = pair[:1]
    return out


# Every codeword or trellis path of a row weighs at least exp(-sum |prior|)
# against the row's hard decision, and exp(-700) is still a normal double:
# up to this span the probability-domain kernels lose no weight to
# underflow. Wider rows take the log-domain trellis.
_PROB_SPAN = 700.0

# Bound on the max-normalized log-domain trellis metrics.
_TRELLIS_CLAMP = 2.5e4

# Steps between the probability-domain trellis's rescales. Both weights of
# a bit are at most 1, so a state sum at most doubles per step; the value
# a prior favours weighs exactly 1, so the largest state sum never falls
# below its start of 1. Rescaling every 256 steps keeps forward and
# backward sums at most 2^256 each and their products at most 2^512, far
# inside a double's range, and the smallest sums only further from
# underflow than a per-step rescale would leave them.
_RESCALE_STEPS = 256


@functools.cache
def _codebook(parity: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Half-sign table (K x q) and bit-value masks (2q x K) of K codewords.

    Row w of the sign table holds +1/2 where codeword w has a 0 and
    -1/2 where it has a 1; column w of the masks is [bit is 0 | bit is 1].
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
    ones = np.array([unpack_bits(w, q) for w in words], dtype=np.float64)
    half_signs = 0.5 - ones
    masks = np.vstack([1.0 - ones.T, ones.T])
    half_signs.setflags(write=False)
    masks.setflags(write=False)
    return half_signs, masks


@functools.cache
def _state_perms(parity: tuple) -> np.ndarray:
    """Syndrome-trellis transitions (q x 2^p): row k maps s to s xor column k.

    Bit k = 0 keeps the syndrome state and bit k = 1 xors in column k; xor
    by a constant is an involution, so one row serves both the gather and
    the scatter direction.
    """
    cols = [
        sum((row[k] & 1) << i for i, row in enumerate(parity))
        for k in range(len(parity[0]))
    ]
    perms = np.arange(1 << len(parity))[None, :] ^ np.array(cols)[:, None]
    perms.setflags(write=False)
    return perms


def _enumerated_extrinsics(comp, arr, out=None):
    """Exact MAP extrinsics by summing over the enumerated codebook.

    On the (q x batch) transpose, one product gives the (K x batch)
    codeword metrics and a second their sums per bit value. The
    extrinsics go into ``out`` (batch x q), or a new array.
    """
    if out is None:
        out = np.empty_like(arr)
    half_signs, masks = _codebook(comp.parity)
    q, batch = comp.q, arr.shape[0]
    # BLAS rounds the sums of one product differently by operand layout,
    # so every layout of the priors meets it as a C-ordered (q x batch).
    bits = np.ascontiguousarray(arr.T)
    metric = half_signs @ bits
    metric -= metric.max(axis=0)
    np.exp(metric, out=metric)
    sums = masks @ metric
    np.log(sums, out=sums)
    np.subtract(sums[:q], sums[q:], out=out.T)
    out -= arr
    return out


def _product_trellis(comp, arr, out=None):
    """Syndrome-trellis extrinsics of a batch of prior rows, in probabilities.

    Bit k weighs its two values by exp(+-L/2 - |L|/2): 1 for the value its
    prior favours and exp(-|L|) for the other, so one exp gives every
    weight. It reads the priors and writes ``out`` (batch x q, or a new
    array) through their (q x batch) transposes, contiguous for a
    bit-major batch. Forward and backward state probabilities (states x
    batch) at most double per step and their largest entry never falls,
    so they are divided by their largest entry only every
    ``_RESCALE_STEPS`` steps: a row of up to 256 bits never rescales. The
    log is taken once at the end.
    """
    if out is None:
        out = np.empty_like(arr)
    perms = _state_perms(comp.parity)
    q, nstates = perms.shape
    batch = arr.shape[0]
    other = np.abs(arr.T, out=_work("trellis_other", (q, batch)))
    np.negative(other, out=other)
    np.exp(other, out=other)
    favours_zero = np.greater_equal(arr.T, 0, out=_work("trellis_favours", (q, batch), bool))
    w0 = _work("trellis_w0", (q, batch))
    w1 = _work("trellis_w1", (q, batch))
    np.copyto(w0, other)
    np.copyto(w0, 1.0, where=favours_zero)
    w1.fill(1.0)
    np.copyto(w1, other, where=favours_zero)
    flipped = _work("trellis_flipped", (nstates, batch))
    largest = _work("trellis_largest", (batch,))

    def _step(prob, k, nxt, steps):
        # ``steps`` counts the steps taken, this one included.
        np.multiply(prob, w0[k], out=nxt)
        np.take(prob, perms[k], axis=0, out=flipped, mode="clip")
        nxt += np.multiply(flipped, w1[k], out=flipped)
        if steps % _RESCALE_STEPS == 0:
            nxt /= np.max(nxt, axis=0, out=largest)
        return nxt

    # The forward probabilities of all q steps share one (q x states x batch)
    # work array and the backward steps swap two, so a warm call touches no
    # new pages: malloc mapped a fresh block of this size on every call.
    alphas = _work("trellis_alphas", (q, nstates, batch))
    alphas[0].fill(0.0)
    alphas[0, 0] = 1.0
    for k in range(q - 1):
        _step(alphas[k], k, alphas[k + 1], k + 1)

    sums = _work("trellis_sums", (2, q, batch))
    beta = _work("trellis_beta", (nstates, batch))
    spare = _work("trellis_beta_next", (nstates, batch))
    joint = _work("trellis_joint", (nstates, batch))
    beta.fill(0.0)
    beta[0] = 1.0
    for k in range(q - 1, -1, -1):
        np.sum(np.multiply(alphas[k], beta, out=joint), axis=0, out=sums[0, k])
        np.take(beta, perms[k], axis=0, out=joint, mode="clip")
        np.sum(np.multiply(alphas[k], joint, out=joint), axis=0, out=sums[1, k])
        if k:
            beta, spare = _step(beta, k, spare, q - k), beta
    np.log(sums, out=sums)
    np.subtract(sums[0], sums[1], out=out.T)
    return out


def _trellis_extrinsics(comp, arr):
    """Extrinsics of a batch of prior rows via the log-domain syndrome trellis.

    States are the 2^p partial syndromes; forward and backward metrics
    are max-normalized each step and clamped at ``_TRELLIS_CLAMP``. The
    reference kernel, and the only one for rows wider than ``_PROB_SPAN``.
    """
    perms = _state_perms(comp.parity)
    nstates = perms.shape[1]
    batch = arr.shape[0]

    def _step(metric, k):
        g = arr[:, k, None] / 2.0
        nxt = np.logaddexp(metric + g, metric[:, perms[k]] - g)
        nxt -= nxt.max(axis=1, keepdims=True)
        return np.clip(nxt, -_TRELLIS_CLAMP, _TRELLIS_CLAMP)

    alphas = np.full((comp.q + 1, batch, nstates), -np.inf)
    alphas[0, :, 0] = 0.0
    for k in range(comp.q):
        alphas[k + 1] = _step(alphas[k], k)

    ext = np.empty_like(arr)
    beta = np.full((batch, nstates), -np.inf)
    beta[:, 0] = 0.0
    for k in range(comp.q - 1, -1, -1):
        joint = alphas[k] + beta
        joint_flip = alphas[k] + beta[:, perms[k]]
        with np.errstate(divide="ignore"):
            ext[:, k] = _logsumexp(joint) - _logsumexp(joint_flip)
        beta = _step(beta, k)
    return ext


def _logsumexp(a: np.ndarray) -> np.ndarray:
    m = a.max(axis=1)
    safe = np.where(np.isfinite(m), m, 0.0)
    return safe + np.log(np.exp(a - safe[:, None]).sum(axis=1))


# The tables of the spec decoded last: ((spec, base, assignment, prelift),
# (n, rows)). GldpcSpec is unhashable, so the key is compared by identity.
_decoder_cache = None


def _decoder_tables(spec: GldpcSpec):
    """Code length and the per-row tables of ``spec``, built once.

    One entry per constraint row: (edge indices, component with None
    resolved to its single-parity check, the bit positions each parity
    row of the component checks).
    """
    global _decoder_cache
    key = (spec, spec.base, spec.assignment, spec.prelift)
    cached = _decoder_cache
    if cached is not None and all(a is b for a, b in zip(cached[0], key)):
        return cached[1]
    eff = spec.effective_matrix()
    rows = []
    for idx, comp in zip(row_edges(eff), spec.assignment):
        if comp is None:
            comp = ComponentCode.spc(idx.shape[1])
        checks = tuple(np.flatnonzero(row) for row in comp.parity)
        rows.append((idx, comp, checks))
    tables = (eff.ncols * eff.modulus.N, rows)
    _decoder_cache = (key, tables)
    return tables


# Constraint rows one kernel call should see: a chunk of frames makes each
# call cover about this many rows (see _chunk_frames).
_CHUNK_ROWS = 1024


def _chunk_frames(spec: GldpcSpec) -> int:
    """Frames monte_carlo decodes per call: enough for ``_CHUNK_ROWS`` rows a call."""
    _, rows = _decoder_tables(spec)
    return max(1, _CHUNK_ROWS // rows[0][0].shape[0])


def _batch_layout(rows, frames: int, n: int):
    """Flat gather indices of ``frames`` frames and each row's place in them.

    The indices address a flat (frames x n) array as ``b * n + idx``, row
    after row. Each row's run is bit-major, ordered (bit, frame, shift),
    so that bit k of all frames * N instances of the row is one contiguous
    span. Each row gets its (component, parity checks, slice, (q, frames,
    N) shape).
    """
    offsets = np.arange(frames)[:, None] * n
    gather, segments, start = [], [], 0
    for idx, comp, checks in rows:
        gather.append((offsets[None] + idx.T[:, None, :]).ravel())
        size = frames * idx.size
        shape = (idx.shape[1], frames, idx.shape[0])
        segments.append((comp, checks, slice(start, start + size), shape))
        start += size
    return np.concatenate(gather), segments


def _decode_frames(spec: GldpcSpec, llrs: np.ndarray, cfg: DecoderConfig):
    """Flooding decode of a stack of frames (B x n channel LLRs).

    Returns (hard decisions B x n, converged B, iterations B). Every
    iteration gathers, clips, updates and scatters all active frames at
    once; a frame leaves the active set at its own convergence, and no
    arithmetic mixes frames, so each frame's result equals its decode
    alone. The scatter adds each row's extrinsics in the same order for
    every batch, so totals do not depend on which frames share a call.
    """
    n, rows = _decoder_tables(spec)
    frames = llrs.shape[0]
    hard_out = np.zeros((frames, n), dtype=bool)
    converged = np.zeros(frames, dtype=bool)
    iterations = np.zeros(frames, dtype=int)
    active = np.arange(frames)
    llr = np.ascontiguousarray(llrs, dtype=np.float64).ravel()
    total = llr
    gather, segments = _batch_layout(rows, frames, n)
    ext = _work("ext", gather.shape)
    ext.fill(0.0)
    for iteration in range(1, cfg.max_iterations + 1):
        priors = _work("priors", gather.shape)
        # Indices are in range; "clip" lets take write into out unbuffered.
        np.take(total, gather, out=priors, mode="clip")
        priors -= ext
        np.clip(priors, -cfg.llr_clip, cfg.llr_clip, out=priors)
        for comp, _, sl, (q, _, _) in segments:
            # The (rows x q) views of the row's bit-major blocks.
            bcjr_component(comp, priors[sl].reshape(q, -1).T, out=ext[sl].reshape(q, -1).T)
        total = _work("total", llr.shape)
        np.copyto(total, llr)
        np.add.at(total, gather, ext)
        hard = total < 0
        bits = hard[gather]
        failed = np.zeros(active.size, dtype=bool)
        for _, checks, sl, shape in segments:
            block = bits[sl].reshape(shape)
            for cols in checks:
                failed |= np.bitwise_xor.reduce(block[cols], axis=0).any(axis=1)
        hard_out[active] = hard.reshape(-1, n)
        converged[active] = ~failed
        iterations[active] = iteration
        if not failed.any():
            break
        if not failed.all():
            # Drop the converged frames from every per-frame array.
            active = active[failed]
            ext = ext[failed[gather // n]]
            llr = llr.reshape(-1, n)[failed].ravel()
            total = total.reshape(-1, n)[failed].ravel()
            gather, segments = _batch_layout(rows, active.size, n)
    return hard_out, converged, iterations


def gldpc_decode(spec: GldpcSpec, llrs, cfg: DecoderConfig | None = None):
    """Flooding decode; returns (bit-packed word, converged, iterations).

    Convergence means the hard decision has zero syndrome against
    expand_binary(spec); the decoder stops at the first such iteration.
    This is the one-frame call of the decoder monte_carlo runs on chunks
    of frames. A NaN LLR is rejected; +-inf are accepted, since the clip
    bounds every prior.
    """
    if cfg is None:
        cfg = DecoderConfig()
    n, _ = _decoder_tables(spec)
    llr = np.asarray(llrs, dtype=np.float64)
    if llr.size != n:
        raise ValueError(f"got {llr.size} LLRs for a length-{n} code")
    if np.isnan(llr).any():
        raise ValueError("LLRs must not be NaN")
    hard, converged, iterations = _decode_frames(spec, llr.reshape(1, n), cfg)
    return pack_bits(hard[0]), bool(converged[0]), int(iterations[0])


def _draw_trial(G: PolyMatrix, master_seed: int, snr_idx: int, trial: int, snr_db: float):
    """Sent bits and channel LLRs of one trial, from its own generator.

    The generator is ``default_rng([master_seed, snr_idx, trial])``; it
    draws the message bits first, then the channel noise.
    """
    N = G.modulus.N
    n = G.ncols * N
    rng = np.random.default_rng([master_seed, snr_idx, trial])
    message = [
        BinaryPoly(pack_bits(rng.integers(0, 2, size=N, dtype=np.uint8)))
        for _ in range(G.nrows)
    ]
    sent_bits = unpack_bits(encode(G, message), n)
    return sent_bits, awgn_llrs(sent_bits, snr_db, rng)


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
    comes first; ``max_trials`` of 0 yields an empty result list. A
    non-finite SNR point is rejected.

    Trials are drawn in order, point after point, and decoded in chunks
    of frames that may span points. Errors are counted in trial order and
    frames drawn past a point's stop are discarded, so the counts do not
    depend on the chunk size; at most one chunk per point is decoded past
    its early stop.
    """
    snrs = list(snr_list)
    if not all(math.isfinite(s) for s in snrs):
        raise ValueError(f"SNR points must be finite, got {snrs}")
    stop = stop or {}
    min_block_errors = stop.get("min_block_errors", 100)
    max_trials = stop.get("max_trials", 1000)
    if max_trials == 0:
        return []
    if cfg is None:
        cfg = DecoderConfig()
    counts = [[0, 0, 0] for _ in snrs]  # trials, bit errors, block errors

    def stopped(point):
        trials, _, block_errors = counts[point]
        return trials >= max_trials or block_errors >= min_block_errors

    n = G.ncols * G.modulus.N
    llrs = np.empty((_chunk_frames(spec), n))
    point = trial = 0  # the next trial to draw
    while True:
        drawn = []  # (point, sent bits) of each row of llrs
        while len(drawn) < len(llrs) and point < len(snrs):
            if stopped(point):
                point, trial = point + 1, 0
                continue
            sent_bits, llr = _draw_trial(G, master_seed, point, trial, snrs[point])
            llrs[len(drawn)] = llr
            drawn.append((point, sent_bits))
            trial += 1
            if trial == max_trials:
                point, trial = point + 1, 0
        if not drawn:
            break
        hard, _, _ = _decode_frames(spec, llrs[: len(drawn)], cfg)
        for (p, sent_bits), word in zip(drawn, hard):
            if stopped(p):
                continue
            errs = int(np.count_nonzero(word != sent_bits))
            counts[p][0] += 1
            counts[p][1] += errs
            counts[p][2] += 1 if errs else 0
    return [
        TrialResult(snr_db, trials, bit_errors, block_errors, master_seed, n)
        for snr_db, (trials, bit_errors, block_errors) in zip(snrs, counts)
    ]
