"""Encoding, BPSK-AWGN channel, and iterative GLDPC decoding.

``encode`` reads a term table of the generator, ``_encoder_table``, built
from each entry's ``gf2poly.bit_positions``: ``monte_carlo`` builds it
once per call and hands it to every trial's ``encode``, and a call
without one builds its own. Block j of a codeword is T(sum_i m_i g_ij),
with T the circulant transpose, and since T is a ring automorphism that
is one cyclic rotation of T(m_i) per term of g_ij, with no polynomial
product. Bits go between ints and 0/1 arrays through ``binmat.pack_bits``
and ``unpack_bits`` only: the trial draws, the hard decisions, and the
components' codebooks and trellis transitions.

The decoder updates every constraint of a GLDPC spec in parallel
(flooding). Circulant structure batches the N shift instances of each
base row through one vectorized update, and ``bcjr_component`` is the
one constraint-node update for every row, a plain single-parity check
included. It returns the exact bitwise MAP extrinsics through one of
three kernels, chosen from the component alone (one whose kernel table
would pass ``_MAX_KERNEL_TABLE`` entries is refused):

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
double's exponent range: rows whose priors sum to at most ``_PROB_SPAN``
in magnitude. The wider rows run the same trellis in the log domain, the
reference kernel. No row can be wide while q times the largest prior
magnitude stays within half the span. A call of ``bcjr_component`` scans
its priors for wide rows only past that; the decoder clips every prior
to ``llr_clip``, so its rows skip the scan whenever q * ``llr_clip`` is
within half the span: with the default of 20, on every component of 17
bits or fewer.

Each kernel comes in two steps: ``_prepare_kernel(comp, batch, bound)``
resolves the kernel, carves its work arrays and takes every view its
steps index (the prefix and suffix products, the trellis's per-step
weights, state probabilities and sums, the products' outputs), and the
``run(priors, out)`` it returns does the arithmetic. A plain call of
``bcjr_component`` prepares a one-shot run. The decoder keeps what it
prepares: ``_held_kernel`` holds each thread's runs by (parity rows,
batch, bound), so a batch shape met again, in a later layout or a later
call, costs one dict lookup.

The edge indices, components and parity checks a spec needs are looked
up once per ``gldpc_decode`` or ``monte_carlo`` call and passed to the
decoder. They are built once per spec content (an ``lru_cache`` keyed on
the effective matrix's entry bits and the components' parity rows), so
a spec edited in place gets its own; the edge indices are
``polymat.row_edges`` of the spec's effective matrix, the same Tanner
edge map that ``analysis.girth`` reads.

The decoder stores its gathered priors and its extrinsics bit-major: the
block of one constraint row holds bit k of all its instances (frames x
N) contiguously, for each k in turn. Every kernel computes on such a
(q x rows) block, so each step spans contiguous memory, and
``bcjr_component`` sees its (rows x q) transpose view.

One decoder core, ``_decode_frames``, runs a stack of frames at once, so
each kernel call covers the rows of every active frame; ``gldpc_decode``
is its one-frame call. The set of active frames, its layout, changes only
when frames leave, and the decoder enters every layout, the first and
each one after a leave, through one ``_layout_plan`` call. It writes the
gather indices, gathers the layout's priors from its totals, and resolves
what the iterations reuse: each row's views and prepared run, which the
decoder hands to ``bcjr_component`` with the row's priors, so every row
update is still one call of it, and the convergence check's arrays.
After each scatter the decoder gathers the totals at every edge once:
their signs are what the check reads, and less the extrinsics they are
the next iteration's priors. The check, ``_failed_frames``, takes the
lines of every parity check in one call, padded to the largest check
degree, then XOR-reduces them and ORs the syndromes per frame, each into
its held array: a few numpy calls per iteration, however many checks
the spec has. A frame's results are written once, as it leaves the
active set.

``monte_carlo`` draws every trial from its own generator, in the order of
one schedule of (point, trial), and decodes the frames in chunks of about
``_CHUNK_ROWS`` rows per kernel call, spanning SNR points. No arithmetic
mixes frames and errors are counted in trial order, so results do not
depend on the chunk size; at most one chunk per SNR point is decoded past
its early stop, and the frames past the stop are discarded.

The decoder's large per-iteration arrays (gathered priors, totals and
extrinsics, the gather indices, the kernels' work arrays, the check's
hard decisions, lines and syndromes) are work arrays that each thread
keeps and reuses from call to call, growing them only when a larger
batch needs it: a decode then writes into pages it has already touched
instead of asking malloc for fresh ones. When frames leave, the staying
frames' extrinsics are compressed into the priors' array and the two
swap roles, so a layout change allocates nothing large either. Held runs
and a layout's check keep views of them, and every holder rewrites all
it reads on each run: the rows of a layout, and runs held from earlier
layouts, share them, each run finishing before the next starts. Growing
a work array drops the held runs.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .binmat import pack_bits, unpack_bits
from .gf2poly import BinaryPoly, RingModulus, bit_positions, transpose_poly
# expand_binary defines convergence (see gldpc_decode) but the decoder
# checks it from its edge tables; the name stays importable here,
# where perfbench's tracer test rebinds it.
from .gldpc import ComponentCode, GldpcSpec, expand_binary  # noqa: F401
from .polymat import PolyMatrix, row_edges

__all__ = [
    "DecoderConfig",
    "TrialResult",
    "encode",
    "awgn_llrs",
    "bcjr_component",
    "gldpc_decode",
    "monte_carlo",
]


def _integer(value, what: str):
    """``value`` when it is an integer, a numpy one included, else ValueError.

    A bool is not taken for one, nor a float of integral value.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _real(value, what: str):
    """``value`` when it is a real number, numpy's included, else ValueError.

    A bool is not taken for one, nor a string of digits.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    return value


@dataclass(frozen=True)
class DecoderConfig:
    """Iteration and clipping limits for the message-passing decoder.

    ``max_iterations`` must be an integer of at least 1 (a numpy integer
    passes; a bool, float or string does not). ``llr_clip`` bounds every
    prior a constraint update sees; it must be a positive, finite real
    number (NaN, inf, a bool and a string are rejected).
    """

    max_iterations: int = 100
    llr_clip: float = 20.0

    def __post_init__(self):
        if _integer(self.max_iterations, "max_iterations") < 1:
            raise ValueError("max_iterations must be at least 1")
        if not _real(self.llr_clip, "llr_clip") > 0:
            raise ValueError(f"llr_clip must be positive, got {self.llr_clip}")
        if not math.isfinite(self.llr_clip):
            raise ValueError(f"llr_clip must be finite, got {self.llr_clip}")


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


def _encoder_table(G: PolyMatrix):
    """Per column block j of ``G``, one (message row i, e) per term x^e of g_ij.

    Each column's terms run by row i, then by exponent e.
    """
    return [
        tuple((i, e) for i, row in enumerate(G.rows) for e in bit_positions(row[j].bits))
        for j in range(G.ncols)
    ]


def encode(G: PolyMatrix, message, *, _table=None) -> int:
    """Encode a polynomial message vector to bit-packed codeword bits.

    Generator rows satisfy the transposed parity identity, so block j of
    the codeword is T(sum_i m_i g_ij), with T the circulant transpose
    ``transpose_poly``; the result then has zero syndrome against the
    plain circulant expansion of the parity-check matrix. T is a ring
    automorphism and takes x^e to x^-e, so the block is the sum of
    T(m_i) x^-e over the terms x^e of every g_ij: one cyclic rotation of
    T(m_i), right by e, per term of G's term table (``_encoder_table``).
    ``monte_carlo`` builds that table once per call and passes it as
    ``_table``; a call without one builds its own.
    """
    message = list(message)
    if len(message) != G.nrows:
        raise ValueError(f"message length {len(message)} != {G.nrows} generator rows")
    N = G.ring.N
    # T(m_i) twice over: shifted right by e, its low N bits are T(m_i)
    # rotated right by e.
    doubled = []
    for m in message:
        a = transpose_poly(m, G.modulus).bits
        doubled.append(a | a << N)
    mask = (1 << N) - 1
    bits = 0
    for j, terms in enumerate(_encoder_table(G) if _table is None else _table):
        block = 0
        for i, e in terms:
            block ^= doubled[i] >> e
        bits |= (block & mask) << (j * N)
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
    smaller request reuses the pages of a larger one. Views of it may be
    held: a prepared kernel holds its views for as long as it is kept
    (see ``_held_kernel``) and a layout plan its check's, so several
    holders share a name. Each holder therefore rewrites all it reads on
    every run, and runs one at a time; nothing returned to a public
    caller is a work array. Growing a name drops the held kernels, so
    they let go of the old arrays.
    """
    size = math.prod(shape)
    buf = getattr(_workspace, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(size, dtype)
        setattr(_workspace, name, buf)
        _workspace.kernels = {}
    return buf[:size].reshape(shape)


def _spc_kernel(comp: ComponentCode, batch: int):
    """The tanh-rule check update of ``batch`` rows, as ``run(arr, out)``.

    It runs on the (q x rows) transposes, so each prefix and suffix
    product step spans bit k of every row: contiguous memory when the
    priors are a bit-major view. The steps' views of the work arrays are
    taken here, once.
    """
    q = comp.q
    t = _work("spc_t", (q, batch))
    left = _work("spc_left", (q, batch))
    right = _work("spc_right", (q, batch))
    ts, lefts, rights = list(t), list(left), list(right)
    steps = []
    for k in range(1, q):
        steps.append((lefts[k - 1], ts[k - 1], lefts[k]))
        steps.append((rights[q - k], ts[q - k], rights[q - 1 - k]))
    first, last = lefts[0], rights[q - 1]

    def run(arr, out):
        np.divide(arr.T, 2.0, out=t)
        np.tanh(t, out=t)
        first.fill(1.0)
        last.fill(1.0)
        for a, b, product in steps:
            np.multiply(a, b, out=product)
        loo = np.multiply(left, right, out=left)
        np.maximum(loo, -1.0 + 1e-15, out=loo)
        np.minimum(loo, 1.0 - 1e-15, out=loo)
        np.multiply(2.0, np.arctanh(loo, out=loo), out=out.T)

    return run


# Entries one row's kernel table may hold: the codewords an enumerating
# kernel sums over, or the q * 2^p trellis states a trellis kernel steps
# through. A kernel's work arrays grow with it per row, and the bundled
# components need at most 240.
_MAX_KERNEL_TABLE = 1 << 15


def _kernel_of(comp: ComponentCode):
    """The kernel that updates ``comp``'s rows, or ValueError when it is too large.

    A single-parity check takes ``_spc_kernel``. Any other component takes
    ``_enumerated_kernel`` when 2^(q-p) <= q * 2^p and ``_product_trellis``
    otherwise; the chosen kernel's table, the 2^(q - rank) codewords of
    the enumeration or the q * 2^p trellis states, must hold at most
    ``_MAX_KERNEL_TABLE`` entries.
    """
    if comp.p == 1 and all(comp.parity[0]):
        return _spc_kernel
    q, p = comp.q, comp.p
    if 2 ** (q - p) <= q * 2**p:
        kernel, size = _enumerated_kernel, 2 ** (q - len(_pivots(comp.parity)))
    else:
        kernel, size = _product_trellis, q * 2**p
    if size > _MAX_KERNEL_TABLE:
        raise ValueError(
            f"a component of {p} parity rows over {q} bits needs a kernel table of "
            f"{size} entries, past the bound of {_MAX_KERNEL_TABLE}"
        )
    return kernel


def _prepare_kernel(comp: ComponentCode, batch: int, bound: float = math.inf):
    """The constraint update of ``batch`` rows of ``comp``, as ``run(arr, out)``.

    ``run`` writes the extrinsics of the (batch x q) priors ``arr`` into
    ``out``, both of any strides. Its work arrays are carved from the
    calling thread's and its step views taken here, so a caller that runs
    one batch shape many times prepares it once. ``bound`` bounds every
    prior's magnitude: while q times it stays within half ``_PROB_SPAN``,
    no row can be wide and ``run`` skips the span scan.
    """
    kernel = _kernel_of(comp)
    if kernel is _spc_kernel:
        return _spc_kernel(comp, batch)
    run = _in_pairs(kernel, comp, batch)
    # A row's span is at most q times its largest prior, so no row can be
    # wide while that stays within half the bound (the half leaves room
    # for the sum's rounding).
    if comp.q * bound <= _PROB_SPAN / 2:
        return run

    def scanned(arr, out):
        bits = arr.T
        spans = np.abs(bits, out=_work("span_abs", bits.shape))
        # fmax skips NaN, as the row scan does.
        if comp.q * np.fmax.reduce(spans, axis=None, initial=0.0) > _PROB_SPAN / 2:
            wide = np.add.reduce(spans, axis=0) > _PROB_SPAN
            if np.logical_or.reduce(wide):
                out[wide] = _trellis_extrinsics(comp, arr[wide])
                narrow = bits[:, ~wide]
                ext = np.empty_like(narrow)
                _in_pairs(kernel, comp, narrow.shape[1])(narrow.T, ext.T)
                out[~wide] = ext.T
                return
        run(arr, out)

    return scanned


# Prepared kernels a thread keeps at most (see _held_kernel).
_HELD_KERNELS = 64


def _held_kernel(comp: ComponentCode, batch: int, bound: float):
    """``_prepare_kernel(comp, batch, bound)``, kept by the calling thread.

    A kernel depends on its component's parity rows only, so runs are
    kept by (parity, batch, bound): a decoder that meets a batch shape
    again, in a later layout or a later call, reuses its run. They are
    dropped when any work array grows, and all at once past
    ``_HELD_KERNELS`` of them.
    """
    kept = getattr(_workspace, "kernels", None)
    if kept is None or len(kept) >= _HELD_KERNELS:
        kept = _workspace.kernels = {}
    key = (comp.parity, batch, bound)
    run = kept.get(key)
    if run is None:
        run = _prepare_kernel(comp, batch, bound)
        # Preparing may grow a work array, which replaces the dict.
        _workspace.kernels[key] = run
    return run


def bcjr_component(comp: ComponentCode, priors, *, out=None, _kernel=None) -> np.ndarray:
    """Per-bit extrinsic LLRs of a component code: the constraint update.

    A single-parity check takes the tanh rule. Any other component takes
    codeword enumeration when 2^(q-p) <= q * 2^p and the probability-
    domain syndrome trellis otherwise; rows whose priors sum to more than
    ``_PROB_SPAN`` in magnitude go to the log-domain trellis instead,
    whose metrics are clamped at ``_TRELLIS_CLAMP``. A component whose
    kernel table passes ``_MAX_KERNEL_TABLE`` entries is a ValueError
    (see ``_kernel_of``). Accepts a single length-q prior vector or a
    batch of them (rows x q) with any strides. The extrinsics go to a new
    array of the priors' layout, or into ``out``, a float64 array of the
    priors' shape with any strides.

    Every kernel computes on the (q x rows) transpose, so it runs fastest
    on a bit-major batch: the ``.T`` view of a C-ordered (q x rows) array,
    which is how the decoder passes its priors and ``out``. The decoder
    also passes ``_kernel``, the update it prepared for these views'
    shape and its prior bound (see ``_layout_plan``); a call without one
    prepares its own.
    """
    if _kernel is not None:
        _kernel(priors, out)
        return out
    arr = np.asarray(priors, dtype=np.float64)
    ext = np.empty_like(arr) if out is None else out
    rows = ext
    if arr.ndim == 1:
        arr, rows = arr[None, :], ext[None, :]
    if arr.shape[1] != comp.q:
        raise ValueError(f"got {arr.shape[1]} priors for a length-{comp.q} component")
    _prepare_kernel(comp, len(arr))(arr, rows)
    return ext


def _in_pairs(kernel, comp, batch):
    """``kernel(comp, batch)``, with a lone row run as two equal rows.

    A one-row batch rounds differently from the same row in a larger one:
    numpy hands a one-column product to BLAS gemv, and a one-column state
    sum takes another order. Two rows round as any larger batch does.
    """
    if batch != 1:
        return kernel(comp, batch)
    run = kernel(comp, 2)
    pair = np.empty((2, comp.q))
    pair_out = np.empty((2, comp.q))

    def lone(arr, out):
        pair[...] = arr
        run(pair, pair_out)
        out[...] = pair_out[:1]

    return lone


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


def _pivots(parity: tuple) -> dict:
    """The reduced row echelon form of ``parity``: pivot column -> row mask.

    Its size is the rank of the parity rows.
    """
    pivots = {}
    for row in parity:
        mask = pack_bits(row)
        for col, r in pivots.items():
            if mask >> col & 1:
                mask ^= r
        if mask:
            col = (mask & -mask).bit_length() - 1
            for c, r in pivots.items():
                if r >> col & 1:
                    pivots[c] = r ^ mask
            pivots[col] = mask
    return pivots


@functools.cache
def _codebook(parity: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Half-sign table (K x q) and bit-value masks (2q x K) of K codewords.

    Row w of the sign table holds +1/2 where codeword w has a 0 and
    -1/2 where it has a 1; column w of the masks is [bit is 0 | bit is 1].
    """
    q = len(parity[0])
    pivots = _pivots(parity)
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
    cols = [pack_bits(col) for col in zip(*parity)]
    perms = np.arange(1 << len(parity))[None, :] ^ np.array(cols)[:, None]
    perms.setflags(write=False)
    return perms


def _enumerated_kernel(comp, batch):
    """Exact MAP extrinsics by summing over the enumerated codebook.

    On the (q x batch) transpose, one product gives the (K x batch)
    codeword metrics and a second their sums per bit value; both write
    into work arrays.
    """
    half_signs, masks = _codebook(comp.parity)
    q = comp.q
    metric = _work("enum_metric", (len(half_signs), batch))
    largest = _work("enum_largest", (batch,))
    sums = _work("enum_sums", (2 * q, batch))
    zeros, ones = sums[:q], sums[q:]

    def run(arr, out):
        # BLAS rounds the sums of one product differently by operand layout,
        # so every layout of the priors meets it as a C-ordered (q x batch).
        np.matmul(half_signs, np.ascontiguousarray(arr.T), out=metric)
        np.subtract(metric, np.maximum.reduce(metric, axis=0, out=largest), out=metric)
        np.exp(metric, out=metric)
        np.matmul(masks, metric, out=sums)
        np.log(sums, out=sums)
        np.subtract(zeros, ones, out=out.T)
        np.subtract(out, arr, out=out)

    return run


def _product_trellis(comp, batch):
    """Syndrome-trellis extrinsics of a batch of prior rows, in probabilities.

    Bit k weighs its two values by exp(+-L/2 - |L|/2): 1 for the value its
    prior favours and exp(-|L|) for the other, so one exp gives every
    weight. It reads the priors and writes the extrinsics through their
    (q x batch) transposes, contiguous for a bit-major batch. Forward and
    backward state probabilities (states x batch) at most double per step
    and their largest entry never falls, so they are divided by their
    largest entry only every ``_RESCALE_STEPS`` steps: a row of up to 256
    bits never rescales. The log is taken once at the end. Every step's
    views of the work arrays are taken here, once.
    """
    perms = _state_perms(comp.parity)
    q, nstates = perms.shape
    other = _work("trellis_other", (q, batch))
    favours_zero = _work("trellis_favours", (q, batch), bool)
    w0 = _work("trellis_w0", (q, batch))
    w1 = _work("trellis_w1", (q, batch))
    flipped = _work("trellis_flipped", (nstates, batch))
    largest = _work("trellis_largest", (batch,))
    # The forward probabilities of all q steps share one (q x states x batch)
    # work array and the backward steps swap two, so a warm call touches no
    # new pages: malloc mapped a fresh block of this size on every call.
    alphas = _work("trellis_alphas", (q, nstates, batch))
    sums = _work("trellis_sums", (2, q, batch))
    beta = _work("trellis_beta", (nstates, batch))
    spare = _work("trellis_beta_next", (nstates, batch))
    joint = _work("trellis_joint", (nstates, batch))
    zeros, ones = sums

    # Per step k, the views the step reads and writes, taken once.
    w0s, w1s, zero_sums, one_sums = list(w0), list(w1), list(sums[0]), list(sums[1])
    probs, moves = list(alphas), list(perms)
    alpha0, alpha0_start = probs[0], probs[0][0]
    beta0, beta0_start = beta, beta[0]

    # A step's arguments to advance, once ``flipped`` holds its states
    # permuted: from state probabilities, weights of bit k, to, and whether
    # to rescale (the step count, this step included, a multiple of 256).
    forward = [
        (probs[k], moves[k],
         (probs[k], w0s[k], w1s[k], probs[k + 1], (k + 1) % _RESCALE_STEPS == 0))
        for k in range(q - 1)
    ]
    backward = []
    for k in range(q - 1, -1, -1):
        # One take serves both the flipped sum and the step to k - 1.
        move = (beta, w0s[k], w1s[k], spare, (q - k) % _RESCALE_STEPS == 0) if k else None
        backward.append((probs[k], beta, moves[k], zero_sums[k], one_sums[k], move))
        beta, spare = spare, beta

    def advance(prob, w0k, w1k, nxt, rescale):
        np.multiply(prob, w0k, out=nxt)
        np.add(nxt, np.multiply(flipped, w1k, out=flipped), out=nxt)
        if rescale:
            np.divide(nxt, np.maximum.reduce(nxt, axis=0, out=largest), out=nxt)

    def run(arr, out):
        bits = arr.T
        np.abs(bits, out=other)
        np.negative(other, out=other)
        np.exp(other, out=other)
        np.greater_equal(bits, 0, out=favours_zero)
        np.copyto(w0, other)
        np.copyto(w0, 1.0, where=favours_zero)
        w1.fill(1.0)
        np.copyto(w1, other, where=favours_zero)
        alpha0.fill(0.0)
        alpha0_start.fill(1.0)
        for alpha, perm, move in forward:
            alpha.take(perm, 0, flipped, "clip")
            advance(*move)
        beta0.fill(0.0)
        beta0_start.fill(1.0)
        for alpha, beta, perm, zero, one, move in backward:
            np.add.reduce(np.multiply(alpha, beta, out=joint), axis=0, out=zero)
            beta.take(perm, 0, flipped, "clip")
            np.add.reduce(np.multiply(alpha, flipped, out=joint), axis=0, out=one)
            if move:
                advance(*move)
        np.log(sums, out=sums)
        np.subtract(zeros, ones, out=out.T)

    return run


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


def _decoder_tables(spec: GldpcSpec):
    """Code length and the edge and check tables of ``spec``.

    ``gldpc_decode`` and ``monte_carlo`` ask for them once per call and
    pass them to every ``_decode_frames`` call they make. They are read
    from the spec's content on each call, its effective matrix's entries
    and its components' parity rows, and built once per content
    (``_tables_of``), so a spec edited in place gets tables of its own.
    A component whose kernel would be too large (``_kernel_of``) is a
    ValueError here, before any frame is decoded.

    Returns (n, rows, edges, checks):

    - rows: per constraint row, (component with None resolved to its
      single-parity check, the row's span of lines of ``edges``);
    - edges: the (Q x N) edge indices of all rows, bit-major: row after
      row, bit k of every shift of the row in one line, so Q is the sum
      of the rows' q;
    - checks: (lines, D), the lines of ``edges`` that the parity checks
      of every row read, flat and degree-major (line d of every check,
      for d = 0 .. D - 1 in turn, so that the XOR over a check's lines
      runs over the outer axis): a check of a lower degree is padded with
      line Q, which ``_failed_frames`` keeps all zero.

    The tables are shared by every call on the same content: read-only.
    """
    eff = spec.effective_matrix()
    entries = tuple(tuple(p.bits for p in row) for row in eff.rows)
    parities = tuple(None if comp is None else comp.parity for comp in spec.assignment)
    return _tables_of(eff.ring.N, entries, parities)


@functools.lru_cache(maxsize=16)
def _tables_of(N: int, entries: tuple, parities: tuple):
    """``_decoder_tables`` of the entry bits and component parity rows."""
    eff = PolyMatrix([[BinaryPoly(bits) for bits in row] for row in entries], RingModulus(N))
    row_idx = row_edges(eff)
    edges = np.concatenate([idx.T for idx in row_idx])
    rows, checks, start = [], [], 0
    for idx, parity in zip(row_idx, parities):
        comp = ComponentCode.spc(idx.shape[1]) if parity is None else ComponentCode(parity)
        _kernel_of(comp)  # a component too large to decode fails here, before any work
        rows.append((comp, slice(start, start + comp.q)))
        checks += [[start + k for k, b in enumerate(row) if b] for row in comp.parity]
        start += comp.q
    # A check of all-zero parity reads only the padding line, so D is at least 1.
    degree = max(1, *map(len, checks))
    lines = np.array([c + [start] * (degree - len(c)) for c in checks], dtype=np.intp)
    lines = lines.T.ravel()
    edges.setflags(write=False)
    lines.setflags(write=False)
    return eff.ncols * N, tuple(rows), edges, (lines, degree)


# Constraint rows one kernel call should see: a chunk of frames makes each
# call cover about this many rows (see _chunk_frames).
_CHUNK_ROWS = 1024


def _chunk_frames(tables) -> int:
    """Frames monte_carlo decodes per call: enough for ``_CHUNK_ROWS`` rows a call."""
    _, _, edges, _ = tables
    return max(1, _CHUNK_ROWS // edges.shape[1])


class _CheckArrays(NamedTuple):
    """The convergence check's arrays for totals of one (Q x frames x N) shape."""

    cols: np.ndarray  # the flat, degree-major check lines of _decoder_tables
    signs: np.ndarray  # hard decisions, (Q x frames x N): lines 0 .. Q - 1 of hard
    hard: np.ndarray  # (Q + 1 x frames * N); line Q, the padding line, all zero
    bits: np.ndarray  # the gathered check lines, (D * checks x frames * N)
    by_degree: np.ndarray  # bits as (D x checks * frames * N)
    syndromes: np.ndarray  # (checks * frames * N)
    per_frame: np.ndarray  # syndromes as (checks x frames x N)
    failed: np.ndarray  # per frame


def _check_arrays(checks, shape) -> _CheckArrays:
    """The convergence check's arrays for totals of ``shape`` (Q x frames x N).

    ``checks`` are ``_decoder_tables``'s. The arrays are work arrays, held
    for as long as the layout they serve; only ``_failed_frames`` writes
    them, and it never writes the padding line, which is cleared here.
    """
    cols, degree = checks
    lines, frames, N = shape
    hard = _work("check_hard", (lines + 1, frames * N), bool)
    hard[lines] = False
    bits = _work("check_bits", (len(cols), frames * N), bool)
    syndromes = _work("check_syndromes", (len(cols) // degree * frames * N,), bool)
    return _CheckArrays(
        cols, hard[:lines].reshape(shape), hard, bits, bits.reshape(degree, -1),
        syndromes, syndromes.reshape(-1, frames, N), np.empty(frames, bool),
    )


def _failed_frames(check: _CheckArrays, totals: np.ndarray) -> np.ndarray:
    """Per frame, whether its hard decisions fail some parity check.

    ``check`` is ``_check_arrays`` of the totals' shape. ``totals`` holds
    each frame's totals at every edge, bit-major (Q x frames x N, laid out
    as ``_decoder_tables``'s edges), so each line of it is bit k of a row
    for every frame and shift. One take gathers the lines of every check,
    each padded to the largest degree D with an all-zero line Q, one
    XOR-reduce gives every check's syndromes and one OR per frame ends it:
    a fixed few numpy calls, however many checks, each into its array.
    """
    cols, signs, hard, bits, by_degree, syndromes, per_frame, failed = check
    # Positional arguments: a keyword costs each call about a tenth of a
    # microsecond, which adds up over hundreds of small iterations.
    np.less(totals, 0.0, signs)
    # take runs faster on a flat index than on a 2-D one.
    hard.take(cols, 0, bits, "clip")
    np.bitwise_xor.reduce(by_degree, 0, None, syndromes)
    return np.logical_or.reduce(per_frame, (0, 2), None, failed)


def _layout_plan(tables, totals: np.ndarray, ext: np.ndarray, spare: np.ndarray, bound: float):
    """The decoder's entry into one set of active frames: what its iterations reuse.

    ``tables`` are the spec's ``_decoder_tables`` and ``totals`` the
    frames' (frames x n) totals, in any shape that flattens to them: their
    channel LLRs before the first iteration, and the staying frames'
    totals after a leave. ``ext`` is the frames' (Q x frames x N)
    C-ordered extrinsics, ``spare`` a work array at least as large, which
    takes the priors, and ``bound`` bounds every prior's magnitude (the
    clip).

    The flat indices ``b * n + edge`` of every edge into the totals run in
    (Q x frames x N) order: bit-major, row after row, then frame, then
    shift. They stay one flat array, since np.add.at takes its fast path
    only on a 1-D index, and are written into the work array "gather".
    One take of them gathers the priors into ``spare``.

    Returns (gather, priors, updates, check): the flat indices; the
    gathered (Q x frames x N) priors; per row, (component, priors,
    extrinsics, kernel) for bcjr_component, where the priors and
    extrinsics are the (rows x q) views of the row's bit-major blocks and
    the kernel is ``_held_kernel`` of their shape and the bound; and the
    check's ``_check_arrays``.
    """
    n, rows, edges, checks = tables
    gather = _work("gather", ext.shape, edges.dtype)
    np.add(edges[:, None, :], np.arange(0, ext.shape[1] * n, n)[:, None], out=gather)
    gather = gather.reshape(-1)
    priors = spare.reshape(-1)[: ext.size].reshape(ext.shape)
    # Indices are in range; "clip" lets take write into out unbuffered.
    totals.take(gather, out=priors.reshape(-1), mode="clip")
    updates = [
        (comp, priors[span].reshape(comp.q, -1).T, ext[span].reshape(comp.q, -1).T,
         _held_kernel(comp, ext[0].size, bound))
        for comp, span in rows
    ]
    return gather, priors, updates, _check_arrays(checks, ext.shape)


def _decode_frames(tables, llrs: np.ndarray, cfg: DecoderConfig):
    """Flooding decode of a stack of frames (B x n channel LLRs).

    ``tables`` are the spec's ``_decoder_tables``.

    Returns (hard decisions B x n, converged B, iterations B). Every
    iteration clips, updates and scatters all active frames at once, then
    gathers the new totals at every edge: their signs feed the parity
    checks, and less the extrinsics they are the next iteration's priors.
    A frame leaves the active set at its own convergence, and its results
    are written as it leaves (or at the last iteration); no arithmetic
    mixes frames, so each frame's result equals its decode alone. The
    scatter adds each row's extrinsics in the same order for every batch,
    so totals do not depend on which frames share a call. Each set of
    active frames, the first and the one left after each leave, is
    entered through one ``_layout_plan`` call, which gathers its priors
    and plans what its iterations reuse.
    """
    n, rows, edges, checks = tables
    frames = llrs.shape[0]
    hard_out = np.zeros((frames, n), dtype=bool)
    converged = np.zeros(frames, dtype=bool)
    iterations = np.zeros(frames, dtype=int)
    if not frames:
        return hard_out, converged, iterations
    active = np.arange(frames)
    llr = np.ascontiguousarray(llrs, dtype=np.float64).ravel()
    shape = (len(edges), frames, edges.shape[1])
    ext = _work("ext", shape)
    ext.fill(0.0)
    totals, spare = llr, _work("priors", shape)
    clip, last = cfg.llr_clip, cfg.max_iterations
    # np.clip's Python wrapper costs more than the work on small batches,
    # and 0-d bounds spare maximum and minimum a scalar conversion a call.
    low, high = np.array(-float(clip)), np.array(float(clip))
    iteration = 0
    while True:
        total = _work("total", llr.shape)
        gather, priors, updates, check = _layout_plan(tables, totals, ext, spare, clip)
        flat_priors, flat_ext = priors.reshape(-1), ext.reshape(-1)
        # The iterations until some frame leaves. The decoder calls the take
        # method, with "clip" as the plan does: np.take's wrapper costs about
        # a microsecond a call, which adds up over small iterations.
        for iteration in range(iteration + 1, last + 1):
            priors -= ext
            np.maximum(priors, low, out=priors)
            np.minimum(priors, high, out=priors)
            for comp, prior, out, kernel in updates:
                bcjr_component(comp, prior, out=out, _kernel=kernel)
            np.copyto(total, llr)
            np.add.at(total, gather, flat_ext)
            total.take(gather, out=flat_priors, mode="clip")
            failed = _failed_frames(check, priors)
            stay = failed if iteration < last else np.zeros_like(failed)
            staying = np.count_nonzero(stay)
            if staying < stay.size:
                break
        leave = ~stay
        done = active[leave]
        hard_out[done] = total.reshape(-1, n)[leave] < 0
        converged[done] = ~failed[leave]
        iterations[done] = iteration
        if not staying:
            return hard_out, converged, iterations
        # Drop the frames that left from every per-frame array. The staying
        # frames' extrinsics are compressed into the priors' work array, and
        # the next plan gathers their priors into the old extrinsics' one:
        # the two arrays swap roles, and no large array is allocated.
        active = active[stay]
        llr = llr.reshape(-1, n)[stay].ravel()
        shape = (len(edges), active.size, edges.shape[1])
        compacted = flat_priors[: math.prod(shape)].reshape(shape)
        np.compress(stay, ext, axis=1, out=compacted)
        totals, spare, ext = total.reshape(-1, n)[stay], flat_ext, compacted


def gldpc_decode(spec: GldpcSpec, llrs, cfg: DecoderConfig | None = None):
    """Flooding decode; returns (bit-packed word, converged, iterations).

    Convergence means the hard decision has zero syndrome against
    expand_binary(spec); the decoder stops at the first such iteration.
    This is the one-frame call of the decoder monte_carlo runs on chunks
    of frames. A NaN LLR is rejected; +-inf are accepted, since the clip
    bounds every prior and ``DecoderConfig`` holds the clip finite.
    """
    if cfg is None:
        cfg = DecoderConfig()
    tables = _decoder_tables(spec)
    n = tables[0]
    llr = np.asarray(llrs, dtype=np.float64)
    if llr.size != n:
        raise ValueError(f"got {llr.size} LLRs for a length-{n} code")
    if np.isnan(llr).any():
        raise ValueError("LLRs must not be NaN")
    hard, converged, iterations = _decode_frames(tables, llr.reshape(1, n), cfg)
    return pack_bits(hard[0]), bool(converged[0]), int(iterations[0])


def _draw_trial(G: PolyMatrix, master_seed: int, snr_idx: int, trial: int, snr_db: float, table):
    """Sent bits and channel LLRs of one trial, from its own generator.

    ``table`` is G's ``_encoder_table``, which ``encode`` reads. The
    generator is ``default_rng([master_seed, snr_idx, trial])``; it
    draws the message bits first, then the channel noise. Every message
    row comes from one uint8 draw of 4 * ceil(N / 4) bits per row, of
    which the row keeps the first N. numpy fills uint8 draws from 32-bit
    words and drops a call's unused bytes, so each row reads the words
    that a call of N bits of its own would, and the noise after them
    starts where it would.
    """
    N = G.modulus.N
    n = G.ncols * N
    rng = np.random.default_rng([master_seed, snr_idx, trial])
    bits = rng.integers(0, 2, size=(G.nrows, 4 * -(-N // 4)), dtype=np.uint8)
    message = [BinaryPoly(pack_bits(row[:N])) for row in bits]
    sent_bits = unpack_bits(encode(G, message, _table=table), n)
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
    comes first; ``max_trials`` of 0 yields an empty result list.

    Before any trial is drawn, a ValueError rejects: an SNR point that is
    not a real number (a bool or string is not one), or that is not
    finite, or whose noise variance 1 / (2 * 10^(snr/10)) is not a
    positive finite float (above about 3080 dB or below -3086 dB); one
    whose LLR scale 2 / variance, which ``awgn_llrs`` multiplies by,
    overflows (above about 3076.5 dB); a ``stop`` key other than
    ``min_block_errors`` and ``max_trials``; a ``stop`` value that is not
    an integer (a numpy integer passes; a bool, float or string does
    not); a negative ``max_trials``; a ``min_block_errors`` below 1; a
    spec with a component too large to decode (``_kernel_of``); and a
    generator ``G`` whose ring x^N + 1 or code length differs from the
    spec's effective matrix's. Past these checks it builds G's term table
    (``_encoder_table``) once, and every trial's ``encode`` reads it.

    One schedule yields every (point, trial) to draw: trials 0 ..
    ``max_trials`` - 1 of each point in turn, moving to the next point
    once the point has counted ``min_block_errors`` block errors. Trials
    are decoded in chunks of frames that may span points. Errors are
    counted in trial order and frames drawn past a point's stop are
    discarded, so the counts do not depend on the chunk size; at most one
    chunk per point is decoded past its early stop.
    """
    snrs = [_real(snr, "an SNR point") for snr in snr_list]
    with np.errstate(all="ignore"):  # a NaN, inf or out-of-range point fails below
        sigma2 = 1.0 / (2.0 * 10.0 ** (np.array(snrs, dtype=np.float64) / 10.0))
        scale = 2.0 / sigma2
    if not np.all((sigma2 > 0) & (sigma2 < np.inf)):
        raise ValueError(
            f"SNR points must be finite and give a positive finite noise variance, got {snrs}"
        )
    if not np.all(np.isfinite(scale)):
        raise ValueError(f"SNR points must give a finite LLR scale 2 / noise variance, got {snrs}")
    stop = {"min_block_errors": 100, "max_trials": 1000, **(stop or {})}
    if len(stop) != 2:
        raise ValueError(f"stop takes min_block_errors and max_trials, got {sorted(stop)}")
    min_block_errors = _integer(stop["min_block_errors"], "min_block_errors")
    max_trials = _integer(stop["max_trials"], "max_trials")
    if max_trials < 0 or min_block_errors < 1:
        raise ValueError(
            f"stop needs max_trials >= 0 and min_block_errors >= 1, got {stop}"
        )
    tables = _decoder_tables(spec)
    n, N = tables[0], tables[2].shape[1]
    if G.modulus.N != N or G.ncols * N != n:
        raise ValueError(
            f"G's (N, n) = {G.modulus.N, G.ncols * G.modulus.N} is not the spec's {N, n}"
        )
    if max_trials == 0:
        return []
    if cfg is None:
        cfg = DecoderConfig()
    table = _encoder_table(G)
    counts = [[0, 0, 0] for _ in snrs]  # trials, bit errors, block errors

    def stopped(point):
        return counts[point][2] >= min_block_errors

    def schedule():
        for point in range(len(snrs)):
            for trial in range(max_trials):
                if stopped(point):
                    break
                yield point, trial

    to_draw = schedule()
    llrs = np.empty((_chunk_frames(tables), n))
    sent = np.empty(llrs.shape, np.uint8)
    # Only a decode changes the counts that stopped reads, so a chunk's
    # (point, trial) pairs may all be taken before any of them is drawn.
    while chunk := list(itertools.islice(to_draw, len(llrs))):
        for row, (point, trial) in enumerate(chunk):
            sent[row], llrs[row] = _draw_trial(G, master_seed, point, trial, snrs[point], table)
        hard, _, _ = _decode_frames(tables, llrs[: len(chunk)], cfg)
        for (p, _), errs in zip(chunk, np.count_nonzero(hard != sent[: len(chunk)], axis=1)):
            if stopped(p):
                continue
            counts[p][0] += 1
            counts[p][1] += int(errs)
            counts[p][2] += 1 if errs else 0
    return [
        TrialResult(snr_db, trials, bit_errors, block_errors, master_seed, n)
        for snr_db, (trials, bit_errors, block_errors) in zip(snrs, counts)
    ]
