"""Encoding, channel LLRs, component decoders, and Monte Carlo driver.

The BCJR oracle below enumerates every codeword of the component code
and computes the bitwise MAP extrinsics directly; the trellis sweep must
match it to numerical precision on generic priors, and every kernel
bcjr_component picks must match the trellis.
"""

import functools
import json
import os
import random
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qcldpc
from conftest import (
    P, data_path, hamming64, hamming74, in_kernel, large_component_spec, permuted74,
)
from qcldpc import channel
from qcldpc.binmat import pack_bits
from qcldpc.channel import (
    DecoderConfig,
    TrialResult,
    _check_arrays,
    _decode_frames,
    _decoder_tables,
    _failed_frames,
    _trellis_extrinsics,
    awgn_llrs,
    bcjr_component,
    encode,
    gldpc_decode,
    monte_carlo,
)
from qcldpc.gf2poly import BinaryPoly, RingModulus, transpose_poly
from qcldpc.gldpc import ComponentCode, GldpcSpec, construct_generator, expand_binary, load_spec
from qcldpc.polymat import PolyMatrix, matmul_mod, row_edges


SPEC_NAMES = (
    "n79.json", "c1.json", "c2.json", "prelift90.json", "prelift68.json", "hamming15.json",
)


def load(name):
    return load_spec(data_path(name))


def bundled_components():
    """pytest params (circulant size, component) of every generalized row."""
    for name in SPEC_NAMES:
        spec = load(name)
        N = spec.effective_matrix().modulus.N
        for row, comp in enumerate(spec.assignment):
            if comp is not None:
                yield pytest.param(N, comp, id=f"{name}-row{row}")


def hamming15_component():
    return load("hamming15.json").assignment[0]


def component_codewords(comp):
    masks = [
        sum(1 << k for k in range(comp.q) if row[k]) for row in comp.parity
    ]
    return [
        w
        for w in range(1 << comp.q)
        if all((w & m).bit_count() % 2 == 0 for m in masks)
    ]


def map_extrinsics(comp, priors):
    """Bitwise MAP extrinsic LLRs by full codeword enumeration."""
    priors = np.asarray(priors, dtype=np.float64)
    words = component_codewords(comp)
    ext = np.empty(comp.q)
    for k in range(comp.q):
        num = den = 0.0
        for w in words:
            metric = np.exp(
                sum(
                    (1.0 if not w >> j & 1 else -1.0) * priors[j] / 2.0
                    for j in range(comp.q)
                    if j != k
                )
            )
            if w >> k & 1:
                den += metric
            else:
                num += metric
        ext[k] = np.log(num) - np.log(den)
    return ext


def product_formula(G, message):
    """encode's former body: the message times G, each entry transposed as placed."""
    row = matmul_mod(PolyMatrix([list(message)], G.modulus), G).rows[0]
    bits = 0
    for j, entry in enumerate(row):
        bits |= transpose_poly(entry, G.modulus).bits << (j * G.modulus.N)
    return bits


def random_message(rng, G):
    N = G.modulus.N
    return [BinaryPoly(rng.getrandbits(N)) for _ in range(G.nrows)]


def bits_to_array(bits, n):
    return np.array([bits >> j & 1 for j in range(n)], dtype=np.uint8)


def run_kernel(prepare, comp, priors):
    """The extrinsics of a (rows x q) batch from kernel ``prepare``, run once."""
    out = np.empty_like(priors)
    prepare(comp, len(priors))(priors, out)
    return out


def product_trellis(comp, priors):
    return run_kernel(channel._product_trellis, comp, priors)


class TestConfigAndCounts:
    def test_config_defaults(self):
        cfg = DecoderConfig()
        assert cfg.max_iterations == 100

    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_iterations"):
            DecoderConfig(max_iterations=0)
        for count in (2.5, 3.0, "3", True):
            message = f"^max_iterations must be an integer, got {count!r}$"
            with pytest.raises(ValueError, match=message):
                DecoderConfig(max_iterations=count)
        assert DecoderConfig(max_iterations=np.int64(3)).max_iterations == 3
        for clip in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="llr_clip"):
                DecoderConfig(llr_clip=clip)

    @pytest.mark.parametrize("clip", ["20", True, None, 20j, [20.0]])
    def test_llr_clip_that_is_not_a_real_number_rejected(self, clip):
        # A string used to reach the comparison with 0 and raise a TypeError.
        with pytest.raises(ValueError, match=f"^llr_clip must be a real number, got {re.escape(repr(clip))}$"):
            DecoderConfig(llr_clip=clip)

    @pytest.mark.parametrize("clip", [20, np.float32(7.5), np.int64(3), 1e-300])
    def test_llr_clip_takes_any_positive_finite_real(self, clip):
        assert DecoderConfig(llr_clip=clip).llr_clip == clip

    def test_trial_result_rates(self):
        r = TrialResult(0.0, trials=4, bit_errors=6, block_errors=2, seed=1, nbits=10)
        assert r.ber == 0.15 and r.bler == 0.5

    def test_trial_result_zero_trials(self):
        r = TrialResult(0.0, trials=0, bit_errors=0, block_errors=0, seed=1, nbits=10)
        assert r.ber == 0.0 and r.bler == 0.0

    def test_trial_result_validation(self):
        with pytest.raises(ValueError, match="bit errors"):
            TrialResult(0.0, trials=1, bit_errors=11, block_errors=0, seed=1, nbits=10)
        with pytest.raises(ValueError, match="block errors"):
            TrialResult(0.0, trials=1, bit_errors=0, block_errors=2, seed=1, nbits=10)


class TestEncode:
    def test_known_word(self):
        G = PolyMatrix([[P("1"), P("x")]], RingModulus(3))
        assert encode(G, [P("1+x")]) == 0b110101

    def test_zero_message(self):
        G = PolyMatrix([[P("1"), P("x")]], RingModulus(3))
        assert encode(G, [P("0")]) == 0

    def test_length_checked(self):
        G = PolyMatrix([[P("1"), P("x")]], RingModulus(3))
        with pytest.raises(ValueError, match="message length"):
            encode(G, [P("1"), P("1")])

    def test_modulus_required(self):
        G = PolyMatrix([[P("1"), P("x")]])
        with pytest.raises(ValueError, match="modulus"):
            encode(G, [P("1")])

    def test_codewords_satisfy_parity(self):
        rng = random.Random(80)
        spec = load("c1.json")
        G = construct_generator(spec).matrix
        Hb = expand_binary(spec)
        for _ in range(5):
            word = encode(G, random_message(rng, G))
            assert in_kernel(Hb, word)

    def test_matches_the_product_formula(self):
        # Alternating generators: each call must read its own G's term
        # table, whether it builds it or is handed it.
        rng = random.Random(81)
        generators = [coded(name)[1] for name in SPEC_NAMES]
        tables = [channel._encoder_table(G) for G in generators]
        for _ in range(3):
            for G, table in zip(generators, tables):
                N = G.modulus.N
                messages = [
                    random_message(rng, G),
                    [BinaryPoly(rng.getrandbits(3 * N + 5)) for _ in range(G.nrows)],
                    [BinaryPoly(0)] * G.nrows,
                    [BinaryPoly(1 << rng.randrange(4 * N)) for _ in range(G.nrows)],
                ]
                for message in messages:
                    word = product_formula(G, message)
                    assert encode(G, message) == encode(G, message, _table=table) == word

    def test_entry_changed_in_place_is_seen(self):
        # A call without a table reads the generator's entries as they are.
        G = PolyMatrix(coded("c1.json")[1].rows, RingModulus(68))
        message = random_message(random.Random(82), G)
        first = encode(G, message)
        assert G.rows[0][0].bits
        G.rows[0][0] = BinaryPoly(0)
        edited = encode(G, message)
        assert edited != first and edited == product_formula(G, message)

    def test_one_monte_carlo_call_builds_the_term_table_once(self, monkeypatch):
        # Eight frames: one table, handed to each frame's one encode call.
        spec, G, _ = coded("hamming15.json")
        built, tables = [], []
        build, encoder = channel._encoder_table, channel.encode

        def counted_build(G):
            built.append(build(G))
            return built[-1]

        def counted_encode(G, message, *, _table=None):
            tables.append(_table)
            return encoder(G, message, _table=_table)

        monkeypatch.setattr(channel, "_encoder_table", counted_build)
        monkeypatch.setattr(channel, "encode", counted_encode)
        cfg = DecoderConfig(max_iterations=3)
        monte_carlo(spec, G, [3.0], {"max_trials": 8}, cfg=cfg)
        assert len(built) == 1 and len(tables) == 8
        assert all(table is built[0] for table in tables)
        monte_carlo(spec, G, [3.0], {"max_trials": 2}, cfg=cfg)
        assert len(built) == 2 and len(tables) == 10


class TestAwgnLlrs:
    def test_noiseless_signs_and_magnitude(self):
        llr = awgn_llrs([0, 1, 0], 0.0, rng=None)
        assert np.allclose(llr, [4.0, -4.0, 4.0])

    def test_noiseless_scaling_with_snr(self):
        llr = awgn_llrs([0], 10.0, rng=None)
        assert np.allclose(llr, [40.0])

    def test_seed_forms_agree(self):
        bits = np.zeros(64, dtype=np.uint8)
        a = awgn_llrs(bits, 1.0, rng=7)
        b = awgn_llrs(bits, 1.0, rng=np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_noise_statistics(self):
        bits = np.zeros(20000, dtype=np.uint8)
        llr = awgn_llrs(bits, 0.0, rng=11)
        # sigma^2 = 1/2 at 0 dB: mean 2/sigma^2 = 4, variance 4/sigma^2 = 8
        assert abs(llr.mean() - 4.0) < 0.15
        assert abs(llr.std() - np.sqrt(8.0)) < 0.15


class TestBcjrComponent:
    @pytest.mark.parametrize("comp_fn", [hamming64, hamming74])
    def test_matches_exhaustive_map(self, comp_fn):
        comp = comp_fn()
        rng = np.random.default_rng(81)
        for _ in range(40):
            priors = rng.uniform(-8.0, 8.0, size=comp.q)
            got = bcjr_component(comp, priors)
            want = map_extrinsics(comp, priors)
            assert np.allclose(got, want, rtol=0, atol=1e-9)

    @pytest.mark.parametrize(
        "comp_fn, vectors", [(hamming64, 40), (hamming74, 40), (hamming15_component, 3)]
    )
    def test_trellis_matches_exhaustive_map(self, comp_fn, vectors):
        comp = comp_fn()
        rng = np.random.default_rng(87)
        priors = rng.uniform(-8.0, 8.0, size=(vectors, comp.q))
        got = _trellis_extrinsics(comp, priors)
        for b in range(vectors):
            want = map_extrinsics(comp, priors[b])
            assert np.allclose(got[b], want, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("N, comp", list(bundled_components()))
    def test_every_bundled_component_matches_trellis(self, N, comp):
        rng = np.random.default_rng(88)
        priors = rng.uniform(-20.0, 20.0, size=(N, comp.q))
        got = bcjr_component(comp, priors)
        want = _trellis_extrinsics(comp, priors)
        assert np.allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("comp_fn", [hamming64, hamming74, hamming15_component])
    def test_large_priors_stay_finite(self, comp_fn):
        comp = comp_fn()
        rng = np.random.default_rng(89)
        priors = rng.uniform(-8.0, 8.0, size=(6, comp.q))
        priors[::2] = rng.choice([-1e3, 1e3], size=(3, comp.q))
        got = bcjr_component(comp, priors)
        assert np.all(np.isfinite(got))
        want = _trellis_extrinsics(comp, priors)
        assert np.allclose(got, want, rtol=0, atol=1e-12)
        # A batch of wide rows only leaves the fast kernel an empty batch.
        assert np.allclose(bcjr_component(comp, priors[::2]), want[::2], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("comp_fn", [hamming64, hamming74, hamming15_component])
    def test_product_trellis_matches_log_trellis_and_map(self, comp_fn):
        comp = comp_fn()
        rng = np.random.default_rng(90)
        priors = rng.uniform(-20.0, 20.0, size=(64, comp.q))
        got = product_trellis(comp, priors)
        assert np.allclose(got, _trellis_extrinsics(comp, priors), rtol=0, atol=1e-12)
        for b in range(3):
            assert np.allclose(got[b], map_extrinsics(comp, priors[b]), rtol=0, atol=1e-9)

    def test_product_trellis_long_component_stays_finite(self):
        # Weak priors weigh both values of every bit near 1, so unscaled
        # state probabilities grow by nearly 2 a bit; over 1500 bits only
        # the divide every 256 steps keeps them finite.
        rng = np.random.default_rng(92)
        head = rng.integers(0, 2, size=(2, 1500))
        comp = ComponentCode(np.hstack([head, np.eye(2, dtype=int)]))
        priors = rng.uniform(-0.2, 0.2, size=(4, comp.q))
        got = product_trellis(comp, priors)
        assert np.allclose(got, _trellis_extrinsics(comp, priors), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("q", [256, 257])
    @pytest.mark.parametrize("strength", ["weak", "strong"])
    def test_product_trellis_rescale_bound(self, q, strength):
        # State sums at most double per bit and are rescaled every 256
        # bits: a 256-bit row never rescales, a 257-bit row does once per
        # sweep. Weak priors grow the sums by about 2 a bit; strong ones
        # fill the 700 span, where path weights approach exp(-700).
        rng = np.random.default_rng(93)
        head = rng.integers(0, 2, size=(2, q - 2))
        comp = ComponentCode(np.hstack([head, np.eye(2, dtype=int)]))
        if strength == "weak":
            priors = rng.uniform(-0.01, 0.01, size=(4, q))
        else:
            priors = rng.uniform(0.99, 1.0, size=(4, q)) * (700.0 / q)
            priors *= rng.choice([-1.0, 1.0], size=priors.shape)
            assert 690.0 < np.abs(priors).sum(axis=1).min()
            assert np.abs(priors).sum(axis=1).max() <= 700.0
        with np.errstate(all="raise"):
            got = product_trellis(comp, priors)
        assert np.allclose(got, _trellis_extrinsics(comp, priors), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("comp_fn", [hamming64, hamming74, hamming15_component])
    def test_strong_priors_within_span_stay_exact(self, comp_fn):
        # Every |prior| in [40, 46.6] keeps a [15,11] row just inside the
        # 700 span, where the smallest path weights approach exp(-700).
        comp = comp_fn()
        rng = np.random.default_rng(91)
        priors = rng.uniform(40.0, 46.6, size=(32, comp.q))
        priors *= rng.choice([-1.0, 1.0], size=priors.shape)
        assert np.abs(priors).sum(axis=1).max() <= 700.0
        with np.errstate(all="raise"):
            fast = product_trellis(comp, priors)
            got = bcjr_component(comp, priors)
        want = _trellis_extrinsics(comp, priors)
        assert np.all(np.isfinite(fast)) and np.all(np.isfinite(got))
        assert np.allclose(fast, want, rtol=0, atol=1e-9)
        assert np.allclose(got, want, rtol=0, atol=1e-9)

    def test_spc_matches_tanh_rule(self):
        comp = ComponentCode.spc(6)
        rng = np.random.default_rng(82)
        for _ in range(40):
            priors = rng.uniform(-8.0, 8.0, size=6)
            got = bcjr_component(comp, priors)
            t = np.tanh(priors / 2.0)
            prod = t.prod()
            want = 2.0 * np.arctanh(prod / t)
            assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_batch_matches_per_vector(self):
        comp = hamming74()
        rng = np.random.default_rng(83)
        priors = rng.uniform(-6.0, 6.0, size=(5, 7))
        got = bcjr_component(comp, priors)
        assert got.shape == (5, 7)
        for b in range(5):
            assert np.allclose(got[b], bcjr_component(comp, priors[b]), atol=1e-12)

    @pytest.mark.parametrize(
        "comp_fn, wide",
        [
            (lambda: ComponentCode.spc(6), False),
            (hamming64, False),
            (hamming74, False),
            (hamming15_component, False),
            (hamming74, True),
            (hamming15_component, True),
        ],
        ids=["spc", "enum63", "enum74", "trellis15", "enum74-wide", "trellis15-wide"],
    )
    def test_any_strides_give_equal_results(self, comp_fn, wide):
        comp = comp_fn()
        rng = np.random.default_rng(94)
        priors = rng.uniform(-20.0, 20.0, size=(203, comp.q))
        if wide:
            priors[::3] *= 40.0
            spans = np.abs(priors).sum(axis=1)
            assert (spans > channel._PROB_SPAN).any() and (spans <= channel._PROB_SPAN).any()
        want = bcjr_component(comp, priors)
        bit_major = np.ascontiguousarray(priors.T)
        assert np.array_equal(bcjr_component(comp, bit_major.T), want)
        for arr in (priors, bit_major.T):
            out = np.full(bit_major.shape, np.nan)
            view = out.T
            assert bcjr_component(comp, arr, out=view) is view
            assert np.array_equal(out.T, want)
        # A 1-D vector equals its one-row batch, contiguous or strided, and
        # the same row inside the many-row batch.
        for k in range(6):
            one = bcjr_component(comp, priors[k : k + 1])
            out = np.full(bit_major.shape, np.nan)
            bcjr_component(comp, bit_major[:, k], out=out[:, k])
            assert np.array_equal(bcjr_component(comp, priors[k]), one[0])
            assert np.array_equal(bcjr_component(comp, bit_major[:, k : k + 1].T), one)
            assert np.array_equal(out[:, k], one[0])
            assert np.array_equal(one[0], want[k])
        if wide:
            # The lone narrow row beside wide rows rounds as it does in the batch.
            spans = np.abs(priors).sum(axis=1)
            narrow = np.flatnonzero(spans <= channel._PROB_SPAN)
            far = np.flatnonzero(spans > channel._PROB_SPAN)
            for pick in ([narrow[0], far[0], far[1]], [far[2], narrow[5], far[3]]):
                assert np.array_equal(bcjr_component(comp, priors[pick]), want[pick])

    @pytest.mark.parametrize("comp_fn", [hamming74, hamming15_component], ids=["enum74", "trellis15"])
    def test_rows_around_the_span_route_by_their_sum(self, comp_fn, monkeypatch):
        # The rule before the q * max|prior| gate: a row is wide, and goes to
        # the log-domain trellis, exactly when its priors' magnitudes sum
        # past _PROB_SPAN.
        comp = comp_fn()
        q, span = comp.q, channel._PROB_SPAN
        signs = np.where(np.arange(q) % 3 == 1, -1.0, 1.0)
        priors = np.stack([
            signs * (span / q) * (1 - 1e-12),
            signs * (span / q) * (1 + 1e-12),
            np.where(np.arange(q) == 2, span - 1e-9, 0.0),
            np.where(np.arange(q) == 2, span + 1e-9, 0.0),
            signs * 3.0,
            np.where(np.arange(q) == 0, np.nan, 1.0),
            signs * (span / 2 / q),
        ])
        wide = np.abs(priors).sum(axis=1) > span
        assert wide.tolist() == [False, True, False, True, False, False, False]
        seen = []
        trellis = channel._trellis_extrinsics

        def recorded(comp, arr):
            seen.append(arr.copy())
            return trellis(comp, arr)

        monkeypatch.setattr(channel, "_trellis_extrinsics", recorded)
        got = bcjr_component(comp, priors)
        assert len(seen) == 1 and np.array_equal(seen[0], priors[wide])
        kernel = (
            channel._enumerated_kernel
            if 2 ** (q - comp.p) <= q * 2**comp.p
            else channel._product_trellis
        )
        want = np.empty_like(priors)
        want[wide] = trellis(comp, priors[wide])
        want[~wide] = run_kernel(
            functools.partial(channel._in_pairs, kernel), comp, priors[~wide]
        )
        assert np.array_equal(got, want, equal_nan=True)

    def test_product_trellis_takes_once_per_step(self):
        comp = hamming15_component()
        priors = np.random.default_rng(95).uniform(-8.0, 8.0, size=(6, comp.q))
        want = product_trellis(comp, priors)
        run = channel._product_trellis(comp, len(priors))
        got = np.empty_like(priors)
        takes = []

        def count(frame, event, fn):
            # The kernel takes through the bound method of its held views.
            if event == "c_call" and getattr(fn, "__name__", None) == "take":
                takes.append(1)

        sys.setprofile(count)
        try:
            run(priors, got)
        finally:
            sys.setprofile(None)
        # q - 1 forward steps and q backward ones, each permuting its states once.
        assert len(takes) == 2 * comp.q - 1
        assert np.array_equal(got, want)

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError, match="priors"):
            bcjr_component(hamming74(), np.zeros(6))

    def test_perfect_priors_pass_through(self):
        comp = hamming74()
        word = component_codewords(comp)[5]
        priors = np.array([12.0 if not word >> j & 1 else -12.0 for j in range(7)])
        ext = bcjr_component(comp, priors)
        assert np.all(np.sign(ext) == np.sign(priors))


class TestGldpcDecode:
    def test_noiseless_converges_first_iteration(self):
        spec = load("c1.json")
        G = construct_generator(spec).matrix
        n = G.ncols * G.modulus.N
        sent = encode(G, random_message(random.Random(84), G))
        llr = awgn_llrs(bits_to_array(sent, n), 2.0, rng=None)
        word, converged, iterations = gldpc_decode(spec, llr)
        assert converged and iterations == 1
        assert word == sent

    def test_single_flip_corrected(self):
        spec = load("n79.json")
        G = construct_generator(spec).matrix
        n = G.ncols * G.modulus.N
        sent = encode(G, random_message(random.Random(85), G))
        llr = awgn_llrs(bits_to_array(sent, n), 2.0, rng=None)
        llr[123] = -llr[123] / 2.0
        word, converged, iterations = gldpc_decode(spec, llr)
        assert converged and word == sent

    def test_iteration_cap_respected(self):
        spec = load("n79.json")
        rng = np.random.default_rng(86)
        llr = rng.uniform(-1.0, 1.0, size=6 * 79)
        cfg = DecoderConfig(max_iterations=2)
        word, converged, iterations = gldpc_decode(spec, llr, cfg)
        assert iterations <= 2

    def test_llr_length_checked(self):
        spec = load("n79.json")
        with pytest.raises(ValueError, match="LLRs"):
            gldpc_decode(spec, np.zeros(10))

    def test_nan_llrs_rejected(self):
        spec = load("c1.json")
        with pytest.raises(ValueError, match="NaN"):
            gldpc_decode(spec, np.full(7 * 68, np.nan))
        llr = np.full(7 * 68, 4.0)
        llr[100] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            gldpc_decode(spec, llr)

    def test_infinite_llrs_accepted(self):
        spec = load("c1.json")
        G = construct_generator(spec).matrix
        n = G.ncols * G.modulus.N
        sent = encode(G, random_message(random.Random(95), G))
        llr = awgn_llrs(bits_to_array(sent, n), 2.0, rng=None)
        llr[::5] *= np.inf
        assert np.isinf(llr).sum() == len(llr[::5])
        assert gldpc_decode(spec, llr) == (sent, True, 1)

    def test_all_zero_parity_rows_converge_at_the_first_iteration(self):
        # Every check of such a component reads only the all-zero padding
        # line, so each frame converges at once on its channel decisions.
        spec = GldpcSpec.from_json_dict({
            "N": 5, "exponents": [0, 1, 2, 3],
            "assignment": [{"parity": ["0000"]}, {"parity": ["0000"]}],
        })
        llrs = np.random.default_rng(87).standard_normal((3, 20))
        for llr in llrs:
            assert gldpc_decode(spec, llr) == (pack_bits(llr < 0), True, 1)
        hard, converged, iterations = _decode_frames(_decoder_tables(spec), llrs, DecoderConfig())
        assert np.array_equal(hard, llrs < 0)
        assert converged.all() and (iterations == 1).all()
        G = construct_generator(spec).matrix
        (row,) = monte_carlo(spec, G, [1.0], {"max_trials": 4})
        assert row.trials == 4


class TestKernelBound:
    def test_bundled_kernel_tables_fit(self):
        sizes = []
        for name in SPEC_NAMES:
            for comp in load(name).assignment:
                if comp is not None:
                    q, p = comp.q, comp.p
                    if channel._kernel_of(comp) is channel._enumerated_kernel:
                        sizes.append(2 ** (q - len(channel._pivots(comp.parity))))
                    else:
                        sizes.append(q << p)
        assert max(sizes) == 240 <= channel._MAX_KERNEL_TABLE

    def test_large_component_is_one_value_error(self):
        comp = ComponentCode(large_component_spec()["assignment"][0]["parity"])
        words = f"kernel table of {46 << 20} entries, past the bound of 32768"
        with pytest.raises(ValueError, match=words):
            bcjr_component(comp, np.zeros(46))

    def test_rank_deficient_rows_count_every_codeword(self):
        # 15 copies of one row: 2^(q-p) = 2^15 would pass, but the codebook
        # holds 2^(q - rank) = 2^29 words.
        comp = ComponentCode([[1] + [0] * 29] * 15)
        assert 2 ** (comp.q - comp.p) <= channel._MAX_KERNEL_TABLE
        with pytest.raises(ValueError, match=f"kernel table of {1 << 29} entries"):
            channel._kernel_of(comp)

    def test_monte_carlo_refuses_before_any_work(self, monkeypatch):
        spec = GldpcSpec.from_json_dict(large_component_spec())
        G = construct_generator(spec).matrix
        monkeypatch.setattr(channel, "_draw_trial", _never_drawn)
        monkeypatch.setattr(channel, "_work", _never_drawn)
        with pytest.raises(ValueError, match="past the bound"):
            monte_carlo(spec, G, [1.0], {"max_trials": 2})
        with pytest.raises(ValueError, match="past the bound"):
            gldpc_decode(spec, np.zeros(138))


# Decodes, in a process of its own, three noisy all-zero words of one spec.
FRESH_DECODE = """
import json, sys
import numpy as np
from qcldpc.channel import DecoderConfig, awgn_llrs, gldpc_decode
from qcldpc.gldpc import load_spec
spec = load_spec(sys.argv[1])
n = int(sys.argv[2])
out = []
for seed in range(3):
    llr = awgn_llrs(np.zeros(n, np.uint8), -1.0, seed)
    word, converged, iterations = gldpc_decode(spec, llr, DecoderConfig(max_iterations=8))
    out.append([str(word), converged, iterations])
print(json.dumps(out))
"""


class TestDecoderTables:
    def test_alternating_specs_match_fresh_process(self):
        specs = {"c1.json": 7 * 68, "n79.json": 6 * 79}
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qcldpc.__file__)))
        fresh = {}
        for name, n in specs.items():
            proc = subprocess.run(
                [sys.executable, "-c", FRESH_DECODE, data_path(name), str(n)],
                capture_output=True, text=True, env=env, timeout=120, check=True,
            )
            fresh[name] = json.loads(proc.stdout)
        loaded = {name: load(name) for name in specs}
        cfg = DecoderConfig(max_iterations=8)
        for seed in range(3):
            for name, n in specs.items():
                llr = awgn_llrs(np.zeros(n, np.uint8), -1.0, seed)
                word, converged, iterations = gldpc_decode(loaded[name], llr, cfg)
                assert [str(word), converged, iterations] == fresh[name][seed]

    def test_specs_of_one_content_share_read_only_tables(self):
        first, second = load("c1.json"), load("c1.json")
        assert first is not second
        tables = _decoder_tables(first)
        assert _decoder_tables(second) is tables
        _, _, edges, (lines, _) = tables
        assert not edges.flags.writeable and not lines.flags.writeable

    def test_entries_changed_in_place_are_seen(self):
        # Each decode reads the spec's content: an edited base entry or a
        # swapped component gives new tables, equal to a fresh build's.
        spec = load("c1.json")
        llr = awgn_llrs(np.zeros(7 * 68, np.uint8), -1.0, 5)
        cfg = DecoderConfig(max_iterations=8)
        gldpc_decode(spec, llr, cfg)
        edges = _decoder_tables(spec)[2]
        spec.base.rows[1][1] = P("x^62")
        edited = gldpc_decode(spec, llr, cfg)
        new_edges = _decoder_tables(spec)[2]
        assert not np.array_equal(new_edges, edges)
        want = np.concatenate([idx.T for idx in row_edges(spec.effective_matrix())])
        assert np.array_equal(new_edges, want)
        assert gldpc_decode(spec, llr, cfg) == edited
        spec.assignment = (permuted74(), None)
        swapped = gldpc_decode(spec, llr, cfg)
        assert _decoder_tables(spec)[1][0][0] == permuted74()
        assert gldpc_decode(spec, llr, cfg) == swapped


# c1's base with a [7,4] component whose parity rows weigh 5, 3 and 3
# (every bundled component's rows weigh alike).
UNEQUAL_ROWS = "c1-unequal-rows"
# Two single-parity rows over x^13 + 1 of 7 and 6 bits: one kernel at two
# lengths, whose work arrays the rows share.
SPC_7_6 = "spc-7-6"


@functools.cache
def coded(name):
    if name == UNEQUAL_ROWS:
        comp = ComponentCode(
            [[1, 1, 1, 1, 1, 0, 0], [1, 1, 0, 0, 0, 1, 0], [1, 0, 1, 0, 0, 0, 1]]
        )
        spec = GldpcSpec(load("c1.json").base, (comp, None))
    elif name == SPC_7_6:
        second = [P(t) for t in ("1", "x", "x^3", "x^5", "x^7", "x^9", "0")]
        base = PolyMatrix([[P("1")] * 7, second], RingModulus(13))
        spec = GldpcSpec(base, (None, ComponentCode.spc(6)))
    else:
        spec = load(name)
    return spec, construct_generator(spec).matrix, expand_binary(spec)


class TestDecodeProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(SPEC_NAMES), st.integers(0, 2**32 - 1), st.floats(-2.0, 4.0))
    def test_noiseless_decodes_and_converged_words_are_codewords(self, name, seed, snr):
        spec, G, Hb = coded(name)
        n = G.ncols * G.modulus.N
        sent = encode(G, random_message(random.Random(seed), G))
        bits = bits_to_array(sent, n)
        assert gldpc_decode(spec, awgn_llrs(bits, snr, rng=None)) == (sent, True, 1)
        cfg = DecoderConfig(max_iterations=10)
        word, converged, _ = gldpc_decode(spec, awgn_llrs(bits, snr, rng=seed), cfg)
        if converged:
            assert in_kernel(Hb, word)

    @pytest.mark.parametrize("max_iterations", [2, 6])
    @pytest.mark.parametrize("name", SPEC_NAMES + (UNEQUAL_ROWS,))
    def test_converged_means_zero_syndrome(self, name, max_iterations):
        spec, _, Hb = coded(name)
        snrs = BATCH_SNRS.get(name, BATCH_SNRS["c1.json"])
        llrs = noisy_frames(name, snrs * 2, seed=96)
        cfg = DecoderConfig(max_iterations=max_iterations)
        hard, converged, _ = _decode_frames(_decoder_tables(spec), llrs, cfg)
        assert converged.any() and not converged.all()
        for b in range(len(llrs)):
            assert bool(converged[b]) == in_kernel(Hb, pack_bits(hard[b]))


class TestMonteCarlo:
    def test_reproducible(self):
        spec = load("n79.json")
        G = construct_generator(spec).matrix
        cfg = DecoderConfig(max_iterations=4)
        stop = {"min_block_errors": 2, "max_trials": 4}
        a = monte_carlo(spec, G, [-2.0], stop, master_seed=3, cfg=cfg)
        b = monte_carlo(spec, G, [-2.0], stop, master_seed=3, cfg=cfg)
        assert a == b

    def test_stop_rules(self):
        spec = load("n79.json")
        G = construct_generator(spec).matrix
        cfg = DecoderConfig(max_iterations=3)
        results = monte_carlo(
            spec,
            G,
            [-8.0, 6.0],
            {"min_block_errors": 1, "max_trials": 3},
            master_seed=4,
            cfg=cfg,
        )
        assert len(results) == 2
        noisy, clean = results
        # at -8 dB the first failures arrive immediately; at +6 dB every
        # trial decodes and the loop runs to max_trials
        assert noisy.block_errors >= 1 and noisy.trials <= 3
        assert clean.trials == 3 and clean.block_errors == 0
        for r in results:
            assert 0.0 <= r.ber <= 1.0 and 0.0 <= r.bler <= 1.0
            assert r.nbits == 6 * 79

    def test_zero_trials_short_circuits(self):
        spec = load("n79.json")
        G = construct_generator(spec).matrix
        assert monte_carlo(spec, G, [0.0], {"max_trials": 0}) == []

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf"), -1e308, 1e308, 3080.0, -3086.0]
    )
    def test_non_finite_snr_rejected(self, monkeypatch, bad):
        """Also where 10^(snr/10), or sigma^2 = 1/(2*10^(snr/10)), overflows; before any draw."""
        spec, G, _ = coded("c1.json")
        monkeypatch.setattr(channel, "_draw_trial", _never_drawn)
        with pytest.raises(ValueError, match="^SNR points must be finite and give a positive"):
            monte_carlo(spec, G, [1.0, bad], {"max_trials": 3})

    @pytest.mark.parametrize("bad", ["1", True, np.bool_(False), None, 1 + 0j, [1.0]])
    def test_snr_that_is_not_a_real_number_rejected(self, monkeypatch, bad):
        """A string ended in awgn_llrs with a TypeError, and True ran as 1 dB; before any draw."""
        spec, G, _ = coded("c1.json")
        monkeypatch.setattr(channel, "_draw_trial", _never_drawn)
        message = f"^an SNR point must be a real number, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            monte_carlo(spec, G, [1.0, bad], {"max_trials": 3})

    def test_snr_points_of_any_real_type_run_alike(self):
        spec, G, _ = coded("c1.json")
        stop = {"max_trials": 2}
        want = monte_carlo(spec, G, [1.0, 2.0], stop)
        got = monte_carlo(spec, G, [np.float64(1.0), np.int64(2)], stop)
        assert [(r.trials, r.bit_errors, r.block_errors) for r in got] == [
            (r.trials, r.bit_errors, r.block_errors) for r in want
        ]

    @pytest.mark.parametrize("snr", [3077.0, 3079.0])
    def test_snr_whose_llrs_overflow_rejected(self, monkeypatch, snr):
        """sigma^2 is positive and finite there, but 2 / sigma^2 is not; before any draw."""
        spec, G, _ = coded("c1.json")
        monkeypatch.setattr(channel, "_draw_trial", _never_drawn)
        with pytest.raises(ValueError, match="^SNR points must give a finite LLR scale"):
            monte_carlo(spec, G, [1.0, snr], {"max_trials": 3})

    def test_snr_below_the_llr_bound_runs_without_overflow(self):
        spec, G, _ = coded("c1.json")
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            (result,) = monte_carlo(spec, G, [3076.0], {"max_trials": 2})
        assert (result.trials, result.bit_errors) == (2, 0)

    @pytest.mark.parametrize(
        "stop, message",
        [
            ({"max_trial": 5}, "stop takes min_block_errors and max_trials"),
            ({"max_trials": -1}, "stop needs max_trials >= 0"),
            ({"min_block_errors": 0}, "stop needs max_trials >= 0 and min_block_errors >= 1"),
            ({"min_block_errors": -3, "max_trials": -4}, "stop needs"),
            ({"max_trials": 2.5}, r"max_trials must be an integer, got 2\.5$"),
            ({"max_trials": "3"}, "max_trials must be an integer, got '3'$"),
            ({"max_trials": 3.0}, r"max_trials must be an integer, got 3\.0$"),
            ({"min_block_errors": True}, "min_block_errors must be an integer, got True$"),
            ({"min_block_errors": 1.5, "max_trials": 3}, "min_block_errors must be an integer"),
        ],
        ids=[
            "misspelt-key", "negative-max-trials", "zero-min-block-errors", "negative-both",
            "float-max-trials", "string-max-trials", "integral-float-max-trials",
            "bool-min-block-errors", "float-min-block-errors",
        ],
    )
    def test_bad_stop_rejected(self, monkeypatch, stop, message):
        spec, G, _ = coded("c1.json")
        monkeypatch.setattr(channel, "_draw_trial", _never_drawn)
        with pytest.raises(ValueError, match=f"^{message}"):
            monte_carlo(spec, G, [1.0], stop)

    def test_numpy_integer_stop_accepted(self):
        spec, G, _ = coded("c1.json")
        cfg = DecoderConfig(max_iterations=np.int16(4))
        stop = {"min_block_errors": np.int32(1), "max_trials": np.int64(3)}
        want = monte_carlo(spec, G, [-1.0, 3.0], {"min_block_errors": 1, "max_trials": 3}, cfg=cfg)
        assert monte_carlo(spec, G, [-1.0, 3.0], stop, cfg=cfg) == want

    def test_generator_over_another_ring_rejected(self, monkeypatch):
        # prelift68's G has c1's length, 476 bits, but is over x^34 + 1.
        spec = coded("c1.json")[0]
        G = coded("prelift68.json")[1]
        assert G.ncols * G.modulus.N == 476 and G.modulus.N == 34
        monkeypatch.setattr(channel, "_draw_trial", _never_drawn)
        with pytest.raises(ValueError, match=mismatch((34, 476), (68, 476))):
            monte_carlo(spec, G, [3.0], {"max_trials": 5})

    def test_generator_of_another_length_rejected(self, monkeypatch):
        monkeypatch.setattr(channel, "_draw_trial", _never_drawn)
        # n79 is over x^79 + 1 with 474 bits, c1 over x^68 + 1 with 476.
        with pytest.raises(ValueError, match=mismatch((79, 474), (68, 476))):
            monte_carlo(coded("c1.json")[0], coded("n79.json")[1], [3.0], {"max_trials": 5})
        with pytest.raises(ValueError, match=mismatch((68, 476), (79, 474))):
            monte_carlo(coded("n79.json")[0], coded("c1.json")[1], [3.0], {"max_trials": 5})


def mismatch(got, spec):
    return re.escape(f"G's (N, n) = {got} is not the spec's {spec}") + "$"


def _never_drawn(*args):
    raise AssertionError("a rejected run drew a trial")


def per_row_draw_trial(G, master_seed, snr_idx, trial, snr_db):
    """Reference: _draw_trial with one uint8 draw of N bits per message row."""
    N = G.modulus.N
    rng = np.random.default_rng([master_seed, snr_idx, trial])
    message = [
        BinaryPoly(pack_bits(rng.integers(0, 2, size=N, dtype=np.uint8)))
        for _ in range(G.nrows)
    ]
    sent_bits = bits_to_array(encode(G, message), G.ncols * N)
    return sent_bits, awgn_llrs(sent_bits, snr_db, rng)


class TestDrawTrial:
    @pytest.mark.parametrize("N", [*range(1, 8), 34, 45, 68, 79, 376])
    @pytest.mark.parametrize("rows", [1, 2, 3, 10])
    def test_one_call_draws_the_per_row_bits(self, N, rows):
        # A uint8 call reads whole 32-bit words and drops its unused bytes,
        # so rows padded to 4 * ceil(N / 4) bytes read what one call each
        # would, and a draw after them starts where it would.
        for seed in range(20):
            one, each = np.random.default_rng([seed, N]), np.random.default_rng([seed, N])
            bits = one.integers(0, 2, size=(rows, 4 * -(-N // 4)), dtype=np.uint8)[:, :N]
            want = np.stack([each.integers(0, 2, size=N, dtype=np.uint8) for _ in range(rows)])
            assert np.array_equal(bits, want)
            assert one.bit_generator.state == each.bit_generator.state
            assert np.array_equal(one.standard_normal(5), each.standard_normal(5))

    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_matches_per_row_draws(self, name):
        _, G, _ = coded(name)
        table = channel._encoder_table(G)
        for point, trial, snr in ((0, 0, -1.0), (1, 3, 2.5), (4, 11, 0.0)):
            sent, llr = channel._draw_trial(G, 21, point, trial, snr, table)
            want_sent, want_llr = per_row_draw_trial(G, 21, point, trial, snr)
            assert np.array_equal(sent, want_sent) and np.array_equal(llr, want_llr)


def noisy_frames(name, snrs, seed):
    """Channel LLRs (one row per SNR) of random codewords of a spec ``coded`` knows."""
    spec, G, _ = coded(name)
    n = G.ncols * G.modulus.N
    rng = random.Random(seed)
    return np.stack([
        awgn_llrs(bits_to_array(encode(G, random_message(rng, G)), n), snr, rng=seed + k)
        for k, snr in enumerate(snrs)
    ])


def wide_frames(name, seed):
    """Frames whose rows are wide, narrow, or both, at llr_clip=200."""
    llrs = noisy_frames(name, (-2.0, 0.0, -2.0, 1.0), seed)
    llrs[1] *= 40.0  # every row wide
    llrs[2, ::2] *= 40.0  # wide and narrow rows in one frame
    return llrs


def assert_matches_one_frame_decodes(spec, llrs, cfg):
    hard, converged, iterations = _decode_frames(_decoder_tables(spec), llrs, cfg)
    assert hard.shape == llrs.shape
    for b, llr in enumerate(llrs):
        word = int.from_bytes(np.packbits(hard[b], bitorder="little").tobytes(), "little")
        assert (word, bool(converged[b]), int(iterations[b])) == gldpc_decode(spec, llr, cfg)
    return converged, iterations


# Mixed SNRs per spec: the low ones mostly run to the cap, the high ones converge early.
BATCH_SNRS = {
    "n79.json": (-4.0, -2.0, -1.0, 0.0, 1.0, 3.0),
    "c1.json": (-3.0, -2.0, -1.0, 0.0, 1.0, 3.0),
    "c2.json": (-6.0, -5.0, -4.0, -3.0, -2.0, 0.0),
    "prelift90.json": (-6.0, -5.0, -4.0, -3.0, -2.0, 0.0),
    "prelift68.json": (-5.0, -4.0, -3.0, -2.0, 0.0, 2.0),
    "hamming15.json": (0.0, 0.5, 1.0, 3.0),
    SPC_7_6: (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0),
}


def per_check_failures(spec, hard):
    """The decoder's former convergence check, five numpy calls per parity check.

    ``hard`` is (frames x n) hard decisions; each row's bits are gathered
    bit-major, (q x frames x N), and every parity check of its component
    XOR-reduces its bits and ORs the result into the frame's failure.
    """
    _, rows, edges, _ = _decoder_tables(spec)
    failed = np.zeros(len(hard), dtype=bool)
    for comp, span in rows:
        block = hard[:, edges[span]].transpose(1, 0, 2)
        for cols in (np.flatnonzero(row) for row in comp.parity):
            failed |= np.bitwise_xor.reduce(block[cols], axis=0).any(axis=1)
    return failed


class TestConvergenceCheck:
    @pytest.mark.parametrize("name", SPEC_NAMES + (UNEQUAL_ROWS,))
    def test_matches_the_per_check_loop(self, name):
        spec, G, _ = coded(name)
        n, _, edges, checks = _decoder_tables(spec)
        rng = np.random.default_rng(97)
        draw = random.Random(97)
        for frames in (1, 2, 3, 5, 8, 13):
            # Codewords with 0, 1, 2 or many flipped bits: some frames pass.
            bits = np.stack([
                bits_to_array(encode(G, random_message(draw, G)), n) for _ in range(frames)
            ]).astype(bool)
            for b in range(frames):
                flips = [0, 0, 1, 2, n // 3][b % 5]
                bits[b, rng.choice(n, size=flips, replace=False)] ^= True
            magnitude = rng.exponential(2.0, size=(frames, n))
            # Zeros, and -0.0 where the bit is 1, read as 0 on both sides.
            magnitude[4::5][rng.random((len(magnitude[4::5]), n)) < 0.05] = 0.0
            totals = np.where(bits, -magnitude, magnitude)
            hard = totals < 0
            at_edges = np.ascontiguousarray(totals[:, edges].transpose(1, 0, 2))
            want = per_check_failures(spec, hard)
            check = _check_arrays(checks, at_edges.shape)
            assert np.array_equal(_failed_frames(check, at_edges), want)
            if frames >= 5:
                assert want.any() and not want.all()


class TestBatchedDecode:
    @pytest.mark.parametrize("max_iterations", [1, 3, 30])
    @pytest.mark.parametrize("name", SPEC_NAMES + (SPC_7_6,))
    def test_each_frame_equals_its_decode_alone(self, name, max_iterations):
        spec = coded(name)[0]
        llrs = noisy_frames(name, BATCH_SNRS[name], seed=70)
        converged, iterations = assert_matches_one_frame_decodes(
            spec, llrs, DecoderConfig(max_iterations=max_iterations)
        )
        assert iterations.max() <= max_iterations
        if max_iterations == 30:
            # Frames leave the active set at different iterations.
            assert converged.any() and len(set(iterations.tolist())) > 1
        if max_iterations == 30 and name in ("prelift68.json", SPC_7_6):
            # Rows that share a kernel's work arrays, at different lengths
            # (spc-7-6) or at one (prelift68's three [7,4] rows), under a
            # plan rebuilt within the call each time frames leave.
            assert len(set(iterations[iterations < 30].tolist())) >= 3

    @pytest.mark.parametrize("name", ["c1.json", "n79.json", "hamming15.json"])
    def test_wide_and_narrow_rows_in_one_batch(self, name):
        spec = coded(name)[0]
        cfg = DecoderConfig(max_iterations=12, llr_clip=200.0)
        llrs = wide_frames(name, seed=71)
        _, rows, edges, _ = _decoder_tables(spec)
        spans = np.concatenate([
            np.abs(np.clip(llrs[:, edges[span].T], -200.0, 200.0)).sum(axis=2).ravel()
            for _, span in rows
        ])
        assert (spans > channel._PROB_SPAN).any() and (spans <= channel._PROB_SPAN).any()
        assert_matches_one_frame_decodes(spec, llrs, cfg)

    def test_single_and_empty_stacks(self):
        spec = coded("n79.json")[0]
        llrs = noisy_frames("n79.json", (-1.0,), seed=72)
        assert_matches_one_frame_decodes(spec, llrs, DecoderConfig(max_iterations=5))
        tables = _decoder_tables(spec)
        hard, converged, iterations = _decode_frames(tables, llrs[:0], DecoderConfig())
        assert hard.shape == (0, 6 * 79) and converged.size == iterations.size == 0

    def test_chunk_size_follows_rows_per_call(self):
        assert channel._chunk_frames(_decoder_tables(coded("c1.json")[0])) == 1024 // 68
        assert channel._chunk_frames(_decoder_tables(coded("hamming15.json")[0])) == 1024 // 376


# Decodes, in a process of its own, one stack of frames saved with np.save.
FRESH_FRAMES = """
import json, sys
import numpy as np
from qcldpc.channel import DecoderConfig, _decode_frames, _decoder_tables
from qcldpc.gldpc import load_spec
llrs = np.load(sys.argv[2])
cfg = DecoderConfig(max_iterations=int(sys.argv[3]), llr_clip=float(sys.argv[4]))
hard, converged, iterations = _decode_frames(_decoder_tables(load_spec(sys.argv[1])), llrs, cfg)
print(json.dumps([np.packbits(hard).tobytes().hex(), converged.tolist(), iterations.tolist()]))
"""


def decoded(spec, llrs, cfg):
    hard, converged, iterations = _decode_frames(_decoder_tables(spec), llrs, cfg)
    return [np.packbits(hard).tobytes().hex(), converged.tolist(), iterations.tolist()]


class TestDecoderWorkspace:
    """The decoder's reused work arrays neither leak between calls nor
    between threads, and keep a warm decode from allocating them anew."""

    def test_warm_decode_allocates_little(self):
        spec = coded("hamming15.json")[0]
        llrs = noisy_frames("hamming15.json", (3.0, 3.0), seed=80)
        cfg = DecoderConfig()
        _decode_frames(_decoder_tables(spec), llrs, cfg)
        tracemalloc.start()
        try:
            _decode_frames(_decoder_tables(spec), llrs, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_a_batch_shape_met_again_reuses_its_run(self):
        comp = hamming15_component()
        priors = np.random.default_rng(88).uniform(-8.0, 8.0, size=(40, comp.q))
        run = channel._held_kernel(comp, len(priors), 20.0)
        # Kept by parity rows, batch and bound, not by component object.
        assert channel._held_kernel(ComponentCode(comp.parity), len(priors), 20.0) is run
        assert channel._held_kernel(comp, len(priors) + 1, 20.0) is not run
        assert channel._held_kernel(comp, len(priors), 200.0) is not run
        got = np.empty_like(priors)
        run(priors, got)
        assert np.array_equal(got, bcjr_component(comp, priors))
        # A work array that grows drops every held run with its old arrays.
        channel._work(f"grown_{id(run)}", (1,))
        again = channel._held_kernel(comp, len(priors), 20.0)
        assert again is not run
        again(priors, got)
        assert np.array_equal(got, bcjr_component(comp, priors))

    def test_decodes_in_turn_match_fresh_processes(self, tmp_path):
        cases = [
            ("c1.json", noisy_frames("c1.json", np.linspace(-3.0, 2.0, 12), seed=81), 20.0),
            ("hamming15.json", noisy_frames("hamming15.json", (0.5, 3.0), seed=82), 20.0),
            ("hamming15.json", noisy_frames("hamming15.json", (0.5,), seed=83), 20.0),
            ("n79.json", wide_frames("n79.json", seed=84), 200.0),
        ]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qcldpc.__file__)))
        fresh = []
        for k, (name, llrs, clip) in enumerate(cases):
            path = tmp_path / f"llrs{k}.npy"
            np.save(path, llrs)
            proc = subprocess.run(
                [sys.executable, "-c", FRESH_FRAMES, data_path(name), str(path), "12", str(clip)],
                capture_output=True, text=True, env=env, timeout=120, check=True,
            )
            fresh.append(json.loads(proc.stdout))
        for (name, llrs, clip), want in zip(cases, fresh):
            cfg = DecoderConfig(max_iterations=12, llr_clip=clip)
            assert decoded(coded(name)[0], llrs, cfg) == want

    def test_threads_match_decoding_in_turn(self):
        cases = [
            ("c1.json", noisy_frames("c1.json", np.linspace(-3.0, 2.0, 12), seed=85), 20.0),
            ("hamming15.json", noisy_frames("hamming15.json", (0.5, 1.0), seed=86), 20.0),
            ("n79.json", wide_frames("n79.json", seed=87), 200.0),
        ]
        jobs = [
            (coded(name)[0], llrs, DecoderConfig(max_iterations=12, llr_clip=clip))
            for name, llrs, clip in cases
        ]
        want = [decoded(*job) for job in jobs]
        got = [[] for _ in jobs]
        start = threading.Barrier(len(jobs))

        def run(k):
            start.wait(timeout=60)
            for _ in range(3):
                got[k].append(decoded(*jobs[k]))

        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads inside every decode
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [[w] * 3 for w in want]


def sequential_monte_carlo(spec, G, snrs, stop, master_seed, cfg):
    """Reference: every point in turn, one trial decoded at a time."""
    N = G.modulus.N
    n = G.ncols * N
    results = []
    for snr_idx, snr in enumerate(snrs):
        trials = bit_errors = block_errors = 0
        while trials < stop["max_trials"] and block_errors < stop["min_block_errors"]:
            rng = np.random.default_rng([master_seed, snr_idx, trials])
            message = [
                BinaryPoly(int.from_bytes(np.packbits(
                    rng.integers(0, 2, size=N, dtype=np.uint8), bitorder="little"
                ).tobytes(), "little"))
                for _ in range(G.nrows)
            ]
            sent = encode(G, message)
            llr = awgn_llrs(bits_to_array(sent, n), snr, rng)
            word, _, _ = gldpc_decode(spec, llr, cfg)
            errs = (word ^ sent).bit_count()
            bit_errors += errs
            block_errors += 1 if errs else 0
            trials += 1
        results.append(TrialResult(snr, trials, bit_errors, block_errors, master_seed, n))
    return results


class TestChunkedMonteCarlo:
    CFG = DecoderConfig(max_iterations=6)

    @pytest.mark.parametrize(
        "snrs, stop",
        [
            # -7 dB stops on its 2nd error inside the first chunk of 12.
            ((-7.0, -1.0, 3.0), {"min_block_errors": 2, "max_trials": 13}),
            ((-7.0, 3.0, -7.0, 0.0), {"min_block_errors": 3, "max_trials": 5}),
            ((-2.0, 3.0), {"min_block_errors": 10**9, "max_trials": 1}),
            ((-7.0, 3.0), {"min_block_errors": 4, "max_trials": 4}),
            ((3.0, -7.0), {"min_block_errors": 1, "max_trials": 25}),
        ],
    )
    def test_equals_sequential_loop(self, monkeypatch, snrs, stop):
        spec, G, _ = coded("n79.json")
        want = sequential_monte_carlo(spec, G, snrs, stop, 9, self.CFG)
        drawn = []
        draw = channel._draw_trial

        def counting_draw(*args):
            drawn.append(args[2])
            return draw(*args)

        monkeypatch.setattr(channel, "_draw_trial", counting_draw)
        assert monte_carlo(spec, G, list(snrs), stop, master_seed=9, cfg=self.CFG) == want
        # Frames drawn past a point's stop fill at most one chunk per point.
        chunk = channel._chunk_frames(_decoder_tables(spec))
        for point, row in enumerate(want):
            assert row.trials <= drawn.count(point) <= row.trials + chunk - 1

    @pytest.mark.parametrize("chunk_rows", [1, 79 * 3, 79 * 7, 10**6])
    def test_counts_do_not_depend_on_chunk_size(self, monkeypatch, chunk_rows):
        spec, G, _ = coded("n79.json")
        snrs = [-7.0, -2.0, 3.0]
        stop = {"min_block_errors": 3, "max_trials": 11}
        want = sequential_monte_carlo(spec, G, snrs, stop, 10, self.CFG)
        monkeypatch.setattr(channel, "_CHUNK_ROWS", chunk_rows)
        assert monte_carlo(spec, G, snrs, stop, master_seed=10, cfg=self.CFG) == want

    def test_hamming15_odd_trials_in_chunks_of_two(self):
        spec, G, _ = coded("hamming15.json")
        cfg = DecoderConfig(max_iterations=10)
        stop = {"min_block_errors": 2, "max_trials": 3}
        snrs = [0.0, 3.0]
        want = sequential_monte_carlo(spec, G, snrs, stop, 12, cfg)
        assert channel._chunk_frames(_decoder_tables(spec)) == 2
        assert monte_carlo(spec, G, snrs, stop, master_seed=12, cfg=cfg) == want

    def test_tables_are_built_once_per_call(self, monkeypatch):
        # Eight frames of hamming15 decode in four chunks of two.
        spec, G, _ = coded("hamming15.json")
        built = []
        build = channel._decoder_tables

        def counting_build(spec):
            built.append(spec)
            return build(spec)

        chunks = []
        decode = channel._decode_frames

        def counting_decode(tables, llrs, cfg):
            chunks.append(len(llrs))
            return decode(tables, llrs, cfg)

        monkeypatch.setattr(channel, "_decoder_tables", counting_build)
        monkeypatch.setattr(channel, "_decode_frames", counting_decode)
        (result,) = monte_carlo(spec, G, [3.0], {"max_trials": 8}, cfg=self.CFG)
        assert result.trials == 8 and chunks == [2, 2, 2, 2]
        assert built == [spec]


class TestRowUpdatesStayTraceable:
    """The decoder prepares each row's update once per set of active frames,
    and still makes every row update through the module's bcjr_component,
    the layer a tracer wraps."""

    def test_every_row_update_calls_bcjr_component(self, monkeypatch):
        # The ber-waterfall settings: c1 at -3/-2/-1 dB, 4 frames a point, no early stop.
        spec, G, _ = coded("c1.json")
        snrs, stop = [-3.0, -2.0, -1.0], {"min_block_errors": 10**9, "max_trials": 4}
        decodes = []
        decode = channel._decode_frames

        def recorded_decode(tables, llrs, cfg):
            result = decode(tables, llrs, cfg)
            decodes.append(result[2].tolist())
            return result

        monkeypatch.setattr(channel, "_decode_frames", recorded_decode)
        want = monte_carlo(spec, G, snrs, stop, master_seed=31)
        want_iterations, decodes[:] = decodes[:], []

        calls, runs, inside = [], [], []
        update = channel.bcjr_component
        plan = channel._layout_plan

        def counted_update(comp, priors, **kwargs):
            calls.append(len(priors))
            inside.append(comp)
            try:
                return update(comp, priors, **kwargs)
            finally:
                inside.pop()

        def counted(run):
            def counted_run(arr, out):
                assert inside, "a row update ran outside bcjr_component"
                runs.append(len(arr))
                run(arr, out)

            return counted_run

        def counted_plan(*args):
            # Every prepared run the decoder holds, kept from an earlier
            # call or not, is wrapped as the plan hands it over.
            gather, priors, updates, check = plan(*args)
            wrapped = [(comp, p, o, counted(run)) for comp, p, o, run in updates]
            return gather, priors, wrapped, check

        monkeypatch.setattr(channel, "bcjr_component", counted_update)
        monkeypatch.setattr(channel, "_layout_plan", counted_plan)
        assert monte_carlo(spec, G, snrs, stop, master_seed=31) == want
        assert decodes == want_iterations
        # The 12 frames decode in one chunk. Each iteration updates both rows
        # of every active frame, N instances each, and a frame is active
        # for as many iterations as it reports.
        (iterations,) = decodes
        N = G.modulus.N
        assert len(calls) == 2 * max(iterations)
        assert sum(calls) == 2 * N * sum(iterations)
        assert runs == calls

    def test_one_plan_per_set_of_active_frames(self, monkeypatch):
        # c1 frames at mixed SNRs leave at several iterations. The first set
        # of active frames is planned, and again each set left after an
        # iteration in which some frames leave and some stay.
        spec, G, _ = coded("c1.json")
        snrs = (-3.0, -1.0, 1.0, 3.0)
        table = channel._encoder_table(G)
        llrs = np.array([
            channel._draw_trial(G, 5, point, trial, snr, table)[1]
            for point, snr in enumerate(snrs) for trial in range(4)
        ])
        plans = []
        plan = channel._layout_plan

        def counted_plan(tables, totals, ext, spare, bound):
            plans.append(ext.shape[1])
            return plan(tables, totals, ext, spare, bound)

        monkeypatch.setattr(channel, "_layout_plan", counted_plan)
        cfg = DecoderConfig(max_iterations=30)
        _, _, iterations = _decode_frames(_decoder_tables(spec), llrs, cfg)
        # The iterations at which frames leave; at the last, none stay.
        leaves = sorted(set(iterations.tolist()))
        assert len(leaves) >= 4
        assert len(plans) == 1 + len(leaves[:-1])
        # Each plan covers the frames still active: all of them, then those
        # that outlast each leave.
        assert plans == [np.count_nonzero(iterations > it) for it in [0, *leaves[:-1]]]
