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
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qcldpc
from conftest import P, data_path, hamming64, hamming74, in_kernel
from qcldpc.channel import (
    DecoderConfig,
    TrialResult,
    _trellis_extrinsics,
    awgn_llrs,
    bcjr_component,
    encode,
    gldpc_decode,
    monte_carlo,
)
from qcldpc.gf2poly import BinaryPoly, RingModulus
from qcldpc.gldpc import ComponentCode, construct_generator, expand_binary, load_spec
from qcldpc.polymat import PolyMatrix, circulant_expand


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


def random_message(rng, G):
    N = G.modulus.N
    return [BinaryPoly(rng.getrandbits(N)) for _ in range(G.nrows)]


def bits_to_array(bits, n):
    return np.array([bits >> j & 1 for j in range(n)], dtype=np.uint8)


class TestConfigAndCounts:
    def test_config_defaults(self):
        cfg = DecoderConfig()
        assert cfg.max_iterations == 100

    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_iterations"):
            DecoderConfig(max_iterations=0)
        for clip in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="llr_clip"):
                DecoderConfig(llr_clip=clip)

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

    @pytest.mark.parametrize("comp_fn", [hamming64, hamming74])
    def test_large_priors_stay_finite(self, comp_fn):
        comp = comp_fn()
        rng = np.random.default_rng(89)
        priors = rng.uniform(-8.0, 8.0, size=(6, comp.q))
        priors[::2] = rng.choice([-1e3, 1e3], size=(3, comp.q))
        got = bcjr_component(comp, priors)
        assert np.all(np.isfinite(got))
        want = _trellis_extrinsics(comp, priors)
        assert np.allclose(got, want, rtol=0, atol=1e-12)

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


@functools.cache
def coded(name):
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
