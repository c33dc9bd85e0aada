"""The benchmark's workloads: two BER sweeps and the design pipeline.

Each workload has the same shape:

- ``setup()`` builds what every pass needs (the part a user pays once per
  job) and returns the state;
- ``check_setup(state)`` checks it, as ``(ok, ops, detail)``;
- ``run_pass(state, pass_id, clock)`` does one pass of the measured work,
  times each library call through ``clock`` and returns a ``PassResult``;
- ``final_checks(state, warm)`` runs, on the warm-up pass 0, the checks too
  costly to make on every pass.

Inputs of pass ``k`` come from (workload seed, k) only. Calls go through
module attributes (``channel.monte_carlo``), never through names bound at
import, so a Tracer installed around a pass sees them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from qcldpc import analysis, channel, construct, gldpc, polymat, rank
from qcldpc.gf2poly import BinaryPoly, RingModulus

DATA_DIR = os.path.join(os.path.dirname(gldpc.__file__), "data")
SPECS = ("n79", "c1", "c2", "prelift90", "prelift68", "hamming15")
# Dimension of each bundled spec's code (the selftest corpus and ROADMAP).
SPEC_DIMENSION = {
    "n79": 158, "c1": 204, "c2": 72, "prelift90": 91, "prelift68": 136, "hamming15": 3760,
}
# Criterion 12 of tests/test_acceptance.py: c1, master seed 2024, 60 frames.
PINNED_SNRS = (-3.0, -2.0, -1.0)
PINNED_SEED = 2024
PINNED_FRAMES = 60
PINNED_BIT_ERRORS = [1916, 423, 0]
PINNED_BLOCK_ERRORS = [48, 14, 0]
NO_EARLY_STOP = 10**9


def derived_seed(seed, pass_id):
    """Seed of pass ``pass_id`` of a run with workload seed ``seed``."""
    return (seed << 20) | pass_id


@dataclass
class PassResult:
    seconds: float = 0.0
    ops: int = 0
    failed: int = 0
    kind_seconds: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    output: object = None

    def record(self, ok, ops, detail):
        self.ops += ops
        if not ok:
            self.failed += ops
            self.failures.append(detail)


def _syndrome_zero(parity_rows, word):
    return all((row & word).bit_count() % 2 == 0 for row in parity_rows)


class BerSweep:
    """``monte_carlo`` over fixed SNR points with no early stop.

    A pass decodes ``frames`` frames at every SNR point under its own
    master seed; one op is one frame.
    """

    def __init__(self, seed, spec_name, snrs, frames, pinned_check=False,
                 expect_error_free=False):
        self.seed = seed
        self.spec_name = spec_name
        self.snrs = list(snrs)
        self.frames = frames
        self.pinned_check = pinned_check
        self.expect_error_free = expect_error_free

    def setup(self):
        spec = gldpc.load_spec(os.path.join(DATA_DIR, f"{self.spec_name}.json"))
        return spec, gldpc.construct_generator(spec)

    def check_setup(self, state):
        _, result = state
        want = SPEC_DIMENSION[self.spec_name]
        ok = result.complete and result.rank == want
        return ok, 1, f"generator rank {result.rank}, target {result.target_dimension}, want {want}"

    def run_pass(self, state, pass_id, clock):
        spec, result = state
        stop = {"min_block_errors": NO_EARLY_STOP, "max_trials": self.frames}
        master = derived_seed(self.seed, pass_id)
        rows, seconds = clock(
            lambda: channel.monte_carlo(spec, result.matrix, self.snrs, stop, master_seed=master)
        )
        out = PassResult(seconds=seconds, output=rows)
        ok = len(rows) == len(self.snrs) and all(r.trials == self.frames for r in rows)
        if self.expect_error_free:
            ok = ok and all(r.bit_errors == 0 for r in rows)
        out.record(ok, self.frames * len(self.snrs), f"pass {pass_id}: {_counts(rows)}")
        return out

    def final_checks(self, state, warm):
        """Re-decode the warm-up pass frame by frame; replay criterion 12."""
        spec, result = state
        checks = []
        ref, detail = self._reference_counts(spec, result.matrix, derived_seed(self.seed, 0))
        got = _counts(warm.output)
        checks.append((ref == got and not detail, self.frames * len(self.snrs),
                       f"reference {ref} vs monte_carlo {got} {detail}".strip()))
        if self.pinned_check:
            stop = {"min_block_errors": NO_EARLY_STOP, "max_trials": PINNED_FRAMES}
            rows = channel.monte_carlo(
                spec, result.matrix, list(PINNED_SNRS), stop, master_seed=PINNED_SEED
            )
            got_bits = [r.bit_errors for r in rows]
            got_blocks = [r.block_errors for r in rows]
            ok = got_bits == PINNED_BIT_ERRORS and got_blocks == PINNED_BLOCK_ERRORS
            checks.append((ok, PINNED_FRAMES * len(PINNED_SNRS),
                           f"criterion 12: bit errors {got_bits}, block errors {got_blocks}"))
        return checks

    def _reference_counts(self, spec, G, master):
        """Counts of one pass decoded frame by frame with the same draws.

        Each trial draws from ``default_rng([master, snr index, trial])``
        in the order monte_carlo documents: the message bits, then the
        channel noise. Sent words must have zero syndrome, and so must
        every word the decoder reports as converged.
        """
        N = G.modulus.N
        n = G.ncols * N
        parity_rows = gldpc.expand_binary(spec).rows
        counts, bad = [], []
        for snr_idx, snr in enumerate(self.snrs):
            bits = blocks = 0
            for trial in range(self.frames):
                rng = np.random.default_rng([master, snr_idx, trial])
                message = [
                    BinaryPoly(int.from_bytes(np.packbits(
                        rng.integers(0, 2, size=N, dtype=np.uint8), bitorder="little"
                    ).tobytes(), "little"))
                    for _ in range(G.nrows)
                ]
                sent = channel.encode(G, message)
                sent_bits = np.unpackbits(
                    np.frombuffer(sent.to_bytes((n + 7) // 8, "little"), np.uint8),
                    bitorder="little", count=n,
                )
                llr = channel.awgn_llrs(sent_bits, snr, rng)
                word, converged, _ = channel.gldpc_decode(spec, llr)
                if not _syndrome_zero(parity_rows, sent):
                    bad.append(f"sent word {snr_idx}/{trial} fails the syndrome")
                if converged and not _syndrome_zero(parity_rows, word):
                    bad.append(f"converged word {snr_idx}/{trial} fails the syndrome")
                errs = (word ^ sent).bit_count()
                bits += errs
                blocks += 1 if errs else 0
            counts.append((bits, blocks))
        return counts, "; ".join(bad)


def _counts(rows):
    return [(r.bit_errors, r.block_errors) for r in rows]


class Design:
    """The construction and analysis jobs over every bundled input.

    One pass: rank of ex1 at N = 44, 45, 46; the case-1 generator of
    ar4ja at N = 4; for each bundled spec its generator, girth and a
    20,000-evaluation distance search; the exact distance of ar4ja at
    N = 10. One op is one job.
    """

    RANKS = ((44, 126, 94), (45, 132, 93), (46, 132, 98))
    SEARCH_EVALUATIONS = 20_000
    EXACT_N = 10
    EXACT_DISTANCE = 6

    def __init__(self, seed, specs=SPECS, search_evaluations=SEARCH_EVALUATIONS):
        self.seed = seed
        self.specs = tuple(specs)
        self.search_evaluations = search_evaluations

    def setup(self):
        """File loading: the two .pmx matrices and every spec."""
        path = os.path.join
        return {
            "ex1": polymat.read_pmx(path(DATA_DIR, "ex1.pmx")),
            "ar4ja_4": polymat.read_pmx(path(DATA_DIR, "ar4ja.pmx"), RingModulus(4)),
            "ar4ja": polymat.read_pmx(path(DATA_DIR, "ar4ja.pmx")),
            "specs": {s: gldpc.load_spec(path(DATA_DIR, f"{s}.json")) for s in self.specs},
        }

    def check_setup(self, state):
        """Also expands every spec once, for the witness syndrome checks."""
        state["parity"] = {
            name: gldpc.expand_binary(spec).rows for name, spec in state["specs"].items()
        }
        return len(state["specs"]) == len(self.specs), 1, f"{len(state['specs'])} specs loaded"

    def run_pass(self, state, pass_id, clock):
        out = PassResult()
        kinds = {"construct": 0.0, "girth": 0.0, "distance": 0.0}

        def job(kind, thunk):
            value, seconds = clock(thunk)
            kinds[kind] += seconds
            return value

        for N, want_rank, want_dim in self.RANKS:
            rep = job("construct", lambda N=N: rank.rank_qc(state["ex1"], RingModulus(N)))
            out.record((rep.rank, rep.dimension) == (want_rank, want_dim), 1,
                       f"rank ex1 N={N}: {rep.rank}, {rep.dimension}")
        res, _ = job("construct", lambda: construct.generator_case1(state["ar4ja_4"]))
        out.record(res.complete and res.target_dimension == 8, 1,
                   f"case 1 ar4ja N=4: rank {res.rank} of {res.target_dimension}")

        search_seed = derived_seed(self.seed, pass_id)
        for name, spec in state["specs"].items():
            res = job("construct", lambda spec=spec: gldpc.construct_generator(spec))
            want = SPEC_DIMENSION[name]
            out.record(res.complete and res.rank == want, 1,
                       f"{name} generator: rank {res.rank} of {res.target_dimension}, want {want}")
            g = job("girth", lambda spec=spec: analysis.girth(spec.effective_matrix()))
            out.record(g == 12, 1, f"{name} girth {g}")
            rep = job("distance", lambda G=res.matrix: analysis.low_weight_search(
                polymat.circulant_expand(G), self.search_evaluations, search_seed))
            ok = (
                rep.upper > 0
                and rep.witness.bit_count() == rep.upper
                and _syndrome_zero(state["parity"][name], rep.witness)
            )
            out.record(ok, 1, f"{name} distance witness of weight {rep.upper}")

        def exact():
            H = state["ar4ja"]
            gen = construct.generator_general(H, RingModulus(self.EXACT_N))
            return analysis.min_distance_exact(polymat.circulant_expand(gen.matrix))

        d = job("distance", exact)
        out.record(d == self.EXACT_DISTANCE, 1, f"exact distance ar4ja N={self.EXACT_N}: {d}")
        out.kind_seconds = kinds
        out.seconds = sum(kinds.values())
        return out

    def final_checks(self, state, warm):
        return []


def make(name, seed):
    """The workload called ``name``, drawing its inputs from ``seed``."""
    if name == "ber-waterfall":
        return BerSweep(seed, "c1", PINNED_SNRS, frames=4, pinned_check=True)
    if name == "ber-highsnr":
        return BerSweep(seed, "hamming15", [3.0], frames=8, expect_error_free=True)
    if name == "design":
        return Design(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("ber-waterfall", "ber-highsnr", "design")
