import hashlib
import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from masinfo import coverage
from masinfo.coverage import (
    BadParams,
    CoverageParams,
    DegenerateCurve,
    analytic_bounds,
    compare_designs,
    fit_alpha,
    marginal_gain,
    recovered_lower_bound,
    simulate_coverage,
)


def force_workers(monkeypatch, n, cap=None):
    """Make simulate_coverage see n usable CPUs, its worker cap lifted to `cap`."""
    monkeypatch.setattr(coverage, "_usable_cpus", lambda: n)
    if cap is not None:
        monkeypatch.setattr(coverage, "_MAX_WORKERS", cap)


def count_philox_keys(monkeypatch):
    """Count the Philox streams simulate_coverage keys: one per span of each round."""
    keys = []
    real = np.random.Philox

    def philox(key):
        keys.append(key)
        return real(key=key)

    monkeypatch.setattr(coverage.np.random, "Philox", philox)
    return keys


PINNED = [
    (CoverageParams.equal_bits(alpha=0.3, num_channels=10, seed=1, num_bits=16), 45_000,
     "df305569e4596a06ab489e13b5fb7d28842c310ec7c49ca1711b47a7207abe12"),
    (CoverageParams(7, tuple(np.linspace(0.01, 0.2, 7)), 0.35, 6, 17), 21_001,
     "5b2180524d48eb158abdc7760e28c5e70b1a44b3a39fd7b557aa03e8e992af88"),
    (CoverageParams(17, tuple(np.linspace(0.01, 0.3, 17)), 0.3, 5, 23), 20_101,
     "40f484a1aef7008b6cd6cb29138489d73d48d97d04c19998082651579a889734"),
]
PINNED_IDS = ["equal-m16", "nonuniform-m7", "nonuniform-m17"]


class TestParams:
    def test_alpha_range(self):
        with pytest.raises(BadParams):
            CoverageParams.equal_bits(alpha=1.5, num_channels=3, seed=0)
        with pytest.raises(BadParams):
            CoverageParams.equal_bits(alpha=0.0, num_channels=3, seed=0)

    def test_zero_bits_rejected(self):
        with pytest.raises(BadParams, match="num_bits"):
            CoverageParams.equal_bits(alpha=0.3, num_channels=3, seed=0, num_bits=0)

    def test_seed_bounds(self):
        # the seed keys Philox, whose key is an unsigned 128-bit integer
        for seed in (-1, 2**128):
            with pytest.raises(BadParams, match="seed"):
                CoverageParams.equal_bits(alpha=0.3, num_channels=3, seed=seed)
        for seed in (0, 2**128 - 1):
            CoverageParams.equal_bits(alpha=0.3, num_channels=3, seed=seed)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_entropy_rejected(self, bad):
        with pytest.raises(BadParams, match="finite"):
            CoverageParams(2, (bad, 0.1), 0.3, 2, 0)

    def test_entropy_accounting(self):
        p = CoverageParams.equal_bits(alpha=0.3, num_channels=4, seed=0, num_bits=16)
        assert abs(p.total_entropy - 1.0) < 1e-12


class TestSimulate:
    def test_k_zero_residual_is_one(self):
        p = CoverageParams.equal_bits(alpha=0.3, num_channels=0, seed=1)
        curve = simulate_coverage(p, trials=100)
        assert curve.mean_residual_fraction == (1.0,)
        # these bits' fractions h / H sum to 1 - 2**-53, but K = 0 is exact
        p = CoverageParams(3, (0.1, 0.2, 0.3), 0.35, 4, 3)
        curve = simulate_coverage(p, trials=1000)
        assert curve.mean_residual_fraction[0] == 1.0
        assert curve.stderr[0] == 0.0

    def test_near_certain_coverage(self):
        p = CoverageParams.equal_bits(alpha=1.0 - 1e-12, num_channels=1, seed=2)
        curve = simulate_coverage(p, trials=1000)
        assert curve.mean_residual_fraction[1] < 1e-9

    def test_matches_expectation(self):
        p = CoverageParams.equal_bits(alpha=0.3, num_channels=5, seed=3)
        curve = simulate_coverage(p, trials=100_000)
        expected = 0.7 ** 5
        observed = curve.mean_residual_fraction[5]
        assert abs(observed - expected) <= 3 * curve.stderr[5]
        assert abs(expected - 0.16807) < 1e-9

    def test_nonincreasing_curve(self):
        p = CoverageParams.equal_bits(alpha=0.4, num_channels=8, seed=4)
        curve = simulate_coverage(p, trials=50_000)
        diffs = np.diff(curve.mean_residual_fraction)
        assert np.all(diffs <= 3 * np.array(curve.stderr[1:]))

    def test_determinism(self):
        p = CoverageParams.equal_bits(alpha=0.25, num_channels=6, seed=5)
        a = simulate_coverage(p, trials=20_000)
        b = simulate_coverage(p, trials=20_000)
        assert a == b
        assert a.to_csv() == b.to_csv()

    def test_prefix_stability_when_trials_grow(self):
        # extending the trial count must not reshuffle earlier trials, so
        # partial sums over the shared prefix agree
        p = CoverageParams.equal_bits(alpha=0.3, num_channels=3, seed=6)
        small = simulate_coverage(p, trials=10_000)
        large = simulate_coverage(p, trials=20_000)
        # means differ, but both lie within a few stderr of the analytic value
        for k in range(4):
            assert abs(small.mean_residual_fraction[k] - 0.7 ** k) <= 4 * max(small.stderr[k], 1e-12)
            assert abs(large.mean_residual_fraction[k] - 0.7 ** k) <= 4 * max(large.stderr[k], 1e-12)

    def test_nonuniform_bit_entropies(self):
        # coverage is independent of a bit's entropy, so the expectation is
        # unchanged under unequal weights
        h = tuple(np.linspace(0.01, 0.2, 8))
        p = CoverageParams(8, h, 0.35, 4, 7)
        curve = simulate_coverage(p, trials=100_000)
        for k in range(5):
            assert abs(curve.mean_residual_fraction[k] - 0.65 ** k) <= 3 * max(curve.stderr[k], 1e-12)

    def test_stderr_matches_independent_bits(self):
        # each bit's hidden indicator is Bernoulli(p), p = (1-alpha)^K, and
        # independent of the others, so Var = p(1-p) sum(h^2) / H^2; bits
        # that shared a draw would leave the mean right but inflate this
        h = np.linspace(0.01, 0.2, 8)
        p = CoverageParams(8, tuple(h), 0.3, 6, 8)
        trials = 100_000
        curve = simulate_coverage(p, trials=trials)
        for k in range(1, 7):
            q = 0.7 ** k
            exact = math.sqrt(q * (1 - q) * float(np.sum(h * h))) / float(np.sum(h)) / math.sqrt(trials)
            assert abs(curve.stderr[k] - exact) <= 0.02 * exact, (k, curve.stderr[k], exact)

    @pytest.mark.parametrize("one_trial_chunks", [False, True], ids=["default-chunks", "one-trial-chunks"])
    def test_draw_layout_matches_hand_computation(self, monkeypatch, one_trial_chunks):
        # the stream contract: trial t takes uniforms [t*m, (t+1)*m) of one
        # Philox stream, and bit j's first revealing channel is
        # G = floor(log(1 - U) / log1p(-alpha)) + 1; 7 bits per trial put
        # chunk boundaries inside Philox's 4-draw blocks
        params = CoverageParams(7, tuple(np.linspace(0.01, 0.2, 7)), 0.35, 6, 17)
        trials, m, k_max = 3, params.num_bits, params.num_channels
        if one_trial_chunks:
            monkeypatch.setattr(coverage, "_CHUNK_BYTES", 8 * max(m, k_max + 1))
        draws = np.random.Generator(np.random.Philox(key=params.seed)).random(trials * m).tolist()
        fractions = []
        for t in range(trials):
            hidden = [0.0] * (k_max + 1)
            for j in range(m):
                g = math.floor(math.log(1.0 - draws[t * m + j]) / math.log1p(-params.alpha)) + 1
                for k in range(k_max + 1):
                    if g > k:
                        hidden[k] += params.bit_entropies[j]
            fractions.append([x / params.total_entropy for x in hidden])
        expected = np.mean(fractions, axis=0)
        expected[0] = 1.0
        curve = simulate_coverage(params, trials=trials)
        assert np.max(np.abs(np.array(curve.mean_residual_fraction) - expected)) <= 1e-15

    @pytest.mark.parametrize("alpha, residual", [(5e-324, 1.0), (1e-300, 1.0), (1.0 - 2.0**-53, 0.0)],
                             ids=["denormal", "tiny", "one-minus-ulp"])
    def test_extreme_alpha_raises_no_warning(self, monkeypatch, alpha, residual):
        # for tiny alpha, log V / log1p(-alpha) lies far past intp's range,
        # and past float64's at 5e-324: neither the division nor the cast
        # to an integer bin may overflow.  Three chunks put a span on a
        # worker thread, whose numpy warnings the filter turns into errors
        force_workers(monkeypatch, 2, cap=2)
        p = CoverageParams.equal_bits(alpha=alpha, num_channels=5, seed=3)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            curve = simulate_coverage(p, trials=5000)
        # a bit flips only when U sits on one value of 2**53
        assert curve.mean_residual_fraction == (1.0,) + (residual,) * 5
        assert curve.stderr == (0.0,) * 6

    @pytest.mark.parametrize("params, trials, digest", PINNED, ids=PINNED_IDS)
    def test_stream_and_reduction_pinned(self, params, trials, digest):
        # the Philox draw order and the chunked reduction fix every digit of
        # the curve; a change to either shows here
        csv = simulate_coverage(params, trials=trials).to_csv()
        assert hashlib.sha256(csv.encode()).hexdigest() == digest

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_any_worker_count_gives_the_same_bytes(self, monkeypatch, workers):
        # the pinned curves are one round of 22, 5 and 11 chunks, so m7 has
        # fewer chunks than 8 workers
        force_workers(monkeypatch, workers, cap=workers)
        for params, trials, digest in PINNED:
            keys = count_philox_keys(monkeypatch)
            csv = simulate_coverage(params, trials=trials).to_csv()
            assert hashlib.sha256(csv.encode()).hexdigest() == digest
            chunk = coverage._CHUNK_BYTES // (8 * max(params.num_bits, params.num_channels + 1))
            assert len(keys) == min(workers, -(-trials // chunk))
        # one-trial chunks of 7 bits start the second worker's span 3 draws
        # into a Philox block and the third's 2 draws into one
        params = CoverageParams(7, tuple(np.linspace(0.01, 0.2, 7)), 0.35, 6, 17)
        monkeypatch.setattr(coverage, "_CHUNK_BYTES", 8 * 7)
        curve = simulate_coverage(params, trials=3)
        force_workers(monkeypatch, 1)
        assert curve.to_csv() == simulate_coverage(params, trials=3).to_csv()

    @pytest.mark.parametrize("cpus, trials, workers", [
        (1, 45_000, 1),
        (64, 45_000, coverage._MAX_WORKERS),
        (64, 2_048, 1),  # one chunk
    ], ids=["one-cpu", "capped", "one-chunk"])
    def test_worker_count(self, monkeypatch, cpus, trials, workers):
        # min(usable CPUs, chunks, cap) workers, each keying one Philox; no
        # worker thread outlives the call
        force_workers(monkeypatch, cpus)
        keys = count_philox_keys(monkeypatch)
        before = threading.active_count()
        params = CoverageParams.equal_bits(alpha=0.3, num_channels=10, seed=1, num_bits=16)
        simulate_coverage(params, trials=trials)
        assert len(keys) == workers
        assert threading.active_count() == before

    def test_usable_cpus_follow_affinity(self, monkeypatch):
        monkeypatch.setattr(coverage.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert coverage._usable_cpus() == 3
        monkeypatch.delattr(coverage.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(coverage.os, "cpu_count", lambda: 6)
        assert coverage._usable_cpus() == 6
        monkeypatch.setattr(coverage.os, "cpu_count", lambda: None)
        assert coverage._usable_cpus() == 1

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_span_failure_reraised_and_threads_joined(self, monkeypatch, failing):
        # of two spans, the one that raises surfaces on the calling thread,
        # and the worker thread does not outlive the call
        force_workers(monkeypatch, 2, cap=2)
        real = np.bincount
        caller = threading.current_thread()

        def bincount(*args, **kwargs):
            if (threading.current_thread() is caller) == (failing == "caller"):
                raise FloatingPointError(f"bincount failed on the {failing}")
            return real(*args, **kwargs)

        monkeypatch.setattr(coverage.np, "bincount", bincount)
        before = threading.active_count()
        params = CoverageParams.equal_bits(alpha=0.3, num_channels=10, seed=1, num_bits=16)
        with pytest.raises(FloatingPointError, match=f"on the {failing}"):
            simulate_coverage(params, trials=45_000)
        assert threading.active_count() == before

    def test_workers_keep_the_callers_errstate(self, monkeypatch):
        # an overflow on a worker thread raises as np.errstate asks the caller's
        force_workers(monkeypatch, 2, cap=2)
        real = np.divide
        caller = threading.current_thread()

        def divide(a, b, out=None):
            if threading.current_thread() is not caller:
                np.multiply(a, 1e308, out=a)
                np.multiply(a, 1e308, out=a)
            return real(a, b, out=out)

        monkeypatch.setattr(coverage.np, "divide", divide)
        params = CoverageParams.equal_bits(alpha=0.3, num_channels=10, seed=1, num_bits=16)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            simulate_coverage(params, trials=45_000)

    def test_bad_trials(self):
        p = CoverageParams.equal_bits(alpha=0.3, num_channels=2, seed=0)
        with pytest.raises(BadParams):
            simulate_coverage(p, trials=0)


class TestSimulateMemory:
    # the worker cap bounds the memory on a host with any number of CPUs
    @pytest.fixture(autouse=True)
    def many_cpus(self, monkeypatch):
        force_workers(monkeypatch, 64)

    def test_memory_bounded_by_chunks(self):
        # 4,096 draws per trial: one trial's uniforms, bins and weights take
        # 32 KiB each, and a chunk holds 8 trials
        params = CoverageParams.equal_bits(alpha=0.3, num_channels=64, seed=9, num_bits=4096)
        tracemalloc.start()
        try:
            simulate_coverage(params, trials=32)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_memory_bounded_for_many_channels(self):
        # one bit on 200 channels: all 20,000 x 201 fractions and their
        # squares would take 61 MiB; a chunk's bins take 256 KiB
        params = CoverageParams.equal_bits(alpha=0.3, num_channels=200, seed=9, num_bits=1)
        tracemalloc.start()
        try:
            simulate_coverage(params, trials=20_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_chunk_sums_bounded_whatever_the_trials(self):
        # 20,001 channels make each one-trial chunk's two column sums 320 KiB:
        # a table of all 60 chunks' sums would take 19 MiB, a round's 640 KiB
        params = CoverageParams.equal_bits(alpha=0.3, num_channels=20_000, seed=9, num_bits=1)
        tracemalloc.start()
        try:
            simulate_coverage(params, trials=60)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestAnalyticBounds:
    def test_k_zero(self):
        assert analytic_bounds(0.5, 0) == (1.0, 1.0)

    def test_direct_values(self):
        geo, expo = analytic_bounds(0.5, 2)
        assert abs(geo - 0.25) < 1e-15
        assert abs(expo - math.exp(-1.0)) < 1e-15
        geo, expo = analytic_bounds(0.1, 10)
        assert abs(geo - 0.9 ** 10) < 1e-15
        assert abs(expo - math.exp(-1.0)) < 1e-15

    def test_ordering_grid(self):
        for alpha in np.linspace(0.05, 0.95, 19):
            for k in range(0, 30):
                geo, expo = analytic_bounds(float(alpha), k)
                assert geo <= expo + 1e-15


class TestMarginalGain:
    def test_first_channel(self):
        assert abs(marginal_gain(0.5, 0) - (1.0 - math.exp(-0.5))) < 1e-12

    def test_large_k_vanishes(self):
        assert marginal_gain(0.5, 100) < 1e-20

    def test_difference_identity_grid(self):
        for alpha in np.linspace(0.05, 0.95, 10):
            for k in range(10):
                diff = (1.0 - math.exp(-alpha * (k + 1))) - (1.0 - math.exp(-alpha * k))
                assert abs(marginal_gain(float(alpha), k) - diff) < 1e-12

    def test_strictly_decreasing(self):
        gains = [marginal_gain(0.3, k) for k in range(20)]
        assert all(a > b for a, b in zip(gains, gains[1:]))


class TestCompareDesigns:
    def test_heterogeneous_wins(self):
        lb_a, lb_b, winner = compare_designs((0.4, 4), (0.2, 4), 1.0)
        assert winner == "a"
        assert abs(lb_a - (1.0 - math.exp(-1.6))) < 1e-12
        assert abs(lb_a - 0.798103) < 1e-6

    def test_equal_products_tie(self):
        lb_a, lb_b, winner = compare_designs((0.2, 4), (0.4, 2), 1.0)
        assert winner == "tie"
        assert abs(lb_a - lb_b) < 1e-12

    def test_larger_product_wins_regardless_of_label(self):
        _, _, winner = compare_designs((0.4, 4), (0.5, 10), 1.0)
        assert winner == "b"

    def test_scales_with_entropy(self):
        lb_a, _, _ = compare_designs((0.4, 4), (0.2, 4), 2.5)
        assert abs(lb_a - 2.5 * (1.0 - math.exp(-1.6))) < 1e-12

    @pytest.mark.parametrize("a, b, h, match", [
        ((0.3, math.nan), (0.3, 2), 1.0, "k must"),
        ((0.3, math.inf), (0.2, math.inf), 1.0, "k must"),
        ((0.3, 2), (0.3, -1), 1.0, "k must"),
        ((math.nan, 2), (0.3, 2), 1.0, "alpha"),
        ((0.3, 2), (1.5, 2), 1.0, "alpha"),
        ((0.3, 2), (0.4, 2), math.nan, "H\\(Y\\|X\\)"),
        ((0.3, 2), (0.4, 2), -1.0, "H\\(Y\\|X\\)"),
        ((0.3, 2), (0.4, 2), math.inf, "H\\(Y\\|X\\)"),
    ], ids=["nan-k", "inf-k", "negative-k", "nan-alpha", "alpha-above-1", "nan-h", "negative-h", "inf-h"])
    def test_bad_design_rejected(self, a, b, h, match):
        with pytest.raises(BadParams, match=match):
            compare_designs(a, b, h)


class TestRecoveredLowerBound:
    def test_value(self):
        assert abs(recovered_lower_bound(0.3, 2, 2.0) - 2.0 * (1.0 - math.exp(-0.6))) < 1e-15
        assert recovered_lower_bound(0.3, 0, 0.0) == 0.0

    @pytest.mark.parametrize("alpha, k, h, match", [
        (1.5, 2, 1.0, "alpha"),
        (0.0, 2, 1.0, "alpha"),
        (math.nan, 2, 1.0, "alpha"),
        (0.3, -2, 1.0, "k must"),
        (0.3, math.nan, 1.0, "k must"),
        (0.3, math.inf, 1.0, "k must"),
        (0.3, 2, -0.5, "H\\(Y\\|X\\)"),
        (0.3, 2, math.nan, "H\\(Y\\|X\\)"),
        (0.3, 2, math.inf, "H\\(Y\\|X\\)"),
    ], ids=["alpha-above-1", "alpha-zero", "nan-alpha", "negative-k", "nan-k", "inf-k",
            "negative-h", "nan-h", "inf-h"])
    def test_bad_input_rejected(self, alpha, k, h, match):
        with pytest.raises(BadParams, match=match):
            recovered_lower_bound(alpha, k, h)


class TestFitAlpha:
    def test_noiseless_round_trip(self):
        for alpha in (0.1, 0.3, 0.55):
            pts = [(k, 1.0 - math.exp(-alpha * k)) for k in range(1, 9)]
            alpha_hat, rss = fit_alpha(pts)
            assert abs(alpha_hat - alpha) < 1e-6
            assert rss < 1e-12

    def test_flat_curve_rejected(self):
        with pytest.raises(DegenerateCurve):
            fit_alpha([(1, 0.0), (2, 0.0), (3, 0.0)])

    def test_duplicate_k_rejected(self):
        with pytest.raises(DegenerateCurve):
            fit_alpha([(1, 0.1), (1, 0.2)])

    def test_noisy_recovery(self):
        rng = np.random.default_rng(11)
        pts = [
            (k, float(np.clip(1.0 - math.exp(-0.3 * k) + rng.normal(0, 0.01), 0, 1)))
            for k in range(1, 9)
        ]
        alpha_hat, _ = fit_alpha(pts)
        assert abs(alpha_hat - 0.3) < 0.05

    @pytest.mark.parametrize("pts", [
        [(1, 0.26), (2, math.nan), (3, 0.6)],
        [(1, 0.26), (math.inf, 0.45), (3, 0.6)],
    ], ids=["nan-fraction", "inf-k"])
    def test_non_finite_point_rejected(self, pts):
        with pytest.raises(DegenerateCurve, match="finite"):
            fit_alpha(pts)

    def test_negative_k_rejected_zero_kept(self):
        with pytest.raises(DegenerateCurve, match="got -1.0"):
            fit_alpha([(-1, 0.0), (1, 0.26), (2, 0.45)])
        alpha_hat, rss = fit_alpha([(k, 1.0 - math.exp(-0.3 * k)) for k in range(0, 6)])
        assert abs(alpha_hat - 0.3) < 1e-6
        assert rss < 1e-12

    def test_deterministic(self):
        pts = [(k, 1.0 - math.exp(-0.2 * k)) for k in range(1, 6)]
        assert fit_alpha(pts) == fit_alpha(pts)
