import hashlib
import math
import os
import sys
import threading
import tracemalloc

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
    simulate_coverage,
)


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

    @pytest.mark.parametrize("params, trials, digest", [
        (CoverageParams.equal_bits(alpha=0.3, num_channels=10, seed=1, num_bits=16), 45_000,
         "5f80a034754cba4599bf2bcb345254b76d31609e1985a4051bb41851463299c6"),
        (CoverageParams(7, tuple(np.linspace(0.01, 0.2, 7)), 0.35, 6, 17), 21_001,
         "6f33abbefd9bc4c307869bb0623fcfc84409cb262825e9c00d2ce395e907df53"),
    ], ids=["equal-m16", "nonuniform-m7"])
    def test_stream_and_reduction_pinned(self, params, trials, digest):
        # the Philox draw order and the chunked reduction fix every digit of
        # the curve; a change to either shows here
        csv = simulate_coverage(params, trials=trials).to_csv()
        assert hashlib.sha256(csv.encode()).hexdigest() == digest

    def test_bad_trials(self):
        p = CoverageParams.equal_bits(alpha=0.3, num_channels=2, seed=0)
        with pytest.raises(BadParams):
            simulate_coverage(p, trials=0)


# the curves of TestSimulate.test_stream_and_reduction_pinned
PINNED = [
    (CoverageParams.equal_bits(alpha=0.3, num_channels=10, seed=1, num_bits=16), 45_000,
     "5f80a034754cba4599bf2bcb345254b76d31609e1985a4051bb41851463299c6"),
    (CoverageParams(7, tuple(np.linspace(0.01, 0.2, 7)), 0.35, 6, 17), 21_001,
     "6f33abbefd9bc4c307869bb0623fcfc84409cb262825e9c00d2ce395e907df53"),
]
PINNED_IDS = ["equal-m16", "nonuniform-m7"]


def _digest(params, trials):
    return hashlib.sha256(simulate_coverage(params, trials=trials).to_csv().encode()).hexdigest()


def _use_cpus(monkeypatch, n):
    # simulate_coverage starts one worker per usable CPU
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _use_sub_block(monkeypatch, params, size):
    # a budget of `size` trials' draws, 8 bytes each
    monkeypatch.setattr(coverage, "_SUB_BLOCK_BYTES", 8 * params.num_channels * params.num_bits * size)


class TestSimulateThreads:
    @pytest.mark.parametrize("workers", [1, 2, 5])
    @pytest.mark.parametrize("params, trials, digest", PINNED, ids=PINNED_IDS)
    def test_digest_independent_of_workers(self, monkeypatch, params, trials, digest, workers):
        _use_cpus(monkeypatch, workers)
        assert _digest(params, trials) == digest

    # nonuniform-m7 draws 42 per trial, so 7-trial sub-blocks start at
    # offsets of 2 mod 4 and discard half a Philox counter step
    @pytest.mark.parametrize("size", [1, 7])
    @pytest.mark.parametrize("params, trials, digest", PINNED, ids=PINNED_IDS)
    def test_digest_independent_of_sub_block(self, monkeypatch, params, trials, digest, size):
        _use_cpus(monkeypatch, 3)
        _use_sub_block(monkeypatch, params, size)
        assert _digest(params, trials) == digest

    def test_digest_holds_under_thread_switching(self, monkeypatch):
        params, trials, digest = PINNED[1]
        _use_cpus(monkeypatch, len(os.sched_getaffinity(0)) + 3)
        _use_sub_block(monkeypatch, params, 1)
        result = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=lambda: result.append(_digest(params, trials)), daemon=True)
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert result == [digest]

    def test_no_thread_outlives_the_call(self):
        before = threading.active_count()
        simulate_coverage(CoverageParams.equal_bits(alpha=0.3, num_channels=4, seed=8), trials=30_000)
        assert threading.active_count() == before

    def test_memory_bounded_by_sub_blocks(self, monkeypatch):
        # 262,144 draws per trial: each of 4 workers holds one trial's
        # float64 draws and bool mask, about 2.3 MiB
        _use_cpus(monkeypatch, 4)
        params = CoverageParams.equal_bits(alpha=0.3, num_channels=64, seed=9, num_bits=4096)
        tracemalloc.start()
        try:
            simulate_coverage(params, trials=32)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_memory_bounded_for_many_channels(self, monkeypatch):
        # one bit on 200 channels: a chunk's 20,000 x 201 fractions and their
        # squares would take 61 MiB; each of 2 workers holds 1 MiB of draws and
        # 1 MiB of padded bits, and 3 slots hold 1 MiB of rows each
        _use_cpus(monkeypatch, 2)
        params = CoverageParams.equal_bits(alpha=0.3, num_channels=200, seed=9, num_bits=1)
        tracemalloc.start()
        try:
            simulate_coverage(params, trials=20_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestMaskTable:
    @pytest.mark.parametrize("m", range(1, 17))
    def test_table_matches_per_bit_path(self, monkeypatch, m):
        rng = np.random.default_rng(100 + m)
        # trial counts past one 20,000-trial chunk and off every sub-block size
        cases = [(CoverageParams(m, tuple(rng.uniform(0.01, 0.5, m).tolist()), alpha, k_max,
                                 int(rng.integers(2**32))), 20_000 + int(rng.integers(1, 1000)))
                 for alpha in (0.07, 0.3, 0.61) for k_max in (0, 1, 2, 11)]
        built = []
        build = coverage._residual_table

        def counted_build(*args):
            built.append(args)
            return build(*args)

        monkeypatch.setattr(coverage, "_residual_table", counted_build)
        looked_up = [simulate_coverage(p, trials=t).to_csv() for p, t in cases]
        assert len(built) == len(cases)
        monkeypatch.setattr(coverage, "_TABLE_BITS", 0)
        per_bit = [simulate_coverage(p, trials=t).to_csv() for p, t in cases]
        assert len(built) == len(cases)
        assert looked_up == per_bit

    def test_seventeen_bits_take_the_per_bit_path(self, monkeypatch):
        def no_table(*args):
            raise AssertionError("a mask table was built for 17 bits")

        monkeypatch.setattr(coverage, "_residual_table", no_table)
        params = CoverageParams(17, tuple(np.linspace(0.01, 0.3, 17)), 0.3, 5, 23)
        assert _digest(params, 20_101) == "0deb3bf4cdd3a4d1d03cf221305103dcf5726529ac5971f79999f59476412771"


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
