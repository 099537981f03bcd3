"""Monte Carlo simulation of the independent evidence-bits coverage model.

M latent evidence bits jointly carry H(Y|X); each of K effective channels
reveals each still-hidden bit independently with probability alpha.  The
expected residual (uncovered) fraction after K channels is (1-alpha)**K,
bounded above by exp(-alpha*K).
"""

import csv
import io
import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np


class BadParams(ValueError):
    pass


class DegenerateCurve(ValueError):
    pass


DEFAULT_TRIALS = 100_000
_CHUNK = 20_000  # trials per ordered reduction step of simulate_coverage
_SUB_BLOCK_BYTES = 1 << 20  # bytes of float64 draws per worker pass of simulate_coverage


@dataclass(frozen=True)
class CoverageParams:
    """M evidence bits with per-bit entropies, coverage rate alpha, K channels."""

    num_bits: int
    bit_entropies: tuple
    alpha: float
    num_channels: int
    seed: int

    def __post_init__(self):
        if self.num_bits < 1 or len(self.bit_entropies) != self.num_bits:
            raise BadParams("bit_entropies must have num_bits entries, num_bits >= 1")
        if any(h < 0 for h in self.bit_entropies):
            raise BadParams("bit entropies must be nonnegative")
        if not 0.0 < self.alpha < 1.0:
            raise BadParams(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.num_channels < 0:
            raise BadParams("num_channels must be >= 0")
        # the Philox key is an unsigned 128-bit integer
        if not 0 <= self.seed < 2**128:
            raise BadParams(f"seed must lie in [0, 2**128), got {self.seed}")

    @property
    def total_entropy(self):
        # equals H(Y|X) under the matching-uncertainty-scale assumption
        return float(sum(self.bit_entropies))

    @classmethod
    def equal_bits(cls, alpha, num_channels, seed, num_bits=16, total_entropy=1.0):
        if num_bits < 1:
            raise BadParams(f"num_bits must be >= 1, got {num_bits}")
        h = total_entropy / num_bits
        return cls(num_bits, (h,) * num_bits, alpha, num_channels, seed)


@dataclass(frozen=True)
class ContractionCurve:
    """Mean residual entropy fraction per K with Monte Carlo error and bounds."""

    k_values: tuple
    mean_residual_fraction: tuple
    stderr: tuple
    bound_fraction: tuple
    exp_bound_fraction: tuple
    trials: int

    def rows(self):
        return list(
            zip(
                self.k_values,
                self.mean_residual_fraction,
                self.stderr,
                self.bound_fraction,
                self.exp_bound_fraction,
            )
        )

    def to_csv(self):
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["k", "mean_residual_fraction", "stderr", "geo_bound", "exp_bound"])
        for row in self.rows():
            w.writerow([row[0]] + [repr(v) for v in row[1:]])
        return buf.getvalue()

    def to_json(self):
        return json.dumps(
            {
                "k_values": list(self.k_values),
                "mean_residual_fraction": list(self.mean_residual_fraction),
                "stderr": list(self.stderr),
                "geo_bound": list(self.bound_fraction),
                "exp_bound": list(self.exp_bound_fraction),
                "trials": self.trials,
            }
        )


def simulate_coverage(params: CoverageParams, trials: int = DEFAULT_TRIALS) -> ContractionCurve:
    """Simulate residual fractions for K = 0 .. params.num_channels.

    Counter-based Philox stream keyed by the seed; trial t consumes draws
    [t*k_max*m, (t+1)*k_max*m) in order, so extending `trials` never
    reshuffles earlier trials.  Trials are reduced in chunks of 20,000 by an
    ordered sum over trial index on the calling thread.  Each chunk's
    per-trial fractions are filled in sub-blocks of about 1 MiB of draws
    (at least one trial) on a thread pool with one worker per usable CPU;
    a sub-block starting at draw `off` positions its own stream at Philox
    counter off // 4 and discards off % 4 draws, and writes only its own
    rows.  The curve is therefore identical, bit for bit, for any CPU count
    and sub-block size; memory is bounded by the sub-blocks and the chunk,
    not by `trials`.
    """
    if trials < 1:
        raise BadParams("trials must be >= 1")
    k_max = params.num_channels
    m = params.num_bits
    h = np.array(params.bit_entropies, dtype=float)
    total = params.total_entropy
    if total <= 0:
        raise BadParams("total entropy must be positive")

    per_trial = k_max * m
    block = min(max(1, _SUB_BLOCK_BYTES // (8 * max(per_trial, 1))), _CHUNK, trials)
    frac = np.ones((min(_CHUNK, trials), k_max + 1))  # column 0: K = 0 hides everything
    local = threading.local()

    def fill(first, t, lo):
        # rows lo .. lo+b of frac hold trials first+lo .. first+lo+b
        b = min(block, t - lo)
        if not hasattr(local, "draws"):
            local.draws = np.empty((block, k_max, m))
            local.hidden = np.empty((block, k_max, m), dtype=bool)
        draws, hidden = local.draws[:b], local.hidden[:b]
        off = (first + lo) * per_trial
        bitgen = np.random.Philox(key=params.seed, counter=off // 4)  # 4 draws per counter step
        bitgen.random_raw(off % 4)
        np.random.Generator(bitgen).random(out=draws)
        # bit j stays hidden after channel k iff channels 1..k all miss it
        np.greater_equal(draws, params.alpha, out=hidden)
        for k in range(1, k_max):
            np.logical_and(hidden[:, k - 1], hidden[:, k], out=hidden[:, k])
        np.multiply(hidden, h, out=draws)
        rows = frac[lo:lo + b, 1:]
        np.sum(draws, axis=2, out=rows)
        rows /= total

    sum_frac = np.zeros(k_max + 1)
    sum_frac_sq = np.zeros(k_max + 1)
    workers = min(len(os.sched_getaffinity(0)), -(-len(frac) // block))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for first in range(0, trials, _CHUNK):
            t = min(_CHUNK, trials - first)
            list(pool.map(partial(fill, first, t), range(0, t, block)))
            sum_frac += frac[:t].sum(axis=0)
            sum_frac_sq += (frac[:t] * frac[:t]).sum(axis=0)

    mean = sum_frac / trials
    var = np.maximum(sum_frac_sq / trials - mean * mean, 0.0)
    stderr = np.sqrt(var / trials)
    ks = tuple(range(k_max + 1))
    geo = tuple((1.0 - params.alpha) ** k for k in ks)
    expo = tuple(math.exp(-params.alpha * k) for k in ks)
    return ContractionCurve(ks, tuple(mean.tolist()), tuple(stderr.tolist()), geo, expo, trials)


def analytic_bounds(alpha: float, k: int):
    """((1-alpha)**k, exp(-alpha*k)); the geometric bound never exceeds the exponential."""
    if not 0.0 < alpha < 1.0:
        raise BadParams(f"alpha must lie in (0, 1), got {alpha}")
    if k < 0:
        raise BadParams("k must be >= 0")
    return (1.0 - alpha) ** k, math.exp(-alpha * k)


def marginal_gain(alpha: float, k: int) -> float:
    """Recovered-information gain of the (k+1)-th channel: (1 - e^-alpha) * e^(-alpha k)."""
    if not 0.0 < alpha < 1.0:
        raise BadParams(f"alpha must lie in (0, 1), got {alpha}")
    if k < 0:
        raise BadParams("k must be >= 0")
    return (1.0 - math.exp(-alpha)) * math.exp(-alpha * k)


def recovered_lower_bound(alpha: float, k: float, h_y_given_x: float = 1.0) -> float:
    """H(Y|X) * (1 - e^(-alpha*k)), the saturating information-recovery guarantee."""
    return h_y_given_x * (1.0 - math.exp(-alpha * k))


def compare_designs(a, b, h_y_given_x: float = 1.0):
    """Compare two (alpha, k) designs by their recovery lower bounds.

    The bound depends only on the product alpha*k, so the larger product
    wins; products equal within 1e-12 tie.

    Returns (lb_a, lb_b, winner) with winner in {"a", "b", "tie"}.
    """
    alpha_a, k_a = a
    alpha_b, k_b = b
    for alpha, k in (a, b):
        if not 0.0 < alpha < 1.0:
            raise BadParams(f"alpha must lie in (0, 1), got {alpha}")
        if k < 0:
            raise BadParams("k must be >= 0")
    lb_a = recovered_lower_bound(alpha_a, k_a, h_y_given_x)
    lb_b = recovered_lower_bound(alpha_b, k_b, h_y_given_x)
    pa, pb = alpha_a * k_a, alpha_b * k_b
    if abs(pa - pb) <= 1e-12:
        winner = "tie"
    else:
        winner = "a" if pa > pb else "b"
    return lb_a, lb_b, winner


def fit_alpha(curve):
    """Least-squares fit of alpha in f(k) = 1 - e^(-alpha*k) to (k, fraction) points.

    Log-spaced coarse grid followed by golden-section refinement; fully
    deterministic for a fixed input.  Returns (alpha_hat, rss).
    """
    pts = [(float(k), float(f)) for k, f in curve]
    if len(pts) < 2:
        raise DegenerateCurve("need at least 2 points")
    ks = np.array([p[0] for p in pts])
    fs = np.array([p[1] for p in pts])
    if len(set(ks.tolist())) != len(ks):
        raise DegenerateCurve("k values must be distinct")
    if np.any(fs < -1e-12) or np.any(fs > 1.0 + 1e-12):
        raise DegenerateCurve("fractions must lie in [0, 1]")
    if np.allclose(fs, fs[0]):
        raise DegenerateCurve("flat curve carries no rate information")

    def rss(a):
        r = fs - (1.0 - np.exp(-a * ks))
        return float(np.dot(r, r))

    grid = np.logspace(-4, 2, 400)
    best_i = int(np.argmin([rss(a) for a in grid]))
    lo = grid[max(best_i - 1, 0)]
    hi = grid[min(best_i + 1, len(grid) - 1)]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = rss(x1), rss(x2)
    for _ in range(200):
        if hi - lo < 1e-12:
            break
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = rss(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = rss(x2)
    alpha_hat = 0.5 * (lo + hi)
    return float(alpha_hat), rss(alpha_hat)
