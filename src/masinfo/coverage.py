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
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np


class BadParams(ValueError):
    pass


class DegenerateCurve(ValueError):
    pass


DEFAULT_TRIALS = 100_000
_CHUNK = 20_000  # trials per ordered reduction step of simulate_coverage
_SUB_BLOCK_BYTES = 1 << 20  # bytes of float64 draws per worker pass of simulate_coverage
_TABLE_BITS = 16  # simulate_coverage looks up masks of at most this many bits
_TABLE_SLICE = 4096  # patterns per step of a residual table's build
# x * _GATHER >> 56 gathers the low bits of the 8 bytes of the uint64 x into one byte
_GATHER = np.uint64(0x0102040810204080)


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
        # NaN fails every comparison, so test for what is allowed
        if not all(math.isfinite(h) and h >= 0 for h in self.bit_entropies):
            raise BadParams(f"bit entropies must be finite and nonnegative, got {self.bit_entropies}")
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
    reshuffles earlier trials.  Trials are filled in sub-blocks of about
    1 MiB of draws (at least one trial) on a thread pool with one worker per
    usable CPU; a sub-block starting at draw `off` positions its own stream
    at Philox counter off // 4 and discards off % 4 draws.

    With m <= 16 bits a worker packs the hidden bits of each (trial,
    channel) into an m-bit mask, ANDs the masks over channels and reads the
    residual fraction from a table of all 2**m masks.  The table is built
    with the same row sum over bits that the per-bit path, taken for larger
    m, runs on every draw, so both give the same doubles.

    The calling thread adds each sub-block's rows, in trial order, onto
    running sums that restart every 20,000 trials: the same ordered sums as
    one sum over each 20,000-trial chunk.  The curve is therefore identical,
    bit for bit, for any CPU count and sub-block size, and memory is bounded
    by a few sub-blocks per worker, not by `trials` or `num_channels`.
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
    table = None
    width = m
    if m <= _TABLE_BITS:
        width = 8 * -(-m // 8)  # _pack takes whole bytes of bits
        table = _residual_table(h, total, width)
    local = threading.local()

    def fill(rows, first):
        # rows[i] gets the residual fractions, K = 1 .. k_max, of trial first + i
        b = len(rows)
        if not hasattr(local, "draws"):
            local.draws = np.empty((block, k_max, m))
            local.hidden = np.zeros((block, k_max, width), dtype=bool)  # padding stays False
        draws, hidden = local.draws[:b], local.hidden[:b]
        off = first * per_trial
        bitgen = np.random.Philox(key=params.seed, counter=off // 4)  # 4 draws per counter step
        bitgen.random_raw(off % 4)
        np.random.Generator(bitgen).random(out=draws)
        np.greater_equal(draws, params.alpha, out=hidden[..., :m])
        # bit j stays hidden after channel k iff channels 1..k all miss it
        if table is None:
            for k in range(1, k_max):
                np.logical_and(hidden[:, k - 1], hidden[:, k], out=hidden[:, k])
            np.multiply(hidden, h, out=draws)
            np.sum(draws, axis=2, out=rows)
            rows /= total
        else:
            # the draws are spent, so their buffer holds the masks
            masks = local.draws.reshape(-1)[:b * k_max].view(np.uint64).reshape(b, k_max)
            _pack(hidden, masks)
            np.bitwise_and.accumulate(masks, axis=1, out=masks)
            # every mask indexes the table; "clip" spares a bounds check and a copy of rows
            np.take(table, masks.view(np.int64), out=rows, mode="clip")

    workers = min(len(os.sched_getaffinity(0)), -(-min(_CHUNK, trials) // block))
    # numpy sums a C-contiguous array over axis 0 row after row when it has
    # two or more columns, but a single column pairwise
    cols = max(k_max, 2)
    # one slot more than workers keeps a sub-block queued while the oldest is added
    slots = np.zeros((workers + 1, block + 1, cols))
    chunk = np.zeros((2, cols))  # running sums of the fractions and of their squares
    sums = np.zeros((2, cols))
    pending = deque()

    def add_oldest():
        future, rows, last = pending.popleft()
        future.result()
        # row 0 carries the running sum, so the axis-0 sum continues it in trial order
        rows[0] = chunk[0]
        np.sum(rows, axis=0, out=chunk[0])
        np.multiply(rows[1:], rows[1:], out=rows[1:])
        rows[0] = chunk[1]
        np.sum(rows, axis=0, out=chunk[1])
        if last:
            np.add(sums, chunk, out=sums)
            chunk[:] = 0.0

    with ThreadPoolExecutor(max_workers=workers) as pool:
        n = 0
        for first in range(0, trials, _CHUNK):
            t = min(_CHUNK, trials - first)
            for lo in range(0, t, block):
                if len(pending) == len(slots):
                    add_oldest()
                b = min(block, t - lo)
                rows = slots[n % len(slots), :b + 1]
                n += 1
                pending.append((pool.submit(fill, rows[1:, :k_max], first + lo), rows, lo + b == t))
        while pending:
            add_oldest()

    # K = 0 hides every bit of every trial
    sum_frac = np.concatenate(([trials], sums[0, :k_max]))
    sum_frac_sq = np.concatenate(([trials], sums[1, :k_max]))
    mean = sum_frac / trials
    var = np.maximum(sum_frac_sq / trials - mean * mean, 0.0)
    stderr = np.sqrt(var / trials)
    ks = tuple(range(k_max + 1))
    geo = tuple((1.0 - params.alpha) ** k for k in ks)
    expo = tuple(math.exp(-params.alpha * k) for k in ks)
    return ContractionCurve(ks, tuple(mean.tolist()), tuple(stderr.tolist()), geo, expo, trials)


def _pack(bits, out):
    """Pack the last axis of `bits` (8 or 16 bools, C-contiguous) into the uint64 `out`."""
    words = bits.view(np.uint64)
    np.multiply(words[..., 0], _GATHER, out=out)
    out >>= 56
    if words.shape[-1] == 2:
        high = words[..., 1] * _GATHER
        high >>= 56
        high <<= 8
        out |= high


def _residual_table(h, total, width):
    """Residual fraction of every pattern of hidden bits, at the index `_pack` gives it."""
    m = len(h)
    table = np.empty(1 << width)  # only the indices of packed patterns are read
    for lo in range(0, 1 << m, _TABLE_SLICE):
        patterns = np.arange(lo, min(lo + _TABLE_SLICE, 1 << m))
        bits = np.zeros((len(patterns), width), dtype=bool)
        bits[:, :m] = (patterns[:, None] >> np.arange(m)) & 1
        index = np.empty(len(patterns), dtype=np.uint64)
        _pack(bits, index)
        # the per-bit path's arithmetic: products, a row sum over bits, one division
        table[index] = np.multiply(bits[:, :m], h).sum(axis=1) / total
    return table


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
    for k, f in pts:
        if not (math.isfinite(k) and math.isfinite(f)):
            raise DegenerateCurve(f"k and fraction must be finite, got ({k!r}, {f!r})")
        if k < 0:
            raise DegenerateCurve(f"k counts channels and must be >= 0, got {k!r}")
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
