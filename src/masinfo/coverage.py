"""Monte Carlo simulation of the independent evidence-bits coverage model.

M latent evidence bits jointly carry H(Y|X); each of K effective channels
reveals each still-hidden bit independently with probability alpha.  The
expected residual (uncovered) fraction after K channels is (1-alpha)**K,
bounded above by exp(-alpha*K).  The simulation draws each bit's first
revealing channel, Geometric(alpha), by inversion of one uniform.  It splits
the trials between threads, each reading its own span of one counter-based
Philox stream, and adds the per-chunk sums in chunk order, so the curve does
not depend on the number of threads.
"""

import csv
import io
import json
import math
import os
import threading
from dataclasses import dataclass

import numpy as np


class BadParams(ValueError):
    pass


class DegenerateCurve(ValueError):
    pass


DEFAULT_TRIALS = 100_000
_CHUNK_BYTES = 1 << 18  # bytes of each per-chunk buffer of simulate_coverage
# simulate_coverage's workers at most: each adds three chunk buffers and a
# thread, about 1 MiB of resident memory
_MAX_WORKERS = 2


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


def _usable_cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def simulate_coverage(params: CoverageParams, trials: int = DEFAULT_TRIALS) -> ContractionCurve:
    """Simulate residual fractions for K = 0 .. params.num_channels.

    A bit is still hidden after K channels iff its first revealing channel
    G ~ Geometric(alpha) exceeds K, so one uniform per (trial, bit) gives the
    whole curve: with V = 1 - U in (0, 1], G = floor(log V / log1p(-alpha)) + 1.
    One Philox stream keyed by the seed is read in order, trial t taking
    uniforms [t*m, (t+1)*m), so extending `trials` never reshuffles earlier
    trials.  Trials run in chunks whose buffers hold at most 256 KiB (or one
    trial) each.  The chunks are cut into contiguous spans, one per worker:
    as many workers as there are usable CPUs, but no more than the chunks or
    `_MAX_WORKERS`.  The calling thread runs the first span and one thread
    each of the others runs the rest.  A worker keys its own Philox, advances
    it to its span's first uniform, holds three chunk buffers, 768 KiB at
    most, and runs under the caller's numpy errstate.  Every chunk's column
    sums are added in chunk order, as one thread would add them, so the
    curve is the same to the bit for any number of workers.  The sums wait
    in a table until the earlier chunks are added; the spans run in rounds
    that bound it at 256 KiB (or one chunk's sums) per worker, whatever
    `trials`.  K = 0 hides every bit: mean 1.0, stderr 0.
    """
    if trials < 1:
        raise BadParams("trials must be >= 1")
    k_max = params.num_channels
    m = params.num_bits
    total = params.total_entropy
    if total <= 0:
        raise BadParams("total entropy must be positive")

    log_q = math.log1p(-params.alpha)
    width = k_max + 1  # bins per trial, for G - 1 = 0 .. k_max
    chunk = min(trials, max(1, _CHUNK_BYTES // (8 * max(m, width))))
    chunks = -(-trials // chunk)
    workers = min(_usable_cpus(), chunks, _MAX_WORKERS)
    per_round = workers * max(1, _CHUNK_BYTES // (16 * width))  # chunks a round sums
    weights = np.tile(np.array(params.bit_entropies, dtype=float) / total, chunk)
    first_bin = np.arange(chunk)[:, None] * width

    def run_span(start, rows):
        # rows[i] receives the sums of chunk start + i: of the fractions and of their squares
        rng = np.random.Generator(np.random.Philox(key=params.seed))
        draw = start * chunk * m
        # each Philox counter step makes 4 uniforms
        rng.bit_generator.advance(draw // 4)
        rng.random(draw % 4)
        log_v = np.empty(chunk * m)
        hidden = np.empty(chunk * m, dtype=np.intp)
        for i, row in enumerate(rows):
            b = min(chunk, trials - (start + i) * chunk)
            v = rng.random(out=log_v[:b * m])
            np.log1p(np.negative(v, out=v), out=v)
            # log V below (k_max + 1) * log_q means G > k_max anyway; raising it
            # there bounds the quotient, which overflows for alpha near 5e-324
            np.maximum(v, (k_max + 1) * log_q, out=v)
            np.divide(v, log_q, out=v)
            bins = hidden[:b * m].reshape(b, m)
            np.copyto(bins, v.reshape(b, m), casting="unsafe")  # G - 1 >= 0, so truncation floors
            np.minimum(bins, k_max, out=bins)
            np.add(bins, first_bin[:b], out=bins)
            res = np.bincount(bins.ravel(), weights=weights[:b * m], minlength=b * width).reshape(b, width)
            # column K sums the entropy fractions of the bits with G > K
            np.cumsum(res[:, ::-1], axis=1, out=res[:, ::-1])
            np.sum(res, axis=0, out=row[0])
            np.sum(np.square(res, out=res), axis=0, out=row[1])

    errstate = np.geterr()  # numpy keeps it per thread

    def run_caught(span, errors, i):
        try:
            with np.errstate(**errstate):
                run_span(*span)
        except BaseException as exc:  # re-raised on the calling thread
            errors[i] = exc

    sums = np.zeros((2, width))
    for first in range(0, chunks, per_round):
        table = np.empty((min(per_round, chunks - first), 2, width))
        cuts = [len(table) * w // workers for w in range(workers + 1)]
        spans = [(first + a, table[a:b]) for a, b in zip(cuts, cuts[1:]) if a < b]
        errors = [None] * len(spans)
        threads = [threading.Thread(target=run_caught, args=(spans[i], errors, i))
                   for i in range(1, len(spans))]
        try:
            for t in threads:
                t.start()
            run_span(*spans[0])
        finally:
            for t in threads:
                if t.ident is not None:
                    t.join()
        for exc in errors:
            if exc is not None:
                raise exc
        for row in table:
            sums += row

    mean, mean_sq = sums / trials
    mean[0] = mean_sq[0] = 1.0  # K = 0 hides every bit of every trial
    stderr = np.sqrt(np.maximum(mean_sq - mean * mean, 0.0) / trials)
    ks = tuple(range(k_max + 1))
    geo, expo = zip(*(analytic_bounds(params.alpha, k) for k in ks))
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
    if not 0.0 < alpha < 1.0:
        raise BadParams(f"alpha must lie in (0, 1), got {alpha}")
    # NaN fails every comparison, so test for what is allowed
    if not (math.isfinite(k) and k >= 0):
        raise BadParams(f"k must be finite and >= 0, got {k}")
    if not (math.isfinite(h_y_given_x) and h_y_given_x >= 0):
        raise BadParams(f"H(Y|X) must be finite and >= 0, got {h_y_given_x}")
    return h_y_given_x * (1.0 - math.exp(-alpha * k))


def compare_designs(a, b, h_y_given_x: float = 1.0):
    """Compare two (alpha, k) designs by their recovery lower bounds.

    The bound depends only on the product alpha*k, so the larger product
    wins; products equal within 1e-12 tie.

    Returns (lb_a, lb_b, winner) with winner in {"a", "b", "tie"}.
    """
    alpha_a, k_a = a
    alpha_b, k_b = b
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
