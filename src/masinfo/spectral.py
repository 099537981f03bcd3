"""Effective channel count K* from agent-output embeddings.

Pipeline: unit-normalize the embeddings, form the cosine-similarity Gram
matrix G, trace-normalize to rho = G / Tr(G), and take the entropy effective
rank K* = 2**H(rho) with H(rho) = -sum(lambda_j * log2(lambda_j)).

K* counts independent directions spanned by the outputs: 1 when all outputs
are collinear, n when they are pairwise orthogonal.  load_embeddings_jsonl
reads the rows `kstar` takes; run directories are masinfo.store's.
"""

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from masinfo.info_theory import _entropy_bits

ZERO_NORM_TOL = 1e-12
EIG_CLIP_TOL = 1e-10


class ZeroNormVector(ValueError):
    def __init__(self, index):
        self.index = index
        super().__init__(f"embedding row {index} has norm < {ZERO_NORM_TOL}")


class TooFewRows(ValueError):
    pass


@dataclass(frozen=True)
class EmbeddingSet:
    """A copy of n d-dimensional rows, each scaled to unit norm, in the order given.

    Raises ZeroNormVector for the first row with norm below 1e-12.
    """

    vectors: np.ndarray

    def __post_init__(self):
        v = np.array(self.vectors, dtype=float)
        _normalize_rows(v)
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @property
    def n(self):
        return self.vectors.shape[0]


def _normalize_rows(v):
    """Scale each row of the writable float64 array `v` to unit norm, in place.

    Each norm is np.linalg.norm(v, axis=1)'s sqrt(add.reduce(row * row)).
    Raises ZeroNormVector for the first row with norm below 1e-12, and
    ValueError unless `v` is 2-D with a row and a column.
    """
    if v.ndim != 2 or 0 in v.shape:
        raise ValueError("vectors must be a nonempty 2-D array")
    with np.errstate(over="ignore"):  # an overflowing row is rescaled below
        norms = np.sqrt(np.add.reduce(v * v, axis=1))
    bad = np.flatnonzero(norms < ZERO_NORM_TOL)
    if bad.size:
        raise ZeroNormVector(int(bad[0]))
    huge = np.isinf(norms)  # finite rows whose squares overflow, such as [1e308, 1e308]
    if huge.any():
        v[huge] /= np.abs(v[huge]).max(axis=1, keepdims=True)
        norms[huge] = np.linalg.norm(v[huge], axis=1)
    v /= norms[:, None]


@dataclass(frozen=True)
class SpectralSummary:
    """Spectrum of rho = G/Tr(G), its entropy in bits, and K* = 2**entropy."""

    eigenvalues: tuple
    entropy_bits: float
    k_star: float


@dataclass(frozen=True)
class RedundancyScore:
    """Mean pairwise cosine similarity over the n(n-1)/2 row pairs."""

    mean_pairwise_cosine: float
    pair_count: int


def symmetric_eigenvalues(matrix):
    """Eigenvalues of a square symmetric array, descending (LAPACK eigvalsh)."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.allclose(a, a.T, atol=1e-10):
        raise ValueError("matrix must be symmetric")
    return np.linalg.eigvalsh(a)[::-1]


def k_star(emb: EmbeddingSet) -> SpectralSummary:
    """Entropy effective rank of the trace-normalized Gram spectrum.

    Eigenvalues of rho in [-1e-10, 0) are clipped to 0 (Gram matrices are
    PSD in exact arithmetic); anything more negative means corrupted input.
    0*log(0) is taken as 0.
    """
    return _spectrum(_unit_gram(emb.vectors))


def _unit_gram(rows):
    """G = Z Z^T of the unit rows Z, its diagonal set to exactly 1."""
    # exactly symmetric: numpy computes a matrix times its transpose with BLAS
    # syrk, and every principal submatrix of G is then exactly symmetric too
    g = rows @ rows.T
    np.fill_diagonal(g, 1.0)
    return g


def _spectrum(g):
    """k_star of the unit rows whose Gram is `g`, which is not checked again.

    `g` must be exactly symmetric with a unit diagonal, as _unit_gram's
    result and its principal submatrices are; eigvalsh reads one triangle.
    """
    # unit rows: Tr(G) = n exactly
    eigs = np.linalg.eigvalsh(g)[::-1] / len(g)
    if np.any(eigs < -EIG_CLIP_TOL):
        raise ValueError(f"eigenvalue {eigs.min():.3e} below -{EIG_CLIP_TOL}; Gram not PSD")
    eigs = np.clip(eigs, 0.0, None)
    h = _entropy_bits(eigs)
    return SpectralSummary(tuple(eigs.tolist()), h, float(2.0 ** h))


def k_star_conditioned(emb: EmbeddingSet, correct_mask):
    """K* over the correct-answer rows and over the wrong-answer rows.

    Returns (k_star_c, k_star_w); a side is None when its subset is empty
    (never 0 or NaN, so downstream ratios can skip it explicitly).  A
    singleton subset gives K* = 1.
    """
    mask = np.asarray(correct_mask, dtype=bool)
    if mask.shape != (emb.n,):
        raise ValueError("mask length must equal row count")
    return _sides(_unit_gram(emb.vectors), mask)


def _sides(g, mask):
    """(K*_c, K*_w) from the principal submatrices of the unit-row Gram `g`.

    The first side takes the rows where the boolean `mask` holds, the second
    the others; an empty side is None.
    """

    def side(m):
        return _spectrum(g[m][:, m]).k_star if m.any() else None

    return side(mask), side(~mask)


def mean_pairwise_cosine(emb: EmbeddingSet) -> RedundancyScore:
    """Average off-diagonal cosine: (2 / n(n-1)) * sum_{i<j} <z_i, z_j>.

    For unit rows ||sum_i z_i||^2 = n + 2 * sum_{i<j} <z_i, z_j>, so the mean
    takes O(nd) work and no n x n matrix.
    """
    n = emb.n
    if n < 2:
        raise TooFewRows("mean pairwise cosine needs at least 2 rows")
    return RedundancyScore(_mean_cosine(emb.vectors), n * (n - 1) // 2)


def _mean_cosine(rows):
    """mean_pairwise_cosine's mean of two or more unit rows."""
    n = len(rows)
    s = rows.sum(axis=0)
    return float((s @ s - n) / (n * (n - 1)))


def is_finite_number_list(v):
    """Whether `v` is an embedding row: a flat list of finite ints and floats.

    The one rule for rows, read by load_embeddings_jsonl or fetched from a
    backend.  A bool is no coordinate, though it is an int subclass.
    """
    if type(v) is not list or not set(map(type, v)) <= {float, int}:
        return False
    try:
        # finite unless a term is not or the terms overflow it; the float
        # start converts each int, raising for one beyond the double range
        return math.isfinite(sum(v, 0.0)) or all(map(math.isfinite, v))
    except OverflowError:
        return False


def load_embeddings_jsonl(path, keys=False):
    """Read one {"id": str, "vector": [...]} object per line; returns (ids, raw rows).

    A row may also name the agent count "n" of its transcript, an integer.
    With `keys`, such a row's id is returned as its key (n, id); without,
    the field is not read.

    Each vector must pass is_finite_number_list: `null`, `NaN`, `Infinity`,
    a literal that overflows a double (`1e400`), a boolean, a string or a
    nested list is rejected.  Raises ValueError naming the offending line
    number on malformed input.  `path` may also be a binary file open for
    reading, which is read from where it stands and left open.
    """
    # imported here, so processes that never read embeddings do not load it
    import orjson

    ids, rows = [], []
    with contextlib.nullcontext(path) if hasattr(path, "read") else open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = orjson.loads(line)
                row_id, vec = str(obj["id"]), obj["vector"]
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"malformed embedding row at line {lineno}: {exc}") from exc
            if keys and "n" in obj:
                if type(obj["n"]) is not int:
                    raise ValueError(f"malformed embedding row at line {lineno}: "
                                     "n must be an integer")
                row_id = (obj["n"], row_id)
            ids.append(row_id)
            if not is_finite_number_list(vec):
                raise ValueError(f"malformed embedding row at line {lineno}: "
                                 "vector must be a flat list of finite numbers")
            rows.append(np.array(vec, dtype=float))
    if not rows:
        raise ValueError("embedding file is empty")
    dims = {len(r) for r in rows}
    if len(dims) != 1:
        raise ValueError(f"inconsistent vector dimensions: {sorted(dims)}")
    return ids, np.stack(rows)

