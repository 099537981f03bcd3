"""Effective channel count K* from agent-output embeddings.

Pipeline: unit-normalize the embeddings, form the cosine-similarity Gram
matrix G, trace-normalize to rho = G / Tr(G), and take the entropy effective
rank K* = 2**H(rho) with H(rho) = -sum(lambda_j * log2(lambda_j)).

K* counts independent directions spanned by the outputs: 1 when all outputs
are collinear, n when they are pairwise orthogonal.
"""

import json
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
    """n unit-normalized d-dimensional rows with aligned source ids."""

    vectors: np.ndarray
    source_ids: tuple = ()

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError("vectors must be a nonempty 2-D array")
        norms = np.linalg.norm(v, axis=1)
        bad = np.flatnonzero(norms < ZERO_NORM_TOL)
        if bad.size:
            raise ZeroNormVector(int(bad[0]))
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("rows must be unit-normalized; use normalize_embeddings")
        object.__setattr__(self, "vectors", v)
        ids = tuple(self.source_ids) if self.source_ids else tuple(
            str(i) for i in range(v.shape[0])
        )
        if len(ids) != v.shape[0]:
            raise ValueError("source_ids length must match row count")
        object.__setattr__(self, "source_ids", ids)
        self.vectors.setflags(write=False)

    @property
    def n(self):
        return self.vectors.shape[0]

    @property
    def dim(self):
        return self.vectors.shape[1]

    def subset(self, mask):
        mask = np.asarray(mask, dtype=bool)
        ids = tuple(i for i, keep in zip(self.source_ids, mask) if keep)
        return EmbeddingSet(self.vectors[mask].copy(), ids)


@dataclass(frozen=True)
class SpectralSummary:
    """Spectrum of rho = G/Tr(G), its entropy in bits, and K* = 2**entropy."""

    eigenvalues: tuple
    entropy_bits: float
    k_star: float

    def to_json(self):
        return json.dumps(
            {
                "eigenvalues": list(self.eigenvalues),
                "entropy_bits": self.entropy_bits,
                "k_star": self.k_star,
            }
        )


@dataclass(frozen=True)
class RedundancyScore:
    """Mean pairwise cosine similarity over the n(n-1)/2 row pairs."""

    mean_pairwise_cosine: float
    pair_count: int


def normalize_embeddings(raw, source_ids=None):
    """Scale each raw vector to unit Euclidean norm, preserving row order.

    Raises ZeroNormVector for rows with norm below 1e-12.
    """
    v = np.asarray(raw, dtype=float)
    if v.ndim != 2 or v.shape[0] < 1:
        raise ValueError("need at least one vector")
    norms = np.linalg.norm(v, axis=1)
    bad = np.flatnonzero(norms < ZERO_NORM_TOL)
    if bad.size:
        raise ZeroNormVector(int(bad[0]))
    unit = v / norms[:, None]
    return EmbeddingSet(unit, tuple(source_ids) if source_ids else ())


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
    g = emb.vectors @ emb.vectors.T
    g = 0.5 * (g + g.T)
    np.fill_diagonal(g, 1.0)
    # unit rows: Tr(G) = n exactly
    eigs = symmetric_eigenvalues(g) / emb.n
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

    def side(m):
        if not m.any():
            return None
        return k_star(emb.subset(m)).k_star

    return side(mask), side(~mask)


def mean_pairwise_cosine(emb: EmbeddingSet) -> RedundancyScore:
    """Average off-diagonal cosine: (2 / n(n-1)) * sum_{i<j} <z_i, z_j>.

    For unit rows ||sum_i z_i||^2 = n + 2 * sum_{i<j} <z_i, z_j>, so the mean
    takes O(nd) work and no n x n matrix.
    """
    n = emb.n
    if n < 2:
        raise TooFewRows("mean pairwise cosine needs at least 2 rows")
    s = emb.vectors.sum(axis=0)
    return RedundancyScore(float((s @ s - n) / (n * (n - 1))), n * (n - 1) // 2)


def load_embeddings_jsonl(path):
    """Read one {"id": str, "vector": [...]} object per line; returns (ids, raw rows).

    Each vector must be a flat list of finite numbers: `null`, `NaN`,
    `Infinity`, a literal that overflows a double (`1e400`) or a nested list
    is rejected.  Raises ValueError naming the offending line number on
    malformed input.
    """
    # imported here, so processes that never read embeddings do not load it
    import orjson

    ids, rows = [], []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = orjson.loads(line)
                ids.append(str(obj["id"]))
                vec = np.array(obj["vector"], dtype=float)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"malformed embedding row at line {lineno}: {exc}") from exc
            if vec.ndim != 1 or not np.isfinite(vec).all():
                raise ValueError(f"malformed embedding row at line {lineno}: "
                                 "vector must be a flat list of finite numbers")
            rows.append(vec)
    if not rows:
        raise ValueError("embedding file is empty")
    dims = {len(r) for r in rows}
    if len(dims) != 1:
        raise ValueError(f"inconsistent vector dimensions: {sorted(dims)}")
    return ids, np.stack(rows)
