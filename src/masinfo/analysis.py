"""Measurement tables from transcript stores.

Turns persisted Vote/Debate transcripts plus embeddings into per-config
summaries (accuracy, K*, K*_c/K*_w, mean cosine), marginal-gain curves,
rank correlations, permutation sanity checks, incremental-R^2 regressions,
agents-to-match efficiency tables, and the correct/wrong-dominant boundary
classification; `report_bundle` renders all of them as the `analyze` report
files.
"""

import csv
import io
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from masinfo.harness import LAYERS
from masinfo.spectral import (
    normalize_embeddings,
    k_star,
    k_star_conditioned,
    mean_pairwise_cosine,
)


class MissingEmbeddings(KeyError):
    def __init__(self, task_id):
        self.task_id = task_id
        super().__init__(f"no embeddings for task {task_id}")


class NeedTwoPoints(ValueError):
    pass


class DegenerateInput(ValueError):
    pass


class SingularDesign(ValueError):
    pass


class EmptySeries(ValueError):
    pass


@dataclass(frozen=True)
class RunSummary:
    dataset: str
    layer: str
    workflow: str
    n_agents: int
    accuracy: float
    k_star: float
    k_star_c: float
    k_star_w: float
    mean_cosine: float
    task_count: int
    mode: str = "per-question"

    @property
    def config_label(self):
        return f"{self.dataset}/{self.workflow}/{self.layer}/N{self.n_agents}"


def _mean_or_none(values):
    values = [v for v in values if v is not None]
    return float(np.mean(values)) if values else None


def _transcript_embeddings(transcript, embeddings):
    ids = transcript.embedding_ids()
    try:
        rows = [embeddings[i] for i in ids]
    except KeyError:
        raise MissingEmbeddings(transcript.task_id) from None
    return normalize_embeddings(rows, ids)


def _correct_mask(t):
    """Per call of transcript `t`: did that call extract the gold answer?"""
    return [c["extracted_answer"] is not None and c["extracted_answer"] == t.gold_answer
            for c in t.calls]


def _spectral_columns(emb, mask):
    """(K*, K*_c, K*_w, mean cosine) of one embedding set; no cosine below 2 rows."""
    c, w = k_star_conditioned(emb, mask)
    cos = mean_pairwise_cosine(emb).mean_pairwise_cosine if emb.n >= 2 else None
    return k_star(emb).k_star, c, w, cos


def summarize_runs(transcripts, embeddings=None, mode="per-question"):
    """One RunSummary per (dataset, layer, workflow, N) group.

    `embeddings` maps "<task_id>:<call_index>" to a raw vector; when None,
    the spectral columns are None and only accuracy is reported.  Ids are
    only unique within one store, so for transcripts merged from several
    stores pass a list instead, aligned with `transcripts`, holding the
    mapping of the store each transcript came from (an empty one for a
    store without embeddings, whose transcripts raise MissingEmbeddings).
    Mode "per-question" computes K* per task then averages; "pooled" stacks
    all call embeddings of the group into one set.
    """
    if mode not in ("per-question", "pooled"):
        raise ValueError("mode must be 'per-question' or 'pooled'")
    if isinstance(embeddings, list):
        pairs = zip(transcripts, embeddings, strict=True)
    else:
        pairs = ((t, embeddings) for t in transcripts)
    groups = {}
    for t, lookup in pairs:
        if t.invalid:
            continue
        groups.setdefault((t.dataset, t.layer, t.workflow, t.n_agents), []).append((t, lookup))

    summaries = []
    for (dataset, layer, workflow, n), members in sorted(groups.items()):
        ts = [t for t, _ in members]
        correct = sum(1 for t in ts if t.final_answer is not None and t.final_answer == t.gold_answer)
        acc = correct / len(ts)
        ks = ks_c = ks_w = cos = None
        if embeddings is not None:
            if mode == "per-question":
                per_task = [_spectral_columns(_transcript_embeddings(t, lookup), _correct_mask(t))
                            for t, lookup in members]
                ks, ks_c, ks_w, cos = (_mean_or_none(col) for col in zip(*per_task))
            else:
                embs = [_transcript_embeddings(t, lookup) for t, lookup in members]
                pooled = normalize_embeddings(np.vstack([e.vectors for e in embs]))
                ks, ks_c, ks_w, cos = _spectral_columns(
                    pooled, [m for t in ts for m in _correct_mask(t)])
        summaries.append(
            RunSummary(dataset, layer, workflow, n, acc, ks, ks_c, ks_w, cos, len(ts), mode)
        )
    return summaries


def marginal_gains(series):
    """Per-agent accuracy deltas [(n_{i+1}, (acc_{i+1}-acc_i)/(n_{i+1}-n_i)), ...]."""
    pts = [(int(n), float(a)) for n, a in series]
    if len(pts) < 2:
        raise NeedTwoPoints("need at least two (n, accuracy) points")
    if any(b[0] <= a[0] for a, b in zip(pts, pts[1:])):
        raise ValueError("n must be strictly increasing")
    return [
        (b[0], (b[1] - a[1]) / (b[0] - a[0]))
        for a, b in zip(pts, pts[1:])
    ]


def pearson_r(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 3:
        raise DegenerateInput("need equal-length 1-D arrays with >= 3 points")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(np.dot(xc, xc)) * float(np.dot(yc, yc)))
    if denom == 0.0:
        raise DegenerateInput("zero variance")
    return float(np.clip(np.dot(xc, yc) / denom, -1.0, 1.0))


def _ranks(x):
    """Average ranks (1-based), ties sharing the mean of their positions."""
    x = np.asarray(x, dtype=float)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x))
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman_rho(x, y):
    """Pearson correlation of average ranks."""
    if len(x) != len(y) or len(x) < 3:
        raise DegenerateInput("need equal-length arrays with >= 3 points")
    return pearson_r(_ranks(x), _ranks(y))


@dataclass(frozen=True)
class PermutationReport:
    observed_r: float
    null_mean: float
    null_std: float
    z_score: float
    p_value: float
    shuffles: int
    seed: int


def permutation_test(x, y, shuffles=1000, seed=0):
    """Null distribution of Pearson r under random reshuffling of y.

    p uses the add-one rule (b+1)/(m+1), so it never reports exactly 0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) != len(y) or len(x) < 5:
        raise DegenerateInput("need equal-length arrays with >= 5 points")
    if shuffles < 1:
        raise DegenerateInput("shuffles must be >= 1")
    observed = pearson_r(x, y)
    rng = np.random.default_rng(seed)
    null = np.empty(shuffles)
    for i in range(shuffles):
        null[i] = pearson_r(x, rng.permutation(y))
    null_mean = float(null.mean())
    null_std = float(null.std())
    if null_std == 0.0:
        raise DegenerateInput("degenerate null distribution")
    exceed = int(np.sum(np.abs(null) >= abs(observed)))
    return PermutationReport(
        observed_r=observed,
        null_mean=null_mean,
        null_std=null_std,
        z_score=(observed - null_mean) / null_std,
        p_value=(exceed + 1) / (shuffles + 1),
        shuffles=shuffles,
        seed=seed,
    )


@dataclass(frozen=True)
class RegressionReport:
    r2_baseline: float
    r2_augmented: float
    delta_r2: float
    coefficients: tuple  # (name, value) pairs for the augmented fit
    n_obs: int


def _ols_fit(design, target):
    gram = design.T @ design
    gram[np.diag_indices_from(gram)] += 1e-10  # ridge jitter for near-singular designs
    try:
        beta = np.linalg.solve(gram, design.T @ target)
    except np.linalg.LinAlgError as exc:
        raise SingularDesign(str(exc)) from exc
    if not np.all(np.isfinite(beta)):
        raise SingularDesign("non-finite coefficients")
    resid = target - design @ beta
    return beta, float(np.dot(resid, resid))


def ols_incremental_r2(features_base, features_extra, target, names=None):
    """R^2 of target ~ base vs target ~ base + extra, via normal equations.

    Both fits include an intercept and run on the same observations.
    """
    x0 = np.atleast_2d(np.asarray(features_base, dtype=float))
    x1 = np.atleast_2d(np.asarray(features_extra, dtype=float))
    y = np.asarray(target, dtype=float)
    if x0.shape[0] != len(y) or x1.shape[0] != len(y):
        raise ValueError("feature rows must match target length")
    n = len(y)
    p_aug = 1 + x0.shape[1] + x1.shape[1]
    if n < p_aug + 1:
        raise SingularDesign("need more observations than augmented columns")
    ones = np.ones((n, 1))
    tss = float(np.dot(y - y.mean(), y - y.mean()))
    if tss == 0.0:
        raise DegenerateInput("constant target")
    _, rss0 = _ols_fit(np.hstack([ones, x0]), y)
    beta, rss1 = _ols_fit(np.hstack([ones, x0, x1]), y)
    r2_base = 1.0 - rss0 / tss
    r2_aug = 1.0 - rss1 / tss
    if names is None:
        names = [f"base_{j}" for j in range(x0.shape[1])] + [
            f"extra_{j}" for j in range(x1.shape[1])
        ]
    coef = tuple(zip(["intercept"] + list(names), beta.tolist()))
    return RegressionReport(r2_base, r2_aug, r2_aug - r2_base, coef, n)


def agents_to_match(baseline, candidate):
    """Smallest candidate N whose accuracy reaches the baseline at its largest N.

    Returns (n_match, acc_at_match); (None, None) when the candidate never
    reaches the baseline.
    """
    base = [(int(n), float(a)) for n, a in baseline]
    cand = sorted((int(n), float(a)) for n, a in candidate)
    if not base or not cand:
        raise EmptySeries("both series must be nonempty")
    largest_n = max(n for n, _ in base)
    target = dict(base)[largest_n]
    for n, acc in cand:
        if acc >= target:
            return n, acc
    return None, None


def boundary_classification(summaries):
    """Classify configs by the strict K*_c > K*_w inequality.

    Ties classify wrong-dominant (the claim is about strict dominance) and
    are flagged.  Returns (entries, skipped) where each entry is
    (config_label, side, tie_flag) and skipped counts rows with an absent
    component.
    """
    entries, skipped = [], 0
    for s in summaries:
        if s.k_star_c is None or s.k_star_w is None:
            skipped += 1
            continue
        tie = s.k_star_c == s.k_star_w
        side = "correct-dominant" if s.k_star_c > s.k_star_w else "wrong-dominant"
        entries.append((s.config_label, side, tie))
    return entries, skipped


SUMMARY_COLUMNS = ("dataset", "workflow", "layer", "n_agents", "accuracy", "k_star",
                   "k_star_c", "k_star_w", "mean_cosine", "task_count", "mode")
SPECTRAL_REPORTS = ("boundary.csv", "kstar_vs_accuracy.csv")
STATS_REPORTS = ("permutation_report.json", "regression_report.json")
STATS_MIN_CONFIGS = 5


def _csv_text(header, rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def report_bundle(summaries, seed=0):
    """Every `analyze` report of `summaries`, and why any report was left out.

    Returns (files, skipped): `files` maps each report file name to its text,
    `skipped` maps each report not produced to the reason.  The spectral
    reports need K* in some summary; the permutation test (seeded with
    `seed`) and the K* regression also need K* for at least
    STATS_MIN_CONFIGS configs and data they can be computed on.
    """
    files, skipped = {}, {}
    rows = [[getattr(s, c) for c in SUMMARY_COLUMNS] for s in summaries]
    files["summaries.csv"] = _csv_text(SUMMARY_COLUMNS, rows)
    files["summaries.json"] = json.dumps([dict(zip(SUMMARY_COLUMNS, r)) for r in rows], indent=2)

    # accuracy-vs-N plot data plus marginal gains per configuration series
    series = {}
    for s in summaries:
        series.setdefault((s.dataset, s.workflow, s.layer), []).append((s.n_agents, s.accuracy))
    acc_rows, gain_rows = [], []
    for key, pts in sorted(series.items()):
        pts.sort()
        acc_rows += [[*key, n, a] for n, a in pts]
        if len(pts) >= 2:
            gain_rows += [[*key, n, g] for n, g in marginal_gains(pts)]
    files["accuracy_vs_n.csv"] = _csv_text(
        ["dataset", "workflow", "layer", "n_agents", "accuracy"], acc_rows)
    files["marginal_gains.csv"] = _csv_text(
        ["dataset", "workflow", "layer", "n_agents", "delta_per_agent"], gain_rows)

    # agents-to-match: the L1 series is the baseline within each (dataset, workflow)
    match_rows = []
    for dataset, workflow in dict.fromkeys((d, w) for d, w, _ in series):
        base = series.get((dataset, workflow, "L1"))
        if not base:
            continue
        for layer in LAYERS[1:]:
            cand = series.get((dataset, workflow, layer))
            if cand:
                n_match, acc = agents_to_match(sorted(base), sorted(cand))
                match_rows.append([dataset, workflow, layer, n_match, acc])
    files["agents_to_match.csv"] = _csv_text(
        ["dataset", "workflow", "layer", "n_match", "acc_at_match"], match_rows)

    spectral = [s for s in summaries if s.k_star is not None]
    if not spectral:
        reason = "no config has K* (no embeddings, or no valid transcript)"
        skipped.update(dict.fromkeys(SPECTRAL_REPORTS + STATS_REPORTS, reason))
        return files, skipped
    entries, _ = boundary_classification(summaries)
    files["boundary.csv"] = _csv_text(["config", "side", "tie"], entries)
    files["kstar_vs_accuracy.csv"] = _csv_text(
        ["k_star", "accuracy"], [[s.k_star, s.accuracy] for s in spectral])

    if len(spectral) < STATS_MIN_CONFIGS:
        reason = f"{len(spectral)} configs with K*, need at least {STATS_MIN_CONFIGS}"
        skipped.update(dict.fromkeys(STATS_REPORTS, reason))
        return files, skipped
    x = [s.k_star for s in spectral]
    y = [s.accuracy for s in spectral]
    try:
        perm = permutation_test(x, y, shuffles=1000, seed=seed)
        files["permutation_report.json"] = json.dumps(asdict(perm), indent=2)
    except DegenerateInput as exc:
        skipped["permutation_report.json"] = str(exc)
    layers = sorted({s.layer for s in summaries})
    try:
        reg = ols_incremental_r2(
            [[s.n_agents] + [1.0 if s.layer == l else 0.0 for l in layers[1:]] for s in spectral],
            [[s.k_star] for s in spectral],
            y,
            names=["n_agents"] + [f"layer_{l}" for l in layers[1:]] + ["k_star"],
        )
        files["regression_report.json"] = json.dumps(asdict(reg), indent=2)
    except (SingularDesign, DegenerateInput) as exc:
        skipped["regression_report.json"] = str(exc)
    return files, skipped
