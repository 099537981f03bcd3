"""Measurement tables from transcript stores.

`score` turns the persisted Vote/Debate transcripts of every merged store,
with the loader of their call rows that masinfo.store makes, into one row per
unit (a task, or a pooled group) with its correct count and its K*, K*_c/K*_w
and mean cosine, loading each store's rows at its first unit and letting them
go after its last; `summarize_table` aggregates those rows into per-config
summaries.  The two, in that order, are the one way to score.  `report_bundle`
renders the summaries as the `analyze` report files: the summaries, accuracy
per N and its marginal gains, agents-to-match tables, the correct/wrong-dominant
boundary, the (K*, accuracy) points, a permutation test of Pearson
r(K*, accuracy), and the R^2 that K* adds to N and the layer.
"""

import csv
import io
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from masinfo.harness import LAYERS, answer_matches
from masinfo.spectral import (
    ZERO_NORM_TOL,
    ZeroNormVector,
    _mean_cosine,
    _normalize_rows,
    _sides,
    _spectrum,
    _unit_gram,
)
from masinfo.store import release_pages


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


@dataclass(frozen=True)
class TaskRow:
    """One unit of score: its config (dataset, layer, workflow, N), its task
    (None for a pooled group), how many of its task_count transcripts are correct,
    and its spectral columns (None without embeddings)."""

    config: tuple
    task_id: str | None
    correct: int
    task_count: int
    k_star: float | None
    k_star_c: float | None
    k_star_w: float | None
    mean_cosine: float | None


def _config_order(item):
    """Sort key of a (config, ...) item: a dataset that older runs wrote as a
    number sorts before every string one, and each kind in its own order."""
    return isinstance(item[0][0], str), item[0]


def score(stores, mode="per-question"):
    """One TaskRow per unit of the merged `stores`, config by config in sorted
    order, and within a config in the order of `stores` and of their transcripts.

    `stores` holds one (transcripts, rows) pair per store: rows() loads the
    store's lookup, rows_of(t) = (rows, positions), a 2-D array of raw vectors
    and the index in it of each of `t`'s calls in call order, as
    store.RunStore.rows does.  A KeyError from rows_of, or a None rows beside
    real loaders, raises MissingEmbeddings; when every rows is None the
    spectral columns are None.  A unit is one valid transcript in mode
    "per-question", and in mode "pooled" the whole group of valid transcripts
    of one config, whose call rows are stacked into one set.  ValueError
    refuses a config whose transcripts differ in rounds or agent types.

    Units are scored linked set by linked set, a linked set being the stores
    joined by sharing a pooled group (a per-question unit is one store): the
    sets in the order of their first store, the units of one in the order of
    their own first store.  A store's rows() is called at its first unit and
    let go after its last, so the lookups alive at once are those of one
    linked set, and is never called for a store without a valid transcript.
    One buffer takes the rows of every unit.
    """
    if mode not in ("per-question", "pooled"):
        raise ValueError("mode must be 'per-question' or 'pooled'")
    groups, shapes = {}, {}
    for s, (transcripts, _) in enumerate(stores):
        for t in transcripts:
            if t.invalid:
                continue
            key = t.dataset, t.layer, t.workflow, t.n_agents
            groups.setdefault(key, []).append((s, t))
            shape = {"rounds": t.rounds,
                     "agent_type_label": sorted({c["agent_type_label"] for c in t.calls})}
            for field, value in shapes.setdefault(key, shape).items():
                if shape[field] != value:
                    raise ValueError(f"{key[0]}/{key[2]}/{key[1]}/N{key[3]} mixes transcripts "
                                     f"whose {field} differ: {value} and {shape[field]}")
    per_question = mode == "per-question"
    units = [(key, u) for key, members in sorted(groups.items(), key=_config_order)
             for u in ([[m] for m in members] if per_question else [members])]
    linked = list(range(len(stores)))  # a store's link toward its set's first store

    def first(s):
        while linked[s] != s:
            s = linked[s]
        return s

    for _, u in units:
        roots = {first(s) for s, _ in u}
        for r in roots:
            linked[r] = min(roots)
    order = sorted(range(len(units)), key=lambda j: (first(units[j][1][0][0]), units[j][1][0][0]))
    last = {s: i for i, j in enumerate(order) for s, _ in units[j][1]}
    spectral = any(rows is not None for _, rows in stores)
    # the one buffer, in a list so that _columns drops a smaller one as it grows it
    lookups, buf, table = {}, [np.empty(0)], [None] * len(units)
    for i, j in enumerate(order):
        key, u = units[j]
        columns = (None,) * 4
        if spectral:
            for s, _ in u:
                if s not in lookups:
                    load = stores[s][1]
                    lookups[s] = None if load is None else load()
            columns = _columns([(t, lookups[s]) for s, t in u], buf)
            for s, _ in u:
                if last[s] == i:
                    lookups.pop(s, None)
        correct = sum(answer_matches(t.final_answer, t.gold_answer) for _, t in u)
        table[j] = TaskRow(key, u[0][1].task_id if per_question else None, correct, len(u),
                           *columns)
    return table


def _columns(unit, buf):
    """(K*, K*_c, K*_w, mean cosine) of every call of `unit`, (transcript, rows_of) pairs.

    The unit's rows are copied, member by member, to the start of the
    buffer buf[0], replaced first by a larger one if they do not fit, and
    normalized there once; each member's rows are let go
    (store.release_pages) once copied.  Their one Gram gives K* and, through
    its principal submatrices, K*_c and K*_w: the values of k_star and
    k_star_conditioned on the EmbeddingSet of the same rows.  No cosine
    below 2 rows.
    """
    picks, mask = [], []
    for t, rows_of in unit:
        if rows_of is None:
            raise MissingEmbeddings(t.task_id)
        try:
            picks.append((t, *rows_of(t)))
        except KeyError:
            raise MissingEmbeddings(t.task_id) from None
        mask += [answer_matches(c["extracted_answer"], t.gold_answer) for c in t.calls]
    d = picks[0][1].shape[1]
    n = sum(len(pos) for _, _, pos in picks)
    if buf[0].size < n * d:
        buf[0] = np.empty(n * d)
    z = buf[0][:n * d].reshape(n, d)
    start = 0
    for k, (t, rows, pos) in enumerate(picks):
        if rows.shape[1] != d:
            raise ValueError(f"embeddings of task {t.task_id} have width {rows.shape[1]}, "
                             f"not the {d} of the rest of their group")
        end = start + len(pos)
        np.take(rows, pos, axis=0, out=z[start:end], mode="clip")
        start = end
        # copied out: a cache hit's rows need not stay resident while the
        # next unit is read; a store's members come one after another
        if k + 1 == len(picks) or picks[k + 1][1] is not rows:
            release_pages(rows)
    try:
        _normalize_rows(z)
    except ZeroNormVector as exc:
        ids = [i for t, _, _ in picks for i in t.embedding_ids()]
        raise ValueError(f"embedding {ids[exc.index]} has norm < {ZERO_NORM_TOL}") from None
    g = _unit_gram(z)
    c, w = _sides(g, np.array(mask, dtype=bool))
    cos = _mean_cosine(z) if n >= 2 else None
    return _spectrum(g).k_star, c, w, cos


def summarize_table(table):
    """One RunSummary per config of the score rows `table`, sorted.

    Accuracy is the group's correct transcripts over its transcripts; each
    spectral column is the mean over the group's units, in table order, of
    the unit's value where it has one; the mode is "pooled" for a unit without task_id.
    """
    groups = {}
    for row in table:
        groups.setdefault(row.config, []).append(row)
    summaries = []
    for (dataset, layer, workflow, n), rows in sorted(groups.items(), key=_config_order):
        count = sum(r.task_count for r in rows)
        acc = sum(r.correct for r in rows) / count
        ks, ks_c, ks_w, cos = (_mean_or_none([getattr(r, c) for r in rows])
                               for c in ("k_star", "k_star_c", "k_star_w", "mean_cosine"))
        mode = "pooled" if rows[0].task_id is None else "per-question"
        summaries.append(
            RunSummary(dataset, layer, workflow, n, acc, ks, ks_c, ks_w, cos, count, mode))
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


def _shuffled_r(x, y, shuffles, rng):
    """[pearson_r(x, rng.permutation(y)) for each shuffle], bit for bit, as an array.

    permuted shuffles each row of the tiled y with the stream that
    permutation draws, each row mean is summed as y.mean() sums, and each r
    takes pearson_r's steps in its order, with the x terms taken once.
    """
    ys = rng.permuted(np.tile(y, (shuffles, 1)), axis=1)
    ycs = ys - ys.mean(axis=1, keepdims=True)
    xc = x - x.mean()
    sxx = float(np.dot(xc, xc))
    null = np.empty(shuffles)
    for i, yc in enumerate(ycs):
        denom = math.sqrt(sxx * float(np.dot(yc, yc)))
        if denom == 0.0:
            raise DegenerateInput("zero variance")
        null[i] = min(max(float(np.dot(xc, yc)) / denom, -1.0), 1.0)
    return null


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
    null = _shuffled_r(x, y, shuffles, np.random.default_rng(seed))
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
    for key, pts in sorted(series.items(), key=_config_order):
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
