import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from masinfo.analysis import (
    DegenerateInput,
    EmptySeries,
    MissingEmbeddings,
    NeedTwoPoints,
    RunSummary,
    agents_to_match,
    boundary_classification,
    marginal_gains,
    ols_incremental_r2,
    pearson_r,
    permutation_test,
    report_bundle,
    spearman_rho,
    summarize_runs,
    _ranks,
)
from masinfo.harness import Transcript
from masinfo.spectral import k_star, normalize_embeddings


def make_transcript(task_id, answers, gold="A", layer="L1", n=None, invalid=False,
                    workflow="vote", dataset="d1"):
    n = len(answers) if n is None else n
    calls = [
        {
            "call_index": i,
            "agent_type_label": "m|default|t0.7|p0.95|m1024",
            "round": 1,
            "raw_output": f"({a})" if a else None,
            "extracted_answer": a,
            "latency_ms": 0,
            "error": None,
        }
        for i, a in enumerate(answers)
    ]
    extracted = [a for a in answers if a is not None]
    final = min(
        (a for a in set(extracted) if extracted.count(a) == max(extracted.count(b) for b in extracted)),
        default=None,
    ) if extracted else None
    return Transcript(
        task_id=task_id,
        question="q",
        gold_answer=gold,
        workflow=workflow,
        layer=layer,
        n_agents=n,
        rounds=1,
        calls=calls,
        final_answer=final if not invalid else None,
        tie=False,
        invalid=invalid,
        timestamp="1970-01-01T00:00:00Z",
        dataset=dataset,
    )


def embeddings_for(task_id, vectors):
    return {f"{task_id}:{i}": list(v) for i, v in enumerate(vectors)}


class TestSummarize:
    def test_empty_is_empty(self):
        assert summarize_runs([]) == []

    def test_accuracy_only_without_embeddings(self):
        ts = [make_transcript("t1", ["A", "A"]), make_transcript("t2", ["B", "B"])]
        (s,) = summarize_runs(ts)
        assert s.accuracy == 0.5
        assert s.k_star is None and s.mean_cosine is None
        assert s.task_count == 2

    def test_orthogonal_all_correct(self):
        ts = [make_transcript("t1", ["A", "A"])]
        emb = embeddings_for("t1", np.eye(2))
        (s,) = summarize_runs(ts, emb)
        assert s.accuracy == 1.0
        assert abs(s.k_star - 2.0) < 1e-6
        assert abs(s.k_star_c - 2.0) < 1e-6
        assert s.k_star_w is None
        assert abs(s.mean_cosine) < 1e-9

    def test_mixed_correctness_matches_spectral_oracle(self):
        rng = np.random.default_rng(0)
        vectors = rng.standard_normal((4, 6))
        ts = [make_transcript("t1", ["A", "A", "B", "B"])]
        (s,) = summarize_runs(ts, embeddings_for("t1", vectors))
        oracle = k_star(normalize_embeddings(vectors)).k_star
        assert abs(s.k_star - oracle) < 1e-9

    def test_per_question_averages(self):
        ts = [make_transcript("t1", ["A", "A"]), make_transcript("t2", ["A", "A"])]
        emb = {**embeddings_for("t1", np.eye(2)),
               **embeddings_for("t2", [[1.0, 0.0], [1.0, 0.0]])}
        (s,) = summarize_runs(ts, emb, mode="per-question")
        assert abs(s.k_star - 1.5) < 1e-6  # mean of 2.0 and 1.0

    def test_pooled_stacks_groups(self):
        ts = [make_transcript("t1", ["A", "A"]), make_transcript("t2", ["A", "A"])]
        emb = {**embeddings_for("t1", np.eye(2)),
               **embeddings_for("t2", np.eye(2))}
        (s,) = summarize_runs(ts, emb, mode="pooled")
        # four vectors spanning two orthogonal directions, each doubled
        oracle = k_star(normalize_embeddings(np.vstack([np.eye(2), np.eye(2)]))).k_star
        assert abs(s.k_star - oracle) < 1e-9
        assert s.mode == "pooled"

    def test_invalid_transcripts_skipped(self):
        ts = [make_transcript("t1", ["A", "A"]),
              make_transcript("t2", [None, None], invalid=True)]
        (s,) = summarize_runs(ts)
        assert s.task_count == 1

    def test_missing_embeddings_named(self):
        ts = [make_transcript("t1", ["A", "A"])]
        with pytest.raises(MissingEmbeddings) as exc:
            summarize_runs(ts, {"t1:0": [1.0, 0.0]})
        assert exc.value.task_id == "t1"

    def test_groups_split_by_config(self):
        ts = [make_transcript("t1", ["A", "A"], layer="L1"),
              make_transcript("t1", ["A", "A"], layer="L2")]
        assert len(summarize_runs(ts)) == 2

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            summarize_runs([], mode="median")

    @pytest.mark.parametrize("mode", ["per-question", "pooled"])
    def test_per_transcript_lookups(self, mode):
        # one task id in two stores, with different vectors in each
        ts = [make_transcript("t1", ["A", "A"], layer="L1"),
              make_transcript("t1", ["A", "A"], layer="L2")]
        lookups = [embeddings_for("t1", np.eye(2)),
                   embeddings_for("t1", [[1.0, 0.0], [1.0, 0.0]])]
        s1, s2 = summarize_runs(ts, lookups, mode=mode)
        assert (s1.layer, s2.layer) == ("L1", "L2")
        assert abs(s1.k_star - 2.0) < 1e-6
        assert abs(s2.k_star - 1.0) < 1e-6

    def test_per_transcript_lookup_without_embeddings(self):
        ts = [make_transcript("t1", ["A", "A"], layer="L1"),
              make_transcript("t2", ["A", "A"], layer="L2")]
        lookups = [{**embeddings_for("t1", np.eye(2)), **embeddings_for("t2", np.eye(2))}, {}]
        with pytest.raises(MissingEmbeddings) as exc:
            summarize_runs(ts, lookups)
        assert exc.value.task_id == "t2"

    def test_per_transcript_lookups_must_align(self):
        ts = [make_transcript("t1", ["A", "A"])]
        with pytest.raises(ValueError):
            summarize_runs(ts, [embeddings_for("t1", np.eye(2))] * 2)


class TestMarginalGains:
    def test_basic(self):
        gains = marginal_gains([(2, 0.5), (4, 0.7), (8, 0.8)])
        assert gains == [(4, pytest.approx(0.1)), (8, pytest.approx(0.025))]

    def test_needs_two_points(self):
        with pytest.raises(NeedTwoPoints):
            marginal_gains([(2, 0.5)])

    def test_strictly_increasing_n(self):
        with pytest.raises(ValueError):
            marginal_gains([(2, 0.5), (2, 0.6)])


class TestCorrelations:
    def test_pearson_perfect_line(self):
        assert abs(pearson_r([1, 2, 3, 4], [2, 4, 6, 8]) - 1.0) < 1e-12
        assert abs(pearson_r([1, 2, 3, 4], [-2, -4, -6, -8]) + 1.0) < 1e-12

    def test_pearson_known_value(self):
        x = [1.0, 2.0, 3.0, 4.0]
        y = [1.0, 3.0, 2.0, 5.0]
        # direct covariance computation as oracle
        xa, ya = np.array(x), np.array(y)
        oracle = float(np.cov(xa, ya, bias=True)[0, 1] / (xa.std() * ya.std()))
        assert abs(pearson_r(x, y) - oracle) < 1e-12

    def test_pearson_zero_variance(self):
        with pytest.raises(DegenerateInput):
            pearson_r([1, 1, 1], [1, 2, 3])

    def test_pearson_too_few(self):
        with pytest.raises(DegenerateInput):
            pearson_r([1, 2], [3, 4])

    def test_ranks_with_ties(self):
        np.testing.assert_allclose(_ranks([10.0, 20.0, 20.0, 30.0]), [1, 2.5, 2.5, 4])

    def test_spearman_monotone_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(30)
        y = rng.standard_normal(30)
        base = spearman_rho(x, y)
        assert abs(spearman_rho(np.exp(x), y) - base) < 1e-12
        assert abs(spearman_rho(x, y ** 3) - base) < 1e-12

    def test_spearman_perfect_monotone(self):
        x = [1, 5, 3, 4]
        assert abs(spearman_rho(x, np.exp(x)) - 1.0) < 1e-12


class TestPermutation:
    def test_strong_signal_small_p(self):
        rng = np.random.default_rng(2)
        x = np.arange(50.0)
        y = x + rng.normal(0, 0.1, size=50)
        report = permutation_test(x, y, shuffles=1000, seed=3)
        assert report.p_value <= 0.002
        assert report.z_score > 5

    def test_pure_noise_large_p(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(40)
        y = rng.standard_normal(40)
        report = permutation_test(x, y, shuffles=500, seed=5)
        assert report.p_value > 0.05

    def test_add_one_floor(self):
        report = permutation_test(np.arange(10.0), np.arange(10.0), shuffles=99, seed=0)
        assert report.p_value == pytest.approx(1 / 100)

    def test_seeded_reproducibility(self):
        x = np.arange(20.0)
        y = np.arange(20.0)[::-1].copy()
        a = permutation_test(x, y, shuffles=200, seed=7)
        b = permutation_test(x, y, shuffles=200, seed=7)
        assert a == b

    def test_validation(self):
        with pytest.raises(DegenerateInput):
            permutation_test([1, 2, 3], [1, 2, 3])
        with pytest.raises(DegenerateInput):
            permutation_test(np.arange(10.0), np.arange(10.0), shuffles=0)


def residual_oracle(design, y):
    # from-scratch least squares via the pseudo-inverse
    beta = np.linalg.pinv(design) @ y
    r = y - design @ beta
    return float(r @ r)


class TestRegression:
    def test_planted_coefficients_recovered(self):
        rng = np.random.default_rng(6)
        n = 60
        base = rng.standard_normal((n, 2))
        extra = rng.standard_normal((n, 1))
        y = 1.5 + base @ np.array([2.0, -1.0]) + 0.5 * extra[:, 0]
        report = ols_incremental_r2(base, extra, y, names=["b0", "b1", "kstar"])
        coef = dict(report.coefficients)
        assert abs(coef["intercept"] - 1.5) < 1e-4
        assert abs(coef["b0"] - 2.0) < 1e-4
        assert abs(coef["b1"] + 1.0) < 1e-4
        assert abs(coef["kstar"] - 0.5) < 1e-4
        assert report.r2_augmented > 0.999

    def test_matches_residual_oracle(self):
        rng = np.random.default_rng(7)
        n = 40
        base = rng.standard_normal((n, 3))
        extra = rng.standard_normal((n, 2))
        y = rng.standard_normal(n)
        report = ols_incremental_r2(base, extra, y)
        ones = np.ones((n, 1))
        tss = float(((y - y.mean()) ** 2).sum())
        r2_base = 1.0 - residual_oracle(np.hstack([ones, base]), y) / tss
        r2_aug = 1.0 - residual_oracle(np.hstack([ones, base, extra]), y) / tss
        assert abs(report.r2_baseline - r2_base) < 1e-6
        assert abs(report.r2_augmented - r2_aug) < 1e-6

    def test_duplicate_feature_adds_nothing(self):
        rng = np.random.default_rng(8)
        n = 50
        base = rng.standard_normal((n, 2))
        y = base @ np.array([1.0, 2.0]) + rng.normal(0, 0.1, n)
        report = ols_incremental_r2(base, base[:, :1], y)
        assert abs(report.delta_r2) <= 1e-9

    def test_delta_r2_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = 30
            base = rng.standard_normal((n, 2))
            extra = rng.standard_normal((n, 1))
            y = rng.standard_normal(n)
            report = ols_incremental_r2(base, extra, y)
            assert report.delta_r2 >= -1e-9

    def test_constant_target_rejected(self):
        with pytest.raises(DegenerateInput):
            ols_incremental_r2(np.ones((10, 1)), np.ones((10, 1)), np.ones(10))


class TestAgentsToMatch:
    def test_candidate_matches_with_fewer(self):
        baseline = [(2, 0.5), (4, 0.6), (16, 0.65)]
        candidate = [(2, 0.66), (4, 0.70)]
        assert agents_to_match(baseline, candidate) == (2, 0.66)

    def test_candidate_needs_more(self):
        baseline = [(4, 0.7)]
        candidate = [(2, 0.5), (4, 0.65), (8, 0.72)]
        assert agents_to_match(baseline, candidate) == (8, 0.72)

    def test_never_matches(self):
        assert agents_to_match([(4, 0.9)], [(2, 0.1), (8, 0.2)]) == (None, None)

    def test_target_is_largest_n(self):
        # baseline dips at its largest N; the dip sets the target
        baseline = [(2, 0.8), (4, 0.6)]
        assert agents_to_match(baseline, [(2, 0.65)]) == (2, 0.65)

    def test_empty_rejected(self):
        with pytest.raises(EmptySeries):
            agents_to_match([], [(2, 0.5)])


class TestBoundary:
    def make_summary(self, c, w, layer="L4"):
        ts = [make_transcript("t1", ["A", "A"], layer=layer)]
        (s,) = summarize_runs(ts)
        return type(s)(
            dataset="d1", layer=layer, workflow="vote", n_agents=2,
            accuracy=1.0, k_star=1.5, k_star_c=c, k_star_w=w,
            mean_cosine=0.5, task_count=1,
        )

    def test_strict_dominance(self):
        entries, skipped = boundary_classification(
            [self.make_summary(1.5, 1.2), self.make_summary(1.1, 1.3)]
        )
        assert skipped == 0
        assert [e[1] for e in entries] == ["correct-dominant", "wrong-dominant"]
        assert all(not e[2] for e in entries)

    def test_tie_is_wrong_dominant_and_flagged(self):
        entries, _ = boundary_classification([self.make_summary(1.4, 1.4)])
        assert entries[0][1] == "wrong-dominant"
        assert entries[0][2] is True

    def test_missing_component_skipped(self):
        entries, skipped = boundary_classification(
            [self.make_summary(1.5, None), self.make_summary(None, 1.2)]
        )
        assert entries == []
        assert skipped == 2

    def test_labels_carry_config(self):
        entries, _ = boundary_classification([self.make_summary(1.5, 1.2)])
        assert entries[0][0] == "d1/vote/L4/N2"


BASE_REPORTS = {"summaries.csv", "summaries.json", "accuracy_vs_n.csv", "marginal_gains.csv",
                "agents_to_match.csv"}
SPECTRAL_REPORTS = {"boundary.csv", "kstar_vs_accuracy.csv"}
STATS_REPORTS = {"permutation_report.json", "regression_report.json"}


def run_summary(layer, n, acc, ks):
    ks_c = None if ks is None else ks + 0.1
    return RunSummary("d1", layer, "vote", n, acc, ks, ks_c, ks, ks, 10)


def layered_summaries(layers, accuracies, ns=(2, 4, 8, 16)):
    """One summary per (layer, N), accuracies in order.

    K* grows with layer and N but is no linear function of them, so the
    K* regression has a full-rank design.
    """
    acc = iter(accuracies)
    return [run_summary(l, n, next(acc), 1.0 + 0.3 * i + 0.05 * n * (i + 1) ** 0.5)
            for i, l in enumerate(layers) for n in ns]


class TestReportBundle:
    def test_every_report_written(self):
        summaries = layered_summaries(["L1", "L2"], [0.4, 0.5, 0.55, 0.57, 0.45, 0.6, 0.7, 0.8])
        files, skipped = report_bundle(summaries, seed=3)
        assert skipped == {}
        assert set(files) == BASE_REPORTS | SPECTRAL_REPORTS | STATS_REPORTS
        assert files["summaries.csv"].splitlines()[0] == (
            "dataset,workflow,layer,n_agents,accuracy,k_star,k_star_c,k_star_w,"
            "mean_cosine,task_count,mode")
        assert files["agents_to_match.csv"].splitlines()[1:] == ["d1,vote,L2,4,0.6"]
        x = [s.k_star for s in summaries]
        y = [s.accuracy for s in summaries]
        assert json.loads(files["permutation_report.json"]) == asdict(
            permutation_test(x, y, shuffles=1000, seed=3))
        reg = json.loads(files["regression_report.json"])
        assert reg["n_obs"] == 8
        assert [name for name, _ in reg["coefficients"]] == [
            "intercept", "n_agents", "layer_L2", "k_star"]

    @pytest.mark.parametrize("summaries", [
        [run_summary("L1", 2, 0.5, None), run_summary("L1", 4, 0.6, None)], [],
    ], ids=["no-embeddings", "no-valid-transcript"])
    def test_no_k_star_skips_spectral_reports(self, summaries):
        files, skipped = report_bundle(summaries)
        assert set(files) == BASE_REPORTS
        assert set(skipped) == SPECTRAL_REPORTS | STATS_REPORTS
        assert all(r.startswith("no config has K*") for r in skipped.values())

    def test_fewer_than_five_configs_skips_stats(self):
        files, skipped = report_bundle(layered_summaries(["L1"], [0.4, 0.5, 0.6, 0.65]))
        assert set(files) == BASE_REPORTS | SPECTRAL_REPORTS
        assert skipped == dict.fromkeys(STATS_REPORTS, "4 configs with K*, need at least 5")

    def test_constant_accuracy_skips_stats(self):
        files, skipped = report_bundle(layered_summaries(["L1", "L2"], [0.5] * 8))
        assert set(files) == BASE_REPORTS | SPECTRAL_REPORTS
        assert skipped == {"permutation_report.json": "zero variance",
                           "regression_report.json": "constant target"}

    def test_singular_design_skips_regression(self):
        # N, three layer dummies, K* and an intercept: 6 columns for 5 configs
        summaries = layered_summaries(["L1", "L2", "L3", "L4"], [0.3, 0.4, 0.5, 0.6, 0.7],
                                      ns=(2,))
        summaries.append(run_summary("L4", 4, 0.7, 3.0))
        files, skipped = report_bundle(summaries)
        assert "permutation_report.json" in files
        assert skipped == {
            "regression_report.json": "need more observations than augmented columns"}
