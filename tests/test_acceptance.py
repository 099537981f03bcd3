"""End-to-end acceptance checks, one test per criterion.

Each test prints a single "criterion N: PASS/FAIL" line (outside pytest's
capture) so the acceptance status is visible in the plain test log.
"""

import json
import math
import time
from collections import Counter

import numpy as np
import pytest

from masinfo.analysis import (
    RunSummary,
    agents_to_match,
    boundary_classification,
    ols_incremental_r2,
    permutation_test,
    spearman_rho,
)
from masinfo.coverage import (
    CoverageParams,
    analytic_bounds,
    compare_designs,
    fit_alpha,
    marginal_gain,
    simulate_coverage,
)
from masinfo.harness import DiversityPlan, MockChatBackend, run_debate, run_vote
from masinfo.info_theory import (
    DiscreteJoint,
    conditional_mutual_information,
    random_joint,
    redundancy_identity_check,
    usable_evidence,
)
from masinfo.spectral import EmbeddingSet, k_star, normalize_embeddings, symmetric_eigenvalues


@pytest.fixture
def announce(capsys, request):
    outcome = {"label": request.node.name, "ok": True}
    yield outcome
    with capsys.disabled():
        status = "PASS" if outcome["ok"] else "FAIL"
        print(f"\n{outcome['label']}: {status}")


def check(outcome, condition, message):
    if not condition:
        outcome["ok"] = False
        pytest.fail(message)


def test_criterion_01_effective_rank_properties(announce):
    announce["label"] = "criterion 1 (K* property suite)"
    start = time.monotonic()
    rng = np.random.default_rng(101)
    for _ in range(500):
        n = int(rng.integers(1, 17))
        d = int(rng.integers(1, 65))
        rows = rng.standard_normal((n, d))
        emb = normalize_embeddings(rows)
        value = k_star(emb).k_star
        check(announce, 1.0 - 1e-9 <= value <= n + 1e-9, f"K* out of [1, n]: {value} (n={n})")
        perm = rng.permutation(n)
        permuted = EmbeddingSet(emb.vectors[perm])
        check(announce, abs(k_star(permuted).k_star - value) < 1e-9,
              "permutation changed K*")
    for n in (1, 3, 8, 16):
        collinear = normalize_embeddings(np.tile(rng.standard_normal(8), (n, 1)))
        check(announce, abs(k_star(collinear).k_star - 1.0) < 1e-6, "collinear K* != 1")
    for n in (2, 5, 16):
        ortho = normalize_embeddings(np.eye(n))
        check(announce, abs(k_star(ortho).k_star - n) < 1e-6, "orthonormal K* != n")
    elapsed = time.monotonic() - start
    check(announce, elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s")


def charpoly_roots_2x2(m):
    tr, det = m[0, 0] + m[1, 1], m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = math.sqrt(max(tr * tr - 4 * det, 0.0))
    return sorted([(tr + disc) / 2, (tr - disc) / 2], reverse=True)


def charpoly_roots_3x3(m):
    tr = np.trace(m)
    c1 = 0.5 * (tr * tr - np.trace(m @ m))
    det = np.linalg.det(m)
    roots = np.roots([-1.0, tr, -c1, det])
    return sorted(np.real(roots), reverse=True)


def test_criterion_02_eigensolver_oracle(announce):
    announce["label"] = "criterion 2 (eigensolver oracle)"
    rng = np.random.default_rng(202)
    fixtures_2 = [np.array([[1.0, 1.0], [1.0, 1.0]]), np.eye(2),
                  np.array([[2.0, -0.3], [-0.3, 0.5]])]
    fixtures_2 += [
        (lambda a: 0.5 * (a + a.T))(rng.standard_normal((2, 2))) for _ in range(20)
    ]
    for m in fixtures_2:
        got = symmetric_eigenvalues(m)
        want = charpoly_roots_2x2(m)
        check(announce, np.allclose(got, want, atol=1e-8), f"2x2 mismatch: {got} vs {want}")
    fixtures_3 = [np.eye(3), np.full((3, 3), 1.0 / 3)]
    fixtures_3 += [
        (lambda a: 0.5 * (a + a.T))(rng.standard_normal((3, 3))) for _ in range(20)
    ]
    for m in fixtures_3:
        got = symmetric_eigenvalues(m)
        want = charpoly_roots_3x3(m)
        check(announce, np.allclose(got, want, atol=1e-8), f"3x3 mismatch: {got} vs {want}")
    for _ in range(30):
        n = int(rng.integers(2, 17))
        a = rng.standard_normal((n, n))
        m = 0.5 * (a + a.T)
        eigs = symmetric_eigenvalues(m)
        check(announce, abs(sum(eigs) - np.trace(m)) < 1e-6, "trace mismatch")
        check(announce,
              abs(float(np.sum(np.square(eigs))) - float(np.sum(m * m))) < 1e-6,
              "Frobenius mismatch")


def test_criterion_03_information_bounds(announce):
    announce["label"] = "criterion 3 (information-bound suite)"
    start = time.monotonic()
    rng = np.random.default_rng(303)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        sizes = tuple(int(rng.integers(2, 5)) for _ in range(2 + n))
        j = random_joint(rng, sizes)
        report = usable_evidence(j)
        direct = conditional_mutual_information(
            j, tuple(f"Z{i}" for i in range(1, n + 1)), "Y", "X"
        )
        check(announce, abs(report.i_mas - direct) < 1e-9, "chain rule violated")
        check(announce, report.i_mas <= report.h_y_given_x + 1e-9, "budget exceeded")
        i = int(rng.integers(1, n + 1))
        _, _, gap, _ = redundancy_identity_check(j, i)
        check(announce, abs(gap) < 1e-9, "redundancy identity violated")
    for _ in range(50):
        j = random_joint(rng, (2, 2, 2, 3))
        direct = conditional_mutual_information(j, ("Z1", "Z2"), "Y", "X")
        f = rng.integers(0, 2, size=(2, 3))
        p = np.zeros((2, 2, 2))
        for x in range(2):
            for y in range(2):
                for z1 in range(2):
                    for z2 in range(3):
                        p[x, y, f[z1, z2]] += j.probabilities[x, y, z1, z2]
        jw = DiscreteJoint(("X", "Y", "W"), p)
        processed = conditional_mutual_information(jw, "W", "Y", "X")
        check(announce, processed <= direct + 1e-9, "data-processing inequality violated")
    elapsed = time.monotonic() - start
    check(announce, elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s")


def test_criterion_04_coverage_contraction(announce):
    announce["label"] = "criterion 4 (coverage contraction)"
    start = time.monotonic()
    for alpha in (0.1, 0.3, 0.5):
        params = CoverageParams.equal_bits(alpha=alpha, num_channels=10, seed=404, num_bits=16)
        curve = simulate_coverage(params, trials=100_000)
        for k in range(11):
            expected = (1.0 - alpha) ** k
            stderr = max(curve.stderr[k], 1e-12)
            check(announce,
                  abs(curve.mean_residual_fraction[k] - expected) <= 3 * stderr,
                  f"alpha={alpha} K={k}: {curve.mean_residual_fraction[k]} vs {expected}")
            geo, expo = analytic_bounds(alpha, k)
            check(announce, geo <= expo, f"geometric bound above exponential at K={k}")
    elapsed = time.monotonic() - start
    check(announce, elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s")


def test_criterion_05_marginal_decay_identity(announce):
    announce["label"] = "criterion 5 (marginal-decay identity)"
    for alpha in np.linspace(0.05, 0.95, 10):
        for k in range(10):
            diff = (1.0 - math.exp(-alpha * (k + 1))) - (1.0 - math.exp(-alpha * k))
            check(announce, abs(marginal_gain(float(alpha), k) - diff) < 1e-12,
                  f"identity violated at alpha={alpha}, K={k}")


def test_criterion_06_heterogeneity_advantage(announce):
    announce["label"] = "criterion 6 (heterogeneity advantage)"
    rng = np.random.default_rng(606)
    violations = 0
    for _ in range(1000):
        a = (float(rng.uniform(0.01, 0.99)), int(rng.integers(1, 20)))
        b = (float(rng.uniform(0.01, 0.99)), int(rng.integers(1, 20)))
        _, _, winner = compare_designs(a, b, 1.0)
        pa, pb = a[0] * a[1], b[0] * b[1]
        expect = "a" if pa > pb + 1e-12 else ("b" if pb > pa + 1e-12 else "tie")
        if winner != expect:
            violations += 1
    check(announce, violations == 0, f"{violations} winner mismatches")


def test_criterion_07_alpha_round_trip(announce):
    announce["label"] = "criterion 7 (alpha round-trip)"
    rng = np.random.default_rng(707)
    for alpha in (0.1, 0.2, 0.4):
        clean = [(k, 1.0 - math.exp(-alpha * k)) for k in range(1, 11)]
        alpha_hat, _ = fit_alpha(clean)
        check(announce, abs(alpha_hat - alpha) < 1e-6,
              f"noiseless recovery off: {alpha_hat} vs {alpha}")
        noisy = [
            (k, float(np.clip(v + rng.normal(0, 0.01), 0.0, 1.0))) for k, v in clean
        ]
        alpha_noisy, _ = fit_alpha(noisy)
        check(announce, abs(alpha_noisy - alpha) < 0.05,
              f"noisy recovery off: {alpha_noisy} vs {alpha}")


TASK = {"id": "t1", "question": "Which?", "choices": ["one", "two", "three"], "answer": "A"}


def test_criterion_08_harness_determinism_and_accounting(announce):
    announce["label"] = "criterion 8 (harness determinism and accounting)"
    plan = DiversityPlan(layer="L1", model_pool=("m1",), persona_pool=())
    for seed in range(50):
        n = 2 + seed % 4
        a = run_vote(TASK, plan, n, MockChatBackend(seed=seed))
        b = run_vote(TASK, plan, n, MockChatBackend(seed=seed))
        check(announce,
              json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True),
              f"vote transcript differs on re-run (seed {seed})")
        check(announce, len(a.calls) == n, "vote call count != N")
    for seed in range(50):
        n, rounds = 2 + seed % 3, 2 + seed % 3
        a = run_debate(TASK, plan, n, rounds=rounds, backend=MockChatBackend(seed=seed))
        b = run_debate(TASK, plan, n, rounds=rounds, backend=MockChatBackend(seed=seed))
        check(announce,
              json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True),
              f"debate transcript differs on re-run (seed {seed})")
        check(announce, len(a.calls) == n * rounds, "debate call count != N*R")
    for seed in range(1000):
        n = 1 + seed % 8
        t = run_vote(TASK, plan, n, MockChatBackend(seed=seed), concurrency=1)
        answers = [c["extracted_answer"] for c in t.calls if c["extracted_answer"]]
        counts = Counter(answers)
        best = max(counts.values())
        oracle = min(a for a, c in counts.items() if c == best)
        check(announce, t.final_answer == oracle,
              f"vote final {t.final_answer} != majority oracle {oracle}")


def table_summary(workflow, c, w):
    return RunSummary(
        dataset="arc", layer="L4", workflow=workflow, n_agents=4, accuracy=0.875,
        k_star=1.52, k_star_c=c, k_star_w=w, mean_cosine=0.8, task_count=100,
    )


def test_criterion_09_published_table_replays(announce):
    announce["label"] = "criterion 9 (published-table replays)"
    baseline = [(2, 0.6021), (4, 0.6289), (8, 0.6468), (16, 0.6534)]
    # candidate accuracies below the match point sit under the 0.6534 target,
    # consistent with the published smallest-N-to-match column
    l2 = [(2, 0.6102), (4, 0.6350), (8, 0.6544), (16, 0.6601)]
    l3 = [(2, 0.6412), (4, 0.6729), (8, 0.6980), (16, 0.7154)]
    l4 = [(2, 0.6771), (4, 0.7103), (8, 0.7441), (16, 0.7686)]
    check(announce, agents_to_match(baseline, l4)[0] == 2, "L4 match != 2")
    check(announce, agents_to_match(baseline, l3)[0] == 4, "L3 match != 4")
    check(announce, agents_to_match(baseline, l2)[0] == 8, "L2 match != 8")
    entries, skipped = boundary_classification(
        [table_summary("debate", 1.472, 1.288), table_summary("vote", 1.484, 1.297)]
    )
    check(announce, skipped == 0, "rows skipped")
    check(announce, all(side == "correct-dominant" for _, side, _ in entries),
          f"boundary sides {entries}")


def test_criterion_10_statistics_suite(announce):
    announce["label"] = "criterion 10 (statistics suite)"
    x = np.arange(30.0)
    report = permutation_test(x, 2.0 * x + 1.0, shuffles=1000, seed=10)
    check(announce, report.p_value <= 0.002, f"p = {report.p_value}")

    rng = np.random.default_rng(1010)
    n = 80
    base = rng.standard_normal((n, 3))
    extra = rng.standard_normal((n, 1))
    y = 0.25 + base @ np.array([1.0, -2.0, 0.5]) + 3.0 * extra[:, 0]
    reg = ols_incremental_r2(base, extra, y)
    coef = dict(reg.coefficients)
    planted = {"intercept": 0.25, "base_0": 1.0, "base_1": -2.0, "base_2": 0.5, "extra_0": 3.0}
    for name, value in planted.items():
        check(announce, abs(coef[name] - value) < 1e-6, f"coefficient {name} off: {coef[name]}")
    dup = ols_incremental_r2(base, base[:, 1:2], rng.standard_normal(n))
    check(announce, abs(dup.delta_r2) <= 1e-9, f"duplicate-feature delta_r2 {dup.delta_r2}")

    xs = rng.standard_normal(25)
    ys = rng.standard_normal(25)
    base_rho = spearman_rho(xs, ys)
    for f in (np.exp, np.tanh, lambda v: v ** 3):
        check(announce, spearman_rho(f(xs), ys) == base_rho,
              "Spearman not invariant under monotone transform")
