import itertools
import math

import numpy as np
import pytest

from masinfo.info_theory import (
    DiscreteJoint,
    InvalidVariable,
    TypeProfile,
    bsc_views_joint,
    call_names,
    conditional_entropy,
    conditional_mutual_information,
    conditionally_independent_joint,
    max_step_info,
    parallel_ceiling,
    redundancy_identity_check,
    sequential_ceiling,
    single_call_info,
    usable_evidence,
)
from joints import random_joint


def binary_entropy(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def uniform_pair_independent():
    # X and Y independent uniform bits
    return DiscreteJoint(("X", "Y"), np.full((2, 2), 0.25))


def copy_pair():
    # Y = X uniform
    return DiscreteJoint(("X", "Y"), np.array([[0.5, 0.0], [0.0, 0.5]]))


class TestJointConstruction:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DiscreteJoint(("X", "Y"), np.full((2, 2), 0.3))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DiscreteJoint(("X", "Y"), np.array([[1.2, -0.2], [0.0, 0.0]]))

    def test_json_round_trip(self):
        j = bsc_views_joint(0.1, 2)
        j2 = DiscreteJoint.from_json(j.to_json())
        assert j2.names == j.names
        np.testing.assert_allclose(j2.probabilities, j.probabilities)


class TestConditionalEntropy:
    def test_independent(self):
        assert abs(conditional_entropy(uniform_pair_independent(), "Y", "X") - 1.0) < 1e-12

    def test_deterministic_copy(self):
        assert abs(conditional_entropy(copy_pair(), "Y", "X")) < 1e-12

    def test_bsc_posterior_entropy(self):
        # Y uniform bit observed through BSC(0.1): H(Y|Z) = h(0.1)
        j = bsc_views_joint(0.1, 1)
        h = conditional_entropy(j, "Y", "Z1")
        assert abs(h - binary_entropy(0.1)) < 1e-9
        assert abs(h - 0.468996) < 1e-6

    def test_invalid_variable(self):
        with pytest.raises(InvalidVariable):
            conditional_entropy(uniform_pair_independent(), "W")

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            j = random_joint(rng, (2, 3, 2))
            h = conditional_entropy(j, "Y", ("X", "Z1"))
            assert -1e-12 <= h <= math.log2(3) + 1e-12


class TestConditionalMI:
    def test_independent_is_zero(self):
        assert conditional_mutual_information(uniform_pair_independent(), "X", "Y") == 0.0

    def test_identical_bit(self):
        assert abs(conditional_mutual_information(copy_pair(), "X", "Y") - 1.0) < 1e-12

    def test_bsc_capacity_gap(self):
        j = bsc_views_joint(0.1, 1)
        mi = conditional_mutual_information(j, "Z1", "Y")
        assert abs(mi - (1.0 - binary_entropy(0.1))) < 1e-9
        assert abs(mi - 0.531004) < 1e-6

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            j = random_joint(rng, (2, 2, 3, 2))
            a = conditional_mutual_information(j, "Y", "Z1", ("X", "Z2"))
            b = conditional_mutual_information(j, "Z1", "Y", ("X", "Z2"))
            assert abs(a - b) < 1e-10

    def test_disjointness_enforced(self):
        with pytest.raises(InvalidVariable):
            conditional_mutual_information(uniform_pair_independent(), "X", "X")


class TestUsableEvidence:
    def test_copied_call_adds_nothing(self):
        # Z2 an exact copy of Z1: joint over (X, Y, Z1, Z2) with Z2 == Z1
        base = bsc_views_joint(0.1, 1)
        p = np.zeros((1, 2, 2, 2))
        for y in range(2):
            for z in range(2):
                p[0, y, z, z] = base.probabilities[0, y, z]
        j = DiscreteJoint(("X", "Y", "Z1", "Z2"), p)
        report = usable_evidence(j)
        assert abs(report.increments[1]) < 1e-10

    def test_oracle_call_exhausts_budget(self):
        # Z1 = Y exactly, Z2 noise
        p = np.zeros((1, 2, 2, 2))
        for y in range(2):
            for z2 in range(2):
                p[0, y, y, z2] = 0.25
        j = DiscreteJoint(("X", "Y", "Z1", "Z2"), p)
        report = usable_evidence(j)
        h = report.h_y_given_x
        assert abs(report.increments[0] - h) < 1e-10
        assert abs(report.increments[1]) < 1e-10

    def test_two_bsc_views(self):
        j = bsc_views_joint(0.1, 2)
        report = usable_evidence(j)
        assert abs(report.increments[0] - 0.531004) < 1e-6
        assert report.increments[1] < report.increments[0]
        assert report.i_mas <= 1.0 + 1e-9
        assert abs(report.i_mas - sum(report.increments)) < 1e-12

    def test_budget_and_chain_rule_random(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            sizes = (int(rng.integers(2, 5)), int(rng.integers(2, 5))) + tuple(
                int(rng.integers(2, 4)) for _ in range(n)
            )
            j = random_joint(rng, sizes)
            report = usable_evidence(j)
            direct = conditional_mutual_information(
                j, tuple(f"Z{i}" for i in range(1, n + 1)), "Y", "X"
            )
            assert abs(report.i_mas - direct) < 1e-9
            assert report.i_mas <= report.h_y_given_x + 1e-9
            assert all(d >= -1e-12 for d in report.increments)

    def test_data_processing_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            j = random_joint(rng, (2, 2, 2, 3))
            direct = conditional_mutual_information(j, ("Z1", "Z2"), "Y", "X")
            # random deterministic post-processing W = f(Z1, Z2)
            f = rng.integers(0, 2, size=(2, 3))
            p = np.zeros((2, 2, 2))
            for x in range(2):
                for y in range(2):
                    for z1 in range(2):
                        for z2 in range(3):
                            p[x, y, f[z1, z2]] += j.probabilities[x, y, z1, z2]
            jw = DiscreteJoint(("X", "Y", "W"), p)
            processed = conditional_mutual_information(jw, "W", "Y", "X")
            assert processed <= direct + 1e-9


class TestNCalls:
    def test_prefix(self):
        j = bsc_views_joint(0.1, 3)
        full = usable_evidence(j)
        two = usable_evidence(j, n_calls=2)
        assert two.increments == full.increments[:2]

    @pytest.mark.parametrize("n_calls", [-1, 0, 4])
    def test_out_of_range_rejected(self, n_calls):
        with pytest.raises(InvalidVariable, match=r"1\.\.3"):
            usable_evidence(bsc_views_joint(0.1, 3), n_calls=n_calls)


class TestCeilings:
    def test_parallel_arithmetic(self):
        p = TypeProfile(("b",), (3,), (0.2,))
        assert abs(parallel_ceiling(p, 1.0) - 0.6) < 1e-12

    def test_parallel_budget_binds(self):
        p = TypeProfile(("b",), (10,), (0.2,))
        assert abs(parallel_ceiling(p, 1.0) - 1.0) < 1e-12

    def test_parallel_two_types(self):
        p = TypeProfile(("b1", "b2"), (2, 1), (0.3, 0.5))
        assert abs(parallel_ceiling(p, 2.0) - 1.1) < 1e-12

    def test_sequential(self):
        p = TypeProfile(("b",), (4,), (0.05,), (0.1,))
        assert abs(sequential_ceiling(p, 1.0) - 0.4) < 1e-12
        p2 = TypeProfile(("b",), (4,), (0.05,), (0.5,))
        assert abs(sequential_ceiling(p2, 1.0) - 1.0) < 1e-12
        p3 = TypeProfile(("b1", "b2"), (2, 2), (0.1, 0.1), (0.2, 0.4))
        assert abs(sequential_ceiling(p3, 3.0) - 1.2) < 1e-12

    def test_parallel_bound_achievability(self):
        # under conditional independence the summed single-call bound holds
        rng = np.random.default_rng(4)
        for _ in range(10):
            p_xy = rng.random((2, 2)) + 0.1
            p_xy /= p_xy.sum()
            channels = []
            for _ in range(3):
                k = rng.random((2, 2, 2)) + 0.1
                k /= k.sum(axis=2, keepdims=True)
                channels.append(k)
            j = conditionally_independent_joint(p_xy, channels)
            total = conditional_mutual_information(j, ("Z1", "Z2", "Z3"), "Y", "X")
            summed = sum(single_call_info(j, f"Z{i}") for i in (1, 2, 3))
            assert total <= summed + 1e-9

    def test_max_step_dominates_single_call(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            j = random_joint(rng, (2, 2, 2, 2))
            assert max_step_info(j, "Z1") == single_call_info(j, "Z1")
            # the increment I(Z_i; Y | X, Z_<i) averages the per-history MI
            # over p(z_<i), so their supremum is at least the increment
            increments = usable_evidence(j).increments
            for i, call in enumerate(("Z1", "Z2")):
                assert max_step_info(j, call) >= increments[i] - 1e-12


def max_step_info_by_enumeration(joint, call):
    """Reference: condition on each history z_<i in turn, skipping zero-mass ones."""
    calls = call_names(joint)
    prev = calls[:calls.index(call)]
    if not prev:
        return single_call_info(joint, call)
    sizes = [joint.alphabet_sizes[joint.names.index(p)] for p in prev]
    best = 0.0
    for assignment in itertools.product(*(range(s) for s in sizes)):
        try:
            cond = joint.condition_on(dict(zip(prev, assignment)))
        except ValueError:
            continue  # zero-probability history
        best = max(best, conditional_mutual_information(cond, call, "Y", "X"))
    return best


class TestMaxStepInfo:
    def test_matches_enumeration_on_random_joints(self):
        rng = np.random.default_rng(7)
        for trial in range(60):
            n = int(rng.integers(1, 5))
            sizes = (int(rng.integers(1, 4)), int(rng.integers(2, 4))) + tuple(
                int(rng.integers(2, 4)) for _ in range(n)
            )
            p = rng.random(sizes)
            if trial % 2:
                p[rng.random(sizes) < 0.3] = 0.0  # zero cells
            if trial % 3 == 0 and n > 1:
                p[:, :, 0] = 0.0  # every history with Z1 = 0 has zero mass
            p /= p.sum()
            j = DiscreteJoint(tuple(["X", "Y"] + [f"Z{i}" for i in range(1, n + 1)]), p)
            for call in call_names(j):
                assert abs(max_step_info(j, call) - max_step_info_by_enumeration(j, call)) < 1e-12

    def test_matches_enumeration_on_bsc_views(self):
        j = bsc_views_joint(0.2, 6)
        for call in call_names(j):
            assert abs(max_step_info(j, call) - max_step_info_by_enumeration(j, call)) < 1e-12

    def test_every_history_zero_mass_gives_zero(self):
        # the constructor rejects an all-zero table, so build one around it
        j = object.__new__(DiscreteJoint)
        object.__setattr__(j, "names", ("X", "Y", "Z1", "Z2"))
        object.__setattr__(j, "probabilities", np.zeros((1, 2, 2, 2)))
        assert max_step_info(j, "Z2") == 0.0
        assert max_step_info_by_enumeration(j, "Z2") == 0.0


class TestRedundancyIdentity:
    def test_conditionally_independent_views(self):
        j = bsc_views_joint(0.2, 3)
        for i in (1, 2, 3):
            lhs, rhs, gap, coupling = redundancy_identity_check(j, i)
            assert abs(gap) < 1e-9
            assert abs(coupling) < 1e-10

    def test_exact_copy_decomposition(self):
        base = bsc_views_joint(0.1, 1)
        p = np.zeros((1, 2, 2, 2))
        for y in range(2):
            for z in range(2):
                p[0, y, z, z] = base.probabilities[0, y, z]
        j = DiscreteJoint(("X", "Y", "Z1", "Z2"), p)
        lhs, rhs, gap, coupling = redundancy_identity_check(j, 2)
        assert abs(lhs) < 1e-10  # the copy adds nothing
        assert abs(gap) < 1e-9
        overlap = conditional_mutual_information(j, "Z2", "Z1", "X")
        marginal = conditional_mutual_information(j, "Z2", "Y", "X")
        assert abs(overlap - (marginal + coupling)) < 1e-9

    def test_random_joint_identity(self):
        rng = np.random.default_rng(6)
        j = random_joint(rng, (2, 2, 2, 2))
        lhs, rhs, gap, _ = redundancy_identity_check(j, 2)
        assert abs(gap) < 1e-9

    def test_index_validated(self):
        with pytest.raises(InvalidVariable):
            redundancy_identity_check(bsc_views_joint(0.1, 1), 2)
