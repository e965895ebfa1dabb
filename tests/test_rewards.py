import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeloop.domain import DefectReport, FeedbackRecord, Severity
from qeloop.rewards import (
    RewardWeights,
    SeverityWeights,
    adaptation_reward,
    combine,
    compliance_reward,
    coverage_reward,
    effectiveness_reward,
    efficiency_reward,
    trend_slope,
)


def record(
    defects=(),
    execution_time=1.0,
    baseline_time=1.0,
    req_cov=0.5,
    func_cov=0.5,
    wif=1.0,
    compliance=0.5,
    quality=1.0,
) -> FeedbackRecord:
    return FeedbackRecord(
        test_case_ref="tc",
        defects=tuple(defects),
        execution_time=execution_time,
        baseline_time=baseline_time,
        quality_rating=quality,
        requirement_coverage_assessment=req_cov,
        functional_coverage_validation=func_cov,
        workflow_integration_factor=wif,
        compliance_score=compliance,
    )


def true_defect(severity: Severity, i: int = 0) -> DefectReport:
    return DefectReport(f"r{i}", "tc", severity, False, f"def-{i}")


def false_positive(i: int = 0) -> DefectReport:
    return DefectReport(f"f{i}", "tc", Severity.Low, True, None)


SW = SeverityWeights()  # Critical 4, High 3, Medium 2, Low 1, penalty 0.5


class TestEffectiveness:
    def test_no_defects_no_fps_is_zero(self):
        batch = [record() for _ in range(10)]
        assert effectiveness_reward(batch, SW) == 0.0

    def test_three_medium_defects_in_ten_tests(self):
        batch = [record() for _ in range(10)]
        batch[0] = record(defects=[true_defect(Severity.Medium, 0)])
        batch[1] = record(defects=[true_defect(Severity.Medium, 1)])
        batch[2] = record(defects=[true_defect(Severity.Medium, 2)])
        # (3/10) * 2.0, no false positives
        assert effectiveness_reward(batch, SW) == pytest.approx(0.6, abs=1e-12)

    def test_false_positives_penalized_by_rate(self):
        batch = [record() for _ in range(10)]
        batch[0] = record(defects=[false_positive(0)])
        batch[1] = record(defects=[false_positive(1)])
        # -0.5 * (2/10)
        assert effectiveness_reward(batch, SW) == pytest.approx(-0.1, abs=1e-12)

    def test_mixed_severities_use_mean_weight(self):
        batch = [record() for _ in range(4)]
        batch[0] = record(defects=[true_defect(Severity.Critical, 0)])
        batch[1] = record(defects=[true_defect(Severity.Low, 1)])
        # (2/4) * mean(4, 1) = 0.5 * 2.5
        assert effectiveness_reward(batch, SW) == pytest.approx(1.25, abs=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="^effectiveness_reward over empty batch$"):
            effectiveness_reward([], SW)

    def test_adding_critical_defect_never_decreases(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            batch = []
            for i in range(n):
                defects = []
                if rng.random() < 0.4:
                    defects.append(true_defect(Severity(int(rng.integers(0, 4))), i))
                if rng.random() < 0.3:
                    defects.append(false_positive(i))
                batch.append(record(defects=defects))
            before = effectiveness_reward(batch, SW)
            boosted = list(batch)
            boosted[0] = record(
                defects=list(batch[0].defects) + [true_defect(Severity.Critical, 99)]
            )
            assert effectiveness_reward(boosted, SW) >= before - 1e-12

    def test_adding_false_positive_never_increases(self):
        batch = [record(defects=[true_defect(Severity.High, 0)]), record()]
        before = effectiveness_reward(batch, SW)
        worse = [batch[0], record(defects=[false_positive(5)])]
        assert effectiveness_reward(worse, SW) <= before


class TestCoverage:
    def test_zero_assessments(self):
        assert coverage_reward([record(req_cov=0.0, func_cov=0.0)] * 3) == 0.0

    def test_full_assessments_hit_upper_bound(self):
        assert coverage_reward([record(req_cov=1.0, func_cov=1.0)] * 3) == 2.0

    def test_hand_mean(self):
        batch = [record(req_cov=0.5, func_cov=0.5), record(req_cov=1.0, func_cov=0.0)]
        assert coverage_reward(batch) == pytest.approx(1.0, abs=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="^coverage_reward over empty batch$"):
            coverage_reward([])


class TestEfficiency:
    def test_equal_times_unit_factor(self):
        assert efficiency_reward([record(execution_time=3.0, baseline_time=3.0)]) == 1.0

    def test_hand_ratio(self):
        assert efficiency_reward([record(execution_time=5.0, baseline_time=10.0)]) == pytest.approx(2.0)

    def test_clamps_at_four(self):
        batch = [record(execution_time=1.0, baseline_time=100.0, wif=2.0)]
        assert efficiency_reward(batch) == 4.0

    def test_non_positive_time_rejected(self):
        with pytest.raises(ValueError, match="^times must be positive, got execution=0.0 baseline="):
            efficiency_reward([record(execution_time=0.0)])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="^efficiency_reward over empty batch$"):
            efficiency_reward([])


class TestCompliance:
    def test_constant_scores(self):
        assert compliance_reward([record(compliance=1.0)] * 4) == 1.0

    def test_hand_mean(self):
        batch = [record(compliance=0.4), record(compliance=0.6)]
        assert compliance_reward(batch) == pytest.approx(0.5, abs=1e-12)

    def test_zero(self):
        assert compliance_reward([record(compliance=0.0)]) == 0.0

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="^compliance_reward over empty batch$"):
            compliance_reward([])


class TestAdaptation:
    def test_constant_history_is_zero(self):
        assert adaptation_reward([0.7, 0.7, 0.7, 0.7]) == 0.0

    def test_increasing_history_is_positive(self):
        assert adaptation_reward([0.1, 0.2, 0.35, 0.5]) > 0.0

    def test_unit_step_history_matches_tanh_of_unit_slope(self):
        assert adaptation_reward([0.0, 1.0, 2.0, 3.0]) == pytest.approx(math.tanh(1.0), abs=1e-12)

    def test_short_history_is_zero(self):
        assert adaptation_reward([]) == 0.0
        assert adaptation_reward([0.4]) == 0.0

    @given(st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_slope_matches_polyfit_oracle(self, history):
        slope = trend_slope(history)
        oracle = float(np.polyfit(np.arange(len(history)), np.asarray(history), 1)[0])
        assert slope == pytest.approx(oracle, abs=1e-8)
        assert -1.0 <= adaptation_reward(history) <= 1.0


class TestCombine:
    def test_zero_components(self):
        out = combine(0, 0, 0, 0, 0, RewardWeights())
        assert out.total == 0.0

    def test_equal_weights_hand_value(self):
        weights = RewardWeights(0.2, 0.2, 0.2, 0.2, 0.2)
        out = combine(1.0, 2.0, 1.0, 1.0, 0.0, weights)
        assert out.total == pytest.approx(1.0, abs=1e-12)

    def test_projection_weight(self):
        weights = RewardWeights(1.0, 0.0, 0.0, 0.0, 0.0)
        for x in (-2.0, 0.0, 0.31, 4.5):
            assert combine(x, 9.0, 9.0, 9.0, 9.0, weights).total == pytest.approx(x, abs=1e-12)

    def test_total_matches_dot_product_invariant(self):
        weights = RewardWeights()
        out = combine(1.2, 0.4, 2.2, 0.9, -0.3, weights)
        components = (out.effectiveness, out.coverage, out.efficiency, out.compliance, out.adaptation)
        expected = sum(a * c for a, c in zip(weights.as_tuple(), components))
        assert out.total == pytest.approx(expected, abs=1e-9)

    @given(
        st.lists(st.floats(min_value=-10, max_value=10), min_size=5, max_size=5),
        st.floats(min_value=-3, max_value=3),
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_linearity_in_each_component(self, components, delta, index):
        weights = RewardWeights()
        base = combine(*components, weights).total
        bumped = list(components)
        bumped[index] += delta
        shifted = combine(*bumped, weights).total
        assert shifted - base == pytest.approx(weights.as_tuple()[index] * delta, abs=1e-8)

    def test_permutation_invariance(self):
        # Permuting (component, weight) pairs together leaves the total fixed.
        components = (1.0, 2.0, 3.0, 4.0, 5.0)
        weights = (0.1, 0.2, 0.3, 0.25, 0.15)
        total = sum(a * c for a, c in zip(weights, components))
        perm = (3, 0, 4, 2, 1)
        total_perm = sum(weights[i] * components[i] for i in perm)
        assert total == pytest.approx(total_perm, abs=1e-12)


class TestWeightValidation:
    def test_default_weights_sum_to_one(self):
        RewardWeights().validate()

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError):
            RewardWeights(0.5, 0.2, 0.15, 0.15, 0.15).validate()

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            RewardWeights(-0.1, 0.3, 0.3, 0.3, 0.2).validate()

    def test_severity_order_enforced(self):
        with pytest.raises(ValueError):
            SeverityWeights(critical=2.0, high=3.0, medium=2.0, low=1.0).validate()

    def test_effectiveness_only_is_valid(self):
        RewardWeights.effectiveness_only().validate()
