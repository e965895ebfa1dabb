"""Five-component reward computed from batches of QE feedback.

The total reward is a weighted sum of effectiveness (severity-weighted
defect discovery minus a false-positive penalty scaled by the FP rate),
coverage (sum of the two QE coverage assessments), efficiency (time ratio
times workflow integration, clamped per record), compliance (mean audit
score), and adaptation (tanh of the recent reward trend slope).

All functions are pure over immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import repeat
from operator import mul, sub
from typing import Mapping, Sequence

from .config import ConfigCodec
from .domain import FeedbackRecord, Severity, check_keys, read_json

EFFICIENCY_CLAMP = 4.0


@dataclass(frozen=True)
class RewardWeights(ConfigCodec):
    """Component weights; must sum to 1 within 1e-9."""

    alpha_effectiveness: float = 0.35
    alpha_coverage: float = 0.20
    alpha_efficiency: float = 0.15
    alpha_compliance: float = 0.15
    alpha_adaptation: float = 0.15

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (
            self.alpha_effectiveness,
            self.alpha_coverage,
            self.alpha_efficiency,
            self.alpha_compliance,
            self.alpha_adaptation,
        )

    def validate(self) -> "RewardWeights":
        values = self.as_tuple()
        if any(a < 0 for a in values):
            raise ValueError(f"negative reward weight in {values}")
        total = sum(values)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"reward weights sum to {total}, expected 1.0")
        return self

    @classmethod
    def effectiveness_only(cls) -> "RewardWeights":
        return cls(1.0, 0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class SeverityWeights(ConfigCodec):
    """Per-severity positive weights, strictly decreasing with severity."""

    critical: float = 4.0
    high: float = 3.0
    medium: float = 2.0
    low: float = 1.0
    false_positive_penalty: float = 0.5

    def weight_of(self, severity: Severity) -> float:
        return {
            Severity.Critical: self.critical,
            Severity.High: self.high,
            Severity.Medium: self.medium,
            Severity.Low: self.low,
        }[severity]

    def validate(self) -> "SeverityWeights":
        if not (self.critical > self.high > self.medium > self.low > 0):
            raise ValueError(
                f"severity weights must satisfy Critical > High > Medium > Low > 0, "
                f"got ({self.critical}, {self.high}, {self.medium}, {self.low})"
            )
        if self.false_positive_penalty < 0:
            raise ValueError(f"false_positive_penalty {self.false_positive_penalty} negative")
        return self


@dataclass(frozen=True)
class RewardBreakdown:
    """Raw component values plus the weighted total consumed by learners."""

    effectiveness: float
    coverage: float
    efficiency: float
    compliance: float
    adaptation: float
    total: float

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: Mapping) -> "RewardBreakdown":
        """The breakdown ``to_dict`` wrote; a missing or unknown key, or a
        value that is not a finite JSON number, is rejected with its field name."""
        names = [f.name for f in fields(cls)]
        check_keys("RewardBreakdown", d, frozenset(names))
        return cls(*(read_json(d[name], float, "RewardBreakdown", name) for name in names))


def effectiveness_reward(batch: Sequence[FeedbackRecord], sw: SeverityWeights) -> float:
    """Severity-weighted true-defect rate minus FP-rate-scaled penalty.

    (true defects / tests) * mean severity weight of the true defects,
    minus false_positive_penalty * (false positives / tests). With no true
    defects the first term is zero.
    """
    if not batch:
        raise ValueError("effectiveness_reward over empty batch")
    total_tests = len(batch)
    true_weights = [
        sw.weight_of(d.severity) for record in batch for d in record.true_defects()
    ]
    fp_count = sum(len(record.false_positives()) for record in batch)
    positive = 0.0
    if true_weights:
        positive = (len(true_weights) / total_tests) * (sum(true_weights) / len(true_weights))
    return positive - sw.false_positive_penalty * (fp_count / total_tests)


def coverage_reward(batch: Sequence[FeedbackRecord]) -> float:
    """Mean of (requirement coverage + functional coverage); range [0, 2]."""
    if not batch:
        raise ValueError("coverage_reward over empty batch")
    return sum(
        r.requirement_coverage_assessment + r.functional_coverage_validation for r in batch
    ) / len(batch)


def efficiency_reward(batch: Sequence[FeedbackRecord]) -> float:
    """Mean of (baseline/actual) * workflow factor, clamped per record to [0, 4]."""
    if not batch:
        raise ValueError("efficiency_reward over empty batch")
    total = 0.0
    for r in batch:
        if r.execution_time <= 0 or r.baseline_time <= 0:
            raise ValueError(
                f"times must be positive, got execution={r.execution_time} baseline={r.baseline_time}"
            )
        ratio = (r.baseline_time / r.execution_time) * r.workflow_integration_factor
        total += min(EFFICIENCY_CLAMP, max(0.0, ratio))
    return total / len(batch)


def compliance_reward(batch: Sequence[FeedbackRecord]) -> float:
    """Mean compliance score over the batch; range [0, 1]."""
    if not batch:
        raise ValueError("compliance_reward over empty batch")
    return sum(r.compliance_score for r in batch) / len(batch)


def trend_slope(history: Sequence[float]) -> float:
    """Least-squares slope of history against unit-spaced steps."""
    n = len(history)
    if n < 2:
        return 0.0
    steps, denominator = _centred_steps(n)
    y_mean = sum(history) / n
    num = sum(map(mul, steps, map(sub, history, repeat(y_mean))))
    return num / denominator


@lru_cache(maxsize=None)
def _centred_steps(n: int) -> tuple[tuple[float, ...], float]:
    """The steps 0..n-1 minus their mean, and the sum of their squares."""
    x_mean = (n - 1) / 2.0
    steps = tuple(i - x_mean for i in range(n))
    return steps, sum(x**2 for x in steps)


def adaptation_reward(history: Sequence[float]) -> float:
    """tanh of the reward-trend slope over the recent window; range [-1, 1].

    Returns 0 when the window holds fewer than two entries.
    """
    return math.tanh(trend_slope(history))


def combine(
    effectiveness: float,
    coverage: float,
    efficiency: float,
    compliance: float,
    adaptation: float,
    weights: RewardWeights,
) -> RewardBreakdown:
    """Weighted sum of the five components into a RewardBreakdown."""
    components = (effectiveness, coverage, efficiency, compliance, adaptation)
    total = sum(a * c for a, c in zip(weights.as_tuple(), components))
    return RewardBreakdown(*components, total=total)


def batch_reward(
    batch: Sequence[FeedbackRecord],
    severity: SeverityWeights,
    weights: RewardWeights,
    history: Sequence[float],
) -> RewardBreakdown:
    """The five components of one feedback batch, combined under ``weights``.

    ``history`` holds the recent reward totals the adaptation term reads; an
    empty one gives an adaptation of 0.
    """
    return combine(
        effectiveness_reward(batch, severity),
        coverage_reward(batch),
        efficiency_reward(batch),
        compliance_reward(batch),
        adaptation_reward(history),
        weights,
    )
