"""Seeded simulation of the Quality-Engineer feedback channel.

A synthetic project plants defects with hidden sparse signature vectors;
executing a test detects each reachable defect with probability

    detect(x) = clamp01(S(x) * affinity(strategy, severity))

where x = dot(coverage, signature) in [0, 1] and S is a sigmoid in x with
sharpness beta and midpoint tau, rescaled so S(0) = 0 and S(1) = 1 exactly
(zero overlap can never fire a defect, full overlap at affinity 1 always
does). False positives fire with a flat per-test probability. Timing,
quality, and coverage assessments are derived deterministically, so the
whole model is a pure function of (inputs, rng state).

The module also replays externally supplied JSONL feedback files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Iterator, Mapping

import numpy as np

from .agents import SIGNATURE_ACTIVE_DIMS, strategy_signature
from .config import ConfigCodec
from .domain import (
    DEFAULT_COVERAGE_DIM,
    DefectReport,
    FeedbackRecord,
    GenerationStrategy,
    InputError,
    Requirement,
    Severity,
    TestCase,
    validate_feedback,
)
from .knowledge import EMBED_DIM_MIN, EdgeType


DEFAULT_SEVERITY_PROPORTIONS: dict[Severity, float] = {
    Severity.Critical: 0.10,
    Severity.High: 0.20,
    Severity.Medium: 0.40,
    Severity.Low: 0.30,
}

# Each severity class has a matched strategy whose signature its defects
# lean toward: that coupling, plus the affinity peaks below, is the planted
# structure the learning loop is supposed to discover.
SEVERITY_MATCHED_STRATEGY: dict[Severity, GenerationStrategy] = {
    Severity.Critical: GenerationStrategy.Integration,
    Severity.High: GenerationStrategy.Negative,
    Severity.Medium: GenerationStrategy.Boundary,
    Severity.Low: GenerationStrategy.HappyPath,
}

# Rows: strategy; columns: severity. Integration is strongest on Critical
# defects and Boundary on Medium ones; off-peak entries stay low so the
# best (strategy, mode) pair is strictly best by construction.
DEFAULT_AFFINITY: dict[GenerationStrategy, dict[Severity, float]] = {
    GenerationStrategy.HappyPath: {
        Severity.Critical: 0.05, Severity.High: 0.10, Severity.Medium: 0.15, Severity.Low: 0.35,
    },
    GenerationStrategy.Boundary: {
        Severity.Critical: 0.10, Severity.High: 0.30, Severity.Medium: 1.00, Severity.Low: 0.30,
    },
    GenerationStrategy.Negative: {
        Severity.Critical: 0.15, Severity.High: 0.60, Severity.Medium: 0.20, Severity.Low: 0.15,
    },
    GenerationStrategy.Integration: {
        Severity.Critical: 1.00, Severity.High: 0.30, Severity.Medium: 0.10, Severity.Low: 0.05,
    },
    GenerationStrategy.RegressionDerived: {
        Severity.Critical: 0.15, Severity.High: 0.20, Severity.Medium: 0.30, Severity.Low: 0.25,
    },
}

STRATEGY_STEPS: dict[GenerationStrategy, int] = {
    GenerationStrategy.HappyPath: 3,
    GenerationStrategy.Boundary: 4,
    GenerationStrategy.Negative: 4,
    GenerationStrategy.Integration: 6,
    GenerationStrategy.RegressionDerived: 5,
}

STRATEGY_COMPLIANCE: dict[GenerationStrategy, float] = {
    GenerationStrategy.HappyPath: 0.22,
    GenerationStrategy.Boundary: 0.18,
    GenerationStrategy.Negative: 0.15,
    GenerationStrategy.Integration: 0.12,
    GenerationStrategy.RegressionDerived: 0.18,
}

_TAG_VOCAB = ("billing", "inventory", "auth", "reporting", "shipping", "pricing", "scheduling", "audit")


@dataclass(frozen=True)
class ExecutionModel(ConfigCodec):
    """Knobs of the simulated execution channel."""

    detection_sharpness: float = 5.0
    detection_midpoint: float = 0.35
    false_positive_rate: float = 0.08
    base_time: float = 4.0
    per_step_time: float = 0.25
    baseline_time: float = 1.5
    workflow_integration_factor: float = 1.0

    def validate(self) -> "ExecutionModel":
        if self.detection_sharpness <= 0:
            raise ValueError(f"detection_sharpness must be positive, got {self.detection_sharpness}")
        if not 0.0 <= self.false_positive_rate < 1.0:
            raise ValueError(f"false_positive_rate {self.false_positive_rate} outside [0, 1)")
        if self.base_time <= 0 or self.per_step_time <= 0 or self.baseline_time <= 0:
            raise ValueError("times must be positive")
        if not 0.0 < self.workflow_integration_factor <= 2.0:
            raise ValueError(
                f"workflow_integration_factor {self.workflow_integration_factor} outside (0, 2]"
            )
        return self

    @cached_property
    def detection_bounds(self) -> tuple[float, float]:
        """The raw detection sigmoid at overlap 0 and at overlap 1."""
        return _raw_detection(0.0, self), _raw_detection(1.0, self)


@dataclass(frozen=True)
class EnvConfig(ConfigCodec):
    """Project generation knobs.

    A defect signature mixes its requirement's base pattern, the signature
    of the strategy matched to its severity, and a sparse noise pattern,
    with the three weights below (renormalized to unit length).
    """

    n_requirements: int = 20
    n_defects: int = 40
    d_cov: int = DEFAULT_COVERAGE_DIM
    severity_proportions: Mapping[Severity, float] = field(
        default_factory=lambda: dict(DEFAULT_SEVERITY_PROPORTIONS)
    )
    requirement_link_density: float = 0.15
    signature_requirement_weight: float = 0.55
    signature_strategy_weight: float = 0.30
    signature_noise_weight: float = 0.25

    def validate(self) -> "EnvConfig":
        if self.n_requirements < 1:
            raise ValueError(f"n_requirements must be >= 1, got {self.n_requirements}")
        if self.n_defects < 0:
            raise ValueError(f"n_defects must be >= 0, got {self.n_defects}")
        if self.d_cov < EMBED_DIM_MIN:
            raise ValueError(f"d_cov must be >= {EMBED_DIM_MIN}, got {self.d_cov}")
        total = sum(self.severity_proportions.values())
        if abs(total - 1.0) > 1e-9 or any(p < 0 for p in self.severity_proportions.values()):
            raise ValueError(f"severity proportions must be non-negative and sum to 1, got {total}")
        if not 0.0 <= self.requirement_link_density <= 1.0:
            raise ValueError("requirement_link_density outside [0, 1]")
        weights = (
            self.signature_requirement_weight,
            self.signature_strategy_weight,
            self.signature_noise_weight,
        )
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise ValueError(f"signature mix weights must be non-negative and not all zero: {weights}")
        return self


@dataclass(frozen=True)
class DefectSpec:
    """Catalog ground truth for one planted defect (signature stays hidden)."""

    id: str
    severity: Severity
    signature: tuple[float, ...]
    requirement_ref: str


@dataclass(frozen=True)
class SyntheticProject:
    """A generated project: requirements, hidden defect catalog, affinity."""

    requirements: tuple[Requirement, ...]
    defects: tuple[DefectSpec, ...]
    affinity: Mapping[GenerationStrategy, Mapping[Severity, float]]
    requirement_links: tuple[tuple[str, str, EdgeType], ...]

    def defects_by_requirement(self) -> Mapping[str, tuple[DefectSpec, ...]]:
        """Each requirement's defects in catalog order; built once, read-only."""
        return self._defects_by_requirement

    @cached_property
    def _defects_by_requirement(self) -> Mapping[str, tuple[DefectSpec, ...]]:
        out: dict[str, list[DefectSpec]] = {r.id: [] for r in self.requirements}
        for defect in self.defects:
            out[defect.requirement_ref].append(defect)
        return MappingProxyType({rid: tuple(defects) for rid, defects in out.items()})

    @cached_property
    def signatures_by_requirement(self) -> Mapping[str, tuple[np.ndarray, ...]]:
        """Each requirement's defect signatures as read-only float64 arrays,
        in the order of ``defects_by_requirement``; built once per project."""
        out = {}
        for rid, defects in self._defects_by_requirement.items():
            out[rid] = tuple(np.asarray(d.signature) for d in defects)
            for signature in out[rid]:
                signature.flags.writeable = False
        return MappingProxyType(out)

    def affinity_of(self, strategy: GenerationStrategy, severity: Severity) -> float:
        return self.affinity[strategy][severity]


def _severity_allocation(n: int, proportions: Mapping[Severity, float]) -> list[Severity]:
    """Largest-remainder allocation so counts track proportions exactly."""
    ordered = sorted(proportions.items(), key=lambda kv: int(kv[0]))
    raw = [(sev, n * p) for sev, p in ordered]
    counts = {sev: int(x) for sev, x in raw}
    remainder = n - sum(counts.values())
    by_frac = sorted(raw, key=lambda kv: (-(kv[1] - int(kv[1])), int(kv[0])))
    for sev, _ in by_frac[:remainder]:
        counts[sev] += 1
    out: list[Severity] = []
    for sev, _ in ordered:
        out.extend([sev] * counts[sev])
    return out


def _sparse_pattern(rng: np.random.Generator, d_cov: int) -> np.ndarray:
    dims = rng.choice(d_cov, size=SIGNATURE_ACTIVE_DIMS, replace=False)
    vec = np.zeros(d_cov, dtype=np.float64)
    vec[dims] = 1.0
    return vec / np.linalg.norm(vec)


def generate_project(config: EnvConfig, seed: int) -> SyntheticProject:
    """Seeded synthetic project; identical seed gives an identical project.

    Defects are assigned round-robin over a seeded shuffle of requirements;
    severities follow the configured proportions exactly (largest-remainder
    allocation, then a seeded shuffle). Each defect's signature leans on its
    requirement's base pattern so knowledge about a requirement transfers
    across its defects.
    """
    config = config.validate()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), 0x70726F6A])))
    requirements: list[Requirement] = []
    base_patterns: dict[str, np.ndarray] = {}
    for i in range(config.n_requirements):
        rid = f"req-{i:03d}"
        tags = frozenset(
            str(_TAG_VOCAB[j]) for j in rng.choice(len(_TAG_VOCAB), size=2, replace=False)
        )
        text = f"requirement {i} covering " + " and ".join(sorted(tags))
        requirements.append(Requirement(id=rid, text=text, component_tags=tags))
        base_patterns[rid] = _sparse_pattern(rng, config.d_cov)

    severities = _severity_allocation(config.n_defects, config.severity_proportions)
    sev_order = rng.permutation(len(severities))
    req_order = rng.permutation(config.n_requirements)
    defects: list[DefectSpec] = []
    for k in range(config.n_defects):
        rid = requirements[req_order[k % config.n_requirements]].id
        severity = severities[sev_order[k]]
        matched = strategy_signature(SEVERITY_MATCHED_STRATEGY[severity], config.d_cov)
        raw = (
            config.signature_requirement_weight * base_patterns[rid]
            + config.signature_strategy_weight * matched
            + config.signature_noise_weight * _sparse_pattern(rng, config.d_cov)
        )
        signature = raw / np.linalg.norm(raw)
        defects.append(
            DefectSpec(
                id=f"def-{k:03d}",
                severity=severity,
                signature=tuple(float(x) for x in signature),
                requirement_ref=rid,
            )
        )

    links: list[tuple[str, str, EdgeType]] = []
    for i in range(config.n_requirements):
        for j in range(i + 1, config.n_requirements):
            if rng.random() < config.requirement_link_density:
                et = EdgeType.DependsOn if rng.random() < 0.5 else EdgeType.Impacts
                links.append((requirements[i].id, requirements[j].id, et))

    return SyntheticProject(
        requirements=tuple(requirements),
        defects=tuple(defects),
        affinity={s: dict(row) for s, row in DEFAULT_AFFINITY.items()},
        requirement_links=tuple(links),
    )


def detection_probability(overlap: float, model: ExecutionModel) -> float:
    """Sigmoid in the coverage/signature overlap, rescaled to hit 0 and 1.

    The raw sigmoid never reaches 0 or 1; rescaling over overlap in [0, 1]
    makes zero overlap exactly undetectable and full overlap certain
    (before the affinity factor), while keeping sharpness and midpoint.
    """
    lo, hi = model.detection_bounds
    scaled = (_raw_detection(min(max(overlap, 0.0), 1.0), model) - lo) / (hi - lo)
    return min(1.0, max(0.0, scaled))


def _raw_detection(x: float, model: ExecutionModel) -> float:
    """The sigmoid before rescaling, with sharpness beta and midpoint tau."""
    beta = model.detection_sharpness
    tau = model.detection_midpoint
    return 1.0 / (1.0 + math.exp(-beta * (x - tau)))


def execute_test(
    test: TestCase,
    project: SyntheticProject,
    model: ExecutionModel,
    rng: np.random.Generator,
) -> FeedbackRecord:
    """Simulate one QE execution of one test case.

    Draw order is fixed (defects in catalog order, then the false-positive
    draw), so a fixed rng state fully determines the outcome.
    """
    by_req = project.defects_by_requirement()
    signatures = project.signatures_by_requirement
    for ref in test.requirement_refs:
        if ref not in by_req:
            raise ValueError(f"test {test.id} references unknown requirement {ref!r}")

    coverage = np.asarray(test.coverage_vector, dtype=np.float64)
    reports: list[DefectReport] = []
    best_overlap_per_req: dict[str, float] = {}
    for ref in test.requirement_refs:
        best = 0.0
        for defect, signature in zip(by_req[ref], signatures[ref]):
            overlap = float(coverage @ signature)
            best = max(best, min(1.0, overlap))
            p = detection_probability(overlap, model) * project.affinity_of(
                test.strategy, defect.severity
            )
            p = min(1.0, max(0.0, p))
            if rng.random() < p:
                reports.append(
                    DefectReport(
                        id=f"rep-{test.id}-{defect.id}",
                        test_case_ref=test.id,
                        severity=defect.severity,
                        is_false_positive=False,
                        defect_ref=defect.id,
                    )
                )
        best_overlap_per_req[ref] = best

    if rng.random() < model.false_positive_rate:
        reports.append(
            DefectReport(
                id=f"rep-{test.id}-fp",
                test_case_ref=test.id,
                severity=Severity.Low,
                is_false_positive=True,
                defect_ref=None,
            )
        )

    execution_time = model.base_time + model.per_step_time * STRATEGY_STEPS[test.strategy]

    true_count = sum(1 for r in reports if not r.is_false_positive)
    fp_count = len(reports) - true_count
    quality = true_count / (true_count + fp_count) if reports else 1.0

    overlaps = [best_overlap_per_req[ref] for ref in test.requirement_refs]
    requirement_coverage = sum(overlaps) / len(overlaps)
    functional_coverage = max(overlaps)

    return FeedbackRecord(
        test_case_ref=test.id,
        defects=tuple(reports),
        execution_time=execution_time,
        baseline_time=model.baseline_time,
        quality_rating=quality,
        requirement_coverage_assessment=min(1.0, requirement_coverage),
        functional_coverage_validation=min(1.0, functional_coverage),
        workflow_integration_factor=model.workflow_integration_factor,
        compliance_score=STRATEGY_COMPLIANCE[test.strategy],
    )


def replay_feedback(
    path,
    on_error: Callable[[InputError], None] | None = None,
) -> Iterator[FeedbackRecord]:
    """Yield validated feedback records from a JSONL file in file order.

    A line that is not UTF-8 text, not JSON, or not a record that
    ``FeedbackRecord.from_dict`` reads and ``validate_feedback`` accepts
    raises ``InputError("line N: ...")`` with its 1-based number; passing
    ``on_error`` reports it there instead and keeps going. Lines are decoded
    one by one, so a byte that is not UTF-8 costs only its line. A replayed
    record's own test id is taken as known, so only its defect reports'
    references are checked.
    """
    with open(path, "rb") as fh:
        for line_number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = FeedbackRecord.from_json_line(line.decode("utf-8"))
                validate_feedback(record, {record.test_case_ref})
            except (UnicodeDecodeError, json.JSONDecodeError, InputError) as exc:
                err = InputError(f"line {line_number}: {exc}")
                if on_error is None:
                    raise err from exc
                on_error(err)
                continue
            yield record
