"""Core domain records for the test-generation learning loop.

Everything here is an immutable value object: requirements, test cases,
defect reports, and the QE feedback records that carry the learning signal.
No behavior beyond construction, validation, and serialization lives here.

Serialization contract: ``TestCase`` writes itself with ``to_dict`` for
the event log; ``DefectReport`` and ``FeedbackRecord`` round-trip through
``to_dict`` / ``from_dict``, and ``FeedbackRecord`` also through a
one-object-per-line JSONL encoding with severity spelled as an upper-camel
string (``"Critical"``, ``"High"``, ...).
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from collections.abc import Container, Mapping
from dataclasses import dataclass, field, fields
from enum import EnumMeta, IntEnum

DEFAULT_COVERAGE_DIM = 32


def stable_hash(text: str) -> int:
    """The 64-bit blake2b digest of ``text``'s UTF-8 bytes as a big-endian
    integer: the same on every run, process and platform, unlike ``hash``."""
    return int.from_bytes(hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "big")


class InputError(ValueError):
    """Input from outside qeloop that it cannot take: a config, knowledge
    snapshot, checkpoint, feedback line or event line. The message names the
    value at fault by its dotted path, or the file or line."""


def check_keys(
    what: str, d: object, required: frozenset[str], optional: frozenset[str] = frozenset()
) -> None:
    """Reject outside input whose keys are not exactly those its type reads."""
    if not isinstance(d, Mapping):
        raise InputError(f"{what} must be an object, got {type(d).__name__}")
    missing = required - d.keys()
    unknown = d.keys() - required - optional
    if missing or unknown:
        problems = [f"missing key(s) {sorted(missing)}"] if missing else []
        problems += [f"unknown key(s) {sorted(unknown)}"] if unknown else []
        raise InputError(f"{what}: {'; '.join(problems)}")


_MAX = sys.float_info.max
_KINDS = {str: "a string", bool: "a boolean", list: "a list", int: "an integer", float: "a finite number"}


def read_json(value, kind, what: str, key: str | int | None = None):
    """``value`` if it has the JSON kind ``kind``: ``str``, ``bool``, ``list``,
    ``int`` (not a boolean or ``2.0``), ``float`` (finite; an integer a float
    holds reads as that float) or an ``Enum`` class (a member's name, read as
    the member); else ``InputError("PATH must be KIND, got VALUE!r")``,
    VALUE!r cut after 1000 characters, as a whole section can be megabytes.
    PATH, built only then, is ``what`` and ``.key`` or ``[key]``, or nothing."""
    if type(value) is kind:
        # False for NaN and the infinities; exact for every int.
        if kind is not float or -_MAX <= value <= _MAX:
            return value
    elif kind is float:
        if type(value) is int and -_MAX <= value <= _MAX:
            return float(value)
    elif type(value) is str and isinstance(kind, EnumMeta):
        member = kind.__members__.get(value)
        if member is not None:
            return member
    path = what if key is None else f"{what}[{key}]" if type(key) is int else f"{what}.{key}"
    got = repr(value)
    got = got if len(got) <= 1000 else f"{got[:1000]}..."
    problem = f"must be {_KINDS.get(kind) or f'one of {list(kind.__members__)}'}, got {got}"
    raise InputError(f"{path} {problem}" if path else problem)


class GenerationStrategy(IntEnum):
    """Closed set of test-generation strategies; values are action indices."""

    HappyPath = 0
    Boundary = 1
    Negative = 2
    Integration = 3
    RegressionDerived = 4


class RetrievalMode(IntEnum):
    """How knowledge is retrieved while generating a test case."""

    VectorOnly = 0
    GraphOnly = 1
    Hybrid = 2


class Severity(IntEnum):
    """Defect severity with a total order: Critical > High > Medium > Low."""

    Low = 0
    Medium = 1
    High = 2
    Critical = 3


class AgentRole(IntEnum):
    """The five agent roles; values are stable across runs."""

    LegacyTestAnalysis = 0
    FunctionalChangeMapping = 1
    IntegrationPoint = 2
    TestCaseGeneration = 3
    ComplianceValidation = 4


@dataclass(frozen=True)
class Requirement:
    """One unit of workflow context that test cases are generated against."""

    id: str
    text: str
    component_tags: frozenset[str] = field(default_factory=frozenset)


@dataclass(frozen=True)
class TestCase:
    """A structured, abstract test case (no prose steps)."""

    id: str
    requirement_refs: tuple[str, ...]
    strategy: GenerationStrategy
    retrieval_mode: RetrievalMode
    coverage_vector: tuple[float, ...]
    generating_agent: AgentRole

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "requirement_refs": list(self.requirement_refs),
            "strategy": self.strategy.name,
            "retrieval_mode": self.retrieval_mode.name,
            "coverage_vector": list(self.coverage_vector),
            "generating_agent": self.generating_agent.name,
        }


@dataclass(frozen=True)
class DefectReport:
    """One defect verdict attached to one executed test case.

    ``defect_ref`` names the underlying catalog defect for a true report and
    is ``None`` for a false positive, which makes the true-report-to-defect
    mapping explicit and lets metrics count distinct detected defects.
    """

    id: str
    test_case_ref: str
    severity: Severity
    is_false_positive: bool
    defect_ref: str | None = None

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "test_case_ref": self.test_case_ref,
            "severity": self.severity.name,
            "is_false_positive": self.is_false_positive,
            "defect_ref": self.defect_ref,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "DefectReport":
        what = "DefectReport"
        check_keys(what, d, _DEFECT_REPORT_REQUIRED, _DEFECT_REPORT_OPTIONAL)
        return cls(
            id=read_json(d["id"], str, what, "id"),
            test_case_ref=read_json(d["test_case_ref"], str, what, "test_case_ref"),
            severity=read_json(d["severity"], Severity, what, "severity"),
            is_false_positive=read_json(d["is_false_positive"], bool, what, "is_false_positive"),
            defect_ref=None if d.get("defect_ref") is None else read_json(d["defect_ref"], str, what, "defect_ref"),
        )


_DEFECT_REPORT_OPTIONAL = frozenset({"defect_ref"})
_DEFECT_REPORT_REQUIRED = frozenset(f.name for f in fields(DefectReport)) - _DEFECT_REPORT_OPTIONAL


@dataclass(frozen=True)
class FeedbackRecord:
    """One QE verdict (simulated or replayed) on one executed test case."""

    test_case_ref: str
    defects: tuple[DefectReport, ...]
    execution_time: float
    baseline_time: float
    quality_rating: float
    requirement_coverage_assessment: float
    functional_coverage_validation: float
    workflow_integration_factor: float
    compliance_score: float

    def __post_init__(self):
        # The split is asked for several times per record, so it is made
        # once; plain attributes stay out of the fields, equality and to_dict.
        object.__setattr__(self, "_true_defects", tuple(d for d in self.defects if not d.is_false_positive))
        object.__setattr__(self, "_false_positives", tuple(d for d in self.defects if d.is_false_positive))

    def true_defects(self) -> tuple[DefectReport, ...]:
        return self._true_defects

    def false_positives(self) -> tuple[DefectReport, ...]:
        return self._false_positives

    def to_dict(self) -> dict:
        return {
            "test_case_ref": self.test_case_ref,
            "defects": [d.to_dict() for d in self.defects],
            "execution_time": self.execution_time,
            "baseline_time": self.baseline_time,
            "quality_rating": self.quality_rating,
            "requirement_coverage_assessment": self.requirement_coverage_assessment,
            "functional_coverage_validation": self.functional_coverage_validation,
            "workflow_integration_factor": self.workflow_integration_factor,
            "compliance_score": self.compliance_score,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "FeedbackRecord":
        what = "FeedbackRecord"
        check_keys(what, d, _FEEDBACK_RECORD_REQUIRED, _FEEDBACK_RECORD_OPTIONAL)
        return cls(
            test_case_ref=read_json(d["test_case_ref"], str, what, "test_case_ref"),
            defects=tuple(map(DefectReport.from_dict, read_json(d.get("defects", []), list, what, "defects"))),
            **{name: read_json(d[name], float, what, name) for name in _FEEDBACK_NUMBERS},
        )

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json_line(cls, line: str) -> "FeedbackRecord":
        return cls.from_dict(json.loads(line))


_FEEDBACK_RECORD_OPTIONAL = frozenset({"defects"})
_FEEDBACK_RECORD_REQUIRED = frozenset(f.name for f in fields(FeedbackRecord)) - _FEEDBACK_RECORD_OPTIONAL


# (field, low, high, low_inclusive, high_inclusive); None means unbounded.
_FEEDBACK_BOUNDS = (
    ("execution_time", 0.0, None, False, False),
    ("baseline_time", 0.0, None, False, False),
    ("quality_rating", 0.0, 1.0, True, True),
    ("requirement_coverage_assessment", 0.0, 1.0, True, True),
    ("functional_coverage_validation", 0.0, 1.0, True, True),
    ("workflow_integration_factor", 0.0, 2.0, False, True),
    ("compliance_score", 0.0, 1.0, True, True),
)
# The numeric fields of a FeedbackRecord.
_FEEDBACK_NUMBERS = tuple(bound[0] for bound in _FEEDBACK_BOUNDS)


def validate_feedback(
    record: FeedbackRecord,
    catalog: Container[str],
) -> FeedbackRecord:
    """Check all range and referential invariants of a feedback record.

    ``catalog`` holds the ids of the known test cases: a set, a mapping
    keyed by id or a list, asked for membership as given. Returns the
    record unchanged on success.
    """
    for name, lo, hi, lo_inc, hi_inc in _FEEDBACK_BOUNDS:
        value = getattr(record, name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise InputError(f"{name}={value!r} outside finite real")
        if (lo is not None and (value < lo or (not lo_inc and value == lo))) or (
            hi is not None and (value > hi or (not hi_inc and value == hi))
        ):
            bounds = f"{'[' if lo_inc else '('}{lo}, {hi if hi is not None else 'inf'}{']' if hi_inc else ')'}"
            raise InputError(f"{name}={value!r} outside {bounds}")

    if record.test_case_ref not in catalog:
        raise InputError(f"feedback references unknown test case {record.test_case_ref!r}")
    for report in record.defects:
        if report.test_case_ref != record.test_case_ref:
            raise InputError(
                f"defect report {report.id} references {report.test_case_ref!r}, "
                f"expected {record.test_case_ref!r}"
            )
        if report.is_false_positive and report.defect_ref is not None:
            raise InputError(f"defect_ref={report.defect_ref!r} outside None for false positives")
        if not report.is_false_positive and report.defect_ref is None:
            raise InputError("defect_ref=None outside defect id for true reports")
    return record
