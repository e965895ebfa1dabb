import json
from dataclasses import fields, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qeloop.domain import (
    AgentRole,
    DefectReport,
    FeedbackRecord,
    GenerationStrategy,
    InputError,
    RetrievalMode,
    Severity,
    validate_feedback,
)


def make_record(**overrides) -> FeedbackRecord:
    base = dict(
        test_case_ref="tc-1",
        defects=(),
        execution_time=1.5,
        baseline_time=2.0,
        quality_rating=0.8,
        requirement_coverage_assessment=0.5,
        functional_coverage_validation=0.6,
        workflow_integration_factor=1.0,
        compliance_score=0.9,
    )
    base.update(overrides)
    return FeedbackRecord(**base)


class TestValidateFeedback:
    def test_valid_record_returned_unchanged(self):
        record = make_record()
        assert validate_feedback(record, {"tc-1"}) is record

    def test_quality_rating_above_one_rejected(self):
        record = make_record(quality_rating=1.3)
        with pytest.raises(InputError, match=r"^quality_rating=1.3 outside \[0.0, 1.0\]$"):
            validate_feedback(record, {"tc-1"})

    def test_dangling_test_reference_rejected(self):
        record = make_record(test_case_ref="tc-999")
        with pytest.raises(InputError, match="^feedback references unknown test case 'tc-999'$"):
            validate_feedback(record, {"tc-1"})

    def test_zero_execution_time_rejected(self):
        with pytest.raises(InputError, match=r"^execution_time=0.0 outside \(0.0, inf\)$"):
            validate_feedback(make_record(execution_time=0.0), {"tc-1"})

    def test_workflow_factor_bounds_are_half_open(self):
        validate_feedback(make_record(workflow_integration_factor=2.0), {"tc-1"})
        with pytest.raises(InputError, match=r"^workflow_integration_factor=0.0 outside \(0.0, 2.0\]$"):
            validate_feedback(make_record(workflow_integration_factor=0.0), {"tc-1"})
        with pytest.raises(InputError, match=r"^workflow_integration_factor=2.1 outside \(0.0, 2.0\]$"):
            validate_feedback(make_record(workflow_integration_factor=2.1), {"tc-1"})

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_number_rejected(self, value):
        with pytest.raises(InputError, match="^baseline_time=.* outside finite real$"):
            validate_feedback(make_record(baseline_time=value), {"tc-1"})

    def test_false_positive_must_not_carry_defect_ref(self):
        bad = DefectReport("r1", "tc-1", Severity.Low, True, defect_ref="def-1")
        with pytest.raises(InputError, match="^defect_ref='def-1' outside None for false positives$"):
            validate_feedback(make_record(defects=(bad,)), {"tc-1"})

    def test_true_report_requires_defect_ref(self):
        bad = DefectReport("r1", "tc-1", Severity.Low, False, defect_ref=None)
        with pytest.raises(InputError, match="^defect_ref=None outside defect id for true reports$"):
            validate_feedback(make_record(defects=(bad,)), {"tc-1"})

    def test_catalog_kinds_agree(self):
        # A mapping, a set and a plain iterable of ids are the same catalog.
        for catalog in ({"tc-1": None}, {"tc-1"}, frozenset({"tc-1"}), ["tc-1"], iter(["tc-1"])):
            validate_feedback(make_record(), catalog)
        for catalog in ({"tc-2": None}, {"tc-2"}, ["tc-2"], iter(())):
            with pytest.raises(InputError, match="^feedback references unknown test case 'tc-1'$"):
                validate_feedback(make_record(), catalog)


class TestStrictRecordKeys:
    def test_feedback_record_unknown_key_rejected(self):
        payload = make_record().to_dict()
        payload["qualty_rating"] = 0.5
        with pytest.raises(InputError, match="qualty_rating"):
            FeedbackRecord.from_dict(payload)

    def test_defect_report_unknown_key_rejected(self):
        payload = DefectReport("r1", "tc-1", Severity.High, False, "def-1").to_dict()
        payload["extra"] = 1
        with pytest.raises(InputError, match="extra"):
            DefectReport.from_dict(payload)

    def test_unknown_key_inside_a_defect_of_a_record_rejected(self):
        report = DefectReport("r1", "tc-1", Severity.High, False, "def-1")
        payload = make_record(defects=(report,)).to_dict()
        payload["defects"][0]["severty"] = "Low"
        with pytest.raises(InputError, match="severty"):
            FeedbackRecord.from_dict(payload)

    def test_missing_key_rejected(self):
        payload = make_record().to_dict()
        del payload["compliance_score"]
        with pytest.raises(InputError, match="compliance_score"):
            FeedbackRecord.from_dict(payload)

    @pytest.mark.parametrize(
        "field_name, value, expected",
        [
            ("id", 7, "a string"),
            ("test_case_ref", None, "a string"),
            ("defect_ref", 3, "a string"),
            ("is_false_positive", 0, "a boolean"),
            ("is_false_positive", "false", "a boolean"),
        ],
    )
    def test_defect_report_value_of_the_wrong_json_type_rejected(self, field_name, value, expected):
        payload = DefectReport("r1", "tc-1", Severity.High, False, "def-1").to_dict()
        payload[field_name] = value
        with pytest.raises(InputError, match=f"DefectReport.{field_name} must be {expected}, got {value!r}"):
            DefectReport.from_dict(payload)

    @pytest.mark.parametrize(
        "field_name, value, expected",
        [
            ("test_case_ref", 5, "a string"),
            ("execution_time", "4.5", "a finite number"),
            ("compliance_score", True, "a finite number"),
            ("quality_rating", None, "a finite number"),
            ("baseline_time", 10**400, "a finite number"),
        ],
        ids=["numeric-id", "string-number", "boolean-number", "null-number", "overflowing-number"],
    )
    def test_feedback_record_value_of_the_wrong_json_type_rejected(self, field_name, value, expected):
        payload = make_record().to_dict()
        payload[field_name] = value
        with pytest.raises(InputError, match=f"FeedbackRecord.{field_name} must be {expected}"):
            FeedbackRecord.from_dict(payload)

    def test_integral_numbers_read_as_floats(self):
        payload = make_record().to_dict()
        payload["execution_time"] = 2
        record = FeedbackRecord.from_dict(payload)
        assert type(record.execution_time) is float and record.execution_time == 2.0

    def test_malformed_record_is_a_value_error(self):
        # Code that treats a ValueError as a rejected value keeps doing so.
        assert issubclass(InputError, ValueError)

    def test_optional_keys_may_be_left_out(self):
        payload = make_record().to_dict()
        del payload["defects"]
        assert FeedbackRecord.from_dict(payload) == make_record()
        report = DefectReport("r1", "tc-1", Severity.Low, True).to_dict()
        del report["defect_ref"]
        assert DefectReport.from_dict(report).defect_ref is None


class TestSerializationRoundTrip:
    def test_defect_report_round_trip(self):
        report = DefectReport("r1", "tc-1", Severity.Critical, False, "def-9")
        assert DefectReport.from_dict(report.to_dict()) == report

    def test_feedback_jsonl_round_trip(self):
        record = make_record(
            defects=(
                DefectReport("r1", "tc-1", Severity.High, False, "def-2"),
                DefectReport("r2", "tc-1", Severity.Low, True, None),
            )
        )
        line = record.to_json_line()
        assert FeedbackRecord.from_json_line(line) == record

    def test_jsonl_severity_spelled_upper_camel(self):
        record = make_record(defects=(DefectReport("r1", "tc-1", Severity.Critical, False, "d"),))
        payload = json.loads(record.to_json_line())
        assert payload["defects"][0]["severity"] == "Critical"


class TestDefectSplit:
    DEFECTS = (
        DefectReport("r1", "tc-1", Severity.High, False, "def-2"),
        DefectReport("r2", "tc-1", Severity.Low, True, None),
        DefectReport("r3", "tc-1", Severity.Medium, False, "def-5"),
    )

    def test_split_keeps_report_order(self):
        record = make_record(defects=self.DEFECTS)
        assert record.true_defects() == (self.DEFECTS[0], self.DEFECTS[2])
        assert record.false_positives() == (self.DEFECTS[1],)

    def test_split_is_not_a_field(self):
        record = make_record(defects=self.DEFECTS)
        assert [f.name for f in fields(FeedbackRecord)] == [
            "test_case_ref", "defects", "execution_time", "baseline_time", "quality_rating",
            "requirement_coverage_assessment", "functional_coverage_validation",
            "workflow_integration_factor", "compliance_score",
        ]
        assert record == FeedbackRecord.from_dict(record.to_dict())
        assert record != make_record(defects=self.DEFECTS[:1])
        assert replace(record, defects=()).true_defects() == ()


class TestSeverityOrder:
    def test_total_order(self):
        assert Severity.Critical > Severity.High > Severity.Medium > Severity.Low

    def test_sorting_is_deterministic(self):
        levels = [Severity.Medium, Severity.Critical, Severity.Low, Severity.High]
        assert sorted(levels) == [Severity.Low, Severity.Medium, Severity.High, Severity.Critical]
        assert sorted(levels) == sorted(list(reversed(levels)))

    @given(st.lists(st.sampled_from(list(Severity))))
    def test_sort_is_stable_under_repetition(self, levels):
        once = sorted(levels)
        assert sorted(once) == once


class TestStableEncodings:
    def test_strategy_indices(self):
        assert [int(s) for s in GenerationStrategy] == [0, 1, 2, 3, 4]

    def test_mode_indices(self):
        assert [int(m) for m in RetrievalMode] == [0, 1, 2]

    def test_role_count(self):
        assert len(AgentRole) == 5
