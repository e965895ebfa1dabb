import json
import math

import numpy as np
import pytest

from qeloop.domain import (
    AgentRole,
    DefectReport,
    FeedbackRecord,
    GenerationStrategy,
    InputError,
    Requirement,
    RetrievalMode,
    Severity,
    TestCase as DomainTestCase,
)
from qeloop.qe_env import (
    DefectSpec,
    EnvConfig,
    ExecutionModel,
    SyntheticProject,
    detection_probability,
    execute_test,
    generate_project,
    replay_feedback,
)


def rng(seed):
    return np.random.default_rng(seed)


def sparse_unit(dims, d_cov=16):
    v = np.zeros(d_cov)
    for d in dims:
        v[d] = 1.0
    return v / np.linalg.norm(v)


def manual_project(signatures, severities=None, affinity_value=1.0, d_cov=16):
    severities = severities or [Severity.Medium] * len(signatures)
    defects = tuple(
        DefectSpec(f"def-{i}", severities[i], tuple(float(x) for x in signatures[i]), "req-0")
        for i in range(len(signatures))
    )
    requirement = Requirement("req-0", "single requirement", frozenset())
    affinity = {s: {sev: affinity_value for sev in Severity} for s in GenerationStrategy}
    return SyntheticProject((requirement,), defects, affinity, ())


def make_test(coverage, strategy=GenerationStrategy.Boundary) -> DomainTestCase:
    return DomainTestCase(
        id="tc-1",
        requirement_refs=("req-0",),
        strategy=strategy,
        retrieval_mode=RetrievalMode.VectorOnly,
        coverage_vector=tuple(float(x) for x in coverage),
        generating_agent=AgentRole.TestCaseGeneration,
    )


class TestGenerateProject:
    def test_same_seed_identical_projects(self):
        a = generate_project(EnvConfig(), seed=9)
        b = generate_project(EnvConfig(), seed=9)
        assert a == b

    def test_different_seed_differs(self):
        assert generate_project(EnvConfig(), 1) != generate_project(EnvConfig(), 2)

    def test_zero_defects_leaves_catalog_empty(self):
        project = generate_project(EnvConfig(n_defects=0), 3)
        assert project.defects == ()
        assert all(defects == () for defects in project.defects_by_requirement().values())

    def test_hundred_defects_follow_proportions(self):
        project = generate_project(EnvConfig(n_defects=100), 5)
        counts = {sev: 0 for sev in Severity}
        for defect in project.defects:
            counts[defect.severity] += 1
        expected = {Severity.Critical: 10, Severity.High: 20, Severity.Medium: 40, Severity.Low: 30}
        for sev in Severity:
            assert abs(counts[sev] - expected[sev]) <= 5
        assert sum(counts.values()) == 100

    def test_defects_by_requirement_partition_the_catalog(self):
        project = generate_project(EnvConfig(), 7)
        by_req = project.defects_by_requirement()
        assert list(by_req) == [req.id for req in project.requirements]
        for rid, defects in by_req.items():
            assert all(defect.requirement_ref == rid for defect in defects)
        assert sorted(d.id for defects in by_req.values() for d in defects) == sorted(d.id for d in project.defects)

    def test_signatures_are_unit_vectors(self):
        project = generate_project(EnvConfig(), 11)
        for defect in project.defects:
            assert np.linalg.norm(defect.signature) == pytest.approx(1.0, abs=1e-9)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError, match="n_requirements must be >= 1, got 0"):
            EnvConfig(n_requirements=0).validate()
        with pytest.raises(ValueError, match="severity proportions must be non-negative and sum to 1"):
            EnvConfig(severity_proportions={Severity.Low: 0.5}).validate()


class TestDetectionProbability:
    MODEL = ExecutionModel(detection_sharpness=4.0, detection_midpoint=0.5, false_positive_rate=0.0)

    def test_zero_overlap_is_exactly_zero(self):
        assert detection_probability(0.0, self.MODEL) == 0.0

    def test_full_overlap_is_exactly_one(self):
        assert detection_probability(1.0, self.MODEL) == 1.0

    def test_matches_rescaled_sigmoid_by_hand(self):
        beta, tau = 4.0, 0.5
        raw = lambda x: 1.0 / (1.0 + math.exp(-beta * (x - tau)))
        for overlap in (0.1, 0.35, 0.5, 0.62, 0.9):
            expected = (raw(overlap) - raw(0.0)) / (raw(1.0) - raw(0.0))
            assert detection_probability(overlap, self.MODEL) == pytest.approx(expected, abs=1e-12)

    def test_monotone_in_overlap(self):
        grid = np.linspace(0, 1, 101)
        values = [detection_probability(float(x), self.MODEL) for x in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestExecuteTest:
    def test_orthogonal_coverage_finds_nothing_quality_one(self):
        project = manual_project([sparse_unit([0, 1])])
        model = ExecutionModel(detection_midpoint=0.5, false_positive_rate=0.0)
        test = make_test(sparse_unit([8, 9]))
        record = execute_test(test, project, model, rng(0))
        assert record.defects == ()
        assert record.quality_rating == 1.0
        assert record.requirement_coverage_assessment == 0.0

    def test_perfect_overlap_high_sharpness_always_detects(self):
        signature = sparse_unit([0, 1, 2, 3])
        project = manual_project([signature])
        model = ExecutionModel(detection_sharpness=50.0, false_positive_rate=0.0)
        for seed in range(10):
            record = execute_test(make_test(signature), project, model, rng(seed))
            assert len(record.true_defects()) == 1

    def test_two_defect_probabilities_match_hand_sigmoid_and_seeded_draws(self):
        beta, tau = 4.0, 0.5
        sig_a = sparse_unit([0, 1])
        sig_b = sparse_unit([2, 3])
        coverage = np.zeros(16)
        coverage[[0, 1]] = 0.6
        coverage[[2, 3]] = 0.3
        project = manual_project([sig_a, sig_b])
        model = ExecutionModel(
            detection_sharpness=beta, detection_midpoint=tau, false_positive_rate=0.0
        )
        raw = lambda x: 1.0 / (1.0 + math.exp(-beta * (x - tau)))
        scale = lambda x: (raw(x) - raw(0.0)) / (raw(1.0) - raw(0.0))
        overlap_a = float(coverage @ sig_a)
        overlap_b = float(coverage @ sig_b)
        p_a, p_b = scale(overlap_a), scale(overlap_b)
        assert detection_probability(overlap_a, model) == pytest.approx(p_a, abs=1e-9)
        assert detection_probability(overlap_b, model) == pytest.approx(p_b, abs=1e-9)
        # Replicate the seeded draw order: defects in catalog order, then FP.
        seed = 123
        record = execute_test(make_test(coverage), project, model, rng(seed))
        trace = rng(seed)
        expected_hits = [trace.random() < p_a, trace.random() < p_b]
        detected_ids = {d.defect_ref for d in record.true_defects()}
        assert ("def-0" in detected_ids) == expected_hits[0]
        assert ("def-1" in detected_ids) == expected_hits[1]

    def test_pure_function_of_inputs_and_rng_state(self):
        project = manual_project([sparse_unit([0, 1, 2, 3])])
        model = ExecutionModel()
        test = make_test(sparse_unit([0, 1, 4, 5]))
        assert execute_test(test, project, model, rng(9)) == execute_test(test, project, model, rng(9))

    def test_unknown_requirement_rejected(self):
        project = manual_project([sparse_unit([0])])
        test = DomainTestCase(
            "tc-x", ("req-ghost",), GenerationStrategy.HappyPath, RetrievalMode.VectorOnly,
            tuple(np.zeros(16)), AgentRole.TestCaseGeneration,
        )
        with pytest.raises(ValueError, match="test tc-x references unknown requirement 'req-ghost'"):
            execute_test(test, project, ExecutionModel(), rng(0))

    def test_false_positive_rate_observed(self):
        project = manual_project([sparse_unit([0, 1])])
        model = ExecutionModel(false_positive_rate=0.3)
        test = make_test(sparse_unit([8, 9]))
        g = rng(21)
        fp_count = sum(
            1 for _ in range(2000) if execute_test(test, project, model, g).false_positives()
        )
        assert abs(fp_count / 2000 - 0.3) < 0.03

    def test_execution_time_follows_strategy_steps(self):
        project = manual_project([sparse_unit([0, 1])])
        model = ExecutionModel(false_positive_rate=0.0)
        happy = execute_test(make_test(sparse_unit([8, 9]), GenerationStrategy.HappyPath), project, model, rng(0))
        integ = execute_test(make_test(sparse_unit([8, 9]), GenerationStrategy.Integration), project, model, rng(0))
        assert integ.execution_time > happy.execution_time
        assert happy.execution_time == pytest.approx(model.base_time + model.per_step_time * 3)

    @pytest.mark.slow
    def test_better_aligned_test_dominates_in_expectation(self):
        signature = sparse_unit([0, 1, 2, 3])
        project = manual_project([signature])
        model = ExecutionModel(false_positive_rate=0.0)
        low = np.zeros(16)
        low[[0, 1]] = 0.3
        high = np.zeros(16)
        high[[0, 1, 2, 3]] = 0.45
        g = rng(31)
        n = 10_000
        low_hits = sum(len(execute_test(make_test(low), project, model, g).true_defects()) for _ in range(n))
        high_hits = sum(len(execute_test(make_test(high), project, model, g).true_defects()) for _ in range(n))
        assert high_hits >= low_hits

    def test_detection_monotone_in_overlap_property(self):
        model = ExecutionModel()
        g = rng(17)
        for _ in range(200):
            a, b = sorted(g.uniform(0, 1, size=2))
            assert detection_probability(a, model) <= detection_probability(b, model)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


def sample_record(test_id="tc-1") -> FeedbackRecord:
    return FeedbackRecord(test_id, (), 1.0, 2.0, 0.9, 0.4, 0.6, 1.0, 0.8)


class TestReplayFeedback:
    def test_empty_file_yields_nothing(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert list(replay_feedback(path)) == []

    def test_round_trip_equals_original(self, tmp_path):
        records = [sample_record(f"tc-{i}") for i in range(5)]
        path = tmp_path / "feedback.jsonl"
        write_lines(path, [r.to_json_line() for r in records])
        assert list(replay_feedback(path)) == records

    def test_corrupted_line_reported_with_number_others_kept(self, tmp_path):
        lines = [sample_record(f"tc-{i}").to_json_line() for i in range(10)]
        lines[4] = "{not valid json"
        path = tmp_path / "mixed.jsonl"
        write_lines(path, lines)
        issues = []
        records = list(replay_feedback(path, on_error=issues.append))
        assert len(records) == 9
        assert len(issues) == 1
        assert isinstance(issues[0], InputError)
        assert str(issues[0]).startswith("line 5: Expecting property name")

    def test_strict_mode_raises_on_first_bad_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_lines(path, ["not json at all"])
        with pytest.raises(InputError, match="^line 1: Expecting value"):
            list(replay_feedback(path))

    def test_range_violation_becomes_validation_error(self, tmp_path):
        payload = json.loads(sample_record().to_json_line())
        payload["quality_rating"] = 3.0
        path = tmp_path / "range.jsonl"
        write_lines(path, [json.dumps(payload)])
        issues = []
        assert list(replay_feedback(path, on_error=issues.append)) == []
        assert isinstance(issues[0], InputError)
        assert str(issues[0]) == "line 1: quality_rating=3.0 outside [0.0, 1.0]"

    def test_unknown_key_is_a_parse_error_with_its_line(self, tmp_path):
        payload = json.loads(sample_record().to_json_line())
        payload["quality"] = 0.5
        path = tmp_path / "typo.jsonl"
        write_lines(path, [sample_record().to_json_line(), json.dumps(payload)])
        issues = []
        assert list(replay_feedback(path, on_error=issues.append)) == [sample_record()]
        assert len(issues) == 1
        assert isinstance(issues[0], InputError)
        assert str(issues[0]).startswith("line 2: FeedbackRecord: unknown key(s) ['quality']")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda d: d["defects"][0].update(is_false_positive="false"),
                "DefectReport.is_false_positive must be a boolean, got 'false'",
            ),
            (
                lambda d: d.update(execution_time="4.5"),
                "FeedbackRecord.execution_time must be a finite number, got '4.5'",
            ),
            (
                lambda d: d.update(compliance_score=True),
                "FeedbackRecord.compliance_score must be a finite number, got True",
            ),
            (lambda d: d.update(test_case_ref=5), "FeedbackRecord.test_case_ref must be a string, got 5"),
            (
                lambda d: d.update(execution_time=float("inf")),
                "FeedbackRecord.execution_time must be a finite number, got inf",
            ),
        ],
        ids=["string-flag", "string-number", "boolean-number", "numeric-id", "infinite-number"],
    )
    def test_value_of_the_wrong_json_type_reported_with_its_line(self, tmp_path, edit, message):
        report = DefectReport("rep-1", "tc-1", Severity.High, True)
        payload = FeedbackRecord("tc-1", (report,), 1.0, 2.0, 0.0, 0.4, 0.6, 1.0, 0.8).to_dict()
        edit(payload)
        path = tmp_path / "typed.jsonl"
        write_lines(path, [sample_record().to_json_line(), json.dumps(payload)])
        issues = []
        assert list(replay_feedback(path, on_error=issues.append)) == [sample_record()]
        assert [type(issue) for issue in issues] == [InputError]
        assert str(issues[0]) == f"line 2: {message}"

    def test_a_type_error_in_the_record_reader_is_a_fault_not_a_bad_line(self, tmp_path, monkeypatch):
        def from_dict(cls, d):
            raise TypeError("fault in the reader")

        monkeypatch.setattr(FeedbackRecord, "from_dict", classmethod(from_dict))
        path = tmp_path / "feedback.jsonl"
        write_lines(path, [sample_record().to_json_line()] * 3)
        issues = []
        with pytest.raises(TypeError, match="fault in the reader"):
            list(replay_feedback(path, on_error=issues.append))
        assert issues == []

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text(sample_record().to_json_line() + "\n\n" + sample_record("tc-2").to_json_line() + "\n")
        assert len(list(replay_feedback(path))) == 2
