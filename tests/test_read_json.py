"""The one reader of JSON values, ``domain.read_json``, and the entry points
that read outside input through it."""

import json
import math
import struct
from enum import Enum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeloop import cli
from qeloop.config import ConfigError
from qeloop.domain import DefectReport, FeedbackRecord, InputError, Severity, read_json
from qeloop.knowledge import EdgeType, KnowledgeStore
from qeloop.trainer import EventLog, TrainingSystem

TINY = {
    "episode_count": 2,
    "tests_per_episode": 4,
    "env": {"n_requirements": 6, "n_defects": 8},
    "kb": {"d_emb": 64},
    "ppo": {"rollout_length": 8, "epochs_per_update": 2, "minibatch_size": 8},
    "dqn": {"replay_capacity": 128, "batch_size": 4, "target_sync_interval": 10, "epsilon_decay_steps": 20},
    "loop": {"n_tests": 1, "kb_action_interval": 2},
}

KIND_NAMES = {str: "a string", bool: "a boolean", list: "a list", int: "an integer", float: "a finite number"}


def kind_name(kind) -> str:
    return KIND_NAMES.get(kind) or f"one of {list(kind.__members__)}"


REJECT = object()


def oracle(value, kind):
    """What ``read_json(value, kind, ...)`` returns, or ``REJECT``, decided
    from the JSON kinds' definitions."""
    if kind is float:
        if type(value) is float:
            return value if math.isfinite(value) else REJECT
        if type(value) is int:
            return float(value) if abs(Fraction(value)) <= Fraction(1.7976931348623157e308) else REJECT
        return REJECT
    if isinstance(kind, type) and issubclass(kind, Enum):
        return kind.__members__[value] if isinstance(value, str) and value in kind.__members__ else REJECT
    # Python's JSON values have exact types: no bool is an int here.
    return value if type(value) is kind else REJECT


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**1024, -(2**1024), 10**400, int(1.7976931348623157e308), int(1.7976931348623157e308) + 1])
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(["Low", "Critical", "Covers", "low", "Bogus"])
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)
KINDS = st.sampled_from([str, bool, list, int, float, Severity, EdgeType])


def same(a, b) -> bool:
    """Equal and of one type; floats bit for bit."""
    if type(a) is float and type(b) is float:
        return struct.pack("<d", a) == struct.pack("<d", b)
    return type(a) is type(b) and a == b


class TestReader:
    @settings(max_examples=500)
    @given(value=JSON_VALUES, kind=KINDS)
    def test_agrees_with_the_kinds_definitions(self, value, kind):
        expected = oracle(value, kind)
        if expected is REJECT:
            with pytest.raises(InputError) as exc:
                read_json(value, kind, "doc.section", 3)
            got = repr(value) if len(repr(value)) <= 1000 else repr(value)[:1000] + "..."
            assert str(exc.value) == f"doc.section[3] must be {kind_name(kind)}, got {got}"
        else:
            assert same(read_json(value, kind, "doc.section", 3), expected)

    @given(value=JSON_VALUES, kind=KINDS)
    def test_reading_a_value_twice_reads_it_the_same(self, value, kind):
        # What the reader accepts, read again as its kind, is itself: a
        # restored value re-serialises to the text it was read from.
        if oracle(value, kind) is not REJECT and not isinstance(kind, type(Enum)):
            once = read_json(value, kind, "x")
            assert same(read_json(once, kind, "x"), once)

    def test_string_key_extends_the_path(self):
        with pytest.raises(InputError) as exc:
            read_json("0.4", float, "doc.edges[0]", "weight")
        assert str(exc.value) == "doc.edges[0].weight must be a finite number, got '0.4'"

    def test_empty_path_leaves_the_problem_alone(self):
        with pytest.raises(InputError) as exc:
            read_json(2.0, int, "")
        assert str(exc.value) == "must be an integer, got 2.0"

    def test_path_is_built_only_on_failure(self):
        class Unprintable:
            def __format__(self, spec):
                raise AssertionError("the path was built")

        assert read_json(0.5, float, "x", Unprintable()) == 0.5
        with pytest.raises(AssertionError, match="the path was built"):
            read_json("0.5", float, "x", Unprintable())

    def test_a_large_value_is_quoted_in_part(self):
        # A snapshot section of the wrong kind can hold megabytes.
        section = {str(i): {"embedding": [0.0] * 256} for i in range(100)}
        with pytest.raises(InputError) as exc:
            read_json(section, list, "knowledge snapshot", "vector_records")
        prefix = "knowledge snapshot.vector_records must be a list, got "
        assert str(exc.value) == prefix + repr(section)[:1000] + "..."

    def test_malformed_record_is_a_value_error(self):
        assert issubclass(InputError, ValueError)


# One value of the wrong kind per row: (name, field kind, value).
BAD_VALUES = [
    ("true-for-a-number", float, True),
    ("string-number", float, "0.5"),
    ("integral-float-for-an-integer", int, 2.0),
    ("nan", float, math.nan),
    ("infinity", float, math.inf),
    ("integer-no-float-holds", float, 10**400),
    ("not-a-member", Enum, "Bogus"),
]


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A 2-episode run's config, event log and checkpoint."""
    out = tmp_path_factory.mktemp("run")
    (out / "config.json").write_text(json.dumps(TINY))
    config = cli.load_config(str(out / "config.json"))
    with EventLog(out) as events:
        system = TrainingSystem(config, events=events)
        system.run()
    system.checkpoint(out / "checkpoint.json")
    return out


def edit_config(run_dir, tmp_path, capsys, kind, value):
    """``--set`` of a run-config leaf; config errors name the key, then the problem."""
    paths = {float: "execution.base_time", int: "ppo.epochs_per_update"}
    if kind is Enum:
        key = f"env.severity_proportions.{value}"
        with pytest.raises(ConfigError, match="unknown key$") as exc:
            cli.load_config(str(run_dir / "config.json"), (f"{key}=0.1",))
        return exc.value.key, key
    with pytest.raises(ConfigError, match="must be") as exc:
        cli.load_config(str(run_dir / "config.json"), (f"{paths[kind]}={json.dumps(value)}",))
    assert exc.value.key == paths[kind]
    return str(exc.value), f"{paths[kind]}: must be {kind_name(kind)}, got {value!r}"


def edit_snapshot(run_dir, tmp_path, capsys, kind, value):
    """``KnowledgeStore.load_snapshot`` of an edited snapshot."""
    doc = TrainingSystem.restore(run_dir / "checkpoint.json").kb.snapshot_dict()
    doc = json.loads(json.dumps(doc))
    edge = doc["graph_edges"][0]
    field, name = {
        float: (lambda v: edge.update(weight=v), "graph_edges[0].weight"),
        int: (lambda v: doc.update(d_emb=v), "d_emb"),
        Enum: (lambda v: edge.update(edge_type=v), "graph_edges[0].edge_type"),
    }[kind]
    field(value)
    path = tmp_path / "kb.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError) as exc:
        KnowledgeStore.load_snapshot(path)
    read_as = EdgeType if kind is Enum else kind
    return str(exc.value), f"knowledge snapshot.{name} must be {kind_name(read_as)}, got {value!r}"


def edit_checkpoint(run_dir, tmp_path, capsys, kind, value):
    """``TrainingSystem.restore`` of an edited checkpoint."""
    doc = json.loads((run_dir / "checkpoint.json").read_text())
    field, name = {
        float: (lambda v: doc["hit_window"].__setitem__(0, v), "hit_window[0]"),
        int: (lambda v: doc.update(episode_index=v), "episode_index"),
        Enum: (lambda v: doc["kb"]["graph_edges"][0].update(edge_type=v), "kb.graph_edges[0].edge_type"),
    }[kind]
    field(value)
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError) as exc:
        TrainingSystem.restore(path)
    read_as = EdgeType if kind is Enum else kind
    return str(exc.value), f"checkpoint {name} must be {kind_name(read_as)}, got {value!r}"


def edit_feedback_line(run_dir, tmp_path, capsys, kind, value):
    """``qeloop replay`` of one feedback line; a record holds no integer."""
    record = FeedbackRecord(
        "tc-1", (DefectReport("r1", "tc-1", Severity.High, False, "def-1"),), 1.0, 2.0, 1.0, 0.5, 0.5, 1.0, 0.8
    ).to_dict()
    if kind is float:
        record["execution_time"] = value
        name = "FeedbackRecord.execution_time"
    else:
        record["defects"][0]["severity"] = value
        name = "DefectReport.severity"
    path = tmp_path / "feedback.jsonl"
    path.write_text(json.dumps(record) + "\n")
    argv = ["replay", "--config", str(run_dir / "config.json"), str(path), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    read_as = Severity if kind is Enum else kind
    return capsys.readouterr().err, f"InputError: line 1: {name} must be {kind_name(read_as)}, got {value!r}"


def edit_event_line(run_dir, tmp_path, capsys, kind, value):
    """``qeloop export`` of an event log with one event edited."""
    events = [json.loads(line) for line in (run_dir / "events.jsonl").read_text().splitlines()]
    first = {t: next(i for i, e in enumerate(events) if e["type"] == t) for t in ("kb_action", "slot")}
    if kind is Enum:
        index, name, read_as = first["slot"], "DefectReport.severity", Severity
        report = {"id": "r1", "test_case_ref": events[index]["records"][0]["test_case_ref"]}
        events[index]["records"][0]["defects"].append(
            dict(report, severity=value, is_false_positive=False, defect_ref="def-1")
        )
    else:
        index, read_as = first["kb_action"], kind
        name = "kb_action.epsilon" if kind is float else "kb_action step"
        events[index]["epsilon" if kind is float else "step"] = value
    path = tmp_path / "events.jsonl"
    path.write_text("".join(json.dumps(event) + "\n" for event in events))
    argv = ["export", "--config", str(run_dir / "config.json"), str(path), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert f"ConfigError: input line {index + 1}: malformed event log" in err
    return err, f"{name} must be {kind_name(read_as)}, got {value!r}"


ENTRY_POINTS = {
    "config-set": edit_config,
    "snapshot-load": edit_snapshot,
    "checkpoint-restore": edit_checkpoint,
    "replay-line": edit_feedback_line,
    "export-line": edit_event_line,
}
CASES = [
    pytest.param(entry, kind, value, id=f"{entry}-{name}")
    for entry in ENTRY_POINTS
    for name, kind, value in BAD_VALUES
    # A feedback record has no integer field.
    if not (entry == "replay-line" and kind is int)
]


@pytest.mark.parametrize("entry, kind, value", CASES)
def test_value_of_the_wrong_kind_rejected_with_its_path(run_dir, tmp_path, capsys, entry, kind, value):
    message, expected = ENTRY_POINTS[entry](run_dir, tmp_path, capsys, kind, value)
    assert expected in message
