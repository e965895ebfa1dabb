import json
import re
from dataclasses import replace

import pytest

from qeloop import cli, trainer
from qeloop.config import ConfigError
from qeloop.domain import FeedbackRecord, DefectReport, Severity
from qeloop.knowledge import EdgeType, KnowledgeStore
from qeloop.trainer import EventLog, RunConfig, metrics_csv_text, run_training


TINY = {
    "episode_count": 3,
    "tests_per_episode": 4,
    "env": {"n_requirements": 6, "n_defects": 8},
    "kb": {"d_emb": 64},
    "ppo": {"rollout_length": 8, "epochs_per_update": 2, "minibatch_size": 8},
    "dqn": {
        "replay_capacity": 128,
        "batch_size": 4,
        "target_sync_interval": 10,
        "epsilon_decay_steps": 20,
    },
    "loop": {"n_tests": 1, "kb_action_interval": 2},
}


# The problem of a ConfigError: an unknown key, or any other, a mistyped or
# out-of-range value.
UNKNOWN_KEY = "unknown key$"
BAD_VALUE = "(?!unknown key$)"


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    return str(path)


class TestLoadConfig:
    def test_empty_file_yields_documented_defaults(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        assert cli.load_config(str(path)) == RunConfig()

    def test_seed_override_leaves_rest_default(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        config = cli.load_config(str(path), ("seed=7",))
        assert config.seed == 7
        assert config == RunConfig(seed=7)

    def test_learning_rate_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        with pytest.raises(ConfigError, match="^ppo: learning_rate 0.01 outside"):
            cli.load_config(str(path), ("ppo.learning_rate=0.01",))

    def test_learning_rate_override_allowed_with_flag(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        config = cli.load_config(str(path), ("ppo.learning_rate=0.01", "allow_out_of_range=true"))
        assert config.ppo.learning_rate == 0.01

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        with pytest.raises(ConfigError, match="^ppo.lr: unknown key$"):
            cli.load_config(str(path), ("ppo.lr=0.0001",))

    def test_missing_file_is_parse_error(self, tmp_path):
        with pytest.raises(ConfigError, match="^cannot read config .*absent.json"):
            cli.load_config(str(tmp_path / "absent.json"))

    def test_malformed_json_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="^config .*bad.json is not valid JSON"):
            cli.load_config(str(path))

    def test_bad_override_shape_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        with pytest.raises(ConfigError, match="^override 'no_equals_sign' is not of the form key=value"):
            cli.load_config(str(path), ("no_equals_sign",))

    @pytest.mark.parametrize(
        "override, problem, key",
        [
            ("kb.initial_params.bogus=1", UNKNOWN_KEY, "kb.initial_params.bogus"),
            ("ppo.epochs_per_update=2.7", BAD_VALUE, "ppo.epochs_per_update"),
            ('ablation.disable_ppo="no"', BAD_VALUE, "ablation.disable_ppo"),
            ("seed=1.9", BAD_VALUE, "seed"),
            ("rewards.weights.bogus=0.1", UNKNOWN_KEY, "rewards.weights.bogus"),
            ("env.severity_proportions.Bogus=0.1", UNKNOWN_KEY, "env.severity_proportions.Bogus"),
            ("ppo=x", BAD_VALUE, "ppo"),
            ("rl.seed=0", UNKNOWN_KEY, "rl.seed"),
            ("kb.d_emb=4", BAD_VALUE, "kb"),
            # embed hashes the modifiers' nudges into d_cov dimensions.
            ("env.d_cov=6", BAD_VALUE, "env"),
            pytest.param(
                "kb.edge_learning_rate=" + "9" * 401,
                BAD_VALUE,
                "kb.edge_learning_rate",
                id="integer-too-large-for-a-float",
            ),
            # --set parses values as JSON, which has NaN and Infinity tokens.
            ("rewards.severity.false_positive_penalty=Infinity", BAD_VALUE,
             "rewards.severity.false_positive_penalty"),
            ("loop.modifier_scale=Infinity", BAD_VALUE, "loop.modifier_scale"),
            ("loop.modifier_scale=-Infinity", BAD_VALUE, "loop.modifier_scale"),
            ("execution.base_time=NaN", BAD_VALUE, "execution.base_time"),
            ("loop.n_tests=0", BAD_VALUE, "loop"),
            # The one reward and feedback history must hold a KB interval.
            ("loop.kb_action_interval=51", BAD_VALUE, "loop"),
            # The knowledge controller's reward compares two KB intervals.
            ("loop.kb_action_interval=26", BAD_VALUE, "loop"),
            ("rewards.adaptation_window=50", UNKNOWN_KEY, "rewards.adaptation_window"),
            ("kb.initial_params.top_k=100", BAD_VALUE, "kb"),
            ("dqn.epsilon_end=0.95", BAD_VALUE, "dqn"),
            ("episode_count=0", BAD_VALUE, "episode_count"),
            ("tests_per_episode=0", BAD_VALUE, "tests_per_episode"),
        ],
    )
    def test_bad_override_rejected_with_its_path(self, tmp_path, override, problem, key):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: {problem}") as exc:
            cli.load_config(str(path), (override,))
        assert exc.value.key == key

    def test_partial_initial_params_keep_run_defaults(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        params = cli.load_config(str(path), ("kb.initial_params.top_k=16",)).kb.initial_params
        assert params.top_k == 16
        assert params.similarity_threshold == 0.95
        assert params.edge_type_weights == {
            EdgeType.Covers: 0.3,
            EdgeType.Impacts: 0.7,
            EdgeType.DependsOn: 0.7,
            EdgeType.DetectedBy: 0.3,
        }


class TestMainExitCodes:
    def test_missing_config_exits_one(self, tmp_path, capsys):
        code = cli.main(["train", "--config", str(tmp_path / "ghost.json")])
        assert code == 1
        assert "ghost.json" in capsys.readouterr().err

    def test_invalid_override_exits_one(self, config_path):
        assert cli.main(["train", "--config", config_path, "--set", "ppo.learning_rate=0.5"]) == 1

    @pytest.mark.parametrize(
        "override", ["execution.base_time=NaN", "rewards.severity.false_positive_penalty=Infinity"]
    )
    def test_non_finite_override_exits_one_naming_its_key(self, tmp_path, config_path, capsys, override):
        argv = ["train", "--config", config_path, "--set", override, "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 1
        key = override.split("=")[0]
        assert f"qeloop.config.ConfigError: {key}: must be a finite number, got" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_gradcheck_exits_zero_and_reports(self, config_path, capsys):
        assert cli.main(["gradcheck", "--config", config_path]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out and "PASS" in out

    def test_unknown_subcommand_exits_one(self, config_path):
        assert cli.main(["frobnicate", "--config", config_path]) == 1

    def test_config_that_is_not_utf8_exits_one_naming_its_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"seed": "\xff"}')
        assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"qeloop.config.ConfigError: config {path} is not valid JSON: 'utf-8' codec can't decode" in err
        assert not (tmp_path / "out").exists()

    def test_a_value_error_in_a_run_is_a_fault_with_its_traceback(self, tmp_path, config_path, monkeypatch):
        def run(system, episodes=None):
            raise ValueError("fault in the run")

        monkeypatch.setattr(trainer.TrainingSystem, "run", run)
        with pytest.raises(ValueError, match="fault in the run"):
            cli.main(["train", "--config", config_path, "--out", str(tmp_path / "out")])


class TestTrainCommand:
    def test_train_writes_artifacts_and_matches_in_process_run(self, tmp_path, config_path):
        out_dir = tmp_path / "out"
        assert cli.main(["train", "--config", config_path, "--out", str(out_dir)]) == 0
        csv_text = (out_dir / "metrics.csv").read_text()
        expected = run_training(RunConfig.from_dict(TINY))
        assert csv_text == metrics_csv_text(expected.tables.metrics)
        assert (out_dir / "checkpoint.json").exists()
        assert (out_dir / "events.jsonl").exists()

    def test_event_files_equal_event_log_of_in_process_run(self, tmp_path, config_path):
        out_dir = tmp_path / "out"
        assert cli.main(["train", "--config", config_path, "--out", str(out_dir)]) == 0
        with EventLog(tmp_path / "expected") as log:
            for event in run_training(RunConfig.from_dict(TINY)).events:
                log.append(event)
        for name in ("events.jsonl", "feedback.jsonl"):
            assert (out_dir / name).read_bytes() == (tmp_path / "expected" / name).read_bytes()

    def test_failed_run_leaves_every_event_of_the_slots_completed_before_the_failure(
        self, tmp_path, config_path, monkeypatch
    ):
        events = run_training(RunConfig.from_dict(TINY)).events
        fail_on = 6  # one test per slot, so the sixth slot fails
        slots = [i for i, e in enumerate(events) if e["type"] == "slot"]
        expected = events[: slots[fail_on - 1]]
        real_execute = trainer.execute_test
        calls = []

        def execute_then_fail(*args):
            calls.append(args)
            if len(calls) == fail_on:
                raise OSError("simulated channel failure")
            return real_execute(*args)

        monkeypatch.setattr(trainer, "execute_test", execute_then_fail)
        out_dir = tmp_path / "out"
        assert cli.main(["train", "--config", config_path, "--out", str(out_dir)]) == 2
        lines = (out_dir / "events.jsonl").read_text().splitlines()
        assert [json.loads(line) for line in lines] == expected
        assert not (out_dir / "metrics.csv").exists()

    def test_config_file_not_modified(self, tmp_path, config_path):
        before = open(config_path, "rb").read()
        cli.main(["train", "--config", config_path, "--out", str(tmp_path / "o")])
        assert open(config_path, "rb").read() == before


class TestEvaluateCommand:
    def test_evaluate_runs_greedy_episodes(self, tmp_path, config_path):
        out_dir = tmp_path / "out"
        cli.main(["train", "--config", config_path, "--out", str(out_dir)])
        eval_dir = tmp_path / "eval"
        code = cli.main(
            [
                "evaluate",
                "--config",
                config_path,
                "--checkpoint",
                str(out_dir / "checkpoint.json"),
                "--episodes",
                "2",
                "--out",
                str(eval_dir),
            ]
        )
        assert code == 0
        lines = (eval_dir / "metrics.csv").read_text().splitlines()
        assert len(lines) == 3  # header + 2 evaluated episodes

    def test_evaluate_writes_only_its_own_learner_rows(self, tmp_path, config_path):
        out_dir, eval_dir = tmp_path / "out", tmp_path / "eval"
        assert cli.main(["train", "--config", config_path, "--out", str(out_dir)]) == 0
        checkpoint = out_dir / "checkpoint.json"
        for name in ("ppo_updates.csv", "dqn_steps.csv"):
            assert len((out_dir / name).read_text().splitlines()) > 1
        argv = ["evaluate", "--config", config_path, "--checkpoint", str(checkpoint)]
        assert cli.main(argv + ["--episodes", "2", "--out", str(eval_dir)]) == 0
        # PPO and DQN are off in an evaluation, so it has no learner rows.
        for name in ("ppo_updates.csv", "dqn_steps.csv"):
            assert len((eval_dir / name).read_text().splitlines()) == 1
        system = trainer.TrainingSystem.restore(checkpoint)
        system.config = replace(
            system.config,
            ablation=trainer.AblationFlags(disable_ppo=True, disable_dqn=True, no_feedback=True),
        )
        system.deterministic_policy = True
        expected = metrics_csv_text(system.run(episodes=2)[-2:])
        assert (eval_dir / "metrics.csv").read_text() == expected

    def test_evaluate_names_a_bad_key_in_the_checkpoint_config(self, tmp_path, config_path, capsys):
        out_dir = tmp_path / "out"
        assert cli.main(["train", "--config", config_path, "--out", str(out_dir), "--set", "episode_count=1"]) == 0
        checkpoint = out_dir / "checkpoint.json"
        payload = json.loads(checkpoint.read_text())
        payload["config"]["execution"]["bogus"] = 1
        checkpoint.write_text(json.dumps(payload))
        capsys.readouterr()
        argv = ["evaluate", "--config", config_path, "--checkpoint", str(checkpoint), "--out", str(tmp_path / "eval")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "qeloop.domain.InputError: checkpoint config.execution.bogus: unknown key" in err

    def test_evaluate_names_a_non_finite_value_in_the_checkpoint_config(self, tmp_path, config_path, capsys):
        out_dir = tmp_path / "out"
        assert cli.main(["train", "--config", config_path, "--out", str(out_dir), "--set", "episode_count=1"]) == 0
        checkpoint = out_dir / "checkpoint.json"
        payload = json.loads(checkpoint.read_text())
        payload["config"]["loop"]["modifier_scale"] = float("inf")
        checkpoint.write_text(json.dumps(payload))
        capsys.readouterr()
        argv = ["evaluate", "--config", config_path, "--checkpoint", str(checkpoint), "--out", str(tmp_path / "eval")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "InputError: checkpoint config.loop.modifier_scale: must be a finite number, got inf" in err

    def test_evaluate_names_a_checkpoint_that_is_not_json(self, tmp_path, config_path, capsys):
        out_dir = tmp_path / "out"
        assert cli.main(["train", "--config", config_path, "--out", str(out_dir), "--set", "episode_count=1"]) == 0
        checkpoint = out_dir / "checkpoint.json"
        checkpoint.write_text(checkpoint.read_text()[:100])
        capsys.readouterr()
        argv = ["evaluate", "--config", config_path, "--checkpoint", str(checkpoint), "--out", str(tmp_path / "eval")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"qeloop.domain.InputError: checkpoint {checkpoint} is not valid JSON: Unterminated" in err

    def test_evaluate_names_an_rng_state_out_of_range(self, tmp_path, config_path, capsys):
        out_dir = tmp_path / "out"
        assert cli.main(["train", "--config", config_path, "--out", str(out_dir), "--set", "episode_count=1"]) == 0
        checkpoint = out_dir / "checkpoint.json"
        payload = json.loads(checkpoint.read_text())
        payload["rng_states"]["env"]["uinteger"] = -1
        checkpoint.write_text(json.dumps(payload))
        capsys.readouterr()
        argv = ["evaluate", "--config", config_path, "--checkpoint", str(checkpoint), "--out", str(tmp_path / "eval")]
        assert cli.main(argv) == 2
        assert "checkpoint rng_states.env.uinteger is -1, expected a non-negative integer" in capsys.readouterr().err

    def test_evaluate_names_a_checkpoint_that_is_not_utf8(self, tmp_path, config_path, capsys):
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_bytes(b"\xff" + json.dumps({"schema_version": 12}).encode())
        argv = ["evaluate", "--config", config_path, "--checkpoint", str(checkpoint), "--out", str(tmp_path / "eval")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"qeloop.domain.InputError: checkpoint {checkpoint} is not valid JSON: 'utf-8' codec can't decode" in err

    def test_failed_evaluate_leaves_its_output_directory_as_it_was(self, tmp_path, config_path, capsys):
        out_dir = tmp_path / "out"
        assert cli.main(["train", "--config", config_path, "--out", str(out_dir), "--set", "episode_count=1"]) == 0
        before = {path.name: path.read_bytes() for path in out_dir.iterdir()}
        assert before["events.jsonl"] and before["feedback.jsonl"]
        checkpoint = tmp_path / "truncated.json"
        checkpoint.write_bytes(before["checkpoint.json"][:100])
        argv = ["evaluate", "--config", config_path, "--checkpoint", str(checkpoint), "--out", str(out_dir)]
        assert cli.main(argv) == 2
        assert {path.name: path.read_bytes() for path in out_dir.iterdir()} == before

    def test_evaluate_rejects_a_non_positive_episode_count(self, tmp_path, config_path):
        argv = ["evaluate", "--config", config_path, "--checkpoint", str(tmp_path / "none.json")]
        assert cli.main(argv + ["--episodes", "0"]) == 1


def write_feedback_file(path, records):
    path.write_text("".join(r.to_json_line() + "\n" for r in records))


class TestReplayCommand:
    def build_snapshot(self, tmp_path):
        store = KnowledgeStore(d_emb=64)
        store.add_node("tc-1")
        store.upsert_edge("tc-1", "req-0", EdgeType.Covers, 0.5)
        store.upsert_edge("req-0", "req-1", EdgeType.DependsOn, 0.5)
        snap = tmp_path / "kb.json"
        store.save_snapshot(snap)
        return snap

    def feedback_records(self):
        hit = FeedbackRecord(
            "tc-1",
            (DefectReport("r1", "tc-1", Severity.High, False, "def-1"),),
            1.0, 2.0, 1.0, 0.5, 0.5, 1.0, 0.8,
        )
        return [hit]

    def test_replay_applies_edge_reinforcement(self, tmp_path, config_path):
        snap = self.build_snapshot(tmp_path)
        feedback_path = tmp_path / "feedback.jsonl"
        write_feedback_file(feedback_path, self.feedback_records())
        out_dir = tmp_path / "out"
        code = cli.main(
            ["replay", "--config", config_path, str(feedback_path), "--kb", str(snap), "--out", str(out_dir)]
        )
        assert code == 0
        evolved = KnowledgeStore.load_snapshot(out_dir / "kb_after_replay.json")
        # Direct in-process application must agree exactly.
        oracle = KnowledgeStore.load_snapshot(snap)
        config = cli.load_config(config_path)
        cli.replay_into_store(oracle, self.feedback_records(), config.kb.edge_learning_rate)
        assert evolved.edge_weight("tc-1", "req-0", EdgeType.Covers) == pytest.approx(
            oracle.edge_weight("tc-1", "req-0", EdgeType.Covers)
        )
        # The touched edge moved toward 1; the unrelated edge did not.
        assert evolved.edge_weight("tc-1", "req-0", EdgeType.Covers) > 0.5
        assert evolved.edge_weight("req-0", "req-1", EdgeType.DependsOn) == 0.5

    def test_replay_names_a_snapshot_weight_too_large_for_a_float(self, tmp_path, config_path, capsys):
        snap = self.build_snapshot(tmp_path)
        payload = json.loads(snap.read_text())
        payload["graph_edges"][0]["weight"] = 10**400
        snap.write_text(json.dumps(payload))
        feedback_path = tmp_path / "feedback.jsonl"
        write_feedback_file(feedback_path, self.feedback_records())
        argv = ["replay", "--config", config_path, str(feedback_path), "--kb", str(snap), "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 2
        assert "knowledge snapshot.graph_edges[0].weight must be a finite number, got 1000" in capsys.readouterr().err

    def test_replay_names_a_snapshot_that_is_not_json(self, tmp_path, config_path, capsys):
        snap = self.build_snapshot(tmp_path)
        snap.write_text(snap.read_text()[:33])
        feedback_path = tmp_path / "feedback.jsonl"
        write_feedback_file(feedback_path, self.feedback_records())
        argv = ["replay", "--config", config_path, str(feedback_path), "--kb", str(snap), "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"knowledge snapshot {snap} is not valid JSON: Expecting value: line 3 column 17 (char 33)" in err

    def test_replay_reports_bad_lines_and_continues(self, tmp_path, config_path, capsys):
        feedback_path = tmp_path / "feedback.jsonl"
        lines = [r.to_json_line() for r in self.feedback_records()]
        lines.insert(0, "{broken")
        feedback_path.write_text("\n".join(lines) + "\n")
        code = cli.main(
            ["replay", "--config", config_path, str(feedback_path), "--out", str(tmp_path / "o")]
        )
        assert code == 0
        assert "line 1" in capsys.readouterr().err

    def test_replay_reports_each_line_of_the_wrong_json_type_with_its_number(self, tmp_path, config_path, capsys):
        good = self.feedback_records()[0].to_dict()
        flag_as_text = json.loads(json.dumps(good))
        flag_as_text["defects"][0]["is_false_positive"] = "false"
        time_as_text = dict(good, execution_time="4.5")
        infinite_time = dict(good, execution_time=float("inf"))
        feedback_path = tmp_path / "feedback.jsonl"
        lines = [json.dumps(d) for d in (good, flag_as_text, time_as_text, infinite_time)]
        feedback_path.write_text("\n".join(lines) + "\n")
        code = cli.main(["replay", "--config", config_path, str(feedback_path), "--out", str(tmp_path / "o")])
        assert code == 0
        out = capsys.readouterr()
        assert "replayed 1 records" in out.out
        skipped = out.err.splitlines()
        assert len(skipped) == 3
        assert "line 2: DefectReport.is_false_positive must be a boolean" in skipped[0]
        assert "line 3: FeedbackRecord.execution_time must be a finite number, got '4.5'" in skipped[1]
        assert "InputError: line 4: FeedbackRecord.execution_time must be a finite number, got inf" in skipped[2]

    def test_replay_names_a_severity_that_is_no_member(self, tmp_path, config_path, capsys):
        lines = []
        for severity in ("Bogus", 3):
            record = self.feedback_records()[0].to_dict()
            record["defects"][0]["severity"] = severity
            lines.append(json.dumps(record))
        feedback_path = tmp_path / "feedback.jsonl"
        feedback_path.write_text("\n".join(lines) + "\n")
        assert cli.main(["replay", "--config", config_path, str(feedback_path), "--out", str(tmp_path / "o")]) == 1
        skipped = capsys.readouterr().err.splitlines()
        members = "['Low', 'Medium', 'High', 'Critical']"
        assert skipped == [
            f"skipped qeloop.domain.InputError: line 1: DefectReport.severity must be one of {members}, got 'Bogus'",
            f"skipped qeloop.domain.InputError: line 2: DefectReport.severity must be one of {members}, got 3",
        ]

    def test_replay_names_a_snapshot_that_is_not_utf8(self, tmp_path, config_path, capsys):
        snap = self.build_snapshot(tmp_path)
        snap.write_bytes(snap.read_bytes().replace(b'"tc-1"', b'"tc-\xff"', 1))
        feedback_path = tmp_path / "feedback.jsonl"
        write_feedback_file(feedback_path, self.feedback_records())
        argv = ["replay", "--config", config_path, str(feedback_path), "--kb", str(snap), "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"qeloop.domain.InputError: knowledge snapshot {snap} is not valid JSON: 'utf-8' codec can't decode" in err

    def test_replay_skips_a_line_that_is_not_utf8_with_its_number(self, tmp_path, config_path, capsys):
        good = self.feedback_records()[0].to_json_line().encode()
        feedback_path = tmp_path / "feedback.jsonl"
        feedback_path.write_bytes(good + b"\n" + good.replace(b'"tc-1"', b'"tc-\xff"') + b"\n" + good + b"\n")
        argv = ["replay", "--config", config_path, str(feedback_path), "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 0
        out = capsys.readouterr()
        assert "replayed 2 records" in out.out
        assert out.err.splitlines() == [
            "skipped qeloop.domain.InputError: line 2: 'utf-8' codec can't decode byte 0xff in position "
            f"{good.index(b'tc-1') + 3}: invalid start byte"
        ]

    def test_replay_input_not_modified(self, tmp_path, config_path):
        feedback_path = tmp_path / "feedback.jsonl"
        write_feedback_file(feedback_path, self.feedback_records())
        before = feedback_path.read_bytes()
        cli.main(["replay", "--config", config_path, str(feedback_path), "--out", str(tmp_path / "o")])
        assert feedback_path.read_bytes() == before


CSV_NAMES = ("metrics.csv", "ppo_updates.csv", "dqn_steps.csv")


def export_run(config_path, run_dir, export_dir):
    argv = ["export", "--config", config_path, str(run_dir / "events.jsonl"), "--out", str(export_dir)]
    assert cli.main(argv) == 0


@pytest.fixture(scope="module")
def two_episode_log(tmp_path_factory) -> list[str]:
    """The event-log lines of a 2-episode run of TINY."""
    root = tmp_path_factory.mktemp("two_episode")
    config = root / "config.json"
    config.write_text(json.dumps(TINY))
    argv = ["train", "--config", str(config), "--out", str(root / "out"), "--set", "episode_count=2"]
    assert cli.main(argv) == 0
    return (root / "out" / "events.jsonl").read_text().splitlines()


def export_changed(lines, tmp_path, config_path, capsys, change) -> tuple[int, str]:
    """Export the event log ``lines``, parsed and passed to ``change``, which
    edits the list in place and returns the index of the event it made bad;
    assert the export exits 1 and writes no directory, and return that
    event's line number and the standard error."""
    events = [json.loads(line) for line in lines]
    index = change(events)
    path = tmp_path / "events.jsonl"
    path.write_text("".join(json.dumps(event) + "\n" for event in events))
    capsys.readouterr()
    argv = ["export", "--config", config_path, str(path), "--out", str(tmp_path / "export")]
    assert cli.main(argv) == 1
    assert not (tmp_path / "export").exists()
    return index + 1, capsys.readouterr().err


def first(events, kind) -> int:
    return [event["type"] for event in events].index(kind)


def inserted(event, after: str):
    """A change that inserts ``event`` after the first event of type ``after``."""

    def change(events):
        index = first(events, after) + 1
        events.insert(index, event)
        return index

    return change


def edited(kind: str, edit):
    """A change that applies ``edit`` to the first event of type ``kind``."""

    def change(events):
        index = first(events, kind)
        edit(events[index])
        return index

    return change


def slot_after_episode_end(events):
    index = first(events, "episode_end") + 1
    events.insert(index, events[first(events, "slot")])
    return index


class TestExportCommand:
    def test_export_rederives_identical_csv(self, tmp_path, config_path):
        out_dir, export_dir = tmp_path / "out", tmp_path / "export"
        assert cli.main(["train", "--config", config_path, "--out", str(out_dir)]) == 0
        export_run(config_path, out_dir, export_dir)
        # The run has PPO updates and DQN steps with a loss, so every column is exercised.
        assert len((out_dir / "ppo_updates.csv").read_text().splitlines()) > 1
        assert any(row.split(",")[2] for row in (out_dir / "dqn_steps.csv").read_text().splitlines()[1:])
        for name in CSV_NAMES:
            assert (export_dir / name).read_bytes() == (out_dir / name).read_bytes()

    @pytest.mark.parametrize(
        "event, problem",
        [
            ({"type": "episode_start", "episode": 0}, "planned_requirements"),
            ({"type": "episode_end", "episode": 0, "metrics": {"bogus": 1.0}}, "bogus"),
        ],
    )
    def test_export_rejects_a_malformed_event_log(self, tmp_path, config_path, capsys, event, problem):
        events = tmp_path / "events.jsonl"
        run_start = {
            "type": "run_start", "event_schema": trainer.EVENT_SCHEMA_VERSION, "n_requirements": 6, "n_defects": 8,
            "seed": 0,
        }
        events.write_text(json.dumps(run_start) + "\n" + json.dumps(event) + "\n")
        argv = ["export", "--config", config_path, str(events), "--out", str(tmp_path / "export")]
        assert cli.main(argv) == 1
        assert problem in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, edit",
        [
            ("slot", lambda event: event["records"][0].update(bogus=1)),
            ("slot", lambda event: event["records"][0].update(quality_rating="abc")),
            ("slot", lambda event: event["reward"].update(bogus=1.0)),
        ],
        ids=["record-unknown-key", "record-non-numeric-field", "breakdown-unknown-key"],
    )
    def test_export_names_the_line_of_a_malformed_event(
        self, tmp_path, config_path, capsys, two_episode_log, kind, edit
    ):
        line, err = export_changed(two_episode_log, tmp_path, config_path, capsys, edited(kind, edit))
        assert f"qeloop.config.ConfigError: input line {line}: malformed event log" in err

    @pytest.mark.parametrize(
        "kind, edit, field",
        [
            ("run_start", lambda event: event.update(n_requirements=0), "n_requirements"),
            ("run_start", lambda event: event.update(n_requirements=True), "n_requirements"),
            ("episode_start", lambda event: event.update(planned_requirements="req-000"), "planned_requirements"),
            ("slot", lambda event: event["reward"].update(total="0.5"), "RewardBreakdown.total"),
            ("slot", lambda event: event["reward"].update(effectiveness=True), "RewardBreakdown.effectiveness"),
            ("episode_start", lambda event: event.update(reachable_defects=2.7), "reachable_defects"),
            ("episode_start", lambda event: event.update(reachable_defects="20"), "reachable_defects"),
            ("kb_action", lambda event: event.pop("mean_q"), "kb_action: missing key(s) ['mean_q']"),
            (
                "kb_action",
                lambda event: event.update(loss="abc", step=[1, 2]),
                "kb_action step must be an integer, got [1, 2]",
            ),
            ("kb_action", lambda event: event.update(loss="abc"), "kb_action.loss must be a finite number, got 'abc'"),
            ("kb_action", lambda event: event.update(chosen_action=3), "kb_action.chosen_action must be a string"),
            ("ppo_update", lambda event: event.update(update_index=-1), "ppo_update update_index is -1"),
            (
                "ppo_update",
                lambda event: event.update(entropy=None),
                "ppo_update.entropy must be a finite number, got None",
            ),
            ("ppo_update", lambda event: event.update(bogus=1), "ppo_update: unknown key(s) ['bogus']"),
            ("episode_end", lambda event: event.update(episode=7), "episode_end episode is 7, the open episode is 0"),
            ("slot", lambda event: event.update(episode=1), "slot episode is 1, the open episode is 0"),
            ("episode_start", lambda event: event.update(episode="0"), "episode_start episode must be an integer"),
            *[
                (kind, lambda event: event.update(bogus=1), f"{kind}: unknown key(s) ['bogus']")
                for kind in ("run_start", "episode_start", "slot", "episode_end")
            ],
            ("run_start", lambda event: event.pop("seed"), "run_start: missing key(s) ['seed']"),
            ("episode_start", lambda event: event.pop("episode"), "episode_start: missing key(s) ['episode']"),
            ("slot", lambda event: event.pop("test_ids"), "slot: missing key(s) ['test_ids']"),
            ("episode_end", lambda event: event.pop("metrics"), "episode_end: missing key(s) ['metrics']"),
        ],
        ids=[
            "no-requirements",
            "boolean-requirement-count",
            "planned-requirements-string",
            "reward-total-string",
            "reward-component-boolean",
            "fractional-reachable-defects",
            "reachable-defects-string",
            "kb-action-without-mean-q",
            "kb-action-step-list",
            "kb-action-loss-string",
            "kb-action-chosen-action-number",
            "ppo-update-negative-index",
            "ppo-update-entropy-null",
            "ppo-update-unknown-key",
            "episode-end-of-another-episode",
            "slot-of-another-episode",
            "episode-string",
            "run-start-unknown-key",
            "episode-start-unknown-key",
            "slot-unknown-key",
            "episode-end-unknown-key",
            "run-start-missing-key",
            "episode-start-missing-key",
            "slot-missing-key",
            "episode-end-missing-key",
        ],
    )
    def test_export_names_the_field_of_a_mistyped_event(
        self, tmp_path, config_path, capsys, two_episode_log, kind, edit, field
    ):
        line, err = export_changed(two_episode_log, tmp_path, config_path, capsys, edited(kind, edit))
        assert f"input line {line}: malformed event log" in err and field in err

    @pytest.mark.parametrize("column", trainer.METRICS_CSV_COLUMNS)
    @pytest.mark.parametrize("value", ["number", "string"])
    def test_export_rejects_logged_metrics_its_events_do_not_give(
        self, tmp_path, config_path, capsys, two_episode_log, column, value
    ):
        def edit(event):
            metrics = event["metrics"]
            metrics[column] = metrics[column] + 1 if value == "number" else "abc"

        line, err = export_changed(two_episode_log, tmp_path, config_path, capsys, edited("episode_end", edit))
        assert f"input line {line}: malformed event log" in err and f"episode_end metrics.{column}" in err

    @pytest.mark.parametrize(
        "change, problem",
        [
            (inserted([1, 2], "run_start"), "event must be an object, got list"),
            (inserted({"type": "bogus"}, "run_start"), "event.type must be one of"),
            (inserted({"x": 1}, "run_start"), "event.type must be one of"),
            (slot_after_episode_end, "slot of episode 0 outside an open episode"),
        ],
        ids=["not-an-object", "unknown-type", "no-type", "slot-outside-an-episode"],
    )
    def test_export_rejects_a_line_that_is_no_event_of_its_place(
        self, tmp_path, config_path, capsys, two_episode_log, change, problem
    ):
        line, err = export_changed(two_episode_log, tmp_path, config_path, capsys, change)
        assert f"input line {line}: malformed event log" in err and problem in err

    def test_export_names_the_line_of_a_byte_that_is_not_utf8(self, tmp_path, config_path, capsys, two_episode_log):
        lines = [line.encode("utf-8") for line in two_episode_log]
        lines[-1] = lines[-1][:-1] + b' , "\xff"}'
        events = tmp_path / "events.jsonl"
        events.write_bytes(b"\n".join(lines) + b"\n")
        argv = ["export", "--config", config_path, str(events), "--out", str(tmp_path / "export")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert f"input line {len(lines)}: malformed event log: UnicodeDecodeError" in err

    def test_a_fault_in_the_fold_leaves_export_with_its_traceback(
        self, tmp_path, config_path, two_episode_log, monkeypatch
    ):
        events = tmp_path / "events.jsonl"
        events.write_text("\n".join(two_episode_log) + "\n")

        def append(tables, event):
            raise KeyError("fault in the fold")

        monkeypatch.setattr(trainer.RunTables, "append", append)
        with pytest.raises(KeyError, match="fault in the fold"):
            cli.main(["export", "--config", config_path, str(events), "--out", str(tmp_path / "export")])

    @pytest.mark.parametrize(
        "edit", [lambda event: event.update(event_schema=1), lambda event: event.pop("event_schema")],
        ids=["other-schema", "no-schema"],
    )
    def test_export_rejects_a_log_of_another_event_schema(self, tmp_path, config_path, capsys, edit):
        out_dir = tmp_path / "out"
        assert cli.main(["train", "--config", config_path, "--out", str(out_dir), "--set", "episode_count=1"]) == 0
        lines = (out_dir / "events.jsonl").read_text().splitlines()
        run_start = json.loads(lines[0])
        edit(run_start)
        events = tmp_path / "events.jsonl"
        events.write_text("\n".join([json.dumps(run_start)] + lines[1:]) + "\n")
        capsys.readouterr()
        argv = ["export", "--config", config_path, str(events), "--out", str(tmp_path / "export")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "input line 1: malformed event log" in err and "event_schema" in err
        assert not (tmp_path / "export").exists()

    def test_export_of_an_evaluation_reproduces_its_csvs(self, tmp_path, config_path):
        out_dir, eval_dir, export_dir = tmp_path / "out", tmp_path / "eval", tmp_path / "export"
        assert cli.main(["train", "--config", config_path, "--out", str(out_dir)]) == 0
        argv = ["evaluate", "--config", config_path, "--checkpoint", str(out_dir / "checkpoint.json")]
        assert cli.main(argv + ["--episodes", "2", "--out", str(eval_dir)]) == 0
        export_run(config_path, eval_dir, export_dir)
        for name in CSV_NAMES:
            assert (export_dir / name).read_bytes() == (eval_dir / name).read_bytes()


class TestAblateCommand:
    def test_ablate_writes_table(self, tmp_path, config_path):
        out_dir = tmp_path / "out"
        code = cli.main(
            [
                "ablate",
                "--config",
                config_path,
                "--out",
                str(out_dir),
                "--seeds",
                "1",
                "--set",
                "episode_count=2",
            ]
        )
        assert code == 0
        table = (out_dir / "ablation.csv").read_text().splitlines()
        assert table[0] == "variant,detection_mean,detection_std,reward_mean,reward_std"
        assert len(table) == 6

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_ablate_rejects_a_non_positive_seed_count(self, tmp_path, config_path, seeds):
        argv = ["ablate", "--config", config_path, "--out", str(tmp_path / "out"), "--seeds", seeds]
        assert cli.main(argv) == 1
        assert not (tmp_path / "out").exists()
