import json

import pytest

from qeloop import cli
from qeloop.domain import FeedbackRecord, DefectReport, Severity
from qeloop.knowledge import EdgeType, KnowledgeStore
from qeloop.trainer import RunConfig, metrics_csv_text, run_training


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
        with pytest.raises(cli.ValidationError):
            cli.load_config(str(path), ("ppo.learning_rate=0.01",))

    def test_learning_rate_override_allowed_with_flag(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        config = cli.load_config(str(path), ("ppo.learning_rate=0.01", "allow_out_of_range=true"))
        assert config.ppo.learning_rate == 0.01

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        with pytest.raises(cli.UnknownKey):
            cli.load_config(str(path), ("ppo.lr=0.0001",))

    def test_missing_file_is_parse_error(self, tmp_path):
        with pytest.raises(cli.ParseError):
            cli.load_config(str(tmp_path / "absent.json"))

    def test_malformed_json_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(cli.ParseError):
            cli.load_config(str(path))

    def test_bad_override_shape_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        with pytest.raises(cli.ParseError):
            cli.load_config(str(path), ("no_equals_sign",))

    @pytest.mark.parametrize(
        "override, error, key",
        [
            ("kb.initial_params.bogus=1", cli.UnknownKey, "kb.initial_params.bogus"),
            ("ppo.epochs_per_update=2.7", cli.ValidationError, "ppo.epochs_per_update"),
            ('ablation.disable_ppo="no"', cli.ValidationError, "ablation.disable_ppo"),
            ("seed=1.9", cli.ValidationError, "seed"),
            ("rewards.weights.bogus=0.1", cli.UnknownKey, "rewards.weights.bogus"),
            ("env.severity_proportions.Bogus=0.1", cli.UnknownKey, "env.severity_proportions.Bogus"),
            ("ppo=x", cli.ValidationError, "ppo"),
            ("rl.seed=0", cli.UnknownKey, "rl.seed"),
        ],
    )
    def test_bad_override_rejected_with_its_path(self, tmp_path, override, error, key):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        with pytest.raises(error) as exc:
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

    def test_gradcheck_exits_zero_and_reports(self, config_path, capsys):
        assert cli.main(["gradcheck", "--config", config_path]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out and "PASS" in out

    def test_unknown_subcommand_exits_one(self, config_path):
        assert cli.main(["frobnicate", "--config", config_path]) == 1


class TestTrainCommand:
    def test_train_writes_artifacts_and_matches_in_process_run(self, tmp_path, config_path):
        out_dir = tmp_path / "out"
        assert cli.main(["train", "--config", config_path, "--out", str(out_dir)]) == 0
        csv_text = (out_dir / "metrics.csv").read_text()
        expected = run_training(RunConfig.from_dict(TINY))
        assert csv_text == metrics_csv_text(expected.metrics)
        assert (out_dir / "checkpoint.json").exists()
        assert (out_dir / "events.jsonl").exists()

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

    def test_replay_input_not_modified(self, tmp_path, config_path):
        feedback_path = tmp_path / "feedback.jsonl"
        write_feedback_file(feedback_path, self.feedback_records())
        before = feedback_path.read_bytes()
        cli.main(["replay", "--config", config_path, str(feedback_path), "--out", str(tmp_path / "o")])
        assert feedback_path.read_bytes() == before


class TestExportCommand:
    def test_export_rederives_identical_csv(self, tmp_path, config_path):
        out_dir = tmp_path / "out"
        cli.main(["train", "--config", config_path, "--out", str(out_dir)])
        export_dir = tmp_path / "export"
        code = cli.main(
            ["export", "--config", config_path, str(out_dir / "events.jsonl"), "--out", str(export_dir)]
        )
        assert code == 0
        assert (export_dir / "metrics.csv").read_text() == (out_dir / "metrics.csv").read_text()


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
