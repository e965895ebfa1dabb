import json
from dataclasses import replace

import pytest

from qeloop.config import ConfigTypeError
from qeloop.dqn import DQNConfig
from qeloop.knowledge import EdgeType
from qeloop.ppo import PPOConfig
from qeloop.qe_env import EnvConfig
from qeloop.trainer import (
    ABLATION_VARIANTS,
    AblationFlags,
    EpisodeMetrics,
    IOFailure,
    KBConfig,
    LoopConfig,
    RunConfig,
    RunResult,
    SchemaVersionMismatch,
    TrainingSystem,
    UnknownConfigKey,
    derive_metrics_from_events,
    export_metrics,
    final_window_mean,
    metrics_csv_text,
    run_ablation_suite,
    run_training,
)


def tiny_config(**overrides) -> RunConfig:
    base = RunConfig(
        seed=0,
        episode_count=4,
        tests_per_episode=4,
        env=EnvConfig(n_requirements=6, n_defects=8),
        kb=KBConfig(d_emb=64),
        ppo=PPOConfig(rollout_length=8, epochs_per_update=2, minibatch_size=8),
        dqn=DQNConfig(
            replay_capacity=128, batch_size=4, target_sync_interval=10,
            epsilon_decay_steps=20, train_steps_per_action=1,
        ),
        loop=LoopConfig(n_tests=1, kb_action_interval=2),
    )
    return replace(base, **overrides)


class TestEpisodeLoop:
    def test_four_slots_one_test_each_gives_four_feedback_records(self):
        system = TrainingSystem(tiny_config(episode_count=1))
        system.run_episode()
        feedback_events = [e for e in system.events if e["type"] == "feedback"]
        assert len(feedback_events) == 4

    def test_three_tests_per_slot_triples_records(self):
        config = tiny_config(episode_count=1, loop=LoopConfig(n_tests=3, kb_action_interval=2))
        system = TrainingSystem(config)
        system.run_episode()
        assert len([e for e in system.events if e["type"] == "feedback"]) == 12

    def test_all_five_roles_act_every_slot(self):
        system = TrainingSystem(tiny_config(episode_count=1))
        system.run_episode()
        actions = [e for e in system.events if e["type"] == "agent_action"]
        assert len(actions) == 4 * 4  # three modifiers + one generator per slot
        roles = {e["role"] for e in actions}
        assert "TestCaseGeneration" in roles and len(roles) >= 4

    def test_integration_agent_takes_its_slots(self):
        config = tiny_config(
            episode_count=1,
            tests_per_episode=5,
            loop=LoopConfig(n_tests=1, kb_action_interval=2, integration_slot_interval=5),
        )
        system = TrainingSystem(config)
        system.run_episode()
        gen_events = [e for e in system.events if e["type"] == "agent_action" and "strategy" in e]
        assert gen_events[4]["role"] == "IntegrationPoint"
        assert all(e["role"] == "TestCaseGeneration" for e in gen_events[:4])

    def test_metrics_rates_within_bounds(self):
        system = TrainingSystem(tiny_config())
        for metrics in system.run():
            for name in (
                "generation_accuracy",
                "defect_detection_rate",
                "false_positive_rate",
                "requirement_coverage",
            ):
                assert 0.0 <= getattr(metrics, name) <= 1.0

    def test_scalar_reward_keeps_all_components_recorded(self):
        config = tiny_config(ablation=AblationFlags(scalar_reward=True))
        system = TrainingSystem(config)
        system.run()
        rewards = [e["breakdown"] for e in system.events if e["type"] == "reward"]
        assert any(r["coverage"] != 0.0 for r in rewards)
        for r in rewards:
            assert r["total"] == pytest.approx(r["effectiveness"], abs=1e-12)

    def test_disable_dqn_freezes_retrieval_params(self):
        config = tiny_config(ablation=AblationFlags(disable_dqn=True))
        system = TrainingSystem(config)
        before = system.kb.params
        system.run()
        assert system.kb.params == before
        assert system.dqn_rows == []

    def test_no_feedback_freezes_knowledge(self):
        config = tiny_config(ablation=AblationFlags(no_feedback=True))
        system = TrainingSystem(config)
        vectors_before = system.kb.vector_count
        edges_before = {e.source + e.target: e.weight for e in system.kb.edges()}
        system.run()
        assert system.kb.vector_count == vectors_before
        assert {e.source + e.target: e.weight for e in system.kb.edges()} == edges_before

    def test_disable_ppo_keeps_policy_at_initialization(self):
        config = tiny_config(ablation=AblationFlags(disable_ppo=True), episode_count=6)
        system = TrainingSystem(config)
        snapshots = {role: agent.params.copy() for role, agent in system.agents.items()}
        system.run()
        for role, agent in system.agents.items():
            assert agent.params.equals(snapshots[role])
        assert system.ppo_rows == []


class TestDeterminism:
    def test_identical_config_identical_csv(self):
        a = TrainingSystem(tiny_config())
        a.run()
        b = TrainingSystem(tiny_config())
        b.run()
        assert metrics_csv_text(a.metrics_history) == metrics_csv_text(b.metrics_history)

    def test_identical_config_identical_transition_streams(self):
        def streams(system):
            out = {}
            for role, agent in system.agents.items():
                out[role] = [
                    (t.action, t.reward, tuple(t.state), tuple(t.next_state), t.log_prob_old)
                    for t in agent.rollout
                ]
            return out

        a = TrainingSystem(tiny_config())
        a.run()
        b = TrainingSystem(tiny_config())
        b.run()
        assert streams(a) == streams(b)

    def test_different_seed_changes_csv(self):
        a = TrainingSystem(tiny_config(seed=0))
        a.run()
        b = TrainingSystem(tiny_config(seed=1))
        b.run()
        assert metrics_csv_text(a.metrics_history) != metrics_csv_text(b.metrics_history)


class TestCheckpoint:
    def test_split_run_equals_uninterrupted(self, tmp_path):
        straight = TrainingSystem(tiny_config(episode_count=6))
        straight.run()

        first = TrainingSystem(tiny_config(episode_count=6))
        first.run(episodes=3)
        path = tmp_path / "ckpt.json"
        first.checkpoint(path)
        resumed = TrainingSystem.restore(path)
        resumed.run(episodes=3)
        assert metrics_csv_text(resumed.metrics_history) == metrics_csv_text(straight.metrics_history)

    def test_checkpoint_twice_is_byte_identical(self, tmp_path):
        system = TrainingSystem(tiny_config())
        system.run(episodes=2)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        system.checkpoint(p1)
        system.checkpoint(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupted_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{garbage")
        with pytest.raises(SchemaVersionMismatch):
            TrainingSystem.restore(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(SchemaVersionMismatch):
            TrainingSystem.restore(path)

    def test_version_1_checkpoint_rejected(self, tmp_path):
        # Version 1 checkpoints still carry the removed rl.seed knob; they
        # must fail on their version, not on that key.
        system = TrainingSystem(tiny_config())
        system.run(episodes=1)
        payload = system.checkpoint_dict()
        payload["schema_version"] = 1
        payload["config"]["rl"]["seed"] = 0
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaVersionMismatch, match="schema_version 1"):
            TrainingSystem.restore(path)

    def test_missing_file_is_io_failure(self, tmp_path):
        with pytest.raises(IOFailure):
            TrainingSystem.restore(tmp_path / "absent.json")

    def test_truncated_payload_never_partial(self, tmp_path):
        system = TrainingSystem(tiny_config())
        system.run(episodes=1)
        payload = system.checkpoint_dict()
        del payload["agents"]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaVersionMismatch):
            TrainingSystem.restore(path)


class TestExport:
    def run_result(self, config=None) -> RunResult:
        return run_training(config or tiny_config())

    def test_csv_row_count_and_header(self, tmp_path):
        result = self.run_result()
        paths = export_metrics(result, tmp_path / "out")
        lines = open(paths["metrics"]).read().splitlines()
        assert lines[0].startswith("episode,generation_accuracy,defect_detection_rate")
        assert len(lines) == 1 + len(result.metrics)

    def test_metrics_rederived_from_events_match(self, tmp_path):
        result = self.run_result()
        derived = derive_metrics_from_events(result.events)
        assert metrics_csv_text(derived) == metrics_csv_text(result.metrics)

    def test_empty_run_refuses_export(self, tmp_path):
        config = tiny_config()
        system = TrainingSystem(config)
        result = RunResult(config, [], system.events, [], [], system)
        with pytest.raises(IOFailure):
            export_metrics(result, tmp_path / "out")

    def test_events_jsonl_parseable_and_tagged(self, tmp_path):
        result = self.run_result()
        paths = export_metrics(result, tmp_path / "out")
        with open(paths["events"]) as fh:
            for line in fh:
                assert "type" in json.loads(line)

    def test_learner_csvs_written(self, tmp_path):
        result = self.run_result()
        paths = export_metrics(result, tmp_path / "out")
        assert open(paths["ppo_updates"]).readline().startswith("update_index,role,mean_ratio")
        assert open(paths["dqn_steps"]).readline().startswith("step,epsilon,loss,mean_q,chosen_action")

    def test_feedback_jsonl_replays_identically(self, tmp_path):
        from qeloop.domain import FeedbackRecord
        from qeloop.qe_env import replay_feedback

        result = self.run_result()
        paths = export_metrics(result, tmp_path / "out")
        original = [
            FeedbackRecord.from_dict(e["record"]) for e in result.events if e["type"] == "feedback"
        ]
        replayed = list(replay_feedback(paths["feedback"]))
        assert replayed == original


class TestRunConfig:
    def test_defaults_round_trip(self):
        config = RunConfig()
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_empty_dict_gives_defaults(self):
        assert RunConfig.from_dict({}) == RunConfig()

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(UnknownConfigKey):
            RunConfig.from_dict({"episodes": 5})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(UnknownConfigKey) as exc:
            RunConfig.from_dict({"ppo": {"lr": 1e-4}})
        assert "ppo.lr" in str(exc.value)

    def test_learning_rate_out_of_range_rejected_without_flag(self):
        config = RunConfig.from_dict({"ppo": {"learning_rate": 0.01}})
        with pytest.raises(ValueError):
            config.validate()
        replace(config, allow_out_of_range=True).validate()

    def test_ablation_flags_round_trip(self):
        config = RunConfig.from_dict({"ablation": {"disable_ppo": True}})
        assert config.ablation.disable_ppo is True
        assert config.ablation.scalar_reward is False

    @pytest.mark.parametrize(
        "raw, error, key",
        [
            ({"kb": {"initial_params": {"bogus": 1}}}, UnknownConfigKey, "kb.initial_params.bogus"),
            ({"ppo": {"epochs_per_update": 2.7}}, ConfigTypeError, "ppo.epochs_per_update"),
            ({"ablation": {"disable_ppo": "no"}}, ConfigTypeError, "ablation.disable_ppo"),
            ({"seed": 1.9}, ConfigTypeError, "seed"),
            ({"rewards": {"weights": {"bogus": 0.1}}}, UnknownConfigKey, "rewards.weights.bogus"),
            (
                {"env": {"severity_proportions": {"Bogus": 0.1}}},
                UnknownConfigKey,
                "env.severity_proportions.Bogus",
            ),
            ({"ppo": "x"}, ConfigTypeError, "ppo"),
            ({"rl": {"seed": 0}}, UnknownConfigKey, "rl.seed"),
        ],
    )
    def test_bad_input_rejected_with_its_path(self, raw, error, key):
        with pytest.raises(error) as exc:
            RunConfig.from_dict(raw)
        assert exc.value.key == key

    def test_partial_enum_map_keeps_run_defaults(self):
        raw = {"kb": {"initial_params": {"edge_type_weights": {"Covers": 0.5}}}}
        weights = RunConfig.from_dict(raw).kb.initial_params.edge_type_weights
        assert weights == {**RunConfig().kb.initial_params.edge_type_weights, EdgeType.Covers: 0.5}


class TestAblationSuite:
    def test_contains_full_and_four_ablations(self):
        assert set(ABLATION_VARIANTS) == {
            "full", "disable_ppo", "disable_dqn", "scalar_reward", "no_feedback",
        }

    def test_single_seed_deterministic_tables(self):
        config = tiny_config(episode_count=2)
        a = run_ablation_suite(config, n_seeds=1, window=2)
        b = run_ablation_suite(config, n_seeds=1, window=2)
        assert a.csv_text() == b.csv_text()
        assert a.table_text() == b.table_text()

    def test_rows_carry_per_seed_values(self):
        config = tiny_config(episode_count=2)
        result = run_ablation_suite(config, n_seeds=2, window=2)
        for row in result.rows:
            assert len(row.per_seed_detection) == 2
            assert len(row.per_seed_reward) == 2


class TestFinalWindow:
    def test_final_window_mean(self):
        metrics = [
            EpisodeMetrics(i, 0, 0, 0, 0, 0, 0, 0, 0, 0, float(i)) for i in range(10)
        ]
        assert final_window_mean(metrics, "r_total", 4) == pytest.approx((6 + 7 + 8 + 9) / 4)
