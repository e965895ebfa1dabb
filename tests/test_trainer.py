import base64
import json
import math
import os
import re
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qeloop
from qeloop import cli, trainer
from qeloop.agents import PerformanceTracker, featurize_state
from qeloop.config import ConfigError
from qeloop.domain import AgentRole, InputError
from qeloop.dqn import DQNConfig
from qeloop.knowledge import KB_ACTION_COUNT, EdgeType
from qeloop.ppo import PPOConfig
from qeloop.qe_env import EnvConfig
from qeloop.rl_core import xavier_init
from qeloop.trainer import (
    ABLATION_VARIANTS,
    AblationFlags,
    EpisodeMetrics,
    EventLog,
    KBConfig,
    LoopConfig,
    RunConfig,
    TrainingSystem,
    derive_metrics_from_events,
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


def slot_events(system: TrainingSystem) -> list[dict]:
    return [e for e in system.events if e["type"] == "slot"]


class TestEpisodeLoop:
    def test_four_slots_one_test_each_gives_four_feedback_records(self):
        system = TrainingSystem(tiny_config(episode_count=1))
        system.run_episode()
        records = [r for e in slot_events(system) for r in e["records"]]
        assert len(records) == 4

    def test_three_tests_per_slot_triples_records(self):
        config = tiny_config(episode_count=1, loop=LoopConfig(n_tests=3, kb_action_interval=2))
        system = TrainingSystem(config)
        system.run_episode()
        slots = slot_events(system)
        assert len([r for e in slots for r in e["records"]]) == 12
        for e in slots:
            assert [r["test_case_ref"] for r in e["records"]] == e["test_ids"]
            assert len(set(e["test_ids"])) == 3 and "id" not in e["test"]

    def test_all_five_roles_act_every_slot(self):
        system = TrainingSystem(tiny_config(episode_count=1))
        system.run_episode()
        actions = [a for e in slot_events(system) for a in e["actions"]]
        assert len(actions) == 4 * 4  # three modifiers + one generator per slot
        roles = {e["role"] for e in actions}
        assert "TestCaseGeneration" in roles and len(roles) >= 4

    def test_run_episode_returns_the_folded_row(self):
        system = TrainingSystem(tiny_config(episode_count=2))
        for _ in range(2):
            row = system.run_episode()
            assert row is system.tables.metrics[-1]
            assert system.events[-1] == {"type": "episode_end", "episode": row.episode, "metrics": row.to_dict()}
        assert [row.episode for row in system.tables.metrics] == [0, 1]

    def test_a_slot_featurizes_and_pushes_once_per_tracker(self, monkeypatch):
        featurized, pushed = [], []
        monkeypatch.setattr(
            trainer, "featurize_state", lambda *args: featurized.append(args[1]) or featurize_state(*args)
        )
        push_record = PerformanceTracker.push_record
        monkeypatch.setattr(
            PerformanceTracker, "push_record", lambda self, fb: pushed.append((self, fb)) or push_record(self, fb)
        )
        system = TrainingSystem(RunConfig(episode_count=1, tests_per_episode=1))
        system.run_episode()
        trackers = [system.trackers["modifiers"], system.trackers["TestCaseGeneration"]]
        assert featurized == trackers
        (slot,) = slot_events(system)
        assert len(slot["records"]) == 3
        assert [tracker for tracker, _ in pushed] == [trackers[0]] * 3 + [trackers[1]] * 3
        assert [fb.to_dict() for _, fb in pushed] == slot["records"] * 2

    def test_modifiers_share_one_bootstrap_state(self, monkeypatch):
        calls = []
        monkeypatch.setattr(trainer, "featurize_state", lambda *args: calls.append(1) or featurize_state(*args))
        # Every slot of the tiny config is a TestCaseGeneration slot, so all
        # four acting rollouts fill in the eighth slot.
        system = TrainingSystem(tiny_config(episode_count=2))
        system.run()
        assert len(system.tables.ppo_updates) == 4
        # Two states per slot, and one bootstrap state per tracker.
        assert len(calls) == 8 * 2 + 2
        bootstraps = [system.agents[role].rollout.states[-1] for role in trainer.MODIFIER_ROLES]
        assert all(np.array_equal(state, bootstraps[0]) for state in bootstraps)

    def test_integration_agent_takes_its_slots(self):
        config = tiny_config(
            episode_count=1,
            tests_per_episode=5,
            loop=LoopConfig(n_tests=1, kb_action_interval=2, integration_slot_interval=5),
        )
        system = TrainingSystem(config)
        system.run_episode()
        gen_actions = [e["actions"][-1] for e in slot_events(system)]
        assert gen_actions[4]["role"] == "IntegrationPoint"
        assert all(a["role"] == "TestCaseGeneration" for a in gen_actions[:4])

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
        rewards = [e["reward"] for e in slot_events(system)]
        assert any(r["coverage"] != 0.0 for r in rewards)
        for r in rewards:
            assert r["total"] == pytest.approx(r["effectiveness"], abs=1e-12)

    def test_disable_dqn_freezes_retrieval_params(self):
        config = tiny_config(ablation=AblationFlags(disable_dqn=True))
        system = TrainingSystem(config)
        before = system.kb.params
        system.run()
        assert system.kb.params == before
        assert system.tables.dqn_steps == []

    def test_disabled_dqn_leaves_the_pending_action_as_it_was(self):
        # ``qeloop evaluate`` disables the DQN after a restore; its pending
        # action must not gather every evaluated slot's reward.
        system = TrainingSystem(tiny_config())
        system.run(episodes=2)
        state, action = system.kb_pending[0].copy(), system.kb_pending[1]
        system.config = replace(system.config, ablation=AblationFlags(disable_dqn=True))
        system.run(episodes=3)
        assert np.array_equal(system.kb_pending[0], state)
        assert system.kb_pending[1] == action

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
                states, actions, rewards, log_probs = agent.rollout
                out[role] = [
                    (actions[t], rewards[t], tuple(states[t]), log_probs[t]) for t in range(agent.rollout_steps)
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


class TestCacheIsolation:
    """Every cache lives on the object whose state it summarises. Seeds reuse
    ids (``def-000``, ``req-000``) for other content, so a cache shared
    between runs would hand one run the other's values."""

    CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.json"
    EPISODES = 35

    def run_alone(self, seed: int, out_dir: Path) -> None:
        """``qeloop train`` in a fresh interpreter, so no cache outlives it."""
        env = dict(os.environ, PYTHONPATH=str(Path(qeloop.__file__).resolve().parent.parent))
        argv = ["train", "--config", str(self.CONFIG), "--set", f"seed={seed}"]
        argv += ["--set", f"episode_count={self.EPISODES}", "--out", str(out_dir)]
        subprocess.run([sys.executable, "-m", "qeloop.cli", *argv], env=env, check=True, capture_output=True)

    def test_interleaved_runs_write_the_bytes_of_runs_made_alone(self, tmp_path):
        systems = {
            seed: TrainingSystem(cli.load_config(str(self.CONFIG), (f"seed={seed}", f"episode_count={self.EPISODES}")))
            for seed in (0, 1)
        }
        for _ in range(self.EPISODES):
            for system in systems.values():
                system.run_episode()
        for seed, system in systems.items():
            alone, interleaved = tmp_path / f"alone-{seed}", tmp_path / f"interleaved-{seed}"
            self.run_alone(seed, alone)
            system.tables.write(interleaved)
            system.checkpoint(interleaved / "checkpoint.json")
            for name in ("metrics.csv", "checkpoint.json"):
                assert (interleaved / name).read_bytes() == (alone / name).read_bytes(), (seed, name)


def as_text(values) -> str:
    """Float64 ``values`` as the checkpoint writes them: base64 of their
    little-endian bytes."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def floats_of(text: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text), dtype="<f8")


def edit_bytes(text: str, edit) -> str:
    """``text``, a float64 buffer or column, with ``edit`` applied to its bytes."""
    return base64.b64encode(edit(base64.b64decode(text))).decode("ascii")


def one_more(raw: bytes) -> bytes:
    return raw + bytes(8)


def one_less(raw: bytes) -> bytes:
    return raw[:-8]


def three_wide(width: int):
    """An edit that cuts each ``width``-wide row of float64 bytes to 3 values."""
    return lambda raw: np.frombuffer(raw, dtype="<f8").reshape(-1, width)[:, :3].tobytes()


def tiled(columns: dict, rows: int) -> dict:
    """``columns`` with their rows repeated in order up to ``rows`` rows."""
    n = len(columns["actions"])
    out = {}
    for name, column in columns.items():
        if isinstance(column, str):
            values = floats_of(column).reshape(n, -1)
            out[name] = as_text(np.resize(values, (rows, values.shape[1])))
        else:
            out[name] = (column * rows)[:rows]
    return out


def stored_test_x(vector: list):
    """A checkpoint edit that stores one more test, ``tc-x``, whose content
    vector is ``vector``: a record for it in the store, which restore checks
    the ``content_vectors`` keys against, and its vector."""

    def edit(payload):
        records = payload["kb"]["vector_records"]
        records.append(dict(records[-1], id="tc-x", payload_ref="tc-x"))
        payload["content_vectors"]["tc-x"] = vector

    return edit


def to_version_11(node):
    # Each float64 buffer and column as a JSON list of numbers, and the mean
    # reward of the KB interval before the last action (this checkpoint's
    # last action closes an episode).
    def as_lists(columns):
        n = len(columns["actions"])
        for name, column in columns.items():
            if isinstance(column, str):
                values = floats_of(column)
                columns[name] = (values.reshape(n, -1) if values.size > n else values).tolist()

    for section in [*node["agents"].values(), node["dqn"]]:
        for net in ("params", "qnet", "target_net"):
            if net in section:
                section[net]["flat"] = floats_of(section[net]["flat"]).tolist()
        for moment in ("m", "v"):
            section["adam"][moment] = floats_of(section["adam"][moment]).tolist()
        as_lists(section["rollout" if "rollout" in section else "replay"])
    interval = node["config"]["loop"]["kb_action_interval"]
    totals = node["trackers"]["modifiers"]["totals"]
    node["prev_interval_mean"] = sum(totals[-interval:]) / interval if node["dqn"]["action_steps"] > 1 else None


def to_version_4(node):
    node["dqn"]["replay_inserted"] = len(node["dqn"]["replay"]["actions"])
    for tracker in node["trackers"].values():
        tracker["window"] = 50


def to_version_5(node):
    for agent in node["agents"].values():
        flat = agent["params"].pop("flat")
        agent["params"].update(schema_version=1, weights=[[repr(x) for x in flat]], biases=[])


def to_version_6(node):
    # Lists of row dicts in place of columns, rollout steps with a next state.
    node["global_slot"] = node["episode_index"] * node["config"]["tests_per_episode"]
    for agent in node["agents"].values():
        r = agent["rollout"]
        agent["rollout"] = [
            {"state": s, "action": a, "reward": rw, "next_state": s, "done": False, "log_prob_old": lp}
            for s, a, rw, lp in zip(r["states"], r["actions"], r["rewards"], r["log_probs"])
        ]
    r = node["dqn"]["replay"]
    node["dqn"]["replay"] = [
        {"state": s, "action": a, "reward": rw, "next_state": ns, "done": d, "log_prob_old": None}
        for s, a, rw, ns, d in zip(r["states"], r["actions"], r["rewards"], r["next_states"], r["dones"])
    ]


def to_version_8(node):
    # Each Adam state carries its learning rate.
    for agent in node["agents"].values():
        agent["adam"]["learning_rate"] = node["config"]["ppo"]["learning_rate"]
    node["dqn"]["adam"]["learning_rate"] = node["config"]["dqn"]["learning_rate"]


def to_version_9(node):
    # Each agent carries its own tracker.
    trackers = node.pop("trackers")
    for role, agent in node["agents"].items():
        agent["tracker"] = trackers[role if role in trackers else "modifiers"]


def to_version_10(node):
    # The reward and false-positive windows beside the modifiers' tracker,
    # the pending KB action's totals and the knob that sized the reward one.
    modifiers = node["trackers"]["modifiers"]
    node["reward_window"] = list(modifiers["totals"])
    node["fp_window"] = [1.0 if record[1] else 0.0 for record in modifiers["records"]]
    node["config"]["rewards"]["adaptation_window"] = 50
    node["kb_pending"]["totals"] = modifiers["totals"][-2:]


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
        # A restored system's tables hold only the episodes run after the restore.
        assert metrics_csv_text(resumed.tables.metrics) == metrics_csv_text(straight.tables.metrics[3:])
        ppo_from, dqn_from = len(first.tables.ppo_updates), len(first.tables.dqn_steps)
        assert resumed.tables.ppo_updates and resumed.tables.dqn_steps
        assert resumed.tables.ppo_updates == straight.tables.ppo_updates[ppo_from:]
        assert resumed.tables.dqn_steps == straight.tables.dqn_steps[dqn_from:]
        third = next(
            i for i, e in enumerate(straight.events)
            if e["type"] == "episode_start" and e["episode"] == 3
        )
        assert resumed.events[0]["type"] == "run_start"
        assert resumed.events[1:] == straight.events[third:]

    def test_resumed_ppo_updates_are_bit_identical(self, tmp_path):
        config = RunConfig(episode_count=8)
        straight = TrainingSystem(config)
        straight.run()
        first = TrainingSystem(config)
        first.run(episodes=4)
        path = tmp_path / "ckpt.json"
        first.checkpoint(path)
        resumed = TrainingSystem.restore(path)
        resumed.run(episodes=4)
        assert resumed.tables.ppo_updates
        assert resumed.tables.ppo_updates == straight.tables.ppo_updates[len(first.tables.ppo_updates):]
        assert resumed.checkpoint_dict() == straight.checkpoint_dict()

    def test_checkpoint_twice_is_byte_identical(self, tmp_path):
        system = TrainingSystem(tiny_config())
        system.run(episodes=2)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        system.checkpoint(p1)
        system.checkpoint(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_checkpoint_bytes_are_json_dump_bytes(self, tmp_path):
        system = TrainingSystem(tiny_config())
        system.run(episodes=2)
        path = tmp_path / "ckpt.json"
        system.checkpoint(path)
        assert path.read_text(encoding="utf-8") == json.dumps(system.checkpoint_dict(), sort_keys=True)

    def test_learner_buffers_are_base64_and_the_rest_json_numbers(self):
        system = TrainingSystem(tiny_config(loop=LoopConfig(n_tests=3, kb_action_interval=2)))
        system.run(episodes=2)
        payload = system.checkpoint_dict()
        agent = system.agents[AgentRole.LegacyTestAnalysis]
        saved = payload["agents"]["LegacyTestAnalysis"]
        assert saved["params"]["flat"] == as_text(agent.params.flat)
        assert (saved["adam"]["m"], saved["adam"]["v"]) == (as_text(agent.adam.m), as_text(agent.adam.v))
        n = agent.rollout_steps
        assert saved["rollout"]["states"] == as_text(agent.rollout.states[:n])
        assert saved["rollout"]["actions"] == agent.rollout.actions[:n].tolist()
        replay = payload["dqn"]["replay"]
        assert [type(replay[name]) for name in ("states", "actions", "rewards", "next_states", "dones")] == [
            str, list, str, str, list,
        ]
        assert payload["content_vectors"] == {key: vec.tolist() for key, vec in system.content_vectors.items()}
        assert payload["kb_pending"]["state"] == system.kb_pending[0].tolist()

    def test_corrupted_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{garbage")
        with pytest.raises(InputError, match=f"^checkpoint {re.escape(str(path))} is not valid JSON: "):
            TrainingSystem.restore(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(InputError, match="^unsupported checkpoint schema_version 99$"):
            TrainingSystem.restore(path)

    def restore_edited(self, tmp_path, section: str, edit):
        system = TrainingSystem(tiny_config())
        system.run(episodes=1)
        payload = system.checkpoint_dict()
        node = payload
        for part in filter(None, section.split(".")):
            node = node[int(part)] if isinstance(node, list) else node[part]
        edit(node)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(payload))
        return TrainingSystem.restore(path)

    @pytest.mark.parametrize(
        "version, edit",
        [
            # Version 1 still carries the removed rl.seed knob.
            (1, lambda node: node["config"]["rl"].update(seed=0)),
            # Version 2 still carries the test catalog.
            (2, lambda node: node.update(test_catalog={})),
            # Version 3 still carries the run's tables.
            (3, lambda node: node.update(metrics_history=[], ppo_rows=[], dqn_rows=[])),
            # Version 4 still carries the trackers' windows and the replay
            # insert count.
            (4, to_version_4),
            # Version 5 stores each network as per-layer lists of decimal strings.
            (5, to_version_5),
            # Version 6 stores rollouts and the replay as lists of row dicts,
            # the rollouts' with next states, and the global slot.
            (6, to_version_6),
            # Version 7 still carries the timing-noise knob.
            (7, lambda node: node["config"]["execution"].update(noise_scale=0.0)),
            # Version 8 stores each Adam state's learning rate.
            (8, to_version_8),
            # Version 9 stores a tracker in each agent's section.
            (9, to_version_9),
            # Version 10 stores the run's reward and feedback history four times.
            (10, to_version_10),
            # Version 11 stores float64 buffers as JSON numbers and the mean
            # reward of the interval before the last KB action.
            (11, to_version_11),
        ],
    )
    def test_old_version_checkpoint_rejected_on_its_version(self, tmp_path, version, edit):
        # An old checkpoint must fail on its version, not on the keys it
        # carries that this version does not read. Versions before 12 hold
        # version 11's JSON numbers.
        def to_old_version(node):
            if version < 11:
                to_version_11(node)
            edit(node)
            node["schema_version"] = version

        with pytest.raises(InputError, match=f"schema_version {version}"):
            self.restore_edited(tmp_path, "", to_old_version)

    @pytest.mark.parametrize(
        "section, key",
        [
            ("", "bogus_key"),
            ("", "test_catalog"),
            ("", "metrics_history"),
            # The modifiers' tracker holds the mean reward of the KB interval
            # before the last action.
            ("", "prev_interval_mean"),
            ("agents.LegacyTestAnalysis", "bogus_key"),
            ("agents", "NoSuchRole"),
            # The modifiers share the ``modifiers`` tracker.
            ("trackers", "LegacyTestAnalysis"),
            ("kb_pending", "bogus_key"),
            ("rng_states", "NoSuchStream"),
            ("kb.retrieval_params", "bogus_key"),
        ],
    )
    def test_unknown_key_rejected_with_its_name(self, tmp_path, section, key):
        with pytest.raises(InputError, match=key):
            self.restore_edited(tmp_path, section, lambda node: node.update({key: {}}))

    @pytest.mark.parametrize(
        "section, path",
        [
            ("dqn", "dqn"),
            ("dqn.qnet", "dqn.qnet"),
            ("dqn.adam", "dqn.adam"),
            ("dqn.replay", "dqn.replay"),
            ("agents.LegacyTestAnalysis.params", "agents.LegacyTestAnalysis.params"),
            ("agents.LegacyTestAnalysis.adam", "agents.LegacyTestAnalysis.adam"),
            ("agents.LegacyTestAnalysis.rollout", "agents.LegacyTestAnalysis.rollout"),
            ("trackers.modifiers", "trackers.modifiers"),
            ("rng_states.env", "rng_states.env"),
        ],
    )
    def test_unknown_nested_key_rejected_with_its_path(self, tmp_path, section, path):
        message = re.escape(f"checkpoint {path}: unknown key(s) ['bogus']")
        with pytest.raises(InputError, match=message):
            self.restore_edited(tmp_path, section, lambda node: node.update(bogus=0))

    @pytest.mark.parametrize("section", ["agents.LegacyTestAnalysis.adam", "dqn.adam"])
    def test_stored_learning_rate_rejected_with_its_path(self, tmp_path, section):
        # The rate is the config's; a checkpoint cannot set another one.
        message = re.escape(f"checkpoint {section}: unknown key(s) ['learning_rate']")
        with pytest.raises(InputError, match=message):
            self.restore_edited(tmp_path, section, lambda node: node.update(learning_rate=10.0))

    def test_restored_optimizers_step_at_the_config_rates(self, tmp_path):
        system = self.restore_edited(tmp_path, "", lambda node: None)
        assert {agent.adam.learning_rate for agent in system.agents.values()} == {system.config.ppo.learning_rate}
        assert system.dqn.adam.learning_rate == system.config.dqn.learning_rate

    @pytest.mark.parametrize(
        "section, edit, path",
        [
            (
                "agents.LegacyTestAnalysis",
                lambda node: node.update(params=xavier_init((16, 8, 5), np.random.default_rng(0)).to_dict()),
                "agents.LegacyTestAnalysis.params.layer_sizes",
            ),
            (
                "agents.LegacyTestAnalysis.params",
                lambda node: node.update(flat=edit_bytes(node["flat"], one_more)),
                "agents.LegacyTestAnalysis.params.flat",
            ),
            (
                "agents.LegacyTestAnalysis.params",
                lambda node: node.update(flat=edit_bytes(node["flat"], one_less)),
                "agents.LegacyTestAnalysis.params.flat",
            ),
            (
                "agents.LegacyTestAnalysis.adam",
                lambda node: node.update(m=edit_bytes(node["m"], one_less)),
                "agents.LegacyTestAnalysis.adam.m",
            ),
            ("dqn.qnet", lambda node: node.update(flat=edit_bytes(node["flat"], one_more)), "dqn.qnet.flat"),
            (
                "trackers.TestCaseGeneration",
                lambda node: node["totals"].extend([0.0] * 60),
                "trackers.TestCaseGeneration.totals",
            ),
            (
                "dqn",
                lambda node: node.update(target_net=xavier_init((10, 8, 13), np.random.default_rng(0)).to_dict()),
                "dqn.target_net.layer_sizes",
            ),
            ("dqn.adam", lambda node: node.update(v=[node["v"]]), "dqn.adam.v"),
            (
                "agents.LegacyTestAnalysis.rollout",
                lambda node: node.update(states=edit_bytes(node["states"], three_wide(16))),
                "agents.LegacyTestAnalysis.rollout.states",
            ),
            (
                "agents.LegacyTestAnalysis.rollout",
                lambda node: node.update(states=edit_bytes(node["states"], one_more)),
                "agents.LegacyTestAnalysis.rollout.states",
            ),
            (
                "agents.LegacyTestAnalysis.rollout",
                lambda node: node.update(log_probs=edit_bytes(node["log_probs"], one_less)),
                "agents.LegacyTestAnalysis.rollout.log_probs",
            ),
            (
                "agents.LegacyTestAnalysis.rollout",
                lambda node: node.update(rewards=edit_bytes(node["rewards"], one_more)),
                "agents.LegacyTestAnalysis.rollout.rewards",
            ),
            (
                "agents.LegacyTestAnalysis.rollout",
                lambda node: node.update(tiled(node, 2 * len(node["actions"]))),
                "agents.LegacyTestAnalysis.rollout",
            ),
            (
                "dqn.replay",
                lambda node: node.update(states=edit_bytes(node["states"], three_wide(10))),
                "dqn.replay.states",
            ),
            ("dqn.replay", lambda node: node.update(next_states=[node["next_states"]]), "dqn.replay.next_states"),
            ("dqn.replay", lambda node: node["dones"].append(False), "dqn.replay.dones"),
            ("kb_pending", lambda node: node.update(state=node["state"] + [0.0]), "kb_pending.state"),
            ("", stored_test_x([0.5] * 3), "content_vectors.tc-x"),
        ],
        ids=[
            "agent-params-topology",
            "agent-params-flat-too-long",
            "agent-params-flat-too-short",
            "agent-adam-m-too-short",
            "dqn-qnet-flat-too-long",
            "tracker-longer-than-window",
            "dqn-target-topology",
            "dqn-adam-v-nested",
            "rollout-state-width",
            "rollout-state-one-float-too-many",
            "rollout-unequal-lengths",
            "rollout-one-reward-too-many",
            "rollout-as-long-as-an-update",
            "replay-state-width",
            "replay-next-state-shape",
            "replay-unequal-lengths",
            "kb-pending-state-width",
            "content-vector-width",
        ],
    )
    def test_state_that_does_not_fit_the_built_system_rejected_with_its_path(self, tmp_path, section, edit, path):
        with pytest.raises(InputError, match=re.escape(f"checkpoint {path} ")):
            self.restore_edited(tmp_path, section, edit)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda node: node["execution"].update(bogus=1), "checkpoint config.execution.bogus: unknown key"),
            (
                lambda node: node["execution"].update(base_time="x"),
                "checkpoint config.execution.base_time: must be a finite number, got 'x'",
            ),
            (
                lambda node: node["execution"].update(base_time=-1.0),
                "checkpoint config.execution: times must be positive",
            ),
            (
                lambda node: node["kb"].update(max_records=600.0),
                "checkpoint config.kb.max_records: must be an integer, got 600.0",
            ),
        ],
        ids=["unknown-key", "wrong-type", "out-of-range", "integral-float-for-an-integer"],
    )
    def test_bad_config_rejected_with_its_path(self, tmp_path, edit, message):
        with pytest.raises(InputError, match=re.escape(message)):
            self.restore_edited(tmp_path, "config", edit)

    @pytest.mark.parametrize("action", [-1, 99])
    @pytest.mark.parametrize(
        "section, n_actions", [("agents.LegacyTestAnalysis.rollout", 4), ("dqn.replay", KB_ACTION_COUNT)]
    )
    def test_action_outside_the_action_space_rejected_with_its_path(self, tmp_path, section, n_actions, action):
        message = re.escape(f"checkpoint {section}.actions holds action {action} at row 0, outside [0, {n_actions})")
        with pytest.raises(InputError, match=message):
            self.restore_edited(tmp_path, section, lambda node: node["actions"].__setitem__(0, action))

    @pytest.mark.parametrize(
        "section, column, value, message",
        [
            (
                "agents.LegacyTestAnalysis.rollout",
                "actions",
                1.5,
                "holds 1.5 at row 0, which the cast to int64 changes to 1",
            ),
            ("dqn.replay", "dones", 0.3, "holds 0.3 at row 0, which the cast to bool changes to True"),
        ],
        ids=["fractional-rollout-action", "numeric-replay-done"],
    )
    def test_value_the_cast_would_change_rejected_with_its_path(self, tmp_path, section, column, value, message):
        message = re.escape(f"checkpoint {section}.{column} {message}")
        with pytest.raises(InputError, match=message):
            self.restore_edited(tmp_path, section, lambda node: node[column].__setitem__(0, value))

    def test_replay_over_its_capacity_rejected(self, tmp_path):
        def overfill(node):
            node["config"]["dqn"]["replay_capacity"] = 4
            node["dqn"]["replay"] = tiled(node["dqn"]["replay"], 6)

        message = re.escape("checkpoint dqn.replay holds 6 rows, at most 4 fit")
        with pytest.raises(InputError, match=message):
            self.restore_edited(tmp_path, "", overfill)

    def test_rollout_of_an_update_or_more_rejected(self, tmp_path):
        # Each update consumes the whole rollout as it fills, so a checkpoint
        # never holds ppo.rollout_length steps.
        def overfill(node):
            agent = node["agents"]["LegacyTestAnalysis"]
            agent["rollout"] = tiled(agent["rollout"], 80)
            node["config"]["ppo"]["rollout_length"] = 64

        message = re.escape("checkpoint agents.LegacyTestAnalysis.rollout holds 80 rows, at most 63 fit")
        with pytest.raises(InputError, match=message):
            self.restore_edited(tmp_path, "", overfill)

    @pytest.mark.parametrize(
        "section, key",
        [
            ("", "episode_index"),
            ("", "ppo_update_count"),
            ("dqn", "action_steps"),
            ("dqn", "train_steps"),
            ("dqn.adam", "t"),
            ("agents.LegacyTestAnalysis.adam", "t"),
        ],
    )
    def test_negative_counter_rejected_with_its_path(self, tmp_path, section, key):
        path = ".".join(filter(None, [section, key]))
        message = re.escape(f"checkpoint {path} is -3, expected a non-negative integer")
        with pytest.raises(InputError, match=message):
            self.restore_edited(tmp_path, section, lambda node: node.update({key: -3}))

    def test_slot_count_is_not_stored(self, tmp_path):
        # The episode index gives the slots run so far; a stored count could
        # only disagree with it.
        with pytest.raises(InputError, match=re.escape("unknown key(s) ['global_slot']")):
            self.restore_edited(tmp_path, "", lambda node: node.update(global_slot=7))

    def test_split_run_with_a_full_replay_equals_uninterrupted(self, tmp_path):
        # Two KB actions per episode fill a ring of 6 in the first three
        # episodes, so the split resumes a ring that has wrapped.
        dqn = replace(tiny_config().dqn, replay_capacity=6)
        straight = TrainingSystem(tiny_config(episode_count=10, dqn=dqn))
        straight.run()
        first = TrainingSystem(tiny_config(episode_count=10, dqn=dqn))
        first.run(episodes=5)
        assert len(first.dqn.replay) == 6
        path = tmp_path / "ckpt.json"
        first.checkpoint(path)
        resumed = TrainingSystem.restore(path)
        resumed.run(episodes=5)
        assert resumed.tables.dqn_steps == straight.tables.dqn_steps[len(first.tables.dqn_steps):]
        assert resumed.checkpoint_dict() == straight.checkpoint_dict()

    @pytest.mark.parametrize("name", ["hit_window"])
    def test_window_over_its_length_rejected(self, tmp_path, name):
        def overfill(node):
            node[name] = [0.5] * 51

        message = re.escape(f"checkpoint {name} holds 51 entries, the window is 50")
        with pytest.raises(InputError, match=message):
            self.restore_edited(tmp_path, "", overfill)

    @pytest.mark.parametrize(
        "section, edit, message",
        [
            (
                "trackers.modifiers",
                lambda node: node["records"].__setitem__(0, node["records"][0][:3]),
                "trackers.modifiers.records[0] is [",
            ),
            (
                "trackers.modifiers",
                lambda node: node["records"][0].__setitem__(0, 1.5),
                "trackers.modifiers.records[0][0] must be an integer, got 1.5",
            ),
            (
                "trackers.TestCaseGeneration",
                lambda node: node["records"][0].__setitem__(0, -4),
                "trackers.TestCaseGeneration.records[0][0] is -4, expected a non-negative integer",
            ),
            (
                "trackers.modifiers",
                lambda node: node["records"][0].__setitem__(3, "0.5"),
                "trackers.modifiers.records[0][3] must be a finite number, got '0.5'",
            ),
            (
                "trackers.TestCaseGeneration",
                lambda node: node["totals"].__setitem__(0, "0.5"),
                "trackers.TestCaseGeneration.totals[0] must be a finite number, got '0.5'",
            ),
            (
                "",
                lambda node: node["hit_window"].__setitem__(0, "0.5"),
                "hit_window[0] must be a finite number, got '0.5'",
            ),
            (
                "",
                lambda node: stored_test_x(["0.5"] * len(next(iter(node["content_vectors"].values()))))(node),
                "content_vectors.tc-x[0] must be a finite number, got '0.5'",
            ),
            ("kb_pending", lambda node: node.update(action=99), "kb_pending.action is 99, outside [0, 13)"),
            (
                "kb_pending",
                lambda node: node.update(action=1.5),
                "kb_pending.action must be an integer, got 1.5",
            ),
        ],
        ids=[
            "tracker-record-of-three-entries",
            "tracker-record-fractional-count",
            "tracker-record-negative-count",
            "tracker-record-string-quality",
            "tracker-total-string",
            "hit-window-string",
            "content-vector-of-strings",
            "kb-pending-action-outside",
            "kb-pending-action-fractional",
        ],
    )
    def test_number_read_strictly_rejected_with_its_path(self, tmp_path, section, edit, message):
        with pytest.raises(InputError, match=re.escape(f"checkpoint {message}")):
            self.restore_edited(tmp_path, section, edit)

    @pytest.mark.parametrize(
        "section, edit, message",
        [
            (
                "",
                lambda node: node["hit_window"].__setitem__(0, math.nan),
                "hit_window[0] must be a finite number, got nan",
            ),
            (
                "trackers.modifiers",
                lambda node: node["totals"].__setitem__(0, math.inf),
                "trackers.modifiers.totals[0] must be a finite number, got inf",
            ),
            (
                "",
                lambda node: stored_test_x([math.nan] * len(next(iter(node["content_vectors"].values()))))(node),
                "content_vectors.tc-x[0] must be a finite number, got nan",
            ),
            (
                "kb_pending",
                lambda node: node["state"].__setitem__(0, -math.inf),
                "kb_pending.state[0] must be a finite number, got -inf",
            ),
        ],
        ids=["hit-window-nan", "tracker-total-infinity", "content-vector-nan", "kb-pending-state-infinity"],
    )
    def test_non_finite_number_rejected_with_its_path(self, tmp_path, section, edit, message):
        # json.loads parses the NaN and Infinity tokens; a restored run must
        # not carry them into its rewards and features.
        with pytest.raises(InputError, match=re.escape(f"checkpoint {message}")):
            self.restore_edited(tmp_path, section, edit)

    @pytest.mark.parametrize(
        "edit, problem",
        [
            (lambda vectors: vectors.pop(sorted(vectors)[0]), "missing key(s) ['{first}']"),
            (
                lambda vectors: vectors.update({"tc-bogus": vectors[sorted(vectors)[0]]}),
                "unknown key(s) ['tc-bogus']",
            ),
        ],
        ids=["stored-test-without-vector", "vector-of-no-stored-test"],
    )
    def test_content_vectors_not_keyed_by_the_stored_tests_rejected(self, tmp_path, edit, problem):
        # Every test in the store has a content vector, and nothing else does;
        # a missing one would drop the test out of every later context blend.
        system = TrainingSystem(tiny_config())
        system.run(episodes=1)
        message = f"checkpoint content_vectors: {problem.format(first=sorted(system.content_vectors)[0])}"
        with pytest.raises(InputError, match=re.escape(message)):
            self.restore_edited(tmp_path, "content_vectors", edit)

    @pytest.mark.parametrize(
        "key, value, expected",
        [
            ("bit_generator", "MT19937", "expected 'PCG64'"),
            ("state", "-5", "expected the decimal text of an integer in [0, 2**128)"),
            ("state", str(2**130), "expected the decimal text of an integer in [0, 2**128)"),
            ("state", " 12 ", "expected the decimal text of an integer in [0, 2**128)"),
            ("inc", "012", "expected the decimal text of an integer in [0, 2**128)"),
            ("has_uint32", 7, "outside [0, 2)"),
            ("uinteger", -1, "expected a non-negative integer"),
            ("uinteger", 2**40, "outside [0, 4294967296)"),
        ],
    )
    def test_rng_state_that_state_dict_cannot_write_rejected_with_its_path(self, tmp_path, key, value, expected):
        message = re.escape(f"checkpoint rng_states.env.{key} is {value!r}, {expected}")
        with pytest.raises(InputError, match=message):
            self.restore_edited(tmp_path, "rng_states.env", lambda node: node.update({key: value}))

    @pytest.mark.parametrize(
        "key, value, kind",
        [
            ("state", 12, "a string"),
            ("state", 1000.7, "a string"),
            ("has_uint32", 0.5, "an integer"),
            ("has_uint32", True, "an integer"),
            ("uinteger", 3.9, "an integer"),
        ],
    )
    def test_rng_state_of_another_kind_rejected_with_its_path(self, tmp_path, key, value, kind):
        message = re.escape(f"checkpoint rng_states.env.{key} must be {kind}, got {value!r}")
        with pytest.raises(InputError, match=message):
            self.restore_edited(tmp_path, "rng_states.env", lambda node: node.update({key: value}))

    @pytest.mark.parametrize(
        "section, edit, message",
        [
            ("kb", lambda node: node.update(d_emb="64"), "kb.d_emb must be an integer, got '64'"),
            (
                "kb.graph_edges.0",
                lambda node: node.update(weight="0.4"),
                "kb.graph_edges[0].weight must be a finite number, got '0.4'",
            ),
            (
                "kb.vector_records.0",
                lambda node: node.update(embedding=[str(x) for x in node["embedding"]]),
                "kb.vector_records: vector record 'req-000': embedding is not a vector of numbers",
            ),
            ("kb.graph_nodes", lambda node: node.__setitem__(0, 5), "kb.graph_nodes[0] must be a string, got 5"),
            ("", lambda node: node.update(kb=[]), "kb schema_version None"),
            (
                "kb.retrieval_params",
                lambda node: node.update(top_k="3"),
                "kb.retrieval_params: top_k: must be an integer, got '3'",
            ),
            (
                "config.kb",
                lambda node: node.update(d_emb=32),
                "kb.d_emb is 64, the config's kb.d_emb is 32",
            ),
        ],
        ids=[
            "d-emb-string",
            "edge-weight-string",
            "embedding-of-strings",
            "graph-node-number",
            "kb-not-an-object",
            "retrieval-param-string",
            "d-emb-not-the-config's",
        ],
    )
    def test_kb_read_strictly_rejected_with_its_path(self, tmp_path, section, edit, message):
        with pytest.raises(InputError, match=re.escape(f"checkpoint {message}")):
            self.restore_edited(tmp_path, section, edit)

    def test_restored_checkpoint_reserialises_byte_identically(self, tmp_path):
        system = TrainingSystem(tiny_config())
        system.run(episodes=2)
        path, again = tmp_path / "ckpt.json", tmp_path / "again.json"
        system.checkpoint(path)
        TrainingSystem.restore(path).checkpoint(again)
        assert again.read_bytes() == path.read_bytes()

    def test_missing_file_is_io_failure(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="absent.json"):
            TrainingSystem.restore(tmp_path / "absent.json")

    def test_a_key_error_in_a_state_loader_is_a_fault_not_bad_input(self, tmp_path, monkeypatch):
        def load_state_dict(controller, d, what):
            raise KeyError("replay_size")

        monkeypatch.setattr(trainer.DQNController, "load_state_dict", load_state_dict)
        with pytest.raises(KeyError, match="replay_size"):
            self.restore_edited(tmp_path, "", lambda node: None)

    def test_truncated_payload_never_partial(self, tmp_path):
        system = TrainingSystem(tiny_config())
        system.run(episodes=1)
        payload = system.checkpoint_dict()
        del payload["agents"]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(InputError, match=re.escape("checkpoint: missing key(s) ['agents']")):
            TrainingSystem.restore(path)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        system = TrainingSystem(tiny_config())
        system.run(episodes=1)
        path = tmp_path / "ckpt.json"
        system.checkpoint(path)
        before = path.read_bytes()
        system.run(episodes=1)
        real_open = trainer.atomic_open

        class HalfThenFail:
            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                raise OSError("disk full")

        @contextmanager
        def open_half_then_fail(target):
            with real_open(target) as fh:
                yield HalfThenFail(fh)

        monkeypatch.setattr(trainer, "atomic_open", open_half_then_fail)
        with pytest.raises(OSError, match="^disk full$"):
            system.checkpoint(path)
        monkeypatch.setattr(trainer, "atomic_open", real_open)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.json"]
        system.checkpoint(path)
        assert path.read_bytes() != before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.json"]


EVENT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([-0.0, "é", "\u2603", "\U0001f600"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
# Keys that sort just before, just after and far from "records".
EVENT_KEYS = st.sampled_from(["", "a", "recordr", "records0", "recordsa", "recorde", "reward", "z", "é"]) | st.text(max_size=8)


class TestExport:
    def run_result(self, config=None) -> TrainingSystem:
        return run_training(config or tiny_config())

    def test_csv_row_count_and_header(self, tmp_path):
        result = self.run_result()
        paths = result.tables.write(tmp_path / "out")
        lines = open(paths["metrics"]).read().splitlines()
        assert lines[0].startswith("episode,generation_accuracy,defect_detection_rate")
        assert len(lines) == 1 + len(result.tables.metrics)

    def test_metrics_rederived_from_events_match(self, tmp_path):
        result = self.run_result()
        derived = derive_metrics_from_events(result.events)
        assert metrics_csv_text(derived) == metrics_csv_text(result.tables.metrics)

    def test_empty_run_refuses_export(self, tmp_path):
        system = TrainingSystem(tiny_config())
        with pytest.raises(ValueError, match="^refusing to export a run with no episodes$"):
            system.tables.write(tmp_path / "out")

    def event_log(self, result, out_dir) -> dict[str, str]:
        with EventLog(out_dir) as log:
            for event in result.events:
                log.append(event)
        return log.paths

    def test_events_jsonl_parseable_and_tagged(self, tmp_path):
        result = self.run_result()
        paths = self.event_log(result, tmp_path / "out")
        with open(paths["events"]) as fh:
            for line in fh:
                assert "type" in json.loads(line)

    def test_learner_csvs_written(self, tmp_path):
        result = self.run_result()
        paths = result.tables.write(tmp_path / "out")
        assert open(paths["ppo_updates"]).readline().startswith("update_index,role,mean_ratio")
        assert open(paths["dqn_steps"]).readline().startswith("step,epsilon,loss,mean_q,chosen_action")

    def test_feedback_jsonl_replays_identically(self, tmp_path):
        from qeloop.domain import FeedbackRecord
        from qeloop.qe_env import replay_feedback

        result = self.run_result()
        paths = self.event_log(result, tmp_path / "out")
        original = [FeedbackRecord.from_dict(r) for e in slot_events(result) for r in e["records"]]
        replayed = list(replay_feedback(paths["feedback"]))
        assert replayed == original

    def test_log_lines_equal_json_dumps_of_a_run(self, tmp_path):
        result = self.run_result()
        paths = self.event_log(result, tmp_path / "out")
        with open(paths["events"], encoding="utf-8") as fh:
            assert fh.read() == "".join(json.dumps(e, sort_keys=True) + "\n" for e in result.events)
        with open(paths["feedback"], encoding="utf-8") as fh:
            records = [r for e in slot_events(result) for r in e["records"]]
            assert fh.read() == "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)

    @settings(max_examples=200, deadline=None)
    @given(
        fields=st.dictionaries(EVENT_KEYS, EVENT_VALUES, max_size=6),
        records=st.lists(st.dictionaries(EVENT_KEYS, EVENT_VALUES, max_size=4), max_size=3),
        other=st.dictionaries(EVENT_KEYS, EVENT_VALUES, max_size=3),
    )
    def test_log_lines_equal_json_dumps(self, tmp_path_factory, fields, records, other):
        slot = {**fields, "type": "slot", "records": records}
        events = [slot, {**other, "type": "episode_end"}, {**slot, "records": [{"x": -0.0, "é": "\u00e9"}]}]
        with EventLog(tmp_path_factory.mktemp("log")) as log:
            for event in events:
                log.append(event)
        with open(log.paths["events"], encoding="utf-8") as fh:
            assert fh.read() == "".join(json.dumps(e, sort_keys=True) + "\n" for e in events)
        with open(log.paths["feedback"], encoding="utf-8") as fh:
            expected = records + [{"x": -0.0, "é": "\u00e9"}]
            assert fh.read() == "".join(json.dumps(r, sort_keys=True) + "\n" for r in expected)


class TestRunConfig:
    def test_defaults_round_trip(self):
        config = RunConfig()
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_empty_dict_gives_defaults(self):
        assert RunConfig.from_dict({}) == RunConfig()

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="^episodes: unknown key$"):
            RunConfig.from_dict({"episodes": 5})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key$") as exc:
            RunConfig.from_dict({"ppo": {"lr": 1e-4}})
        assert "ppo.lr" in str(exc.value)

    def test_learning_rate_out_of_range_rejected_without_flag(self):
        config = RunConfig.from_dict({"ppo": {"learning_rate": 0.01}})
        with pytest.raises(ValueError):
            config.validate()
        replace(config, allow_out_of_range=True).validate()

    @pytest.mark.parametrize("interval, window, ok", [(25, 50, True), (26, 50, False), (4, 7, False), (1, 2, True)])
    def test_tracker_window_must_hold_two_kb_intervals(self, interval, window, ok):
        loop = LoopConfig(kb_action_interval=interval, tracker_window=window)
        if ok:
            loop.validate()
        else:
            message = f"2 * kb_action_interval ({2 * interval}) exceeds tracker_window {window}"
            with pytest.raises(ValueError, match=re.escape(message)):
                loop.validate()

    def test_ablation_flags_round_trip(self):
        config = RunConfig.from_dict({"ablation": {"disable_ppo": True}})
        assert config.ablation.disable_ppo is True
        assert config.ablation.scalar_reward is False

    @pytest.mark.parametrize(
        "raw, error, key",
        [
            ({"kb": {"initial_params": {"bogus": 1}}}, "unknown key$", "kb.initial_params.bogus"),
            ({"ppo": {"epochs_per_update": 2.7}}, "must be ", "ppo.epochs_per_update"),
            ({"ablation": {"disable_ppo": "no"}}, "must be ", "ablation.disable_ppo"),
            ({"seed": 1.9}, "must be ", "seed"),
            ({"rewards": {"weights": {"bogus": 0.1}}}, "unknown key$", "rewards.weights.bogus"),
            (
                {"env": {"severity_proportions": {"Bogus": 0.1}}},
                "unknown key$",
                "env.severity_proportions.Bogus",
            ),
            ({"ppo": "x"}, "must be ", "ppo"),
            ({"rl": {"seed": 0}}, "unknown key$", "rl.seed"),
        ],
    )
    def test_bad_input_rejected_with_its_path(self, raw, error, key):
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: {error}") as exc:
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
