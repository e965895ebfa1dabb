import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeloop.dqn import (
    DQNConfig,
    DQNController,
    dqn_train_step,
    epsilon_at,
    select_kb_action,
)
from qeloop.knowledge import KB_ACTION_COUNT, KBAction
from qeloop.rl_core import Adam, ReplayBatch, Transition, forward, xavier_init


def rng(seed):
    return np.random.default_rng(seed)


class TestEpsilonSchedule:
    def test_starts_at_point_nine(self):
        assert epsilon_at(0, DQNConfig()) == 0.9

    def test_ends_at_point_oh_five(self):
        config = DQNConfig()
        assert epsilon_at(100_000, config) == 0.05
        assert epsilon_at(250_000, config) == 0.05

    def test_linear_midpoint(self):
        assert epsilon_at(50_000, DQNConfig()) == pytest.approx(0.475, abs=1e-12)

    @given(st.integers(min_value=0, max_value=300_000), st.integers(min_value=0, max_value=300_000))
    @settings(max_examples=200, deadline=None)
    def test_non_increasing_and_bounded(self, a, b):
        config = DQNConfig()
        lo, hi = sorted((a, b))
        assert epsilon_at(hi, config) <= epsilon_at(lo, config)
        assert config.epsilon_end <= epsilon_at(a, config) <= config.epsilon_start

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            epsilon_at(-1, DQNConfig())


class TestSelectAction:
    def zero_qnet(self, n_actions=KB_ACTION_COUNT, state_dim=10):
        params = xavier_init((state_dim, 8, n_actions), rng(0))
        for w in params.weights:
            w[...] = 0.0
        for b in params.biases:
            b[...] = 0.0
        return params

    def test_forced_exploration_is_uniform(self):
        config = DQNConfig(epsilon_start=1.0, epsilon_end=0.05)
        qnet = self.zero_qnet()
        g = rng(7)
        state = np.zeros(10)
        counts = np.zeros(KB_ACTION_COUNT)
        draws = 100_000
        for _ in range(draws):
            counts[int(select_kb_action(state, qnet, 0, g, config))] += 1
        freqs = counts / draws
        assert np.abs(freqs - 1.0 / KB_ACTION_COUNT).max() < 0.02

    def test_pure_greedy_takes_unique_max(self):
        config = DQNConfig(epsilon_start=0.9, epsilon_end=0.0, epsilon_decay_steps=10)
        qnet = self.zero_qnet()
        qnet.biases[-1][3] = 1.0
        g = rng(0)
        for _ in range(50):
            assert select_kb_action(np.zeros(10), qnet, 10, g, config) == KBAction(3)

    def test_tie_breaks_to_lowest_index(self):
        config = DQNConfig(epsilon_start=0.9, epsilon_end=0.0, epsilon_decay_steps=10)
        qnet = self.zero_qnet()
        qnet.biases[-1][2] = 0.7
        qnet.biases[-1][5] = 0.7
        assert select_kb_action(np.zeros(10), qnet, 10, rng(0), config) == KBAction(2)

    def test_all_q_equal_selects_first_action(self):
        config = DQNConfig(epsilon_start=0.9, epsilon_end=0.0, epsilon_decay_steps=10)
        assert select_kb_action(np.zeros(10), self.zero_qnet(), 10, rng(0), config) == KBAction(0)


def as_batch(transitions):
    """The replay batch of these transitions, stacked field by field."""
    return ReplayBatch(
        np.vstack([t.state for t in transitions]),
        np.asarray([t.action for t in transitions], dtype=np.int64),
        np.asarray([t.reward for t in transitions], dtype=np.float64),
        np.vstack([t.next_state for t in transitions]),
        np.asarray([t.done for t in transitions], dtype=np.bool_),
    )


def one_hot(i, n=5):
    v = np.zeros(n)
    v[i] = 1.0
    return v


class TestTrainStep:
    def build(self, seed=0, state_dim=5, n_actions=2):
        qnet = xavier_init((state_dim, 16, n_actions), rng(seed))
        target = qnet.copy()
        return qnet, target, Adam(qnet, 1e-3)

    def test_terminal_target_is_reward_exactly(self):
        qnet, target, adam = self.build()
        t = Transition(one_hot(0), 1, 0.7, one_hot(1), done=True)
        q_before = forward(qnet, one_hot(0))[1]
        loss, _ = dqn_train_step(qnet, target, adam, as_batch([t]), gamma=0.9)
        assert loss == pytest.approx((q_before - 0.7) ** 2, abs=1e-12)

    def test_gamma_zero_targets_are_rewards(self):
        qnet, target, adam = self.build(1)
        batch = [
            Transition(one_hot(i), i % 2, float(i), one_hot((i + 1) % 5), done=False)
            for i in range(4)
        ]
        q_before = [forward(qnet, t.state)[t.action] for t in batch]
        loss, _ = dqn_train_step(qnet, target, adam, as_batch(batch), gamma=0.0)
        expected = np.mean([(q - t.reward) ** 2 for q, t in zip(q_before, batch)])
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_bootstrap_uses_target_network_max(self):
        qnet, target, adam = self.build(2)
        target.biases[-1][:] = np.array([0.3, 1.1])
        for w in target.weights:
            w[...] = 0.0
        t = Transition(one_hot(0), 0, 0.5, one_hot(1), done=False)
        q_before = forward(qnet, one_hot(0))[0]
        loss, _ = dqn_train_step(qnet, target, adam, as_batch([t]), gamma=0.9)
        y = 0.5 + 0.9 * 1.1
        assert loss == pytest.approx((q_before - y) ** 2, abs=1e-12)


class TestController:
    def make(self, **config_kwargs):
        defaults = dict(replay_capacity=256, batch_size=8, target_sync_interval=3,
                        epsilon_decay_steps=100)
        defaults.update(config_kwargs)
        return DQNController(
            DQNConfig(**defaults), 0.9, rng(0), rng(1), rng(2), state_dim=5, n_actions=4
        )

    def fill(self, ctrl, n=16):
        g = rng(3)
        for i in range(n):
            ctrl.record(
                Transition(one_hot(i % 5), i % 4, float(g.random()), one_hot((i + 1) % 5), False)
            )

    def test_insufficient_replay_rejected(self):
        ctrl = self.make()
        with pytest.raises(ValueError, match=r"^replay holds 0 < batch_size \d+$"):
            ctrl.train_step()

    def test_target_syncs_exactly_on_interval(self):
        ctrl = self.make()
        self.fill(ctrl)
        ctrl.train_step()
        assert not ctrl.target_net.equals(ctrl.qnet)
        ctrl.train_step()
        frozen = ctrl.target_net.copy()
        assert ctrl.target_net.equals(frozen)
        ctrl.train_step()  # third step: sync
        assert ctrl.target_net.equals(ctrl.qnet)
        ctrl.train_step()
        assert not ctrl.target_net.equals(ctrl.qnet)

    def test_replay_sampling_reproducible_across_controllers(self):
        a, b = self.make(), self.make()
        self.fill(a)
        self.fill(b)
        assert np.array_equal(a.replay.sample_indices(8), b.replay.sample_indices(8))

    def test_state_dict_round_trip(self):
        ctrl = self.make()
        self.fill(ctrl)
        ctrl.select_action(np.zeros(5))
        ctrl.train_step()
        snapshot = ctrl.state_dict()
        clone = self.make()
        clone.load_state_dict(snapshot)
        assert clone.qnet.equals(ctrl.qnet)
        assert clone.target_net.equals(ctrl.target_net)
        assert clone.action_steps == ctrl.action_steps
        assert clone.train_steps == ctrl.train_steps
        assert len(clone.replay) == len(ctrl.replay)


CHAIN_STATES = 5
CHAIN_GAMMA = 0.9
STEP_COST = -0.05


def chain_transitions():
    out = []
    for s in range(CHAIN_STATES - 1):
        reached_goal = s + 1 == CHAIN_STATES - 1
        out.append((s, 1, 1.0 if reached_goal else STEP_COST, s + 1, reached_goal))
        out.append((s, 0, STEP_COST, max(s - 1, 0), False))
    return out


def chain_value_iteration():
    q = np.zeros((CHAIN_STATES, 2))
    while True:
        new_q = q.copy()
        for s, a, r, ns, done in chain_transitions():
            new_q[s, a] = r + (0.0 if done else CHAIN_GAMMA * q[ns].max())
        if np.abs(new_q - q).max() < 1e-12:
            return new_q
        q = new_q


@pytest.mark.slow
class TestChainMdpOracle:
    def train_controller(self, steps=6000):
        config = DQNConfig(
            replay_capacity=1024,
            batch_size=64,
            target_sync_interval=250,
            epsilon_decay_steps=100,
            learning_rate=1e-3,
        )
        ctrl = DQNController(config, CHAIN_GAMMA, rng(0), rng(1), rng(2), state_dim=CHAIN_STATES, n_actions=2)
        for _ in range(40):
            for s, a, r, ns, done in chain_transitions():
                ctrl.record(Transition(one_hot(s), a, r, one_hot(ns), done))
        for _ in range(steps):
            ctrl.train_step()
        return ctrl

    def test_learned_q_matches_value_iteration_within_five_percent(self):
        q_star = chain_value_iteration()
        ctrl = self.train_controller()
        learned = np.vstack([forward(ctrl.qnet, one_hot(s)) for s in range(CHAIN_STATES - 1)])
        rel = np.abs(learned - q_star[:-1]) / np.abs(q_star[:-1])
        assert rel.max() < 0.05

    def test_greedy_return_within_five_percent_of_optimal(self):
        q_star = chain_value_iteration()
        ctrl = self.train_controller()
        state, total, discount = 0, 0.0, 1.0
        for _ in range(50):
            action = int(np.argmax(forward(ctrl.qnet, one_hot(state))))
            match = [t for t in chain_transitions() if t[0] == state and t[1] == action][0]
            _, _, r, ns, done = match
            total += discount * r
            discount *= CHAIN_GAMMA
            state = ns
            if done:
                break
        assert abs(total - q_star[0].max()) / q_star[0].max() < 0.05


class TestDQNConfig:
    def test_defaults_match_reference_schedule(self):
        config = DQNConfig()
        assert config.replay_capacity == 50_000
        assert config.epsilon_start == 0.9
        assert config.epsilon_end == 0.05
        assert config.epsilon_decay_steps == 100_000

    def test_epsilon_order_enforced(self):
        with pytest.raises(ValueError):
            DQNConfig(epsilon_start=0.1, epsilon_end=0.5).validate()

    def test_round_trip(self):
        config = DQNConfig(batch_size=32, epsilon_decay_steps=500)
        assert DQNConfig.from_dict(config.to_dict()) == config
