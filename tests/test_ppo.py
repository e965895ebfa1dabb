import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeloop.ppo import (
    LengthMismatch,
    PPOConfig,
    StaleRollout,
    clipped_surrogate,
    compute_gae,
    compute_minibatch_gradient,
    policy_value_forward,
    ppo_update,
)
from qeloop.rl_core import Adam, Transition, softmax_policy, xavier_init


def rng(seed):
    return np.random.default_rng(seed)


def make_transition(state, action, reward, next_state, done=False, log_prob=-0.5):
    return Transition(
        np.asarray(state, dtype=np.float64),
        action,
        reward,
        np.asarray(next_state, dtype=np.float64),
        done,
        log_prob_old=log_prob,
    )


class TestClippedSurrogate:
    def test_unit_ratio_returns_advantage(self):
        for eps in (0.1, 0.2, 0.4):
            for adv in (-2.0, 0.0, 1.5):
                assert clipped_surrogate(1.0, adv, eps) == adv

    def test_positive_advantage_clips_above(self):
        assert clipped_surrogate(1.5, 1.0, 0.2) == pytest.approx(1.2, abs=1e-15)

    def test_negative_advantage_pessimistic_branch(self):
        assert clipped_surrogate(0.5, -1.0, 0.2) == pytest.approx(-0.8, abs=1e-15)

    @given(
        st.floats(min_value=0.01, max_value=5.0),
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=0.05, max_value=0.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_never_exceeds_unclipped_objective(self, ratio, advantage, eps):
        assert clipped_surrogate(ratio, advantage, eps) <= ratio * advantage + 1e-12


class TestComputeGae:
    def test_lambda_zero_reduces_to_one_step_delta(self):
        rollout = [
            make_transition([0.0], 0, 1.0, [1.0]),
            make_transition([1.0], 1, 2.0, [2.0]),
            make_transition([2.0], 0, 0.5, [3.0]),
        ]
        values = [0.3, 0.6, 0.1, 0.9]
        gamma = 0.9
        out = compute_gae(rollout, values, gamma, lam=0.0)
        for t in range(3):
            delta = rollout[t].reward + gamma * values[t + 1] - values[t]
            assert out.raw_advantages[t] == pytest.approx(delta, abs=1e-12)

    def test_zero_rewards_zero_values_gives_zero_advantages(self):
        rollout = [make_transition([0.0], 0, 0.0, [0.0]) for _ in range(4)]
        out = compute_gae(rollout, [0.0] * 5, 0.9, 0.95)
        assert np.allclose(out.raw_advantages, 0.0)
        assert np.allclose(out.returns, 0.0)

    def test_matches_double_loop_oracle(self):
        rewards = [1.0, -0.5, 2.0]
        values = [0.2, 0.7, -0.1, 0.4]
        gamma, lam = 0.9, 0.95
        rollout = [make_transition([float(t)], 0, rewards[t], [float(t + 1)]) for t in range(3)]
        out = compute_gae(rollout, values, gamma, lam)
        deltas = [rewards[t] + gamma * values[t + 1] - values[t] for t in range(3)]
        for t in range(3):
            oracle = sum((gamma * lam) ** (k - t) * deltas[k] for k in range(t, 3))
            assert out.raw_advantages[t] == pytest.approx(oracle, abs=1e-12)
            assert out.returns[t] == pytest.approx(oracle + values[t], abs=1e-12)

    def test_done_resets_accumulation(self):
        rewards = [1.0, 2.0, 3.0]
        dones = [False, True, False]
        values = [0.0, 0.0, 0.0, 5.0]
        gamma, lam = 0.9, 0.95
        rollout = [
            make_transition([float(t)], 0, rewards[t], [float(t + 1)], done=dones[t])
            for t in range(3)
        ]
        out = compute_gae(rollout, values, gamma, lam)
        # Episode boundary at t=1: advantage at t=1 sees no bootstrap and no tail.
        assert out.raw_advantages[1] == pytest.approx(2.0, abs=1e-12)
        assert out.raw_advantages[2] == pytest.approx(3.0 + gamma * 5.0, abs=1e-12)
        a1 = (1.0 + gamma * 0.0) + gamma * lam * 2.0
        assert out.raw_advantages[0] == pytest.approx(a1, abs=1e-12)

    def test_normalized_advantages_standardized(self):
        rollout = [make_transition([float(t)], 0, float(t), [float(t + 1)]) for t in range(8)]
        out = compute_gae(rollout, [0.0] * 9, 0.9, 0.95)
        assert out.advantages.mean() == pytest.approx(0.0, abs=1e-12)
        assert out.advantages.std() == pytest.approx(1.0, abs=1e-12)

    def test_value_length_mismatch_rejected(self):
        rollout = [make_transition([0.0], 0, 1.0, [1.0])]
        with pytest.raises(LengthMismatch):
            compute_gae(rollout, [0.0], 0.9, 0.95)


def bandit_rollout(params, n, seed, reward_for_action0=1.0):
    """Single-state two-action bandit rollout collected under `params`."""
    g = rng(seed)
    state = np.array([1.0, 0.0])
    logits, _ = policy_value_forward(params, state[None, :])
    probs, log_probs = softmax_policy(logits[0])
    rollout = []
    for _ in range(n):
        action = int(g.random() < probs[1])
        reward = reward_for_action0 if action == 0 else 0.0
        rollout.append(
            Transition(state, action, reward, state, False, log_prob_old=float(log_probs[action]))
        )
    return rollout


def process(params, rollout, gamma=0.5, lam=0.95):
    states = np.vstack([t.state for t in rollout] + [rollout[-1].next_state])
    _, values = policy_value_forward(params, states)
    return compute_gae(rollout, values, gamma, lam)


class TestPpoUpdate:
    def make_params(self, seed=0, n_in=2, n_actions=2):
        return xavier_init((n_in, 16, 16, n_actions + 1), rng(seed))

    def test_stale_rollout_rejected(self):
        params = self.make_params()
        rollout = [Transition(np.array([1.0, 0.0]), 0, 1.0, np.array([1.0, 0.0]), False, None)]
        processed = process(params, rollout)
        with pytest.raises(StaleRollout):
            ppo_update(params, Adam(params, 3e-4), processed, PPOConfig(), rng(0))

    def test_zero_advantages_zero_coeffs_leave_params_unchanged(self):
        params = self.make_params(3)
        rollout = bandit_rollout(params, 16, seed=1)
        processed = process(params, rollout)
        processed.advantages[:] = 0.0
        processed.returns[:] = policy_value_forward(params, processed.states)[1]
        config = PPOConfig(entropy_coeff=0.0, value_loss_coeff=0.0)
        before = params.copy()
        ppo_update(params, Adam(params, 3e-4), processed, config, rng(2))
        assert params.equals(before)

    def test_zero_advantage_policy_gradient_is_zero(self):
        params = self.make_params(4)
        rollout = bandit_rollout(params, 8, seed=5)
        processed = process(params, rollout)
        processed.advantages[:] = 0.0
        config = PPOConfig(entropy_coeff=0.0, value_loss_coeff=0.0)
        grads, _ = compute_minibatch_gradient(
            params,
            processed.states,
            processed.actions,
            processed.log_probs_old,
            processed.advantages,
            processed.returns,
            config,
        )
        for g in grads.weights + grads.biases:
            assert np.allclose(g, 0.0, atol=1e-15)

    def test_bandit_probability_of_better_arm_increases(self):
        params = self.make_params(7)
        state = np.array([1.0, 0.0])
        logits, _ = policy_value_forward(params, state[None, :])
        p_before = softmax_policy(logits[0])[0][0]
        rollout = bandit_rollout(params, 64, seed=8)
        processed = process(params, rollout)
        ppo_update(params, Adam(params, 3e-4), processed, PPOConfig(), rng(9))
        logits, _ = policy_value_forward(params, state[None, :])
        p_after = softmax_policy(logits[0])[0][0]
        assert p_after > p_before

    def test_clip_fraction_within_unit_interval(self):
        params = self.make_params(11)
        rollout = bandit_rollout(params, 32, seed=12)
        report = ppo_update(params, Adam(params, 3e-4), process(params, rollout), PPOConfig(), rng(13))
        assert 0.0 <= report.clip_fraction <= 1.0
        assert report.entropy >= 0.0

    def test_determinism_same_seed_same_parameters(self):
        def run():
            params = self.make_params(21)
            rollout = bandit_rollout(params, 48, seed=22)
            processed = process(params, rollout)
            ppo_update(params, Adam(params, 3e-4), processed, PPOConfig(), rng(23))
            return params

        assert run().equals(run())

    def test_huge_epsilon_first_gradient_matches_vanilla_policy_gradient(self):
        params = self.make_params(31)
        rollout = bandit_rollout(params, 32, seed=32)
        processed = process(params, rollout)
        config = PPOConfig(clip_epsilon=0.999999, entropy_coeff=0.0, value_loss_coeff=0.0)
        grads, _ = compute_minibatch_gradient(
            params,
            processed.states,
            processed.actions,
            processed.log_probs_old,
            processed.advantages,
            processed.returns,
            config,
        )
        # Vanilla surrogate: -mean(ratio * A) differentiated by hand.
        n = len(processed)
        logits, _ = policy_value_forward(params, processed.states)
        probs, log_probs = softmax_policy(logits)
        idx = np.arange(n)
        ratio = np.exp(log_probs[idx, processed.actions] - processed.log_probs_old)
        one_hot = np.zeros_like(probs)
        one_hot[idx, processed.actions] = 1.0
        d_logits = -(processed.advantages * ratio)[:, None] * (one_hot - probs) / n
        out_grad = np.concatenate([d_logits, np.zeros((n, 1))], axis=1)
        from qeloop.rl_core import backward, forward_cached

        _, activations = forward_cached(params, processed.states)
        vanilla = backward(params, activations, out_grad)
        for a, b in zip(grads.weights + grads.biases, vanilla.weights + vanilla.biases):
            assert np.abs(a - b).max() < 1e-8

    @pytest.mark.slow
    def test_bandit_converges_above_ninety_percent(self):
        params = self.make_params(41)
        state = np.array([1.0, 0.0])
        adam = Adam(params, 3e-4)
        update_rng = rng(42)
        for step in range(200):
            rollout = bandit_rollout(params, 64, seed=1000 + step)
            processed = process(params, rollout)
            ppo_update(params, adam, processed, PPOConfig(), update_rng)
        logits, _ = policy_value_forward(params, state[None, :])
        assert softmax_policy(logits[0])[0][0] > 0.9


class TestPPOConfig:
    def test_defaults_are_valid(self):
        PPOConfig().validate()

    def test_learning_rate_range_enforced(self):
        with pytest.raises(ValueError):
            PPOConfig(learning_rate=0.01).validate()
        PPOConfig(learning_rate=0.01).validate(allow_out_of_range=True)

    def test_clip_epsilon_bounds(self):
        with pytest.raises(ValueError):
            PPOConfig(clip_epsilon=0.0).validate()
        with pytest.raises(ValueError):
            PPOConfig(clip_epsilon=1.0).validate()

    def test_round_trip(self):
        config = PPOConfig(learning_rate=2e-4, rollout_length=128)
        assert PPOConfig.from_dict(config.to_dict()) == config
