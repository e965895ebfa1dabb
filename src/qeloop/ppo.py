"""Proximal policy optimization with the clipped surrogate objective.

Policy and value share one network: the first ``n_actions`` outputs are
logits, the last output is the state value. Updates run several epochs of
shuffled minibatches maximizing

    mean(min(ratio * A, clip(ratio, 1-eps, 1+eps) * A))
    - value_loss_coeff * MSE(V, returns) + entropy_coeff * entropy

with advantages from GAE, normalized per update.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import ConfigCodec
from .rl_core import Adam, MLPParameters, Transition, backward, forward_cached, softmax_policy

LEARNING_RATE_RANGE = (1e-4, 3e-4)


class PPOError(Exception):
    pass


class LengthMismatch(PPOError):
    """Value estimates do not line up with the rollout."""


class StaleRollout(PPOError):
    """A transition is missing the old policy's log-probability."""


@dataclass(frozen=True)
class PPOConfig(ConfigCodec):
    clip_epsilon: float = 0.2
    learning_rate: float = 3e-4
    epochs_per_update: int = 4
    minibatch_size: int = 64
    rollout_length: int = 256
    value_loss_coeff: float = 0.5
    entropy_coeff: float = 0.01

    def validate(self, allow_out_of_range: bool = False) -> "PPOConfig":
        if not 0.0 < self.clip_epsilon < 1.0:
            raise ValueError(f"clip_epsilon {self.clip_epsilon} outside (0, 1)")
        lo, hi = LEARNING_RATE_RANGE
        if not allow_out_of_range and not lo <= self.learning_rate <= hi:
            raise ValueError(
                f"learning_rate {self.learning_rate} outside [{lo}, {hi}] "
                f"(set allow_out_of_range to override)"
            )
        if self.epochs_per_update < 1 or self.minibatch_size < 1 or self.rollout_length < 1:
            raise ValueError("epochs_per_update, minibatch_size, rollout_length must be >= 1")
        if self.value_loss_coeff < 0 or self.entropy_coeff < 0:
            raise ValueError("loss coefficients must be non-negative")
        return self


@dataclass
class ProcessedRollout:
    """Rollout tensors ready for an update.

    ``advantages`` are normalized to zero mean / unit variance whenever the
    rollout has more than one step; ``raw_advantages`` keep the unnormalized
    GAE values and ``returns`` are raw_advantages + V(s).
    """

    states: np.ndarray
    actions: np.ndarray
    log_probs_old: np.ndarray
    advantages: np.ndarray
    raw_advantages: np.ndarray
    returns: np.ndarray

    def __len__(self) -> int:
        return self.states.shape[0]


@dataclass
class PPOUpdateReport:
    mean_ratio: float
    clip_fraction: float
    policy_loss: float
    value_loss: float
    entropy: float

    def to_dict(self) -> dict:
        return {
            "mean_ratio": self.mean_ratio,
            "clip_fraction": self.clip_fraction,
            "policy_loss": self.policy_loss,
            "value_loss": self.value_loss,
            "entropy": self.entropy,
        }


def policy_value_forward(params: MLPParameters, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split the joint network's output into (logits, values)."""
    out, _ = forward_cached(params, np.atleast_2d(np.asarray(states, dtype=np.float64)))
    return out[:, :-1], out[:, -1]


def compute_gae(
    rollout: Sequence[Transition],
    value_estimates: Sequence[float],
    gamma: float,
    lam: float,
) -> ProcessedRollout:
    """Generalized advantage estimation over one rollout.

    ``value_estimates`` holds V(s_t) for every step plus the bootstrap
    V(s_T) of the final next_state, so its length is len(rollout) + 1.
    Advantage accumulation resets across episode boundaries (done flags).
    """
    n = len(rollout)
    values = np.asarray(value_estimates, dtype=np.float64)
    if values.shape != (n + 1,):
        raise LengthMismatch(f"need {n + 1} value estimates, got {values.shape}")
    rewards = np.asarray([t.reward for t in rollout], dtype=np.float64)
    not_done = np.asarray([0.0 if t.done else 1.0 for t in rollout], dtype=np.float64)
    advantages = np.zeros(n, dtype=np.float64)
    gae = 0.0
    for t in range(n - 1, -1, -1):
        delta = rewards[t] + gamma * values[t + 1] * not_done[t] - values[t]
        gae = delta + gamma * lam * not_done[t] * gae
        advantages[t] = gae
    returns = advantages + values[:-1]
    if n > 1 and advantages.std() > 0:
        normalized = (advantages - advantages.mean()) / advantages.std()
    else:
        normalized = advantages.copy()
    log_probs_old = np.asarray(
        [np.nan if t.log_prob_old is None else t.log_prob_old for t in rollout], dtype=np.float64
    )
    states = np.vstack([np.asarray(t.state, dtype=np.float64) for t in rollout])
    actions = np.asarray([t.action for t in rollout], dtype=np.int64)
    return ProcessedRollout(states, actions, log_probs_old, normalized, advantages, returns)


def clipped_surrogate(ratio: float | np.ndarray, advantage: float | np.ndarray, eps: float):
    """min(ratio * A, clip(ratio, 1-eps, 1+eps) * A), elementwise."""
    r = np.asarray(ratio, dtype=np.float64)
    a = np.asarray(advantage, dtype=np.float64)
    clipped = np.clip(r, 1.0 - eps, 1.0 + eps)
    out = np.minimum(r * a, clipped * a)
    return float(out) if out.ndim == 0 else out


def compute_minibatch_gradient(
    params: MLPParameters,
    states: np.ndarray,
    actions: np.ndarray,
    log_probs_old: np.ndarray,
    advantages: np.ndarray,
    returns: np.ndarray,
    config: PPOConfig,
) -> tuple[MLPParameters, dict]:
    """Gradient of the PPO loss over one minibatch, plus diagnostics.

    The loss being minimized is
    -mean(clipped surrogate) + value_loss_coeff * MSE - entropy_coeff * entropy.
    """
    n = states.shape[0]
    n_actions = params.n_out - 1
    out, activations = forward_cached(params, states)
    logits, values = out[:, :-1], out[:, -1]
    probs, log_probs = softmax_policy(logits)
    idx = np.arange(n)
    lp_new = log_probs[idx, actions]
    ratio = np.exp(lp_new - log_probs_old)
    surr_unclipped = ratio * advantages
    surr_clipped = np.clip(ratio, 1.0 - config.clip_epsilon, 1.0 + config.clip_epsilon) * advantages
    objective = np.minimum(surr_unclipped, surr_clipped)
    # Gradient flows through the unclipped branch exactly when it attains the min.
    active = (surr_unclipped <= surr_clipped).astype(np.float64)
    entropy = -np.sum(probs * log_probs, axis=1)

    one_hot = np.zeros((n, n_actions), dtype=np.float64)
    one_hot[idx, actions] = 1.0
    coef = (advantages * ratio * active)[:, None]
    d_logits = -(coef * (one_hot - probs)) / n
    # d(-entropy)/d logits = probs * (log_probs + entropy)
    d_logits += config.entropy_coeff * probs * (log_probs + entropy[:, None]) / n
    d_values = config.value_loss_coeff * 2.0 * (values - returns) / n

    output_grad = np.concatenate([d_logits, d_values[:, None]], axis=1)
    grads = backward(params, activations, output_grad)
    stats = {
        "mean_ratio": float(ratio.mean()),
        "clip_fraction": float(np.mean(np.abs(ratio - 1.0) > config.clip_epsilon)),
        "policy_loss": float(-objective.mean()),
        "value_loss": float(np.mean((values - returns) ** 2)),
        "entropy": float(entropy.mean()),
    }
    return grads, stats


def ppo_update(
    params: MLPParameters,
    adam: Adam,
    rollout: ProcessedRollout,
    config: PPOConfig,
    rng: np.random.Generator,
) -> PPOUpdateReport:
    """Run epochs of shuffled-minibatch updates in place; returns diagnostics.

    Raises StaleRollout when any old log-probability is missing, since the
    probability ratio is undefined without the collecting policy's snapshot.
    """
    if np.isnan(rollout.log_probs_old).any():
        raise StaleRollout("rollout contains transitions without log_prob_old")
    n = len(rollout)
    totals = {"mean_ratio": 0.0, "clip_fraction": 0.0, "policy_loss": 0.0, "value_loss": 0.0, "entropy": 0.0}
    batches = 0
    for _ in range(config.epochs_per_update):
        perm = rng.permutation(n)
        for start in range(0, n, config.minibatch_size):
            pick = perm[start : start + config.minibatch_size]
            grads, stats = compute_minibatch_gradient(
                params,
                rollout.states[pick],
                rollout.actions[pick],
                rollout.log_probs_old[pick],
                rollout.advantages[pick],
                rollout.returns[pick],
                config,
            )
            adam.step(params, grads)
            for key in totals:
                totals[key] += stats[key]
            batches += 1
    return PPOUpdateReport(**{key: value / batches for key, value in totals.items()})
