"""DQN controller that evolves the knowledge store's retrieval parameters.

Epsilon-greedy action selection decays linearly from epsilon_start to
epsilon_end over epsilon_decay_steps action-selection steps (the schedule's
endpoints are part of the acceptance surface), and learning follows the
classic loop: uniform replay sampling, a periodically synced target
network, and MSE on the one-step bootstrapped target
r + gamma * max_a' Q_target(s', a').
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .config import ConfigCodec
from .domain import check_keys
from .knowledge import KB_ACTION_COUNT, KBAction
from .rl_core import (
    HIDDEN_WIDTH,
    Adam,
    ExperienceBuffer,
    MLPParameters,
    Transition,
    backward,
    forward,
    forward_cached,
    xavier_init,
)

KB_STATE_DIM = 10


class DQNError(Exception):
    pass


class InsufficientReplay(DQNError):
    """Training was requested before the replay buffer held a full batch."""


@dataclass(frozen=True)
class DQNConfig(ConfigCodec):
    replay_capacity: int = 50_000
    batch_size: int = 64
    target_sync_interval: int = 1_000
    epsilon_start: float = 0.9
    epsilon_end: float = 0.05
    epsilon_decay_steps: int = 100_000
    learning_rate: float = 1e-3
    train_steps_per_action: int = 1

    def validate(self) -> "DQNConfig":
        if not self.epsilon_start > self.epsilon_end >= 0.0:
            raise ValueError(
                f"need epsilon_start > epsilon_end >= 0, got {self.epsilon_start}, {self.epsilon_end}"
            )
        if self.epsilon_decay_steps < 1:
            raise ValueError(f"epsilon_decay_steps must be >= 1, got {self.epsilon_decay_steps}")
        if self.replay_capacity < self.batch_size:
            raise ValueError("replay_capacity must be >= batch_size")
        if self.target_sync_interval < 1 or self.batch_size < 1 or self.train_steps_per_action < 1:
            raise ValueError("intervals and batch size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        return self


def epsilon_at(step: int, config: DQNConfig) -> float:
    """Linear decay from epsilon_start at step 0 to epsilon_end, then flat."""
    if step < 0:
        raise ValueError(f"step must be non-negative, got {step}")
    if step >= config.epsilon_decay_steps:
        return config.epsilon_end
    frac = step / config.epsilon_decay_steps
    return config.epsilon_start + frac * (config.epsilon_end - config.epsilon_start)


def select_kb_action(
    state: np.ndarray,
    qnet: MLPParameters,
    step: int,
    rng: np.random.Generator,
    config: DQNConfig,
) -> KBAction:
    """Epsilon-greedy over the KB action set; argmax ties go to the lowest index."""
    if rng.random() < epsilon_at(step, config):
        return KBAction(int(rng.integers(0, qnet.n_out)))
    q = forward(qnet, np.asarray(state, dtype=np.float64))
    return KBAction(int(np.argmax(q)))


def dqn_train_step(
    qnet: MLPParameters,
    target_net: MLPParameters,
    adam: Adam,
    batch: list[Transition],
    gamma: float,
) -> tuple[float, float]:
    """One Adam step on the Bellman MSE over a sampled minibatch.

    Targets are r for terminal transitions, else r + gamma * max Q_target(s').
    Returns (loss, mean online Q over the batch's chosen actions).
    """
    states = np.vstack([t.state for t in batch])
    next_states = np.vstack([t.next_state for t in batch])
    actions = np.asarray([t.action for t in batch], dtype=np.int64)
    rewards = np.asarray([t.reward for t in batch], dtype=np.float64)
    not_done = np.asarray([0.0 if t.done else 1.0 for t in batch], dtype=np.float64)

    q_next = forward(target_net, next_states)
    targets = rewards + gamma * not_done * q_next.max(axis=1)
    q_all, activations = forward_cached(qnet, states)
    idx = np.arange(len(batch))
    q_taken = q_all[idx, actions]
    errors = q_taken - targets
    loss = float(np.mean(errors**2))

    output_grad = np.zeros_like(q_all)
    output_grad[idx, actions] = 2.0 * errors / len(batch)
    grads = backward(qnet, activations, output_grad)
    adam.step(qnet, grads)
    return loss, float(q_taken.mean())


_STATE_KEYS = frozenset(
    {"qnet", "target_net", "adam", "replay", "replay_inserted", "action_steps", "train_steps"}
)


class DQNController:
    """Owns the online/target networks, replay, and the step counters.

    The epsilon schedule counts action-selection steps; the target network
    syncs every ``target_sync_interval`` gradient steps.
    """

    def __init__(
        self,
        config: DQNConfig,
        gamma: float,
        init_rng: np.random.Generator,
        replay_rng: np.random.Generator,
        action_rng: np.random.Generator,
        state_dim: int = KB_STATE_DIM,
        n_actions: int = KB_ACTION_COUNT,
    ):
        self.config = config.validate()
        self.gamma = gamma
        self.qnet = xavier_init((state_dim, HIDDEN_WIDTH, HIDDEN_WIDTH, n_actions), init_rng)
        self.target_net = self.qnet.copy()
        self.adam = Adam(self.qnet, config.learning_rate)
        self.replay = ExperienceBuffer(config.replay_capacity, replay_rng)
        self._action_rng = action_rng
        self.action_steps = 0
        self.train_steps = 0

    @property
    def epsilon(self) -> float:
        return epsilon_at(self.action_steps, self.config)

    def select_action(self, state: np.ndarray) -> KBAction:
        action = select_kb_action(state, self.qnet, self.action_steps, self._action_rng, self.config)
        self.action_steps += 1
        return action

    def record(self, transition: Transition) -> None:
        self.replay.insert(transition)

    def can_train(self) -> bool:
        return len(self.replay) >= self.config.batch_size

    def train_step(self) -> tuple[float, float]:
        if not self.can_train():
            raise InsufficientReplay(
                f"replay holds {len(self.replay)} < batch_size {self.config.batch_size}"
            )
        batch = self.replay.sample(self.config.batch_size)
        loss, mean_q = dqn_train_step(self.qnet, self.target_net, self.adam, batch, self.gamma)
        self.train_steps += 1
        if self.train_steps % self.config.target_sync_interval == 0:
            self.target_net = self.qnet.copy()
        return loss, mean_q

    def state_dict(self) -> dict:
        return {
            "qnet": self.qnet.to_dict(),
            "target_net": self.target_net.to_dict(),
            "adam": self.adam.state_dict(),
            "replay": [t.to_dict() for t in self.replay.ordered()],
            "replay_inserted": self.replay.inserted,
            "action_steps": self.action_steps,
            "train_steps": self.train_steps,
        }

    def load_state_dict(self, d: Mapping, what: str = "DQN state") -> None:
        """``what`` names ``d``, and prefixes its sections' names, in the
        error for a missing or unknown key."""
        check_keys(what, d, _STATE_KEYS)
        self.qnet = MLPParameters.from_dict(d["qnet"], f"{what}.qnet")
        self.target_net = MLPParameters.from_dict(d["target_net"], f"{what}.target_net")
        self.adam = Adam(self.qnet, self.config.learning_rate)
        self.adam.load_state_dict(d["adam"], f"{what}.adam")
        for i, t in enumerate(d["replay"]):
            self.replay.insert(Transition.from_dict(t, f"{what}.replay[{i}]"))
        self.replay.inserted = int(d["replay_inserted"])
        self.action_steps = int(d["action_steps"])
        self.train_steps = int(d["train_steps"])
