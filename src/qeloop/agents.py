"""The five learning agent roles and their shared featurization.

Each role wraps one policy network over a role-specific discrete action
space. The two generator roles pick (strategy, retrieval mode) pairs and
emit test cases; the three analysis/mapping/compliance roles act as
modifiers whose chosen option nudges the strategy signature used during
generation. All roles learn from the same per-slot reward.

Agent state is a fixed 16-dim vector: an 8-dim hashed requirement summary,
four rolling feedback aggregates, two knowledge-base summary slots, and the
rolling reward mean and trend, every entry in [-1, 1].
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Mapping, Sequence

import numpy as np

from .domain import (
    AgentRole,
    FeedbackRecord,
    GenerationStrategy,
    InputError,
    Requirement,
    RetrievalMode,
    TestCase,
    check_keys,
    read_json,
    stable_hash,
)
from .knowledge import KnowledgeStore, RetrievalParams, embed
from .ppo import PPOConfig, Rollout, policy_value_forward
from .rewards import trend_slope
from .rl_core import HIDDEN_WIDTH, Adam, check_actions, columns_dict, load_columns, load_count, load_window
from .rl_core import sample_action, softmax_policy, xavier_init

STATE_DIM = 16
SUMMARY_DIM = 8  # the hashed requirement summary leads the state
SIGNATURE_ACTIVE_DIMS = 4
CONTEXT_BLEND = 0.4  # coverage = 0.6 * signature + 0.4 * context mean

_GENERATOR_STRATEGIES: dict[AgentRole, tuple[GenerationStrategy, ...]] = {
    AgentRole.TestCaseGeneration: tuple(GenerationStrategy),
    AgentRole.IntegrationPoint: (
        GenerationStrategy.Integration,
        GenerationStrategy.RegressionDerived,
    ),
}

# Closed stand-in option counts for the non-generator roles.
MODIFIER_OPTION_COUNTS: dict[AgentRole, int] = {
    AgentRole.LegacyTestAnalysis: 4,
    AgentRole.FunctionalChangeMapping: 4,
    AgentRole.ComplianceValidation: 3,
}


def action_space_size(role: AgentRole) -> int:
    if role in _GENERATOR_STRATEGIES:
        return len(_GENERATOR_STRATEGIES[role]) * len(RetrievalMode)
    return MODIFIER_OPTION_COUNTS[role]


@dataclass(frozen=True)
class AgentAction:
    """A decoded action: (strategy, mode) for a generator; a modifier's option is its index."""

    role: AgentRole
    index: int
    strategy: GenerationStrategy | None = None
    retrieval_mode: RetrievalMode | None = None


def decode_action(role: AgentRole, index: int) -> AgentAction:
    size = action_space_size(role)
    if not 0 <= index < size:
        raise ValueError(f"action index {index} outside [0, {size}) for {role.name}")
    if role in _GENERATOR_STRATEGIES:
        strategies = _GENERATOR_STRATEGIES[role]
        strategy = strategies[index // len(RetrievalMode)]
        mode = RetrievalMode(index % len(RetrievalMode))
        return AgentAction(role, index, strategy=strategy, retrieval_mode=mode)
    return AgentAction(role, index)


def _hashed_dims(label: str, count: int, dim: int) -> list[int]:
    """Deterministic distinct bucket choices for sparse pattern vectors."""
    dims: list[int] = []
    salt = 0
    while len(dims) < count:
        bucket = stable_hash(f"{label}#{salt}") % dim
        if bucket not in dims:
            dims.append(bucket)
        salt += 1
    return dims


def _read_only(vec: np.ndarray) -> np.ndarray:
    vec.flags.writeable = False
    return vec


# The functions below are pure and called every slot with a handful of
# distinct arguments, so each result is computed once and shared read-only.


@lru_cache(maxsize=None)
def strategy_signature(strategy: GenerationStrategy, d_cov: int) -> np.ndarray:
    """Sparse unit-norm coverage pattern owned by a generation strategy."""
    vec = np.zeros(d_cov, dtype=np.float64)
    for dim in _hashed_dims(f"strategy:{strategy.name}", SIGNATURE_ACTIVE_DIMS, d_cov):
        vec[dim] = 1.0
    return _read_only(vec / np.linalg.norm(vec))


@lru_cache(maxsize=None)
def modifier_vector(role: AgentRole, option: int, d_cov: int) -> np.ndarray:
    """Deterministic nudge direction for a modifier role's option."""
    return _read_only(embed([role.name.lower(), f"option{option}"], d_cov))


@lru_cache(maxsize=4096)
def requirement_query(requirement: Requirement, d_emb: int) -> np.ndarray:
    """The knowledge-store query embedding of a requirement's text and id."""
    return _read_only(embed(requirement.text.split() + [requirement.id], d_emb))


@lru_cache(maxsize=4096)
def generated_test_embedding(
    requirement: Requirement, strategy: GenerationStrategy, mode: RetrievalMode, d_emb: int
) -> np.ndarray:
    """The knowledge-store embedding of a test generated for ``requirement``:
    its query's tokens, then the test's strategy and retrieval mode."""
    return _read_only(embed(requirement.text.split() + [requirement.id, strategy.name, mode.name], d_emb))


@lru_cache(maxsize=4096)
def requirement_summary(requirement: Requirement) -> np.ndarray:
    """8-dim hashed summary of a requirement's text and tags."""
    tokens = requirement.text.split() + sorted(requirement.component_tags) + [requirement.id]
    return _read_only(embed(tokens, SUMMARY_DIM))


_TRACKER_KEYS = frozenset({"totals", "records"})
_AGENT_KEYS = frozenset({"params", "adam", "rollout"})


class PerformanceTracker:
    """Rolling windows of the reward totals and feedback counts that the
    agents learning from them read.

    Append through the ``push_*`` methods only. The window's true-defect,
    false-positive and severity totals are kept as running integers, which
    are exact; the aggregates and reward features are computed from the
    windows each time they are read.
    """

    def __init__(self, window: int = 50):
        if window < 1:
            raise ValueError(f"tracker window must be >= 1, got {window}")
        self.totals: deque[float] = deque(maxlen=window)
        self.records: deque[tuple[int, int, int, float]] = deque(maxlen=window)
        # (true defects, false positives, severity ranks) over ``records``.
        self.counts = (0, 0, 0)

    def push_record(self, feedback: FeedbackRecord) -> None:
        true_defects = feedback.true_defects()
        n_true, n_fp = len(true_defects), len(feedback.false_positives())
        severity = sum(int(d.severity) for d in true_defects)
        true_total, fp_total, sev_total = self.counts
        if len(self.records) == self.records.maxlen:
            old_true, old_fp, old_sev, _ = self.records[0]
            true_total, fp_total, sev_total = true_total - old_true, fp_total - old_fp, sev_total - old_sev
        self.records.append((n_true, n_fp, severity, feedback.quality_rating))
        self.counts = (true_total + n_true, fp_total + n_fp, sev_total + severity)

    def push_reward(self, total: float) -> None:
        self.totals.append(total)

    def aggregates(self) -> tuple[float, float, float, float]:
        """(defect rate, FP rate, mean severity, mean quality), zeros when empty."""
        if not self.records:
            return (0.0, 0.0, 0.0, 0.0)
        n = len(self.records)
        true_total, fp_total, sev_total = self.counts
        quality = sum(map(itemgetter(3), self.records)) / n
        # Severity ranks run 0..3; dividing by 3 maps the mean into [0, 1].
        mean_sev = (sev_total / true_total) / 3.0 if true_total else 0.0
        return (
            min(1.0, true_total / n),
            min(1.0, fp_total / n),
            min(1.0, mean_sev),
            quality,
        )

    def reward_features(self) -> tuple[float, float]:
        """``np.tanh`` of the windowed reward totals' mean and trend slope,
        the two reward entries of the agent state; zeros when empty."""
        if self.totals:
            mean, trend = sum(self.totals) / len(self.totals), trend_slope(self.totals)
        else:
            mean, trend = 0.0, 0.0
        return np.tanh(mean), np.tanh(trend)

    def state_dict(self) -> dict:
        return {"totals": list(self.totals), "records": [list(r) for r in self.records]}

    def load_state_dict(self, d: Mapping, what: str = "tracker state") -> None:
        """Fill an empty tracker from ``state_dict`` output; ``what`` names
        ``d`` in the error for a missing or unknown key, a window longer
        than this tracker's, a total that is not a finite number and a record
        that is not three non-negative integers and a finite number."""
        check_keys(what, d, _TRACKER_KEYS)
        window = self.totals.maxlen
        self.totals.extend(load_window(d["totals"], window, f"{what}.totals"))
        rows = load_window(d["records"], window, f"{what}.records", list)
        self.records.extend(_load_tracker_record(row, f"{what}.records[{i}]") for i, row in enumerate(rows))
        self.counts = tuple(sum(r[i] for r in self.records) for i in range(3))


def _load_tracker_record(row: list, what: str) -> tuple[int, int, int, float]:
    """A ``records`` row: true defects, false positives and severity ranks,
    then the quality rating; anything else is rejected, named ``what``."""
    if len(row) != 4:
        raise InputError(f"{what} is {row!r}, expected three non-negative integers and a number")
    return (*(load_count(n, f"{what}[{i}]") for i, n in enumerate(row[:3])), read_json(row[3], float, what, 3))


def featurize_state(
    requirement_vec: np.ndarray,
    tracker: PerformanceTracker,
    params: RetrievalParams,
    mean_edge_weight: float,
) -> np.ndarray:
    """Deterministic 16-dim agent state; empty-history aggregates are zero."""
    if requirement_vec.shape != (SUMMARY_DIM,):
        raise ValueError(f"requirement summary has shape {requirement_vec.shape}, expected ({SUMMARY_DIM},)")
    state = np.empty(STATE_DIM, dtype=np.float64)
    state[:SUMMARY_DIM] = requirement_vec
    state[SUMMARY_DIM:] = (
        *tracker.aggregates(),
        params.similarity_threshold,
        mean_edge_weight,
        *tracker.reward_features(),
    )
    return state


class Agent:
    """One role's policy, optimizer, rollout and pending action slot.
    ``rollout`` has room for ``rollout_length`` steps; its first
    ``rollout_steps`` rows hold the steps recorded since the last update."""

    def __init__(
        self,
        role: AgentRole,
        init_rng: np.random.Generator,
        learning_rate: float,
        rollout_length: int = PPOConfig.rollout_length,
    ):
        self.role = role
        self.n_actions = action_space_size(role)
        self.params = xavier_init((STATE_DIM, HIDDEN_WIDTH, HIDDEN_WIDTH, self.n_actions + 1), init_rng)
        self.adam = Adam(self.params, learning_rate)
        steps = rollout_length
        self.rollout = Rollout(
            np.zeros((steps + 1, STATE_DIM)), np.zeros(steps, np.int64), np.zeros(steps), np.zeros(steps)
        )
        self.rollout_steps = 0
        self.pending: tuple[np.ndarray, int, float] | None = None

    def act(
        self, state: np.ndarray, rng: np.random.Generator, deterministic: bool = False
    ) -> tuple[AgentAction, float]:
        """Sample (or argmax) an action and remember it for the feedback step."""
        logits, _ = policy_value_forward(self.params, state)
        probs, log_probs = softmax_policy(logits)
        if deterministic:
            index = int(np.argmax(probs))
        else:
            index = sample_action(probs, rng)
        log_prob = float(log_probs[index])
        self.pending = (np.asarray(state, dtype=np.float64), index, log_prob)
        return decode_action(self.role, index), log_prob

    def state_dict(self) -> dict:
        n = self.rollout_steps
        return {
            "params": self.params.to_dict(),
            "adam": self.adam.state_dict(),
            "rollout": columns_dict(Rollout(*(column[:n] for column in self.rollout))),
        }

    def load_state_dict(self, d: Mapping, what: str = "agent state") -> None:
        """Load ``state_dict`` output into a fresh agent's network, optimizer
        and rollout, in place. ``what`` names ``d``, and prefixes its
        sections' paths, in the error for a missing or unknown key, a
        network of another topology, or a rollout that is not one column
        per field of equal lengths, whose states are of another width, whose
        actions are outside this role's action space, or that holds as many
        steps as trigger an update."""
        check_keys(what, d, _AGENT_KEYS)
        self.params.load_dict(d["params"], f"{what}.params")
        self.adam.load_state_dict(d["adam"], f"{what}.adam")
        columns = load_columns(self.rollout, d["rollout"], len(self.rollout.actions) - 1, f"{what}.rollout")
        check_actions(columns.actions, self.n_actions, f"{what}.rollout.actions")
        self.rollout_steps = len(columns.actions)
        for column, loaded in zip(self.rollout, columns):
            column[: self.rollout_steps] = loaded


def record_feedback(agent: Agent, reward: float) -> None:
    """Write the agent's pending action as the rollout's next step, rewarded
    with the slot's combined reward total."""
    if agent.pending is None:
        raise ValueError(f"{agent.role.name} has no pending action to attach feedback to")
    step = agent.rollout_steps
    if step == len(agent.rollout.actions):
        raise ValueError(f"{agent.role.name} rollout is full; run its PPO update first")
    states, actions, rewards, log_probs = agent.rollout
    states[step], actions[step], log_probs[step] = agent.pending
    rewards[step] = reward
    agent.rollout_steps = step + 1
    agent.pending = None


def _clamp01(vec: np.ndarray) -> np.ndarray:
    return np.clip(vec, 0.0, 1.0)


def _test_case_ids(
    requirement_id: str,
    strategy: GenerationStrategy,
    mode: RetrievalMode,
    coverage: Sequence[float],
    n_tests: int,
    role: AgentRole,
) -> list[str]:
    """Content-hash ids of a slot's tests; they differ only by index, so the
    payload around it (the coverage text above all) is built once."""
    prefix = "|".join([requirement_id, strategy.name, mode.name, ",".join(map(repr, coverage))])
    return [f"tc-{stable_hash(f'{prefix}|{i}|{role.name}'):016x}" for i in range(n_tests)]


def generate_test_cases(
    action: AgentAction,
    requirement: Requirement,
    kb: KnowledgeStore,
    content_vectors: Mapping[str, np.ndarray],
    modifier_delta: np.ndarray,
    n_tests: int,
) -> tuple[list[TestCase], list[str]]:
    """Emit ``n_tests`` test cases whose coverage blends strategy signature
    and context.

    Retrieval runs under the action's mode; retrieved ids that have a known
    content vector contribute to the blend 0.6 * signature + 0.4 * context
    mean (a missing context side contributes nothing). The signature is
    nudged by ``modifier_delta``, whose length is the coverage width.
    Returns the test cases plus the retrieved context ids for edge
    reinforcement.

    Ids are content hashes, so identical inputs yield identical test cases.
    """
    if action.strategy is None or action.retrieval_mode is None:
        raise ValueError(f"{action.role.name} action does not generate test cases")
    query = requirement_query(requirement, kb.d_emb)
    seeds = [requirement.id] if kb.has_node(requirement.id) else []
    retrieved = kb.hybrid_retrieve(query, seeds, action.retrieval_mode, kb.params)
    context_ids = [rid for rid, _ in retrieved]
    context_vecs = [
        np.asarray(content_vectors[rid], dtype=np.float64) for rid in context_ids if rid in content_vectors
    ]
    signature = _clamp01(strategy_signature(action.strategy, len(modifier_delta)) + modifier_delta)
    if context_vecs:
        ctx_mean = np.mean(context_vecs, axis=0)
        coverage = _clamp01((1.0 - CONTEXT_BLEND) * signature + CONTEXT_BLEND * ctx_mean)
    else:
        coverage = _clamp01((1.0 - CONTEXT_BLEND) * signature)
    coverage_vector = tuple(coverage.tolist())
    test_ids = _test_case_ids(
        requirement.id, action.strategy, action.retrieval_mode, coverage_vector, n_tests, action.role
    )
    tests = [
        TestCase(
            id=test_id,
            requirement_refs=(requirement.id,),
            strategy=action.strategy,
            retrieval_mode=action.retrieval_mode,
            coverage_vector=coverage_vector,
            generating_agent=action.role,
        )
        for test_id in test_ids
    ]
    return tests, context_ids
