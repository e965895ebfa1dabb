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

import hashlib
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

from .domain import (
    AgentRole,
    FeedbackRecord,
    GenerationStrategy,
    Requirement,
    RetrievalMode,
    TestCase,
    check_keys,
)
from .knowledge import KnowledgeStore, RetrievalParams, embed
from .ppo import policy_value_forward
from .rewards import RewardBreakdown, trend_slope
from .rl_core import HIDDEN_WIDTH, Adam, Transition, sample_action, softmax_policy, xavier_init

STATE_DIM = 16
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
    """A decoded action: (strategy, mode) for generators, an option otherwise."""

    role: AgentRole
    index: int
    strategy: GenerationStrategy | None = None
    retrieval_mode: RetrievalMode | None = None
    option: int | None = None


def decode_action(role: AgentRole, index: int) -> AgentAction:
    size = action_space_size(role)
    if not 0 <= index < size:
        raise ValueError(f"action index {index} outside [0, {size}) for {role.name}")
    if role in _GENERATOR_STRATEGIES:
        strategies = _GENERATOR_STRATEGIES[role]
        strategy = strategies[index // len(RetrievalMode)]
        mode = RetrievalMode(index % len(RetrievalMode))
        return AgentAction(role, index, strategy=strategy, retrieval_mode=mode)
    return AgentAction(role, index, option=index)


def _hashed_dims(label: str, count: int, dim: int) -> list[int]:
    """Deterministic distinct bucket choices for sparse pattern vectors."""
    dims: list[int] = []
    salt = 0
    while len(dims) < count:
        digest = hashlib.blake2b(f"{label}#{salt}".encode("utf-8"), digest_size=8).digest()
        bucket = int.from_bytes(digest, "big") % dim
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


_TRACKER_KEYS = frozenset({"window", "breakdowns", "records"})


class PerformanceTracker:
    """Per-agent rolling windows of rewards, defect counts, and FP counts.

    Append through the ``push_*`` methods only: they drop the cached
    aggregates and reward stats, which are otherwise computed once per push
    however often they are read.
    """

    def __init__(self, window: int = 50):
        self.window = window
        self.breakdowns: deque[RewardBreakdown] = deque(maxlen=window)
        self.records: deque[tuple[int, int, int, float]] = deque(maxlen=window)
        self._aggregates: tuple[float, float, float, float] | None = None
        self._reward_stats: tuple[float, float] | None = None

    def push_record(self, feedback: FeedbackRecord) -> None:
        true_defects = feedback.true_defects()
        self.records.append(
            (
                len(true_defects),
                len(feedback.false_positives()),
                sum(int(d.severity) for d in true_defects),
                feedback.quality_rating,
            )
        )
        self._aggregates = None

    def push_breakdown(self, reward: RewardBreakdown) -> None:
        self.breakdowns.append(reward)
        self._reward_stats = None

    def aggregates(self) -> tuple[float, float, float, float]:
        """(defect rate, FP rate, mean severity, mean quality), zeros when empty."""
        if self._aggregates is None:
            self._aggregates = self._compute_aggregates()
        return self._aggregates

    def _compute_aggregates(self) -> tuple[float, float, float, float]:
        if not self.records:
            return (0.0, 0.0, 0.0, 0.0)
        n = len(self.records)
        true_total, fp_total, sev_total, quality_total = map(sum, zip(*self.records))
        quality = quality_total / n
        # Severity ranks run 0..3; dividing by 3 maps the mean into [0, 1].
        mean_sev = (sev_total / true_total) / 3.0 if true_total else 0.0
        return (
            min(1.0, true_total / n),
            min(1.0, fp_total / n),
            min(1.0, mean_sev),
            quality,
        )

    def reward_stats(self) -> tuple[float, float]:
        """(mean, trend slope) of the windowed reward totals, zeros when empty."""
        if self._reward_stats is None:
            self._reward_stats = self._compute_reward_stats()
        return self._reward_stats

    def _compute_reward_stats(self) -> tuple[float, float]:
        totals = [b.total for b in self.breakdowns]
        if not totals:
            return (0.0, 0.0)
        return (sum(totals) / len(totals), trend_slope(totals))

    def state_dict(self) -> dict:
        return {
            "window": self.window,
            "breakdowns": [b.to_dict() for b in self.breakdowns],
            "records": [list(r) for r in self.records],
        }

    @classmethod
    def from_state_dict(cls, d: Mapping, what: str = "tracker state") -> "PerformanceTracker":
        """``what`` names ``d`` in the error for a missing or unknown key."""
        check_keys(what, d, _TRACKER_KEYS)
        tracker = cls(window=int(d["window"]))
        for b in d["breakdowns"]:
            tracker.breakdowns.append(RewardBreakdown.from_dict(b))
        for r in d["records"]:
            tracker.records.append((int(r[0]), int(r[1]), int(r[2]), float(r[3])))
        return tracker


def requirement_summary(requirement: Requirement) -> np.ndarray:
    """8-dim hashed summary of a requirement's public text and tags."""
    tokens = requirement.text.split() + sorted(requirement.component_tags) + [requirement.id]
    return embed(tokens, 8)


def featurize_state(
    requirement_vec: np.ndarray,
    tracker: PerformanceTracker,
    params: RetrievalParams,
    mean_edge_weight: float,
) -> np.ndarray:
    """Deterministic 16-dim agent state; empty-history aggregates are zero."""
    defect_rate, fp_rate, mean_sev, mean_quality = tracker.aggregates()
    reward_mean, trend = tracker.reward_stats()
    state = np.concatenate(
        [
            np.asarray(requirement_vec, dtype=np.float64),
            [defect_rate, fp_rate, mean_sev, mean_quality],
            [params.similarity_threshold, mean_edge_weight],
            [np.tanh(reward_mean), np.tanh(trend)],
        ]
    )
    assert state.shape == (STATE_DIM,)
    return state


class Agent:
    """One role's policy, rollout accumulator, and pending action slot."""

    def __init__(self, role: AgentRole, init_rng: np.random.Generator, learning_rate: float):
        self.role = role
        self.n_actions = action_space_size(role)
        self.params = xavier_init((STATE_DIM, HIDDEN_WIDTH, HIDDEN_WIDTH, self.n_actions + 1), init_rng)
        self.adam = Adam(self.params, learning_rate)
        self.rollout: list[Transition] = []
        self.pending: tuple[np.ndarray, int, float] | None = None

    def act(
        self, state: np.ndarray, rng: np.random.Generator, deterministic: bool = False
    ) -> tuple[AgentAction, float]:
        """Sample (or argmax) an action and remember it for the feedback step."""
        logits, _ = policy_value_forward(self.params, state[None, :])
        probs, log_probs = softmax_policy(logits[0])
        if deterministic:
            index = int(np.argmax(probs))
        else:
            index = sample_action(probs, rng)
        log_prob = float(log_probs[index])
        self.pending = (np.asarray(state, dtype=np.float64), index, log_prob)
        return decode_action(self.role, index), log_prob

    def action_probabilities(self, state: np.ndarray) -> np.ndarray:
        logits, _ = policy_value_forward(self.params, state[None, :])
        probs, _ = softmax_policy(logits[0])
        return probs


def record_feedback(
    agent: Agent,
    tracker: PerformanceTracker,
    feedbacks: Sequence[FeedbackRecord],
    reward: RewardBreakdown,
    featurize_next: Callable[[], np.ndarray],
) -> Transition:
    """Push feedback into the windows and emit the agent's transition.

    ``featurize_next`` runs after the tracker update so the next state
    reflects the newly recorded feedback. The transition reward is the
    combined total and done is always false (the loop is continuous).
    """
    if agent.pending is None:
        raise ValueError(f"{agent.role.name} has no pending action to attach feedback to")
    for feedback in feedbacks:
        tracker.push_record(feedback)
    tracker.push_breakdown(reward)
    state, action_index, log_prob = agent.pending
    transition = Transition(
        state=state,
        action=action_index,
        reward=reward.total,
        next_state=featurize_next(),
        done=False,
        log_prob_old=log_prob,
    )
    agent.rollout.append(transition)
    agent.pending = None
    return transition


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
    return [
        "tc-" + hashlib.blake2b(f"{prefix}|{i}|{role.name}".encode("utf-8"), digest_size=8).hexdigest()
        for i in range(n_tests)
    ]


@dataclass
class GenerationContext:
    """Everything generation needs beyond the action and the requirement."""

    n_tests: int
    d_cov: int
    content_vectors: Mapping[str, np.ndarray]
    modifier_delta: np.ndarray | None = None
    params: RetrievalParams | None = None


def generate_test_cases(
    action: AgentAction,
    requirement: Requirement,
    kb: KnowledgeStore,
    context: GenerationContext,
) -> tuple[list[TestCase], list[str]]:
    """Emit test cases whose coverage blends strategy signature and context.

    Retrieval runs under the action's mode; retrieved ids that have a known
    content vector contribute to the blend 0.6 * signature + 0.4 * context
    mean (a missing context side contributes nothing). Returns the test
    cases plus the retrieved context ids for edge reinforcement.

    Ids are content hashes, so identical inputs yield identical test cases.
    """
    if action.strategy is None or action.retrieval_mode is None:
        raise ValueError(f"{action.role.name} action does not generate test cases")
    query = requirement_query(requirement, kb.d_emb)
    seeds = [requirement.id] if kb.has_node(requirement.id) else []
    params = context.params or kb.params
    if action.retrieval_mode == RetrievalMode.GraphOnly and not seeds:
        retrieved: list[tuple[str, float]] = []
    else:
        retrieved = kb.hybrid_retrieve(query, seeds, action.retrieval_mode, params)
    context_ids = [rid for rid, _ in retrieved]
    context_vecs = [
        np.asarray(context.content_vectors[rid], dtype=np.float64)
        for rid in context_ids
        if rid in context.content_vectors
    ]
    signature = strategy_signature(action.strategy, context.d_cov)
    if context.modifier_delta is not None:
        signature = _clamp01(signature + context.modifier_delta)
    if context_vecs:
        ctx_mean = np.mean(context_vecs, axis=0)
        coverage = _clamp01((1.0 - CONTEXT_BLEND) * signature + CONTEXT_BLEND * ctx_mean)
    else:
        coverage = _clamp01((1.0 - CONTEXT_BLEND) * signature)
    coverage_vector = tuple(coverage.tolist())
    test_ids = _test_case_ids(
        requirement.id, action.strategy, action.retrieval_mode, coverage_vector, context.n_tests, action.role
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
