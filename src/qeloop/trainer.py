"""Training orchestration: the episode loop, learning updates, knowledge
evolution, metrics, ablations, and checkpointing.

One episode runs ``tests_per_episode`` generation slots. Per slot the three
modifier agents pick signature nudges, a generator agent picks a
(strategy, retrieval mode) action, generated tests execute against the
simulated QE channel, the five-component reward is computed over the slot's
feedback batch, every acting agent records a transition, contributing
knowledge-graph edges get reinforced, defect-finding tests enter the
knowledge store, and every ``kb_action_interval`` slots the DQN adjusts one
retrieval parameter.

Determinism contract: (seed, config) fixes every byte of the metrics CSV.
All randomness flows through named RNG streams, and checkpoint/restore
captures enough state that a resumed run is bit-identical to an
uninterrupted one.
"""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .agents import (
    Agent,
    GenerationContext,
    PerformanceTracker,
    featurize_state,
    generate_test_cases,
    modifier_vector,
    record_feedback,
    requirement_summary,
)
from .config import ConfigCodec, UnknownConfigKey  # noqa: F401 - re-exported
from .domain import AgentRole, FeedbackRecord, Requirement, TestCase, validate_feedback
from .dqn import DQNConfig, DQNController, KB_STATE_DIM
from .knowledge import (
    EdgeType,
    KBAction,
    KnowledgeStore,
    RetrievalParams,
    apply_kb_action,
    embed,
)
from .ppo import PPOConfig, compute_gae, policy_value_forward, ppo_update
from .qe_env import EnvConfig, ExecutionModel, SyntheticProject, execute_test, generate_project
from .rewards import (
    RewardBreakdown,
    RewardWeights,
    SeverityWeights,
    adaptation_reward,
    combine,
    compliance_reward,
    coverage_reward,
    effectiveness_reward,
    efficiency_reward,
)
from .rl_core import Adam, MLPParameters, RLCoreConfig, RngStreams, Transition

MODIFIER_ROLES = (
    AgentRole.LegacyTestAnalysis,
    AgentRole.FunctionalChangeMapping,
    AgentRole.ComplianceValidation,
)

METRICS_CSV_COLUMNS = (
    "episode",
    "generation_accuracy",
    "defect_detection_rate",
    "false_positive_rate",
    "requirement_coverage",
    "r_effectiveness",
    "r_coverage",
    "r_efficiency",
    "r_compliance",
    "r_adaptation",
    "r_total",
)

# Version 2 dropped the unused rl.seed knob from the checkpointed config.
CHECKPOINT_SCHEMA_VERSION = 2

# Length of the false-positive and retrieval-hit windows that feed the
# knowledge controller's state.
KB_STATE_WINDOW = 50


class TrainerError(Exception):
    pass


class IOFailure(TrainerError):
    pass


class SchemaVersionMismatch(TrainerError):
    """A checkpoint is unreadable or carries an unsupported schema version."""


@dataclass(frozen=True)
class AblationFlags(ConfigCodec):
    disable_ppo: bool = False
    disable_dqn: bool = False
    scalar_reward: bool = False
    no_feedback: bool = False


@dataclass(frozen=True)
class RewardConfig(ConfigCodec):
    weights: RewardWeights = field(default_factory=RewardWeights)
    severity: SeverityWeights = field(default_factory=SeverityWeights)
    adaptation_window: int = 50

    def validate(self) -> "RewardConfig":
        self.weights.validate()
        self.severity.validate()
        if self.adaptation_window < 2:
            raise ValueError(f"adaptation_window must be >= 2, got {self.adaptation_window}")
        return self


def _default_initial_params() -> RetrievalParams:
    # Untuned starting point on purpose: the similarity threshold begins so
    # strict that vector retrieval returns almost nothing, and the
    # verification-linked edge types (Covers, DetectedBy) begin
    # underweighted. Opening retrieval up is exactly the journey the
    # knowledge controller is there to learn; a run without it stays stuck
    # with whatever these values allow.
    return RetrievalParams(
        similarity_threshold=0.95,
        top_k=12,
        traversal_depth=2,
        edge_type_weights={
            EdgeType.Covers: 0.3,
            EdgeType.Impacts: 0.7,
            EdgeType.DependsOn: 0.7,
            EdgeType.DetectedBy: 0.3,
        },
    )


@dataclass(frozen=True)
class KBConfig(ConfigCodec):
    """Knowledge-store sizing and evolution rates.

    ``max_records`` caps vector inserts; once the store is full the early
    corpus is what retrieval has to rank, which keeps ranking quality (and
    the controller that tunes it) relevant for the whole run.
    """

    d_emb: int = 256
    initial_params: RetrievalParams = field(default_factory=_default_initial_params)
    edge_learning_rate: float = 0.25
    usefulness_learning_rate: float = 0.25
    max_records: int = 600

    def validate(self) -> "KBConfig":
        if self.d_emb < 8:
            raise ValueError(f"d_emb must be >= 8, got {self.d_emb}")
        self.initial_params.validate()
        for name in ("edge_learning_rate", "usefulness_learning_rate"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} {v} outside (0, 1]")
        if self.max_records < 1:
            raise ValueError("max_records must be >= 1")
        return self


@dataclass(frozen=True)
class LoopConfig(ConfigCodec):
    """Per-slot loop shape: how many tests per action, update cadences."""

    n_tests: int = 3
    tracker_window: int = 50
    kb_action_interval: int = 4
    integration_slot_interval: int = 5
    modifier_scale: float = 0.15

    def validate(self) -> "LoopConfig":
        if self.n_tests < 1 or self.tracker_window < 1:
            raise ValueError("n_tests and tracker_window must be >= 1")
        if self.kb_action_interval < 1 or self.integration_slot_interval < 2:
            raise ValueError("kb_action_interval >= 1 and integration_slot_interval >= 2 required")
        if self.modifier_scale < 0:
            raise ValueError("modifier_scale must be non-negative")
        return self


def _default_run_ppo() -> PPOConfig:
    # Desk-scale cadence: shorter rollouts and more epochs give each agent
    # enough gradient steps inside a 300-episode run, and a small entropy
    # coefficient lets the policy commit. The PPOConfig type defaults stay
    # at the reference values.
    return PPOConfig(rollout_length=64, epochs_per_update=8, entropy_coeff=0.003)


def _default_run_dqn() -> DQNConfig:
    # In-run schedule: a 300-episode run only issues ~600 KB actions, so the
    # within-run controller decays exploration and syncs its target on that
    # scale. The DQNConfig type defaults keep the reference schedule.
    return DQNConfig(
        target_sync_interval=100,
        epsilon_decay_steps=400,
        epsilon_end=0.1,
        batch_size=32,
        train_steps_per_action=2,
    )


def _default_run_rl() -> RLCoreConfig:
    # One slot's action pays off in that slot's feedback, so the in-run
    # decision process is near-bandit: a short credit horizon keeps value
    # targets on the reward scale and the per-action signal visible.
    return RLCoreConfig(discount_factor=0.6)


@dataclass(frozen=True)
class RunConfig(ConfigCodec):
    seed: int = 0
    episode_count: int = 300
    tests_per_episode: int = 10
    output_dir: str = "run_out"
    allow_out_of_range: bool = False
    ablation: AblationFlags = field(default_factory=AblationFlags)
    ppo: PPOConfig = field(default_factory=_default_run_ppo)
    dqn: DQNConfig = field(default_factory=_default_run_dqn)
    rl: RLCoreConfig = field(default_factory=_default_run_rl)
    rewards: RewardConfig = field(default_factory=RewardConfig)
    env: EnvConfig = field(default_factory=EnvConfig)
    execution: ExecutionModel = field(default_factory=ExecutionModel)
    kb: KBConfig = field(default_factory=KBConfig)
    loop: LoopConfig = field(default_factory=LoopConfig)

    def validate(self) -> "RunConfig":
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.episode_count < 1 or self.tests_per_episode < 1:
            raise ValueError("episode_count and tests_per_episode must be >= 1")
        self.ppo.validate(allow_out_of_range=self.allow_out_of_range)
        self.dqn.validate()
        self.rl.validate()
        self.rewards.validate()
        self.env.validate()
        self.execution.validate()
        self.kb.validate()
        self.loop.validate()
        return self


@dataclass(frozen=True)
class EpisodeMetrics:
    episode: int
    generation_accuracy: float
    defect_detection_rate: float
    false_positive_rate: float
    requirement_coverage: float
    r_effectiveness: float
    r_coverage: float
    r_efficiency: float
    r_compliance: float
    r_adaptation: float
    r_total: float

    def csv_row(self) -> str:
        values = [str(self.episode)] + [
            repr(float(getattr(self, name))) for name in METRICS_CSV_COLUMNS[1:]
        ]
        return ",".join(values)

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in METRICS_CSV_COLUMNS}

    @classmethod
    def from_dict(cls, d: Mapping) -> "EpisodeMetrics":
        return cls(
            episode=int(d["episode"]),
            **{name: float(d[name]) for name in METRICS_CSV_COLUMNS[1:]},
        )


def _metrics_from_tallies(
    episode: int,
    planned_requirements: Sequence[str],
    reachable_defects: int,
    records: Sequence[FeedbackRecord],
    breakdowns: Sequence[RewardBreakdown],
    n_requirements: int,
) -> EpisodeMetrics:
    n = len(records)
    accuracy = sum(1 for r in records if r.quality_rating >= 0.5) / n if n else 0.0
    detected = {d.defect_ref for r in records for d in r.true_defects()}
    detection = min(1.0, len(detected) / reachable_defects) if reachable_defects else 0.0
    fp_rate = min(1.0, sum(len(r.false_positives()) for r in records) / n) if n else 0.0
    req_cov = len(set(planned_requirements)) / n_requirements
    if breakdowns:
        means = [
            sum(getattr(b, name) for b in breakdowns) / len(breakdowns)
            for name in ("effectiveness", "coverage", "efficiency", "compliance", "adaptation", "total")
        ]
    else:
        means = [0.0] * 6
    return EpisodeMetrics(episode, accuracy, detection, fp_rate, req_cov, *means)


def metrics_csv_text(metrics: Sequence[EpisodeMetrics]) -> str:
    lines = [",".join(METRICS_CSV_COLUMNS)]
    lines.extend(m.csv_row() for m in metrics)
    return "\n".join(lines) + "\n"


def final_window_mean(metrics: Sequence[EpisodeMetrics], attr: str, window: int = 30) -> float:
    tail = metrics[-window:]
    return sum(getattr(m, attr) for m in tail) / len(tail)


def block_means(metrics: Sequence[EpisodeMetrics], attr: str, block_size: int = 25) -> list[float]:
    """Mean of one metric over consecutive episode blocks (default 25
    episodes per block, the run's reporting granularity for phase plots)."""
    out = []
    for start in range(0, len(metrics), block_size):
        chunk = metrics[start : start + block_size]
        out.append(sum(getattr(m, attr) for m in chunk) / len(chunk))
    return out


class TrainingSystem:
    """Owns every mutable piece of one run; single-threaded by construction."""

    def __init__(self, config: RunConfig, deterministic_policy: bool = False):
        self.config = config.validate()
        self.deterministic_policy = deterministic_policy
        self.streams = RngStreams(config.seed)
        self.project: SyntheticProject = generate_project(config.env, config.seed)
        self.requirements = list(self.project.requirements)
        self.req_by_id = self.project.requirement_by_id()
        self._defects_by_req = self.project.defects_by_requirement()

        self.kb = KnowledgeStore(config.kb.d_emb, config.kb.initial_params)
        self.content_vectors: dict[str, np.ndarray] = {}
        self._req_summaries: dict[str, np.ndarray] = {}
        for req in self.requirements:
            tokens = req.text.split() + [req.id]
            self.kb.insert_vector(req.id, embed(tokens, config.kb.d_emb), req.id)
            self.kb.add_node(req.id)
            self._req_summaries[req.id] = requirement_summary(req)
        for src, dst, et in self.project.requirement_links:
            self.kb.upsert_edge(src, dst, et, 0.5)

        self.agents: dict[AgentRole, Agent] = {}
        self.trackers: dict[AgentRole, PerformanceTracker] = {}
        for role in AgentRole:
            self.agents[role] = Agent(
                role, self.streams.get(f"init:{role.name}"), config.ppo.learning_rate
            )
            self.trackers[role] = PerformanceTracker(config.loop.tracker_window)

        self.dqn = DQNController(
            config.dqn,
            config.rl.discount_factor,
            self.streams.get("init:dqn"),
            self.streams.get("replay"),
            self.streams.get("dqn"),
            state_dim=KB_STATE_DIM,
        )

        self.test_catalog: dict[str, TestCase] = {}
        self.reward_window: deque[float] = deque(maxlen=config.rewards.adaptation_window)
        self.fp_window: deque[float] = deque(maxlen=KB_STATE_WINDOW)
        self.hit_window: deque[float] = deque(maxlen=KB_STATE_WINDOW)
        self.kb_pending: tuple[np.ndarray, int, list[float]] | None = None
        self._prev_interval_mean: float | None = None
        self.global_slot = 0
        self.episode_index = 0
        self.metrics_history: list[EpisodeMetrics] = []
        self.events: list[dict] = []
        self.ppo_rows: list[dict] = []
        self.dqn_rows: list[dict] = []
        self._ppo_update_count = 0
        self._event(
            {
                "type": "run_start",
                "n_requirements": len(self.requirements),
                "n_defects": len(self.project.defects),
                "seed": config.seed,
            }
        )

    # -- featurization ---------------------------------------------------

    def _event(self, payload: dict) -> None:
        self.events.append(payload)

    def _featurize(self, role: AgentRole, requirement_id: str) -> np.ndarray:
        return featurize_state(
            self._req_summaries[requirement_id],
            self.trackers[role],
            self.kb.params,
            self.kb.mean_edge_weight(),
        )

    def _kb_state(self) -> np.ndarray:
        params = self.kb.params
        mean_reward = (
            sum(self.reward_window) / len(self.reward_window) if self.reward_window else 0.0
        )
        fp_rate = sum(self.fp_window) / len(self.fp_window) if self.fp_window else 0.0
        hit_rate = sum(self.hit_window) / len(self.hit_window) if self.hit_window else 0.0
        return np.asarray(
            [
                params.similarity_threshold,
                params.top_k / 64.0,
                params.traversal_depth / 4.0,
                params.edge_type_weights[EdgeType.Covers],
                params.edge_type_weights[EdgeType.Impacts],
                params.edge_type_weights[EdgeType.DependsOn],
                params.edge_type_weights[EdgeType.DetectedBy],
                0.5 * (1.0 + np.tanh(mean_reward)),
                fp_rate,
                hit_rate,
            ],
            dtype=np.float64,
        )

    # -- learning steps ---------------------------------------------------

    def _run_ppo_update(self, role: AgentRole) -> None:
        agent = self.agents[role]
        config = self.config.ppo
        rollout = agent.rollout[: config.rollout_length]
        agent.rollout = agent.rollout[config.rollout_length :]
        states = np.vstack([t.state for t in rollout] + [rollout[-1].next_state])
        _, values = policy_value_forward(agent.params, states)
        processed = compute_gae(
            rollout, values, self.config.rl.discount_factor, self.config.rl.gae_lambda
        )
        report = ppo_update(
            agent.params, agent.adam, processed, config, self.streams.get(f"ppo:{role.name}")
        )
        row = {"update_index": self._ppo_update_count, "role": role.name, **report.to_dict()}
        self._ppo_update_count += 1
        self.ppo_rows.append(row)
        self._event({"type": "ppo_update", **row})

    def _run_kb_action(self) -> None:
        state = self._kb_state()
        if self.kb_pending is not None:
            prev_state, prev_action, totals = self.kb_pending
            interval_mean = sum(totals) / len(totals) if totals else 0.0
            # Reward the *change* in mean reward around the action: the raw
            # level trends upward with policy learning regardless of the KB
            # action, which would credit whatever drift happened to co-occur.
            baseline = self._prev_interval_mean
            reward = 0.0 if baseline is None else interval_mean - baseline
            self._prev_interval_mean = interval_mean
            self.dqn.record(
                Transition(
                    state=prev_state,
                    action=prev_action,
                    reward=reward,
                    next_state=state,
                    done=False,
                )
            )
        step = self.dqn.action_steps
        epsilon = self.dqn.epsilon
        action = self.dqn.select_action(state)
        self.kb.params = apply_kb_action(action, self.kb.params)
        self.kb_pending = (state, int(action), [])
        loss = mean_q = None
        if self.dqn.can_train():
            for _ in range(self.config.dqn.train_steps_per_action):
                loss, mean_q = self.dqn.train_step()
        row = {
            "step": step,
            "epsilon": epsilon,
            "loss": loss,
            "mean_q": mean_q,
            "chosen_action": KBAction(action).name,
        }
        self.dqn_rows.append(row)
        self._event({"type": "kb_action", "params": self.kb.params.to_dict(), **row})

    def _evolve_knowledge(
        self,
        requirement: Requirement,
        records: Sequence[FeedbackRecord],
        context_ids: Sequence[str],
    ) -> None:
        eta = self.config.kb.edge_learning_rate
        context = set(context_ids) | {requirement.id}
        record_context_ids = [
            rid for rid in context_ids if self.kb.get_record(rid) is not None
        ]
        for fb in records:
            self.kb.reinforce_edges(fb, context, eta)
            if fb.true_defects():
                target = 1.0
            elif fb.false_positives():
                target = 0.0
            else:
                continue
            self.kb.update_usefulness(
                record_context_ids, target, self.config.kb.usefulness_learning_rate
            )
        # Every executed test enters the vector store; only defect-verified
        # tests earn graph edges, so edge-type weighting separates verified
        # knowledge from the merely similar.
        for fb in records:
            if self.kb.vector_count >= self.config.kb.max_records:
                break
            test = self.test_catalog[fb.test_case_ref]
            if self.kb.get_record(test.id) is None:
                tokens = requirement.text.split() + [
                    requirement.id, test.strategy.name, test.retrieval_mode.name,
                ]
                self.kb.insert_vector(test.id, embed(tokens, self.config.kb.d_emb), test.id)
                self.content_vectors[test.id] = np.asarray(test.coverage_vector, dtype=np.float64)
            if fb.true_defects():
                self.kb.add_node(test.id)
                self.kb.upsert_edge(test.id, requirement.id, EdgeType.Covers, 0.5)
                for report in fb.true_defects():
                    self.kb.add_node(report.defect_ref)
                    self.kb.upsert_edge(report.defect_ref, test.id, EdgeType.DetectedBy, 0.5)

    # -- episode loop ------------------------------------------------------

    def _planned_requirements(self) -> list[str]:
        n = len(self.requirements)
        return [
            self.requirements[(self.global_slot + s) % n].id
            for s in range(self.config.tests_per_episode)
        ]

    def run_episode(self) -> EpisodeMetrics:
        config = self.config
        flags = config.ablation
        episode = self.episode_index
        planned = self._planned_requirements()
        reachable = sum(len(self._defects_by_req[rid]) for rid in sorted(set(planned)))
        self._event(
            {
                "type": "episode_start",
                "episode": episode,
                "planned_requirements": planned,
                "reachable_defects": reachable,
            }
        )
        ep_records: list[FeedbackRecord] = []
        ep_breakdowns: list[RewardBreakdown] = []

        for slot in range(config.tests_per_episode):
            rid = planned[slot]
            requirement = self.req_by_id[rid]

            modifier_delta = np.zeros(config.env.d_cov, dtype=np.float64)
            acting: list[AgentRole] = []
            for role in MODIFIER_ROLES:
                agent = self.agents[role]
                state = self._featurize(role, rid)
                action, log_prob = agent.act(
                    state, self.streams.get(f"policy:{role.name}"), self.deterministic_policy
                )
                modifier_delta += modifier_vector(role, action.option, config.env.d_cov)
                acting.append(role)
                self._event(
                    {
                        "type": "agent_action",
                        "episode": episode,
                        "slot": slot,
                        "role": role.name,
                        "action_index": action.index,
                        "log_prob": log_prob,
                    }
                )
            modifier_delta *= config.loop.modifier_scale

            interval = config.loop.integration_slot_interval
            gen_role = (
                AgentRole.IntegrationPoint
                if slot % interval == interval - 1
                else AgentRole.TestCaseGeneration
            )
            gen_agent = self.agents[gen_role]
            gen_state = self._featurize(gen_role, rid)
            gen_action, gen_log_prob = gen_agent.act(
                gen_state, self.streams.get(f"policy:{gen_role.name}"), self.deterministic_policy
            )
            acting.append(gen_role)
            self._event(
                {
                    "type": "agent_action",
                    "episode": episode,
                    "slot": slot,
                    "role": gen_role.name,
                    "action_index": gen_action.index,
                    "strategy": gen_action.strategy.name,
                    "retrieval_mode": gen_action.retrieval_mode.name,
                    "log_prob": gen_log_prob,
                }
            )

            context = GenerationContext(
                n_tests=config.loop.n_tests,
                d_cov=config.env.d_cov,
                content_vectors=self.content_vectors,
                modifier_delta=modifier_delta,
                params=self.kb.params,
            )
            tests, context_ids = generate_test_cases(gen_action, requirement, self.kb, context)
            self.hit_window.append(1.0 if context_ids else 0.0)

            slot_records: list[FeedbackRecord] = []
            for test in tests:
                self.test_catalog[test.id] = test
                self._event({"type": "test_generated", "episode": episode, "slot": slot, "test": test.to_dict()})
                feedback = execute_test(test, self.project, config.execution, self.streams.get("env"))
                validate_feedback(feedback, self.test_catalog)
                slot_records.append(feedback)
                ep_records.append(feedback)
                self.fp_window.append(1.0 if feedback.false_positives() else 0.0)
                self._event(
                    {"type": "feedback", "episode": episode, "slot": slot, "record": feedback.to_dict()}
                )

            weights = (
                RewardWeights.effectiveness_only() if flags.scalar_reward else config.rewards.weights
            )
            breakdown = combine(
                effectiveness_reward(slot_records, config.rewards.severity),
                coverage_reward(slot_records),
                efficiency_reward(slot_records),
                compliance_reward(slot_records),
                adaptation_reward(list(self.reward_window)),
                weights,
            )
            ep_breakdowns.append(breakdown)
            self.reward_window.append(breakdown.total)
            if self.kb_pending is not None:
                self.kb_pending[2].append(breakdown.total)
            self._event(
                {"type": "reward", "episode": episode, "slot": slot, "breakdown": breakdown.to_dict()}
            )

            for role in acting:
                agent = self.agents[role]
                record_feedback(
                    agent,
                    self.trackers[role],
                    slot_records,
                    breakdown,
                    featurize_next=lambda r=role: self._featurize(r, rid),
                )
                if flags.disable_ppo:
                    agent.rollout.clear()
                elif len(agent.rollout) >= config.ppo.rollout_length:
                    self._run_ppo_update(role)

            if not flags.no_feedback:
                self._evolve_knowledge(requirement, slot_records, context_ids)

            self.global_slot += 1
            if not flags.disable_dqn and self.global_slot % config.loop.kb_action_interval == 0:
                self._run_kb_action()

        metrics = _metrics_from_tallies(
            episode, planned, reachable, ep_records, ep_breakdowns, len(self.requirements)
        )
        self.metrics_history.append(metrics)
        self._event({"type": "episode_end", "episode": episode, "metrics": metrics.to_dict()})
        self.episode_index += 1
        return metrics

    def run(self, episodes: int | None = None, output_dir: str | None = None) -> list[EpisodeMetrics]:
        """Run episodes; on error, persist the partial event log before raising."""
        remaining = self.config.episode_count if episodes is None else episodes
        try:
            for _ in range(remaining):
                self.run_episode()
        except Exception:
            if output_dir is not None:
                try:
                    os.makedirs(output_dir, exist_ok=True)
                    write_events_jsonl(self.events, os.path.join(output_dir, "events_partial.jsonl"))
                except OSError:
                    pass
            raise
        return self.metrics_history

    # -- checkpointing -----------------------------------------------------

    def checkpoint_dict(self) -> dict:
        return {
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "episode_index": self.episode_index,
            "global_slot": self.global_slot,
            "agents": {
                role.name: {
                    "params": self.agents[role].params.to_dict(),
                    "adam": self.agents[role].adam.state_dict(),
                    "rollout": [t.to_dict() for t in self.agents[role].rollout],
                    "tracker": self.trackers[role].state_dict(),
                }
                for role in AgentRole
            },
            "dqn": self.dqn.state_dict(),
            "kb": self.kb.snapshot_dict(),
            "content_vectors": {
                key: [float(x) for x in vec] for key, vec in sorted(self.content_vectors.items())
            },
            "test_catalog": {tid: t.to_dict() for tid, t in sorted(self.test_catalog.items())},
            "reward_window": list(self.reward_window),
            "fp_window": list(self.fp_window),
            "hit_window": list(self.hit_window),
            "kb_pending": (
                None
                if self.kb_pending is None
                else {
                    "state": [float(x) for x in self.kb_pending[0]],
                    "action": self.kb_pending[1],
                    "totals": list(self.kb_pending[2]),
                }
            ),
            "prev_interval_mean": self._prev_interval_mean,
            "metrics_history": [m.to_dict() for m in self.metrics_history],
            "ppo_rows": self.ppo_rows,
            "dqn_rows": self.dqn_rows,
            "ppo_update_count": self._ppo_update_count,
            "rng_states": self.streams.state_dict(),
        }

    def checkpoint(self, path) -> None:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(self.checkpoint_dict(), fh, sort_keys=True)
        except OSError as exc:
            raise IOFailure(f"cannot write checkpoint to {path}: {exc}") from exc

    @classmethod
    def restore(cls, path) -> "TrainingSystem":
        """Rebuild a system from a checkpoint; corrupt files never yield a
        partial system."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise IOFailure(f"cannot read checkpoint {path}: {exc}") from exc
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise SchemaVersionMismatch(f"checkpoint is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
            raise SchemaVersionMismatch(
                f"unsupported checkpoint schema_version {payload.get('schema_version')!r}"
                if isinstance(payload, dict)
                else "checkpoint payload is not an object"
            )
        try:
            config = RunConfig.from_dict(payload["config"])
            system = cls(config)
            system.kb = KnowledgeStore.from_snapshot_dict(payload["kb"])
            system.content_vectors = {
                key: np.asarray(vec, dtype=np.float64)
                for key, vec in payload["content_vectors"].items()
            }
            system.test_catalog = {
                tid: TestCase.from_dict(d) for tid, d in payload["test_catalog"].items()
            }
            for role in AgentRole:
                agent_d = payload["agents"][role.name]
                agent = system.agents[role]
                agent.params = MLPParameters.from_dict(agent_d["params"])
                agent.adam = Adam(agent.params, config.ppo.learning_rate)
                agent.adam.load_state_dict(agent_d["adam"])
                agent.rollout = [Transition.from_dict(t) for t in agent_d["rollout"]]
                system.trackers[role] = PerformanceTracker.from_state_dict(agent_d["tracker"])
            system.dqn.load_state_dict(payload["dqn"])
            system.reward_window = deque(
                [float(x) for x in payload["reward_window"]],
                maxlen=config.rewards.adaptation_window,
            )
            system.fp_window = deque([float(x) for x in payload["fp_window"]], maxlen=KB_STATE_WINDOW)
            system.hit_window = deque([float(x) for x in payload["hit_window"]], maxlen=KB_STATE_WINDOW)
            pending = payload["kb_pending"]
            system.kb_pending = (
                None
                if pending is None
                else (
                    np.asarray(pending["state"], dtype=np.float64),
                    int(pending["action"]),
                    [float(x) for x in pending["totals"]],
                )
            )
            prev_mean = payload["prev_interval_mean"]
            system._prev_interval_mean = None if prev_mean is None else float(prev_mean)
            system.episode_index = int(payload["episode_index"])
            system.global_slot = int(payload["global_slot"])
            system.metrics_history = [
                EpisodeMetrics.from_dict(m) for m in payload["metrics_history"]
            ]
            system.ppo_rows = list(payload["ppo_rows"])
            system.dqn_rows = list(payload["dqn_rows"])
            system._ppo_update_count = int(payload["ppo_update_count"])
            system.streams.load_state_dict(payload["rng_states"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaVersionMismatch(f"checkpoint payload incomplete or malformed: {exc}") from exc
        return system


# -- run-level helpers ------------------------------------------------------


@dataclass
class RunResult:
    config: RunConfig
    metrics: list[EpisodeMetrics]
    events: list[dict]
    ppo_rows: list[dict]
    dqn_rows: list[dict]
    system: TrainingSystem


def run_training(config: RunConfig, deterministic_policy: bool = False) -> RunResult:
    system = TrainingSystem(config, deterministic_policy=deterministic_policy)
    metrics = system.run()
    return RunResult(config, metrics, system.events, system.ppo_rows, system.dqn_rows, system)


def write_events_jsonl(events: Sequence[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event, sort_keys=True))
            fh.write("\n")


def derive_metrics_from_events(events: Sequence[dict]) -> list[EpisodeMetrics]:
    """Recompute per-episode metrics purely from the event log."""
    n_requirements = None
    out: list[EpisodeMetrics] = []
    episode = None
    planned: list[str] = []
    reachable = 0
    records: list[FeedbackRecord] = []
    breakdowns: list[RewardBreakdown] = []
    for event in events:
        kind = event.get("type")
        if kind == "run_start":
            n_requirements = int(event["n_requirements"])
        elif kind == "episode_start":
            episode = int(event["episode"])
            planned = list(event["planned_requirements"])
            reachable = int(event["reachable_defects"])
            records, breakdowns = [], []
        elif kind == "feedback":
            records.append(FeedbackRecord.from_dict(event["record"]))
        elif kind == "reward":
            breakdowns.append(RewardBreakdown.from_dict(event["breakdown"]))
        elif kind == "episode_end":
            if n_requirements is None or episode is None:
                raise ValueError("event log missing run_start/episode_start context")
            out.append(
                _metrics_from_tallies(episode, planned, reachable, records, breakdowns, n_requirements)
            )
    return out


def export_metrics(run: RunResult, out_dir) -> dict[str, str]:
    """Write metrics.csv, events.jsonl, and learner diagnostic CSVs.

    Returns the mapping of artifact name to path. Raises IOFailure on any
    filesystem problem and refuses to export an empty run.
    """
    if not run.metrics:
        raise IOFailure("refusing to export a run with no episodes")
    try:
        os.makedirs(out_dir, exist_ok=True)
        paths = {}
        metrics_path = os.path.join(out_dir, "metrics.csv")
        with open(metrics_path, "w", encoding="utf-8") as fh:
            fh.write(metrics_csv_text(run.metrics))
        paths["metrics"] = metrics_path
        events_path = os.path.join(out_dir, "events.jsonl")
        write_events_jsonl(run.events, events_path)
        paths["events"] = events_path
        feedback_path = os.path.join(out_dir, "feedback.jsonl")
        with open(feedback_path, "w", encoding="utf-8") as fh:
            for event in run.events:
                if event.get("type") == "feedback":
                    fh.write(FeedbackRecord.from_dict(event["record"]).to_json_line())
                    fh.write("\n")
        paths["feedback"] = feedback_path
        ppo_path = os.path.join(out_dir, "ppo_updates.csv")
        with open(ppo_path, "w", encoding="utf-8") as fh:
            fh.write("update_index,role,mean_ratio,clip_fraction,policy_loss,value_loss,entropy\n")
            for row in run.ppo_rows:
                fh.write(
                    f"{row['update_index']},{row['role']},{row['mean_ratio']!r},"
                    f"{row['clip_fraction']!r},{row['policy_loss']!r},{row['value_loss']!r},{row['entropy']!r}\n"
                )
        paths["ppo_updates"] = ppo_path
        dqn_path = os.path.join(out_dir, "dqn_steps.csv")
        with open(dqn_path, "w", encoding="utf-8") as fh:
            fh.write("step,epsilon,loss,mean_q,chosen_action\n")
            for row in run.dqn_rows:
                loss = "" if row["loss"] is None else repr(row["loss"])
                mean_q = "" if row["mean_q"] is None else repr(row["mean_q"])
                fh.write(f"{row['step']},{row['epsilon']!r},{loss},{mean_q},{row['chosen_action']}\n")
        paths["dqn_steps"] = dqn_path
        return paths
    except OSError as exc:
        raise IOFailure(f"export failed: {exc}") from exc


# -- ablations ----------------------------------------------------------------

ABLATION_VARIANTS: dict[str, AblationFlags] = {
    "full": AblationFlags(),
    "disable_ppo": AblationFlags(disable_ppo=True),
    "disable_dqn": AblationFlags(disable_dqn=True),
    "scalar_reward": AblationFlags(scalar_reward=True),
    "no_feedback": AblationFlags(no_feedback=True),
}


@dataclass
class AblationRow:
    variant: str
    detection_mean: float
    detection_std: float
    reward_mean: float
    reward_std: float
    per_seed_detection: list[float]
    per_seed_reward: list[float]


@dataclass
class AblationResult:
    rows: list[AblationRow]
    n_seeds: int
    window: int

    def table_text(self) -> str:
        lines = [
            f"{'variant':<16} {'detection (mean+/-std)':<26} {'reward (mean+/-std)':<24}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.variant:<16} "
                f"{row.detection_mean:.4f} +/- {row.detection_std:.4f}{'':<8} "
                f"{row.reward_mean:.4f} +/- {row.reward_std:.4f}"
            )
        return "\n".join(lines)

    def csv_text(self) -> str:
        lines = ["variant,detection_mean,detection_std,reward_mean,reward_std"]
        for row in self.rows:
            lines.append(
                f"{row.variant},{row.detection_mean!r},{row.detection_std!r},"
                f"{row.reward_mean!r},{row.reward_std!r}"
            )
        return "\n".join(lines) + "\n"

    def by_variant(self) -> dict[str, AblationRow]:
        return {row.variant: row for row in self.rows}


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    mean = sum(values) / len(values)
    if len(values) < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, var**0.5


def run_ablation_suite(base_config: RunConfig, n_seeds: int = 5, window: int = 30) -> AblationResult:
    """Full system plus the four single-flag ablations, each over n_seeds."""
    rows = []
    for variant, flags in ABLATION_VARIANTS.items():
        detections, totals = [], []
        for offset in range(n_seeds):
            config = replace(base_config, seed=base_config.seed + offset, ablation=flags)
            result = run_training(config)
            detections.append(final_window_mean(result.metrics, "defect_detection_rate", window))
            totals.append(final_window_mean(result.metrics, "r_total", window))
        det_mean, det_std = _mean_std(detections)
        rew_mean, rew_std = _mean_std(totals)
        rows.append(AblationRow(variant, det_mean, det_std, rew_mean, rew_std, detections, totals))
    return AblationResult(rows, n_seeds, window)
