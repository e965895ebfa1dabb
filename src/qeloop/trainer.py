"""Training orchestration: the episode loop, learning updates, knowledge
evolution, metrics, ablations, and checkpointing.

One episode runs ``tests_per_episode`` generation slots. Per slot the three
modifier agents pick signature nudges, a generator agent picks a
(strategy, retrieval mode) action, generated tests execute against the
simulated QE channel, the five-component reward is computed over the slot's
feedback batch, every acting agent records a rollout step, contributing
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
from contextlib import ExitStack
from dataclasses import dataclass, field, fields, replace
from functools import cache
from typing import Iterable, Protocol, Sequence

import numpy as np

from .agents import (
    Agent,
    PerformanceTracker,
    featurize_state,
    generate_test_cases,
    generated_test_embedding,
    modifier_vector,
    record_feedback,
    requirement_query,
    requirement_summary,
)
from .atomic import atomic_open
from .config import ConfigCodec, ConfigError
from .domain import (
    AgentRole,
    FeedbackRecord,
    InputError,
    Requirement,
    TestCase,
    check_keys,
    read_json,
    validate_feedback,
)
from .dqn import DQNConfig, DQNController, KB_STATE_DIM
from .knowledge import (
    EMBED_DIM_MIN,
    KB_ACTION_COUNT,
    EdgeType,
    KBAction,
    KnowledgeStore,
    RetrievalParams,
    apply_kb_action,
)
from .ppo import PPOConfig, compute_gae, policy_value_forward, ppo_update
from .qe_env import EnvConfig, ExecutionModel, SyntheticProject, execute_test, generate_project
from .rewards import RewardBreakdown, RewardWeights, SeverityWeights, batch_reward
from .rl_core import (
    RLCoreConfig,
    RngStreams,
    Transition,
    load_below,
    load_count,
    load_vector,
    load_window,
    parse_json,
)

MODIFIER_ROLES = (
    AgentRole.LegacyTestAnalysis,
    AgentRole.FunctionalChangeMapping,
    AgentRole.ComplianceValidation,
)

PPO_CSV_COLUMNS = ("update_index", "role", "mean_ratio", "clip_fraction", "policy_loss", "value_loss", "entropy")
DQN_CSV_COLUMNS = ("step", "epsilon", "loss", "mean_q", "chosen_action")
# The fields of each kind of event a run writes, besides ``type``, each with
# the JSON kind ``read_event`` decides: ``int`` is a count, a non-negative
# integer, and ``None`` a field it reads with its own code or not at all.
_EVENT_FIELDS = {
    "run_start": {"event_schema": None, "n_requirements": int, "n_defects": int, "seed": int},
    "episode_start": {"episode": int, "planned_requirements": list, "reachable_defects": int},
    "slot": {"episode": int, "slot": int, "records": list, **dict.fromkeys(("actions", "test", "test_ids", "reward"))},
    "episode_end": {"episode": int, "metrics": None},
    "ppo_update": {"update_index": int, "role": str, **dict.fromkeys(PPO_CSV_COLUMNS[2:], float)},
    "kb_action": {"step": int, "epsilon": float, "loss": float, "mean_q": float, "chosen_action": str, "params": None},
}

# The modifiers act in every slot on the same records and reward, so they
# learn from one tracker; each generator role has its own.
TRACKER_KEYS = ("modifiers", AgentRole.IntegrationPoint.name, AgentRole.TestCaseGeneration.name)

# Version 12 holds the state the loop reads and no run history: each network
# and its Adam moments (``t``, ``m``, ``v``; the rate is the config's) as one
# flat float64 buffer, rollouts and the replay as one column per field, the
# three trackers under ``TRACKER_KEYS`` (the modifiers' is the run's one
# reward and feedback history), the knowledge snapshot, the retrieval-hit
# window and the RNG stream positions. The learners' float64 buffers and
# columns are ``rl_core.encode_floats`` text; every other number is JSON.
CHECKPOINT_SCHEMA_VERSION = 12

# The keys of a checkpoint; ``TrainingSystem.restore`` reads each of them.
_CHECKPOINT_KEYS = frozenset({
    "schema_version", "config", "episode_index", "agents", "trackers", "dqn", "kb",
    "content_vectors", "hit_window", "kb_pending", "ppo_update_count", "rng_states",
})
_KB_PENDING_KEYS = frozenset({"state", "action"})
# Every RNG stream a run draws from; a checkpoint holds those drawn so far.
_RNG_STREAMS = frozenset(
    [f"{use}:{role.name}" for use in ("init", "policy", "ppo") for role in AgentRole]
    + ["init:dqn", "replay", "dqn", "env"]
)

# Version 2 of the event log writes one ``slot`` event per generation slot
# in place of the per-action, per-test, per-feedback and reward events.
EVENT_SCHEMA_VERSION = 2


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

    def validate(self) -> "RewardConfig":
        self.weights.validate()
        self.severity.validate()
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
    max_records: int = 600

    def validate(self) -> "KBConfig":
        if self.d_emb < EMBED_DIM_MIN:
            raise ValueError(f"d_emb must be >= {EMBED_DIM_MIN}, got {self.d_emb}")
        self.initial_params.validate()
        if not 0.0 < self.edge_learning_rate <= 1.0:
            raise ValueError(f"edge_learning_rate {self.edge_learning_rate} outside (0, 1]")
        if self.max_records < 1:
            raise ValueError("max_records must be >= 1")
        return self


@dataclass(frozen=True)
class LoopConfig(ConfigCodec):
    """Per-slot loop shape: how many tests per action, update cadences.
    ``tracker_window`` is the length of the run's one reward and feedback
    history, which the agents, the adaptation reward and the knowledge
    controller all read; the controller's reward compares the last two KB
    intervals, so it must hold two."""

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
        if 2 * self.kb_action_interval > self.tracker_window:
            raise ValueError(
                f"2 * kb_action_interval ({2 * self.kb_action_interval}) exceeds tracker_window {self.tracker_window}"
            )
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
        """Check every range; ``ConfigError`` names the failing key or section."""
        for name, low in (("seed", 0), ("episode_count", 1), ("tests_per_episode", 1)):
            if getattr(self, name) < low:
                raise ConfigError(name, f"must be >= {low}, got {getattr(self, name)}")
        for name in ("ppo", "dqn", "rl", "rewards", "env", "execution", "kb", "loop"):
            kwargs = {"allow_out_of_range": self.allow_out_of_range} if name == "ppo" else {}
            try:
                getattr(self, name).validate(**kwargs)
            except ValueError as exc:
                raise ConfigError(name, str(exc)) from exc
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

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in METRICS_CSV_COLUMNS}


METRICS_CSV_COLUMNS = tuple(f.name for f in fields(EpisodeMetrics))


def _csv_cell(value) -> str:
    """A float as its repr, None as an empty cell, anything else as str."""
    if value is None:
        return ""
    return repr(float(value)) if isinstance(value, float) else str(value)


def _csv_text(columns: Sequence[str], rows: Iterable[dict]) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(_csv_cell(row[c]) for c in columns) for row in rows)
    return "\n".join(lines) + "\n"


def metrics_csv_text(metrics: Sequence[EpisodeMetrics]) -> str:
    return _csv_text(METRICS_CSV_COLUMNS, (m.to_dict() for m in metrics))


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


class EventSink(Protocol):
    def append(self, event: dict) -> None: ...


def read_event(event) -> dict:
    """``event``, parsed from a line of an event log, once its ``type`` is a
    kind the run writes of ``event_schema`` 2, its keys are that kind's and
    each field the fold reads has the JSON kind the run writes: a count is a
    non-negative integer (``n_requirements`` at least 1), a number finite
    (a DQN ``loss`` and ``mean_q`` may be null), a record or breakdown one
    its ``from_dict`` reads and ``metrics`` has the ``metrics.csv`` columns,
    whose values the fold compares. Each rejection names the event type and
    the field. A number given as an integer comes back as a float."""
    if not isinstance(event, dict):
        raise InputError(f"event must be an object, got {type(event).__name__}")
    kind = event.get("type")
    if not (isinstance(kind, str) and kind in _EVENT_FIELDS):
        raise InputError(f"event.type must be one of {sorted(_EVENT_FIELDS)}, got {kind!r}")
    if kind == "run_start" and event.get("event_schema") != EVENT_SCHEMA_VERSION:
        raise InputError(f"unsupported event_schema {event.get('event_schema')!r}, expected {EVENT_SCHEMA_VERSION}")
    check_keys(kind, event, frozenset({"type", *_EVENT_FIELDS[kind]}))
    read = dict(event)
    for name, json_kind in _EVENT_FIELDS[kind].items():
        if json_kind is int:
            load_count(event[name], f"{kind} {name}")
        elif json_kind is not None and not (event[name] is None and name in ("loss", "mean_q")):
            read[name] = read_json(event[name], json_kind, kind, name)
    if kind == "run_start" and event["n_requirements"] < 1:
        raise InputError("run_start n_requirements is 0, expected at least 1")
    elif kind == "episode_start":
        for i, rid in enumerate(event["planned_requirements"]):
            read_json(rid, str, "episode_start planned_requirements", i)
    elif kind == "slot":
        for record in event["records"]:
            FeedbackRecord.from_dict(record)
        RewardBreakdown.from_dict(event["reward"])
    elif kind == "episode_end":
        check_keys("episode_end metrics", event["metrics"], frozenset(METRICS_CSV_COLUMNS))
    return read


class RunTables:
    """The run's tables, the one fold of its events, and the only writer of
    ``metrics.csv``, ``ppo_updates.csv`` and ``dqn_steps.csv``.

    ``metrics`` holds a row per episode, computed from ``run_start``'s
    requirement count, ``episode_start``'s plan and the records and rewards
    of the episode's ``slot`` events. An ``episode_end`` whose ``episode``
    or any ``metrics`` value differs from that row is rejected, naming the
    field and both values, as is an episode event outside the open episode.
    ``ppo_updates`` and ``dqn_steps`` hold the rows of the ``ppo_update``
    and ``kb_action`` events. The fold trusts the kinds of the fields it
    reads: an event from outside passes ``read_event`` first.
    """

    def __init__(self):
        self.metrics: list[EpisodeMetrics] = []
        self.ppo_updates: list[dict] = []
        self.dqn_steps: list[dict] = []
        self._n_requirements = 0
        # The open episode's ``episode_start`` event, None between episodes,
        # and its ``slot`` events.
        self._start: dict | None = None
        self._slots: list[dict] = []

    def append(self, event: dict) -> None:
        kind = event["type"]
        if kind == "run_start":
            self._n_requirements = event["n_requirements"]
        elif kind == "episode_start":
            if not self._n_requirements or self._start is not None:
                raise InputError(f"episode_start {event['episode']} before run_start or inside an open episode")
            self._start, self._slots = event, []
        elif kind == "ppo_update":
            self.ppo_updates.append({name: event[name] for name in PPO_CSV_COLUMNS})
        elif kind == "kb_action":
            self.dqn_steps.append({name: event[name] for name in DQN_CSV_COLUMNS})
        elif self._start is None:
            raise InputError(f"{kind} of episode {event['episode']!r} outside an open episode")
        elif event["episode"] != self._start["episode"]:
            raise InputError(f"{kind} episode is {event['episode']!r}, the open episode is {self._start['episode']}")
        elif kind == "slot":
            self._slots.append(event)
        else:
            row = self.episode_row()
            for name, value in row.to_dict().items():
                logged = event["metrics"][name]
                if logged != value:
                    raise InputError(f"episode_end metrics.{name} is {logged!r}, its events give {value!r}")
            self.metrics.append(row)
            self._start = None

    def episode_row(self) -> EpisodeMetrics:
        """The metrics row of the open episode's events so far."""
        start, slots = self._start, self._slots
        records = [record for slot in slots for record in slot["records"]]
        defects = [defect for record in records for defect in record.get("defects", ())]
        n, reachable = len(records), start["reachable_defects"]
        detected = {defect.get("defect_ref") for defect in defects if not defect["is_false_positive"]}
        false_positives = sum(1 for defect in defects if defect["is_false_positive"])
        means = [
            sum(slot["reward"][name] for slot in slots) / len(slots) if slots else 0.0
            for name in ("effectiveness", "coverage", "efficiency", "compliance", "adaptation", "total")
        ]
        return EpisodeMetrics(
            start["episode"],
            sum(1 for record in records if record["quality_rating"] >= 0.5) / n if n else 0.0,
            min(1.0, len(detected) / reachable) if reachable else 0.0,
            min(1.0, false_positives / n) if n else 0.0,
            len(set(start["planned_requirements"])) / self._n_requirements,
            *means,
        )

    def write(self, out_dir) -> dict[str, str]:
        """Write the three CSVs and return the mapping of table name to path;
        a run with no episodes is refused with ``ValueError``."""
        if not self.metrics:
            raise ValueError("refusing to export a run with no episodes")
        texts = {
            "metrics": metrics_csv_text(self.metrics),
            "ppo_updates": _csv_text(PPO_CSV_COLUMNS, self.ppo_updates),
            "dqn_steps": _csv_text(DQN_CSV_COLUMNS, self.dqn_steps),
        }
        paths = {name: os.path.join(out_dir, f"{name}.csv") for name in texts}
        os.makedirs(out_dir, exist_ok=True)
        for name, text in texts.items():
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        return paths


class TrainingSystem:
    """Owns every mutable piece of one run; single-threaded by construction.
    Each event goes to ``tables``, then to ``events``: a new list by default,
    or an ``EventLog``. A restored system's tables hold only what it ran
    after the restore."""

    def __init__(self, config: RunConfig, events: EventSink | None = None):
        self.config = config.validate()
        # Argmax actions in place of sampled ones; ``qeloop evaluate`` sets it.
        self.deterministic_policy = False
        self.streams = RngStreams(config.seed)
        self.project: SyntheticProject = generate_project(config.env, config.seed)

        self.kb = KnowledgeStore(config.kb.d_emb, config.kb.initial_params)
        self.content_vectors: dict[str, np.ndarray] = {}
        for req in self.project.requirements:
            self.kb.insert_vector(req.id, requirement_query(req, config.kb.d_emb), req.id)
            self.kb.add_node(req.id)
        for src, dst, et in self.project.requirement_links:
            self.kb.upsert_edge(src, dst, et, 0.5)

        ppo = config.ppo
        self.agents = {
            role: Agent(role, self.streams.get(f"init:{role.name}"), ppo.learning_rate, ppo.rollout_length)
            for role in AgentRole
        }
        self.trackers = {key: PerformanceTracker(config.loop.tracker_window) for key in TRACKER_KEYS}

        self.dqn = DQNController(
            config.dqn,
            config.rl.discount_factor,
            self.streams.get("init:dqn"),
            self.streams.get("replay"),
            self.streams.get("dqn"),
            state_dim=KB_STATE_DIM,
        )

        self.hit_window: deque[float] = deque(maxlen=config.loop.tracker_window)
        self.kb_pending: tuple[np.ndarray, int] | None = None
        self.episode_index = 0
        self.tables = RunTables()
        self.events: EventSink = [] if events is None else events
        self._ppo_update_count = 0
        self._emit(
            {
                "type": "run_start",
                "event_schema": EVENT_SCHEMA_VERSION,
                "n_requirements": len(self.project.requirements),
                "n_defects": len(self.project.defects),
                "seed": config.seed,
            }
        )

    def _emit(self, event: dict) -> None:
        self.tables.append(event)
        self.events.append(event)

    # Views of the tables under the names the benchmark reads.
    @property
    def metrics_history(self) -> list[EpisodeMetrics]:
        return self.tables.metrics

    @property
    def ppo_rows(self) -> list[dict]:
        return self.tables.ppo_updates

    # -- featurization ---------------------------------------------------

    def _featurize(self, key: str, requirement: Requirement) -> np.ndarray:
        return featurize_state(
            requirement_summary(requirement),
            self.trackers[key],
            self.kb.params,
            self.kb.mean_edge_weight(),
        )

    def _kb_state(self) -> np.ndarray:
        params = self.kb.params
        history = self.trackers["modifiers"]
        mean_reward = sum(history.totals) / len(history.totals) if history.totals else 0.0
        # A simulated record holds at most one false positive, so the
        # tracker's FP rate is the share of records that carry one.
        fp_rate = history.aggregates()[1]
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

    def _run_ppo_update(self, role: AgentRole, bootstrap: np.ndarray) -> None:
        """Update ``role`` on its full rollout, bootstrapping from its state
        ``bootstrap`` after the last step."""
        agent = self.agents[role]
        rollout = agent.rollout
        rollout.states[-1] = bootstrap
        _, values = policy_value_forward(agent.params, rollout.states)
        processed = compute_gae(rollout, values, self.config.rl.discount_factor, self.config.rl.gae_lambda)
        report = ppo_update(
            agent.params, agent.adam, processed, self.config.ppo, self.streams.get(f"ppo:{role.name}")
        )
        agent.rollout_steps = 0
        self._emit({"type": "ppo_update", "update_index": self._ppo_update_count, "role": role.name, **report})
        self._ppo_update_count += 1

    def _run_kb_action(self) -> None:
        state = self._kb_state()
        if self.kb_pending is not None:
            prev_state, prev_action = self.kb_pending
            # The slots since the pending action are the history's last
            # interval, and those before it, up to the action before, the
            # interval before that; the window holds both.
            interval = self.config.loop.kb_action_interval
            totals = list(self.trackers["modifiers"].totals)
            # Reward the *change* in mean reward around the action: the raw
            # level trends upward with policy learning regardless of the KB
            # action, which would credit whatever drift happened to co-occur.
            # The run's first transition has no action before its own.
            if self.dqn.action_steps == 1:
                reward = 0.0
            else:
                reward = sum(totals[-interval:]) / interval - sum(totals[-2 * interval : -interval]) / interval
            self.dqn.record(Transition(prev_state, prev_action, reward, state, False))
        step = self.dqn.action_steps
        epsilon = self.dqn.epsilon
        action = self.dqn.select_action(state)
        self.kb.params = apply_kb_action(action, self.kb.params)
        self.kb_pending = (state, int(action))
        loss = mean_q = None
        if self.dqn.can_train():
            for _ in range(self.config.dqn.train_steps_per_action):
                loss, mean_q = self.dqn.train_step()
        row = {"step": step, "epsilon": epsilon, "loss": loss, "mean_q": mean_q, "chosen_action": KBAction(action).name}
        self._emit({"type": "kb_action", "params": self.kb.params.to_dict(), **row})

    def _evolve_knowledge(
        self,
        requirement: Requirement,
        tests: Sequence[TestCase],
        records: Sequence[FeedbackRecord],
        context_ids: Sequence[str],
    ) -> None:
        """``records[i]`` is the feedback on ``tests[i]``, the slot's tests."""
        eta = self.config.kb.edge_learning_rate
        context = set(context_ids) | {requirement.id}
        for fb in records:
            self.kb.reinforce_edges(fb, context, eta)
        # Every executed test enters the vector store; only defect-verified
        # tests earn graph edges, so edge-type weighting separates verified
        # knowledge from the merely similar. A test id hashes the test's
        # content, so a stored test with that id describes this test; the
        # stored tests are the keys of ``content_vectors``.
        for test, fb in zip(tests, records):
            if self.kb.vector_count >= self.config.kb.max_records:
                break
            if test.id not in self.content_vectors:
                embedding = generated_test_embedding(
                    requirement, test.strategy, test.retrieval_mode, self.config.kb.d_emb
                )
                self.kb.insert_vector(test.id, embedding, test.id)
                self.content_vectors[test.id] = np.asarray(test.coverage_vector, dtype=np.float64)
            if fb.true_defects():
                self.kb.upsert_edge(test.id, requirement.id, EdgeType.Covers, 0.5)
                for report in fb.true_defects():
                    self.kb.upsert_edge(report.defect_ref, test.id, EdgeType.DetectedBy, 0.5)

    # -- episode loop ------------------------------------------------------

    def run_episode(self) -> EpisodeMetrics:
        config = self.config
        flags = config.ablation
        episode = self.episode_index
        # Every episode runs the same number of slots, so the episode index
        # counts the slots run before this one.
        first_slot = episode * config.tests_per_episode
        requirements = self.project.requirements
        planned = [requirements[(first_slot + s) % len(requirements)] for s in range(config.tests_per_episode)]
        planned_ids = [requirement.id for requirement in planned]
        defects_by_req = self.project.defects_by_requirement()
        reachable = sum(len(defects_by_req[rid]) for rid in set(planned_ids))
        self._emit(
            {
                "type": "episode_start",
                "episode": episode,
                "planned_requirements": planned_ids,
                "reachable_defects": reachable,
            }
        )
        interval = config.loop.integration_slot_interval
        for slot, requirement in enumerate(planned):
            gen_role = (
                AgentRole.IntegrationPoint
                if slot % interval == interval - 1
                else AgentRole.TestCaseGeneration
            )
            # The modifiers act first and the generator last, so ``action``
            # is the generator's once the loop ends.
            slot_roles = (*MODIFIER_ROLES, gen_role)
            slot_trackers = ("modifiers", gen_role.name)
            states = {key: self._featurize(key, requirement) for key in slot_trackers}
            modifier_delta = np.zeros(config.env.d_cov, dtype=np.float64)
            actions: list[dict] = []
            for role in slot_roles:
                state = states[gen_role.name if role is gen_role else "modifiers"]
                action, log_prob = self.agents[role].act(
                    state, self.streams.get(f"policy:{role.name}"), self.deterministic_policy
                )
                actions.append({"role": role.name, "action_index": action.index, "log_prob": log_prob})
                if role is not gen_role:
                    modifier_delta += modifier_vector(role, action.index, config.env.d_cov)
            modifier_delta *= config.loop.modifier_scale

            tests, context_ids = generate_test_cases(
                action, requirement, self.kb, self.content_vectors, modifier_delta, config.loop.n_tests
            )
            self.hit_window.append(1.0 if context_ids else 0.0)

            slot_records: list[FeedbackRecord] = []
            test_ids = [test.id for test in tests]
            for test in tests:
                feedback = execute_test(test, self.project, config.execution, self.streams.get("env"))
                validate_feedback(feedback, test_ids)
                slot_records.append(feedback)

            weights = (
                RewardWeights.effectiveness_only() if flags.scalar_reward else config.rewards.weights
            )
            # The adaptation term reads the totals before this slot's.
            breakdown = batch_reward(
                slot_records, config.rewards.severity, weights, self.trackers["modifiers"].totals
            )
            # A slot's tests differ only by id, so the event carries their
            # shared fields once.
            shared = tests[0].to_dict()
            del shared["id"]
            self._emit(
                {
                    "type": "slot",
                    "episode": episode,
                    "slot": slot,
                    "actions": actions,
                    "test": shared,
                    "test_ids": test_ids,
                    "records": [record.to_dict() for record in slot_records],
                    "reward": breakdown.to_dict(),
                }
            )

            for key in slot_trackers:
                tracker = self.trackers[key]
                for record in slot_records:
                    tracker.push_record(record)
                tracker.push_reward(breakdown.total)
            # The modifiers fill their rollouts in the same slot, and share
            # the bootstrap state of their tracker.
            bootstrap = cache(lambda key: self._featurize(key, requirement))
            for role in slot_roles:
                agent = self.agents[role]
                record_feedback(agent, breakdown.total)
                if flags.disable_ppo:
                    agent.rollout_steps = 0
                elif agent.rollout_steps == config.ppo.rollout_length:
                    self._run_ppo_update(role, bootstrap(gen_role.name if role is gen_role else "modifiers"))

            if not flags.no_feedback:
                self._evolve_knowledge(requirement, tests, slot_records, context_ids)

            if not flags.disable_dqn and (first_slot + slot + 1) % config.loop.kb_action_interval == 0:
                self._run_kb_action()

        self._emit({"type": "episode_end", "episode": episode, "metrics": self.tables.episode_row().to_dict()})
        self.episode_index += 1
        return self.tables.metrics[-1]

    def run(self, episodes: int | None = None) -> list[EpisodeMetrics]:
        """Run ``episodes`` more episodes (default: the config's count) and
        return the metrics of every episode since construction or restore."""
        remaining = self.config.episode_count if episodes is None else episodes
        for _ in range(remaining):
            self.run_episode()
        return self.tables.metrics

    # -- checkpointing -----------------------------------------------------

    def checkpoint_dict(self) -> dict:
        """The checkpoint document; its ``kb`` lists may be shared and are
        read-only."""
        return {
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "episode_index": self.episode_index,
            "agents": {role.name: agent.state_dict() for role, agent in self.agents.items()},
            "trackers": {key: tracker.state_dict() for key, tracker in self.trackers.items()},
            "dqn": self.dqn.state_dict(),
            "kb": self.kb.snapshot_dict(),
            "content_vectors": {key: vec.tolist() for key, vec in self.content_vectors.items()},
            "hit_window": list(self.hit_window),
            "kb_pending": (
                None
                if self.kb_pending is None
                else {
                    "state": [float(x) for x in self.kb_pending[0]],
                    "action": self.kb_pending[1],
                }
            ),
            "ppo_update_count": self._ppo_update_count,
            "rng_states": self.streams.state_dict(),
        }

    def checkpoint(self, path) -> None:
        """Write the checkpoint JSON; the previous file survives a failed write."""
        with atomic_open(path) as fh:
            fh.write(json.dumps(self.checkpoint_dict(), sort_keys=True))

    @classmethod
    def restore(cls, path) -> "TrainingSystem":
        """Build the system the checkpointed config describes and load the
        checkpoint's state into it in place. Corrupt files never yield a
        partial system; each is an ``InputError``. A missing or unknown key,
        an unknown, mistyped or out-of-range config value, a network or
        optimizer state of another topology, a vector, column or window of
        another width or length, a stored number that is not a finite number
        or that the cast to its type would change, a float64 buffer or column
        that is not strict base64 text of its byte count, a stored action
        outside its action space, a negative counter, a tracker record that
        is not three non-negative integers and a number, an RNG state value
        ``RngStreams.state_dict`` cannot write, a ``kb`` section
        ``KnowledgeStore.from_snapshot_dict`` rejects, a ``kb.d_emb`` other
        than the config's and ``content_vectors`` keys other than the stored
        tests' ids are named with their dotted path, and a file that is not
        UTF-8 JSON text with ``path``. Any other exception is a fault, not
        bad input. The restored system's events go to a new list."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = parse_json(fh.read())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InputError(f"checkpoint {path} is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
            raise InputError(
                f"unsupported checkpoint schema_version {payload.get('schema_version')!r}"
                if isinstance(payload, dict)
                else "checkpoint payload is not an object"
            )
        check_keys("checkpoint", payload, _CHECKPOINT_KEYS)
        check_keys("checkpoint agents", payload["agents"], frozenset(AgentRole.__members__))
        check_keys("checkpoint trackers", payload["trackers"], frozenset(TRACKER_KEYS))
        if payload["kb_pending"] is not None:
            check_keys("checkpoint kb_pending", payload["kb_pending"], _KB_PENDING_KEYS)
        check_keys("checkpoint rng_states", payload["rng_states"], frozenset(), _RNG_STREAMS)
        try:
            config = RunConfig.from_dict(payload["config"]).validate()
        except ConfigError as exc:
            key = ".".join(filter(None, ("checkpoint config", exc.key)))
            raise InputError(f"{key}: {exc.problem}") from exc
        system = cls(config)
        system.kb = KnowledgeStore.from_snapshot_dict(payload["kb"], "checkpoint kb")
        if system.kb.d_emb != config.kb.d_emb:
            raise InputError(f"checkpoint kb.d_emb is {system.kb.d_emb}, the config's kb.d_emb is {config.kb.d_emb}")
        # The stored tests, the store's records that are not requirements,
        # are the keys of ``content_vectors``.
        requirement_ids = {req.id for req in system.project.requirements}
        test_ids = frozenset(rec["id"] for rec in payload["kb"]["vector_records"]) - requirement_ids
        check_keys("checkpoint content_vectors", payload["content_vectors"], test_ids)
        system.content_vectors = {
            key: load_vector(vec, config.env.d_cov, f"checkpoint content_vectors.{key}")
            for key, vec in payload["content_vectors"].items()
        }
        for role, agent in system.agents.items():
            agent.load_state_dict(payload["agents"][role.name], f"checkpoint agents.{role.name}")
        for key, tracker in system.trackers.items():
            tracker.load_state_dict(payload["trackers"][key], f"checkpoint trackers.{key}")
        system.dqn.load_state_dict(payload["dqn"], "checkpoint dqn")
        system.hit_window.extend(
            load_window(payload["hit_window"], config.loop.tracker_window, "checkpoint hit_window")
        )
        pending = payload["kb_pending"]
        if pending is not None:
            system.kb_pending = (
                load_vector(pending["state"], KB_STATE_DIM, "checkpoint kb_pending.state"),
                load_below(pending["action"], KB_ACTION_COUNT, "checkpoint kb_pending.action"),
            )
        system.episode_index = load_count(payload["episode_index"], "checkpoint episode_index")
        system._ppo_update_count = load_count(payload["ppo_update_count"], "checkpoint ppo_update_count")
        system.streams.load_state_dict(payload["rng_states"], "checkpoint rng_states")
        return system


# -- run-level helpers ------------------------------------------------------


def run_training(config: RunConfig) -> TrainingSystem:
    system = TrainingSystem(config)
    system.run()
    return system


class EventLog:
    """Writes each appended event as a sorted-key JSON line of ``events.jsonl``
    and each record of a ``slot`` event as a sorted-key JSON line of
    ``feedback.jsonl``. Its files close on any exit from its ``with`` block,
    so a failed run leaves every event of the slots completed before the
    failure."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.paths = {name: os.path.join(out_dir, f"{name}.jsonl") for name in ("events", "feedback")}

    def __enter__(self) -> "EventLog":
        os.makedirs(self.out_dir, exist_ok=True)
        with ExitStack() as stack:
            self._events = stack.enter_context(open(self.paths["events"], "w", encoding="utf-8"))
            self._feedback = stack.enter_context(open(self.paths["feedback"], "w", encoding="utf-8"))
            self._files = stack.pop_all()
        return self

    def append(self, event: dict) -> None:
        if event.get("type") != "slot":
            self._events.write(json.dumps(event, sort_keys=True) + "\n")
            return
        records = [json.dumps(record, sort_keys=True) for record in event["records"]]
        # The slot line is json.dumps(event, sort_keys=True) with each record's
        # text spliced in: the keys sorted before "records", then the records,
        # then the keys sorted after it.
        before = json.dumps({k: v for k, v in event.items() if k < "records"}, sort_keys=True)
        after = json.dumps({k: v for k, v in event.items() if k > "records"}, sort_keys=True)
        members = (before[1:-1], f'"records": [{", ".join(records)}]', after[1:-1])
        self._events.write("{" + ", ".join(filter(None, members)) + "}\n")
        self._feedback.writelines(text + "\n" for text in records)

    def __exit__(self, *exc_info) -> None:
        self._files.close()


def derive_metrics_from_events(events: Iterable[dict]) -> list[EpisodeMetrics]:
    """The metrics rows ``RunTables`` folds from ``events``, each read with ``read_event``."""
    tables = RunTables()
    for event in events:
        tables.append(read_event(event))
    return tables.metrics


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
            metrics = run_training(config).tables.metrics
            detections.append(final_window_mean(metrics, "defect_detection_rate", window))
            totals.append(final_window_mean(metrics, "r_total", window))
        det_mean, det_std = _mean_std(detections)
        rew_mean, rew_std = _mean_std(totals)
        rows.append(AblationRow(variant, det_mean, det_std, rew_mean, rew_std, detections, totals))
    return AblationResult(rows, n_seeds, window)
