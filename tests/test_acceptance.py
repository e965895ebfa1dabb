"""Acceptance suite: one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report lines as they complete. Training runs are shared across criteria
through a session cache, so the whole suite stays in the minutes range.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from qeloop.dqn import DQNConfig, DQNController, KB_STATE_DIM, epsilon_at
from qeloop.domain import DefectReport, FeedbackRecord, Severity
from qeloop.knowledge import (
    EdgeType,
    KBAction,
    KnowledgeStore,
    RetrievalParams,
    apply_kb_action,
)
from qeloop.ppo import clipped_surrogate
from qeloop.rewards import (
    RewardWeights,
    SeverityWeights,
    adaptation_reward,
    combine,
    compliance_reward,
    coverage_reward,
    effectiveness_reward,
    efficiency_reward,
)
from qeloop.rl_core import Transition, forward, gradient_check
from qeloop.trainer import (
    AblationFlags,
    RunConfig,
    TrainingSystem,
    final_window_mean,
    metrics_csv_text,
    run_training,
)

SEEDS = (0, 1, 2, 3, 4)
WINDOW = 30
RUNTIME_LIMIT_PER_RUN = 300.0

VARIANT_FLAGS = {
    "full": AblationFlags(),
    "frozen": AblationFlags(disable_ppo=True, disable_dqn=True, no_feedback=True),
    "disable_ppo": AblationFlags(disable_ppo=True),
    "disable_dqn": AblationFlags(disable_dqn=True),
    "scalar_reward": AblationFlags(scalar_reward=True),
    "no_feedback": AblationFlags(no_feedback=True),
}

_RUN_CACHE: dict = {}


def get_run(variant: str, seed: int):
    """Train (or fetch) one 300-episode run; returns (metrics, wall seconds)."""
    key = (variant, seed)
    if key not in _RUN_CACHE:
        config = replace(RunConfig(), seed=seed, ablation=VARIANT_FLAGS[variant])
        start = time.perf_counter()
        metrics = run_training(config).tables.metrics
        _RUN_CACHE[key] = (metrics, time.perf_counter() - start)
    return _RUN_CACHE[key]


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:02d} {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


# -- 01: gradient correctness -------------------------------------------------


def test_criterion_01_gradient_correctness():
    start = time.perf_counter()
    worst = gradient_check(n_seeds=10)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 30.0
    report(1, "gradient-correctness", ok, f"(max rel err {worst:.2e}, {elapsed:.1f}s)")


# -- 02: DQN oracle equivalence on the chain MDP -------------------------------

CHAIN_STATES = 5
CHAIN_GAMMA = 0.9
CHAIN_STEP_COST = -0.05


def chain_transitions():
    out = []
    for s in range(CHAIN_STATES - 1):
        goal = s + 1 == CHAIN_STATES - 1
        out.append((s, 1, 1.0 if goal else CHAIN_STEP_COST, s + 1, goal))
        out.append((s, 0, CHAIN_STEP_COST, max(s - 1, 0), False))
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


def one_hot(i, n):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def test_criterion_02_dqn_oracle_equivalence():
    start = time.perf_counter()
    q_star = chain_value_iteration()
    config = DQNConfig(
        replay_capacity=1024,
        batch_size=64,
        target_sync_interval=250,
        epsilon_decay_steps=100,
        learning_rate=1e-3,
    )
    rng = np.random.default_rng
    ctrl = DQNController(
        config, CHAIN_GAMMA, rng(0), rng(1), rng(2), state_dim=CHAIN_STATES, n_actions=2
    )
    for _ in range(40):
        for s, a, r, ns, done in chain_transitions():
            ctrl.record(Transition(one_hot(s, CHAIN_STATES), a, r, one_hot(ns, CHAIN_STATES), done))
    train_steps = 6000
    assert train_steps <= 50_000
    for _ in range(train_steps):
        ctrl.train_step()
    learned = np.vstack([forward(ctrl.qnet, one_hot(s, CHAIN_STATES)) for s in range(CHAIN_STATES - 1)])
    rel = float((np.abs(learned - q_star[:-1]) / np.abs(q_star[:-1])).max())
    elapsed = time.perf_counter() - start
    ok = rel < 0.05 and elapsed < 60.0
    report(2, "dqn-oracle-equivalence", ok, f"(max rel err {rel:.4f} after {train_steps} steps, {elapsed:.1f}s)")


# -- 03: learnability vs the frozen baseline ----------------------------------


@pytest.mark.slow
def test_criterion_03_ppo_learnability():
    ratios = []
    worst_runtime = 0.0
    for seed in SEEDS:
        full_metrics, full_time = get_run("full", seed)
        frozen_metrics, frozen_time = get_run("frozen", seed)
        worst_runtime = max(worst_runtime, full_time, frozen_time)
        full_reward = final_window_mean(full_metrics, "r_total", WINDOW)
        frozen_reward = final_window_mean(frozen_metrics, "r_total", WINDOW)
        ratios.append(full_reward / frozen_reward)
    ok = all(r >= 1.5 for r in ratios) and worst_runtime < RUNTIME_LIMIT_PER_RUN
    detail = "(ratios " + ", ".join(f"{r:.2f}" for r in ratios) + f"; max run {worst_runtime:.0f}s)"
    report(3, "ppo-learnability", ok, detail)


# -- 04: epsilon schedule endpoints -------------------------------------------


def test_criterion_04_epsilon_endpoints():
    config = DQNConfig()
    ok = epsilon_at(0, config) == 0.9 and epsilon_at(100_000, config) == 0.05
    report(4, "epsilon-endpoints", ok, f"(eps(0)={epsilon_at(0, config)}, eps(1e5)={epsilon_at(100_000, config)})")


# -- 05: reward formula fidelity ----------------------------------------------


def _feedback(defects=(), req_cov=0.5, func_cov=0.5, execution=1.0, baseline=1.0, wif=1.0, compliance=0.5):
    return FeedbackRecord("tc", tuple(defects), execution, baseline, 1.0, req_cov, func_cov, wif, compliance)


def test_criterion_05_reward_formula_fidelity():
    sw = SeverityWeights()
    tol = 1e-9
    checks = []

    batch = [_feedback() for _ in range(10)]
    for i in range(3):
        batch[i] = _feedback(defects=[DefectReport(f"r{i}", "tc", Severity.Medium, False, f"d{i}")])
    checks.append(abs(effectiveness_reward(batch, sw) - 0.6) < tol)

    batch = [_feedback() for _ in range(10)]
    for i in range(2):
        batch[i] = _feedback(defects=[DefectReport(f"f{i}", "tc", Severity.Low, True, None)])
    checks.append(abs(effectiveness_reward(batch, sw) - (-0.1)) < tol)

    cov = coverage_reward([_feedback(req_cov=0.5, func_cov=0.5), _feedback(req_cov=1.0, func_cov=0.0)])
    checks.append(abs(cov - 1.0) < tol)

    checks.append(abs(efficiency_reward([_feedback(execution=5.0, baseline=10.0)]) - 2.0) < tol)
    checks.append(abs(efficiency_reward([_feedback(execution=1.0, baseline=100.0, wif=2.0)]) - 4.0) < tol)
    checks.append(abs(compliance_reward([_feedback(compliance=0.4), _feedback(compliance=0.6)]) - 0.5) < tol)
    checks.append(abs(adaptation_reward([0.0, 1.0, 2.0, 3.0]) - math.tanh(1.0)) < tol)

    total = combine(1.0, 2.0, 1.0, 1.0, 0.0, RewardWeights(0.2, 0.2, 0.2, 0.2, 0.2)).total
    checks.append(abs(total - 1.0) < tol)

    report(5, "reward-formula-fidelity", all(checks), f"({sum(checks)}/{len(checks)} hand values exact)")


# -- 06: clipped-surrogate spot values ----------------------------------------


def test_criterion_06_clip_spot_values():
    ok = (
        clipped_surrogate(1.0, 0.7, 0.2) == 0.7
        and clipped_surrogate(1.0, -2.3, 0.05) == -2.3
        and clipped_surrogate(1.5, 1.0, 0.2) == 1.2
        and clipped_surrogate(0.5, -1.0, 0.2) == -0.8
    )
    report(6, "clip-spot-values", ok)


# -- 07: ablation direction ----------------------------------------------------


@pytest.mark.slow
def test_criterion_07_ablation_direction():
    def mean_detection(variant):
        values = [final_window_mean(get_run(variant, s)[0], "defect_detection_rate", WINDOW) for s in SEEDS]
        return sum(values) / len(values)

    full = mean_detection("full")
    ablated = {v: mean_detection(v) for v in ("disable_ppo", "disable_dqn", "scalar_reward", "no_feedback")}
    ok = all(full >= value for value in ablated.values())
    detail = f"(full {full:.3f} vs " + ", ".join(f"{k} {v:.3f}" for k, v in ablated.items()) + ")"
    report(7, "ablation-direction", ok, detail)


# -- 08: knowledge-store threshold adaptation ----------------------------------

TASK_D_EMB = 8
TASK_OPTIMUM = 0.655  # midpoint of the planted similarity gap (0.64, 0.67)
TASK_ACTIONS = (KBAction.RaiseThreshold, KBAction.LowerThreshold, KBAction.NoOp)


def build_task_store() -> KnowledgeStore:
    """Planted separation: useful records above the gap, distractors below."""
    store = KnowledgeStore(
        d_emb=TASK_D_EMB,
        params=RetrievalParams(similarity_threshold=0.5, top_k=64, traversal_depth=0),
    )
    useful = list(np.linspace(0.67, 0.74, 15)) + list(np.linspace(0.75, 0.90, 15))
    noise = list(np.linspace(0.20, 0.55, 15)) + list(np.linspace(0.56, 0.64, 15))
    for tag, sims in (("useful", useful), ("noise", noise)):
        for i, sim in enumerate(sims):
            vec = np.zeros(TASK_D_EMB)
            vec[0] = sim
            vec[1 + (i % (TASK_D_EMB - 1))] = math.sqrt(1.0 - sim * sim)
            store.insert_vector(f"{tag}-{i:02d}", vec, tag)
    return store


def task_query() -> np.ndarray:
    q = np.zeros(TASK_D_EMB)
    q[0] = 1.0
    return q


def task_reward(store: KnowledgeStore, params: RetrievalParams) -> float:
    got = store.vector_query(task_query(), params)
    useful = sum(1 for rid, _ in got if rid.startswith("useful"))
    return (useful - (len(got) - useful)) / 30.0


def task_state(params: RetrievalParams, level: float) -> np.ndarray:
    w = params.edge_type_weights
    return np.asarray(
        [
            params.similarity_threshold,
            params.top_k / 64.0,
            params.traversal_depth / 4.0,
            w[EdgeType.Covers],
            w[EdgeType.Impacts],
            w[EdgeType.DependsOn],
            w[EdgeType.DetectedBy],
            0.5 * (1.0 + math.tanh(level)),
            0.0,
            1.0,
        ]
    )


def drive_threshold_task(seed: int, total_actions: int = 200) -> float:
    """A DQN controller tunes the threshold from retrieval-quality rewards.

    The controller is rewarded with the change in retrieval quality, starts
    with one deterministic up/down sweep for coverage, and then runs
    epsilon-greedy to fully greedy.
    """
    store = build_task_store()
    config = DQNConfig(
        replay_capacity=512,
        batch_size=32,
        target_sync_interval=1000,
        epsilon_start=0.5,
        epsilon_end=0.0,
        epsilon_decay_steps=60,
        learning_rate=2e-3,
        train_steps_per_action=16,
    )
    rng = np.random.default_rng
    ctrl = DQNController(
        config, 0.0, rng(seed), rng(seed + 1000), rng(seed + 2000),
        state_dim=KB_STATE_DIM, n_actions=len(TASK_ACTIONS),
    )
    params = store.params
    level = task_reward(store, params)
    state = task_state(params, level)
    warmup = [0] * 20 + [1] * 20
    for step in range(total_actions):
        index = warmup[step] if step < len(warmup) else int(ctrl.select_action(state))
        params = apply_kb_action(TASK_ACTIONS[index], params)
        new_level = task_reward(store, params)
        next_state = task_state(params, new_level)
        ctrl.record(Transition(state, index, new_level - level, next_state, False))
        if ctrl.can_train():
            for _ in range(config.train_steps_per_action):
                ctrl.train_step()
        state, level = next_state, new_level
    return params.similarity_threshold


@pytest.mark.slow
def test_criterion_08_kb_threshold_adaptation():
    finals = [drive_threshold_task(seed) for seed in (0, 1, 2)]
    errors = [abs(t - TASK_OPTIMUM) for t in finals]
    ok = all(err <= 0.05 for err in errors)
    detail = "(thresholds " + ", ".join(f"{t:.3f}" for t in finals) + f", optimum {TASK_OPTIMUM})"
    report(8, "kb-threshold-adaptation", ok, detail)


# -- 09: determinism and resumability ------------------------------------------


@pytest.mark.slow
def test_criterion_09_determinism_and_resume(tmp_path):
    config = replace(RunConfig(), episode_count=20)

    a = TrainingSystem(config)
    a.run()
    b = TrainingSystem(config)
    b.run()
    identical = metrics_csv_text(a.metrics_history) == metrics_csv_text(b.metrics_history)

    first = TrainingSystem(config)
    first.run(episodes=10)
    path = tmp_path / "resume.json"
    first.checkpoint(path)
    resumed = TrainingSystem.restore(path)
    resumed.run(episodes=10)
    # A restored system's tables hold only the episodes run after the restore.
    ppo_from, dqn_from = len(first.tables.ppo_updates), len(first.tables.dqn_steps)
    # Which agent updates when must match; the PPO diagnostics themselves
    # drift in their last bits after a restore (see
    # test_trainer.py::test_resumed_ppo_updates_are_bit_identical).
    updates = [(row["update_index"], row["role"]) for row in resumed.tables.ppo_updates]
    resumable = (
        metrics_csv_text(resumed.tables.metrics) == metrics_csv_text(a.tables.metrics[10:])
        and updates == [(row["update_index"], row["role"]) for row in a.tables.ppo_updates[ppo_from:]]
        and resumed.tables.dqn_steps == a.tables.dqn_steps[dqn_from:]
        and len(updates) > 0
        and len(resumed.tables.dqn_steps) > 0
    )

    report(9, "determinism-and-resume", identical and resumable,
           f"(identical={identical}, resumed-equals-straight={resumable})")


# -- 10: learning-curve shape ---------------------------------------------------


@pytest.mark.slow
def test_criterion_10_learning_curve_shape():
    results = []
    for seed in SEEDS:
        metrics, _ = get_run("full", seed)
        third = len(metrics) // 3
        first = sum(m.r_total for m in metrics[:third]) / third
        last = sum(m.r_total for m in metrics[-third:]) / third
        results.append((first, last))
    ok = all(last > first for first, last in results)
    detail = "(" + ", ".join(f"{f:.3f}->{l:.3f}" for f, l in results) + ")"
    report(10, "learning-curve-shape", ok, detail)


# -- supplementary: frozen system stays statistically flat ----------------------


@pytest.mark.slow
def test_frozen_baseline_is_flat_across_quartiles():
    quarter_first, quarter_last = [], []
    for seed in SEEDS:
        metrics, _ = get_run("frozen", seed)
        q = len(metrics) // 4
        quarter_first.append(sum(m.r_total for m in metrics[:q]) / q)
        quarter_last.append(sum(m.r_total for m in metrics[-q:]) / q)
    first = sum(quarter_first) / len(quarter_first)
    last = sum(quarter_last) / len(quarter_last)
    assert abs(last - first) <= 0.10 * abs(first), f"frozen drifted: {first:.4f} -> {last:.4f}"
