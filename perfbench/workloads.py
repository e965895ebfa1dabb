"""The benchmark's workloads and their correctness gate.

Each workload drives qeloop through its public functions in one process, as
a closed loop with a single caller that waits for every call to return.

- ``train_default``: ``TrainingSystem`` on ``configs/default.json``, then
  ``checkpoint`` and ``TrainingSystem.restore`` of the result.
- ``train_kb_uncapped``: the same loop with ``kb.max_records`` above what
  the run can insert, so the vector store and graph keep growing.
- ``replay_large_graph``: ``qeloop replay`` (``cli.main``) of a generated
  feedback file into a generated knowledge snapshot of about 5k edges.

A workload's ``setup`` performs and times the set-up a user pays once per
run; ``rep`` performs one repetition of the measured work, appends its
timings to a ``Samples`` and records every correctness check on a ``Gate``.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import re
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from qeloop import cli, trainer
from qeloop.domain import DefectReport, FeedbackRecord, GenerationStrategy, RetrievalMode, Severity
from qeloop.knowledge import EdgeType, KnowledgeStore, embed
from qeloop.qe_env import STRATEGY_COMPLIANCE, STRATEGY_STEPS, generate_project

# Above anything a train_kb_uncapped run can insert (30 tests per episode).
UNCAPPED_MAX_RECORDS = 50000
# Episode time grows with the store, so the slowest episodes of a
# repetition come last and its p90 rests on a window of a few seconds. At 80
# episodes a 30-second run holds about three repetitions, three such windows.
# At 120 the run held one, and the p90 quartile spread over ten seeds reached
# 0.29 of the median.
UNCAPPED_EPISODES = 80
SMOKE_EPISODES = 3


class Gate:
    """Counts attempted operations and failed ones, and checks output digests.

    A digest is checked against ``committed``, the pins in
    ``perfbench/golden.json`` for this environment, when that holds the
    key. Otherwise it is pinned in ``local`` the first time it is seen, and
    every later repetition with that key must reproduce it.
    """

    def __init__(self, committed: dict[str, str], local: dict[str, str]):
        self.committed = committed
        self.local = local
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.committed_checks = 0
        self.local_checks = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)

    def pin(self, key: str, payload: bytes) -> None:
        digest = hashlib.sha256(payload).hexdigest()
        if key in self.committed:
            self.committed_checks += 1
            expected, source = self.committed[key], "committed"
        else:
            self.local_checks += 1
            expected, source = self.local.setdefault(key, digest), "local"
        self.check(digest == expected, f"{key}: sha256 {digest} != {source} pin {expected}")


@dataclass
class Samples:
    """Timings and exact counts gathered over a run's repetitions."""

    setup_s: list[float] = field(default_factory=list)
    step_ms: list[float] = field(default_factory=list)
    step_records: int = 0
    step_busy_s: float = 0.0
    state_save_s: list[float] = field(default_factory=list)
    state_restore_s: list[float] = field(default_factory=list)
    state_bytes: list[int] = field(default_factory=list)
    rep_wall_s: list[float] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)


def _same_bytes(a: Path, b: Path) -> bool:
    return a.read_bytes() == b.read_bytes()


def _timed(fn, *args):
    """Return (fn(*args), seconds), timed after a full garbage collection so
    that garbage left by earlier work is not collected inside the call."""
    gc.collect()
    start = perf_counter()
    result = fn(*args)
    return result, perf_counter() - start


class TrainWorkload:
    """One full training run per repetition, then checkpoint and restore."""

    def __init__(self, name: str, root: Path, work: Path, seed: int, smoke: bool):
        overrides = [f"seed={seed}"]
        if name == "train_kb_uncapped":
            overrides += [f"kb.max_records={UNCAPPED_MAX_RECORDS}", f"episode_count={UNCAPPED_EPISODES}"]
        if smoke:
            overrides.append(f"episode_count={SMOKE_EPISODES}")
        self.config = cli.load_config(str(root / "configs" / "default.json"), tuple(overrides))
        self.key = f"{name}:seed={seed}:episodes={self.config.episode_count}"
        self.work = work

    def setup(self) -> float:
        return _timed(trainer.TrainingSystem, self.config)[1]

    def rep(self, gate: Gate, samples: Samples) -> None:
        system = trainer.TrainingSystem(self.config)
        for _ in range(self.config.episode_count):
            start = perf_counter()
            try:
                system.run_episode()
            except Exception:  # an episode that raises is a failed operation
                traceback.print_exc()
                gate.check(False, f"episode {system.episode_index} raised")
                return
            elapsed = perf_counter() - start
            gate.check(True, "episode")
            samples.step_ms.append(elapsed * 1e3)
            samples.step_busy_s += elapsed
        # Every slot executes n_tests generated tests, one feedback record each.
        records = system.episode_index * self.config.tests_per_episode * self.config.loop.n_tests
        samples.step_records += records

        csv_text = trainer.metrics_csv_text(system.metrics_history)
        gate.pin(f"{self.key}:metrics.csv", csv_text.encode("utf-8"))
        # ROADMAP plans to replace the in-memory event list and delete the
        # test catalog; once they are gone, these read as absent (0) and the
        # pinned metrics.csv digest remains the byte-level guard.
        events = getattr(system, "events", None)
        if events is not None:
            derived = trainer.metrics_csv_text(trainer.derive_metrics_from_events(events))
            gate.check(derived == csv_text, f"{self.key}: metrics.csv re-derived from events differs")

        path = self.work / "checkpoint.json"
        samples.state_save_s.append(_timed(system.checkpoint, path)[1])
        counts = {
            "episodes": system.episode_index,
            "feedback_records": records,
            "events": len(events) if events is not None else 0,
            "test_catalog_size": len(getattr(system, "test_catalog", ())),
            "ppo_updates": len(system.ppo_rows),
            "dqn_train_steps": system.dqn.train_steps,
            "kb_vectors": system.kb.vector_count,
            "kb_edges": system.kb.edge_count,
            "checkpoint_bytes": path.stat().st_size,
        }
        samples.state_bytes.append(counts["checkpoint_bytes"])
        del system, events
        restored, seconds = _timed(trainer.TrainingSystem.restore, path)
        samples.state_restore_s.append(seconds)
        again = self.work / "checkpoint_again.json"
        restored.checkpoint(again)
        gate.check(_same_bytes(path, again), f"{self.key}: restored checkpoint re-serialises differently")

        if samples.counts:
            gate.check(counts == samples.counts, f"{self.key}: counts differ between repetitions")
        samples.counts = counts


# -- replay_large_graph ------------------------------------------------------

# Shares of feedback records in train_default runs (configs/default.json,
# seeds 0-4, 45000 records; DESIGN.md gives the measurement): records with
# at least one true defect, and records with false positives only. The rest
# are clean.
TRUE_DEFECT_SHARE = 0.3252
FP_ONLY_SHARE = 0.0532
# Of the records with true defects: those with two (every requirement of the
# default project has two planted defects), and those that also carry a
# false positive.
TWO_DEFECT_SHARE = 0.1380
FP_WITH_TRUE_SHARE = 0.0821


@dataclass(frozen=True)
class ReplaySize:
    tests: int  # every test is a vector record; tests with true defects are graph nodes
    feedback_lines: int  # drawn without replacement from the tests' records


# 7000 tests give about 4.9k edges: what an uncapped training run of about
# 230 episodes stores.
REPLAY_SIZE = ReplaySize(tests=7000, feedback_lines=3000)
SMOKE_REPLAY_SIZE = ReplaySize(tests=60, feedback_lines=40)


def _feedback(test_id: str, strategy, defects, model, rng) -> FeedbackRecord:
    """One feedback record with the kind shares of a train_default run."""
    reports = []
    draw = rng.random()
    if draw < TRUE_DEFECT_SHARE:
        count = min(len(defects), 1 + int(rng.random() < TWO_DEFECT_SHARE))
        for j in sorted(rng.choice(len(defects), size=count, replace=False)):
            d = defects[int(j)]
            reports.append(DefectReport(f"rep-{test_id}-{d.id}", test_id, d.severity, False, d.id))
        false_positive = rng.random() < FP_WITH_TRUE_SHARE
    else:
        false_positive = draw < TRUE_DEFECT_SHARE + FP_ONLY_SHARE
    if false_positive:
        reports.append(DefectReport(f"rep-{test_id}-fp", test_id, Severity.Low, True, None))
    true_count = sum(1 for r in reports if not r.is_false_positive)
    # Times and compliance as execute_test sets them; the two coverage
    # assessments only feed the replay reward, which costs the same for any value.
    return FeedbackRecord(
        test_case_ref=test_id,
        defects=tuple(reports),
        execution_time=model.base_time + model.per_step_time * STRATEGY_STEPS[strategy],
        baseline_time=model.baseline_time,
        quality_rating=true_count / len(reports) if reports else 1.0,
        requirement_coverage_assessment=float(rng.uniform(0.0, 1.0)),
        functional_coverage_validation=float(rng.uniform(0.0, 1.0)),
        workflow_integration_factor=model.workflow_integration_factor,
        compliance_score=STRATEGY_COMPLIANCE[strategy],
    )


def generate_replay_inputs(size: ReplaySize, config, seed: int, out_dir: Path):
    """Write a knowledge snapshot and a valid feedback JSONL derived from seed.

    The snapshot holds the seed's generated project and one feedback record
    per test, stored as ``TrainingSystem`` stores them: every test is a
    vector record, and a test whose record has true defects becomes a graph
    node with a Covers edge to its requirement and a DetectedBy edge from
    each defect. The feedback file is a sample of those records, so its
    clean and false-positive-only lines name tests absent from the graph.
    Returns (snapshot path, feedback path, vector count, edge count, lines).
    """
    rng = np.random.default_rng(seed)
    project = generate_project(config.env, seed)
    d_emb = config.kb.d_emb
    store = KnowledgeStore(d_emb, config.kb.initial_params)
    for req in project.requirements:
        store.insert_vector(req.id, embed(req.text.split() + [req.id], d_emb), req.id)
        store.add_node(req.id)
    for src, dst, et in project.requirement_links:
        store.upsert_edge(src, dst, et, 0.5)

    defects_by_req = project.defects_by_requirement()
    records = []
    for i in range(size.tests):
        req = project.requirements[int(rng.integers(len(project.requirements)))]
        strategy = GenerationStrategy(int(rng.integers(len(GenerationStrategy))))
        mode = RetrievalMode(int(rng.integers(len(RetrievalMode))))
        test_id = f"tc-{i:05d}"
        record = _feedback(test_id, strategy, defects_by_req[req.id], config.execution, rng)
        records.append(record)
        store.insert_vector(test_id, embed(req.text.split() + [req.id, strategy.name, mode.name], d_emb), test_id)
        if record.true_defects():
            store.add_node(test_id)
            store.upsert_edge(test_id, req.id, EdgeType.Covers, 0.5)
            for report in record.true_defects():
                store.add_node(report.defect_ref)
                store.upsert_edge(report.defect_ref, test_id, EdgeType.DetectedBy, 0.5)

    out_dir.mkdir(parents=True, exist_ok=True)
    snapshot = out_dir / "kb.json"
    store.save_snapshot(snapshot)
    feedback = out_dir / "feedback.jsonl"
    with open(feedback, "w", encoding="utf-8") as fh:
        for j in rng.choice(len(records), size=size.feedback_lines, replace=False):
            fh.write(records[int(j)].to_json_line())
            fh.write("\n")
    return snapshot, feedback, store.vector_count, store.edge_count, size.feedback_lines


class ReplayWorkload:
    """One ``qeloop replay`` command per repetition, then a reload of the
    snapshot it wrote."""

    def __init__(self, name: str, root: Path, work: Path, seed: int, smoke: bool):
        self.config_path = str(root / "configs" / "default.json")
        size = SMOKE_REPLAY_SIZE if smoke else REPLAY_SIZE
        (
            self.snapshot,
            self.feedback,
            self.vectors,
            self.edges,
            self.lines,
        ) = generate_replay_inputs(size, cli.load_config(self.config_path), seed, work / "replay_input")
        self.out_dir = work / "replay_out"
        self.key = f"{name}:seed={seed}:lines={self.lines}"

    def setup(self) -> float:
        return _timed(KnowledgeStore.load_snapshot, self.snapshot)[1]

    def rep(self, gate: Gate, samples: Samples) -> None:
        argv = [
            "replay", "--config", self.config_path, str(self.feedback),
            "--kb", str(self.snapshot), "--out", str(self.out_dir),
        ]
        stdout, stderr = io.StringIO(), io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        elapsed = perf_counter() - start
        samples.step_ms.append(elapsed * 1e3)
        samples.step_busy_s += elapsed
        samples.step_records += self.lines

        rejected = stderr.getvalue().count("skipped ")
        gate.attempted += self.lines
        gate.failed += rejected
        gate.check(code == 0, f"{self.key}: replay exited {code}: {stderr.getvalue()[-500:]}")
        gate.check(rejected == 0 and stderr.getvalue() == "", f"{self.key}: {rejected} lines rejected")
        gate.check(
            f"replayed {self.lines} records" in stdout.getvalue(),
            f"{self.key}: replay did not report {self.lines} records",
        )
        touched = re.search(r"edges touched (\d+)", stdout.getvalue())

        written = self.out_dir / "kb_after_replay.json"
        gate.pin(f"{self.key}:kb_after_replay.json", written.read_bytes())
        samples.state_bytes.append(written.stat().st_size)
        again = self.out_dir / "kb_again.json"
        store, seconds = _timed(KnowledgeStore.load_snapshot, written)
        samples.state_restore_s.append(seconds)
        gate.check(
            (store.vector_count, store.edge_count) == (self.vectors, self.edges),
            f"{self.key}: snapshot reloads with {store.vector_count} vectors and "
            f"{store.edge_count} edges, expected {self.vectors} and {self.edges}",
        )
        # Re-saving a 5k-edge snapshot takes about a third of a repetition,
        # so the round trip is checked on a run's first repetition only.
        if not samples.state_save_s:
            samples.state_save_s.append(_timed(store.save_snapshot, again)[1])
            gate.check(_same_bytes(written, again), f"{self.key}: reloaded snapshot re-serialises differently")

        counts = {
            "feedback_records": self.lines,
            "edges_touched": int(touched.group(1)) if touched else -1,
            "kb_vectors": store.vector_count,
            "kb_edges": store.edge_count,
            "snapshot_bytes": samples.state_bytes[-1],
        }
        if samples.counts:
            gate.check(counts == samples.counts, f"{self.key}: counts differ between repetitions")
        samples.counts = counts


WORKLOADS = {
    "train_default": TrainWorkload,
    "train_kb_uncapped": TrainWorkload,
    "replay_large_graph": ReplayWorkload,
}
