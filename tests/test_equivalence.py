"""The slot loop's fast paths against brute-force references.

Each reference below is the plain algorithm the fast path replaces: a full
sort for the top-k vector query, a scan of every edge for edge
reinforcement, a list of transitions stacked per batch for the replay ring,
``np.cumsum`` and ``searchsorted`` for the action sampler, a full
recomputation for every cached value, and windows over a run's ``slot``
events for the knowledge controller's reward statistics. The fast paths
must agree with them exactly, bit for bit, because the metrics, events and
checkpoints of a run depend on these values.
"""

import base64
import math
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeloop import cli
from qeloop.agents import (
    PerformanceTracker,
    generated_test_embedding,
    modifier_vector,
    requirement_query,
    strategy_signature,
)
from qeloop.domain import (
    AgentRole,
    DefectReport,
    FeedbackRecord,
    GenerationStrategy,
    Requirement,
    RetrievalMode,
    InputError,
    Severity,
    validate_feedback,
)
from qeloop.knowledge import EdgeType, KnowledgeStore, RetrievalParams, embed
from qeloop.qe_env import EnvConfig, generate_project
from qeloop.rewards import trend_slope
from qeloop.rl_core import ExperienceBuffer, Transition, sample_action
from qeloop.trainer import run_training

D_EMB = 8
VOCAB = ("login", "retry", "cart", "audit", "tax")

# -- references ----------------------------------------------------------------


def decoded_replay(saved: Mapping) -> dict[str, np.ndarray]:
    """The float64 columns of a replay ``state_dict``, each base64 of its
    little-endian bytes, the states as rows."""
    n = len(saved["actions"])
    columns = {
        name: np.frombuffer(base64.b64decode(saved[name]), dtype="<f8") for name in ("states", "rewards", "next_states")
    }
    for name in ("states", "next_states"):
        columns[name] = columns[name].reshape(n, -1)
    return columns


def reference_vector_query(rows: dict, query: np.ndarray, params: RetrievalParams) -> list:
    """Sort every record by (-similarity, id), then cut at threshold and top_k.

    ``rows`` maps id -> embedding in insertion order.
    """
    ids = list(rows)
    if not ids:
        return []
    q = np.asarray(query, dtype=np.float64)
    qn = float(np.linalg.norm(q))
    if qn == 0.0:
        return []
    matrix = np.vstack([rows[i] for i in ids])
    norms = np.linalg.norm(matrix, axis=1)
    sims = matrix @ q / (norms * qn)
    out = []
    for i in sorted(range(len(ids)), key=lambda i: (-sims[i], ids[i])):
        if sims[i] < params.similarity_threshold:
            break
        out.append((ids[i], float(sims[i])))
        if len(out) >= params.top_k:
            break
    return out


def reference_reinforce(weights: dict, context: set, target: float, eta: float) -> int:
    """Visit every edge in sorted order; update those inside the context."""
    touched = 0
    for key in sorted(weights, key=lambda k: (k[0], k[1], k[2])):
        if key[0] in context and key[1] in context:
            w = weights[key]
            weights[key] = min(1.0, max(0.0, w + eta * (target - w)))
            touched += 1
    return touched


def reference_aggregates(tracker: PerformanceTracker) -> tuple:
    records = list(tracker.records)
    if not records:
        return (0.0, 0.0, 0.0, 0.0)
    n = len(records)
    true_total = sum(r[0] for r in records)
    fp_total = sum(r[1] for r in records)
    sev_total = sum(r[2] for r in records)
    quality = sum(r[3] for r in records) / n
    mean_sev = (sev_total / true_total) / 3.0 if true_total else 0.0
    return (min(1.0, true_total / n), min(1.0, fp_total / n), min(1.0, mean_sev), quality)


def reference_counts(tracker: PerformanceTracker) -> tuple:
    """(true defects, false positives, severity ranks) summed over the window."""
    return tuple(sum(r[i] for r in tracker.records) for i in range(3))


def reference_trend_slope(history: list) -> float:
    n = len(history)
    if n < 2:
        return 0.0
    x_mean = (n - 1) / 2.0
    y_mean = sum(history) / n
    num = sum((i - x_mean) * (y - y_mean) for i, y in enumerate(history))
    den = sum((i - x_mean) ** 2 for i in range(n))
    return num / den


def reference_reward_stats(tracker: PerformanceTracker) -> tuple:
    totals = list(tracker.totals)
    if not totals:
        return (0.0, 0.0)
    return (sum(totals) / len(totals), reference_trend_slope(totals))


class ReferenceRing:
    """The replay ring as a list of transitions, each batch stacked anew;
    a draw indexes the transitions oldest-first."""

    def __init__(self, capacity: int, rng: np.random.Generator):
        self.capacity, self.rng = capacity, rng
        self.data: list = []
        self.next = 0

    def insert(self, transition: Transition) -> None:
        if len(self.data) < self.capacity:
            self.data.append(transition)
        else:
            self.data[self.next] = transition
        self.next = (self.next + 1) % self.capacity

    def ordered(self) -> list:
        return self.data[self.next :] + self.data[: self.next]

    def sample(self, batch_size: int) -> tuple:
        oldest_first = self.ordered()
        batch = [oldest_first[i] for i in self.rng.integers(0, len(self.data), size=batch_size)]
        return (
            np.vstack([t.state for t in batch]),
            np.asarray([t.action for t in batch], dtype=np.int64),
            np.asarray([t.reward for t in batch], dtype=np.float64),
            np.vstack([t.next_state for t in batch]),
            np.asarray([t.done for t in batch], dtype=np.bool_),
        )


def reference_sample_action(probabilities: np.ndarray, rng: np.random.Generator) -> int:
    cum = np.cumsum(probabilities)
    r = rng.random() * cum[-1]
    return int(min(np.searchsorted(cum, r, side="right"), len(probabilities) - 1))


# -- generators ----------------------------------------------------------------

token_lists = st.lists(st.sampled_from(VOCAB), min_size=1, max_size=3)
# Few distinct embeddings over many distinct ids, so equal similarities are
# common.
inserts = st.lists(
    st.tuples(st.integers(0, 29).map(lambda i: f"r{i:02d}"), token_lists),
    min_size=1,
    max_size=30,
    unique_by=lambda op: op[0],
)


def feedback(true_count: int, fp_count: int) -> FeedbackRecord:
    defects = tuple(
        DefectReport(f"r{i}", "tc-1", Severity(i % 4), False, f"def-{i}") for i in range(true_count)
    ) + tuple(DefectReport(f"f{i}", "tc-1", Severity.Low, True, None) for i in range(fp_count))
    return FeedbackRecord("tc-1", defects, 1.0, 1.0, 0.5, 0.5, 0.5, 1.0, 0.5)


# -- vector_query ----------------------------------------------------------------


class TestVectorQuery:
    @given(inserts, token_lists, st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_full_sort(self, ops, query_tokens, data):
        store = KnowledgeStore(d_emb=D_EMB)
        rows: dict = {}
        for rid, tokens in ops:
            vec = embed(tokens, D_EMB)
            store.insert_vector(rid, vec, rid)
            rows[rid] = vec
        query = embed(query_tokens, D_EMB)
        all_hits = reference_vector_query(rows, query, RetrievalParams(0.0, 64))
        sims = sorted({s for _, s in all_hits if s <= 1.0})
        # Half the time the threshold is exactly one of the similarities.
        if sims and data.draw(st.booleans()):
            threshold = data.draw(st.sampled_from(sims))
        else:
            threshold = data.draw(st.floats(0.0, 1.0))
        params = RetrievalParams(similarity_threshold=threshold, top_k=data.draw(st.integers(1, 12)))
        assert store.vector_query(query, params) == reference_vector_query(rows, query, params)

    @given(inserts, st.lists(token_lists, min_size=1, max_size=3), st.floats(0.0, 1.0), st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_repeated_queries_between_inserts_match_a_fresh_store(self, ops, queries, threshold, top_k):
        store = KnowledgeStore(d_emb=D_EMB)
        loose, strict = RetrievalParams(0.0, 64), RetrievalParams(threshold, top_k)
        for n, (rid, tokens) in enumerate(ops, start=1):
            store.insert_vector(rid, embed(tokens, D_EMB), rid)
            fresh = KnowledgeStore(d_emb=D_EMB)
            for fresh_rid, fresh_tokens in ops[:n]:
                fresh.insert_vector(fresh_rid, embed(fresh_tokens, D_EMB), fresh_rid)
            for query in [embed(tokens, D_EMB) for tokens in queries] * 2:
                for params in (loose, strict):
                    assert store.vector_query(query, params) == fresh.vector_query(query, params)

    def test_top_k_cuts_inside_a_tie_group_by_ascending_id(self):
        store = KnowledgeStore(d_emb=D_EMB)
        same = embed(["login"], D_EMB)
        for rid in ("d", "b", "e", "a", "c"):
            store.insert_vector(rid, same, rid)
        store.insert_vector("best", embed(["login", "retry"], D_EMB), "best")
        params = RetrievalParams(similarity_threshold=0.0, top_k=3)
        got = [rid for rid, _ in store.vector_query(same, params)]
        assert got == ["a", "b", "c"]

    def test_threshold_equal_to_a_similarity_keeps_that_record(self):
        store = KnowledgeStore(d_emb=D_EMB)
        store.insert_vector("x", embed(["login", "retry"], D_EMB), "x")
        query = embed(["login"], D_EMB)
        ((_, sim),) = store.vector_query(query, RetrievalParams(0.0, 4))
        assert 0.0 < sim < 1.0
        assert [rid for rid, _ in store.vector_query(query, RetrievalParams(sim, 4))] == ["x"]
        assert store.vector_query(query, RetrievalParams(float(np.nextafter(sim, 1.0)), 4)) == []

    def test_inserting_a_stored_id_is_rejected_and_changes_nothing(self):
        store = KnowledgeStore(d_emb=D_EMB)
        store.insert_vector("x", embed(["login"], D_EMB), "x")
        store.insert_vector("y", embed(["cart"], D_EMB), "y")
        before = store.snapshot_dict()
        with pytest.raises(ValueError, match="vector record 'x': duplicate id"):
            store.insert_vector("x", embed(["cart"], D_EMB), "x2", usefulness=0.9)
        assert store.vector_count == 2
        assert store.snapshot_dict() == before
        hits = store.vector_query(embed(["cart"], D_EMB), RetrievalParams(0.99, 4))
        assert [rid for rid, _ in hits] == ["y"]

    def test_store_grows_past_its_initial_capacity(self):
        store = KnowledgeStore(d_emb=D_EMB)
        rows = {}
        for i in range(100):
            vec = embed([VOCAB[i % 5], f"t{i}"], D_EMB)
            store.insert_vector(f"r{i:03d}", vec, "p")
            rows[f"r{i:03d}"] = vec
        params = RetrievalParams(0.0, 64)
        query = embed(["login"], D_EMB)
        assert store.vector_query(query, params) == reference_vector_query(rows, query, params)

    def test_caller_owns_the_array_it_inserted(self):
        store = KnowledgeStore(d_emb=D_EMB)
        vec = embed(["login"], D_EMB)
        store.insert_vector("x", vec, "x")
        vec[:] = embed(["cart"], D_EMB)
        ((_, sim),) = store.vector_query(embed(["login"], D_EMB), RetrievalParams(0.0, 4))
        assert sim == pytest.approx(1.0)


# -- reinforce_edges --------------------------------------------------------------

NODES = [f"n{i}" for i in range(8)]
edge_lists = st.lists(
    st.tuples(
        st.sampled_from(NODES),
        st.sampled_from(NODES),
        st.sampled_from(list(EdgeType)),
        st.floats(0.0, 1.0),
    ),
    max_size=40,
)
steps = st.lists(
    st.tuples(
        st.sets(st.sampled_from(NODES + ["ghost"])),
        st.integers(0, 2),
        st.integers(0, 2),
        st.floats(0.01, 1.0),
    ),
    min_size=1,
    max_size=6,
)


class TestReinforceEdges:
    @given(edge_lists, steps)
    @settings(max_examples=300, deadline=None)
    def test_matches_scan_of_every_edge(self, edges, step_list):
        store = KnowledgeStore(d_emb=D_EMB)
        weights: dict = {}
        for src, dst, et, w in edges:
            if src != dst:
                store.upsert_edge(src, dst, et, w)
                weights[(src, dst, et)] = w
        for context, true_count, fp_count, eta in step_list:
            fb = feedback(true_count, fp_count)
            touched = store.reinforce_edges(fb, context, eta)
            if true_count:
                expected = reference_reinforce(weights, context, 1.0, eta)
            elif fp_count:
                expected = reference_reinforce(weights, context, 0.0, eta)
            else:
                expected = 0
            assert touched == expected
            assert {(e.source, e.target, e.edge_type): e.weight for e in store.edges()} == weights
            assert store.mean_edge_weight() == (math.fsum(weights.values()) / len(weights) if weights else 0.0)

    def test_neighbors_lists_both_directions_in_insertion_order(self):
        store = KnowledgeStore(d_emb=D_EMB)
        store.upsert_edge("a", "b", EdgeType.Covers, 0.5)
        store.upsert_edge("c", "a", EdgeType.DetectedBy, 0.5)
        store.upsert_edge("a", "b", EdgeType.Covers, 0.9)  # overwrite, not a new edge
        assert list(store.neighbors("a")) == [
            ("b", ("a", "b", EdgeType.Covers)),
            ("c", ("c", "a", EdgeType.DetectedBy)),
        ]
        assert list(store.neighbors("ghost")) == []


# -- caches ----------------------------------------------------------------------


class TestCacheInvalidation:
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("upsert"), st.sampled_from(NODES), st.sampled_from(NODES), st.floats(0, 1)),
                st.tuples(st.just("reinforce"), st.sets(st.sampled_from(NODES)), st.booleans(), st.floats(0.01, 1)),
                st.tuples(st.just("read")),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_mean_edge_weight_after_every_write(self, ops):
        store = KnowledgeStore(d_emb=D_EMB)
        weights: dict = {}
        for op in ops:
            if op[0] == "upsert" and op[1] != op[2]:
                store.upsert_edge(op[1], op[2], EdgeType.Impacts, op[3])
                weights[(op[1], op[2], EdgeType.Impacts)] = op[3]
            elif op[0] == "reinforce":
                true_defect = op[2]
                store.reinforce_edges(feedback(int(true_defect), int(not true_defect)), op[1], op[3])
                reference_reinforce(weights, op[1], 1.0 if true_defect else 0.0, op[3])
            values = list(weights.values())
            assert store.mean_edge_weight() == (math.fsum(values) / len(values) if values else 0.0)

    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("record"), st.integers(0, 3), st.integers(0, 2), st.floats(0, 1)),
                st.tuples(st.just("reward"), st.floats(-2, 2)),
                st.tuples(st.just("read")),
            ),
            max_size=60,
        ),
        st.integers(1, 8),
    )
    @settings(max_examples=200, deadline=None)
    def test_tracker_reads_match_recompute_after_pushes(self, ops, window):
        tracker = PerformanceTracker(window)
        for op in ops:
            if op[0] == "record":
                _, true_count, fp_count, quality = op
                base = feedback(true_count, fp_count)
                tracker.push_record(
                    FeedbackRecord(base.test_case_ref, base.defects, 1.0, 1.0, quality, 0.5, 0.5, 1.0, 0.5)
                )
            elif op[0] == "reward":
                tracker.push_reward(op[1])
            assert tracker.counts == reference_counts(tracker)
            assert tracker.aggregates() == reference_aggregates(tracker)
            mean, trend = reference_reward_stats(tracker)
            assert tracker.reward_features() == (np.tanh(mean), np.tanh(trend))

    def test_restored_tracker_reads_its_own_windows(self):
        tracker = PerformanceTracker(4)
        tracker.push_record(feedback(1, 0))
        tracker.push_reward(0.3)
        tracker.aggregates(), tracker.reward_features()
        clone = PerformanceTracker(4)
        clone.load_state_dict(tracker.state_dict())
        clone.push_record(feedback(0, 1))
        clone.push_reward(-0.2)
        assert clone.aggregates() == reference_aggregates(clone)
        mean, trend = reference_reward_stats(clone)
        assert clone.reward_features() == (np.tanh(mean), np.tanh(trend))

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), min_size=1, max_size=40), st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_count_totals_after_the_window_wraps_and_after_restore(self, pushes, window):
        tracker = PerformanceTracker(window)
        for true_count, fp_count in pushes:
            tracker.push_record(feedback(true_count, fp_count))
            assert tracker.counts == reference_counts(tracker)
        clone = PerformanceTracker(window)
        clone.load_state_dict(tracker.state_dict())
        assert clone.counts == tracker.counts == reference_counts(clone)
        for true_count, fp_count in pushes:
            clone.push_record(feedback(fp_count, true_count))
            assert clone.counts == reference_counts(clone)

    @given(st.lists(st.floats(-5, 5), min_size=0, max_size=60))
    def test_trend_slope_matches_recompute(self, history):
        tracker = PerformanceTracker(len(history) + 1)
        for total in history:
            tracker.push_reward(total)
        assert trend_slope(history) == reference_trend_slope(history)
        assert trend_slope(tracker.totals) == reference_reward_stats(tracker)[1]


class TestKnowledgeControllerHistory:
    # The knowledge controller once kept its own windows beside the
    # modifiers' tracker: the last 50 slot totals, a flag per feedback
    # record for carrying a false positive, the totals gathered since its
    # pending action and the mean of the interval before them. Its state and
    # reward must still equal those windows, recomputed here from the run's
    # events alone.
    WINDOW = 50

    def test_state_and_reward_match_windows_over_the_slot_events(self):
        config_path = Path(__file__).resolve().parent.parent / "configs" / "default.json"
        config = cli.load_config(str(config_path), ("seed=0", "episode_count=35"))
        system = run_training(config)
        interval = config.loop.kb_action_interval
        totals: list[float] = []
        fp_flags: list[float] = []
        windows: list[list[float]] = []
        interval_means: list[float] = []
        for event in system.events:
            if event["type"] != "slot":
                continue
            totals.append(event["reward"]["total"])
            for record in event["records"]:
                has_fp = any(defect["is_false_positive"] for defect in record.get("defects", ()))
                fp_flags.append(1.0 if has_fp else 0.0)
            if (event["episode"] * config.tests_per_episode + event["slot"] + 1) % interval == 0:
                reward_window, fp_window = totals[-self.WINDOW :], fp_flags[-self.WINDOW :]
                windows.append([
                    0.5 * (1.0 + np.tanh(sum(reward_window) / len(reward_window))),
                    sum(fp_window) / len(fp_window),
                ])
                interval_means.append(sum(totals[-interval:]) / interval)
        # The first action has no pending one, and the first transition no
        # interval before its own.
        rewards = [0.0] + [b - a for a, b in zip(interval_means[1:], interval_means[2:])]
        replay = {name: column.tolist() for name, column in decoded_replay(system.dqn.replay.state_dict()).items()}
        assert len(replay["states"]) == len(windows) - 1 > 40
        assert [row[7:9] for row in replay["states"]] == windows[:-1]
        assert [row[7:9] for row in replay["next_states"]] == windows[1:]
        assert replay["rewards"] == rewards


# -- replay ring and action sampler ------------------------------------------------


class TestReplayArrays:
    @given(st.integers(1, 12), st.integers(1, 40), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_sampled_fields_equal_stacked_transitions(self, capacity, inserts, batch_size, seed):
        data = np.random.default_rng(seed)
        ring = ExperienceBuffer(capacity, 3, np.random.default_rng(seed + 1))
        reference = ReferenceRing(capacity, np.random.default_rng(seed + 1))
        for i in range(inserts):
            state, next_state = data.normal(size=3), data.normal(size=3)
            t = Transition(state, int(data.integers(0, 13)), float(data.normal()), next_state, i % 3 == 0)
            ring.insert(t)
            reference.insert(t)
            if len(ring) < batch_size:
                continue
            for got, want in zip(ring.sample(batch_size), reference.sample(batch_size)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want)
        oldest_first = reference.ordered()
        saved = ring.state_dict()
        assert [saved[name] for name in ("actions", "dones")] == [
            [t.action for t in oldest_first], [t.done for t in oldest_first],
        ]
        decoded = decoded_replay(saved)
        assert decoded["states"].tolist() == [t.state.tolist() for t in oldest_first]
        assert decoded["rewards"].tolist() == [t.reward for t in oldest_first]
        assert decoded["next_states"].tolist() == [t.next_state.tolist() for t in oldest_first]

    def test_arrays_grow_with_the_ring_not_with_its_capacity(self):
        ring = ExperienceBuffer(50_000, 10, np.random.default_rng(0))
        for i in range(100):
            ring.insert(Transition(np.full(10, float(i)), 0, 0.0, np.zeros(10), False))
        assert len(ring) == 100
        assert ring.sample(100).states.shape == (100, 10)
        assert len(ring._slots.states) == 128

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12).filter(lambda p: sum(p) > 0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_sample_action_matches_cumsum_searchsorted(self, weights, seed):
        probs = np.asarray(weights) / sum(weights)
        fast, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            assert sample_action(probs, fast) == reference_sample_action(probs, reference)


class TestCachedValuesAreShared:
    def test_pure_vectors_are_read_only_and_equal_to_a_fresh_computation(self):
        req = Requirement("req-7", "requirement 7 covering billing", frozenset({"billing"}))
        assert np.array_equal(requirement_query(req, 64), embed(req.text.split() + [req.id], 64))
        assert np.array_equal(
            generated_test_embedding(req, GenerationStrategy.Boundary, RetrievalMode.GraphOnly, 64),
            embed(req.text.split() + [req.id, "Boundary", "GraphOnly"], 64),
        )
        assert np.array_equal(
            modifier_vector(AgentRole.LegacyTestAnalysis, 2, 16), embed(["legacytestanalysis", "option2"], 16)
        )
        for vec in (
            requirement_query(req, 64),
            generated_test_embedding(req, GenerationStrategy.Boundary, RetrievalMode.GraphOnly, 64),
            modifier_vector(AgentRole.LegacyTestAnalysis, 2, 16),
            strategy_signature(GenerationStrategy.Boundary, 16),
        ):
            with pytest.raises(ValueError):
                vec[0] = 0.5

    def test_defect_index_is_built_once_and_read_only(self):
        project = generate_project(EnvConfig(n_requirements=5, n_defects=9), seed=3)
        index = project.defects_by_requirement()
        assert index is project.defects_by_requirement()
        expected = {r.id: tuple(d for d in project.defects if d.requirement_ref == r.id) for r in project.requirements}
        assert dict(index) == expected
        with pytest.raises(TypeError):
            index["req-000"] = ()


# -- validate_feedback ---------------------------------------------------------------


class NoIterationCatalog(Mapping):
    """A catalog that answers membership but refuses to be iterated."""

    def __init__(self, ids):
        self._ids = dict.fromkeys(ids)

    def __getitem__(self, key):
        return self._ids[key]

    def __len__(self):
        return len(self._ids)

    def __iter__(self):
        raise AssertionError("validate_feedback iterated the catalog")


class TestValidateFeedbackCatalog:
    @given(st.sets(st.sampled_from([f"tc-{i}" for i in range(6)])), st.sampled_from([f"tc-{i}" for i in range(6)]))
    def test_mapping_is_never_iterated(self, ids, ref):
        record = FeedbackRecord(ref, (), 1.0, 1.0, 0.5, 0.5, 0.5, 1.0, 0.5)
        catalog = NoIterationCatalog(ids)
        if ref in ids:
            assert validate_feedback(record, catalog) is record
        else:
            with pytest.raises(InputError, match=f"^feedback references unknown test case '{ref}'$"):
                validate_feedback(record, catalog)
