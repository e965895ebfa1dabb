import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeloop import knowledge
from qeloop.domain import FeedbackRecord, DefectReport, MalformedRecord, RetrievalMode, Severity
from qeloop.knowledge import (
    EdgeType,
    EmptyInput,
    KBAction,
    KnowledgeStore,
    RetrievalParams,
    UnknownNode,
    apply_kb_action,
    boost_action,
    decay_action,
    embed,
)


def feedback_with(true_count: int, fp_count: int) -> FeedbackRecord:
    defects = tuple(
        DefectReport(f"r{i}", "tc-1", Severity.Medium, False, f"def-{i}") for i in range(true_count)
    ) + tuple(
        DefectReport(f"f{i}", "tc-1", Severity.Low, True, None) for i in range(fp_count)
    )
    return FeedbackRecord("tc-1", defects, 1.0, 1.0, 1.0, 0.5, 0.5, 1.0, 0.5)


class TestEmbed:
    def test_identical_inputs_identical_vectors(self):
        a = embed(["login", "fails", "on", "retry"], 64)
        b = embed(["login", "fails", "on", "retry"], 64)
        assert np.array_equal(a, b)

    def test_unit_norm(self):
        for tokens in (["x"], ["alpha", "beta"], list("abcdefgh")):
            assert abs(np.linalg.norm(embed(tokens, 256)) - 1.0) < 1e-6

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInput):
            embed([], 64)

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            embed(["a"], 4)

    def test_disjoint_token_sets_have_low_cosine(self):
        # 1000 seeded random pairs over disjoint vocabularies at d_emb=256.
        rng = np.random.default_rng(7)
        vocab_a = [f"left{i}" for i in range(500)]
        vocab_b = [f"right{i}" for i in range(500)]
        below = 0
        for _ in range(1000):
            ta = [vocab_a[i] for i in rng.integers(0, 500, size=int(rng.integers(5, 15)))]
            tb = [vocab_b[i] for i in rng.integers(0, 500, size=int(rng.integers(5, 15)))]
            if abs(float(embed(ta, 256) @ embed(tb, 256))) < 0.5:
                below += 1
        assert below == 1000


def two_d(x: float, y: float) -> np.ndarray:
    return np.asarray([x, y], dtype=np.float64)


class TestVectorQuery:
    def build_store(self) -> KnowledgeStore:
        store = KnowledgeStore(d_emb=2, params=RetrievalParams(similarity_threshold=0.0, top_k=8))
        angles = {"a": 0.0, "b": 0.3, "c": 0.8, "d": 1.4, "e": 2.5}
        for name, angle in angles.items():
            store.insert_vector(name, two_d(math.cos(angle), math.sin(angle)), name)
        return store

    def test_exact_match_ranks_first_with_similarity_one(self):
        store = self.build_store()
        out = store.vector_query(two_d(1.0, 0.0), RetrievalParams(similarity_threshold=0.99, top_k=8))
        assert out[0][0].id == "a"
        assert out[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_threshold_one_with_no_exact_match_is_empty(self):
        store = self.build_store()
        query = two_d(math.cos(2.0), math.sin(2.0))
        assert store.vector_query(query, RetrievalParams(similarity_threshold=1.0, top_k=8)) == []

    def test_ranking_matches_brute_force_cosines(self):
        store = self.build_store()
        query = two_d(math.cos(0.5), math.sin(0.5))
        angles = {"a": 0.0, "b": 0.3, "c": 0.8, "d": 1.4, "e": 2.5}
        expected = sorted(
            ((name, math.cos(0.5 - angle)) for name, angle in angles.items()),
            key=lambda kv: (-kv[1], kv[0]),
        )
        got = store.vector_query(query, RetrievalParams(similarity_threshold=0.0, top_k=8))
        got_pairs = [(rec.id, sim) for rec, sim in got]
        kept = [(n, s) for n, s in expected if s >= 0.0]
        assert [n for n, _ in got_pairs] == [n for n, _ in kept]
        for (_, got_sim), (_, want_sim) in zip(got_pairs, kept):
            assert got_sim == pytest.approx(want_sim, abs=1e-12)

    def test_top_k_truncates(self):
        store = self.build_store()
        out = store.vector_query(two_d(1.0, 0.0), RetrievalParams(similarity_threshold=0.0, top_k=2))
        assert len(out) == 2

    def test_repeat_call_identical(self):
        store = self.build_store()
        q = two_d(0.6, 0.8)
        first = store.vector_query(q)
        second = store.vector_query(q)
        assert [(r.id, s) for r, s in first] == [(r.id, s) for r, s in second]


def enumerate_paths(edges: dict, seeds, type_weights, max_depth):
    """Exhaustive undirected simple-path enumeration oracle."""
    incidence: dict[str, list] = {}
    for (s, t, et), w in edges.items():
        incidence.setdefault(s, []).append((t, w * type_weights[et]))
        incidence.setdefault(t, []).append((s, w * type_weights[et]))
    best: dict[str, float] = {}

    def walk(node, score, depth, seen):
        if score > best.get(node, -1.0):
            best[node] = score
        if depth == max_depth:
            return
        for nxt, factor in incidence.get(node, ()):
            if nxt not in seen:
                walk(nxt, score * factor, depth + 1, seen | {nxt})

    for seed in seeds:
        walk(seed, 1.0, 0, {seed})
    return best


class TestGraphTraverse:
    def test_depth_zero_returns_seeds_with_unit_score(self):
        store = KnowledgeStore(d_emb=8)
        store.add_node("a")
        store.add_node("b")
        store.upsert_edge("a", "b", EdgeType.Covers, 0.9)
        params = RetrievalParams(traversal_depth=0)
        assert store.graph_traverse(["a"], params) == [("a", 1.0)]

    def test_single_edge_product(self):
        store = KnowledgeStore(d_emb=8)
        store.upsert_edge("a", "b", EdgeType.Covers, 0.5)
        params = RetrievalParams(
            traversal_depth=1,
            edge_type_weights={et: 0.8 for et in EdgeType},
        )
        out = dict(store.graph_traverse(["a"], params))
        assert out["b"] == pytest.approx(0.5 * 0.8, abs=1e-12)

    def test_unknown_seed_rejected(self):
        store = KnowledgeStore(d_emb=8)
        store.add_node("a")
        with pytest.raises(UnknownNode):
            store.graph_traverse(["ghost"])

    def test_diamond_takes_best_path(self):
        store = KnowledgeStore(d_emb=8)
        store.upsert_edge("s", "l", EdgeType.Covers, 0.9)
        store.upsert_edge("l", "t", EdgeType.Covers, 0.9)
        store.upsert_edge("s", "r", EdgeType.Impacts, 0.4)
        store.upsert_edge("r", "t", EdgeType.Impacts, 0.4)
        weights = {et: 1.0 for et in EdgeType}
        params = RetrievalParams(traversal_depth=2, edge_type_weights=weights)
        got = dict(store.graph_traverse(["s"], params))
        oracle = enumerate_paths(
            {k: v for k, v in zip(store._edges.keys(), store._edges.values())},
            ["s"],
            weights,
            2,
        )
        assert set(got) == set(oracle)
        for node, score in oracle.items():
            assert got[node] == pytest.approx(score, abs=1e-12)
        assert got["t"] == pytest.approx(0.81, abs=1e-12)

    def test_random_graph_matches_enumeration_oracle(self):
        rng = np.random.default_rng(11)
        store = KnowledgeStore(d_emb=8)
        nodes = [f"n{i}" for i in range(8)]
        for n in nodes:
            store.add_node(n)
        for _ in range(14):
            i, j = rng.choice(8, size=2, replace=False)
            et = EdgeType(int(rng.integers(0, 4)))
            try:
                store.upsert_edge(nodes[i], nodes[j], et, float(rng.uniform(0.1, 1.0)))
            except ValueError:
                continue
        weights = {et: float(rng.uniform(0.2, 1.0)) for et in EdgeType}
        for depth in (1, 2, 3):
            params = RetrievalParams(traversal_depth=depth, edge_type_weights=weights)
            got = dict(store.graph_traverse(["n0", "n3"], params))
            oracle = enumerate_paths(dict(store._edges), ["n0", "n3"], weights, depth)
            assert set(got) == set(oracle)
            for node in oracle:
                assert got[node] == pytest.approx(oracle[node], abs=1e-9)


class TestHybridRetrieve:
    def build(self) -> KnowledgeStore:
        store = KnowledgeStore(d_emb=2, params=RetrievalParams(similarity_threshold=0.2, top_k=6))
        store.insert_vector("v1", two_d(1.0, 0.0), "v1")
        store.insert_vector("v2", two_d(0.8, 0.6), "v2")
        store.insert_vector("v3", two_d(0.0, 1.0), "v3")
        store.upsert_edge("g1", "g2", EdgeType.Covers, 0.8)
        store.upsert_edge("g2", "g3", EdgeType.DependsOn, 0.5)
        store.add_node("v1")
        return store

    def test_vector_only_delegates(self):
        store = self.build()
        q = two_d(1.0, 0.0)
        direct = [(rec.id, sim) for rec, sim in store.vector_query(q)]
        assert store.hybrid_retrieve(q, [], RetrievalMode.VectorOnly) == direct

    def test_graph_only_delegates(self):
        store = self.build()
        direct = store.graph_traverse(["g1"])
        assert store.hybrid_retrieve(two_d(1.0, 0.0), ["g1"], RetrievalMode.GraphOnly) == direct

    def test_disjoint_sides_each_score_half(self):
        store = self.build()
        q = two_d(1.0, 0.0)
        vec = dict(store.hybrid_retrieve(q, [], RetrievalMode.VectorOnly))
        graph = dict(store.graph_traverse(["g1"]))
        hybrid = dict(store.hybrid_retrieve(q, ["g1"], RetrievalMode.Hybrid))
        # v1 appears on both sides (it is also a graph node with no edges).
        for node, score in hybrid.items():
            expected = 0.5 * vec.get(node, 0.0) + 0.5 * graph.get(node, 0.0)
            assert score == pytest.approx(expected, abs=1e-12)

    def test_six_node_ranking_matches_brute_force(self):
        store = self.build()
        q = two_d(0.6, 0.8)
        params = store.params
        vec = {rec.id: sim for rec, sim in store.vector_query(q, params)}
        graph = dict(store.graph_traverse(["g1"], params))
        combined = {
            n: 0.5 * vec.get(n, 0.0) + 0.5 * graph.get(n, 0.0) for n in set(vec) | set(graph)
        }
        expected = sorted(combined.items(), key=lambda kv: (-kv[1], kv[0]))[: params.top_k]
        got = store.hybrid_retrieve(q, ["g1"], RetrievalMode.Hybrid, params)
        assert [n for n, _ in got] == [n for n, _ in expected]
        for (_, a), (_, b) in zip(got, expected):
            assert a == pytest.approx(b, abs=1e-12)


class TestApplyKBAction:
    def test_raise_threshold_clamps_at_one(self):
        params = RetrievalParams(similarity_threshold=0.99)
        out = apply_kb_action(KBAction.RaiseThreshold, params)
        assert out.similarity_threshold == 1.0

    def test_noop_is_identity(self):
        params = RetrievalParams()
        assert apply_kb_action(KBAction.NoOp, params) == params

    def test_lower_threshold_step(self):
        params = RetrievalParams(similarity_threshold=0.50)
        out = apply_kb_action(KBAction.LowerThreshold, params)
        assert out.similarity_threshold == pytest.approx(0.48, abs=1e-12)

    def test_top_k_clamps_at_bounds(self):
        low = apply_kb_action(KBAction.DecreaseTopK, RetrievalParams(top_k=1))
        high = apply_kb_action(KBAction.IncreaseTopK, RetrievalParams(top_k=64))
        assert low.top_k == 1 and high.top_k == 64

    def test_edge_weight_actions_touch_one_type(self):
        params = RetrievalParams(edge_type_weights={et: 0.5 for et in EdgeType})
        out = apply_kb_action(boost_action(EdgeType.Impacts), params)
        assert out.edge_type_weights[EdgeType.Impacts] == pytest.approx(0.55)
        for et in EdgeType:
            if et != EdgeType.Impacts:
                assert out.edge_type_weights[et] == 0.5
        out2 = apply_kb_action(decay_action(EdgeType.Impacts), out)
        assert out2.edge_type_weights[EdgeType.Impacts] == pytest.approx(0.5)

    def test_action_space_is_thirteen(self):
        assert len(KBAction) == 13

    @given(st.lists(st.sampled_from(list(KBAction)), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_bounds_hold_after_any_action_sequence(self, actions):
        params = RetrievalParams()
        for action in actions:
            params = apply_kb_action(action, params)
        params.validate()


class TestReinforceEdges:
    def build(self) -> KnowledgeStore:
        store = KnowledgeStore(d_emb=8)
        store.upsert_edge("a", "b", EdgeType.Covers, 0.5)
        store.upsert_edge("b", "c", EdgeType.DetectedBy, 0.5)
        return store

    def test_true_defect_moves_toward_one(self):
        store = self.build()
        store.reinforce_edges(feedback_with(1, 0), {"a", "b"}, eta=0.1)
        assert store.edge_weight("a", "b", EdgeType.Covers) == pytest.approx(0.55)
        assert store.edge_weight("b", "c", EdgeType.DetectedBy) == 0.5

    def test_full_step_jumps_to_one(self):
        store = self.build()
        store.reinforce_edges(feedback_with(2, 1), {"a", "b", "c"}, eta=1.0)
        assert store.edge_weight("a", "b", EdgeType.Covers) == 1.0
        assert store.edge_weight("b", "c", EdgeType.DetectedBy) == 1.0

    def test_no_reports_leave_weights_unchanged(self):
        store = self.build()
        touched = store.reinforce_edges(feedback_with(0, 0), {"a", "b", "c"}, eta=0.5)
        assert touched == 0
        assert store.edge_weight("a", "b", EdgeType.Covers) == 0.5

    def test_false_positive_only_moves_toward_zero(self):
        store = self.build()
        store.reinforce_edges(feedback_with(0, 2), {"a", "b"}, eta=0.2)
        assert store.edge_weight("a", "b", EdgeType.Covers) == pytest.approx(0.4)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.0),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_updates(self, weight, eta, true_defect):
        store = KnowledgeStore(d_emb=8)
        store.upsert_edge("a", "b", EdgeType.Covers, weight)
        feedback = feedback_with(1, 0) if true_defect else feedback_with(0, 1)
        store.reinforce_edges(feedback, {"a", "b"}, eta)
        after = store.edge_weight("a", "b", EdgeType.Covers)
        if true_defect:
            assert after >= weight
        else:
            assert after <= weight
        assert 0.0 <= after <= 1.0

    def test_mean_edge_weight_does_not_depend_on_insertion_order(self):
        # 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 differ in the last bit.
        weights = [0.1, 0.2, 0.3]
        ascending, descending = KnowledgeStore(d_emb=8), KnowledgeStore(d_emb=8)
        for i, w in enumerate(weights):
            ascending.upsert_edge(f"n{i}", f"m{i}", EdgeType.Covers, w)
        for i, w in reversed(list(enumerate(weights))):
            descending.upsert_edge(f"n{i}", f"m{i}", EdgeType.Covers, w)
        assert ascending.mean_edge_weight() == descending.mean_edge_weight() == math.fsum(weights) / 3


class TestSnapshot:
    def test_round_trip_is_byte_stable(self, tmp_path):
        store = KnowledgeStore(d_emb=8)
        store.insert_vector("a", embed(["alpha"], 8), "a", usefulness=0.7)
        store.upsert_edge("a", "b", EdgeType.Covers, 0.4)
        p1 = tmp_path / "snap1.json"
        p2 = tmp_path / "snap2.json"
        store.save_snapshot(p1)
        loaded = KnowledgeStore.load_snapshot(p1)
        loaded.save_snapshot(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_snapshot_carries_schema_version(self, tmp_path):
        store = KnowledgeStore(d_emb=8)
        path = tmp_path / "snap.json"
        store.save_snapshot(path)
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == 1

    def test_unsupported_version_rejected(self):
        with pytest.raises(ValueError):
            KnowledgeStore.from_snapshot_dict({"schema_version": 99})

    def test_out_of_range_params_rejected(self):
        payload = KnowledgeStore(d_emb=8).snapshot_dict()
        payload["retrieval_params"]["similarity_threshold"] = 1.5
        with pytest.raises(ValueError, match="similarity_threshold"):
            KnowledgeStore.from_snapshot_dict(payload)

    def small_snapshot(self) -> dict:
        store = KnowledgeStore(d_emb=8)
        store.insert_vector("a", embed(["alpha"], 8), "a")
        store.upsert_edge("a", "b", EdgeType.Covers, 0.4)
        return store.snapshot_dict()

    def test_misspelt_section_rejected(self):
        payload = self.small_snapshot()
        payload["graph_edgs"] = payload.pop("graph_edges")
        with pytest.raises(MalformedRecord, match="graph_edgs") as exc:
            KnowledgeStore.from_snapshot_dict(payload)
        assert "graph_edges" in str(exc.value)

    @pytest.mark.parametrize("section", ["graph_edges", "graph_nodes", "vector_records"])
    def test_missing_section_rejected(self, section):
        payload = self.small_snapshot()
        del payload[section]
        with pytest.raises(MalformedRecord, match=section):
            KnowledgeStore.from_snapshot_dict(payload)

    def test_unknown_top_level_key_rejected(self):
        payload = self.small_snapshot()
        payload["comment"] = "hand edited"
        with pytest.raises(MalformedRecord, match="comment"):
            KnowledgeStore.from_snapshot_dict(payload)

    def test_unknown_vector_record_key_rejected(self):
        payload = self.small_snapshot()
        payload["vector_records"][0]["usefullness"] = 0.9
        with pytest.raises(MalformedRecord, match="usefullness"):
            KnowledgeStore.from_snapshot_dict(payload)

    def test_unknown_edge_key_rejected(self):
        payload = self.small_snapshot()
        payload["graph_edges"][0]["wieght"] = 0.9
        with pytest.raises(MalformedRecord, match="wieght"):
            KnowledgeStore.from_snapshot_dict(payload)

    def test_usefulness_may_be_left_out(self):
        payload = self.small_snapshot()
        del payload["vector_records"][0]["usefulness"]
        assert KnowledgeStore.from_snapshot_dict(payload).get_record("a").usefulness == 0.5

    def test_loaded_rows_and_norms_equal_inserted_ones(self):
        rng = np.random.default_rng(0)
        store = KnowledgeStore(d_emb=32)
        for i in rng.permutation(300):
            tokens = [f"t{j}" for j in rng.integers(0, 50, size=5)]
            store.insert_vector(f"r{i:03d}", embed(tokens, 32), f"p{i}", usefulness=float(rng.random()))
        loaded = KnowledgeStore.from_snapshot_dict(store.snapshot_dict())
        n = store.vector_count
        rows = [store._row[rid] for rid in loaded._ids]
        assert np.array_equal(loaded._matrix[:n], store._matrix[rows])
        assert np.array_equal(loaded._norms[:n], store._norms[rows])
        for i in range(5):
            query = embed([f"t{i}", f"t{i + 1}"], 32)
            assert loaded.vector_query(query) == store.vector_query(query)

    @pytest.mark.parametrize(
        "embedding, problem",
        [
            ([0.5] * 4, "shape"),
            ([[0.5, 0.5]] + [0.5] * 7, "not a vector of numbers"),
            ([1.0] * 8, "norm"),
            ([math.nan] + [0.0] * 7, "norm"),
        ],
    )
    def test_bad_embedding_rejected_naming_its_record(self, embedding, problem):
        payload = self.small_snapshot()
        payload["vector_records"].append({"id": "bad-rec", "embedding": embedding, "payload_ref": "x"})
        with pytest.raises(ValueError, match=f"'bad-rec'.*{problem}"):
            KnowledgeStore.from_snapshot_dict(payload)

    def test_duplicate_record_id_rejected(self):
        payload = self.small_snapshot()
        payload["vector_records"].append(dict(payload["vector_records"][0], payload_ref="other"))
        with pytest.raises(ValueError, match="'a'.*duplicate"):
            KnowledgeStore.from_snapshot_dict(payload)

    def test_awkward_strings_round_trip_byte_identically(self, tmp_path):
        store = KnowledgeStore(d_emb=8)
        names = ["a, b", 'say "hi", then go', "two\nlines\ttab\\", "naïve ☃ 測試 🚀"]
        for i, name in enumerate(names):
            store.insert_vector(name, embed([name], 8), names[-1 - i])
        store.upsert_edge(names[0], names[2], EdgeType.Covers, 0.4)
        store.upsert_edge(names[3], names[1], EdgeType.DetectedBy, 0.7)
        p1, p2 = tmp_path / "snap1.json", tmp_path / "snap2.json"
        store.save_snapshot(p1)
        assert p1.read_text(encoding="utf-8") == json.dumps(store.snapshot_dict(), sort_keys=True, indent=2) + "\n"
        loaded = KnowledgeStore.load_snapshot(p1)
        assert [loaded.get_record(name).payload_ref for name in names] == names[::-1]
        loaded.save_snapshot(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_snapshot_is_a_value_error(self):
        # The checkpoint reader maps ValueError to SchemaVersionMismatch and
        # the CLI maps it to exit code 2.
        assert issubclass(MalformedRecord, ValueError)

    def test_failed_save_keeps_previous_snapshot(self, tmp_path, monkeypatch):
        store = KnowledgeStore(d_emb=8)
        store.insert_vector("a", embed(["alpha"], 8), "a")
        path = tmp_path / "snap.json"
        store.save_snapshot(path)
        before = path.read_bytes()
        store.upsert_edge("a", "b", EdgeType.Covers, 0.4)

        def dump_half_then_fail(obj, fh, indent=None):
            text = json.dumps(obj, sort_keys=True, indent=indent)
            fh.write(text[: len(text) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(knowledge, "dump_json", dump_half_then_fail)
        with pytest.raises(OSError, match="disk full"):
            store.save_snapshot(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["snap.json"]

    def test_self_loop_rejected(self):
        store = KnowledgeStore(d_emb=8)
        with pytest.raises(ValueError):
            store.upsert_edge("a", "a", EdgeType.Covers, 0.5)
