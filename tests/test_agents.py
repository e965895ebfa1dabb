import hashlib

import numpy as np
import pytest

from qeloop.agents import (
    Agent,
    PerformanceTracker,
    STATE_DIM,
    action_space_size,
    decode_action,
    featurize_state,
    generate_test_cases,
    modifier_vector,
    record_feedback,
    requirement_summary,
    strategy_signature,
)
from qeloop.domain import (
    AgentRole,
    DefectReport,
    FeedbackRecord,
    GenerationStrategy,
    Requirement,
    RetrievalMode,
    Severity,
)
from qeloop.knowledge import EdgeType, KnowledgeStore, RetrievalParams, embed
from qeloop.ppo import policy_value_forward
from qeloop.rl_core import softmax_policy


def rng(seed):
    return np.random.default_rng(seed)


def feedback(true_count=0, fp_count=0, quality=1.0, severity=Severity.Medium):
    defects = tuple(
        DefectReport(f"r{i}", "tc", severity, False, f"def-{i}") for i in range(true_count)
    ) + tuple(DefectReport(f"f{i}", "tc", Severity.Low, True, None) for i in range(fp_count))
    return FeedbackRecord("tc", defects, 1.0, 1.0, quality, 0.5, 0.5, 1.0, 0.5)


def action_probabilities(agent, state):
    logits, _ = policy_value_forward(agent.params, state[None, :])
    return softmax_policy(logits[0])[0]


class TestActionSpaces:
    def test_sizes_per_role(self):
        assert action_space_size(AgentRole.TestCaseGeneration) == 15
        assert action_space_size(AgentRole.IntegrationPoint) == 6
        assert action_space_size(AgentRole.LegacyTestAnalysis) == 4
        assert action_space_size(AgentRole.FunctionalChangeMapping) == 4
        assert action_space_size(AgentRole.ComplianceValidation) == 3

    def test_generator_decode_covers_all_pairs(self):
        seen = set()
        for i in range(15):
            a = decode_action(AgentRole.TestCaseGeneration, i)
            seen.add((a.strategy, a.retrieval_mode))
        assert len(seen) == 15

    def test_integration_point_strategies_restricted(self):
        strategies = {
            decode_action(AgentRole.IntegrationPoint, i).strategy for i in range(6)
        }
        assert strategies == {GenerationStrategy.Integration, GenerationStrategy.RegressionDerived}

    def test_modifier_action_is_its_index(self):
        a = decode_action(AgentRole.ComplianceValidation, 2)
        assert a.index == 2 and a.strategy is None and a.retrieval_mode is None

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            decode_action(AgentRole.ComplianceValidation, 3)


class TestTracker:
    def test_empty_aggregates_are_zero(self):
        tracker = PerformanceTracker(10)
        assert tracker.aggregates() == (0.0, 0.0, 0.0, 0.0)
        assert tracker.reward_features() == (0.0, 0.0)

    def test_defect_rate_hand_value(self):
        tracker = PerformanceTracker(10)
        tracker.push_record(feedback(true_count=1))
        tracker.push_record(feedback(true_count=0))
        defect_rate, fp_rate, mean_sev, quality = tracker.aggregates()
        assert defect_rate == 0.5
        assert fp_rate == 0.0
        assert mean_sev == pytest.approx(int(Severity.Medium) / 3.0)
        assert quality == 1.0

    def test_window_evicts_oldest(self):
        tracker = PerformanceTracker(3)
        for i in range(4):
            tracker.push_record(feedback(true_count=1 if i == 0 else 0))
        assert len(tracker.records) == 3
        assert tracker.aggregates()[0] == 0.0  # the only defect got evicted

    def test_aggregates_match_recompute_from_scratch(self):
        tracker = PerformanceTracker(50)
        raw = [feedback(1, 0, 0.9), feedback(0, 1, 0.0), feedback(2, 0, 1.0, Severity.Critical)]
        for fb in raw:
            tracker.push_record(fb)
        n = len(raw)
        trues = sum(len(f.true_defects()) for f in raw)
        fps = sum(len(f.false_positives()) for f in raw)
        sev = sum(int(d.severity) for f in raw for d in f.true_defects())
        expected = (
            min(1.0, trues / n),
            min(1.0, fps / n),
            (sev / trues) / 3.0,
            sum(f.quality_rating for f in raw) / n,
        )
        assert tracker.aggregates() == pytest.approx(expected)

    def test_state_round_trip(self):
        tracker = PerformanceTracker(5)
        tracker.push_record(feedback(1, 1, 0.5))
        tracker.push_reward(0.7)
        clone = PerformanceTracker(5)
        clone.load_state_dict(tracker.state_dict())
        assert list(clone.totals) == list(tracker.totals) == [0.7]
        assert clone.aggregates() == tracker.aggregates()
        assert clone.reward_features() == tracker.reward_features() == (np.tanh(0.7), np.tanh(0.0))


REQ = Requirement("req-1", "checkout applies volume discount", frozenset({"billing"}))


class TestFeaturize:
    def test_dimension_and_bounds(self):
        state = featurize_state(requirement_summary(REQ), PerformanceTracker(10), RetrievalParams(), 0.4)
        assert state.shape == (STATE_DIM,)
        assert np.all(state >= -1.0) and np.all(state <= 1.0)

    def test_empty_history_slots_are_zero(self):
        state = featurize_state(requirement_summary(REQ), PerformanceTracker(10), RetrievalParams(), 0.0)
        assert np.array_equal(state[8:12], np.zeros(4))
        assert state[14] == 0.0 and state[15] == 0.0

    def test_deterministic(self):
        tracker = PerformanceTracker(10)
        tracker.push_record(feedback(1))
        a = featurize_state(requirement_summary(REQ), tracker, RetrievalParams(), 0.3)
        b = featurize_state(requirement_summary(REQ), tracker, RetrievalParams(), 0.3)
        assert np.array_equal(a, b)

    def test_state_reflects_a_pushed_record(self):
        tracker = PerformanceTracker(5)
        tracker.push_record(feedback(true_count=1))
        tracker.push_reward(0.5)
        state = featurize_state(requirement_summary(REQ), tracker, RetrievalParams(), 0.0)
        assert state[8] == 1.0  # the defect rate slot sees the record
        assert state[14] == np.tanh(0.5)  # the reward mean slot sees the total


class TestAct:
    def uniform_agent(self, role=AgentRole.TestCaseGeneration):
        agent = Agent(role, rng(0), 3e-4)
        for w in agent.params.weights:
            w[...] = 0.0
        for b in agent.params.biases:
            b[...] = 0.0
        return agent

    def test_deterministic_flag_takes_argmax_lowest_tie(self):
        agent = self.uniform_agent()
        state = np.zeros(STATE_DIM)
        action, _ = agent.act(state, rng(1), deterministic=True)
        assert action.index == 0  # all logits tie at zero

    def test_fixed_seed_reproducible_sequence(self):
        def seq(seed):
            agent = Agent(AgentRole.TestCaseGeneration, rng(3), 3e-4)
            g = rng(seed)
            return [agent.act(np.zeros(STATE_DIM), g)[0].index for _ in range(30)]

        assert seq(5) == seq(5)

    def test_log_prob_matches_policy(self):
        agent = self.uniform_agent()
        _, log_prob = agent.act(np.zeros(STATE_DIM), rng(2))
        assert log_prob == pytest.approx(np.log(1 / 15), abs=1e-12)

    @pytest.mark.slow
    def test_uniform_policy_frequencies(self):
        agent = self.uniform_agent()
        probs = action_probabilities(agent, np.zeros(STATE_DIM))
        from qeloop.rl_core import sample_action

        g = rng(11)
        counts = np.zeros(15)
        draws = 100_000
        for _ in range(draws):
            counts[sample_action(probs, g)] += 1
        assert np.abs(counts / draws - 1 / 15).max() < 0.02

    def test_sampled_indices_always_in_range(self):
        for role in AgentRole:
            agent = Agent(role, rng(int(role)), 3e-4)
            g = rng(100 + int(role))
            size = action_space_size(role)
            for _ in range(500):
                action, _ = agent.act(rng(7).normal(size=STATE_DIM) * 0.1, g)
                assert 0 <= action.index < size

    @pytest.mark.slow
    def test_million_draw_fuzz_stays_in_range(self):
        from qeloop.rl_core import sample_action

        g = rng(99)
        for role in AgentRole:
            agent = Agent(role, rng(int(role) + 10), 3e-4)
            probs = action_probabilities(agent, g.normal(size=STATE_DIM) * 0.2)
            size = action_space_size(role)
            draws = 1_000_000 // len(AgentRole)
            for _ in range(draws):
                assert 0 <= sample_action(probs, g) < size


class TestGenerate:
    def build_kb(self):
        kb = KnowledgeStore(d_emb=64, params=RetrievalParams(similarity_threshold=0.2, top_k=4))
        kb.insert_vector("req-1", embed(REQ.text.split() + [REQ.id], 64), "req-1")
        kb.add_node("req-1")
        return kb

    def context(self, kb, content=None, n_tests=3, modifier=None):
        """The arguments after the knowledge store, at a coverage width of 16."""
        return (content or {}, np.zeros(16) if modifier is None else modifier, n_tests)

    def gen_action(self, strategy=GenerationStrategy.Boundary, mode=RetrievalMode.VectorOnly):
        index = int(strategy) * 3 + int(mode)
        return decode_action(AgentRole.TestCaseGeneration, index)

    def test_emits_exactly_n_tests_with_valid_coverage(self):
        kb = self.build_kb()
        tests, _ = generate_test_cases(self.gen_action(), REQ, kb, *self.context(kb, n_tests=4))
        assert len(tests) == 4
        for t in tests:
            vec = np.asarray(t.coverage_vector)
            assert vec.shape == (16,)
            assert np.all(vec >= 0.0) and np.all(vec <= 1.0)

    def test_empty_context_uses_anchored_signature_only(self):
        kb = KnowledgeStore(d_emb=64, params=RetrievalParams(similarity_threshold=0.2, top_k=4))
        action = self.gen_action(mode=RetrievalMode.VectorOnly)
        tests, context_ids = generate_test_cases(action, REQ, kb, *self.context(kb, n_tests=1))
        assert context_ids == []
        expected = 0.6 * strategy_signature(GenerationStrategy.Boundary, 16)
        assert np.allclose(np.asarray(tests[0].coverage_vector), expected, atol=1e-12)

    def test_graph_only_without_a_requirement_node_retrieves_nothing(self):
        kb = KnowledgeStore(d_emb=64, params=RetrievalParams(similarity_threshold=0.0, top_k=4))
        kb.insert_vector("tc-a", embed(REQ.text.split() + ["tc-a"], 64), "tc-a")
        kb.upsert_edge("tc-a", "req-2", EdgeType.Covers, 0.9)
        action = self.gen_action(mode=RetrievalMode.GraphOnly)
        _, context_ids = generate_test_cases(action, REQ, kb, *self.context(kb, n_tests=1))
        assert context_ids == []

    def test_two_record_context_blend_matches_hand_computation(self):
        kb = self.build_kb()
        kb.insert_vector("tc-a", embed(REQ.text.split() + ["tc-a"], 64), "tc-a")
        kb.insert_vector("tc-b", embed(REQ.text.split() + ["tc-b"], 64), "tc-b")
        vec_a = np.full(16, 0.8)
        vec_b = np.full(16, 0.2)
        content = {"tc-a": vec_a, "tc-b": vec_b, "req-1": np.zeros(16)}
        action = self.gen_action(mode=RetrievalMode.VectorOnly)
        tests, context_ids = generate_test_cases(action, REQ, kb, *self.context(kb, content, n_tests=1))
        retrieved_vecs = [content[i] for i in context_ids if i in content]
        ctx_mean = np.mean(retrieved_vecs, axis=0)
        expected = np.clip(
            0.6 * strategy_signature(GenerationStrategy.Boundary, 16) + 0.4 * ctx_mean, 0, 1
        )
        assert np.allclose(np.asarray(tests[0].coverage_vector), expected, atol=1e-12)

    def test_same_inputs_identical_tests_including_ids(self):
        kb = self.build_kb()
        a, _ = generate_test_cases(self.gen_action(), REQ, kb, *self.context(kb))
        b, _ = generate_test_cases(self.gen_action(), REQ, kb, *self.context(kb))
        assert a == b
        assert len({t.id for t in a}) == len(a)  # ids distinct across the batch

    def test_modifier_delta_shifts_signature(self):
        kb = self.build_kb()
        delta = 0.15 * modifier_vector(AgentRole.LegacyTestAnalysis, 1, 16)
        plain, _ = generate_test_cases(self.gen_action(), REQ, kb, *self.context(kb, n_tests=1))
        nudged, _ = generate_test_cases(
            self.gen_action(), REQ, kb, *self.context(kb, n_tests=1, modifier=delta)
        )
        assert not np.array_equal(
            np.asarray(plain[0].coverage_vector), np.asarray(nudged[0].coverage_vector)
        )

    @staticmethod
    def reference_test_case_id(requirement_id, strategy, mode, coverage, index, role):
        # The id formula as it stood when each test built its own payload.
        payload = "|".join(
            [
                requirement_id,
                strategy.name,
                mode.name,
                ",".join(repr(x) for x in coverage),
                str(index),
                role.name,
            ]
        )
        return "tc-" + hashlib.blake2b(payload.encode("utf-8"), digest_size=8).hexdigest()

    @pytest.mark.parametrize("strategy", list(GenerationStrategy))
    @pytest.mark.parametrize("mode", list(RetrievalMode))
    def test_ids_match_the_reference_formula(self, strategy, mode):
        kb = self.build_kb()
        kb.insert_vector("tc-a", embed(REQ.text.split() + ["tc-a"], 64), "tc-a")
        kb.upsert_edge("tc-a", "req-1", EdgeType.Covers, 0.5)
        content = {"tc-a": np.full(16, 1 / 3), "req-1": np.linspace(0.0, 1.0, 16)}
        action = self.gen_action(strategy, mode)
        tests, _ = generate_test_cases(action, REQ, kb, *self.context(kb, content, n_tests=12))
        expected = [
            self.reference_test_case_id(REQ.id, strategy, mode, t.coverage_vector, i, action.role)
            for i, t in enumerate(tests)
        ]
        assert [t.id for t in tests] == expected

    def test_modifier_action_cannot_generate(self):
        kb = self.build_kb()
        action = decode_action(AgentRole.ComplianceValidation, 0)
        with pytest.raises(ValueError):
            generate_test_cases(action, REQ, kb, *self.context(kb))


class TestRecordFeedback:
    def test_transition_fields(self):
        agent = Agent(AgentRole.TestCaseGeneration, rng(0), 3e-4)
        state = np.zeros(STATE_DIM)
        for i in range(4):
            agent.act(state, rng(i))
            record_feedback(agent, 0.25)
        assert agent.pending is None
        last = agent.rollout_steps - 1
        assert agent.rollout.rewards[last] == 0.25
        assert agent.rollout.log_probs[last] <= 0.0
        assert np.array_equal(agent.rollout.states[last], state)
        assert agent.rollout_steps == 4

    def test_zero_reward_passes_through(self):
        agent = Agent(AgentRole.ComplianceValidation, rng(0), 3e-4)
        agent.rollout.rewards[0] = 1.0
        agent.act(np.zeros(STATE_DIM), rng(1))
        record_feedback(agent, 0.0)
        assert agent.rollout.rewards[0] == 0.0

    def test_requires_pending_action(self):
        agent = Agent(AgentRole.TestCaseGeneration, rng(0), 3e-4)
        with pytest.raises(ValueError):
            record_feedback(agent, 0.5)

    def test_full_rollout_rejected(self):
        agent = Agent(AgentRole.TestCaseGeneration, rng(0), 3e-4, rollout_length=2)
        for i in range(2):
            agent.act(np.zeros(STATE_DIM), rng(i))
            record_feedback(agent, 0.5)
        agent.act(np.zeros(STATE_DIM), rng(2))
        with pytest.raises(ValueError, match="rollout is full"):
            record_feedback(agent, 0.5)
        assert agent.rollout_steps == 2 and agent.pending is not None
