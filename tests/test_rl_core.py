import math

import numpy as np
import pytest

from qeloop.rl_core import (
    Adam,
    DimensionMismatch,
    ExperienceBuffer,
    MLPParameters,
    RLCoreError,
    RngStreams,
    Transition,
    backward,
    forward,
    forward_cached,
    gradient_check,
    sample_action,
    softmax_policy,
    xavier_init,
)


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def naive_forward(params: MLPParameters, x: np.ndarray) -> np.ndarray:
    """Loop-based reimplementation used as an independent oracle."""
    a = [float(v) for v in x]
    n_layers = len(params.weights)
    for layer in range(n_layers):
        w, b = params.weights[layer], params.biases[layer]
        out = []
        for i in range(w.shape[0]):
            acc = float(b[i])
            for j in range(w.shape[1]):
                acc += float(w[i, j]) * a[j]
            out.append(acc if layer == n_layers - 1 else math.tanh(acc))
        a = out
    return np.asarray(a)


class TestForward:
    def test_zero_network_gives_zero_output(self):
        params = xavier_init((3, 4, 2), rng(0))
        for w in params.weights:
            w[...] = 0.0
        assert np.array_equal(forward(params, np.ones(3)), np.zeros(2))

    def test_single_affine_unit(self):
        params = MLPParameters((1, 1), np.array([2.5, 0.75]))
        assert forward(params, np.array([2.0]))[0] == pytest.approx(2.5 * 2.0 + 0.75, abs=1e-15)

    def test_matches_naive_reimplementation(self):
        params = xavier_init((4, 16, 16, 3), rng(42))
        x = rng(43).normal(size=4)
        assert np.max(np.abs(forward(params, x) - naive_forward(params, x))) < 1e-10

    def test_batched_forward_matches_per_row(self):
        params = xavier_init((5, 8, 2), rng(1))
        batch = rng(2).normal(size=(6, 5))
        out = forward(params, batch)
        for i in range(6):
            assert np.allclose(out[i], forward(params, batch[i]), atol=1e-14)

    def test_dimension_mismatch_rejected(self):
        params = xavier_init((4, 8, 2), rng(0))
        with pytest.raises(DimensionMismatch):
            forward(params, np.ones(5))

    def test_forward_is_pure(self):
        params = xavier_init((4, 8, 2), rng(5))
        x = rng(6).normal(size=4)
        assert np.array_equal(forward(params, x), forward(params, x))


def backward_at(params, x, out_grad):
    """``backward`` for one input vector, through ``forward_cached``'s activations."""
    _, activations = forward_cached(params, np.asarray(x, dtype=np.float64)[None, :])
    return backward(params, activations, np.asarray(out_grad, dtype=np.float64)[None, :])


def finite_difference(params, x, out_grad, h=1e-5):
    """Independent central-difference oracle (distinct from the library's)."""
    def objective():
        return float(np.sum(forward(params, x) * out_grad))

    grads = []
    for arr in params.weights + params.biases:
        g = np.zeros_like(arr)
        flat, gflat = arr.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = objective()
            flat[i] = orig - h
            lo = objective()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * h)
        grads.append(g)
    return grads


class TestBackward:
    def test_zero_output_gradient_gives_zero_parameter_gradient(self):
        params = xavier_init((3, 6, 2), rng(0))
        grads = backward_at(params, rng(1).normal(size=3), np.zeros(2))
        for g in grads.weights + grads.biases:
            assert np.array_equal(g, np.zeros_like(g))

    def test_affine_unit_weight_gradient_equals_input(self):
        params = MLPParameters((1, 1), np.array([1.7, 0.2]))
        grads = backward_at(params, np.array([3.25]), np.array([1.0]))
        assert grads.weights[0][0, 0] == pytest.approx(3.25, abs=1e-15)
        assert grads.biases[0][0] == pytest.approx(1.0, abs=1e-15)

    def test_matches_independent_finite_differences(self):
        for seed in range(4):
            params = xavier_init((4, 8, 6, 3), rng(seed))
            x = rng(seed + 100).normal(size=4)
            out_grad = rng(seed + 200).normal(size=3)
            analytic = backward_at(params, x, out_grad)
            numeric = finite_difference(params, x, out_grad)
            for a, n in zip(analytic.weights + analytic.biases, numeric):
                scale = max(np.abs(a).max(), np.abs(n).max(), 1e-12)
                assert np.abs(a - n).max() / scale < 1e-4

    def test_gradient_check_utility_passes(self):
        assert gradient_check(n_seeds=3) < 1e-4

    @pytest.mark.parametrize("shape", [(1, 3), (2, 2), (3,)])
    def test_output_gradient_shape_mismatch_rejected(self, shape):
        params = xavier_init((4, 5, 2), rng(0))
        _, activations = forward_cached(params, rng(1).normal(size=(1, 4)))
        with pytest.raises(DimensionMismatch):
            backward(params, activations, np.ones(shape))


def layer_arrays(params: MLPParameters) -> list[np.ndarray]:
    return params.weights + params.biases


class TestFlatLayout:
    def test_layers_are_views_into_their_own_flat_buffer(self):
        params = xavier_init((4, 8, 6, 3), rng(0))
        grads = backward_at(params, rng(1).normal(size=4), rng(2).normal(size=3))
        for p in (params, params.copy(), MLPParameters.from_dict(params.to_dict()), grads):
            assert p.flat.dtype == np.float64
            assert p.flat.size == sum(a.size for a in layer_arrays(p))
            for arr in layer_arrays(p):
                assert np.shares_memory(arr, p.flat)

    def test_layout_is_w0_b0_w1_b1(self):
        params = MLPParameters((2, 3, 1), np.arange(13, dtype=np.float64))
        assert np.array_equal(params.weights[0], np.arange(6.0).reshape(3, 2))
        assert np.array_equal(params.biases[0], np.arange(6.0, 9.0))
        assert np.array_equal(params.weights[1], np.arange(9.0, 12.0).reshape(1, 3))
        assert np.array_equal(params.biases[1], np.array([12.0]))

    def test_wrong_flat_size_rejected(self):
        with pytest.raises(DimensionMismatch):
            MLPParameters((2, 3, 1), np.zeros(12))

    def test_copy_from_dict_and_backward_share_no_memory_with_their_source(self):
        params = xavier_init((4, 8, 3), rng(0))
        x = rng(1).normal(size=(5, 4))
        _, activations = forward_cached(params, x)
        grads = backward(params, activations, rng(2).normal(size=(5, 3)))
        sources = [params.flat, x] + activations
        for derived in (params.copy(), MLPParameters.from_dict(params.to_dict()), grads):
            for arr in [derived.flat] + layer_arrays(derived):
                assert not any(np.shares_memory(arr, src) for src in sources)


class TestSoftmax:
    def test_uniform_logits(self):
        probs, _ = softmax_policy(np.zeros(7))
        assert np.allclose(probs, np.full(7, 1 / 7), atol=1e-15)
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_shift_invariance(self):
        logits = np.array([0.3, -1.2, 2.0])
        p1, _ = softmax_policy(logits)
        p2, _ = softmax_policy(logits + 123.0)
        assert np.allclose(p1, p2, atol=1e-12)

    def test_hand_computed_values(self):
        probs, log_probs = softmax_policy(np.array([1.0, 2.0, 3.0]))
        denom = math.exp(1) + math.exp(2) + math.exp(3)
        for i, z in enumerate((1.0, 2.0, 3.0)):
            assert probs[i] == pytest.approx(math.exp(z) / denom, abs=1e-12)
            assert log_probs[i] == pytest.approx(z - math.log(denom), abs=1e-12)

    def test_extreme_logits_stay_finite(self):
        probs, log_probs = softmax_policy(np.array([1e4, -1e4, 0.0]))
        assert np.isfinite(probs).all() and np.isfinite(log_probs[0])
        assert abs(probs.sum() - 1.0) < 1e-12


class TestSampleAction:
    def test_point_mass_always_selected(self):
        g = rng(0)
        for _ in range(100):
            assert sample_action(np.array([0.0, 0.0, 1.0, 0.0]), g) == 2

    def test_fixed_seed_reproducible(self):
        p = np.array([0.1, 0.2, 0.3, 0.4])
        g1, g2 = rng(9), rng(9)
        assert [sample_action(p, g1) for _ in range(50)] == [sample_action(p, g2) for _ in range(50)]

    def test_law_of_large_numbers(self):
        p = np.array([0.2, 0.8])
        g = rng(123)
        draws = np.array([sample_action(p, g) for _ in range(100_000)])
        freq1 = float(np.mean(draws == 1))
        assert abs(freq1 - 0.8) < 0.01


class TestAdam:
    def test_descends_a_quadratic(self):
        params = MLPParameters((1, 1), np.array([5.0, 0.0]))
        adam = Adam(params, learning_rate=0.1)
        for _ in range(500):
            w = params.weights[0][0, 0]
            grads = backward_at(params, np.array([1.0]), np.array([2 * (w * 1.0 + params.biases[0][0])]))
            adam.step(params, grads)
        # minimizing (w + b)^2 drives the output to zero
        assert abs(params.weights[0][0, 0] + params.biases[0][0]) < 1e-3

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_rejected(self, bad):
        params = xavier_init((3, 4, 2), rng(0))
        adam = Adam(params, 1e-3)
        grads = backward_at(params, rng(1).normal(size=3), rng(2).normal(size=2))
        grads.biases[0][1] = bad
        with np.errstate(invalid="ignore"), pytest.raises(RLCoreError):
            adam.step(params, grads)

    def test_state_round_trip(self):
        params = xavier_init((3, 4, 2), rng(0))
        adam = Adam(params, 1e-3)
        grads = backward_at(params, rng(1).normal(size=3), rng(2).normal(size=2))
        adam.step(params, grads)
        snapshot = adam.state_dict()
        restored = Adam(params, 1e-3)
        restored.load_state_dict(snapshot)
        assert restored.t == adam.t
        assert np.array_equal(restored.m, adam.m) and np.array_equal(restored.v, adam.v)
        assert restored.state_dict() == snapshot


class TestExperienceBuffer:
    def make_transition(self, i: int) -> Transition:
        return Transition(np.array([float(i)]), i, float(i), np.array([float(i + 1)]), False)

    def test_ring_keeps_last_capacity_in_order(self):
        buf = ExperienceBuffer(5, rng(0))
        for i in range(12):
            buf.insert(self.make_transition(i))
        assert len(buf) == 5
        assert [t.action for t in buf.ordered()] == [7, 8, 9, 10, 11]
        assert buf.inserted == 12

    def test_under_capacity_order(self):
        buf = ExperienceBuffer(10, rng(0))
        for i in range(3):
            buf.insert(self.make_transition(i))
        assert [t.action for t in buf.ordered()] == [0, 1, 2]

    def test_seeded_sampling_reproducible(self):
        def build(seed):
            buf = ExperienceBuffer(8, rng(seed))
            for i in range(8):
                buf.insert(self.make_transition(i))
            return buf

        a, b = build(5), build(5)
        assert np.array_equal(a.sample_indices(4), b.sample_indices(4))
        assert np.array_equal(a.sample_indices(4), b.sample_indices(4))

    def test_oversized_sample_rejected(self):
        buf = ExperienceBuffer(8, rng(0))
        buf.insert(self.make_transition(0))
        with pytest.raises(ValueError):
            buf.sample(2)


class TestRngStreams:
    def test_named_streams_are_independent(self):
        streams = RngStreams(7)
        a_first = streams.get("alpha").random()
        # Drawing more from another stream must not affect alpha's sequence.
        fresh = RngStreams(7)
        for _ in range(100):
            fresh.get("beta").random()
        assert fresh.get("alpha").random() == a_first

    def test_same_seed_same_streams(self):
        assert RngStreams(3).get("x").random() == RngStreams(3).get("x").random()

    def test_different_seeds_differ(self):
        assert RngStreams(3).get("x").random() != RngStreams(4).get("x").random()

    def test_state_round_trip_resumes_sequence(self):
        streams = RngStreams(11)
        streams.get("env").random()
        saved = streams.state_dict()
        expected = [streams.get("env").random() for _ in range(5)]
        fresh = RngStreams(11)
        fresh.get("env")
        fresh.load_state_dict(saved)
        got = [fresh.get("env").random() for _ in range(5)]
        assert got == expected

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RngStreams(-1)


class TestParameterSerialization:
    def test_round_trip_is_exact(self):
        params = xavier_init((4, 8, 3), rng(0))
        clone = MLPParameters.from_dict(params.to_dict())
        assert clone.equals(params)

    def test_weights_stored_as_decimal_strings(self):
        payload = xavier_init((2, 2), rng(0)).to_dict()
        assert isinstance(payload["weights"][0][0], str)

    def test_unsupported_version_rejected(self):
        payload = xavier_init((2, 2), rng(0)).to_dict()
        payload["schema_version"] = 9
        with pytest.raises(ValueError):
            MLPParameters.from_dict(payload)
