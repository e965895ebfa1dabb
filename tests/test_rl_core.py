import base64
import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeloop.rl_core import (
    Adam,
    ExperienceBuffer,
    MLPParameters,
    ReplayBatch,
    RngStreams,
    Transition,
    backward,
    columns_dict,
    encode_floats,
    forward,
    forward_cached,
    gradient_check,
    load_columns,
    load_count,
    load_floats,
    load_vector,
    parse_json,
    sample_action,
    softmax_policy,
    xavier_init,
)


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def edit_bytes(text: str, edit) -> str:
    """``text``, base64 of float64 bytes, with ``edit`` applied to its bytes."""
    return base64.b64encode(edit(base64.b64decode(text))).decode("ascii")


def one_more(raw: bytes) -> bytes:
    return raw + bytes(8)


def one_less(raw: bytes) -> bytes:
    return raw[:-8]


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
        with pytest.raises(ValueError, match=r"^input dim 5 != 4$"):
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
        with pytest.raises(ValueError, match=r"^output_gradient shape .* != \(1, 2\)$"):
            backward(params, activations, np.ones(shape))


def layer_arrays(params: MLPParameters) -> list[np.ndarray]:
    return params.weights + params.biases


def reloaded(params: MLPParameters) -> MLPParameters:
    """A new network of the same topology loaded from ``params.to_dict()``."""
    out = MLPParameters(params.layer_sizes)
    out.load_dict(params.to_dict())
    return out


class TestFlatLayout:
    def test_layers_are_views_into_their_own_flat_buffer(self):
        params = xavier_init((4, 8, 6, 3), rng(0))
        grads = backward_at(params, rng(1).normal(size=4), rng(2).normal(size=3))
        for p in (params, params.copy(), reloaded(params), grads):
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
        with pytest.raises(ValueError, match=r"^flat buffer float64\(12,\) != float64\(13,\)$"):
            MLPParameters((2, 3, 1), np.zeros(12))

    def test_copy_from_dict_and_backward_share_no_memory_with_their_source(self):
        params = xavier_init((4, 8, 3), rng(0))
        x = rng(1).normal(size=(5, 4))
        _, activations = forward_cached(params, x)
        grads = backward(params, activations, rng(2).normal(size=(5, 3)))
        sources = [params.flat, x] + activations
        for derived in (params.copy(), reloaded(params), grads):
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
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError, match="non-finite parameter after Adam step"):
            adam.step(params, grads)

    def test_state_round_trip(self):
        params = xavier_init((3, 4, 2), rng(0))
        adam = Adam(params, 1e-3)
        grads = backward_at(params, rng(1).normal(size=3), rng(2).normal(size=2))
        adam.step(params, grads)
        snapshot = adam.state_dict()
        assert set(snapshot) == {"t", "m", "v"}
        restored = Adam(params, 5e-4)
        restored.load_state_dict(snapshot)
        assert restored.learning_rate == 5e-4
        assert restored.t == adam.t
        assert np.array_equal(restored.m, adam.m) and np.array_equal(restored.v, adam.v)
        assert restored.state_dict() == snapshot

    @pytest.mark.parametrize(
        "key, edit, message",
        [
            ("m", one_less, "adam.m holds 200 bytes, expected 208: 26 float64 values"),
            ("v", one_more, "adam.v holds 216 bytes, expected 208: 26 float64 values"),
        ],
    )
    def test_moments_of_another_topology_rejected_with_their_path(self, key, edit, message):
        snapshot = Adam(xavier_init((3, 4, 2), rng(0)), 1e-3).state_dict()
        snapshot[key] = edit_bytes(snapshot[key], edit)
        with pytest.raises(ValueError, match=re.escape(message)):
            Adam(xavier_init((3, 4, 2), rng(0)), 1e-3).load_state_dict(snapshot, "adam")


class TestExperienceBuffer:
    def make_transition(self, i: int) -> Transition:
        return Transition(np.array([float(i)]), i, float(i), np.array([float(i + 1)]), False)

    def test_ring_keeps_last_capacity_in_order(self):
        buf = ExperienceBuffer(5, 1, rng(0))
        for i in range(12):
            buf.insert(self.make_transition(i))
        assert len(buf) == 5
        assert buf.state_dict()["actions"] == [7, 8, 9, 10, 11]

    def test_under_capacity_order(self):
        buf = ExperienceBuffer(10, 1, rng(0))
        for i in range(3):
            buf.insert(self.make_transition(i))
        assert buf.state_dict()["actions"] == [0, 1, 2]

    def test_seeded_sampling_reproducible(self):
        def build(seed):
            buf = ExperienceBuffer(8, 1, rng(seed))
            for i in range(8):
                buf.insert(self.make_transition(i))
            return buf

        a, b = build(5), build(5)
        assert np.array_equal(a.sample_indices(4), b.sample_indices(4))
        assert np.array_equal(a.sample_indices(4), b.sample_indices(4))

    def test_oversized_sample_rejected(self):
        buf = ExperienceBuffer(8, 1, rng(0))
        buf.insert(self.make_transition(0))
        with pytest.raises(ValueError):
            buf.sample(2)


    @pytest.mark.parametrize("inserts", [0, 3, 5, 12])
    def test_state_round_trip_continues_the_ring(self, inserts):
        def build():
            buf = ExperienceBuffer(5, 1, rng(0))
            for i in range(inserts):
                buf.insert(self.make_transition(i))
            return buf

        straight, saved = build(), build().state_dict()
        loaded = ExperienceBuffer(5, 1, rng(0))
        loaded.load_state_dict(saved)
        assert len(loaded) == len(straight) and loaded.state_dict() == saved
        for i in range(inserts, inserts + 7):
            straight.insert(self.make_transition(i))
            loaded.insert(self.make_transition(i))
        assert loaded.state_dict() == straight.state_dict()
        for got, want in zip(loaded.sample(4), straight.sample(4)):
            assert np.array_equal(got, want)


def replay_columns(rows: int = 3) -> dict:
    return {
        "states": encode_floats(np.array([[float(i), 0.0] for i in range(rows)])),
        "actions": list(range(rows)),
        "rewards": encode_floats(np.full(rows, 0.5)),
        "next_states": encode_floats(np.array([[0.0, float(i)] for i in range(rows)])),
        "dones": [False] * rows,
    }


class TestColumns:
    TEMPLATE = ReplayBatch(
        np.zeros((0, 2)), np.zeros(0, np.int64), np.zeros(0), np.zeros((0, 2)), np.zeros(0, np.bool_)
    )

    def test_round_trip_keeps_dtypes_and_shapes(self):
        loaded = load_columns(self.TEMPLATE, replay_columns(), 3, "replay")
        assert [c.dtype for c in loaded] == [c.dtype for c in self.TEMPLATE]
        assert loaded.states.shape == (3, 2) and loaded.dones.shape == (3,)
        assert loaded.next_states.tolist() == [[0.0, 0.0], [0.0, 1.0], [0.0, 2.0]]
        assert columns_dict(loaded) == replay_columns()

    def test_float_columns_are_base64_and_the_others_json(self):
        d = columns_dict(load_columns(self.TEMPLATE, replay_columns(), 3, "replay"))
        assert [type(d[name]) for name in self.TEMPLATE._fields] == [str, list, str, str, list]
        assert d["rewards"] == base64.b64encode(np.full(3, 0.5, "<f8").tobytes()).decode("ascii")

    def test_empty_columns_have_the_template_row_shape(self):
        assert load_columns(self.TEMPLATE, replay_columns(0), 3, "replay").states.shape == (0, 2)

    def test_values_the_cast_keeps_load(self):
        d = replay_columns()
        d.update(actions=[0.0, 1.0, 2.0], dones=[0, 1, 0], rewards=encode_floats(np.array([np.nan, 0.5, 0.5])))
        loaded = load_columns(self.TEMPLATE, d, 3, "replay")
        assert loaded.actions.tolist() == [0, 1, 2] and loaded.dones.tolist() == [False, True, False]
        assert np.isnan(loaded.rewards[0])

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.pop("dones"), "replay: missing key(s) ['dones']"),
            (lambda d: d.update(bogus=[]), "replay: unknown key(s) ['bogus']"),
            (lambda d: d.update(rewards=edit_bytes(d["rewards"], one_less)), "replay.rewards has 2 rows, states has 3"),
            (lambda d: d.update(rewards=edit_bytes(d["rewards"], one_more)), "replay.rewards has 4 rows, states has 3"),
            (
                lambda d: d.update(next_states=edit_bytes(d["next_states"], one_more)),
                "replay.next_states holds 56 bytes, not a whole number of 16-byte rows of shape (2,)",
            ),
            (
                lambda d: d.update(next_states=edit_bytes(d["next_states"], one_less)),
                "replay.next_states holds 40 bytes, not a whole number of 16-byte rows of shape (2,)",
            ),
            (
                lambda d: d.update(states=encode_floats(np.zeros((3, 3)))),
                "replay.states holds 72 bytes, not a whole number of 16-byte rows of shape (2,)",
            ),
            (lambda d: d.update(actions=[[0]] * 3), "replay.actions has rows of shape (1,), expected ()"),
            (lambda d: d.update(replay_columns(4)), "replay holds 4 rows, at most 3 fit"),
            (
                lambda d: d["actions"].__setitem__(1, 1.5),
                "replay.actions holds 1.5 at row 1, which the cast to int64 changes to 1",
            ),
            (
                lambda d: d["dones"].__setitem__(2, 0.3),
                "replay.dones holds 0.3 at row 2, which the cast to bool changes to True",
            ),
            (lambda d: d.update(rewards=[0.5] * 3), "replay.rewards is a list, expected base64 text of float64 values"),
            (lambda d: d.update(rewards="0.5"), "replay.rewards is not strict base64"),
            (lambda d: d.update(dones=None), "replay.dones is not a column of bool rows"),
        ],
        ids=[
            "missing", "unknown", "one-reward-too-few", "one-reward-too-many", "one-float-too-many",
            "one-float-too-few", "three-wide-rows", "nested-scalars", "too-many-rows",
            "fractional-action", "numeric-done", "list-of-rewards", "string-reward", "not-a-list",
        ],
    )
    def test_bad_columns_rejected_with_their_path(self, edit, message):
        d = replay_columns()
        edit(d)
        with pytest.raises(ValueError, match=re.escape(message)):
            load_columns(self.TEMPLATE, d, 3, "replay")


def float_bits(*words: int) -> np.ndarray:
    return np.array(words, dtype=np.uint64).view(np.float64)


class TestFloatCodec:
    def test_known_answer_pins_little_endian_order(self):
        assert encode_floats(np.array([1.0, -0.0])) == "AAAAAAAA8D8AAAAAAAAAgA=="
        assert load_floats("AAAAAAAA8D8AAAAAAAAAgA==", (), "x", 2).view(np.uint64).tolist() == [
            0x3FF0000000000000, 0x8000000000000000,
        ]

    def test_round_trip_keeps_every_bit(self):
        values = np.concatenate([
            np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, np.inf, -np.inf, 1.7976931348623157e308]),
            # A quiet NaN, one with a payload, a negative one and a signalling one.
            float_bits(0x7FF8000000000000, 0x7FF800000000BEEF, 0xFFF8000000000001, 0x7FF0000000000001),
        ])
        loaded = load_floats(encode_floats(values), (), "x", len(values))
        assert loaded.dtype == np.float64 and loaded.flags.writeable
        assert loaded.view(np.uint64).tolist() == values.view(np.uint64).tolist()

    def test_rows_keep_their_shape(self):
        values = np.arange(12.0).reshape(4, 3)
        assert np.array_equal(load_floats(encode_floats(values), (3,), "x"), values)
        assert load_floats("", (3,), "x").shape == (0, 3)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_accepts_what_the_json_path_accepts(self, values):
        # The values a JSON list of finite numbers held read back as the same
        # bits; load_vector rejects the NaN and Infinity tokens.
        via_json = load_vector(json.loads(json.dumps(values)), len(values), "x")
        via_text = load_floats(encode_floats(np.asarray(values, dtype=np.float64)), (), "x", len(values))
        assert via_text.view(np.uint64).tolist() == via_json.view(np.uint64).tolist()

    @pytest.mark.parametrize(
        "text, message",
        [
            ([1.0, -0.0], "net.flat is a list, expected base64 text of float64 values"),
            (None, "net.flat is a NoneType, expected base64 text"),
            (1.0, "net.flat is a float, expected base64 text"),
            ("AAAAAAAA8D8AAAAAAAAAgA", "net.flat is not strict base64"),
            ("AAAAAAAA8D8A\nAAAAAAAAAgA==", "net.flat is not strict base64"),
            ("AAAAAAAA8D8AAAAAAAAAgA==\n", "net.flat is not strict base64"),
            ("AAAAAAAA8D8AAAAAAAAAgA=", "net.flat is not strict base64"),
            ("AAAAAAAA8D8AAAAAAAAA-A==", "net.flat is not strict base64"),
            ("AAAAAAAA8D8AAAAAAAAAgé==", "net.flat is not strict base64"),
            # Non-zero trailing bits and odd padding decode, but re-encode
            # as other text: "...gA==" and 3 bytes of "AAAA".
            ("AAAAAAAA8D8AAAAAAAAAgB==", "net.flat is not the canonical base64 of its bytes"),
            ("AAAA=", "net.flat is not the canonical base64 of its bytes"),
            ("AAAAAAAA8D8=", "net.flat holds 8 bytes, expected 16: 2 float64 values"),
            ("AAAAAAAA8D8AAAAAAAAAgAAAAAAAAAAA", "net.flat holds 24 bytes, expected 16: 2 float64 values"),
        ],
        ids=[
            "list", "null", "number", "no-padding", "inner-newline", "trailing-newline", "short-padding",
            "url-safe-alphabet", "non-ascii", "non-zero-trailing-bits", "odd-padding", "one-float-too-few",
            "one-float-too-many",
        ],
    )
    def test_reader_rejects_with_its_path(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            load_floats(text, (), "net.flat", 2)

    def test_column_of_part_of_a_row_rejected_with_its_path(self):
        with pytest.raises(ValueError, match=re.escape("replay.states holds 24 bytes, not a whole number of 16-byte")):
            load_floats(encode_floats(np.zeros(3)), (2,), "replay.states")


def assert_same_document(got, expected) -> None:
    """Equal structure, key order and types, and floats of equal bits."""
    assert type(got) is type(expected)
    if isinstance(expected, dict):
        assert list(got) == list(expected)
        for key in expected:
            assert_same_document(got[key], expected[key])
    elif isinstance(expected, list):
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert_same_document(g, e)
    elif isinstance(expected, float):
        assert struct.pack("<d", got) == struct.pack("<d", expected)
    else:
        assert got == expected


# JSON's number grammar, and texts json.dumps never writes: a subnormal, the
# largest double, overflow to inf, capital exponents, a plus sign, -0.
NUMBER_TEXTS = st.from_regex(r"-?(0|[1-9][0-9]{0,19})(\.[0-9]{1,19})?([eE][+-]?[0-9]{1,3})?", fullmatch=True)
SPECIAL_TEXTS = st.sampled_from([
    "-0.0", "0.0", "-0", "5e-324", "-5e-324", "1.7976931348623157e308", "1e400", "-1e400", "1E-5", "1e-5",
    "1.0E+5", "12", "1.0", "1.00", "NaN", "Infinity", "-Infinity",
])
JSON_DOCUMENTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)


class TestParseJson:
    @given(JSON_DOCUMENTS)
    @settings(max_examples=300, deadline=None)
    def test_equals_json_loads_on_what_json_dumps_writes(self, doc):
        text = json.dumps(doc)
        assert_same_document(parse_json(text), json.loads(text))

    @given(st.lists(NUMBER_TEXTS | SPECIAL_TEXTS, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_equals_json_loads_on_any_number_text(self, texts):
        text = "[" + ", ".join(texts) + "]"
        assert_same_document(parse_json(text), json.loads(text))

    @pytest.mark.parametrize(
        "text", ["", "{", "[1, 2", "[1.5.2]", "[01]", "[-]", "[1e]", "[.5]", "[1,]", '{"a" 1}', "[NaN1]", "[1] x"]
    )
    def test_malformed_text_raises_what_json_loads_raises(self, text):
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(text)
        with pytest.raises(json.JSONDecodeError) as got:
            parse_json(text)
        assert str(got.value) == str(expected.value)

    def test_equal_number_texts_share_one_float(self):
        doc = parse_json('{"a": [0.25, 0.25, -0.0], "b": {"c": 0.25, "d": 0.0}, "e": [1.0, 1.00]}')
        assert doc["a"][0] is doc["a"][1] is doc["b"]["c"]
        # -0.0 and 0.0 are equal floats but distinct texts of distinct bits.
        assert math.copysign(1.0, doc["a"][2]) == -1.0 and math.copysign(1.0, doc["b"]["d"]) == 1.0
        assert doc["e"][0] == doc["e"][1] == 1.0

    def test_each_document_parses_with_its_own_memo(self):
        assert parse_json("[0.5]")[0] is not parse_json("[0.5]")[0]


class TestLoadCount:
    def test_counts_pass_through(self):
        assert load_count(0, "n") == 0 and load_count(7, "n") == 7

    @pytest.mark.parametrize("value", [-1, 2.5, "3", True, 2.0])
    def test_negative_or_fractional_rejected_with_its_path(self, value):
        problem = "is -1, expected a non-negative integer" if value == -1 else f"must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(f"dqn.train_steps {problem}")):
            load_count(value, "dqn.train_steps")

    def test_negative_adam_step_rejected(self):
        snapshot = Adam(xavier_init((3, 4, 2), rng(0)), 1e-3).state_dict()
        snapshot["t"] = -1
        with pytest.raises(ValueError, match=re.escape("adam.t is -1")):
            Adam(xavier_init((3, 4, 2), rng(0)), 1e-3).load_state_dict(snapshot, "adam")


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
        clone = reloaded(params)
        assert clone.equals(params)

    def test_weights_stored_as_one_base64_buffer(self):
        params = xavier_init((2, 2), rng(0))
        payload = params.to_dict()
        flat = base64.b64encode(params.flat.astype("<f8").tobytes()).decode("ascii")
        assert payload == {"layer_sizes": [2, 2], "flat": flat}

    def test_per_layer_payload_rejected(self):
        payload = {"schema_version": 1, "layer_sizes": [2, 2], "weights": [["0.0"] * 4], "biases": [["0.0"] * 2]}
        with pytest.raises(ValueError, match="unknown key"):
            MLPParameters((2, 2)).load_dict(payload)

    @pytest.mark.parametrize(
        "edit, path",
        [
            (lambda d: d.update(layer_sizes=[3, 8, 2]), "net.layer_sizes"),
            (lambda d: d.update(layer_sizes=[3.0, 4, 2]), "net.layer_sizes[0] must be an integer, got 3.0"),
            (lambda d: d.update(flat=edit_bytes(d["flat"], one_more)), "net.flat holds 216 bytes, expected 208"),
            (lambda d: d.update(flat=edit_bytes(d["flat"], one_less)), "net.flat holds 200 bytes, expected 208"),
            (lambda d: d.update(flat=[d["flat"]]), "net.flat is a list, expected base64 text"),
            (lambda d: d.update(flat=np.frombuffer(base64.b64decode(d["flat"])).tolist()), "net.flat is a list"),
        ],
        ids=["layer-sizes", "layer-sizes-float", "one-float-too-many", "one-float-too-few", "nested", "json-list"],
    )
    def test_other_topology_rejected_with_its_path(self, edit, path):
        payload = xavier_init((3, 4, 2), rng(0)).to_dict()
        edit(payload)
        with pytest.raises(ValueError, match=re.escape(path)):
            MLPParameters((3, 4, 2)).load_dict(payload, "net")
