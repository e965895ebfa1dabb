"""Shared RL substrate: a small MLP with hand-written gradients, Adam,
an experience ring buffer, and named deterministic RNG streams.

The network is tanh-hidden / linear-output with a topology fixed at
construction (the production shape is [n_in, 64, 64, n_out]). Its
parameters, its gradients and Adam's moments each live in one flat float64
buffer laid out W0, b0, W1, b1, ..., with per-layer views into it. There is
no autodiff framework here: ``forward_cached`` returns the output and the
layer activations, ``backward`` runs the analytic reverse pass on those
activations without a second forward pass, and ``gradient_check`` compares
it against central finite differences.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import ConfigCodec
from .domain import check_keys

HIDDEN_WIDTH = 64

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class RLCoreError(Exception):
    pass


class DimensionMismatch(RLCoreError):
    """An input or gradient does not match the network topology."""


@dataclass(frozen=True)
class RLCoreConfig(ConfigCodec):
    discount_factor: float = 0.99
    gae_lambda: float = 0.95

    def validate(self) -> "RLCoreConfig":
        if not 0.0 <= self.discount_factor < 1.0:
            raise ValueError(f"discount_factor {self.discount_factor} outside [0, 1)")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ValueError(f"gae_lambda {self.gae_lambda} outside [0, 1]")
        return self


@dataclass
class Transition:
    """One (s, a, r, s', done) step; log_prob_old is set on policy rollouts."""

    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    done: bool
    log_prob_old: float | None = None

    def to_dict(self) -> dict:
        return {
            "state": [float(x) for x in np.asarray(self.state).ravel()],
            "action": int(self.action),
            "reward": float(self.reward),
            "next_state": [float(x) for x in np.asarray(self.next_state).ravel()],
            "done": bool(self.done),
            "log_prob_old": None if self.log_prob_old is None else float(self.log_prob_old),
        }

    @classmethod
    def from_dict(cls, d: Mapping, what: str = "transition") -> "Transition":
        """``what`` names ``d`` in the error for a missing or unknown key."""
        check_keys(what, d, _TRANSITION_KEYS, _TRANSITION_OPTIONAL_KEYS)
        return cls(
            state=np.asarray(d["state"], dtype=np.float64),
            action=int(d["action"]),
            reward=float(d["reward"]),
            next_state=np.asarray(d["next_state"], dtype=np.float64),
            done=bool(d["done"]),
            log_prob_old=None if d.get("log_prob_old") is None else float(d["log_prob_old"]),
        )


_TRANSITION_KEYS = frozenset({"state", "action", "reward", "next_state", "done"})
_TRANSITION_OPTIONAL_KEYS = frozenset({"log_prob_old"})
_MLP_KEYS = frozenset({"schema_version", "layer_sizes", "weights", "biases"})
_ADAM_KEYS = frozenset({"learning_rate", "t", "m_w", "v_w", "m_b", "v_b"})


def _layer_views(layer_sizes: Sequence[int], flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(fan_out, fan_in) weight and (fan_out,) bias views into a flat buffer
    laid out W0, b0, W1, b1, ..."""
    weights, biases = [], []
    start = 0
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        mid = start + fan_out * fan_in
        weights.append(flat[start:mid].reshape(fan_out, fan_in))
        biases.append(flat[mid : mid + fan_out])
        start = mid + fan_out
    return weights, biases


class MLPParameters:
    """Weights and biases for a fixed feedforward topology.

    All parameters live in one float64 buffer, ``flat``, laid out W0, b0,
    W1, b1, ...; ``weights`` and ``biases`` are views into it, so writing
    either writes ``flat``. Weight matrices are (fan_out, fan_in); forward
    computes tanh(W x + b) per hidden layer and a linear final layer.
    Gradients use the same class and layout. Without ``flat``, all
    parameters start at zero.
    """

    def __init__(self, layer_sizes: Sequence[int], flat: np.ndarray | None = None):
        self.layer_sizes = tuple(int(n) for n in layer_sizes)
        size = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(self.layer_sizes, self.layer_sizes[1:]))
        if flat is None:
            flat = np.zeros(size, dtype=np.float64)
        elif flat.dtype != np.float64 or flat.shape != (size,):
            raise DimensionMismatch(f"flat buffer {flat.dtype}{flat.shape} != float64({size},)")
        self.flat = flat
        self.weights, self.biases = _layer_views(self.layer_sizes, flat)

    @property
    def n_in(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_out(self) -> int:
        return self.layer_sizes[-1]

    def copy(self) -> "MLPParameters":
        return MLPParameters(self.layer_sizes, self.flat.copy())

    def equals(self, other: "MLPParameters") -> bool:
        return self.layer_sizes == other.layer_sizes and np.array_equal(self.flat, other.flat)

    def to_dict(self) -> dict:
        # Weights serialize as decimal strings so the checkpoint is exact.
        return {
            "schema_version": 1,
            "layer_sizes": list(self.layer_sizes),
            "weights": [[repr(float(x)) for x in w.ravel()] for w in self.weights],
            "biases": [[repr(float(x)) for x in b.ravel()] for b in self.biases],
        }

    @classmethod
    def from_dict(cls, d: Mapping, what: str = "MLP parameters") -> "MLPParameters":
        """``what`` names ``d`` in the error for a missing or unknown key."""
        check_keys(what, d, _MLP_KEYS)
        if d["schema_version"] != 1:
            raise ValueError(f"unsupported parameter schema_version {d['schema_version']!r}")
        params = cls(d["layer_sizes"])
        for i, (w, b) in enumerate(zip(params.weights, params.biases)):
            w[...] = np.asarray([float(x) for x in d["weights"][i]], dtype=np.float64).reshape(w.shape)
            b[...] = np.asarray([float(x) for x in d["biases"][i]], dtype=np.float64).reshape(b.shape)
        return params


def xavier_init(layer_sizes: Sequence[int], rng: np.random.Generator) -> MLPParameters:
    """Xavier-uniform weights, zero biases, drawn from the given stream."""
    params = MLPParameters(layer_sizes)
    for w in params.weights:
        fan_out, fan_in = w.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return params


def _as_batch(x: np.ndarray, n_in: int) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        if arr.shape[0] != n_in:
            raise DimensionMismatch(f"input dim {arr.shape[0]} != {n_in}")
        return arr[None, :], True
    if arr.ndim == 2:
        if arr.shape[1] != n_in:
            raise DimensionMismatch(f"input dim {arr.shape[1]} != {n_in}")
        return arr, False
    raise DimensionMismatch(f"input must be 1-D or 2-D, got shape {arr.shape}")


def forward_cached(params: MLPParameters, batch: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward pass over a (batch, n_in) float64 matrix.

    Returns the (batch, n_out) output and every layer's activations, the
    input first and the output last; ``backward`` takes those activations.
    """
    activations = [batch]
    a = batch
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w.T + b
        a = z if i == last else np.tanh(z)
        activations.append(a)
    return a, activations


def forward(params: MLPParameters, x: np.ndarray) -> np.ndarray:
    """Feedforward pass; accepts a single vector or a (batch, n_in) matrix."""
    batch, squeeze = _as_batch(x, params.n_in)
    out, _ = forward_cached(params, batch)
    return out[0] if squeeze else out


def backward(params: MLPParameters, activations: Sequence[np.ndarray], output_gradient: np.ndarray) -> MLPParameters:
    """Analytic gradient of the forward map, summed over the batch.

    ``activations`` are what ``forward_cached`` returned for ``params``;
    no forward pass runs here. ``output_gradient`` holds dL/d(output) per
    sample, shaped like the output. Returns dL/d(params) in the
    parameters' own layout.
    """
    delta = np.asarray(output_gradient, dtype=np.float64)
    if delta.shape != activations[-1].shape:
        raise DimensionMismatch(f"output_gradient shape {delta.shape} != {activations[-1].shape}")
    grads = MLPParameters(params.layer_sizes)
    for i in range(len(params.weights) - 1, -1, -1):
        np.matmul(delta.T, activations[i], out=grads.weights[i])
        np.sum(delta, axis=0, out=grads.biases[i])
        if i > 0:
            # activations[i] is tanh output of layer i-1: d tanh(z) = 1 - a^2.
            delta = (delta @ params.weights[i]) * (1.0 - activations[i] ** 2)
    return grads


def softmax_policy(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Numerically stable softmax; returns (probabilities, log-probabilities)."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=-1, keepdims=True)
    probs = exp / total
    log_probs = shifted - np.log(total)
    return probs, log_probs


def sample_action(probabilities: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw from a categorical distribution."""
    p = np.asarray(probabilities, dtype=np.float64)
    cum = np.cumsum(p)
    r = rng.random() * cum[-1]
    return int(min(np.searchsorted(cum, r, side="right"), len(p) - 1))


class Adam:
    """Adaptive-moment gradient steps for one MLPParameters instance.

    The moments ``m`` and ``v`` share the parameters' flat layout, so a
    step is five whole-buffer operations.
    """

    def __init__(self, params: MLPParameters, learning_rate: float):
        self.learning_rate = learning_rate
        self.t = 0
        self.layer_sizes = params.layer_sizes
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)

    def step(self, params: MLPParameters, grads: MLPParameters) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        g = grads.flat
        self.m *= ADAM_BETA1
        self.m += (1.0 - ADAM_BETA1) * g
        self.v *= ADAM_BETA2
        self.v += (1.0 - ADAM_BETA2) * g * g
        params.flat -= self.learning_rate * (self.m / bc1) / (np.sqrt(self.v / bc2) + ADAM_EPS)
        if not np.isfinite(params.flat).all():
            raise RLCoreError("non-finite parameter after Adam step")

    def _moment_views(self) -> dict[str, list[np.ndarray]]:
        m_w, m_b = _layer_views(self.layer_sizes, self.m)
        v_w, v_b = _layer_views(self.layer_sizes, self.v)
        return {"m_w": m_w, "v_w": v_w, "m_b": m_b, "v_b": v_b}

    def state_dict(self) -> dict:
        state = {"learning_rate": self.learning_rate, "t": self.t}
        for name, arrays in self._moment_views().items():
            state[name] = [[float(x) for x in a.ravel()] for a in arrays]
        return state

    def load_state_dict(self, d: Mapping, what: str = "Adam state") -> None:
        """``what`` names ``d`` in the error for a missing or unknown key."""
        check_keys(what, d, _ADAM_KEYS)
        self.learning_rate = float(d["learning_rate"])
        self.t = int(d["t"])
        for name, arrays in self._moment_views().items():
            for arr, values in zip(arrays, d[name]):
                arr[...] = np.asarray(values, dtype=np.float64).reshape(arr.shape)


class ExperienceBuffer:
    """Fixed-capacity ring of transitions with seeded uniform sampling."""

    def __init__(self, capacity: int, rng: np.random.Generator):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._rng = rng
        self._data: list[Transition] = []
        self._next = 0
        self.inserted = 0

    def __len__(self) -> int:
        return len(self._data)

    def insert(self, transition: Transition) -> None:
        if len(self._data) < self.capacity:
            self._data.append(transition)
        else:
            self._data[self._next] = transition
        self._next = (self._next + 1) % self.capacity
        self.inserted += 1

    def ordered(self) -> list[Transition]:
        """Contents oldest-first."""
        if len(self._data) < self.capacity:
            return list(self._data)
        return self._data[self._next :] + self._data[: self._next]

    def sample_indices(self, batch_size: int) -> np.ndarray:
        if batch_size > len(self._data):
            raise ValueError(f"cannot sample {batch_size} from buffer of {len(self._data)}")
        return self._rng.integers(0, len(self._data), size=batch_size)

    def sample(self, batch_size: int) -> list[Transition]:
        return [self._data[i] for i in self.sample_indices(batch_size)]


_RNG_STATE_KEYS = frozenset({"bit_generator", "state", "inc", "has_uint32", "uinteger"})


def _stream_key(name: str) -> int:
    return int.from_bytes(hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest(), "big")


class RngStreams:
    """Named, independently seeded RNG streams derived from one master seed.

    Each consumer draws from its own stream, so changing one consumer's
    draw count never perturbs another's sequence.
    """

    def __init__(self, master_seed: int):
        if master_seed < 0:
            raise ValueError(f"master seed must be non-negative, got {master_seed}")
        self.master_seed = int(master_seed)
        self._streams: dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        if name not in self._streams:
            seq = np.random.SeedSequence([self.master_seed, _stream_key(name)])
            self._streams[name] = np.random.Generator(np.random.PCG64(seq))
        return self._streams[name]

    def state_dict(self) -> dict:
        out = {}
        for name in sorted(self._streams):
            state = self._streams[name].bit_generator.state
            out[name] = {
                "bit_generator": state["bit_generator"],
                "state": str(state["state"]["state"]),
                "inc": str(state["state"]["inc"]),
                "has_uint32": state["has_uint32"],
                "uinteger": state["uinteger"],
            }
        return out

    def load_state_dict(self, d: Mapping, what: str = "RNG states") -> None:
        """``what`` names ``d`` in the error for a missing or unknown key."""
        for name, st in d.items():
            check_keys(f"{what}.{name}", st, _RNG_STATE_KEYS)
            gen = self.get(name)
            gen.bit_generator.state = {
                "bit_generator": st["bit_generator"],
                "state": {"state": int(st["state"]), "inc": int(st["inc"])},
                "has_uint32": int(st["has_uint32"]),
                "uinteger": int(st["uinteger"]),
            }


def finite_difference_gradients(
    params: MLPParameters, x: np.ndarray, output_gradient: np.ndarray, h: float = 1e-5
) -> MLPParameters:
    """Central finite differences of the scalar sum(output * output_gradient)."""
    grad = np.asarray(output_gradient, dtype=np.float64)

    def objective() -> float:
        return float(np.sum(forward(params, x) * grad))

    out = MLPParameters(params.layer_sizes)
    flat = params.flat
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + h
        hi = objective()
        flat[j] = orig - h
        lo = objective()
        flat[j] = orig
        out.flat[j] = (hi - lo) / (2.0 * h)
    return out


def _tensor_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(float(np.abs(analytic).max(initial=0.0)), float(np.abs(numeric).max(initial=0.0)), 1e-12)
    return float(np.abs(analytic - numeric).max(initial=0.0)) / scale


def gradient_check(
    topologies: Sequence[Sequence[int]] = ((4, 8, 6, 3), (5, 16, 8, 2), (3, 4, 4, 4)),
    n_seeds: int = 10,
    h: float = 1e-5,
) -> float:
    """Max relative error between analytic and finite-difference gradients.

    Relative error is the infinity-norm of the difference scaled by the
    larger infinity-norm of the two gradients, per parameter tensor.
    """
    worst = 0.0
    for topology in topologies:
        for seed in range(n_seeds):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, _stream_key("gradcheck")])))
            params = xavier_init(tuple(topology), rng)
            x = rng.normal(size=topology[0])
            out_grad = rng.normal(size=topology[-1])
            _, activations = forward_cached(params, x[None, :])
            analytic = backward(params, activations, out_grad[None, :])
            numeric = finite_difference_gradients(params, x, out_grad, h=h)
            for a, n in zip(analytic.weights + analytic.biases, numeric.weights + numeric.biases):
                worst = max(worst, _tensor_relative_error(a, n))
    return worst
