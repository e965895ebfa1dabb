"""Shared RL substrate: a small MLP with hand-written gradients, Adam,
an experience ring buffer, and named deterministic RNG streams.

The network is tanh-hidden / linear-output with a topology fixed at
construction (the production shape is [n_in, 64, 64, n_out]). There is no
autodiff framework here; ``backward`` is the analytic reverse pass and
``gradient_check`` compares it against central finite differences.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import ConfigCodec

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
    def from_dict(cls, d: Mapping) -> "Transition":
        return cls(
            state=np.asarray(d["state"], dtype=np.float64),
            action=int(d["action"]),
            reward=float(d["reward"]),
            next_state=np.asarray(d["next_state"], dtype=np.float64),
            done=bool(d["done"]),
            log_prob_old=None if d.get("log_prob_old") is None else float(d["log_prob_old"]),
        )


class MLPParameters:
    """Weights and biases for a fixed feedforward topology.

    Weight matrices are (fan_out, fan_in); forward computes
    tanh(W x + b) per hidden layer and a linear final layer.
    """

    def __init__(self, layer_sizes: Sequence[int], weights: list[np.ndarray], biases: list[np.ndarray]):
        self.layer_sizes = tuple(int(n) for n in layer_sizes)
        self.weights = weights
        self.biases = biases

    @property
    def n_in(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_out(self) -> int:
        return self.layer_sizes[-1]

    def copy(self) -> "MLPParameters":
        return MLPParameters(
            self.layer_sizes,
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
        )

    def all_finite(self) -> bool:
        return all(np.isfinite(w).all() for w in self.weights) and all(
            np.isfinite(b).all() for b in self.biases
        )

    def equals(self, other: "MLPParameters") -> bool:
        return (
            self.layer_sizes == other.layer_sizes
            and all(np.array_equal(a, b) for a, b in zip(self.weights, other.weights))
            and all(np.array_equal(a, b) for a, b in zip(self.biases, other.biases))
        )

    def to_dict(self) -> dict:
        # Weights serialize as decimal strings so the checkpoint is exact.
        return {
            "schema_version": 1,
            "layer_sizes": list(self.layer_sizes),
            "weights": [[repr(float(x)) for x in w.ravel()] for w in self.weights],
            "biases": [[repr(float(x)) for x in b.ravel()] for b in self.biases],
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "MLPParameters":
        if d.get("schema_version") != 1:
            raise ValueError(f"unsupported parameter schema_version {d.get('schema_version')!r}")
        sizes = tuple(int(n) for n in d["layer_sizes"])
        weights, biases = [], []
        for i in range(len(sizes) - 1):
            fan_in, fan_out = sizes[i], sizes[i + 1]
            w = np.asarray([float(x) for x in d["weights"][i]], dtype=np.float64).reshape(fan_out, fan_in)
            b = np.asarray([float(x) for x in d["biases"][i]], dtype=np.float64).reshape(fan_out)
            weights.append(w)
            biases.append(b)
        return cls(sizes, weights, biases)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True)

    @classmethod
    def load(cls, path) -> "MLPParameters":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class MLPGradients:
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def scaled(self, factor: float) -> "MLPGradients":
        return MLPGradients([w * factor for w in self.weights], [b * factor for b in self.biases])


def xavier_init(layer_sizes: Sequence[int], rng: np.random.Generator) -> MLPParameters:
    """Xavier-uniform weights, zero biases, drawn from the given stream."""
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out, dtype=np.float64))
    return MLPParameters(layer_sizes, weights, biases)


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


def _forward_cached(params: MLPParameters, batch: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
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
    out, _ = _forward_cached(params, batch)
    return out[0] if squeeze else out


def backward(params: MLPParameters, x: np.ndarray, output_gradient: np.ndarray) -> MLPGradients:
    """Analytic gradient of the forward map, summed over the batch.

    ``output_gradient`` holds dL/d(output) per sample; returns dL/d(params)
    with the same shapes as the parameters.
    """
    batch, squeeze = _as_batch(x, params.n_in)
    grad = np.asarray(output_gradient, dtype=np.float64)
    if squeeze:
        grad = grad[None, :]
    if grad.shape != (batch.shape[0], params.n_out):
        raise DimensionMismatch(
            f"output_gradient shape {grad.shape} != {(batch.shape[0], params.n_out)}"
        )
    _, activations = _forward_cached(params, batch)
    d_weights = [np.zeros_like(w) for w in params.weights]
    d_biases = [np.zeros_like(b) for b in params.biases]
    delta = grad
    for i in range(len(params.weights) - 1, -1, -1):
        d_weights[i] = delta.T @ activations[i]
        d_biases[i] = delta.sum(axis=0)
        if i > 0:
            # activations[i] is tanh output of layer i-1: d tanh(z) = 1 - a^2.
            delta = (delta @ params.weights[i]) * (1.0 - activations[i] ** 2)
    return MLPGradients(d_weights, d_biases)


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
    """Adaptive-moment gradient steps for one MLPParameters instance."""

    def __init__(self, params: MLPParameters, learning_rate: float):
        self.learning_rate = learning_rate
        self.t = 0
        self.m_w = [np.zeros_like(w) for w in params.weights]
        self.v_w = [np.zeros_like(w) for w in params.weights]
        self.m_b = [np.zeros_like(b) for b in params.biases]
        self.v_b = [np.zeros_like(b) for b in params.biases]

    def step(self, params: MLPParameters, grads: MLPGradients) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for i in range(len(params.weights)):
            for p, g, m, v in (
                (params.weights[i], grads.weights[i], self.m_w[i], self.v_w[i]),
                (params.biases[i], grads.biases[i], self.m_b[i], self.v_b[i]),
            ):
                m *= ADAM_BETA1
                m += (1.0 - ADAM_BETA1) * g
                v *= ADAM_BETA2
                v += (1.0 - ADAM_BETA2) * g * g
                p -= self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        if not params.all_finite():
            raise RLCoreError("non-finite parameter after Adam step")

    def state_dict(self) -> dict:
        return {
            "learning_rate": self.learning_rate,
            "t": self.t,
            "m_w": [[float(x) for x in a.ravel()] for a in self.m_w],
            "v_w": [[float(x) for x in a.ravel()] for a in self.v_w],
            "m_b": [[float(x) for x in a.ravel()] for a in self.m_b],
            "v_b": [[float(x) for x in a.ravel()] for a in self.v_b],
        }

    def load_state_dict(self, d: Mapping) -> None:
        self.learning_rate = float(d["learning_rate"])
        self.t = int(d["t"])
        for name in ("m_w", "v_w", "m_b", "v_b"):
            stored = d[name]
            existing = getattr(self, name)
            for arr, values in zip(existing, stored):
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

    def load_state_dict(self, d: Mapping) -> None:
        for name, st in d.items():
            gen = self.get(name)
            gen.bit_generator.state = {
                "bit_generator": st["bit_generator"],
                "state": {"state": int(st["state"]), "inc": int(st["inc"])},
                "has_uint32": int(st["has_uint32"]),
                "uinteger": int(st["uinteger"]),
            }


def finite_difference_gradients(
    params: MLPParameters, x: np.ndarray, output_gradient: np.ndarray, h: float = 1e-5
) -> MLPGradients:
    """Central finite differences of the scalar sum(output * output_gradient)."""
    grad = np.asarray(output_gradient, dtype=np.float64)

    def objective() -> float:
        return float(np.sum(forward(params, x) * grad))

    d_weights = [np.zeros_like(w) for w in params.weights]
    d_biases = [np.zeros_like(b) for b in params.biases]
    for target, store in ((params.weights, d_weights), (params.biases, d_biases)):
        for arr, out in zip(target, store):
            flat = arr.ravel()
            out_flat = out.ravel()
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                hi = objective()
                flat[j] = orig - h
                lo = objective()
                flat[j] = orig
                out_flat[j] = (hi - lo) / (2.0 * h)
    return MLPGradients(d_weights, d_biases)


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
            analytic = backward(params, x, out_grad)
            numeric = finite_difference_gradients(params, x, out_grad, h=h)
            for a, n in zip(analytic.weights + analytic.biases, numeric.weights + numeric.biases):
                worst = max(worst, _tensor_relative_error(a, n))
    return worst
