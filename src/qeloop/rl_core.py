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

import base64
import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .config import ConfigCodec
from .domain import InputError, check_keys, read_json, stable_hash

HIDDEN_WIDTH = 64

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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


class Transition(NamedTuple):
    """One (s, a, r, s', done) step of the knowledge controller, its fields
    in the order of ``ReplayBatch``'s."""

    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    done: bool


_MLP_KEYS = frozenset({"layer_sizes", "flat"})
_ADAM_KEYS = frozenset({"t", "m", "v"})


def load_numbers(values, dtype, what: str, kind: str) -> np.ndarray:
    """``values`` as an array of ``dtype``; anything but numbers, and a
    value that the cast to ``dtype`` would change (an action of 1.5, a
    ``dones`` flag of 0.3), is rejected with its dotted path ``what``."""
    try:
        raw = np.asarray(values)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} is not a {kind}: {exc}") from None
    if raw.ndim == 0 or raw.dtype.kind not in "biuf":
        raise InputError(f"{what} is not a {kind}: got {raw.dtype} of shape {raw.shape}")
    with np.errstate(invalid="ignore"):
        cast = raw.astype(dtype, copy=False)
    # A same-dtype cast changes nothing, NaN included.
    changed = np.argwhere(cast != raw) if raw.dtype != dtype else ()
    if len(changed):
        index = tuple(changed[0])
        raise InputError(
            f"{what} holds {raw[index].item()!r} at row {index[0]}, "
            f"which the cast to {np.dtype(dtype)} changes to {cast[index].item()!r}"
        )
    return cast


def encode_floats(values: np.ndarray) -> str:
    """The float64 ``values``, in row-major order, as base64 of their
    little-endian bytes: exact for every bit pattern, -0.0 and NaN payloads
    included."""
    return base64.b64encode(np.ascontiguousarray(values, dtype="<f8").tobytes()).decode("ascii")


def load_floats(text, row_shape: tuple[int, ...], what: str, rows: int | None = None) -> np.ndarray:
    """``encode_floats`` output as a float64 array of rows of ``row_shape``:
    ``rows`` of them, or as many as ``text`` holds when ``rows`` is None.
    A value that is not a string, text that is not the canonical base64
    of its bytes (no newline, no missing padding, no non-zero trailing bits)
    and a byte count other than 8 x the expected count of floats, or not a
    multiple of 8 x the row width, are rejected with the dotted path
    ``what``; so what restores re-serialises to the same text."""
    if type(text) is not str:
        raise InputError(f"{what} is a {type(text).__name__}, expected base64 text of float64 values")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise InputError(f"{what} is not strict base64: {exc}") from None
    if base64.b64encode(raw) != text.encode("ascii"):
        raise InputError(f"{what} is not the canonical base64 of its bytes")
    row_bytes = 8 * math.prod(row_shape)
    if rows is not None and len(raw) != rows * row_bytes:
        expected = rows * row_bytes
        raise InputError(f"{what} holds {len(raw)} bytes, expected {expected}: {expected // 8} float64 values")
    if rows is None and len(raw) % row_bytes:
        shape = f"{row_bytes}-byte rows of shape {row_shape}"
        raise InputError(f"{what} holds {len(raw)} bytes, not a whole number of {shape}")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(-1, *row_shape)


class _FloatMemo(dict):
    """Number texts of one document, each mapped to the float it parses to
    the first time it is asked for."""

    def __missing__(self, text: str) -> float:
        value = self[text] = float(text)
        return value


def parse_json(text: str):
    """``json.loads(text)``, with every occurrence of one number text read
    as one shared float object. Stored embeddings, edge weights and windows
    repeat a few values many times, so this holds one float per distinct
    text instead of one per number. ``float(text)`` is the conversion
    ``json.loads`` makes, so every value has the bits it would have had;
    ``-0.0`` and ``0.0`` are distinct texts, and ``NaN`` and ``Infinity`` are
    not number texts. Malformed text raises the ``json.JSONDecodeError``
    ``json.loads`` raises. Text whose numbers are all distinct gains nothing
    and parses about 3x slower than with ``json.loads``."""
    return json.loads(text, parse_float=_FloatMemo().__getitem__)


def load_vector(values, width: int, what: str) -> np.ndarray:
    """``values``, a list of ``width`` finite JSON numbers, as a float64
    vector; anything else is rejected with its dotted path ``what``, a bad
    entry with its index."""
    values = read_json(values, list, what)
    if len(values) != width:
        raise InputError(f"{what} holds {len(values)} entries, expected {width}")
    return np.array([read_json(value, float, what, i) for i, value in enumerate(values)], dtype=np.float64)


def load_window(values, length: int, what: str, kind=float) -> list:
    """The entries of ``values``, a list of at most ``length`` entries of the
    JSON kind ``kind``; anything else is rejected with its dotted path
    ``what``, a bad entry with its index."""
    values = read_json(values, list, what)
    if len(values) > length:
        raise InputError(f"{what} holds {len(values)} entries, the window is {length}")
    return [read_json(value, kind, what, i) for i, value in enumerate(values)]


def load_count(value, what: str) -> int:
    """``value`` as a counter; anything but a non-negative JSON integer is
    rejected with its dotted path ``what``."""
    count = read_json(value, int, what)
    if count < 0:
        raise InputError(f"{what} is {count}, expected a non-negative integer")
    return count


def load_below(value, bound: int, what: str) -> int:
    """``value`` as a counter below ``bound``; anything else is rejected with
    its dotted path ``what``."""
    count = load_count(value, what)
    if count >= bound:
        raise InputError(f"{what} is {count}, outside [0, {bound})")
    return count


def check_actions(actions: np.ndarray, n_actions: int, what: str) -> None:
    """Reject a column of action indices holding one outside
    ``[0, n_actions)``, naming the column ``what`` and the first such row."""
    outside = np.flatnonzero((actions < 0) | (actions >= n_actions))
    if len(outside):
        row = int(outside[0])
        raise InputError(f"{what} holds action {actions[row]} at row {row}, outside [0, {n_actions})")


def columns_dict(columns: NamedTuple) -> dict:
    """Each column of ``columns`` under its field name: a float64 column as
    ``encode_floats`` text, any other as a JSON list."""
    return {
        name: encode_floats(column) if column.dtype == np.float64 else column.tolist()
        for name, column in zip(columns._fields, columns)
    }


def load_columns(template: NamedTuple, d: Mapping, max_rows: int, what: str) -> NamedTuple:
    """``columns_dict`` output as arrays of ``template``'s dtypes and row
    shapes. ``what`` names ``d`` in the error for a missing or unknown
    field, a float64 column ``load_floats`` rejects, another column that is
    not a stack of such rows or holds a value that the cast to its dtype
    would change (an action of 1.5, a ``dones`` flag of 0.3), a column not
    as long as the first, and more than ``max_rows`` rows."""
    check_keys(what, d, frozenset(template._fields))
    columns = []
    for name, like in zip(template._fields, template):
        path = f"{what}.{name}"
        if like.dtype == np.float64:
            column = load_floats(d[name], like.shape[1:], path)
        else:
            column = load_numbers(d[name], like.dtype, path, f"column of {like.dtype} rows")
            if column.shape == (0,):
                column = column.reshape(0, *like.shape[1:])
            if column.shape[1:] != like.shape[1:]:
                raise InputError(f"{path} has rows of shape {column.shape[1:]}, expected {like.shape[1:]}")
        if columns and len(column) != len(columns[0]):
            raise InputError(f"{path} has {len(column)} rows, {template._fields[0]} has {len(columns[0])}")
        columns.append(column)
    if len(columns[0]) > max_rows:
        raise InputError(f"{what} holds {len(columns[0])} rows, at most {max_rows} fit")
    return type(template)(*columns)


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
            raise ValueError(f"flat buffer {flat.dtype}{flat.shape} != float64({size},)")
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
        return {"layer_sizes": list(self.layer_sizes), "flat": encode_floats(self.flat)}

    def load_dict(self, d: Mapping, what: str = "MLP parameters") -> None:
        """Write ``to_dict`` output into this network's buffer. A topology
        other than this network's is rejected: ``what`` names ``d`` in the
        error for a missing or unknown key, ``layer_sizes`` that are not
        this network's integers, or a ``flat`` buffer of another length."""
        check_keys(what, d, _MLP_KEYS)
        path = f"{what}.layer_sizes"
        sizes = [read_json(n, int, path, i) for i, n in enumerate(read_json(d["layer_sizes"], list, path))]
        if sizes != list(self.layer_sizes):
            raise InputError(f"{path} {sizes!r} != built {list(self.layer_sizes)}")
        self.flat[...] = load_floats(d["flat"], (), f"{what}.flat", self.flat.size)


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
            raise ValueError(f"input dim {arr.shape[0]} != {n_in}")
        return arr[None, :], True
    if arr.ndim == 2:
        if arr.shape[1] != n_in:
            raise ValueError(f"input dim {arr.shape[1]} != {n_in}")
        return arr, False
    raise ValueError(f"input must be 1-D or 2-D, got shape {arr.shape}")


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
        raise ValueError(f"output_gradient shape {delta.shape} != {activations[-1].shape}")
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
    # A single row reduces to scalars; a batch keeps its reduced axis to
    # broadcast back over the rows. Both run the same reductions.
    keepdims = z.ndim > 1
    shifted = z - z.max(axis=-1, keepdims=keepdims)
    exp = np.exp(shifted)
    total = exp.sum(axis=-1, keepdims=keepdims)
    probs = exp / total
    log_probs = shifted - np.log(total)
    return probs, log_probs


def sample_action(probabilities: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw from a categorical distribution. The running sum
    adds the probabilities in order, as ``np.cumsum`` does."""
    cum = list(accumulate(np.asarray(probabilities, dtype=np.float64).tolist()))
    r = rng.random() * cum[-1]
    return min(bisect_right(cum, r), len(cum) - 1)


class Adam:
    """Adaptive-moment gradient steps for one MLPParameters instance.

    The moments ``m`` and ``v`` share the parameters' flat layout, so a
    step is five whole-buffer operations. The state is the step count and
    the two moments; the learning rate is a hyperparameter, given at
    construction from the run's config and never checkpointed.
    """

    def __init__(self, params: MLPParameters, learning_rate: float):
        self.learning_rate = learning_rate
        self.t = 0
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
            raise FloatingPointError("non-finite parameter after Adam step")

    def state_dict(self) -> dict:
        return {"t": self.t, "m": encode_floats(self.m), "v": encode_floats(self.v)}

    def load_state_dict(self, d: Mapping, what: str = "Adam state") -> None:
        """Write ``state_dict`` output into this optimizer's moments; ``what``
        names ``d`` in the error for a missing or unknown key and prefixes
        the path of a negative step count or of a moment buffer that does
        not fit the network."""
        check_keys(what, d, _ADAM_KEYS)
        self.t = load_count(d["t"], f"{what}.t")
        self.m[...] = load_floats(d["m"], (), f"{what}.m", self.m.size)
        self.v[...] = load_floats(d["v"], (), f"{what}.v", self.v.size)


class ReplayBatch(NamedTuple):
    """Transitions as one array per field; row i of each array belongs to
    the same transition."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    dones: np.ndarray


def _zero_batch(rows: int, state_dim: int) -> ReplayBatch:
    return ReplayBatch(
        np.zeros((rows, state_dim), dtype=np.float64),
        np.zeros(rows, dtype=np.int64),
        np.zeros(rows, dtype=np.float64),
        np.zeros((rows, state_dim), dtype=np.float64),
        np.zeros(rows, dtype=np.bool_),
    )


class ExperienceBuffer:
    """Fixed-capacity ring of ``(s, a, r, s', done)`` transitions with seeded
    uniform sampling.

    The ring is a ``ReplayBatch`` indexed by slot. Its arrays start at
    ``INITIAL_ROWS`` rows and double as the ring fills, up to ``capacity``,
    so a large capacity costs nothing until it is used. Once full, each
    insert overwrites the oldest slot. Draws name transitions by age, not
    by slot, so a ring loaded from ``state_dict`` output samples exactly
    as the saved one would.
    """

    INITIAL_ROWS = 64

    def __init__(self, capacity: int, state_dim: int, rng: np.random.Generator):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.state_dim = state_dim
        self._rng = rng
        self._size = 0
        self._next = 0
        self._slots = _zero_batch(min(capacity, self.INITIAL_ROWS), state_dim)

    def __len__(self) -> int:
        return self._size

    def insert(self, transition: Transition) -> None:
        width = (self.state_dim,)
        if np.shape(transition.state) != width or np.shape(transition.next_state) != width:
            raise ValueError(f"transition states must have shape {width}")
        slot = self._next
        if slot == len(self._slots.actions):
            grown = _zero_batch(min(self.capacity, 2 * slot), self.state_dim)
            for new, old in zip(grown, self._slots):
                new[:slot] = old
            self._slots = grown
        for field, value in zip(self._slots, transition):
            field[slot] = value
        self._size = min(self._size + 1, self.capacity)
        self._next = (slot + 1) % self.capacity

    def state_dict(self) -> dict:
        """The ring's columns, oldest transition first."""
        n = self._size
        return columns_dict(ReplayBatch(*(np.roll(field[:n], -self._next, axis=0) for field in self._slots)))

    def load_state_dict(self, d: Mapping, what: str = "replay state") -> None:
        """Fill an empty ring from ``state_dict`` output; ``what`` names ``d``
        as ``load_columns`` does, with the capacity as its row limit."""
        columns = load_columns(_zero_batch(0, self.state_dim), d, self.capacity, what)
        n = len(columns.actions)
        self._slots = _zero_batch(min(self.capacity, max(n, self.INITIAL_ROWS)), self.state_dim)
        for field, column in zip(self._slots, columns):
            field[:n] = column
        self._size = n
        self._next = n % self.capacity

    def sample_indices(self, batch_size: int) -> np.ndarray:
        if batch_size > self._size:
            raise ValueError(f"cannot sample {batch_size} from buffer of {self._size}")
        return self._rng.integers(0, self._size, size=batch_size)

    def sample(self, batch_size: int) -> ReplayBatch:
        """One fancy-indexed copy per field of ``batch_size`` uniform draws;
        draw i picks the i-th oldest transition."""
        idx = self.sample_indices(batch_size)
        if self._size == self.capacity:
            idx = (idx + self._next) % self.capacity
        return ReplayBatch(*(field[idx] for field in self._slots))


_RNG_STATE_KEYS = frozenset({"bit_generator", "state", "inc", "has_uint32", "uinteger"})


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
            seq = np.random.SeedSequence([self.master_seed, stable_hash(name)])
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
        """Set each named stream to its ``state_dict`` entry. ``what``
        prefixes the dotted path of a stream, or of its value, in the error
        for a missing or unknown key and a value that is not what
        ``state_dict`` writes: the bit generator ``"PCG64"``, ``state`` and
        ``inc`` as the decimal text of an integer in [0, 2**128),
        ``has_uint32`` as the JSON integer 0 or 1 and ``uinteger`` as a JSON
        integer in [0, 2**32) (``read_json`` rejects a boolean or a
        float)."""
        for name, st in d.items():
            where = f"{what}.{name}"
            check_keys(where, st, _RNG_STATE_KEYS)
            if st["bit_generator"] != "PCG64":
                raise InputError(f"{where}.bit_generator is {st['bit_generator']!r}, expected 'PCG64'")
            state = {key: _load_pcg64_word(st[key], f"{where}.{key}") for key in ("state", "inc")}
            self.get(name).bit_generator.state = {
                "bit_generator": "PCG64",
                "state": state,
                "has_uint32": load_below(st["has_uint32"], 2, f"{where}.has_uint32"),
                "uinteger": load_below(st["uinteger"], 1 << 32, f"{where}.uinteger"),
            }


def _load_pcg64_word(text, what: str) -> int:
    """The integer whose decimal text ``text`` is, if it is in [0, 2**128):
    ``str(n)`` exactly, with no sign, space or leading zero; anything else
    is rejected with its dotted path ``what``."""
    text = read_json(text, str, what)
    # 2**128 has 39 digits, so a longer text is out of range unparsed.
    if len(text) <= 39 and text.isascii() and text.isdigit():
        n = int(text)
        if str(n) == text and n < 1 << 128:
            return n
    raise InputError(f"{what} is {text!r}, expected the decimal text of an integer in [0, 2**128)")


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
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stable_hash("gradcheck")])))
            params = xavier_init(tuple(topology), rng)
            x = rng.normal(size=topology[0])
            out_grad = rng.normal(size=topology[-1])
            _, activations = forward_cached(params, x[None, :])
            analytic = backward(params, activations, out_grad[None, :])
            numeric = finite_difference_gradients(params, x, out_grad, h=h)
            for a, n in zip(analytic.weights + analytic.biases, numeric.weights + numeric.biases):
                worst = max(worst, _tensor_relative_error(a, n))
    return worst
