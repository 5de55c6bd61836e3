"""A small sigmoid multilayer perceptron trained by online backprop.

One hidden layer, sample-at-a-time weight updates with momentum, and a
binary on-disk format. Layer sizes are free so the formulas can be
checked on tiny networks, but the digit pipeline always builds
76-hidden-10 models with crisp one-of-ten targets. The network math
takes an optional leading run axis, on which train stacks lockstep runs.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from ._atomic import atomic_open
from .features import FEATURE_COUNT

INPUT_SIZE = FEATURE_COUNT
OUTPUT_SIZE = 10

MAGIC = b"MLP1"
FORMAT_VERSION = 1


class EmptyDatasetError(ValueError):
    """Raised when training is asked to run on no samples."""


class DimensionMismatchError(ValueError):
    """Raised when a feature vector does not fit the model's input."""


class ModelFormatError(ValueError):
    """Base error for unreadable model files."""


class BadMagicError(ModelFormatError):
    pass


class VersionMismatchError(ModelFormatError):
    pass


class TruncatedStreamError(ModelFormatError):
    pass


class ShapeMismatchError(ModelFormatError):
    pass


@dataclass
class LabeledSample:
    features: np.ndarray
    label: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 1:
            raise ValueError("features must be a 1-D vector")
        if not 0 <= int(self.label) < OUTPUT_SIZE:
            raise ValueError(f"label {self.label} outside 0..{OUTPUT_SIZE - 1}")
        self.label = int(self.label)


@dataclass
class TrainingConfig:
    """Hyperparameters for init_model and train.

    seed drives every random choice (weight init and the per-epoch
    shuffle), so a config fully determines the trained model.
    """
    hidden_size: int = 65
    learning_rate: float = 0.8
    momentum: float = 0.7
    max_epochs: int = 500
    stop_tolerance: float = 1e-4
    patience: int = 20
    seed: int = 1

    def __post_init__(self):
        if self.hidden_size < 1:
            raise ValueError("hidden_size must be at least 1")
        for name in ("learning_rate", "momentum", "stop_tolerance"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("learning_rate", "max_epochs", "stop_tolerance"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")


@dataclass
class MlpModel:
    """Weights of a fully connected sigmoid network.

    weights[i] maps layer i to layer i+1 and has one row per target
    unit; the last column of each row is the unit's bias.
    """
    weights: list[np.ndarray] = field(default_factory=list)

    @property
    def layer_sizes(self) -> list[int]:
        return [self.input_size] + [w.shape[0] for w in self.weights]

    @property
    def input_size(self) -> int:
        return self.weights[0].shape[1] - 1

    @property
    def output_size(self) -> int:
        return self.weights[-1].shape[0]


def sigmoid(x):
    """Logistic function, stable for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    t = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, t) / (1.0 + t)


def random_model(layer_sizes: list[int], seed: int) -> MlpModel:
    """Weights drawn uniformly from [-0.5, 0.5] with a seeded PCG64."""
    if len(layer_sizes) < 2 or any(n < 1 for n in layer_sizes):
        raise ValueError(f"bad layer sizes {layer_sizes}")
    rng = np.random.Generator(np.random.PCG64(seed))
    weights = []
    for n_in, n_out in zip(layer_sizes, layer_sizes[1:]):
        weights.append(rng.uniform(-0.5, 0.5, size=(n_out, n_in + 1)))
    return MlpModel(weights)


def init_model(config: TrainingConfig) -> MlpModel:
    """Fresh seeded 76-H-10 model for the digit pipeline."""
    return random_model([INPUT_SIZE, config.hidden_size, OUTPUT_SIZE], config.seed)


def _biased_input(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """x (one vector or a matrix of rows) as float64 with a bias input 1 appended, once checked."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != model.input_size:
        raise DimensionMismatchError(
            f"features of shape {x.shape} do not fit input size {model.input_size}")
    biased = np.ones(x.shape[:-1] + (model.input_size + 1,))
    biased[..., :-1] = x
    return biased


def _layer_inputs(weights: list[np.ndarray],
                  x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Each layer's input ending in the bias input 1 (x already does), and the output."""
    inputs = [x]
    for w in weights[:-1]:
        act = sigmoid(np.matmul(w, inputs[-1][..., None])[..., 0])
        inputs.append(np.concatenate([act, np.ones_like(act[..., :1])], axis=-1))
    return inputs, sigmoid(np.matmul(weights[-1], inputs[-1][..., None])[..., 0])


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Output activations for one feature vector, or one row of them per row of x."""
    return _layer_inputs(model.weights, _biased_input(model, x))[1]


def predict(model: MlpModel, x: np.ndarray) -> int:
    """Label of the strongest output for one vector; ties go to the lowest label."""
    if np.ndim(x) != 1:
        raise DimensionMismatchError(f"predict takes one feature vector, not shape {np.shape(x)}")
    return int(np.argmax(forward(model, x)))


def _error(out: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """out - target, and E = 0.5 * ||out - target||^2 per run of the leading axis."""
    diff = out - target
    return diff, 0.5 * np.matmul(diff[..., None, :], diff[..., :, None])[..., 0, 0]


def _backprop(weights: list[np.ndarray], x: np.ndarray,
              target: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Gradients of E = 0.5 * ||target - output||^2, plus E itself."""
    inputs, out = _layer_inputs(weights, x)
    diff, error = _error(out, target)
    grads: list[np.ndarray] = [np.empty(0)] * len(weights)
    # Output delta, then walk the layers backward.
    delta = diff * out * (1.0 - out)
    for i in range(len(weights) - 1, -1, -1):
        grads[i] = delta[..., :, None] * inputs[i][..., None, :]
        if i > 0:
            act = inputs[i][..., :-1]
            back = np.matmul(np.swapaxes(weights[i][..., :-1], -1, -2), delta[..., None])
            delta = back[..., 0] * act * (1.0 - act)
    return grads, error


def gradient(model: MlpModel, sample: LabeledSample) -> list[np.ndarray]:
    """dE/dw per weight matrix for E = 0.5 * ||target - output||^2."""
    x = _biased_input(model, sample.features)
    return _backprop(model.weights, x, np.eye(model.output_size)[sample.label])[0]


def sample_error(model: MlpModel, sample: LabeledSample) -> float:
    """0.5 * squared error of one sample."""
    target = np.eye(model.output_size)[sample.label]
    return float(_error(forward(model, sample.features), target)[1])


def train(model: MlpModel | list[MlpModel], data: list, config: TrainingConfig) -> tuple:
    """Online backpropagation with momentum, in place; (model, history).

    Samples are visited one at a time in a fresh seeded shuffle each
    epoch; each visit applies

        dw(t) = -lr * dE/dw + momentum * dw(t-1)

    where dw(t-1) is the previous update of the same weight (velocity
    carries across samples and epochs). The returned history holds the
    summed per-sample error of each epoch, measured as each sample is
    visited. Training stops after max_epochs, or earlier once the
    epoch error improves by less than stop_tolerance for patience
    epochs in a row. Samples are validated and stacked once per call.

    Given a list of models and as many sample lists, run r trains
    models[r] on data[r] with seed config.seed + r, and (models,
    histories) is returned. The runs step in lockstep, stacked on a
    leading run axis, and each ends as it would have trained alone.
    """
    one = isinstance(model, MlpModel)
    models, datasets = ([model], [data]) if one else (model, data)
    if not all(datasets):
        raise EmptyDatasetError("cannot train on an empty dataset")
    # One row per distinct sample: cross-validation folds share most of theirs.
    samples = list({id(s): s for d in datasets for s in d}.values())
    inputs = np.array([_biased_input(models[0], s.features) for s in samples])
    n_out = models[0].output_size
    for s in samples:
        if not 0 <= s.label < n_out:
            raise DimensionMismatchError(f"label {s.label} outside 0..{n_out - 1}")
    targets = np.eye(n_out)[[s.label for s in samples]]
    row = {id(s): i for i, s in enumerate(samples)}
    members = [np.array([row[id(s)] for s in d]) for d in datasets]

    rngs = [np.random.Generator(np.random.PCG64(config.seed + r)) for r in range(len(models))]
    weights = [np.stack(layer) for layer in zip(*(m.weights for m in models))]
    velocity = [np.zeros_like(w) for w in weights]
    histories: list[list[float]] = [[] for _ in models]
    stale = [0] * len(models)  # epochs in a row without enough improvement, per run
    runs = list(range(len(models)))  # the runs in the stack, in stack order
    for _ in range(config.max_epochs):
        orders = [members[r][rngs[r].permutation(len(members[r]))] for r in runs]
        shortest = min(map(len, orders))
        epoch_error = np.zeros(len(runs))
        # All runs step together up to the shortest shuffle, then each finishes alone.
        parts = [(slice(None), np.stack([order[:shortest] for order in orders], axis=1))]
        parts += [(slice(a, a + 1), order[shortest:, None]) for a, order in enumerate(orders)]
        for part, visits in parts:
            ws, vs = [w[part] for w in weights], [v[part] for v in velocity]
            errors = epoch_error[part]
            for rows in visits:
                grads, error = _backprop(ws, inputs.take(rows, 0), targets.take(rows, 0))
                errors += error
                for w, v, g in zip(ws, vs, grads):
                    v *= config.momentum
                    g *= config.learning_rate
                    v -= g
                    w += v
        for a, r in enumerate(runs):
            for mw, w in zip(models[r].weights, weights):
                mw[...] = w[a]
            error, history = float(epoch_error[a]), histories[r]
            if history and history[-1] - error < config.stop_tolerance:
                stale[r] += 1
            else:
                stale[r] = 0
            history.append(error)
        keep = [a for a, r in enumerate(runs) if stale[r] < config.patience]
        runs = [runs[a] for a in keep]
        weights, velocity = [w[keep] for w in weights], [v[keep] for v in velocity]
        if not runs:
            break
    return model, histories[0] if one else histories


def save_model(path, model: MlpModel) -> None:
    """Write the binary model format.

    Little-endian throughout: the 4-byte magic "MLP1", a u32 format
    version, a u32 layer count, one u32 per layer size, then each
    weight matrix in row-major float64 with the bias column last.
    """
    sizes = model.layer_sizes
    parts = [MAGIC, struct.pack(f"<II{len(sizes)}I", FORMAT_VERSION, len(sizes), *sizes)]
    for w in model.weights:
        parts.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
    with atomic_open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_model(path) -> MlpModel:
    """Read a file written by save_model, verifying every byte is used."""
    with open(path, "rb") as fh:
        data = fh.read()

    def take(n: int, what: str) -> bytes:
        nonlocal offset
        if offset + n > len(data):
            raise TruncatedStreamError(f"file ends inside {what}")
        chunk = data[offset:offset + n]
        offset += n
        return chunk

    offset = 0
    if take(4, "magic") != MAGIC:
        raise BadMagicError("not a model file (bad magic)")
    version, = struct.unpack("<I", take(4, "version"))
    if version != FORMAT_VERSION:
        raise VersionMismatchError(f"unsupported format version {version}")
    count, = struct.unpack("<I", take(4, "layer count"))
    if count < 2:
        raise ShapeMismatchError(f"layer count {count} is too small")
    sizes = struct.unpack(f"<{count}I", take(4 * count, "layer sizes"))
    if any(n < 1 for n in sizes):
        raise ShapeMismatchError(f"zero-sized layer in {sizes}")
    weights = []
    for n_in, n_out in zip(sizes, sizes[1:]):
        raw = take(8 * n_out * (n_in + 1), "weight matrix")
        weights.append(np.frombuffer(raw, dtype="<f8").reshape(n_out, n_in + 1).copy())
        if not (np.abs(weights[-1]) <= 1e6).all():  # NaN too; keeps forward far from overflow
            raise ModelFormatError(f"weight outside [-1e6, 1e6] in layer {len(weights)}")
    if offset != len(data):
        raise ShapeMismatchError(f"{len(data) - offset} trailing bytes after weights")
    return MlpModel(weights)
