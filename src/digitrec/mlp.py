"""A small sigmoid multilayer perceptron trained by online backprop.

One hidden layer, sample-at-a-time weight updates with momentum, and a
binary on-disk format. Layer sizes are free so the formulas can be
checked on tiny networks, but the digit pipeline always builds
76-hidden-10 models with crisp one-of-ten targets.
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


def _check_input(model: MlpModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.input_size,):
        raise DimensionMismatchError(
            f"feature vector of shape {x.shape} does not fit input size "
            f"{model.input_size}")
    return x


def _layer_inputs(model: MlpModel, x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Each layer's input with the bias input 1 appended, and the output."""
    inputs = []
    for w in model.weights:
        inputs.append(np.concatenate([x, [1.0]]))
        x = sigmoid(w @ inputs[-1])
    return inputs, x


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Output activations for one feature vector."""
    return _layer_inputs(model, _check_input(model, x))[1]


def predict(model: MlpModel, x: np.ndarray) -> int:
    """Label of the strongest output; ties go to the lowest label."""
    return int(np.argmax(forward(model, x)))


def _error(out: np.ndarray, label: int) -> tuple[np.ndarray, float]:
    """out - target for the one-of-n target of label, and E = 0.5 * ||out - target||^2."""
    diff = out.copy()
    diff[label] -= 1.0
    return diff, 0.5 * float(diff @ diff)


def _backprop(model: MlpModel, x: np.ndarray, label: int) -> tuple[list[np.ndarray], float]:
    """Gradients of E = 0.5 * ||target - output||^2, plus E itself."""
    inputs, out = _layer_inputs(model, x)
    diff, error = _error(out, label)
    grads: list[np.ndarray] = [np.empty(0)] * len(model.weights)
    # Output delta, then walk the layers backward.
    delta = diff * out * (1.0 - out)
    for i in range(len(model.weights) - 1, -1, -1):
        grads[i] = np.outer(delta, inputs[i])
        if i > 0:
            act = inputs[i][:-1]
            delta = (model.weights[i][:, :-1].T @ delta) * act * (1.0 - act)
    return grads, error


def gradient(model: MlpModel, sample: LabeledSample) -> list[np.ndarray]:
    """dE/dw per weight matrix for E = 0.5 * ||target - output||^2."""
    x = _check_input(model, sample.features)
    return _backprop(model, x, sample.label)[0]


def sample_error(model: MlpModel, sample: LabeledSample) -> float:
    """0.5 * squared error of one sample."""
    return _error(forward(model, sample.features), sample.label)[1]


def train(model: MlpModel, data: list[LabeledSample],
          config: TrainingConfig) -> tuple[MlpModel, list[float]]:
    """Online backpropagation with momentum, in place.

    Samples are visited one at a time in a fresh seeded shuffle each
    epoch; each visit applies

        dw(t) = -lr * dE/dw + momentum * dw(t-1)

    where dw(t-1) is the previous update of the same weight (velocity
    carries across samples and epochs). The returned history holds the
    summed per-sample error of each epoch, measured as each sample is
    visited. Training stops after max_epochs, or earlier once the
    epoch error improves by less than stop_tolerance for patience
    epochs in a row.
    """
    if not data:
        raise EmptyDatasetError("cannot train on an empty dataset")
    for sample in data:
        _check_input(model, sample.features)
        if not 0 <= sample.label < model.output_size:
            raise DimensionMismatchError(
                f"label {sample.label} outside 0..{model.output_size - 1}")

    rng = np.random.Generator(np.random.PCG64(config.seed))
    velocity = [np.zeros_like(w) for w in model.weights]
    history: list[float] = []
    stale = 0
    for _ in range(config.max_epochs):
        order = rng.permutation(len(data))
        epoch_error = 0.0
        for idx in order:
            sample = data[idx]
            grads, error = _backprop(model, sample.features, sample.label)
            epoch_error += error
            for i, grad in enumerate(grads):
                velocity[i] = config.momentum * velocity[i] - config.learning_rate * grad
                model.weights[i] += velocity[i]
        if history and history[-1] - epoch_error < config.stop_tolerance:
            stale += 1
        else:
            stale = 0
        history.append(epoch_error)
        if stale >= config.patience:
            break
    return model, history


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
    if offset != len(data):
        raise ShapeMismatchError(f"{len(data) - offset} trailing bytes after weights")
    return MlpModel(weights)
