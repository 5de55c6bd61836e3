"""A sigmoid perceptron with one hidden layer, trained by online backprop.

Sample-at-a-time updates with momentum, and a binary on-disk format. The
input, hidden and output widths are free so the formulas can be checked
on tiny networks, but the digit pipeline always builds 76-H-10 models
with crisp one-of-ten targets. The network math takes an optional
leading run axis, on which train stacks lockstep runs.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from ._atomic import atomic_open
from .features import FEATURE_COUNT, VALUE_LIMIT

INPUT_SIZE = FEATURE_COUNT
OUTPUT_SIZE = 10
STOP_TOLERANCE = 1e-4  # training stops once its epoch error has improved by less
PATIENCE = 20  # than STOP_TOLERANCE for PATIENCE epochs in a row

MAGIC = b"MLP1"
FORMAT_VERSION = 1
MAX_LAYER_SIZE = 2**32 - 1  # the model format stores each layer size as a u32


class EmptyDatasetError(ValueError):
    """Raised when training is asked to run on no samples."""


class DimensionMismatchError(ValueError):
    """Raised when a feature vector does not fit the model's input."""


class TrainingDivergedError(ValueError):
    """Raised when training ends with a weight outside [-1e6, 1e6]."""


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
class TrainingConfig:
    """Hyperparameters for init_model and train.

    seed drives every random choice (weight init and the per-epoch shuffle),
    so a config determines the model on one numpy build and SIMD level.
    """
    hidden_size: int = 65
    learning_rate: float = 0.8
    momentum: float = 0.7
    max_epochs: int = 500
    seed: int = 1

    def __post_init__(self):
        for name in ("hidden_size", "max_epochs", "seed"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer")
        if not 1 <= self.hidden_size <= MAX_LAYER_SIZE:
            raise ValueError(f"hidden_size must lie in 1..{MAX_LAYER_SIZE}")
        for name in ("learning_rate", "momentum"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("learning_rate", "max_epochs", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")


@dataclass
class MlpModel:
    """Two weight matrices, (H, I+1) from input to hidden and (O, H+1) from
    hidden to output, I, H, O >= 1: one row per target unit, its bias last."""
    weights: list[np.ndarray]

    def __post_init__(self):
        shapes = [np.shape(w) for w in self.weights]
        if ([len(s) for s in shapes] != [2, 2] or shapes[1][1] != shapes[0][0] + 1
                or min(shapes[0][0], shapes[0][1] - 1, shapes[1][0]) < 1):
            raise ShapeMismatchError(
                f"weight shapes {shapes} are not (H, I+1) and (O, H+1) with I, H, O >= 1")

    @property
    def layer_sizes(self) -> list[int]:
        return [self.input_size, self.weights[0].shape[0], self.output_size]

    @property
    def input_size(self) -> int:
        return self.weights[0].shape[1] - 1

    @property
    def output_size(self) -> int:
        return self.weights[1].shape[0]


def sigmoid(x):
    """Logistic function, stable for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    t = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, t) / (1.0 + t)


def random_model(layer_sizes: list[int], seed: int) -> MlpModel:
    """Model of sizes [input, hidden, output], weights uniform in [-0.5, 0.5] by a seeded PCG64."""
    if len(layer_sizes) != 3:
        raise ShapeMismatchError(f"layer sizes {layer_sizes} are not [input, hidden, output]")
    n_in, hidden, n_out = layer_sizes
    rng = np.random.Generator(np.random.PCG64(seed))
    return MlpModel([rng.uniform(-0.5, 0.5, size=(hidden, n_in + 1)),
                     rng.uniform(-0.5, 0.5, size=(n_out, hidden + 1))])


def init_model(config: TrainingConfig) -> MlpModel:
    """Fresh seeded 76-H-10 model for the digit pipeline."""
    return random_model([INPUT_SIZE, config.hidden_size, OUTPUT_SIZE], config.seed)


def _biased_input(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """x (a vector or matrix of rows, values in [-1e6, 1e6]) checked, as float64 plus a bias 1."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != model.input_size:
        raise DimensionMismatchError(
            f"features of shape {x.shape} do not fit input size {model.input_size}")
    if not np.abs(x).max(initial=0.0) <= VALUE_LIMIT:  # NaN too, which would make NaN weights
        raise DimensionMismatchError("feature value non-finite or outside [-1e6, 1e6]")
    return np.concatenate([x, np.ones_like(x[..., :1])], axis=-1)


def _targets(model: MlpModel, labels, x: np.ndarray) -> np.ndarray:
    """One-of-n target rows for int labels, once checked to fit x's rows and the output width."""
    labels = np.asarray(labels)
    if labels.shape != x.shape[:-1]:
        raise DimensionMismatchError(f"labels of shape {labels.shape}, expected {x.shape[:-1]}")
    # Unchecked, np.eye(n)[-1] would pick row n-1 without a word.
    if labels.dtype.kind not in "iu" or ((labels < 0) | (labels >= model.output_size)).any():
        raise DimensionMismatchError(f"labels must be ints in 0..{model.output_size - 1}")
    return np.eye(model.output_size)[labels]


def _layer_inputs(weights: list[np.ndarray], x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The hidden activations ending in the bias input 1 (x already does), and the output."""
    act = sigmoid(np.einsum("...hk,...k->...h", weights[0], x))  # einsum calls no BLAS kernel
    hidden = np.concatenate([act, np.ones_like(act[..., :1])], axis=-1)
    return hidden, sigmoid(np.einsum("...oh,...h->...o", weights[1], hidden))


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
    return diff, 0.5 * np.einsum("...o,...o->...", diff, diff)


def _backprop(weights: list[np.ndarray], x: np.ndarray,
              target: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Gradients of E = 0.5 * ||target - output||^2 for both matrices, plus E itself."""
    hidden, out = _layer_inputs(weights, x)
    diff, error = _error(out, target)
    delta_out = diff * out * (1.0 - out)
    act = hidden[..., :-1]
    delta_hidden = np.einsum("...oh,...o->...h", weights[1][..., :-1], delta_out) * act * (1.0 - act)
    return [delta_hidden[..., :, None] * x[..., None, :],
            delta_out[..., :, None] * hidden[..., None, :]], error


def gradient(model: MlpModel, x: np.ndarray, label: int) -> list[np.ndarray]:
    """dE/dw per weight matrix for E = 0.5 * ||target - output||^2 of one vector."""
    x = _biased_input(model, x)
    return _backprop(model.weights, x, _targets(model, label, x))[0]


def sample_error(model: MlpModel, x: np.ndarray, labels):
    """0.5 * squared error of one vector against its label's target, as a
    float, or the array of them for a matrix of rows and their labels."""
    x = _biased_input(model, x)
    error = _error(_layer_inputs(model.weights, x)[1], _targets(model, labels, x))[1]
    return float(error) if x.ndim == 1 else error


def train(model: MlpModel | list[MlpModel], x: np.ndarray, labels, config: TrainingConfig,
          rows: list[np.ndarray] | None = None) -> tuple:
    """Online backpropagation with momentum, in place; (model, history).

    The model trains on the rows of x, a matrix with one feature vector
    per row, and labels holds each row's int label. Rows are visited
    one at a time in a fresh seeded shuffle each epoch; each visit
    applies

        dw(t) = -lr * dE/dw + momentum * dw(t-1)

    where dw(t-1) is the previous update of the same weight (velocity
    carries across samples and epochs). The returned history holds the
    summed per-sample error of each epoch, measured as each row is
    visited. Training stops after max_epochs, or earlier once the
    epoch error improves by less than STOP_TOLERANCE for PATIENCE
    epochs in a row. x, labels and rows are checked once per call.

    Given a list of models and a list rows of as many index arrays into
    x, run r trains models[r] on x[rows[r]] with seed config.seed + r,
    and (models, histories) is returned. The runs step in lockstep,
    stacked on a leading run axis, and each ends as it would have
    trained alone on its rows. rows goes with a list of models only.
    Final weights that save_model would refuse raise TrainingDivergedError.
    """
    one = isinstance(model, MlpModel)
    if one != (rows is None):
        raise ValueError("rows must be given with a list of models, and only with one")
    models = [model] if one else model
    inputs = _biased_input(models[0], x)
    if inputs.ndim != 2:
        raise DimensionMismatchError(f"train takes a matrix of rows, not shape {np.shape(x)}")
    members = [np.arange(len(inputs))] if one else [np.asarray(r) for r in rows]
    if len(members) != len(models):
        raise ValueError(f"{len(models)} models but {len(members)} arrays of rows")
    if not all(r.ndim == 1 and r.dtype.kind in "iu" and ((r >= 0) & (r < len(inputs))).all()
               for r in members if r.size):
        raise ValueError(f"rows must be 1-D arrays of ints in 0..{len(inputs) - 1}")
    if not all(map(len, members)):
        raise EmptyDatasetError("cannot train on an empty dataset")
    targets = _targets(models[0], labels, inputs)

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
            for visit in visits:
                grads, error = _backprop(ws, inputs.take(visit, 0), targets.take(visit, 0))
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
            stale[r] = stale[r] + 1 if history and history[-1] - error < STOP_TOLERANCE else 0
            history.append(error)
        keep = [a for a, r in enumerate(runs) if stale[r] < PATIENCE]
        runs = [runs[a] for a in keep]
        weights, velocity = [w[keep] for w in weights], [v[keep] for v in velocity]
        if not runs:
            break
    for m in models:  # a diverged run would predict one class wherever it is used
        _check_weights(m.weights, TrainingDivergedError,
                       f"training diverged at learning rate {config.learning_rate}: ")
    return model, histories[0] if one else histories


def _check_weights(weights: list[np.ndarray], error=ModelFormatError, prefix: str = "") -> None:
    for layer, w in enumerate(weights, 1):
        if not (np.abs(w) <= VALUE_LIMIT).all():  # NaN too; keeps forward finite
            raise error(f"{prefix}weight outside [-1e6, 1e6] in layer {layer}")


def save_model(path, model: MlpModel) -> None:
    """Write the binary model format, or ModelFormatError if load_model would reject a weight.

    Little-endian throughout: the 4-byte magic "MLP1", a u32 format
    version, a u32 layer count (always 3), the u32 input, hidden and
    output sizes, then both weight matrices in row-major float64 with
    the bias column last.
    """
    _check_weights(model.weights)
    parts = [MAGIC, struct.pack("<5I", FORMAT_VERSION, 3, *model.layer_sizes)]
    parts += [np.ascontiguousarray(w, dtype="<f8").tobytes() for w in model.weights]
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
        offset += n
        return data[offset - n:offset]

    offset = 0
    if take(4, "magic") != MAGIC:
        raise BadMagicError("not a model file (bad magic)")
    version, = struct.unpack("<I", take(4, "version"))
    if version != FORMAT_VERSION:
        raise VersionMismatchError(f"unsupported format version {version}")
    count, = struct.unpack("<I", take(4, "layer count"))
    if count != 3:
        raise ShapeMismatchError(f"layer count {count}, expected 3: input, hidden, output")
    sizes = struct.unpack("<3I", take(12, "layer sizes"))
    weights = []
    for n_in, n_out in zip(sizes, sizes[1:]):
        raw = take(8 * n_out * (n_in + 1), "weight matrix")
        weights.append(np.frombuffer(raw, dtype="<f8").reshape(n_out, n_in + 1).copy())
    _check_weights(weights)
    if offset != len(data):
        raise ShapeMismatchError(f"{len(data) - offset} trailing bytes after weights")
    return MlpModel(weights)
