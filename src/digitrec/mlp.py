"""A sigmoid perceptron with one hidden layer, trained by online backprop.

Sample-at-a-time updates with momentum, and a binary on-disk format. The
input, hidden and output widths are free so the formulas can be checked
on tiny networks, but the digit pipeline always builds 76-H-10 models
with crisp one-of-ten targets. The network math takes an optional
leading run axis, on which train stacks lockstep runs, and writes into
preallocated buffers that train reuses from step to step.
"""

from __future__ import annotations

import math
import os
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
GATHER_STEPS = 16  # steps whose rows train gathers at once; more saved no time


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


def sigmoid(x, out=None, work=None):
    """Logistic function, stable for large |x|: exp(min(x, 0)) / (1 + exp(-|x|)).

    Written into out if given. work, if given, is a (2, *x.shape) float64
    array that takes both exponentials, so that one np.exp call does them,
    and x must then be a float64 array.
    """
    if work is None:
        x = np.asarray(x, dtype=np.float64)
        work = np.empty((2, *x.shape))
    np.minimum(x, 0.0, out=work[0])
    np.copysign(x, -1.0, out=work[1])
    np.exp(work, out=work)
    np.add(work[1], 1.0, out=work[1])
    return np.divide(work[0], work[1], out=out)


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


def _split(flat: np.ndarray, sizes: list[int]) -> list[np.ndarray]:
    """The (H, I+1) and (O, H+1) matrices of sizes [I, H, O] as views of flat's last axis."""
    n_in, hidden, n_out = sizes
    cut = hidden * (n_in + 1)
    lead = flat.shape[:-1]
    return [flat[..., :cut].reshape(*lead, hidden, n_in + 1),
            flat[..., cut:].reshape(*lead, n_out, hidden + 1)]


class _Buffers:
    """The arrays that a forward pass over rows of leading shape lead, and
    with backward a backward pass too, write with out=; train's steps
    reuse one set."""

    def __init__(self, sizes: list[int], lead: tuple, backward: bool = False):
        n_in, hidden, n_out = sizes
        self.hidden = np.empty((*lead, hidden + 1))
        self.hidden[..., -1] = 1.0  # the bias input; the sigmoid writes only act, the rest
        self.act = self.hidden[..., :-1]
        # One array per layer holds its net input and its sigmoid's two work rows;
        # the output layer's holds out too.
        h, o = np.empty((3, *lead, hidden)), np.empty((4, *lead, n_out))
        self.net_hidden, self.work_hidden = h[0], h[1:]
        self.out, self.net_out, self.work_out = o[0], o[1], o[2:]
        if backward:
            self.delta_hidden, self.slope_hidden = np.empty((2, *lead, hidden))
            self.delta_out, self.slope_out = np.empty((2, *lead, n_out))
            self.flat_grad = np.empty((*lead, hidden * (n_in + 1) + n_out * (hidden + 1)))
            self.grads = _split(self.flat_grad, sizes)


def _layer_inputs(weights: list[np.ndarray], x: np.ndarray, buf: _Buffers) -> None:
    """Fill buf.hidden (the hidden activations, then the bias 1) and buf.out from x,
    which ends in its bias 1."""
    np.einsum("...hk,...k->...h", weights[0], x, out=buf.net_hidden)  # einsum calls no BLAS
    sigmoid(buf.net_hidden, buf.act, buf.work_hidden)
    np.einsum("...oh,...h->...o", weights[1], buf.hidden, out=buf.net_out)
    sigmoid(buf.net_out, buf.out, buf.work_out)


def _error(diff: np.ndarray) -> np.ndarray:
    """E = 0.5 * ||output - target||^2 per row, from diff = output - target."""
    return 0.5 * np.einsum("...o,...o->...", diff, diff)


def _backprop(weights: list[np.ndarray], x: np.ndarray, target: np.ndarray,
              buf: _Buffers, diff: np.ndarray) -> None:
    """Gradients of E = 0.5 * ||target - output||^2 into buf.grads, and output - target
    into diff."""
    _layer_inputs(weights, x, buf)
    np.subtract(buf.out, target, out=diff)
    np.subtract(1.0, buf.out, out=buf.slope_out)
    np.multiply(diff, buf.out, out=buf.delta_out)
    np.multiply(buf.delta_out, buf.slope_out, out=buf.delta_out)
    np.einsum("...oh,...o->...h", weights[1][..., :-1], buf.delta_out, out=buf.delta_hidden)
    np.subtract(1.0, buf.act, out=buf.slope_hidden)
    np.multiply(buf.delta_hidden, buf.act, out=buf.delta_hidden)
    np.multiply(buf.delta_hidden, buf.slope_hidden, out=buf.delta_hidden)
    # Each entry is one product, as with broadcasting, but in a faster loop. einsum
    # stores 0 + d*x, so a product of -0.0 is kept as +0.0; the oracle tests show
    # that this never reaches a weight.
    np.einsum("...h,...k->...hk", buf.delta_hidden, x, out=buf.grads[0])
    np.einsum("...o,...h->...oh", buf.delta_out, buf.hidden, out=buf.grads[1])


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Output activations for one feature vector, or one row of them per row of x."""
    x = _biased_input(model, x)
    buf = _Buffers(model.layer_sizes, x.shape[:-1])
    _layer_inputs(model.weights, x, buf)
    return buf.out


def predict(model: MlpModel, x: np.ndarray) -> int:
    """Label of the strongest output for one vector; ties go to the lowest label."""
    if np.ndim(x) != 1:
        raise DimensionMismatchError(f"predict takes one feature vector, not shape {np.shape(x)}")
    return int(np.argmax(forward(model, x)))


def gradient(model: MlpModel, x: np.ndarray, label: int) -> list[np.ndarray]:
    """dE/dw per weight matrix for E = 0.5 * ||target - output||^2 of one vector."""
    x = _biased_input(model, x)
    buf = _Buffers(model.layer_sizes, x.shape[:-1], backward=True)
    _backprop(model.weights, x, _targets(model, label, x), buf, np.empty_like(buf.out))
    return buf.grads


def sample_error(model: MlpModel, x: np.ndarray, labels):
    """0.5 * squared error of one vector against its label's target, as a
    float, or the array of them for a matrix of rows and their labels."""
    out = forward(model, x)
    error = _error(out - _targets(model, labels, out))
    return float(error) if out.ndim == 1 else error


def stop_state(history: list[float], max_epochs: int) -> tuple[int, str | None]:
    """(stale, reason) for a run whose epoch errors so far are history.

    stale counts the epochs in a row at the end of history whose error
    improved on the one before by less than STOP_TOLERANCE, capped at
    PATIENCE: only the last PATIENCE + 1 errors are read, so a check
    after every epoch costs the same at any length. reason is "stalled"
    once stale reaches PATIENCE, else "max_epochs" once history holds
    max_epochs errors, else None: training goes on.
    """
    stale, tail = 0, history[-PATIENCE - 1:]
    for before, error in zip(tail, tail[1:]):
        stale = stale + 1 if before - error < STOP_TOLERANCE else 0
    if stale >= PATIENCE:
        return stale, "stalled"
    return stale, "max_epochs" if len(history) >= max_epochs else None


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
    epochs in a row, as stop_state says. x, labels and rows are checked
    once per call.

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
    sizes = models[0].layer_sizes
    if other := next((m.layer_sizes for m in models if m.layer_sizes != sizes), None):
        raise ValueError(f"models of layer sizes {sizes} and {other} cannot train in lockstep")
    if not all(r.ndim == 1 and r.dtype.kind in "iu" and ((r >= 0) & (r < len(inputs))).all()
               for r in members if r.size):
        raise ValueError(f"rows must be 1-D arrays of ints in 0..{len(inputs) - 1}")
    if not all(map(len, members)):
        raise EmptyDatasetError("cannot train on an empty dataset")
    targets = _targets(models[0], labels, inputs)

    rngs = [np.random.Generator(np.random.PCG64(config.seed + r)) for r in range(len(models))]
    # One flat row of parameters per run, and one of velocities; _split views the matrices.
    params = np.stack([np.concatenate([w.ravel() for w in m.weights]) for m in models])
    velocity = np.zeros_like(params)
    histories: list[list[float]] = [[] for _ in models]
    runs = list(range(len(models)))  # the runs still training, in stack order
    while runs := [r for r in runs if stop_state(histories[r], config.max_epochs)[1] is None]:
        orders = [members[r][rngs[r].permutation(len(members[r]))] for r in runs]
        shortest = min(map(len, orders))
        epoch_error = np.zeros(len(models))
        # All runs step together up to the shortest shuffle, then each finishes alone.
        parts = [(runs, np.stack([order[:shortest] for order in orders], axis=1))]
        parts += [([r], order[shortest:, None])
                  for r, order in zip(runs, orders) if len(order) > shortest]
        for ids, visits in parts:
            p, v = params[ids], velocity[ids]
            epoch_error[ids] = _steps(p, v, inputs, targets, visits, epoch_error[ids], sizes,
                                      config)
            params[ids], velocity[ids] = p, v
        for r in runs:
            histories[r].append(float(epoch_error[r]))
    for m, p in zip(models, params):
        for mw, w in zip(m.weights, _split(p, sizes)):
            mw[...] = w
    for m in models:  # a diverged run would predict one class wherever it is used
        _check_weights(m.weights, TrainingDivergedError,
                       f"training diverged at learning rate {config.learning_rate}: ")
    return model, histories[0] if one else histories


def _steps(params: np.ndarray, velocity: np.ndarray, inputs: np.ndarray, targets: np.ndarray,
           visits: np.ndarray, start: np.ndarray, sizes: list[int],
           config: TrainingConfig) -> np.ndarray:
    """Online steps, in place, of the runs stacked in params and velocity: step i trains
    run a on row visits[i, a] of inputs and targets. Returns start plus each run's
    summed error, added in visit order."""
    buf = _Buffers(sizes, params.shape[:-1], backward=True)
    weights = _split(params, sizes)
    diffs = np.empty((*visits.shape, targets.shape[-1]))
    for first in range(0, len(visits), GATHER_STEPS):
        chunk = visits[first:first + GATHER_STEPS]
        for x, target, diff in zip(inputs.take(chunk, 0), targets.take(chunk, 0),
                                   diffs[first:]):
            _backprop(weights, x, target, buf, diff)
            np.multiply(velocity, config.momentum, out=velocity)
            np.multiply(buf.flat_grad, config.learning_rate, out=buf.flat_grad)
            np.subtract(velocity, buf.flat_grad, out=velocity)
            np.add(params, velocity, out=params)
    # A running sum in visit order: the same bits as adding each step's error to start.
    return np.cumsum(np.concatenate([start[None], _error(diffs)]), axis=0)[-1]


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
    """Read a file written by save_model, verifying every byte is used.
    The path is a str, bytes or path-like, never an int (TypeError)."""
    with open(os.fspath(path), "rb") as fh:
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
