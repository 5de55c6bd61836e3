"""Experiment harness: datasets, stratified k-fold CV, hidden-size sweeps.

Accuracies are percentages. They are kept at full precision inside
reports and rounded to two decimals (half-up) only when formatted for
CSV or printing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Callable

import numpy as np

from ._atomic import atomic_open
from .features import digit_labels, extract_features
from .imgproc import GRID
from .mlp import OUTPUT_SIZE, TrainingConfig, forward, init_model, train


class TooFewSamplesError(ValueError):
    """Raised when a class cannot populate every fold."""


class LengthMismatchError(ValueError):
    pass


class LabelOutOfRangeError(ValueError):
    pass


@dataclass
class Dataset:
    """An (n, d) float64 features matrix and its (n,) int64 labels in 0..9,
    checked once, here."""
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValueError(f"need an (n, d) feature matrix, got shape {self.features.shape}")
        self.labels = digit_labels(self.labels, len(self.features))

    def __len__(self) -> int:
        return len(self.labels)

    def take(self, rows: np.ndarray) -> Dataset:
        """The rows at the given indices, in that order."""
        return Dataset(self.features[rows], self.labels[rows])


@dataclass
class EvaluationReport:
    """Per-fold accuracies and the pooled confusion matrix; with the default
    trainer, also each fold's training history (epoch errors), in fold order."""
    per_fold_accuracy: list[float]
    confusion: np.ndarray
    histories: list[list[float]] = field(default_factory=list)

    @property
    def mean_accuracy(self) -> float:
        return sum(self.per_fold_accuracy) / len(self.per_fold_accuracy)


# A trainer consumes (a fold's training rows, fold config) and returns a
# classifier mapping a Dataset of test rows to an int label array. Injected
# in tests to decouple the harness arithmetic from actual backprop runs.
Trainer = Callable[[Dataset, TrainingConfig], Callable[[Dataset], np.ndarray]]


def make_folds(data: Dataset, k: int, seed: int) -> np.ndarray:
    """Stratified fold assignment: the int64 fold index of each sample.

    Each class is shuffled with its own slice of a seeded PCG64 stream
    and dealt round-robin, so per-class fold counts differ by at most
    one. Raises TooFewSamplesError when any class has fewer than k
    samples.
    """
    if k < 2:
        raise ValueError("need at least 2 folds")
    rng = np.random.Generator(np.random.PCG64(seed))
    assignments = np.full(len(data), -1, dtype=np.int64)
    counts = np.bincount(data.labels)
    for label in np.flatnonzero(counts):
        if counts[label] < k:
            raise TooFewSamplesError(
                f"class {label} has {counts[label]} samples, fewer than {k} folds")
        idx = rng.permutation(np.flatnonzero(data.labels == label))
        assignments[idx] = np.arange(idx.size) % k
    return assignments


def confusion_matrix(truths, preds) -> np.ndarray:
    """10x10 count matrix, rows true label, columns predicted, from int labels in 0..9."""
    truths, preds = np.asarray(truths), np.asarray(preds)
    if truths.ndim != 1 or truths.shape != preds.shape:
        raise LengthMismatchError(f"{truths.shape} truths vs {preds.shape} predictions")
    if truths.size and {truths.dtype.kind, preds.dtype.kind} - set("iu"):
        # A float label would otherwise be truncated into a cell.
        raise TypeError(f"labels must be integers, got {truths.dtype} and {preds.dtype}")
    pairs = np.stack([truths, preds]).astype(np.int64)
    bad = ((pairs < 0) | (pairs >= OUTPUT_SIZE)).any(axis=0)
    if bad.any():
        t, p = pairs[:, bad.argmax()].tolist()
        raise LabelOutOfRangeError(f"label pair ({t}, {p}) outside 0..9")
    cells = np.bincount(pairs[0] * OUTPUT_SIZE + pairs[1], minlength=OUTPUT_SIZE ** 2)
    return cells.reshape(OUTPUT_SIZE, OUTPUT_SIZE)


def cross_validate(data: Dataset, config: TrainingConfig, k: int = 3,
                   trainer: Trainer | None = None) -> EvaluationReport:
    """k-fold CV with per-fold reseeding.

    Fold i trains on the other folds with seed config.seed + i, so
    every fold's run is independently reproducible. Without a trainer,
    one train call runs the k backprop runs in lockstep, each to the
    model it would reach alone, and each fold's test rows are scored in
    one forward pass, and the report keeps each fold's history; an
    injected trainer is called once per fold, just before its classifier
    scores that fold's test rows. The confusion matrix pools the test
    predictions of all folds.
    """
    folds = make_folds(data, k, config.seed)
    configs = [replace(config, seed=config.seed + fold) for fold in range(k)]
    train_rows = [np.flatnonzero(folds != fold) for fold in range(k)]
    if trainer is None:
        models, histories = train([init_model(c) for c in configs], data.features,
                                  data.labels, config, train_rows)
    per_fold = []
    confusion = np.zeros((OUTPUT_SIZE, OUTPUT_SIZE), dtype=np.int64)
    for fold in range(k):
        test_set = data.take(np.flatnonzero(folds == fold))
        if trainer is None:
            preds = forward(models[fold], test_set.features).argmax(axis=1)
        else:
            preds = trainer(data.take(train_rows[fold]), configs[fold])(test_set)
        fold_confusion = confusion_matrix(test_set.labels, preds)
        per_fold.append(100.0 * int(np.trace(fold_confusion)) / len(test_set))
        confusion += fold_confusion
    return EvaluationReport(per_fold, confusion, histories if trainer is None else [])


def sweep_hidden(data: Dataset, sizes: list[int], config: TrainingConfig,
                 k: int = 3, evaluate=cross_validate
                 ) -> tuple[dict[int, EvaluationReport], int]:
    """Cross-validate once per hidden size and pick the best.

    sizes must be ascending. Returns each size's report, in size order,
    and the selected size: highest mean accuracy, ties going to the
    smaller network.
    """
    if not sizes:
        raise ValueError("no hidden sizes to sweep")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"hidden sizes must be ascending, got {sizes}")
    reports = {size: evaluate(data, replace(config, hidden_size=size), k) for size in sizes}
    return reports, max(reports, key=lambda size: reports[size].mean_accuracy)


def format_accuracy(value: float) -> str:
    """Percentage with two decimals, rounding halves up."""
    return str(Decimal(str(value)).quantize(Decimal("0.01"), ROUND_HALF_UP))


def _accuracy_cells(report: EvaluationReport) -> list[str]:
    """The report's fold accuracies, then its mean, formatted."""
    return [format_accuracy(a) for a in [*report.per_fold_accuracy, report.mean_accuracy]]


def write_report_csv(path: str | Path, report: EvaluationReport) -> None:
    """Fold accuracies then the mean, as fold,accuracy rows."""
    cells = _accuracy_cells(report)
    names = [*range(1, len(cells)), "mean"]
    lines = ["fold,accuracy"] + [f"{name},{cell}" for name, cell in zip(names, cells)]
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def write_sweep_csv(path: str | Path, reports: dict[int, EvaluationReport]) -> None:
    """One row per swept size, from its report: size,fold1..foldk,mean."""
    if not reports:
        raise ValueError("no sweep reports to write")
    k = len(next(iter(reports.values())).per_fold_accuracy)
    lines = ["size," + ",".join(f"fold{i}" for i in range(1, k + 1)) + ",mean"]
    lines += [",".join([str(size), *_accuracy_cells(r)]) for size, r in reports.items()]
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def format_confusion(mat: np.ndarray) -> str:
    """Fixed-width table; rows are true labels, columns predictions."""
    lines = ["true\\pred" + "".join(f"{j:>6}" for j in range(OUTPUT_SIZE))]
    for i in range(OUTPUT_SIZE):
        lines.append(f"{i:>9}" + "".join(f"{int(v):>6}" for v in mat[i]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Synthetic glyph corpus

def _toy_glyphs() -> np.ndarray:
    """The ten archetypes as a (10, 32, 32) uint8 table, from shared parts:
    the 4..27 box, the 14..17 bars inside it and the distance from the center."""
    rr, cc = np.ogrid[:GRID, :GRID]
    box = (4 <= rr) & (rr < 28) & (4 <= cc) & (cc < 28)
    vbar, hbar = box & (14 <= cc) & (cc < 18), box & (14 <= rr) & (rr < 18)
    dist = np.hypot(rr - 15.5, cc - 15.5)
    return np.stack([
        vbar, hbar,                                             # 0, 1 vertical, horizontal bar
        box & (abs(rr - cc) <= 1), box & (abs(rr + cc - 31) <= 1),  # 2, 3 NW-SE, NE-SW diagonal
        (8 <= dist) & (dist <= 11),                             # 4 ring
        vbar | hbar,                                            # 5 cross
        box & (6 <= cc) & ((cc < 10) | (24 <= rr) & (cc < 26)),  # 6 L
        vbar | box & (rr < 8),                                  # 7 T
        dist <= 9,                                              # 8 filled disc
        # 9 zig-zag: three strokes 3 wide through knees on rows 4, 11, 18 and 25
        box & (rr <= 25) & (abs(cc - np.interp(rr, [4, 11, 18, 25], [6, 20, 6, 20])) <= 1),
    ]).astype(np.uint8)


_TOY_GLYPHS = _toy_glyphs()


def toy_glyph(label: int) -> np.ndarray:
    """Archetype raster for one synthetic class, 32x32 binary.

    The ten shapes (vertical bar, horizontal bar, the two diagonals,
    ring, cross, L, T, filled disc, zig-zag) differ strongly in their
    projections, octant balance, and run structure, which is exactly
    what the feature vector measures.
    """
    if label not in range(OUTPUT_SIZE):  # by value, so 2.0 and True are labels, 1.5 is not
        raise ValueError(f"label {label} outside 0..9")
    return _TOY_GLYPHS[int(label)].copy()


def make_toy_dataset(per_class: int, noise: float, seed: int) -> Dataset:
    """Feature vectors for jittered, noisy copies of the ten glyphs.

    Each copy shifts its archetype by up to two pixels in each axis
    and then flips every pixel independently with probability noise,
    all drawn from one seeded PCG64 stream, before feature extraction.
    """
    if per_class < 1:
        raise ValueError("per_class must be at least 1")
    if not 0 <= noise <= 1:
        raise ValueError("noise must lie in [0, 1]")
    rng = np.random.Generator(np.random.PCG64(seed))
    padded = np.pad(_TOY_GLYPHS, ((0, 0), (2, 2), (2, 2)))  # a shift never wraps around
    labels = np.repeat(np.arange(OUTPUT_SIZE), per_class)
    glyphs = np.empty((labels.size, GRID, GRID), dtype=np.uint8)
    for img, label in zip(glyphs, labels):
        dr, dc = rng.integers(-2, 3, size=2)
        img[:] = padded[label, 2 - dr:2 - dr + GRID, 2 - dc:2 - dc + GRID]
        if noise > 0:
            img ^= rng.random((GRID, GRID)) < noise  # flip 0 and 1
    return Dataset(extract_features(glyphs), labels)
