"""Experiment harness: datasets, stratified k-fold CV, hidden-size sweeps.

Accuracies are percentages. They are kept at full precision inside
reports and rounded to two decimals (half-up) only when formatted for
CSV or printing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Callable

import numpy as np

from ._atomic import atomic_open
from .features import extract_features
from .imgproc import GRID
from .mlp import (OUTPUT_SIZE, LabeledSample, TrainingConfig, forward,
                  init_model, train)


class TooFewSamplesError(ValueError):
    """Raised when a class cannot populate every fold."""


class LengthMismatchError(ValueError):
    pass


class LabelOutOfRangeError(ValueError):
    pass


@dataclass
class Dataset:
    """Labeled feature vectors plus a per-sample source identifier."""
    samples: list[LabeledSample]
    provenance: list[str]

    def __post_init__(self):
        if len(self.samples) != len(self.provenance):
            raise ValueError("samples and provenance differ in length")

    def __len__(self) -> int:
        return len(self.samples)

    def labels(self) -> list[int]:
        return [s.label for s in self.samples]


@dataclass
class EvaluationReport:
    fold_count: int
    per_fold_accuracy: list[float]
    mean_accuracy: float
    confusion: np.ndarray
    config: TrainingConfig


# A trainer consumes (training samples, fold config) and returns a
# classifier for single samples. Injected in tests to decouple the
# harness arithmetic from actual backprop runs.
Trainer = Callable[[list[LabeledSample], TrainingConfig], Callable[[LabeledSample], int]]


def make_folds(data: Dataset, k: int, seed: int) -> np.ndarray:
    """Stratified fold assignment: the int64 fold index of each sample.

    Each class is shuffled with its own slice of a seeded PCG64 stream
    and dealt round-robin, so per-class fold counts differ by at most
    one. Raises TooFewSamplesError when any class has fewer than k
    samples.
    """
    if k < 2:
        raise ValueError("need at least 2 folds")
    labels = np.array(data.labels())
    rng = np.random.Generator(np.random.PCG64(seed))
    assignments = np.full(len(data), -1, dtype=np.int64)
    for label in sorted(set(labels.tolist())):
        idx = np.flatnonzero(labels == label)
        if idx.size < k:
            raise TooFewSamplesError(
                f"class {label} has {idx.size} samples, fewer than {k} folds")
        idx = rng.permutation(idx)
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
    one forward pass; an injected trainer is called once per fold, just
    before its classifier scores that fold one sample at a time. The
    confusion matrix pools the test predictions of all folds.
    """
    folds = make_folds(data, k, config.seed)
    configs = [replace(config, seed=config.seed + fold) for fold in range(k)]
    train_sets = [[data.samples[i] for i in np.flatnonzero(folds != fold)] for fold in range(k)]
    if trainer is None:
        models, _ = train([init_model(c) for c in configs], train_sets, config)
    per_fold = []
    confusion = np.zeros((OUTPUT_SIZE, OUTPUT_SIZE), dtype=np.int64)
    for fold in range(k):
        test_samples = [data.samples[i] for i in np.flatnonzero(folds == fold)]
        if trainer is None:
            rows = np.array([s.features for s in test_samples])
            preds = forward(models[fold], rows).argmax(axis=1)
        else:
            classify = trainer(train_sets[fold], configs[fold])
            preds = [classify(s) for s in test_samples]
        fold_confusion = confusion_matrix([s.label for s in test_samples], preds)
        per_fold.append(100.0 * int(np.trace(fold_confusion)) / len(test_samples))
        confusion += fold_confusion
    mean = sum(per_fold) / k
    return EvaluationReport(k, per_fold, mean, confusion, config)


def sweep_hidden(data: Dataset, sizes: list[int], config: TrainingConfig,
                 k: int = 3, evaluate=cross_validate
                 ) -> tuple[list[tuple[int, list[float], float]], int]:
    """Cross-validate once per hidden size and pick the best.

    sizes must be ascending. Returns the result table as
    (size, per-fold accuracies, mean) rows plus the selected size:
    highest mean accuracy, ties going to the smaller network.
    """
    if not sizes:
        raise ValueError("no hidden sizes to sweep")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"hidden sizes must be ascending, got {sizes}")
    if any(n < 1 for n in sizes):
        raise ValueError(f"hidden sizes must be positive, got {sizes}")
    rows = []
    best_size, best_mean = None, -1.0
    for size in sizes:
        report = evaluate(data, replace(config, hidden_size=size), k)
        rows.append((size, report.per_fold_accuracy, report.mean_accuracy))
        if report.mean_accuracy > best_mean:
            best_size, best_mean = size, report.mean_accuracy
    return rows, best_size


def format_accuracy(value: float) -> str:
    """Percentage with two decimals, rounding halves up."""
    return str(Decimal(str(value)).quantize(Decimal("0.01"), ROUND_HALF_UP))


def write_report_csv(path: str | Path, report: EvaluationReport) -> None:
    """Fold accuracies then the mean, as fold,accuracy rows."""
    lines = ["fold,accuracy"]
    for i, acc in enumerate(report.per_fold_accuracy, start=1):
        lines.append(f"{i},{format_accuracy(acc)}")
    lines.append(f"mean,{format_accuracy(report.mean_accuracy)}")
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def write_sweep_csv(path: str | Path,
                    rows: list[tuple[int, list[float], float]]) -> None:
    """One row per swept size: size,fold1..foldk,mean."""
    k = len(rows[0][1])
    lines = ["size," + ",".join(f"fold{i}" for i in range(1, k + 1)) + ",mean"]
    for size, per_fold, mean in rows:
        cells = [str(size)] + [format_accuracy(a) for a in per_fold]
        cells.append(format_accuracy(mean))
        lines.append(",".join(cells))
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

_STROKE = (14, 18)  # column/row band of the thick bar glyphs


def toy_glyph(label: int) -> np.ndarray:
    """Archetype raster for one synthetic class, 32x32 binary.

    The ten shapes (vertical bar, horizontal bar, the two diagonals,
    ring, cross, L, T, filled disc, zig-zag) differ strongly in their
    projections, octant balance, and run structure, which is exactly
    what the feature vector measures.
    """
    img = np.zeros((GRID, GRID), dtype=np.uint8)
    lo, hi = 4, 28
    a, b = _STROKE
    rr, cc = np.mgrid[0:GRID, 0:GRID]
    center_dist = np.hypot(rr - 15.5, cc - 15.5)
    if label == 0:      # vertical bar
        img[lo:hi, a:b] = 1
    elif label == 1:    # horizontal bar
        img[a:b, lo:hi] = 1
    elif label == 2:    # NW-SE diagonal stroke
        img[(abs(rr - cc) <= 1) & (rr >= lo) & (rr < hi) & (cc >= lo) & (cc < hi)] = 1
    elif label == 3:    # NE-SW diagonal stroke
        img[(abs(rr + cc - 31) <= 1) & (rr >= lo) & (rr < hi) & (cc >= lo) & (cc < hi)] = 1
    elif label == 4:    # ring
        img[(center_dist >= 8) & (center_dist <= 11)] = 1
    elif label == 5:    # cross
        img[lo:hi, a:b] = 1
        img[a:b, lo:hi] = 1
    elif label == 6:    # L
        img[lo:hi, 6:10] = 1
        img[24:hi, 6:26] = 1
    elif label == 7:    # T
        img[lo:8, lo:hi] = 1
        img[lo:hi, a:b] = 1
    elif label == 8:    # filled disc
        img[center_dist <= 9] = 1
    elif label == 9:    # zig-zag
        knees = [(4, 6), (11, 20), (18, 6), (25, 20)]
        for (r0, c0), (r1, c1) in zip(knees, knees[1:]):
            for r in range(r0, r1 + 1):
                c = round(c0 + (c1 - c0) * (r - r0) / (r1 - r0))
                img[r, max(0, c - 1):c + 2] = 1
    else:
        raise ValueError(f"label {label} outside 0..9")
    return img


def _shift(img: np.ndarray, dr: int, dc: int) -> np.ndarray:
    """Translate without wrap-around; pixels leaving the frame vanish."""
    out = np.zeros_like(img)
    src_r = slice(max(0, -dr), GRID - max(0, dr))
    src_c = slice(max(0, -dc), GRID - max(0, dc))
    dst_r = slice(max(0, dr), GRID - max(0, -dr))
    dst_c = slice(max(0, dc), GRID - max(0, -dc))
    out[dst_r, dst_c] = img[src_r, src_c]
    return out


def make_toy_dataset(per_class: int, noise: float, seed: int) -> Dataset:
    """Feature vectors for jittered, noisy copies of the ten glyphs.

    Each copy shifts its archetype by up to two pixels in each axis
    and then flips every pixel independently with probability noise,
    all drawn from one seeded PCG64 stream, before feature extraction.
    Provenance tags record class, copy index, and jitter.
    """
    if per_class < 1:
        raise ValueError("per_class must be at least 1")
    if not 0 <= noise <= 1:
        raise ValueError("noise must lie in [0, 1]")
    rng = np.random.Generator(np.random.PCG64(seed))
    samples = []
    provenance = []
    for label in range(OUTPUT_SIZE):
        base = toy_glyph(label)
        for i in range(per_class):
            dr, dc = (int(v) for v in rng.integers(-2, 3, size=2))
            img = _shift(base, dr, dc)
            if noise > 0:
                flips = rng.random((GRID, GRID)) < noise
                img = np.where(flips, 1 - img, img).astype(np.uint8)
            samples.append(LabeledSample(extract_features(img), label))
            provenance.append(f"toy:{label}:{i}:jitter={dr:+d}{dc:+d}")
    return Dataset(samples, provenance)
