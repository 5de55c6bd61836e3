"""Command line front end.

Subcommands: extract, train, predict, crossval, sweep. Data goes to
stdout or the requested output files; diagnostics go to stderr. Exit
codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import evaluation, features, imgproc, mlp, pgm
from ._atomic import atomic_open


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through
    # UsageError so usage problems map to exit code 1 instead.
    def error(self, message):
        raise UsageError(message)


def parse_threshold(text: str) -> int | None:
    """An integer cutoff in 0..255, or "otsu" for automatic."""
    if text.strip().lower() == "otsu":
        return None
    try:
        value = int(text)
    except ValueError:
        raise UsageError(f"bad threshold {text!r}: expected an integer or 'otsu'")
    if not 0 <= value <= 255:
        raise UsageError(f"threshold {value} outside 0..255")
    return value


def parse_sizes(spec: str) -> list[int]:
    """Hidden sizes as "start:end:step" or a comma list, ascending."""
    spec = spec.strip()
    try:
        if ":" in spec:
            parts = [int(p) for p in spec.split(":")]
            if len(parts) != 3:
                raise ValueError
            start, end, step = parts
            if step <= 0:
                raise UsageError(f"size step must be positive in {spec!r}")
            if start > end:
                raise UsageError(f"size range {spec!r} runs backwards")
            sizes = list(range(start, end + 1, step))
        else:
            sizes = [int(p) for p in spec.split(",")]
    except ValueError:
        raise UsageError(f"bad size spec {spec!r}") from None
    if not sizes or any(n < 1 for n in sizes):
        raise UsageError(f"sizes must be positive in {spec!r}")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise UsageError(f"sizes must be ascending in {spec!r}")
    return sizes


def _image_to_features(path: Path, threshold: int | None, invert: bool) -> np.ndarray:
    gray = pgm.read_pgm(path)
    canonical = imgproc.normalize_image(gray, threshold, invert)
    return features.extract_features(canonical)


def load_corpus(root: str | Path, threshold: int | None,
                invert: bool) -> tuple[evaluation.Dataset, list[str]]:
    """Read a directory tree of PGMs into a feature dataset.

    The root holds one subdirectory per class, named 0..9. Files are
    visited in sorted order. Images with no ink are skipped with a
    warning and returned in the second element; any other unreadable
    file aborts.
    """
    root = Path(root)
    if not root.is_dir():
        raise DataError(f"corpus root {root} is not a directory")
    class_dirs = [d for d in sorted(root.iterdir())
                  if d.is_dir() and d.name.isdigit() and len(d.name) == 1]
    if not class_dirs:
        raise DataError(f"no class directories 0..9 under {root}")
    samples: list[mlp.LabeledSample] = []
    provenance: list[str] = []
    skipped: list[str] = []
    for class_dir in class_dirs:
        label = int(class_dir.name)
        count = 0
        for path in sorted(class_dir.iterdir()):
            if not path.is_file() or path.suffix.lower() != ".pgm":
                continue
            try:
                vec = _image_to_features(path, threshold, invert)
            except imgproc.NoForegroundError:
                print(f"warning: no ink in {path}, skipped", file=sys.stderr)
                skipped.append(str(path))
                continue
            except (pgm.PgmError, OSError) as exc:
                raise DataError(f"{path}: {exc}") from exc
            samples.append(mlp.LabeledSample(vec, label))
            provenance.append(str(path))
            count += 1
        print(f"class {label}: {count} samples", file=sys.stderr)
    if not samples:
        raise DataError(f"no readable PGM samples under {root}")
    return evaluation.Dataset(samples, provenance), skipped


def _load_dataset(path_text: str, threshold: int | None,
                  invert: bool) -> evaluation.Dataset:
    """A corpus directory, or a feature CSV written by extract."""
    path = Path(path_text)
    if path.is_dir():
        return load_corpus(path, threshold, invert)[0]
    if not path.exists():
        raise DataError(f"{path}: no such file or directory")
    try:
        lines, labels, vectors = features.read_features_csv(path, with_lines=True)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    samples = [mlp.LabeledSample(v, l) for l, v in zip(labels, vectors)]
    provenance = [f"{path}:{line}" for line in lines]
    if not samples:
        raise DataError(f"{path}: no samples")
    return evaluation.Dataset(samples, provenance)


def _training_inputs(args) -> tuple[mlp.TrainingConfig, evaluation.Dataset]:
    """(config, dataset) for train, crossval and sweep; flags are checked first."""
    if getattr(args, "folds", 2) < 2:
        raise UsageError(f"--folds must be at least 2, got {args.folds}")
    threshold = parse_threshold(args.threshold)
    try:
        config = mlp.TrainingConfig(
            hidden_size=getattr(args, "hidden", 65), learning_rate=args.lr,
            momentum=args.momentum, max_epochs=args.epochs, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return config, _load_dataset(args.data, threshold, args.invert)


def cmd_extract(args) -> int:
    data = load_corpus(args.data_dir, parse_threshold(args.threshold), args.invert)[0]
    features.write_features_csv(
        args.out, [s.label for s in data.samples], [s.features for s in data.samples])
    print(f"wrote {len(data)} rows to {args.out}", file=sys.stderr)
    return 0


def cmd_train(args) -> int:
    config, data = _training_inputs(args)
    if len(set(data.labels())) < 2:
        raise DataError("training needs at least two distinct classes")
    model = mlp.init_model(config)
    model, history = mlp.train(model, data.samples, config)
    mlp.save_model(args.model_out, model)
    labels = np.array(data.labels())
    outputs = mlp.forward(model, np.array([s.features for s in data.samples]))
    # Left to right over the rows, as summing sample_error would give.
    sse = sum(mlp._error(outputs, np.eye(model.output_size)[labels])[1].tolist())
    hits = int((outputs.argmax(axis=1) == labels).sum())
    print(f"epochs {len(history)}", file=sys.stderr)
    print(f"sse {sse:.6f}")
    print(f"accuracy {evaluation.format_accuracy(100.0 * hits / len(data))}")
    print(f"wrote model to {args.model_out}", file=sys.stderr)
    return 0


def cmd_predict(args) -> int:
    model = mlp.load_model(args.model)
    if model.output_size != mlp.OUTPUT_SIZE:
        raise DataError(f"{args.model}: model has {model.output_size} outputs, "
                        f"expected {mlp.OUTPUT_SIZE}")
    threshold = parse_threshold(args.threshold)
    try:
        vec = _image_to_features(Path(args.image), threshold, args.invert)
    except (pgm.PgmError, imgproc.NoForegroundError, OSError) as exc:
        raise DataError(f"{args.image}: {exc}") from exc
    outputs = mlp.forward(model, vec)
    print(int(np.argmax(outputs)))
    print(" ".join(f"{v:.6f}" for v in outputs))
    return 0


def cmd_crossval(args) -> int:
    config, data = _training_inputs(args)
    report = evaluation.cross_validate(data, config, args.folds)
    evaluation.write_report_csv(args.report_out, report)
    confusion_path = Path(args.report_out).with_suffix(".confusion.txt")
    with atomic_open(confusion_path) as fh:
        fh.write(evaluation.format_confusion(report.confusion))
    print(f"wrote {args.report_out} and {confusion_path}", file=sys.stderr)
    print(f"mean accuracy {evaluation.format_accuracy(report.mean_accuracy)}")
    return 0


def cmd_sweep(args) -> int:
    sizes = parse_sizes(args.sizes)
    config, data = _training_inputs(args)
    rows, best = evaluation.sweep_hidden(data, sizes, config, args.folds)
    evaluation.write_sweep_csv(args.report_out, rows)
    print(f"wrote {args.report_out}", file=sys.stderr)
    print(f"selected {best}")
    return 0


def _add_image_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threshold", default="128",
                   help="binarization cutoff 0..255, or 'otsu' (default 128)")
    p.add_argument("--invert", action="store_true",
                   help="treat bright pixels as ink (light-on-dark scans)")


def _add_training_flags(p: argparse.ArgumentParser, with_hidden: bool = True) -> None:
    if with_hidden:
        p.add_argument("--hidden", type=int, default=65,
                       help="hidden layer size (default 65)")
    p.add_argument("--lr", type=float, default=0.8,
                   help="learning rate (default 0.8)")
    p.add_argument("--momentum", type=float, default=0.7,
                   help="momentum factor (default 0.7)")
    p.add_argument("--epochs", type=int, default=500,
                   help="epoch limit (default 500)")
    p.add_argument("--seed", type=int, default=1,
                   help="seed for weights and shuffling (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="digitrec",
        description="Handwritten digit recognition: projection features "
                    "plus a small backpropagation network.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="corpus directory to feature CSV")
    p.add_argument("data_dir", help="directory with class subdirectories 0..9")
    p.add_argument("out", help="output CSV path")
    _add_image_flags(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train a model on a corpus or feature CSV")
    p.add_argument("data", help="corpus directory or feature CSV")
    p.add_argument("--model-out", default="model.mlp", help="output model path")
    _add_training_flags(p)
    _add_image_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="classify one PGM image")
    p.add_argument("model", help="model file written by train")
    p.add_argument("image", help="PGM image to classify")
    _add_image_flags(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("crossval", help="stratified k-fold cross-validation")
    p.add_argument("data", help="corpus directory or feature CSV")
    p.add_argument("--folds", type=int, default=3, help="fold count (default 3)")
    p.add_argument("--report-out", default="report.csv", help="report CSV path")
    _add_training_flags(p)
    _add_image_flags(p)
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("sweep", help="cross-validate a range of hidden sizes")
    p.add_argument("data", help="corpus directory or feature CSV")
    p.add_argument("--sizes", required=True,
                   help="hidden sizes, 'start:end:step' or comma list")
    p.add_argument("--folds", type=int, default=3, help="fold count (default 3)")
    p.add_argument("--report-out", default="sweep.csv", help="sweep CSV path")
    _add_training_flags(p, with_hidden=False)
    _add_image_flags(p)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"digitrec: {exc}", file=sys.stderr)
        return 1
    except (DataError, pgm.PgmError, imgproc.NoForegroundError,
            mlp.ModelFormatError, mlp.EmptyDatasetError,
            mlp.DimensionMismatchError, evaluation.TooFewSamplesError,
            OSError) as exc:
        print(f"digitrec: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"digitrec: internal error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
