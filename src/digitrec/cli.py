"""Command line front end.

Subcommands: extract, train, predict, crossval, sweep. Data goes to
stdout or the requested output files; diagnostics go to stderr. Exit
codes: 0 success, 1 usage error, 2 data error or out of memory, 3 internal
error.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

import numpy as np

from . import evaluation, features, imgproc, mlp, pgm
from ._atomic import atomic_open, check_output


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


# A sweep cross-validates each size, k trainings apiece: far fewer sizes than
# this are practical, and a range is counted before it becomes a list.
MAX_SWEEP_SIZES = 1000


def parse_sizes(spec: str) -> list[int]:
    """Hidden sizes as "start:end:step" or a comma list, ascending, at most
    mlp.MAX_LAYER_SIZE, and at most MAX_SWEEP_SIZES of them."""
    spec = spec.strip()
    try:
        if ":" in spec:
            start, end, step = map(int, spec.split(":"))
            if step <= 0:
                raise UsageError(f"size step must be positive in {spec!r}")
            if start > end:
                raise UsageError(f"size range {spec!r} runs backwards")
            # Bounded and counted before the range becomes a list.
            listed, count = [end], len(range(start, end + 1, step))
        else:
            listed = [int(p) for p in spec.split(",")]
            count = len(listed)
    except ValueError:
        raise UsageError(f"bad size spec {spec!r}") from None
    if max(listed) > mlp.MAX_LAYER_SIZE:
        raise UsageError(f"sizes must be at most {mlp.MAX_LAYER_SIZE} in {spec!r}")
    if count > MAX_SWEEP_SIZES:
        raise UsageError(f"at most {MAX_SWEEP_SIZES} sizes, not {count}, in {spec!r}")
    sizes = list(range(start, end + 1, step)) if ":" in spec else listed
    if any(n < 1 for n in sizes):  # a range or a split is never empty
        raise UsageError(f"sizes must be positive in {spec!r}")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise UsageError(f"sizes must be ascending in {spec!r}")
    return sizes


# Scans of one class read and extracted together. On 100 scans a class,
# chunks of 16 ran as fast as chunks of 32 or 128 and raised peak memory
# 0.8 MB over one scan at a time; a whole class at once raised it 5.4 MB.
# A chunk's scans are held at once, so the rise grows with the scan size.
CHUNK = 16


def load_corpus(root: str | Path, threshold: int | None,
                invert: bool) -> tuple[evaluation.Dataset, list[str]]:
    """Read a directory tree of PGMs into a feature dataset.

    The root holds one subdirectory per class, named exactly 0..9;
    other entries are ignored. Files are visited in sorted order and
    extracted CHUNK at a time, with the bits of one at a time. Images
    with no ink are skipped with a warning and returned in the second
    element; any other unreadable file aborts, after the warnings for
    the files before it.
    """
    root = Path(root)
    if not root.is_dir():
        raise DataError(f"corpus root {root} is not a directory")
    class_dirs = [d for d in sorted(root.iterdir()) if d.is_dir() and d.name in set("0123456789")]
    if not class_dirs:
        raise DataError(f"no class directories 0..9 under {root}")
    rows: list[np.ndarray] = []
    labels: list[int] = []
    skipped: list[str] = []

    def extract(paths: list[Path], grays: list[np.ndarray]) -> np.ndarray:
        """Feature rows of the scans with ink; a warning for each other scan."""
        rasters, found = imgproc.normalize_images(grays, threshold, invert)
        for path in itertools.compress(paths, ~found):
            print(f"warning: no ink in {path}, skipped", file=sys.stderr)
            skipped.append(str(path))
        return features.extract_features(rasters)

    for class_dir in class_dirs:
        label = int(class_dir.name)
        paths = [p for p in sorted(class_dir.iterdir())
                 if p.is_file() and p.suffix.lower() == ".pgm"]
        for first in range(0, len(paths), CHUNK):
            chunk, grays = paths[first:first + CHUNK], []
            try:
                for path in chunk:
                    grays.append(pgm.read_pgm(path))
            except (pgm.PgmError, OSError) as exc:
                extract(chunk, grays)  # the scans before it warn first, as one at a time
                raise DataError(f"{path}: {exc}") from exc
            rows.append(extract(chunk, grays))
            labels += [label] * len(rows[-1])
        print(f"class {label}: {labels.count(label)} samples", file=sys.stderr)
    if not labels:
        raise DataError(f"no readable PGM samples under {root}")
    return evaluation.Dataset(np.concatenate(rows), labels), skipped


def _load_dataset(path_text: str, threshold: int | None,
                  invert: bool) -> evaluation.Dataset:
    """A corpus directory, or a feature CSV written by extract."""
    path = Path(path_text)
    if path.is_dir():
        return load_corpus(path, threshold, invert)[0]
    if not path.exists():
        raise DataError(f"{path}: no such file or directory")
    try:
        labels, rows = features.read_features_csv(path)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    if not len(labels):
        raise DataError(f"{path}: no samples")
    return evaluation.Dataset(rows, labels)


def _training_config(args) -> mlp.TrainingConfig:
    """The config of train, crossval and sweep. Each command checks its
    flags here, then its output paths with check_output, and only then
    reads its data, so that no bad path waits for the training."""
    if getattr(args, "folds", 2) < 2:
        raise UsageError(f"--folds must be at least 2, got {args.folds}")
    try:
        return mlp.TrainingConfig(
            hidden_size=args.hidden, learning_rate=args.lr,
            momentum=args.momentum, max_epochs=args.epochs, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_extract(args) -> int:
    data = load_corpus(args.data_dir, args.threshold, args.invert)[0]
    features.write_features_csv(args.out, data.labels, data.features)
    print(f"wrote {len(data)} rows to {args.out}", file=sys.stderr)
    return 0


def cmd_train(args) -> int:
    config = _training_config(args)
    check_output(args.model_out)
    data = _load_dataset(args.data, args.threshold, args.invert)
    if np.count_nonzero(np.bincount(data.labels)) < 2:
        raise DataError("training needs at least two distinct classes")
    model, history = mlp.train(mlp.init_model(config), data.features, data.labels, config)
    mlp.save_model(args.model_out, model)
    sse = sum(mlp.sample_error(model, data.features, data.labels).tolist())
    hits = int((mlp.forward(model, data.features).argmax(axis=1) == data.labels).sum())
    print(f"epochs {len(history)}", file=sys.stderr)
    print(f"sse {sse:.6f}")
    print(f"accuracy {evaluation.format_accuracy(100.0 * hits / len(data))}")
    print(f"wrote model to {args.model_out}", file=sys.stderr)
    return 0


def cmd_predict(args) -> int:
    try:
        model = mlp.load_model(args.model)
    except mlp.ModelFormatError as exc:
        raise DataError(f"{args.model}: {exc}") from exc
    if model.output_size != mlp.OUTPUT_SIZE:
        raise DataError(f"{args.model}: model has {model.output_size} outputs, "
                        f"expected {mlp.OUTPUT_SIZE}")
    try:
        raster = imgproc.normalize_image(pgm.read_pgm(args.image), args.threshold, args.invert)
        vec = features.extract_features(raster)
    except (pgm.PgmError, imgproc.NoForegroundError, OSError) as exc:
        raise DataError(f"{args.image}: {exc}") from exc
    outputs = mlp.forward(model, vec)
    print(int(np.argmax(outputs)))
    print(" ".join(f"{v:.6f}" for v in outputs))
    return 0


def cmd_crossval(args) -> int:
    config = _training_config(args)
    check_output(args.report_out)  # first: with_suffix refuses a name such as '' or '.'
    confusion_path = Path(args.report_out).with_suffix(".confusion.txt")
    check_output(confusion_path)
    data = _load_dataset(args.data, args.threshold, args.invert)
    report = evaluation.cross_validate(data, config, args.folds)
    evaluation.write_report_csv(args.report_out, report)
    with atomic_open(confusion_path) as fh:
        fh.write(evaluation.format_confusion(report.confusion))
    print(f"wrote {args.report_out} and {confusion_path}", file=sys.stderr)
    print(f"mean accuracy {evaluation.format_accuracy(report.mean_accuracy)}")
    return 0


def cmd_sweep(args) -> int:
    config = _training_config(args)
    check_output(args.report_out)
    data = _load_dataset(args.data, args.threshold, args.invert)
    reports, best = evaluation.sweep_hidden(data, args.sizes, config, args.folds)
    evaluation.write_sweep_csv(args.report_out, reports)
    print(f"wrote {args.report_out}", file=sys.stderr)
    print(f"selected {best}")
    return 0


def _add_image_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threshold", type=parse_threshold, default=imgproc.DEFAULT_THRESHOLD,
                   help="binarization cutoff 0..255, or 'otsu' (default %(default)s)")
    p.add_argument("--invert", action="store_true",
                   help="treat bright pixels as ink (light-on-dark scans)")


def _add_training_flags(p: argparse.ArgumentParser, with_hidden: bool = True) -> None:
    """The TrainingConfig flags, defaulting to its fields."""
    default = mlp.TrainingConfig()
    if with_hidden:
        p.add_argument("--hidden", type=int, default=default.hidden_size,
                       help="hidden layer size (default %(default)s)")
    else:
        p.set_defaults(hidden=default.hidden_size)
    p.add_argument("--lr", type=float, default=default.learning_rate,
                   help="learning rate (default %(default)s)")
    p.add_argument("--momentum", type=float, default=default.momentum,
                   help="momentum factor (default %(default)s)")
    p.add_argument("--epochs", type=int, default=default.max_epochs,
                   help="epoch limit (default %(default)s)")
    p.add_argument("--seed", type=int, default=default.seed,
                   help="seed for weights and shuffling (default %(default)s)")


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
    p.add_argument("--sizes", type=parse_sizes, required=True,
                   help="hidden sizes, 'start:end:step' or comma list")
    p.add_argument("--folds", type=int, default=3, help="fold count (default 3)")
    p.add_argument("--report-out", default="sweep.csv", help="sweep CSV path")
    _add_training_flags(p, with_hidden=False)
    _add_image_flags(p)
    p.set_defaults(func=cmd_sweep)
    return parser


def _hidden_sizes(args) -> str:
    """The hidden sizes a command was asked to train, as words, or "" for none."""
    if hasattr(args, "sizes"):
        return f" for hidden sizes up to {args.sizes[-1]}"
    return f" for hidden size {args.hidden}" if hasattr(args, "hidden") else ""


def main(argv=None) -> int:
    args = None
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        # A command line cannot carry NUL, and no path can hold it.
        if any("\0" in str(arg) for arg in argv):
            raise UsageError("an argument holds a NUL character")
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except UsageError as exc:
        message, code = str(exc), 1
    except (DataError, pgm.PgmError, imgproc.NoForegroundError,
            mlp.ModelFormatError, mlp.TrainingDivergedError, mlp.EmptyDatasetError,
            mlp.DimensionMismatchError, evaluation.TooFewSamplesError,
            OSError) as exc:
        message, code = str(exc), 2
    except MemoryError as exc:  # numpy's _ArrayMemoryError too: a size in bounds may not fit
        message, code = f"out of memory{_hidden_sizes(args)}: {str(exc) or 'allocation failed'}", 2
    except Exception as exc:  # pragma: no cover - defensive
        message, code = f"internal error: {exc}", 3
    # One line, whatever line breaks a path or an argument holds.
    print(f"digitrec: {message}".replace("\n", "\\n"), file=sys.stderr)
    return code


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
