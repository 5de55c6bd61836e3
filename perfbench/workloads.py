"""The three workloads: set-up, the operations of one round, and checks.

Every workload drives the package in-process through its public
modules (looked up as module attributes, so the tracer can wrap them),
checks each output against references computed by reference.py and
against properties of the generated inputs, and records every problem
it finds rather than stopping at the first.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np

import gen
import reference as ref
from digitrec import cli, features, imgproc, mlp, pgm

# Lowest accepted accuracy, in percent. See README.md for the reasons.
CROSSVAL_FLOOR = 90.0
CLASSIFY_FLOOR = 80.0
FOLDS = 3
HIDDEN = 65
# At most the default patience, so training never stops early and every
# crossval call does the same number of steps.
EPOCHS = 20
P2_SHARE = 0.25
CLASSIFY_THRESHOLD = 128
CENTROID = slice(24, 40)


@dataclass
class Sizes:
    """How much input each workload generates."""
    setups: int = 3               # set-ups per run; setup_s is their median
    ingest_per_class: int = 10
    ingest_blanks: int = 3
    crossval_per_class: int = 100
    classify_train_per_class: int = 10
    classify_cycle_per_class: int = 5


class OperationFailed(Exception):
    pass


def run_cli(argv: list[str]) -> tuple[str, str]:
    """digitrec <argv> in-process; (stdout, stderr). Raises on a non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise OperationFailed(f"digitrec {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue(), err.getvalue()


def feature_mismatch(got, want) -> bool:
    """Shadow and run features must match exactly; centroids are means
    and may differ in the last bit."""
    got, want = np.asarray(got), np.asarray(want)
    return not (np.array_equal(np.delete(got, CENTROID), np.delete(want, CENTROID))
                and np.abs(got[CENTROID] - want[CENTROID]).max() <= 1e-12)


def half_up(value: Fraction) -> Decimal:
    """A non-negative value rounded to two decimals, halves going up."""
    return Decimal(math.floor(value * 100 + Fraction(1, 2))) / 100


class Workload:
    name = ""
    items_per_op = 1

    def __init__(self, workdir: Path, seed: int, sizes: Sizes):
        self.dir = workdir
        self.seed = seed
        self.sizes = sizes
        self.problems: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok and message not in self.problems:
            self.problems.append(message)

    def fresh_dir(self, name: str) -> Path:
        path = self.dir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def setup(self) -> None:
        """Generate inputs and prepare the program; timed as set-up."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Compute references and run one-off checks; not timed."""

    def operations(self) -> list:
        """Callables making up one round; each result goes to check()."""
        raise NotImplementedError

    def check(self, result) -> None:
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Checks over the whole run; returns lines for the report."""
        return []


class Ingest(Workload):
    """digitrec extract --threshold otsu over a mixed P2/P5 corpus."""
    name = "ingest"

    def setup(self):
        s = self.sizes
        inputs = self.fresh_dir("inputs")
        self.scans = gen.make_corpus(inputs / "corpus", self.seed, s.ingest_per_class,
                                     s.ingest_blanks, P2_SHARE)
        self.corpus = inputs / "corpus"
        self.out = inputs / "features.csv"
        gen.make_corpus(inputs / "warmup", self.seed, 1, 0, P2_SHARE, "warmup")
        run_cli(["extract", str(inputs / "warmup"), str(inputs / "warmup.csv"),
                 "--threshold", "otsu"])

    def prepare(self):
        rows = [s for s in self.scans if not s.blank]
        self.items_per_op = len(rows)
        self.labels = [s.label for s in rows]
        self.blanks = [str(s.path) for s in self.scans if s.blank]
        self.want = [ref.features(ref.normalize(s.gray, ref.otsu(s.gray))) for s in rows]
        self.checked = None

    def operations(self):
        return [self.extract]

    def extract(self):
        _, err = run_cli(["extract", str(self.corpus), str(self.out), "--threshold", "otsu"])
        return err, self.out.read_bytes()

    def check(self, result):
        err, data = result
        prefix, suffix = "warning: no ink in ", ", skipped"
        skipped = [line[len(prefix):-len(suffix)] for line in err.splitlines()
                   if line.startswith(prefix) and line.endswith(suffix)]
        self.expect(skipped == self.blanks, "skipped list is not exactly the blank scans")
        if data == self.checked:
            return
        reader = csv.reader(io.StringIO(data.decode()))
        header = next(reader, None)
        self.expect(header == ["label"] + [f"f{i}" for i in range(gen.FEATURES)],
                    "feature CSV header is wrong")
        rows = list(reader)
        self.expect(len(rows) == len(self.want),
                    f"feature CSV has {len(rows)} rows, expected {len(self.want)}")
        for i, (row, label, want) in enumerate(zip(rows, self.labels, self.want)):
            self.expect(int(row[0]) == label, f"row {i}: label differs from its class directory")
            values = [float(v) for v in row[1:]]
            self.expect(all(0.0 <= v <= 1.0 for v in values), f"row {i}: feature outside [0, 1]")
            self.expect(not feature_mismatch(values, want), f"row {i}: features differ from reference")
        self.checked = data


class Crossval(Workload):
    """digitrec crossval --folds 3 --hidden 65 on a generated feature CSV."""
    name = "crossval"

    def setup(self):
        s = self.sizes
        inputs = self.fresh_dir("inputs")
        self.labels, rows = gen.make_feature_rows(self.seed, s.crossval_per_class)
        self.csv = inputs / "features.csv"
        gen.write_feature_csv(self.csv, self.labels, rows)
        self.report = inputs / "report.csv"
        warm = inputs / "warmup.csv"
        few = [i for c in range(gen.CLASSES) for i in np.flatnonzero(np.equal(self.labels, c))[:FOLDS]]
        gen.write_feature_csv(warm, [self.labels[i] for i in few], rows[few])
        run_cli(["crossval", str(warm), "--folds", str(FOLDS), "--hidden", str(HIDDEN),
                 "--epochs", "1", "--report-out", str(inputs / "warmup-report.csv")])

    def prepare(self):
        self.items_per_op = len(self.labels)
        self.class_counts = np.bincount(self.labels, minlength=gen.CLASSES)
        # make_folds deals each class round-robin from fold 0.
        self.fold_sizes = [sum(len(range(f, n, FOLDS)) for n in self.class_counts)
                           for f in range(FOLDS)]
        self.checked = None

    def operations(self):
        return [self.crossval]

    def crossval(self):
        out, _ = run_cli(["crossval", str(self.csv), "--folds", str(FOLDS),
                          "--hidden", str(HIDDEN), "--epochs", str(EPOCHS),
                          "--report-out", str(self.report)])
        confusion = self.report.with_suffix(".confusion.txt")
        return out, self.report.read_text(), confusion.read_text()

    def check(self, result):
        if result == self.checked:
            return
        out, report, confusion = result
        lines = report.splitlines()
        self.expect(lines[0] == "fold,accuracy" and len(lines) == FOLDS + 2
                    and [l.split(",")[0] for l in lines[1:]] ==
                    [str(f + 1) for f in range(FOLDS)] + ["mean"], "report layout is wrong")
        accs = [Decimal(l.split(",")[1]) for l in lines[1:]]
        matrix = np.array([[int(v) for v in l.split()[1:]] for l in confusion.splitlines()[1:]])
        self.expect(matrix.shape == (gen.CLASSES, gen.CLASSES), "confusion matrix is not 10x10")
        self.expect(np.array_equal(matrix.sum(axis=1), self.class_counts),
                    "confusion row sums differ from the class counts")
        # Each fold row pins its correct count; the mean row is the
        # half-up rounding of the exact mean of the fold accuracies.
        folds = accs[:FOLDS]
        correct = [int(round(float(a) * n / 100)) for a, n in zip(folds, self.fold_sizes)]
        exact = [Fraction(100 * c, n) for c, n in zip(correct, self.fold_sizes)]
        self.expect(all(abs(Fraction(a) - e) <= Fraction(1, 200) for a, e in zip(folds, exact)),
                    "a fold accuracy is not a count over its fold size")
        self.expect(sum(correct) == np.trace(matrix), "fold accuracies disagree with the confusion matrix")
        self.expect(accs[-1] == half_up(sum(exact) / FOLDS), "mean row is not the rounded mean of the folds")
        self.expect(out.strip() == f"mean accuracy {accs[-1]}", "printed mean differs from the report")
        self.expect(accs[-1] >= Decimal(str(CROSSVAL_FLOOR)),
                    f"mean accuracy {accs[-1]} below the floor {CROSSVAL_FLOOR}")
        self.accuracy = accs[-1]
        self.checked = result

    def finish(self):
        return [f"crossval mean accuracy {self.accuracy}% (floor {CROSSVAL_FLOOR}%)"]


class Classify(Workload):
    """read_pgm -> normalize_image(128) -> extract_features -> predict, one scan at a time."""
    name = "classify"

    def setup(self):
        s = self.sizes
        inputs = self.fresh_dir("inputs")
        gen.make_corpus(inputs / "train", self.seed, s.classify_train_per_class, 0, 0.0, "train")
        self.cycle = gen.make_corpus(inputs / "cycle", self.seed, s.classify_cycle_per_class,
                                     0, 0.0, "cycle")
        self.model_path = inputs / "model.mlp"
        run_cli(["train", str(inputs / "train"), "--model-out", str(self.model_path),
                 "--hidden", str(HIDDEN), "--epochs", str(EPOCHS)])
        self.model = mlp.load_model(self.model_path)
        self.classify(self.cycle[0])

    def prepare(self):
        resaved = self.dir / "inputs" / "resaved.mlp"
        mlp.save_model(resaved, self.model)
        self.expect(resaved.read_bytes() == self.model_path.read_bytes(),
                    "model does not survive a save/load round trip byte for byte")
        self.want = {s.path: ref.features(ref.normalize(s.gray, CLASSIFY_THRESHOLD))
                     for s in self.cycle}
        self.ops = [lambda s=s: self.classify(s) for s in self.cycle]
        self.hits = self.seen = 0

    def classify(self, scan):
        gray = pgm.read_pgm(scan.path)
        raster = imgproc.normalize_image(gray, threshold=CLASSIFY_THRESHOLD)
        vec = features.extract_features(raster)
        return scan, vec, mlp.predict(self.model, vec)

    def operations(self):
        return self.ops

    def check(self, result):
        scan, vec, label = result
        self.expect(not feature_mismatch(vec, self.want[scan.path]),
                    f"{scan.path.name}: features differ from reference")
        want = int(np.argmax(ref.forward(self.model.weights, vec)))
        self.expect(label == want, f"{scan.path.name}: label differs from the reference forward pass")
        self.seen += 1
        self.hits += label == scan.label

    def finish(self):
        accuracy = 100.0 * self.hits / max(self.seen, 1)
        self.expect(accuracy >= CLASSIFY_FLOOR,
                    f"classify accuracy {accuracy:.2f}% below the floor {CLASSIFY_FLOOR}%")
        return [f"classify accuracy {accuracy:.2f}% over {self.seen} scans (floor {CLASSIFY_FLOOR}%)"]


WORKLOADS = {w.name: w for w in (Ingest, Crossval, Classify)}
