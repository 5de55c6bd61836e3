"""The paper's protocol from scans: extract, 3-fold CV at H=65, a sweep.

The scans come from the benchmark's generator, perfbench/gen.py, which
shares no code with the package: jittered polyline glyphs in P2 and P5,
30-130 px wide, with noise and blank pages. They are easier than the
paper's 6,000 handwritten digits (96.67%), so this test proves the path
from scans to the report, not the paper's figure.
"""

import math
import re
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np

from digitrec import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402

PER_CLASS, BLANKS, P2_SHARE, FOLDS = 10, 3, 0.3, 3
FLOOR = 94  # criterion 9's floor on a real corpus, in percent


def half_up(value: Fraction) -> Decimal:
    """A percentage rounded to two decimals, halves up, computed exactly."""
    return Decimal(math.floor(value * 100 + Fraction(1, 2))) / 100


def exact_folds(cells: list[str], fold_sizes: list[int]) -> list[Fraction]:
    """Each printed fold accuracy as the exact share of its fold it stands for."""
    assert all(re.fullmatch(r"\d+\.\d\d", cell) for cell in cells), cells
    correct = [round(Decimal(cell) * n / 100) for cell, n in zip(cells, fold_sizes)]
    exact = [Fraction(100 * c, n) for c, n in zip(correct, fold_sizes)]
    # Each fold row is a count over its fold size, rounded.
    assert [Decimal(cell) for cell in cells] == [half_up(e) for e in exact]
    return exact


def test_paper_protocol_from_scans(tmp_path, capsys):
    scans = gen.make_corpus(tmp_path / "corpus", 1, PER_CLASS, BLANKS, P2_SHARE)
    assert {s.ascii_format for s in scans} == {True, False}  # P2 and P5 scans
    blanks = [str(s.path) for s in scans if s.blank]
    assert len(blanks) == BLANKS

    features = tmp_path / "features.csv"
    assert cli.main(["extract", str(tmp_path / "corpus"), str(features),
                     "--threshold", "otsu"]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning")]
    assert warnings == [f"warning: no ink in {path}, skipped" for path in blanks]
    labels = [int(row.split(",")[0]) for row in features.read_text().splitlines()[1:]]
    assert labels == [s.label for s in scans if not s.blank]
    class_counts = np.bincount(labels, minlength=10)
    # make_folds deals each class round-robin, starting at fold 0.
    fold_sizes = [sum(len(range(f, n, FOLDS)) for n in class_counts) for f in range(FOLDS)]

    report = tmp_path / "report.csv"
    assert cli.main(["crossval", str(features), "--folds", str(FOLDS), "--hidden", "65",
                     "--report-out", str(report)]) == 0
    out = capsys.readouterr().out
    rows = [line.split(",") for line in report.read_text().splitlines()]
    assert rows[0] == ["fold", "accuracy"]
    assert [row[0] for row in rows[1:]] == ["1", "2", "3", "mean"]
    exact = exact_folds([row[1] for row in rows[1:-1]], fold_sizes)
    mean = Decimal(rows[-1][1])
    assert mean == half_up(sum(exact) / FOLDS)
    assert out == f"mean accuracy {rows[-1][1]}\n"
    confusion = np.array([[int(v) for v in line.split()[1:]] for line in
                          report.with_suffix(".confusion.txt").read_text().splitlines()[1:]])
    assert np.array_equal(confusion.sum(axis=1), class_counts)
    assert np.trace(confusion) == sum(e * n / 100 for e, n in zip(exact, fold_sizes))
    assert mean >= FLOOR

    sweep = tmp_path / "sweep.csv"
    assert cli.main(["sweep", str(features), "--sizes", "30,65", "--folds", str(FOLDS),
                     "--epochs", "40", "--report-out", str(sweep)]) == 0
    out = capsys.readouterr().out
    table = [line.split(",") for line in sweep.read_text().splitlines()]
    assert table[0] == ["size", "fold1", "fold2", "fold3", "mean"]
    means = {}
    for size, *folds, printed in table[1:]:
        means[int(size)] = sum(exact_folds(folds, fold_sizes)) / FOLDS
        assert Decimal(printed) == half_up(means[int(size)])
    assert list(means) == [30, 65]
    # Both sizes score the same mean; the tie goes to the smaller network.
    assert means[30] == means[65]
    assert out == "selected 30\n"
