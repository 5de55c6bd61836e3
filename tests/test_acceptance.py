"""End-to-end acceptance checks, one test per pinned criterion.

Every test finishes by printing a single ACCEPTANCE line so a -s or -v
run reads as a checklist. Oracles here are written from scratch and on
purpose share no code with the package internals they judge.
"""

import math
import os
import time

import numpy as np
import pytest

from digitrec import cli, evaluation, mlp
from digitrec.evaluation import (cross_validate, format_accuracy,
                                 make_toy_dataset, write_report_csv)
from digitrec.features import (extract_features, longest_run_features,
                               longest_runs_by_line, octant_of,
                               shadow_features, write_features_csv)
from digitrec.mlp import (gradient, random_model, sample_error)

GRID = 32


# ---------------------------------------------------------------------------
# Oracles local to this module

def all_lines(shape, direction):
    """Every full-image scan line of one direction, as cell lists."""
    h, w = shape
    if direction == "row":
        return [[(r, c) for c in range(w)] for r in range(h)]
    if direction == "column":
        return [[(r, c) for r in range(h)] for c in range(w)]
    if direction == "diag_main":
        return [[(r, r - d) for r in range(h) if 0 <= r - d < w]
                for d in range(-(w - 1), h)]
    return [[(r, s - r) for r in range(h) if 0 <= s - r < w]
            for s in range(h + w - 1)]


def runs_in_line(img, cells):
    """(first, last, length) of every consecutive-ink run on one line."""
    runs = []
    start = None
    for i, cell in enumerate(cells):
        if img[cell] and start is None:
            start = i
        elif not img[cell] and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(cells) - 1))
    return runs


def oracle_directional_sums(img, rows, cols):
    """Per direction, the summed longest window-touching runs."""
    r0, r1 = rows
    c0, c1 = cols
    sums = {}
    for direction in ("row", "column", "diag_main", "diag_anti"):
        total = 0
        for cells in all_lines(img.shape, direction):
            window = [i for i, (r, c) in enumerate(cells)
                      if r0 <= r <= r1 and c0 <= c <= c1]
            if not window:
                continue
            lo, hi = window[0], window[-1]
            best = 0
            for first, last in runs_in_line(img, cells):
                if first <= hi and last >= lo:
                    best = max(best, last - first + 1)
            total += best
        sums[direction] = total
    return sums


def oracle_octant_centroids(img):
    """Mean ink position per octant by direct angle classification."""
    members = {k: [] for k in range(8)}
    for r in range(GRID):
        for c in range(GRID):
            if not img[r, c]:
                continue
            dx, dy = (c + 0.5) - 16.0, 16.0 - (r + 0.5)
            if abs(dx) == abs(dy):
                quadrant = {(True, True): 0, (False, True): 2,
                            (False, False): 4, (True, False): 6}[(dx > 0, dy > 0)]
                k = quadrant if abs(dx) < 8 else quadrant + 1
            else:
                k = int((math.degrees(math.atan2(dy, dx)) % 360.0) // 45.0)
            members[k].append((r, c))
    out = np.zeros(16)
    for k in range(8):
        if members[k]:
            out[2 * k] = np.mean([r for r, _ in members[k]]) / 31
            out[2 * k + 1] = np.mean([c for _, c in members[k]]) / 31
    return out


# ---------------------------------------------------------------------------
# Criteria

def test_criterion_1_row_runs_on_the_worked_grid():
    grid = np.array([
        [1, 0, 1, 1, 1, 1],
        [1, 0, 0, 1, 1, 0],
        [1, 0, 0, 1, 1, 0],
        [1, 0, 0, 0, 1, 0],
        [0, 1, 0, 0, 1, 0],
        [0, 0, 1, 1, 0, 0],
    ], dtype=np.uint8)
    values = longest_runs_by_line(grid, (0, 5), (0, 5), "row")
    assert values == [4, 2, 2, 1, 1, 2]
    assert sum(values) == 12
    print("ACCEPTANCE 1 PASS: worked-grid row runs 4,2,2,1,1,2 sum 12")


def test_criterion_2_closed_form_extremes():
    blank = np.zeros((GRID, GRID), dtype=np.uint8)
    np.testing.assert_array_equal(extract_features(blank), np.zeros(76))

    full = np.ones((GRID, GRID), dtype=np.uint8)
    assert (shadow_features(full) == 1.0).all()
    runs = longest_run_features(full)
    for i in range(0, 36, 4):
        assert runs[i] == 0.5 and runs[i + 1] == 0.5
    centroid = extract_features(full)[24:40]
    assert np.abs(centroid - oracle_octant_centroids(full)).max() <= 1e-12
    idx = 0
    for r0 in (0, 8, 16):
        for c0 in (0, 8, 16):
            sums = oracle_directional_sums(full, (r0, r0 + 15), (c0, c0 + 15))
            assert abs(runs[idx + 2] - sums["diag_main"] / 1024) <= 1e-12
            assert abs(runs[idx + 3] - sums["diag_anti"] / 1024) <= 1e-12
            idx += 4
    print("ACCEPTANCE 2 PASS: blank is all zero; full raster hits the "
          "closed-form shadow, run, and centroid values")


def test_criterion_3_brute_force_equivalence():
    rng = np.random.Generator(np.random.PCG64(303))
    for trial in range(1000):
        h, w = (int(v) for v in rng.integers(4, 10, size=2))
        img = (rng.random((h, w)) < rng.uniform(0.2, 0.8)).astype(np.uint8)
        r0 = int(rng.integers(0, h - 2))
        c0 = int(rng.integers(0, w - 2))
        rows = (r0, int(rng.integers(r0 + 1, h)))
        cols = (c0, int(rng.integers(c0 + 1, w)))
        want = oracle_directional_sums(img, rows, cols)
        for direction, total in want.items():
            got = longest_runs_by_line(img, rows, cols, direction)
            assert sum(got) == total, (direction, rows, cols, img.tolist())

    counts = np.zeros(8, dtype=int)
    for r in range(GRID):
        for c in range(GRID):
            counts[octant_of(r, c)] += 1
    np.testing.assert_array_equal(counts, [128] * 8)
    print("ACCEPTANCE 3 PASS: 1000 random rasters match the run oracle; "
          "octants hold 8 x 128 pixels")


def test_criterion_4_gradient_check():
    rng = np.random.Generator(np.random.PCG64(404))
    worst = 0.0
    for trial in range(20):
        sizes = [int(rng.integers(2, 7)), int(rng.integers(2, 6)),
                 int(rng.integers(3, 11))]
        model = random_model(sizes, seed=1000 + trial)
        x, label = rng.uniform(0, 1, sizes[0]), int(rng.integers(sizes[-1]))
        analytic = gradient(model, x, label)
        step = 1e-5
        flat_an, flat_fd = [], []
        for w, an in zip(model.weights, analytic):
            for idx in np.ndindex(w.shape):
                orig = w[idx]
                w[idx] = orig + step
                plus = sample_error(model, x, label)
                w[idx] = orig - step
                minus = sample_error(model, x, label)
                w[idx] = orig
                flat_fd.append((plus - minus) / (2 * step))
                flat_an.append(an[idx])
        flat_an = np.array(flat_an)
        flat_fd = np.array(flat_fd)
        rel = np.linalg.norm(flat_fd - flat_an) / max(np.linalg.norm(flat_an),
                                                      1e-12)
        worst = max(worst, rel)
        assert rel <= 1e-6, (sizes, rel)
    print(f"ACCEPTANCE 4 PASS: 20 gradient checks, worst relative "
          f"error {worst:.3e} <= 1e-6")


def test_criterion_5_training_determinism(tmp_path, capsys):
    data = make_toy_dataset(per_class=3, noise=0.0, seed=8)
    csv = tmp_path / "features.csv"
    write_features_csv(csv, data.labels, data.features)
    first = tmp_path / "a.mlp"
    second = tmp_path / "b.mlp"
    for path in (first, second):
        code = cli.main(["train", str(csv), "--model-out", str(path),
                         "--hidden", "9", "--epochs", "25", "--seed", "6"])
        assert code == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()

    loaded = mlp.load_model(first)
    for a, b in zip(loaded.weights, mlp.load_model(second).weights):
        np.testing.assert_array_equal(a, b)
    resaved = tmp_path / "c.mlp"
    mlp.save_model(resaved, loaded)
    assert resaved.read_bytes() == first.read_bytes()
    print("ACCEPTANCE 5 PASS: identical flags give byte-identical models; "
          "save/load round-trips bit-exactly")


def test_criterion_6_synthetic_end_to_end():
    started = time.monotonic()
    data = make_toy_dataset(per_class=100, noise=0.05, seed=42)
    config = mlp.TrainingConfig(hidden_size=65, learning_rate=0.8,
                                momentum=0.7, seed=42)
    report = cross_validate(data, config, k=3)
    elapsed = time.monotonic() - started
    assert report.mean_accuracy >= 95.0, report.per_fold_accuracy
    assert elapsed <= 300.0
    print(f"ACCEPTANCE 6 PASS: synthetic 3-fold mean "
          f"{format_accuracy(report.mean_accuracy)}% >= 95% "
          f"in {elapsed:.1f}s <= 300s")


def test_criterion_7_report_arithmetic(tmp_path):
    rng = np.random.Generator(np.random.PCG64(707))
    data = evaluation.Dataset(rng.random((6000, 2)), np.repeat(np.arange(10), 600))

    quotas = iter([1933, 1934, 1933])  # of 2000 per fold: 96.65/96.70/96.65

    def quota_trainer(train_set, config):
        quota = next(quotas)

        def classify(test_set):
            # Right on the first quota rows of the fold, wrong on the rest.
            right = np.arange(len(test_set)) < quota
            return np.where(right, test_set.labels, (test_set.labels + 1) % 10)

        return classify

    config = mlp.TrainingConfig(hidden_size=65, seed=1)
    report = cross_validate(data, config, k=3, trainer=quota_trainer)
    assert report.per_fold_accuracy == [96.65, 96.70, 96.65]
    assert format_accuracy(report.mean_accuracy) == "96.67"
    out = tmp_path / "report.csv"
    write_report_csv(out, report)
    assert out.read_text().splitlines()[-1] == "mean,96.67"
    print("ACCEPTANCE 7 PASS: folds 96.65/96.70/96.65 print as mean 96.67")


def test_criterion_8_sweep_protocol(tmp_path, capsys, monkeypatch):
    data = make_toy_dataset(per_class=2, noise=0.0, seed=9)
    csv = tmp_path / "features.csv"
    write_features_csv(csv, data.labels, data.features)

    # Canned accuracy curve peaking twice so the tie rule is exercised:
    # sizes 45 and 50 share the best mean and 45 must win.
    curve = {25: 90.0, 30: 91.0, 35: 92.0, 40: 93.0, 45: 95.0,
             50: 95.0, 55: 94.0, 60: 93.0, 65: 92.0, 70: 91.0}

    def canned_evaluate(data, config, k):
        acc = curve[config.hidden_size]
        return evaluation.EvaluationReport([acc] * k, np.zeros((10, 10), dtype=int))

    real_sweep = evaluation.sweep_hidden

    def stubbed_sweep(data, sizes, config, k):
        return real_sweep(data, sizes, config, k, evaluate=canned_evaluate)

    monkeypatch.setattr(evaluation, "sweep_hidden", stubbed_sweep)
    report = tmp_path / "sweep.csv"
    code = cli.main(["sweep", str(csv), "--sizes", "25:70:5", "--folds", "3",
                     "--report-out", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    lines = report.read_text().splitlines()
    assert len(lines) == 11  # header plus exactly ten swept sizes
    assert [int(row.split(",")[0]) for row in lines[1:]] == \
        list(range(25, 71, 5))
    assert out.splitlines()[-1] == "selected 45"
    print("ACCEPTANCE 8 PASS: sweep 25..70 step 5 emits 10 rows and the "
          "45/50 tie selects 45")


@pytest.mark.skipif(not os.environ.get("DIGITREC_CORPUS_DIR"),
                    reason="set DIGITREC_CORPUS_DIR to run the external check")
def test_criterion_9_external_corpus():
    root = os.environ["DIGITREC_CORPUS_DIR"]
    data, skipped = cli.load_corpus(root, threshold=128, invert=False)
    config = mlp.TrainingConfig(hidden_size=65, learning_rate=0.8,
                                momentum=0.7, seed=1)
    report = cross_validate(data, config, k=3)
    assert report.mean_accuracy >= 94.0, report.per_fold_accuracy
    print(f"ACCEPTANCE 9 PASS: external corpus 3-fold mean "
          f"{format_accuracy(report.mean_accuracy)}% >= 94%")
