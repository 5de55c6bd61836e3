import numpy as np
import pytest

from digitrec.evaluation import (Dataset, EvaluationReport,
                                 LabelOutOfRangeError, LengthMismatchError,
                                 TooFewSamplesError, confusion_matrix,
                                 cross_validate, format_accuracy,
                                 format_confusion, make_folds,
                                 make_toy_dataset, sweep_hidden, toy_glyph,
                                 write_report_csv, write_sweep_csv)
from digitrec.mlp import LabeledSample, TrainingConfig, init_model, predict, train


def tiny_dataset(per_class=4, classes=10, seed=33):
    rng = np.random.Generator(np.random.PCG64(seed))
    samples, provenance = [], []
    for label in range(classes):
        for i in range(per_class):
            samples.append(LabeledSample(rng.random(8), label))
            provenance.append(f"mem:{label}:{i}")
    return Dataset(samples, provenance)


def perfect_trainer(samples, config):
    return lambda s: s.label


def small_config(**overrides):
    base = dict(hidden_size=4, learning_rate=0.8, momentum=0.7,
                max_epochs=30, stop_tolerance=1e-4, patience=5, seed=3)
    base.update(overrides)
    return TrainingConfig(**base)


# ---------------------------------------------------------------------------
# Fold construction

def test_folds_partition_and_stratify():
    data = tiny_dataset(per_class=5)
    folds = make_folds(data, 3, seed=1)
    assert folds.dtype == np.int64 and folds.shape == (len(data),)
    assert (folds >= 0).all() and (folds < 3).all()
    labels = np.array(data.labels())
    for label in range(10):
        counts = np.bincount(folds[labels == label], minlength=3)
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == 5
    for fold in range(3):
        test = set(np.flatnonzero(folds == fold).tolist())
        training = set(np.flatnonzero(folds != fold).tolist())
        assert not test & training
        assert test | training == set(range(len(data)))


def test_folds_handle_uneven_classes():
    rng = np.random.Generator(np.random.PCG64(2))
    samples = [LabeledSample(rng.random(4), 0) for _ in range(7)]
    samples += [LabeledSample(rng.random(4), 1) for _ in range(5)]
    data = Dataset(samples, [str(i) for i in range(12)])
    folds = make_folds(data, 3, seed=5)
    labels = np.array(data.labels())
    for label, total in ((0, 7), (1, 5)):
        counts = np.bincount(folds[labels == label], minlength=3)
        assert counts.sum() == total and counts.max() - counts.min() <= 1


def test_folds_are_seed_deterministic():
    data = tiny_dataset()
    a = make_folds(data, 4, seed=9)
    b = make_folds(data, 4, seed=9)
    np.testing.assert_array_equal(a, b)
    c = make_folds(data, 4, seed=10)
    assert (a != c).any()


def test_folds_reject_small_classes_and_bad_k():
    data = tiny_dataset(per_class=2)
    with pytest.raises(TooFewSamplesError):
        make_folds(data, 3, seed=1)
    with pytest.raises(ValueError):
        make_folds(data, 1, seed=1)


# ---------------------------------------------------------------------------
# Confusion matrix

def test_confusion_counts_land_on_the_right_cells():
    mat = confusion_matrix([3, 3, 5], [3, 5, 5])
    assert mat[3, 3] == 1 and mat[3, 5] == 1 and mat[5, 5] == 1
    assert mat.sum() == 3


def test_confusion_rejects_bad_input():
    with pytest.raises(LengthMismatchError):
        confusion_matrix([1, 2], [1])
    with pytest.raises(LabelOutOfRangeError):
        confusion_matrix([10], [0])
    with pytest.raises(LabelOutOfRangeError, match=r"\(2, -1\)"):
        confusion_matrix(np.array([1, 2, 3]), np.array([1, -1, 3]))


def test_confusion_of_nothing_is_the_zero_matrix():
    for empty in ([], np.array([], dtype=np.int64)):
        mat = confusion_matrix(empty, empty)
        assert mat.shape == (10, 10) and mat.dtype == np.int64 and not mat.any()


def test_confusion_takes_numpy_int_arrays():
    truths = np.array([0, 4, 4, 9], dtype=np.int32)
    preds = np.array([0, 4, 7, 9], dtype=np.uint8)
    assert (confusion_matrix(truths, preds)
            == confusion_matrix(truths.tolist(), preds.tolist())).all()
    assert confusion_matrix(truths, preds)[4, 7] == 1


def test_confusion_never_truncates_a_float_label():
    # 3.7 must not be counted in row 3 (nor 2.0 in row 2).
    for truths, preds in (([3.7], [3]), ([3], [3.7]), ([2.0, 1], [2, 1]),
                          (np.array([1.5]), np.array([1]))):
        with pytest.raises(TypeError):
            confusion_matrix(truths, preds)


def test_confusion_rendering_roundtrips():
    mat = confusion_matrix([0, 1, 2, 2], [0, 1, 2, 7])
    text = format_confusion(mat)
    lines = text.splitlines()
    assert lines[0].startswith("true\\pred")
    assert len(lines) == 11
    for i, line in enumerate(lines[1:]):
        cells = line.split()
        assert cells[0] == str(i)
        assert [int(v) for v in cells[1:]] == mat[i].tolist()


# ---------------------------------------------------------------------------
# Cross-validation harness

def test_cross_validate_with_a_perfect_stub():
    data = tiny_dataset(per_class=3)
    report = cross_validate(data, small_config(), k=3, trainer=perfect_trainer)
    assert report.fold_count == 3
    assert report.per_fold_accuracy == [100.0, 100.0, 100.0]
    assert report.mean_accuracy == 100.0
    np.testing.assert_array_equal(report.confusion, np.eye(10, dtype=int) * 3)


def test_cross_validate_feeds_each_fold_and_reseeds():
    data = tiny_dataset(per_class=3)
    seen = []

    def spy_trainer(samples, config):
        seen.append((len(samples), config.seed))
        return lambda s: s.label

    cross_validate(data, small_config(seed=40), k=3, trainer=spy_trainer)
    assert [n for n, _ in seen] == [20, 20, 20]
    assert [s for _, s in seen] == [40, 41, 42]


def test_cross_validate_scores_each_fold_right_after_training_it():
    # An injected trainer may keep state, so fold i is trained, then
    # scored, before fold i + 1 is trained.
    data = tiny_dataset(per_class=3)
    events = []

    def spy_trainer(samples, config):
        events.append(("train", config.seed))
        return lambda s: events.append(("score", config.seed)) or s.label

    cross_validate(data, small_config(seed=40), k=3, trainer=spy_trainer)
    runs = [e for i, e in enumerate(events) if i == 0 or e != events[i - 1]]
    assert runs == [("train", 40), ("score", 40), ("train", 41), ("score", 41),
                    ("train", 42), ("score", 42)]


def test_cross_validate_scores_a_biased_stub():
    # A classifier that always answers 0 is right exactly once per ten.
    data = tiny_dataset(per_class=3)
    report = cross_validate(data, small_config(), k=3,
                            trainer=lambda samples, config: lambda s: 0)
    assert report.per_fold_accuracy == [10.0, 10.0, 10.0]
    assert report.confusion[:, 0].sum() == 30


def test_cross_validate_default_trainer_is_reproducible():
    data = make_toy_dataset(per_class=4, noise=0.0, seed=50)
    config = small_config(hidden_size=6, max_epochs=15)
    a = cross_validate(data, config, k=2)
    b = cross_validate(data, config, k=2)
    assert a.per_fold_accuracy == b.per_fold_accuracy
    np.testing.assert_array_equal(a.confusion, b.confusion)


def test_cross_validate_default_trains_each_fold_as_train_would():
    # The stacked default must train each fold from the same seed and
    # samples as a per-fold call of train, and so score exactly as it does.
    def train_trainer(samples, config):
        model, _ = train(init_model(config), samples, config)
        return lambda s: predict(model, s.features)

    data = make_toy_dataset(per_class=5, noise=0.1, seed=51)
    config = small_config(hidden_size=3, max_epochs=40, seed=8)
    want = cross_validate(data, config, k=3, trainer=train_trainer)
    got = cross_validate(data, config, k=3)
    assert got.per_fold_accuracy == want.per_fold_accuracy
    np.testing.assert_array_equal(got.confusion, want.confusion)


# ---------------------------------------------------------------------------
# Hidden-size sweep

def canned_evaluate(table):
    def evaluate(data, config, k):
        per_fold = table[config.hidden_size]
        mean = sum(per_fold) / len(per_fold)
        return EvaluationReport(k, list(per_fold), mean,
                                np.zeros((10, 10), dtype=int), config)
    return evaluate


def test_sweep_reports_all_sizes_and_picks_the_best():
    data = tiny_dataset(per_class=3)
    table = {5: [60.0, 62.0], 10: [90.0, 92.0], 15: [80.0, 82.0]}
    rows, best = sweep_hidden(data, [5, 10, 15], small_config(), k=2,
                              evaluate=canned_evaluate(table))
    assert [r[0] for r in rows] == [5, 10, 15]
    assert rows[1][1] == [90.0, 92.0] and rows[1][2] == 91.0
    assert best == 10


def test_sweep_tie_prefers_the_smaller_network():
    data = tiny_dataset(per_class=3)
    table = {4: [90.0, 90.0], 8: [90.0, 90.0]}
    _, best = sweep_hidden(data, [4, 8], small_config(), k=2,
                           evaluate=canned_evaluate(table))
    assert best == 4


def test_sweep_rejects_bad_size_lists():
    data = tiny_dataset(per_class=3)
    for sizes in ([], [8, 4], [4, 4], [0, 4]):
        with pytest.raises(ValueError):
            sweep_hidden(data, sizes, small_config(), k=2,
                         evaluate=canned_evaluate({}))


# ---------------------------------------------------------------------------
# Report formatting

def test_format_accuracy_rounds_half_up():
    assert format_accuracy(100.0) == "100.00"
    assert format_accuracy(96.625) == "96.63"
    assert format_accuracy(96.664999) == "96.66"
    mean = (96.65 + 96.70 + 96.65) / 3
    assert format_accuracy(mean) == "96.67"


def test_report_csv_contents(tmp_path):
    report = EvaluationReport(2, [50.0, 100.0], 75.0,
                              np.zeros((10, 10), dtype=int), small_config())
    path = tmp_path / "report.csv"
    write_report_csv(path, report)
    assert path.read_text() == "fold,accuracy\n1,50.00\n2,100.00\nmean,75.00\n"


def test_sweep_csv_contents(tmp_path):
    rows = [(4, [50.0, 60.0], 55.0), (8, [70.0, 80.0], 75.0)]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, rows)
    assert path.read_text() == ("size,fold1,fold2,mean\n"
                                "4,50.00,60.00,55.00\n"
                                "8,70.00,80.00,75.00\n")


# ---------------------------------------------------------------------------
# Synthetic corpus

def test_toy_glyphs_are_canonical_and_distinct():
    rasters = [toy_glyph(label) for label in range(10)]
    for img in rasters:
        assert img.shape == (32, 32)
        assert set(np.unique(img).tolist()) <= {0, 1}
        assert img.sum() > 0
    for i in range(10):
        for j in range(i + 1, 10):
            assert (rasters[i] != rasters[j]).any()
    with pytest.raises(ValueError):
        toy_glyph(10)


def test_toy_dataset_counts_and_determinism():
    data = make_toy_dataset(per_class=3, noise=0.1, seed=60)
    assert len(data) == 30
    assert sorted(data.labels()) == sorted(list(range(10)) * 3)
    again = make_toy_dataset(per_class=3, noise=0.1, seed=60)
    assert data.provenance == again.provenance
    for a, b in zip(data.samples, again.samples):
        np.testing.assert_array_equal(a.features, b.features)
    other = make_toy_dataset(per_class=3, noise=0.1, seed=61)
    assert any((a.features != b.features).any()
               for a, b in zip(data.samples, other.samples))


def test_toy_dataset_jitter_tags_name_the_raster():
    # Without pixel noise, two copies that record the same shift carry
    # identical feature vectors.
    data = make_toy_dataset(per_class=20, noise=0.0, seed=62)
    groups = {}
    for sample, tag in zip(data.samples, data.provenance):
        label, jitter = tag.split(":")[1], tag.split(":")[3]
        groups.setdefault((label, jitter), []).append(sample.features)
    assert all(tag.startswith("toy:") for tag in data.provenance)
    for vectors in groups.values():
        for v in vectors[1:]:
            np.testing.assert_array_equal(v, vectors[0])
    # At most 25 distinct shifts exist per class.
    for label in range(10):
        tags = {j for (l, j) in groups if l == str(label)}
        assert len(tags) <= 25


def test_toy_dataset_validates_arguments():
    with pytest.raises(ValueError):
        make_toy_dataset(per_class=0, noise=0.0, seed=1)
    with pytest.raises(ValueError):
        make_toy_dataset(per_class=1, noise=1.5, seed=1)
    with pytest.raises(ValueError):
        make_toy_dataset(per_class=1, noise=-0.1, seed=1)


def test_dataset_validates_lengths():
    with pytest.raises(ValueError):
        Dataset([LabeledSample(np.zeros(4), 1)], [])
