import numpy as np
import pytest

from digitrec.cli import main, parse_sizes, parse_threshold, UsageError
from digitrec.evaluation import toy_glyph
from digitrec.features import CSV_HEADER, read_features_csv
from digitrec.mlp import load_model
from digitrec.pgm import write_pgm


def glyph_pgm(label, shift=(0, 0)):
    """Dark-on-light grayscale raster of one synthetic glyph."""
    ink = np.roll(toy_glyph(label), shift, axis=(0, 1))
    return ((1 - ink) * 255).astype(np.uint8)


def write_corpus(root, labels=range(10), copies=3):
    shifts = [(0, 0), (1, -1), (-2, 2), (2, 1), (-1, -2)]
    for label in labels:
        class_dir = root / str(label)
        class_dir.mkdir(parents=True)
        for i in range(copies):
            write_pgm(class_dir / f"s{i}.pgm",
                      glyph_pgm(label, shifts[i % len(shifts)]))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    write_corpus(root)
    return root


@pytest.fixture(scope="module")
def feature_csv(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("csv") / "features.csv"
    assert main(["extract", str(corpus), str(out)]) == 0
    return out


# ---------------------------------------------------------------------------
# Argument parsing helpers

def test_parse_threshold_accepts_int_and_otsu():
    assert parse_threshold("128") == 128
    assert parse_threshold("otsu") is None
    for bad in ("1.5", "-1", "256", "dark"):
        with pytest.raises(UsageError):
            parse_threshold(bad)


def test_parse_sizes_range_and_list():
    assert parse_sizes("25:70:5") == list(range(25, 71, 5))
    assert len(parse_sizes("25:70:5")) == 10
    assert parse_sizes("4,8,12") == [4, 8, 12]
    assert parse_sizes("7") == [7]
    for bad in ("70:25:5", "25:70:0", "8,4", "4,4", "0,5", "a,b", "1:2", ""):
        with pytest.raises(UsageError):
            parse_sizes(bad)


def test_help_and_missing_subcommand(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main([]) == 1
    assert main(["frobnicate"]) == 1


# ---------------------------------------------------------------------------
# extract

def test_extract_writes_one_row_per_image(corpus, tmp_path, capsys):
    out = tmp_path / "features.csv"
    assert main(["extract", str(corpus), str(out)]) == 0
    labels, vectors = read_features_csv(out)
    assert len(labels) == 30
    assert sorted(set(labels)) == list(range(10))
    assert all(v.shape == (76,) for v in vectors)
    assert out.read_text().splitlines()[0] == ",".join(CSV_HEADER)
    err = capsys.readouterr().err
    assert "class 0: 3 samples" in err


def test_extract_skips_blank_images(corpus, tmp_path, capsys):
    root = tmp_path / "corpus"
    write_corpus(root, labels=[0, 1], copies=2)
    write_pgm(root / "0" / "blank.pgm", np.full((32, 32), 255, dtype=np.uint8))
    out = tmp_path / "features.csv"
    assert main(["extract", str(root), str(out)]) == 0
    labels, _ = read_features_csv(out)
    assert len(labels) == 4
    assert "skipped" in capsys.readouterr().err


def test_extract_missing_root_fails(tmp_path, capsys):
    assert main(["extract", str(tmp_path / "nope"), str(tmp_path / "o.csv")]) == 2
    assert "digitrec:" in capsys.readouterr().err


def test_extract_reports_the_broken_file(tmp_path, capsys):
    root = tmp_path / "corpus"
    write_corpus(root, labels=[3], copies=1)
    bad = root / "3" / "broken.pgm"
    bad.write_bytes(b"P5\n32 32\n255\nshort")
    assert main(["extract", str(root), str(tmp_path / "o.csv")]) == 2
    assert "broken.pgm" in capsys.readouterr().err


def test_extract_rejects_a_sample_past_int64(tmp_path, capsys):
    root = tmp_path / "corpus"
    write_corpus(root, labels=[3], copies=1)
    (root / "3" / "huge.pgm").write_text("P2\n2 1\n255\n0 99999999999999999999\n")
    assert main(["extract", str(root), str(tmp_path / "o.csv")]) == 2
    assert "huge.pgm" in capsys.readouterr().err


def test_extract_inverted_corpus(tmp_path):
    root = tmp_path / "corpus"
    root.joinpath("5").mkdir(parents=True)
    ink = toy_glyph(5)
    write_pgm(root / "5" / "light.pgm", (ink * 255).astype(np.uint8))
    out = tmp_path / "features.csv"
    assert main(["extract", str(root), str(out), "--invert"]) == 0
    labels, vectors = read_features_csv(out)
    assert labels == [5] and vectors[0].any()


# ---------------------------------------------------------------------------
# train

def test_train_writes_a_loadable_model(feature_csv, tmp_path, capsys):
    model_path = tmp_path / "digits.mlp"
    code = main(["train", str(feature_csv), "--model-out", str(model_path),
                 "--hidden", "8", "--epochs", "40", "--seed", "2"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("sse ")
    float(out[0].split()[1])
    assert out[1].startswith("accuracy ")
    model = load_model(model_path)
    assert model.layer_sizes == [76, 8, 10]


def test_train_is_reproducible_per_seed(feature_csv, tmp_path):
    paths = [tmp_path / "a.mlp", tmp_path / "b.mlp", tmp_path / "c.mlp"]
    for path in paths:
        seed = "9" if path.name == "c.mlp" else "5"
        assert main(["train", str(feature_csv), "--model-out", str(path),
                     "--hidden", "6", "--epochs", "10", "--seed", seed]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


def test_train_zero_epochs_is_the_seeded_init(feature_csv, tmp_path):
    from digitrec.mlp import TrainingConfig, init_model

    model_path = tmp_path / "raw.mlp"
    assert main(["train", str(feature_csv), "--model-out", str(model_path),
                 "--hidden", "6", "--epochs", "0", "--seed", "4"]) == 0
    loaded = load_model(model_path)
    fresh = init_model(TrainingConfig(hidden_size=6, seed=4))
    for a, b in zip(loaded.weights, fresh.weights):
        np.testing.assert_array_equal(a, b)


def test_train_rejects_single_class(tmp_path, capsys):
    root = tmp_path / "corpus"
    write_corpus(root, labels=[7], copies=3)
    assert main(["train", str(root), "--model-out",
                 str(tmp_path / "m.mlp")]) == 2
    assert "two distinct classes" in capsys.readouterr().err


def test_train_rejects_bad_hyperparameters(feature_csv, tmp_path):
    assert main(["train", str(feature_csv), "--model-out",
                 str(tmp_path / "m.mlp"), "--momentum", "1.0"]) == 1


def test_train_rejects_non_finite_learning_rate(feature_csv, tmp_path, capsys):
    out = tmp_path / "m.mlp"
    assert main(["train", str(feature_csv), "--model-out", str(out),
                 "--lr", "nan"]) == 1
    assert "learning_rate must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_train_rejects_a_non_finite_feature(feature_csv, tmp_path, capsys):
    lines = feature_csv.read_text().splitlines()
    row = lines[1].split(",")
    row[5] = "nan"
    lines[1] = ",".join(row)
    data = tmp_path / "nan.csv"
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "m.mlp"
    assert main(["train", str(data), "--model-out", str(out)]) == 2
    assert f"{data}:2: non-finite feature value" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# predict

@pytest.fixture(scope="module")
def trained_model(feature_csv, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "digits.mlp"
    assert main(["train", str(feature_csv), "--model-out", str(path),
                 "--hidden", "12", "--epochs", "150", "--seed", "1"]) == 0
    return path


def test_predict_output_format(trained_model, tmp_path, capsys):
    image = tmp_path / "sample.pgm"
    write_pgm(image, glyph_pgm(0))
    assert main(["predict", str(trained_model), str(image)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    label = int(lines[0])
    scores = [float(v) for v in lines[1].split()]
    assert len(scores) == 10
    assert all(0 <= v <= 1 for v in scores)
    assert label == int(np.argmax(scores))


def test_predict_recovers_training_labels(trained_model, tmp_path, capsys):
    hits = 0
    for label in range(10):
        image = tmp_path / f"q{label}.pgm"
        write_pgm(image, glyph_pgm(label))
        assert main(["predict", str(trained_model), str(image)]) == 0
        got = int(capsys.readouterr().out.splitlines()[0])
        hits += got == label
    assert hits >= 8  # the glyphs are easy; most must come back right


def test_predict_rejects_damaged_model(trained_model, tmp_path, capsys):
    stub = tmp_path / "cut.mlp"
    stub.write_bytes(trained_model.read_bytes()[:40])
    image = tmp_path / "sample.pgm"
    write_pgm(image, glyph_pgm(1))
    assert main(["predict", str(stub), str(image)]) == 2
    assert main(["predict", str(trained_model), str(tmp_path / "no.pgm")]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# crossval

def test_crossval_writes_report_and_confusion(corpus, tmp_path, capsys):
    report = tmp_path / "cv.csv"
    code = main(["crossval", str(corpus), "--folds", "3", "--report-out",
                 str(report), "--hidden", "10", "--epochs", "80"])
    assert code == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "fold,accuracy"
    assert len(lines) == 5 and lines[-1].startswith("mean,")
    confusion = tmp_path / "cv.confusion.txt"
    text = confusion.read_text()
    assert text.startswith("true\\pred")
    counts = np.array([[int(v) for v in row.split()[1:]]
                       for row in text.splitlines()[1:]])
    assert counts.sum() == 30  # one pooled prediction per sample
    out = capsys.readouterr().out
    assert "mean accuracy" in out


def test_crossval_rejects_too_many_folds(corpus, tmp_path, capsys):
    assert main(["crossval", str(corpus), "--folds", "4", "--report-out",
                 str(tmp_path / "r.csv")]) == 2  # only 3 samples per class
    assert main(["crossval", str(corpus), "--folds", "1", "--report-out",
                 str(tmp_path / "r.csv")]) == 1
    capsys.readouterr()


def test_crossval_accepts_feature_csv(feature_csv, tmp_path, capsys):
    report = tmp_path / "cv.csv"
    assert main(["crossval", str(feature_csv), "--folds", "3", "--report-out",
                 str(report), "--hidden", "8", "--epochs", "40"]) == 0
    assert report.exists()
    capsys.readouterr()


# ---------------------------------------------------------------------------
# sweep

def test_sweep_reports_each_size_and_selects(feature_csv, tmp_path, capsys):
    report = tmp_path / "sweep.csv"
    code = main(["sweep", str(feature_csv), "--sizes", "4,8", "--folds", "3",
                 "--report-out", str(report), "--epochs", "40"])
    assert code == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "size,fold1,fold2,fold3,mean"
    assert len(lines) == 3
    assert lines[1].startswith("4,") and lines[2].startswith("8,")
    out = capsys.readouterr().out
    selected = int(out.splitlines()[-1].split()[-1])
    assert selected in (4, 8)


def test_sweep_rejects_backwards_range(feature_csv, tmp_path, capsys):
    assert main(["sweep", str(feature_csv), "--sizes", "70:25:5",
                 "--report-out", str(tmp_path / "s.csv")]) == 1
    assert "runs backwards" in capsys.readouterr().err


def test_sweep_rejects_bad_threshold(feature_csv, tmp_path):
    assert main(["sweep", str(feature_csv), "--sizes", "4,8", "--threshold",
                 "999", "--report-out", str(tmp_path / "s.csv")]) == 1
