import contextlib
import io
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from digitrec.cli import _load_dataset, main, parse_sizes, parse_threshold, UsageError
from digitrec.evaluation import format_accuracy, make_toy_dataset, toy_glyph
from digitrec.features import CSV_HEADER, read_features_csv, write_features_csv
from digitrec.mlp import load_model, predict, random_model, sample_error, save_model
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
    (root / "1" / "notes.txt").write_text("not a scan")  # only .pgm files are read
    out = tmp_path / "features.csv"
    assert main(["extract", str(root), str(out)]) == 0
    labels, _ = read_features_csv(out)
    assert len(labels) == 4
    err = capsys.readouterr().err
    assert "skipped" in err and "notes.txt" not in err


def test_extract_missing_root_fails(tmp_path, capsys):
    # So do a root without class directories and a corpus of blank scans.
    (tmp_path / "empty").mkdir()
    (tmp_path / "blank" / "4").mkdir(parents=True)
    write_pgm(tmp_path / "blank" / "4" / "b.pgm", np.full((32, 32), 255, dtype=np.uint8))
    for root, message in (("nope", "is not a directory"), ("empty", "no class directories"),
                          ("blank", "no readable PGM samples")):
        assert main(["extract", str(tmp_path / root), str(tmp_path / "o.csv")]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("digitrec:")]
        assert len(errors) == 1 and message in errors[0]
    assert not (tmp_path / "o.csv").exists()


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


def test_train_prints_the_per_sample_sse_and_accuracy(tmp_path, capsys):
    # train scores its rows in one forward pass; it must print what
    # sample_error and predict give one sample at a time.
    data = make_toy_dataset(per_class=6, noise=0.15, seed=12)
    csv = tmp_path / "toy.csv"
    write_features_csv(csv, data.labels(), [s.features for s in data.samples])
    model_path = tmp_path / "m.mlp"
    assert main(["train", str(csv), "--model-out", str(model_path),
                 "--hidden", "5", "--epochs", "3", "--seed", "3"]) == 0
    model = load_model(model_path)
    sse = sum(sample_error(model, s) for s in data.samples)
    hits = sum(predict(model, s.features) == s.label for s in data.samples)
    assert 0 < hits < len(data)
    accuracy = format_accuracy(100.0 * hits / len(data))
    assert capsys.readouterr().out == f"sse {sse:.6f}\naccuracy {accuracy}\n"


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


def test_train_rejects_missing_or_empty_data(feature_csv, tmp_path, capsys):
    header_only = tmp_path / "header.csv"
    header_only.write_text(feature_csv.read_text().splitlines()[0] + "\n")
    for data, message in ((tmp_path / "nope.csv", "no such file or directory"),
                          (header_only, "no samples")):
        assert main(["train", str(data), "--model-out", str(tmp_path / "m.mlp")]) == 2
        assert capsys.readouterr().err == f"digitrec: {data}: {message}\n"
    assert not (tmp_path / "m.mlp").exists()


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


def test_train_rejects_an_oversized_field(feature_csv, tmp_path, capsys):
    # One field past the csv module's 131,072-character limit is a data
    # error with its file and line, not an internal error.
    lines = feature_csv.read_text().splitlines()
    lines[2] += "9" * 200_000
    data = tmp_path / "big.csv"
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "m.mlp"
    assert main(["train", str(data), "--model-out", str(out)]) == 2
    assert f"digitrec: {data}:3: field larger than field limit" in capsys.readouterr().err
    assert not out.exists()


def test_train_rejects_a_huge_feature(feature_csv, tmp_path, capsys):
    # Finite values this large would overflow the sums of a training step.
    lines = feature_csv.read_text().splitlines()
    for i in range(1, len(lines)):
        label = lines[i].split(",")[0]
        lines[i] = label + "," + ",".join(["1e308", "-1e308"] * 38)
    data = tmp_path / "huge.csv"
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "m.mlp"
    assert main(["train", str(data), "--model-out", str(out),
                 "--epochs", "3", "--hidden", "3"]) == 2
    assert capsys.readouterr().err == (
        f"digitrec: {data}:2: feature value outside [-1e6, 1e6]\n")
    assert not out.exists()


def test_csv_records_are_named_by_their_first_line(feature_csv, tmp_path, capsys):
    # The first data record spans lines 2-3 (a quoted field holds a
    # newline, which float() ignores), so the next record is on line 4.
    lines = feature_csv.read_text().splitlines()
    row = lines[1].split(",")
    row[5] = '"' + row[5] + '\n"'
    data = tmp_path / "quoted.csv"
    data.write_text("\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n")
    dataset = _load_dataset(str(data), None, False)
    assert dataset.provenance[:3] == [f"{data}:2", f"{data}:4", f"{data}:5"]
    bad = lines[2].split(",")
    bad[7] = "x"
    data.write_text("\n".join([lines[0], ",".join(row), ",".join(bad)] + lines[3:]) + "\n")
    assert main(["train", str(data), "--model-out", str(tmp_path / "m.mlp")]) == 2
    assert f"digitrec: {data}:4: could not convert" in capsys.readouterr().err


_CSV_TOKENS = (st.sampled_from(["", "x", "nan", "-inf", "1e999", "1e308", "-1", "10", "3",
                                "0.5", '"', ",", "\n", "\r", " ", "\x00", "\u00e9", "9" * 5000])
               | st.text(st.sampled_from('0123456789.,-+eE"x \n'), max_size=6))
_CSV_EDITS = st.lists(st.tuples(st.sampled_from(["flip", "cut", "extend", "insert"]),
                                st.integers(0, 10**6), _CSV_TOKENS),
                      min_size=1, max_size=6)


def mutate(text, edits, separators=r"([,\n])"):
    """text split at a pattern (CSV fields and separators by default), with
    each edit applied in turn; bytes take a bytes pattern."""
    tokens = re.split(separators, text)
    for kind, pos, token in edits:
        if kind == "flip" and tokens:
            tokens[pos % len(tokens)] = token
        elif kind == "cut":
            del tokens[pos % (len(tokens) + 1):]
        elif kind == "extend":
            tokens.append(token)
        else:
            tokens.insert(pos % (len(tokens) + 1), token)
    return text[:0].join(tokens)


@pytest.mark.parametrize("command", ["train", "crossval"])
@settings(deadline=None, max_examples=150)
@given(_CSV_EDITS)
@example([("flip", 200, "9" * 200_000)])
def test_train_on_a_mutated_csv_exits_cleanly(feature_csv, tmp_path_factory, command, edits):
    # Every damaged feature CSV either trains (or cross-validates) or is one
    # data-error line that leaves the old output file as it was.
    # (Token 200 of the @example is a field of the first data row.)
    work = tmp_path_factory.mktemp("mutated")
    data = work / "features.csv"
    data.write_text(mutate(feature_csv.read_text(), edits), encoding="utf-8")
    if command == "train":
        out = work / "m.mlp"
        flags = ["--model-out", str(out)]
    else:
        out = work / "report.csv"
        flags = ["--report-out", str(out), "--folds", "2"]
    out.write_bytes(b"old\n")
    confusion = work / "report.confusion.txt"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([command, str(data), *flags, "--epochs", "1", "--hidden", "3"])
    lines = err.getvalue().splitlines()
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("digitrec: ")
        assert out.read_bytes() == b"old\n"
        assert not confusion.exists()
    else:
        assert code == 0, lines
        assert not any(line.startswith("digitrec:") for line in lines)
        assert out.read_bytes() != b"old\n"
        assert confusion.exists() == (command == "crossval")
    assert not list(work.glob(".*.tmp"))


_PGM_TOKENS = (st.sampled_from([b"", b"x", b"-1", b"0", b"255", b"256", b"0256", b"1000",
                                b"99999999999999999999", b"9" * 5000, b"P2", b"P5", b"#",
                                b"# c\n", b" ", b"\n", b"\r", b"\x00", b"\x1c", b"\xff"])
               | st.binary(max_size=6))
_PGM_EDITS = st.lists(st.tuples(st.sampled_from(["flip", "cut", "extend", "insert"]),
                                st.integers(0, 10**6), _PGM_TOKENS),
                      max_size=4)


@pytest.fixture(scope="module")
def noisy_scans(tmp_path_factory):
    """The bytes of one P2 and one P5 scan: glyphs 0 and 1 with ink 0..59
    and paper 180..255, so a P5 raster holds whitespace bytes too."""
    rng = np.random.Generator(np.random.PCG64(3))
    root = tmp_path_factory.mktemp("scans")
    scans = []
    for label, binary in ((0, False), (1, True)):
        ink = toy_glyph(label).astype(bool)
        gray = np.where(ink, rng.integers(0, 60, ink.shape), rng.integers(180, 256, ink.shape))
        write_pgm(root / "scan.pgm", gray.astype(np.uint8), binary=binary)
        scans.append((root / "scan.pgm").read_bytes())
    return scans


@settings(deadline=None, max_examples=200)
@given(_PGM_EDITS, _PGM_EDITS, st.booleans())
@example([("flip", 2, b"9" * 5000)], [], False)  # token 2 is the width
@example([("flip", 8, b"9" * 5000)], [], True)  # token 8 is the first sample
def test_extract_on_mutated_scans_exits_cleanly(noisy_scans, tmp_path_factory,
                                                p2_edits, p5_edits, old_csv):
    # Damaged scans in a two-class corpus either extract or fail with one
    # data-error line, leaving the output CSV as it was.
    root = tmp_path_factory.mktemp("corpus")
    for label, scan, edits in zip((0, 1), noisy_scans, (p2_edits, p5_edits)):
        (root / str(label)).mkdir()
        (root / str(label) / "scan.pgm").write_bytes(mutate(scan, edits, rb"(\s+)"))
    out = root / "features.csv"
    if old_csv:
        out.write_bytes(b"old\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["extract", str(root), str(out), "--threshold", "otsu"])
    lines = err.getvalue().splitlines()
    assert "Traceback" not in err.getvalue()
    assert code in (0, 2), lines
    if code == 2:
        assert [line for line in lines if line.startswith("digitrec:")] == lines[-1:]
        assert out.read_bytes() == b"old\n" if old_csv else not out.exists()
    else:
        assert not any(line.startswith("digitrec:") for line in lines)
        assert len(read_features_csv(out)[0]) == 2 - err.getvalue().count("no ink")
    assert not list(root.rglob(".*.tmp"))


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


@pytest.mark.parametrize("sizes", [[76, 5, 12], [76, 5, 9], [76, 5, 4, 10]])
def test_predict_needs_ten_outputs(tmp_path, capsys, sizes):
    model = tmp_path / "m.mlp"
    save_model(model, random_model(sizes, 1))
    image = tmp_path / "sample.pgm"
    write_pgm(image, glyph_pgm(1))
    code = main(["predict", str(model), str(image)])
    out = capsys.readouterr()
    if sizes[-1] == 10:
        assert code == 0 and len(out.out.splitlines()[1].split()) == 10
    else:
        assert code == 2 and out.out == ""
        assert out.err.splitlines() == [
            f"digitrec: {model}: model has {sizes[-1]} outputs, expected 10"]


@pytest.mark.parametrize("layer, cells, value", [(0, (0, 0), np.nan), (1, ..., np.inf)])
def test_predict_rejects_a_model_with_non_finite_weights(trained_model, tmp_path, capsys,
                                                         layer, cells, value):
    model = load_model(trained_model)
    model.weights[layer][cells] = value
    bad = tmp_path / "bad.mlp"
    save_model(bad, model)
    image = tmp_path / "sample.pgm"
    write_pgm(image, glyph_pgm(1))
    assert main(["predict", str(bad), str(image)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [f"digitrec: weight outside [-1e6, 1e6] in layer {layer + 1}"]


_WEIGHT_TOKENS = (st.sampled_from([struct.pack("<d", v) for v in
                                   (np.nan, np.inf, -np.inf, 1.7e308, -1e6, 1e6, 0.0)]
                                  + [struct.pack("<I", n) for n in (0, 1, 3, 10, 76, 2**32 - 1)])
                  | st.binary(max_size=9))
_MODEL_EDITS = st.lists(st.tuples(st.sampled_from(["flip", "cut", "extend", "insert"]),
                                  st.integers(0, 10**6), _WEIGHT_TOKENS),
                        max_size=4)


@settings(deadline=None, max_examples=200)
@given(_MODEL_EDITS, _PGM_EDITS, st.booleans())
@example([("flip", t, struct.pack("<d", 1.7e308)) for t in range(1855, 1880, 2)], [], True)
def test_predict_on_a_mutated_model_exits_cleanly(trained_model, noisy_scans, tmp_path_factory,
                                                  model_edits, scan_edits, binary):
    # A damaged model file or scan either predicts or is one data-error line.
    # (The model splits into 8-byte tokens; those of the @example are the first
    # output row, whose sum then overflows without the bound on weights.)
    work = tmp_path_factory.mktemp("predict")
    model = work / "m.mlp"
    model.write_bytes(mutate(trained_model.read_bytes(), model_edits, rb"([\x00-\xff]{8})"))
    scan = work / "scan.pgm"
    scan.write_bytes(mutate(noisy_scans[binary], scan_edits, rb"(\s+)"))
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = main(["predict", str(model), str(scan)])
    lines = err.getvalue().splitlines()
    assert "Traceback" not in err.getvalue()
    assert code in (0, 2), lines
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("digitrec: ")
    else:
        assert lines == []
        label, scores = out.getvalue().splitlines()
        scores = [float(v) for v in scores.split()]
        assert all(0 <= v <= 1 for v in scores) and int(label) == np.argmax(scores)
    assert not list(work.glob(".*.tmp"))


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
