import argparse
import contextlib
import dataclasses
import io
import json
import os
import re
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import digitrec
from digitrec.cli import (MAX_SWEEP_SIZES, _load_dataset, _training_config, build_parser, main,
                          parse_sizes, parse_threshold, UsageError)
from digitrec.evaluation import format_accuracy, make_toy_dataset, toy_glyph
from digitrec.features import CSV_HEADER, read_features_csv, write_features_csv
from digitrec.imgproc import DEFAULT_THRESHOLD
from digitrec.mlp import TrainingConfig, load_model, predict, sample_error
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
    for bad in ("70:25:5", "25:70:0", "8,4", "4,4", "0,5", "a,b", "1:2", "1:2:3:4", ""):
        with pytest.raises(UsageError):
            parse_sizes(bad)
    # The model file holds sizes up to 2**32 - 1. A long range is refused in a
    # child process below, since a regression would list it here.
    assert parse_sizes("4294967290:4294967295:5") == [4294967290, 4294967295]
    for bad in ("1:4294967296:4294967295", "4,4294967296"):
        with pytest.raises(UsageError, match="sizes must be at most 4294967295"):
            parse_sizes(bad)


def main_under_2_gib(*argv):
    """digitrec argv in a child process whose address space is capped at
    2 GiB, so that a huge allocation fails there at once, never here."""
    script = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
              "from digitrec.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    src = os.path.dirname(os.path.dirname(digitrec.__file__))
    return subprocess.run([sys.executable, "-c", script, *map(str, argv)],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))


@pytest.mark.parametrize("argv", [
    ["train", "--hidden", "99999999999999999999", "--model-out"],
    ["train", "--hidden", "10000000000", "--model-out"],
    ["sweep", "--sizes", "1:100000000000:1", "--report-out"],
], ids=["train-20-digits", "train-1e10", "sweep-range"])
def test_sizes_the_model_file_cannot_hold_are_usage_errors(feature_csv, tmp_path, argv):
    # Each once reached exit 3 through a huge allocation.
    result = main_under_2_gib(argv[0], feature_csv, "--epochs", "1", *argv[1:], tmp_path / "out")
    assert result.returncode == 1
    assert result.stdout == ""
    assert re.fullmatch(r"digitrec: [^\n]*4294967295[^\n]*\n", result.stderr), result.stderr
    assert list(tmp_path.iterdir()) == []


def test_a_sweep_of_too_many_sizes_is_a_usage_error(feature_csv, tmp_path):
    # Every size fits the model file, but the range once became a list of
    # 4 billion ints before any check: out of memory, exit 2, under the cap.
    result = main_under_2_gib("sweep", feature_csv, "--sizes", "1:4294967295:1", "--epochs", "1",
                              "--report-out", tmp_path / "out")
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == (f"digitrec: at most {MAX_SWEEP_SIZES} sizes, not 4294967295, "
                             "in '1:4294967295:1'\n")
    assert list(tmp_path.iterdir()) == []
    assert len(parse_sizes(f"1:{MAX_SWEEP_SIZES}:1")) == MAX_SWEEP_SIZES
    for spec in (f"1:{MAX_SWEEP_SIZES + 1}:1", ",".join(map(str, range(1, MAX_SWEEP_SIZES + 2)))):
        with pytest.raises(UsageError, match=f"not {MAX_SWEEP_SIZES + 1}, in"):
            parse_sizes(spec)


def test_a_size_that_does_not_fit_in_memory_is_a_data_error(feature_csv, tmp_path):
    # 4e9 is a size the model file can hold, but its (H, 77) matrix is 2.2 TiB.
    result = main_under_2_gib("train", feature_csv, "--hidden", "4000000000", "--epochs", "1",
                              "--model-out", tmp_path / "out")
    assert result.returncode == 2
    assert result.stdout == ""
    assert re.fullmatch(r"digitrec: out of memory for hidden size 4000000000: [^\n]+\n",
                        result.stderr), result.stderr
    assert list(tmp_path.iterdir()) == []


def test_flags_arrive_parsed_with_the_library_defaults():
    d = TrainingConfig()
    for argv in (["train", "d"], ["crossval", "d"], ["sweep", "d", "--sizes", "4,8"]):
        args = build_parser().parse_args(argv)
        assert (args.hidden, args.lr, args.momentum, args.epochs, args.seed) == \
            (d.hidden_size, d.learning_rate, d.momentum, d.max_epochs, d.seed)
        assert args.threshold == DEFAULT_THRESHOLD
    assert build_parser().parse_args(["extract", "d", "o", "--threshold", "otsu"]).threshold is None
    assert build_parser().parse_args(["sweep", "d", "--sizes", "4,8"]).sizes == [4, 8]


def test_training_config_holds_only_what_the_flags_set(monkeypatch):
    # A field no flag sets would be a knob that no run of the CLI can turn.
    seen = {}

    def spy(**kwargs):
        seen.update(kwargs)
        raise RuntimeError("config built")

    args = build_parser().parse_args(["train", "d"])
    monkeypatch.setattr("digitrec.mlp.TrainingConfig", spy)
    with pytest.raises(RuntimeError, match="config built"):
        _training_config(args)
    names = [f.name for f in dataclasses.fields(TrainingConfig)]
    assert sorted(seen) == sorted(names) == [
        "hidden_size", "learning_rate", "max_epochs", "momentum", "seed"]


def test_usage_errors_come_before_any_file_is_read(tmp_path, capsys):
    missing = str(tmp_path / "missing")
    for argv in (["predict", missing, missing, "--threshold", "999"],
                 ["extract", missing, missing, "--threshold", "dark"],
                 ["sweep", missing, "--sizes", "9:3:3"]):
        assert main(argv) == 1
        assert "missing" not in capsys.readouterr().err


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


def test_extract_reads_only_the_class_directories_0_to_9(tmp_path, capsys):
    # Both pass str.isdigit() but name no class: int('²') raises, and int('৩') is 3.
    root = tmp_path / "corpus"
    write_corpus(root, labels=[3], copies=2)
    for name in ("²", "৩"):
        (root / name).mkdir()
        write_pgm(root / name / "s0.pgm", glyph_pgm(8))
    out = tmp_path / "features.csv"
    assert main(["extract", str(root), str(out)]) == 0
    labels, _ = read_features_csv(out)
    assert labels.tolist() == [3, 3]
    assert capsys.readouterr().err.splitlines() == ["class 3: 2 samples", f"wrote 2 rows to {out}"]


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
    write_features_csv(csv, data.labels, data.features)
    model_path = tmp_path / "m.mlp"
    assert main(["train", str(csv), "--model-out", str(model_path),
                 "--hidden", "5", "--epochs", "3", "--seed", "3"]) == 0
    model = load_model(model_path)
    sse = sum(sample_error(model, x, label) for x, label in zip(data.features, data.labels))
    hits = sum(predict(model, x) == label for x, label in zip(data.features, data.labels))
    assert 0 < hits < len(data)
    accuracy = format_accuracy(100.0 * hits / len(data))
    assert capsys.readouterr().out == f"sse {sse:.6f}\naccuracy {accuracy}\n"


@pytest.mark.parametrize("command, flags, outputs", [
    ("train", ["--hidden", "5", "--model-out"], ["out.mlp"]),
    ("crossval", ["--hidden", "5", "--report-out"], ["out.csv", "out.confusion.txt"]),
    ("sweep", ["--sizes", "4,5", "--report-out"], ["out.csv"]),
], ids=["train", "crossval", "sweep"])
def test_diverged_training_exits_2_and_writes_nothing(tmp_path, capsys, command, flags, outputs):
    # At a learning rate of 1e9 the weights leave [-1e6, 1e6] and each model
    # predicts one class: train must not save one, nor crossval and sweep score it.
    data = make_toy_dataset(per_class=3, noise=0.05, seed=1)
    csv = tmp_path / "toy.csv"
    write_features_csv(csv, data.labels, data.features)
    for name in (None, *outputs):  # first no output exists, then an earlier one does
        if name:
            (tmp_path / name).write_text("earlier output\n")
        assert main([command, str(csv), *flags, str(tmp_path / outputs[0]), "--lr", "1e9",
                     "--epochs", "30"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("digitrec: training diverged at learning rate 1000000000.0: "
                                "weight outside [-1e6, 1e6] in layer 1\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["toy.csv", *outputs])
    assert all((tmp_path / name).read_text() == "earlier output\n" for name in outputs)


def one_error_line(err):
    """The one digitrec: line that ends stderr, asserted to be the only one."""
    lines = err.splitlines()
    assert [line for line in lines if line.startswith("digitrec: ")] == lines[-1:], lines
    return lines[-1]


def test_extract_names_an_unwritable_output_as_given(corpus, tmp_path, monkeypatch, capsys):
    # The rename of the temporary file fails; the message once named that
    # file ('..4242.tmp' -> ''). The training commands check their paths
    # first, in the test below.
    monkeypatch.chdir(tmp_path)
    assert main(["extract", str(corpus), ""]) == 2
    line = one_error_line(capsys.readouterr().err)
    assert line.endswith(": ''") and ".tmp" not in line
    assert os.listdir(tmp_path) == []


_OUTPUT_FLAGS = {"train": ["--model-out"], "crossval": ["--report-out"],
                 "sweep": ["--sizes", "4,5", "--report-out"]}


@pytest.mark.parametrize("command", sorted(_OUTPUT_FLAGS))
@pytest.mark.parametrize("path", ["", ".", "sub", "missing/out", "file/out"],
                         ids=["empty", "cwd", "directory", "missing-parent", "under-a-file"])
def test_a_bad_output_path_exits_2_before_the_data_is_read(tmp_path, monkeypatch, capsys,
                                                           command, path):
    # Checked first, a bad path costs no training: these outputs are written
    # only after it, which at the paper's scale takes minutes.
    def unreachable(*args, **kwargs):
        raise AssertionError("reached with a bad output path")

    for name in ("digitrec.cli._load_dataset", "digitrec.mlp.train", "digitrec.evaluation.train"):
        monkeypatch.setattr(name, unreachable)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "file").write_text("a regular file\n")
    assert main([command, "data.csv", *_OUTPUT_FLAGS[command], path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert one_error_line(captured.err).endswith(f": {path!r}")
    assert sorted(os.listdir(tmp_path)) == ["file", "sub"]


def test_crossval_checks_its_confusion_path_before_the_data_is_read(tmp_path, monkeypatch,
                                                                   capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("reached with a bad output path")

    monkeypatch.setattr("digitrec.cli._load_dataset", unreachable)
    (tmp_path / "out.confusion.txt").mkdir()
    assert main(["crossval", "data.csv", "--report-out", str(tmp_path / "out.csv")]) == 2
    line = one_error_line(capsys.readouterr().err)
    assert line.endswith(f": {str(tmp_path / 'out.confusion.txt')!r}")
    assert os.listdir(tmp_path) == ["out.confusion.txt"]


def test_train_and_crossval_leave_numpy_ma_unimported(feature_csv, tmp_path):
    # numpy.ma adds about 1.4 MB to the process; np.unique would import it.
    script = (
        "import sys\n"
        "from digitrec.cli import main\n"
        f"assert main(['train', {str(feature_csv)!r}, '--epochs', '2',"
        f" '--model-out', {str(tmp_path / 'm.mlp')!r}]) == 0\n"
        f"assert main(['crossval', {str(feature_csv)!r}, '--epochs', '2',"
        f" '--report-out', {str(tmp_path / 'r.csv')!r}]) == 0\n"
        "assert 'numpy.ma' not in sys.modules\n")
    src = os.path.dirname(os.path.dirname(digitrec.__file__))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 0, result.stderr


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
    # A negative seed reached PCG64 and exited 3 as an internal error.
    for flag, value in (("--momentum", "1.0"), ("--seed", "-1")):
        assert main(["train", str(feature_csv), "--model-out",
                     str(tmp_path / "m.mlp"), flag, value]) == 1


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
    assert len(dataset) == len(lines) - 1
    # A bad field inside the two-line record is named by its first line.
    bad = list(row)
    bad[9] = "x"
    data.write_text("\n".join([lines[0], ",".join(bad)] + lines[2:]) + "\n")
    assert main(["train", str(data), "--model-out", str(tmp_path / "m.mlp")]) == 2
    assert f"digitrec: {data}:2: could not convert" in capsys.readouterr().err
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
    # A model-format error names the model file, as an image error names the image.
    image = tmp_path / "sample.pgm"
    write_pgm(image, glyph_pgm(1))
    stub = tmp_path / "cut.mlp"
    for size, message in [(40, "file ends inside weight matrix"), (4, "file ends inside version")]:
        stub.write_bytes(trained_model.read_bytes()[:size])
        assert main(["predict", str(stub), str(image)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.splitlines() == [f"digitrec: {stub}: {message}"]
    assert main(["predict", str(trained_model), str(tmp_path / "no.pgm")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("sizes", [[76, 5, 12], [76, 5, 9], [76, 5, 4, 10]])
def test_predict_needs_ten_outputs(tmp_path, capsys, sizes):
    # Only a 76-H-10 model gives a digit; a file of two hidden layers is no model at all.
    model = tmp_path / "m.mlp"
    rng = np.random.Generator(np.random.PCG64(1))
    blob = b"MLP1" + struct.pack(f"<II{len(sizes)}I", 1, len(sizes), *sizes)
    for n_in, n_out in zip(sizes, sizes[1:]):
        blob += rng.uniform(-0.5, 0.5, (n_out, n_in + 1)).astype("<f8").tobytes()
    model.write_bytes(blob)
    image = tmp_path / "sample.pgm"
    write_pgm(image, glyph_pgm(1))
    code = main(["predict", str(model), str(image)])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    if len(sizes) == 3:
        assert out.err.splitlines() == [
            f"digitrec: {model}: model has {sizes[-1]} outputs, expected 10"]
    else:
        assert out.err.splitlines() == [
            f"digitrec: {model}: layer count 4, expected 3: input, hidden, output"]


@pytest.mark.parametrize("layer, cells, value", [(0, (0, 0), np.nan), (1, ..., np.inf)])
def test_predict_rejects_a_model_with_non_finite_weights(trained_model, tmp_path, capsys,
                                                         layer, cells, value):
    model = load_model(trained_model)
    model.weights[layer][cells] = value
    bad = tmp_path / "bad.mlp"
    # save_model refuses such weights, so the file is its 24-byte header and the weights.
    bad.write_bytes(trained_model.read_bytes()[:24]
                    + b"".join(w.astype("<f8").tobytes() for w in model.weights))
    image = tmp_path / "sample.pgm"
    write_pgm(image, glyph_pgm(1))
    assert main(["predict", str(bad), str(image)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [f"digitrec: {bad}: weight outside [-1e6, 1e6] in layer {layer + 1}"]


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


# ---------------------------------------------------------------------------
# Any argv

def _flags_by_command():
    """{command: (positional dests, {flag: action})}, as build_parser declares them."""
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    return {name: ([a.dest for a in p._actions if not a.option_strings],
                   {a.option_strings[-1]: a for a in p._actions
                    if a.option_strings and a.dest != "help"})
            for name, p in commands.items()}


_COMMANDS = _flags_by_command()
# Values by destination: those that parse first, then extreme and odd ones.
# "@name" is the path work/name in the example's own directory. Sizes and
# epochs are small enough that training ends at once; a size that fits the
# model file but not memory is an @example below, run in a capped child.
_HUGE = ["99999999999999999999", "-99999999999999999999", "4294967296"]
# Output paths that cannot be written: empty, a directory, in a missing
# directory, and under a regular file.
_BAD_OUTPUTS = ["", ".", "@corpus", "@missing/out.csv", "@features.csv/out.csv"]
_VALUES = {
    "data_dir": ["@corpus"],
    "data": ["@corpus", "@features.csv"],
    "model": ["@model.mlp"],
    "image": ["@corpus/0/s0.pgm", "@corpus/1/s2.pgm"],
    "out": ["@out.csv", *_BAD_OUTPUTS], "model_out": ["@out.mlp", *_BAD_OUTPUTS],
    "report_out": ["@out.csv", "@out", *_BAD_OUTPUTS],
    "hidden": ["1", "3", *_HUGE],
    "epochs": ["0", "1", "2"],
    "folds": ["2", *_HUGE],
    "seed": ["0", "7", *_HUGE],
    "lr": ["0", "0.5", "1e308", "1e-320", "-0.0"],
    "momentum": ["0", "0.7", "0.9999999999999999"],
    "threshold": ["0", "128", "255", "otsu", " OTSU "],
    "sizes": ["1", "2,3", "1:3:1", "3:3:7"],
}
_ODD = ["", "x", "-", "--", "\x00", "\udcff", "a\nb", "٣", "²", "-1", "1.5", "nan", "inf",
        "3,2", "1,1", "3:1:1", "1:3:0", "1:2:3:4", "1:1001:1", "1:4294967296:1",
        "@corpus", "@corpus/0", "@features.csv", "@model.mlp", "@missing", "@new/out.csv", "@"]
_ENTRY_NAMES = ["0", "1", "2", "10", "٣", "²", " 3", "3 ", "s.pgm", ".pgm",
                "S.PGM", "a\nb.pgm", "\udcff.pgm", "-1"]
_ENTRY_KINDS = ["dir", "scan", "blank", "broken", "empty", "link"]


def _mostly(draw, common, rare):
    """A draw from common seven times in eight, when it has any, else from rare."""
    return draw(st.sampled_from(common if common and draw(st.integers(0, 7)) else rare))


@st.composite
def _argv(draw):
    """A command, its positionals and flags from the parser, values from the pools."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    positionals, flags = _COMMANDS[command]
    others = sorted({flag for _, f in _COMMANDS.values() for flag in f} - set(flags))
    argv = [command] + [_mostly(draw, _VALUES[dest], _ODD) for dest in positionals]
    drawn = [_mostly(draw, sorted(flags), others) for _ in range(draw(st.integers(0, 5)))]
    required = [flag for flag, action in flags.items() if action.required or flag == "--epochs"]
    for flag in drawn + [flag for flag in required if flag not in drawn]:
        action = flags.get(flag)
        argv.append(flag)
        if action is None or action.nargs != 0:
            argv.append(_mostly(draw, _VALUES.get(action.dest if action else "", []), _ODD))
    return argv + _mostly(draw, [[]], [[token] for token in _ODD])


@pytest.fixture(scope="module")
def argv_inputs(tmp_path_factory):
    """A two-class corpus of three scans each, its feature CSV and a model."""
    root = tmp_path_factory.mktemp("inputs")
    write_corpus(root / "corpus", labels=(0, 1))
    assert main(["extract", str(root / "corpus"), str(root / "features.csv")]) == 0
    assert main(["train", str(root / "features.csv"), "--model-out", str(root / "model.mlp"),
                 "--hidden", "3", "--epochs", "1"]) == 0
    return root


def _add_entry(corpus, where, name, kind):
    path = corpus / where / name if where else corpus / name
    if os.path.lexists(path) or not path.parent.is_dir():
        return
    if kind == "dir":
        path.mkdir()
    elif kind == "link":
        path.symlink_to("nowhere")
    elif kind == "scan":
        write_pgm(path, glyph_pgm(2))
    elif kind == "blank":
        write_pgm(path, np.full((8, 8), 255, np.uint8))
    else:
        path.write_bytes(b"P5\n8 8\n255\n" if kind == "broken" else b"")


def main_capped(work, argv):
    """main(argv) in a child process in work, its address space capped at
    2 GiB; argv goes as JSON, which carries NUL and lone surrogates."""
    script = ("import json, resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
              "from digitrec.cli import main\n"
              "sys.exit(main(json.loads(sys.stdin.read())))\n")
    src = os.path.dirname(os.path.dirname(digitrec.__file__))
    result = subprocess.run([sys.executable, "-c", script], input=json.dumps(argv).encode(),
                            capture_output=True, cwd=work, env=dict(os.environ, PYTHONPATH=src))
    return result.returncode, result.stderr.decode(errors="backslashreplace")


def _could_allocate_much(argv):
    """Whether argv holds a layer size that fits the model file, yet not memory."""
    numbers = [int(n) for token in argv for n in re.split(r"[,:]", token) if n.isdecimal()]
    return any(100_000 < n <= 2**32 - 1 for n in numbers)


@settings(deadline=None, max_examples=200)
@given(_argv(), st.lists(st.tuples(st.sampled_from(["", "0", "1"]), st.sampled_from(_ENTRY_NAMES),
                                   st.sampled_from(_ENTRY_KINDS)), max_size=4))
@example(["extract", "@corpus", "\x00"], [])  # once exit 3: embedded null byte
@example(["train", "@features.csv", "--hidden", "4000000000", "--epochs", "1"], [])
@example(["sweep", "@corpus", "--sizes", "1,4294967295", "--folds", "2", "--epochs", "1"], [])
@example(["crossval", "@corpus", "--hidden", "4294967295", "--folds", "2", "--epochs", "1"],
         [("", "2", "dir"), ("2", "a\nb.pgm", "broken")])
def test_any_argv_exits_0_1_or_2(argv_inputs, tmp_path_factory, argv, entries):
    # Whatever the flags and the corpus tree, a run succeeds, or is a usage
    # or data error whose one digitrec: line ends stderr; never exit 3.
    work = tmp_path_factory.mktemp("argv")
    shutil.copytree(argv_inputs, work, dirs_exist_ok=True)
    for entry in entries:
        _add_entry(work / "corpus", *entry)
    argv = [str(work / t[1:]) if t.startswith("@") else t for t in argv]
    if _could_allocate_much(argv):
        code, err = main_capped(work, argv)
    else:
        stderr, cwd = io.StringIO(), os.getcwd()
        os.chdir(work)  # for the default output paths
        try:
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
        finally:
            os.chdir(cwd)
        err = stderr.getvalue()
    lines = err.split("\n")
    assert lines.pop() == ""
    assert "Traceback" not in err
    assert code in (0, 1, 2), lines
    said = [line for line in lines if line.startswith("digitrec:")]
    assert said == (lines[-1:] if code else []), lines
    assert not list(work.rglob(".*.tmp"))
