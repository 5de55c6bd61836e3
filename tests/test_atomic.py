import os
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from digitrec._atomic import atomic_open, check_output
from digitrec.features import FEATURE_COUNT, read_features_csv, write_features_csv
from digitrec.mlp import load_model, random_model, save_model
from digitrec.pgm import read_pgm, write_pgm


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])  # not only Exceptions
def test_a_failed_block_keeps_the_old_file_and_leaves_no_temporary(tmp_path, error):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with pytest.raises(error, match="disk on fire"):
        with atomic_open(path) as fh:
            fh.write("new\n")
            raise error("disk on fire")
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_a_failed_rename_leaves_the_target_and_no_temporary(tmp_path):
    # os.replace cannot put a file over a directory, so atomic_open refuses
    # one, as open() does, before it makes its temporary file.
    path = tmp_path / "out"
    path.mkdir()
    (path / "inside.txt").write_text("kept\n")
    with pytest.raises(OSError):
        with atomic_open(path) as fh:
            fh.write("new\n")
    assert os.listdir(tmp_path) == ["out"]
    assert os.listdir(path) == ["inside.txt"]
    assert (path / "inside.txt").read_text() == "kept\n"


def test_an_open_or_rename_error_names_the_target(tmp_path):
    # The user gave the target's name, not the temporary file's.
    for path in (tmp_path / "missing" / "out.txt", tmp_path):
        with pytest.raises(OSError) as caught:
            with atomic_open(path) as fh:
                fh.write("new\n")
        assert (caught.value.filename, caught.value.filename2) == (str(path), None)
    assert os.listdir(tmp_path) == []
    # An OSError raised in the block is passed on as it is.
    error = PermissionError("block failed")
    with pytest.raises(PermissionError) as caught:
        with atomic_open(tmp_path / "out.txt"):
            raise error
    assert caught.value is error


def _tree(root):
    """{relative path: a link's target, "fifo", None for a directory, or a
    file's bytes} under root."""
    def entry(p):
        if p.is_symlink():
            return os.readlink(p)
        if p.is_fifo():
            return "fifo"  # reading it would wait for a writer
        return None if p.is_dir() else p.read_bytes()
    return {str(p.relative_to(root)): entry(p) for p in pathlib.Path(root).rglob("*")}


def _raised(action):
    """The OSError that action raises, or None."""
    try:
        action()
    except OSError as exc:
        return exc
    return None


def _write_one_byte(path):
    with atomic_open(path) as fh:
        fh.write("x")


def _make_tree():
    """In the working directory: a directory, a file, links to each, a
    dangling link and a FIFO."""
    os.mkdir("sub")
    with open("file", "wb") as fh:
        fh.write(b"old\n")
    os.symlink("sub", "dlink")
    os.symlink("file", "flink")
    os.symlink("missing", "dangling")
    os.mkfifo("pipe")


# Empty, directories, a missing parent, a parent that is a file, trailing
# slashes, an existing file, a nested new file, links to a directory and to a
# file, a dangling link, a FIFO, and names near NAME_MAX, where the temporary
# name is longer than the target's.
_PATHS = st.one_of(
    st.sampled_from(["", ".", "sub", "missing/out", "file/out", "out/", "sub/", "file/",
                     "file", "sub/x", "new", "dlink", "flink", "dangling", "pipe"]),
    st.builds(lambda where, n: where + "m" * n, st.sampled_from(["", "sub/"]),
              st.integers(240, 260)))


@settings(deadline=None)
@given(_PATHS)
@example("m" * 245 + ".mlp")  # once passed the check, trained, then lost the model
def test_check_output_raises_exactly_when_a_write_would(path):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        os.chdir(root)  # '' and '.' are relative
        try:
            _make_tree()
            before = _tree(root)
            checked = _raised(lambda: check_output(path))
            assert _tree(root) == before
            written = _raised(lambda: _write_one_byte(path))
        finally:
            os.chdir(cwd)
    assert (checked is None) == (written is None), (checked, written)
    if checked is not None:
        assert checked.filename == written.filename == path
        assert (type(checked), checked.errno) == (type(written), written.errno)


def test_a_link_to_a_directory_is_refused_and_a_link_or_fifo_is_replaced(tmp_path,
                                                                        monkeypatch):
    # open() follows a link to a directory and refuses it, and so do the check
    # and the write; the rename follows nothing, so any other entry at the
    # target becomes the new regular file and what a link pointed to is kept.
    monkeypatch.chdir(tmp_path)
    _make_tree()
    for action in (check_output, _write_one_byte):
        with pytest.raises(IsADirectoryError) as caught:
            action("dlink")
        assert caught.value.filename == "dlink"
    assert os.readlink("dlink") == "sub" and os.listdir("sub") == []
    for name in ("flink", "pipe"):
        _write_one_byte(name)
        assert _tree(tmp_path)[name] == b"x"
    assert _tree(tmp_path)["file"] == b"old\n"


def test_a_bytes_path_is_written_and_refused_as_open_does(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # b"" and b"." are relative
    _write_one_byte(b"out.txt")
    assert _tree(tmp_path) == {"out.txt": b"x"}
    for path in (b"", b".", b"missing/x"):
        checked, opened = _raised(lambda: check_output(path)), _raised(lambda: open(path, "w"))
        assert (type(checked), checked.errno) == (type(opened), opened.errno), path
        assert checked.filename == opened.filename == path
    assert _tree(tmp_path) == {"out.txt": b"x"}


def test_readers_refuse_an_int_path_as_the_writers_do_and_leave_it_open(tmp_path):
    # open(3) would read descriptor 3 and close it: load_model(0) would eat stdin.
    path = tmp_path / "any"
    path.write_bytes(b"P5\n1 1\n255\n\x00")
    fd = os.open(path, os.O_RDONLY)
    try:
        for reader in (read_pgm, load_model, read_features_csv):
            with pytest.raises(TypeError, match="not int"):
                reader(fd)
            os.fstat(fd)  # still open
        with pytest.raises(TypeError, match="not int"):
            write_pgm(fd, np.zeros((1, 1)))
    finally:
        os.close(fd)


def test_a_bytes_path_round_trips_through_each_reader(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    img = np.arange(12, dtype=np.uint8).reshape(3, 4)
    write_pgm(b"x.pgm", img)
    np.testing.assert_array_equal(read_pgm(b"x.pgm"), img)
    model = random_model([FEATURE_COUNT, 3, 10], seed=0)
    save_model(b"x.mlp", model)
    assert all(np.array_equal(a, b) for a, b in zip(load_model(b"x.mlp").weights, model.weights))
    write_features_csv(b"x.csv", [7], np.full((1, FEATURE_COUNT), 0.5))
    labels, values = read_features_csv(b"x.csv")
    assert labels.tolist() == [7] and (values == 0.5).all()
