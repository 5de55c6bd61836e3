import os

import pytest

from digitrec._atomic import atomic_open


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
    # os.replace cannot put a file over a directory.
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
