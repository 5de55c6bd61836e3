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
