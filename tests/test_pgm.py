import numpy as np
import pytest

from digitrec.imgproc import normalize_image
from digitrec.pgm import PgmError, read_pgm, write_pgm


def test_p5_roundtrip(tmp_path):
    rng = np.random.Generator(np.random.PCG64(0))
    img = rng.integers(0, 256, size=(7, 11), dtype=np.uint8)
    path = tmp_path / "img.pgm"
    write_pgm(path, img, binary=True)
    np.testing.assert_array_equal(read_pgm(path), img)


def test_p2_roundtrip(tmp_path):
    rng = np.random.Generator(np.random.PCG64(1))
    img = rng.integers(0, 256, size=(5, 3), dtype=np.uint8)
    path = tmp_path / "img.pgm"
    write_pgm(path, img, binary=False)
    np.testing.assert_array_equal(read_pgm(path), img)


def test_p2_with_comments_and_odd_whitespace(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_text("P2 # magic\n# a comment line\n 2\t2\n255\n0 128\n#mid\n255 7\n")
    np.testing.assert_array_equal(read_pgm(path), [[0, 128], [255, 7]])


def test_p2_respects_smaller_maxval(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_text("P2\n2 1\n9\n0 9\n")
    np.testing.assert_array_equal(read_pgm(path), [[0, 255]])


def test_smaller_maxval_rescales_to_nearest_level(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n4 1\n15\n" + bytes([0, 1, 7, 15]))
    # round(v * 255 / 15) = 17 * v
    np.testing.assert_array_equal(read_pgm(path), [[0, 17, 119, 255]])


def test_low_maxval_scan_is_not_all_ink(tmp_path):
    # Paper at 15 (white on a maxval-15 scale), a dark ring as ink.
    img = np.full((20, 16), 15, dtype=np.uint8)
    img[4:16, 4:12] = 0
    img[7:13, 7:9] = 15
    rows = [" ".join(str(v) for v in row) for row in img]
    path = tmp_path / "img.pgm"
    path.write_text("P2\n16 20\n15\n" + "\n".join(rows) + "\n")
    raster = normalize_image(read_pgm(path), 128)
    assert 0 < raster.mean() < 1


def test_bad_magic(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_text("P6\n1 1\n255\n0\n")
    with pytest.raises(PgmError, match="magic"):
        read_pgm(path)


def test_maxval_too_large(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_text("P2\n1 1\n65535\n300\n")
    with pytest.raises(PgmError, match="maxval"):
        read_pgm(path)


def test_p5_truncated_raster(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(10))
    with pytest.raises(PgmError, match="truncated"):
        read_pgm(path)


def test_p2_sample_count_mismatch(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_text("P2\n2 2\n255\n1 2 3\n")
    with pytest.raises(PgmError, match="samples"):
        read_pgm(path)


def test_p2_sample_above_maxval(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_text("P2\n2 1\n100\n5 101\n")
    with pytest.raises(PgmError, match="maxval"):
        read_pgm(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_text("P5\n4\n")
    with pytest.raises(PgmError, match="header"):
        read_pgm(path)
