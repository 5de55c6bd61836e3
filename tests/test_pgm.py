import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def test_p2_roundtrip_of_a_large_scan(tmp_path):
    # Thousands of samples over wrapped lines, past the round-trip property's 40x40.
    rng = np.random.Generator(np.random.PCG64(2))
    img = rng.integers(0, 256, size=(180, 130), dtype=np.uint8)
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


def test_write_rejects_a_non_2d_image(tmp_path):
    path = tmp_path / "img.pgm"
    with pytest.raises(PgmError, match="2-D"):
        write_pgm(path, np.zeros((2, 2, 3), dtype=np.uint8))
    assert not path.exists()


@pytest.mark.parametrize("img", [
    np.array([[300, 0, 255]]), np.array([[0, -1]], dtype=np.int16), np.array([[-1.0, 0.0]]),
    np.array([[255.5]]), np.array([[np.nan, 0.0]]), np.array([[np.inf]]),
    np.array([[254.7, 0.2]])])  # a cast to uint8 would write 254 and 0
def test_write_rejects_samples_outside_0_to_255(tmp_path, img):
    # A cast to uint8 would write 300 as 44, and -1 as 255: ink as paper.
    path = tmp_path / "img.pgm"
    write_pgm(path, np.zeros((1, 1), dtype=np.uint8))
    before = path.read_bytes()
    for binary in (True, False):
        with pytest.raises(PgmError, match="0..255"):
            write_pgm(path, img, binary=binary)
        assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["img.pgm"]


def test_write_accepts_the_ends_of_the_range_and_bools(tmp_path):
    path = tmp_path / "img.pgm"
    for img, want in ((np.array([[0, 255]]), [[0, 255]]), (np.array([[0.0, 255.0]]), [[0, 255]]),
                      (np.array([[True, False]]), [[1, 0]])):
        for binary in (True, False):
            write_pgm(path, img, binary=binary)
            np.testing.assert_array_equal(read_pgm(path), want)


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


def test_p2_sample_past_int64_is_a_pgm_error(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_text("P2\n2 1\n255\n0 99999999999999999999\n")
    with pytest.raises(PgmError, match="maxval"):
        read_pgm(path)


# ---------------------------------------------------------------------------
# Properties, against the earlier token-walking reader as an oracle

def _oracle_tokens(data: bytes):
    i = 0
    n = len(data)
    while i < n:
        ch = data[i:i + 1]
        if ch.isspace():
            i += 1
        elif ch == b"#":
            while i < n and data[i:i + 1] not in (b"\n", b"\r"):
                i += 1
        else:
            j = i
            while j < n and not data[j:j + 1].isspace() and data[j:j + 1] != b"#":
                j += 1
            yield data[i:j], j
            i = j


def oracle_read_pgm(path) -> np.ndarray:
    """The reader as it was before the header became one regex. It
    raises OverflowError, not PgmError, on a P2 sample past int64."""
    data = Path(path).read_bytes()
    header = _oracle_tokens(data)

    def next_token():
        try:
            return next(header)
        except StopIteration:
            raise PgmError("truncated header") from None

    magic, _ = next_token()
    if magic not in (b"P2", b"P5"):
        raise PgmError("magic")
    fields = []
    end = 0
    for _ in range(3):
        tok, end = next_token()
        if not tok.isdigit():
            raise PgmError("header field")
        fields.append(int(tok))
    width, height, maxval = fields
    if width < 1 or height < 1 or not 0 < maxval <= 255:
        raise PgmError("dimensions or maxval")
    count = width * height
    if magic == b"P5":
        if not data[end:end + 1].isspace():
            raise PgmError("whitespace")
        raster = data[end + 1:]
        if len(raster) < count or raster[count:].strip():
            raise PgmError("raster size")
        img = np.frombuffer(raster[:count], dtype=np.uint8)
    else:
        samples = re.sub(rb"#[^\r\n]*", b" ", data[end:]).split()
        if not all(tok.isdigit() for tok in samples) or len(samples) != count:
            raise PgmError("samples")
        img = np.array([int(tok) for tok in samples], dtype=np.int64)
    if img.max(initial=0) > maxval:
        raise PgmError("maxval")
    if maxval < 255:
        img = (img.astype(np.int64) * 255 + maxval // 2) // maxval
    return img.astype(np.uint8).reshape(height, width)


_SEPARATORS = st.lists(st.sampled_from(
    [b" ", b"\n", b"\t", b"\r\n", b"\r", b"\x0b\x0c", b"# c\n", b"#\r", b"##x\n", b"#"]),
    min_size=1, max_size=3).map(b"".join)
_ODD_TOKENS = st.sampled_from([b"99999999999999999999", b"1a", b"-1", b"0", b"256", b"P2", b"",
                               b"007", b"0256", b"1000", b"0001000",
                               b"0000000000000000000255"])


@st.composite
def pgm_files(draw):
    """Mostly well-formed P2/P5 files: separators of every kind, bad
    magics, and now and then an odd token in place of a number."""
    def odd():
        return draw(st.integers(0, 15)) == 15

    def token(value):
        return draw(_ODD_TOKENS) if odd() else str(value).encode()

    magic = draw(st.sampled_from([b"P2", b"P5", b"P6", b"P2x", b"p5"])) if odd() else (
        draw(st.sampled_from([b"P2", b"P5"])))
    width, height = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    maxval = draw(st.sampled_from([255, 1, 9, 15]))
    parts = [draw(_SEPARATORS) if odd() else b"", magic]
    for value in (width, height, maxval):
        parts += [draw(_SEPARATORS), token(value)]
    count = width * height + (draw(st.sampled_from([-1, 1])) if odd() else 0)
    samples = draw(st.lists(st.integers(0, maxval), min_size=count, max_size=count))
    if magic == b"P5":
        parts += [draw(st.sampled_from([b"\n", b" ", b"\r", b"", b"#"])), bytes(samples)]
    else:
        for value in samples:
            parts += [draw(_SEPARATORS), token(value)]
    return b"".join(parts + [draw(_SEPARATORS) if odd() else b"\n"])


@settings(deadline=None, max_examples=500)
@given(pgm_files())
@example(b"P2\n2 1\n255\n0 99999999999999999999\n")
@example(b"P2\n2 1\n9\n09 3\n")
@example(b"P2\n2 1\n255\n0001000 7\n")
@example(b"P2\n2 1\n255\n0000000000000000000255 007\n")
@example(b"P2\n2 1\n255\n0\x1c7\n")  # bytes.split() does not split at \x1c
def test_read_pgm_agrees_with_oracle(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("pgm") / "img.pgm"
    path.write_bytes(data)
    try:
        want = oracle_read_pgm(path)
    except (PgmError, OverflowError):
        with pytest.raises(PgmError):
            read_pgm(path)
    else:
        got = read_pgm(path)
        assert got.dtype == np.uint8 and got.flags.writeable
        np.testing.assert_array_equal(got, want)


@settings(deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.booleans(), st.data())
def test_write_read_roundtrip(tmp_path_factory, height, width, binary, data):
    raw = data.draw(st.binary(min_size=height * width, max_size=height * width))
    img = np.frombuffer(raw, dtype=np.uint8).reshape(height, width)
    path = tmp_path_factory.mktemp("pgm") / "img.pgm"
    write_pgm(path, img, binary=binary)
    np.testing.assert_array_equal(read_pgm(path), img)
    if not binary:  # netpbm caps plain PGM lines at 70 characters
        assert max(map(len, path.read_bytes().splitlines())) <= 70
