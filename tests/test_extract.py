"""The batch front end against the one-scan pipeline it must equal bit for bit.

normalize_images and extract_features on a stack are held to a loop of
normalize_image and extract_features; extract's chunks of cli.CHUNK scans
are held to a loop of read_pgm, normalize_image and extract_features
written out here, for stderr and the CSV's bytes.
"""

import contextlib
import csv
import io
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from digitrec import cli
from digitrec.features import CSV_HEADER, FEATURE_COUNT, extract_features
from digitrec.features import centroid_features, longest_run_features, shadow_features
from digitrec.imgproc import GRID, NoForegroundError, normalize_image, normalize_images
from digitrec.pgm import read_pgm, write_pgm


def one_at_a_time(grays, threshold, invert):
    """(rasters, found) from normalize_image, one scan at a time."""
    rasters, found = [], []
    for gray in grays:
        try:
            rasters.append(normalize_image(gray, threshold, invert))
        except NoForegroundError:
            found.append(False)
        else:
            found.append(True)
    return np.reshape(rasters, (-1, GRID, GRID)), found


@st.composite
def scans(draw):
    """A scan of 1x1 up: a few gray levels anywhere, or one line or pixel of
    ink on a flat background, which crops one pixel high or wide."""
    h, w = draw(st.integers(1, 45)), draw(st.integers(1, 45))
    levels = draw(st.lists(st.integers(0, 255), min_size=1, max_size=4, unique=True))
    if draw(st.booleans()):
        return draw(arrays(np.uint8, (h, w), elements=st.sampled_from(levels)))
    gray = np.full((h, w), levels[0], dtype=np.uint8)
    r0, c0 = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
    r1, c1 = (r0, draw(st.integers(c0, w - 1))) if draw(st.booleans()) else (
        draw(st.integers(r0, h - 1)), c0)
    gray[r0:r1 + 1, c0:c1 + 1] = levels[-1]
    return gray


def flat(level, shape=(3, 5)):
    return np.full(shape, level, dtype=np.uint8)


@settings(deadline=None, max_examples=300)
@given(st.lists(scans(), max_size=20), st.one_of(st.none(), st.integers(0, 255)), st.booleans())
@example([], None, False)
@example([flat(255), flat(0), flat(255, (1, 1))], None, False)  # blank, one-level, 1x1
@example([flat(0), flat(255), flat(0, (1, 1))], None, True)
@example([flat(7, (1, 40)), flat(200, (40, 1))], 128, False)
def test_batch_equals_one_scan_at_a_time(grays, threshold, invert):
    want, found = one_at_a_time(grays, threshold, invert)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rasters, got_found = normalize_images(grays, threshold, invert)
        rows = extract_features(rasters)
    assert got_found.dtype == bool and got_found.tolist() == found
    assert rasters.dtype == np.uint8 and rasters.shape == want.shape
    assert np.array_equal(rasters, want)
    assert rows.shape == (len(want), FEATURE_COUNT)
    want_rows = np.reshape([extract_features(r) for r in want], (-1, FEATURE_COUNT))
    assert rows.tobytes() == want_rows.tobytes()


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 2**32 - 1), st.integers(0, 12), st.floats(0, 1))
def test_each_family_on_a_stack_equals_each_raster(seed, n, density):
    # Random rasters: long runs, checkerboard-like ink and empty octants
    # that normalised scans seldom give.
    stack = np.random.Generator(np.random.PCG64(seed)).random((n, GRID, GRID)) < density
    for family in (shadow_features, centroid_features, longest_run_features, extract_features):
        got = family(stack.astype(np.uint8))
        assert got.shape == (n, family(np.zeros((GRID, GRID), dtype=np.uint8)).size)
        assert got.tobytes() == np.reshape([family(r) for r in stack], got.shape).tobytes()


def test_a_stack_of_the_wrong_shape_or_values_is_refused():
    with pytest.raises(ValueError, match="32x32"):
        extract_features(np.zeros((2, 16, 16), dtype=np.uint8))
    with pytest.raises(ValueError, match="0/1 binary"):
        extract_features(np.full((2, GRID, GRID), 2, dtype=np.uint8))
    with pytest.raises(ValueError, match="2-D uint8"):
        normalize_images([np.zeros((4, 4), dtype=np.int64)])
    with pytest.raises(ValueError, match="outside 0..255"):
        normalize_images([flat(0)], 256)


@pytest.mark.parametrize("shape", [(0, 5), (4, 0)])
@pytest.mark.parametrize("threshold", [None, 128])
@pytest.mark.parametrize("invert", [False, True])
def test_both_paths_refuse_an_image_with_no_pixels(shape, threshold, invert):
    # read_pgm refuses zero dimensions, so only a caller of the API meets this.
    gray = np.zeros(shape, dtype=np.uint8)
    with pytest.raises(ValueError, match="no pixels"):
        normalize_image(gray, threshold, invert)
    with pytest.raises(ValueError, match="no pixels"):
        normalize_images([flat(0), gray], threshold, invert)


# ---------------------------------------------------------------------------
# extract, chunk by chunk

def noisy_scan(rng, label):
    """Two dark strokes on noisy paper, 20-60 px a side."""
    h, w = (int(n) for n in rng.integers(20, 61, size=2))
    gray = rng.integers(170, 256, size=(h, w))
    r, c = int(rng.integers(0, h - 5)), int(rng.integers(0, w - 5))
    gray[r:, c:c + 1 + label % 4] = rng.integers(0, 90)
    gray[r:r + 2 + label, c:] = rng.integers(0, 90)
    return gray.astype(np.uint8)


def write_chunked_corpus(root, blanks_at, invert=False):
    """Class 3 holds 2 * CHUNK + 3 scans, plain paper where listed; class 7
    holds 2. Light on dark if invert."""
    rng = np.random.Generator(np.random.PCG64(23))
    for label, count in ((3, 2 * cli.CHUNK + 3), (7, 2)):
        (root / str(label)).mkdir(parents=True)
        for i in range(count):
            gray = noisy_scan(rng, label)
            if label == 3 and i in blanks_at:
                gray[:] = 255
            write_pgm(root / str(label) / f"{i:03d}.pgm", 255 - gray if invert else gray,
                      binary=i % 3 > 0)


def extract_one_at_a_time(root, threshold, invert, out):
    """extract's stderr lines and CSV as the loop over single scans wrote them."""
    err, labels, rows = [], [], []
    for class_dir in sorted(root.iterdir()):
        for path in sorted(class_dir.iterdir()):
            try:
                raster = normalize_image(read_pgm(path), threshold, invert)
            except NoForegroundError:
                err.append(f"warning: no ink in {path}, skipped")
                continue
            rows.append(extract_features(raster))
            labels.append(int(class_dir.name))
        err.append(f"class {class_dir.name}: {labels.count(int(class_dir.name))} samples")
    err.append(f"wrote {len(rows)} rows to {out}")
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(CSV_HEADER)
    for label, row in zip(labels, rows):
        writer.writerow([label, *map(repr, row.tolist())])
    return err, text.getvalue().encode()


def run_main(argv):
    """(exit code, stderr lines) of digitrec argv, in-process."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue().splitlines()


@pytest.mark.parametrize("flags, threshold, invert", [
    (["--threshold", "otsu"], None, False), ([], 128, False), (["--invert"], 128, True),
], ids=["otsu", "fixed", "invert"])
def test_chunks_change_neither_order_nor_output(tmp_path, flags, threshold, invert):
    # Blank scans open and close the second chunk, and one ends the last.
    root = tmp_path / "corpus"
    write_chunked_corpus(root, (0, cli.CHUNK - 1, cli.CHUNK, 2 * cli.CHUNK - 1, 2 * cli.CHUNK + 2),
                         invert)
    out = tmp_path / "features.csv"
    want_err, want_csv = extract_one_at_a_time(root, threshold, invert, out)
    assert sum(line.startswith("warning: no ink") for line in want_err) == 5
    assert run_main(["extract", str(root), str(out), *flags]) == (0, want_err)
    assert out.read_bytes() == want_csv


def test_a_blank_scan_then_a_broken_one_warns_then_fails_once(tmp_path):
    # As one scan at a time: the blank scan's warning, then the broken
    # scan's one error line, and no scan after it is read.
    root = tmp_path / "corpus"
    write_chunked_corpus(root, (cli.CHUNK + 1,))
    broken = root / "3" / f"{cli.CHUNK + 2:03d}.pgm"
    broken.write_bytes(b"P5\n32 32\n255\nshort")
    (root / "3" / f"{cli.CHUNK + 3:03d}.pgm").write_bytes(b"not read")
    out = tmp_path / "features.csv"
    code, err = run_main(["extract", str(root), str(out)])
    assert code == 2
    assert err == [f"warning: no ink in {root / '3' / f'{cli.CHUNK + 1:03d}.pgm'}, skipped",
                   f"digitrec: {broken}: raster truncated: 5 of 1024 bytes"]
    assert not out.exists()
