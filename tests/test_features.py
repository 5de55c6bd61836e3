import csv
import hashlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from digitrec.evaluation import make_toy_dataset
from digitrec.features import (CENTROID_COUNT, CSV_HEADER, CSV_ROWS, DIRECTIONS,
                               FEATURE_COUNT, LONGEST_RUN_COUNT, SHADOW_COUNT,
                               centroid_features, extract_features,
                               longest_run_features, longest_runs_by_line,
                               octant_of, read_features_csv, shadow_features,
                               write_features_csv)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import reference  # noqa: E402

GRID = 32

# ---------------------------------------------------------------------------
# Independent oracles: the scalar definitions in perfbench/reference.py for
# the octants and the three families, and a run-expanding scan below for
# longest_runs_by_line on windows of any size.

def diagonal_cells(shape, direction, offset):
    """Cells of one full-image diagonal, walked in row order."""
    h, w = shape
    cells = []
    if direction == "diag_main":  # r - c == offset
        for r in range(h):
            c = r - offset
            if 0 <= c < w:
                cells.append((r, c))
    else:  # r + c == offset
        for r in range(h):
            c = offset - r
            if 0 <= c < w:
                cells.append((r, c))
    return cells


def oracle_line_longest(img, cells, in_window):
    """Longest run touching the window, found by expanding around each cell."""
    best = 0
    for i, (r, c) in enumerate(cells):
        if not in_window(r, c) or not img[r, c]:
            continue
        j = i
        while j > 0 and img[cells[j - 1]]:
            j -= 1
        k = i
        while k + 1 < len(cells) and img[cells[k + 1]]:
            k += 1
        best = max(best, k - j + 1)
    return best


def oracle_runs_by_line(img, rows, cols, direction):
    h, w = img.shape
    r0, r1 = rows
    c0, c1 = cols

    def in_window(r, c):
        return r0 <= r <= r1 and c0 <= c <= c1

    out = []
    if direction == "row":
        for r in range(r0, r1 + 1):
            cells = [(r, c) for c in range(w)]
            out.append(oracle_line_longest(img, cells, in_window))
    elif direction == "column":
        for c in range(c0, c1 + 1):
            cells = [(r, c) for r in range(h)]
            out.append(oracle_line_longest(img, cells, in_window))
    elif direction == "diag_main":
        for d in range(r0 - c1, r1 - c0 + 1):
            cells = diagonal_cells(img.shape, direction, d)
            out.append(oracle_line_longest(img, cells, in_window))
    else:
        for s in range(r0 + c0, r1 + c1 + 1):
            cells = diagonal_cells(img.shape, direction, s)
            out.append(oracle_line_longest(img, cells, in_window))
    return out


def random_raster(rng, density=0.35):
    return (rng.random((GRID, GRID)) < density).astype(np.uint8)


# ---------------------------------------------------------------------------
# Octant partition

def test_octant_examples():
    assert octant_of(0, 31) == 1   # corner pixel, outer end of the NE diagonal
    assert octant_of(15, 31) == 0  # just above the east center line
    assert octant_of(15, 16) == 0  # inner end of the NE diagonal
    assert octant_of(31, 0) == 5   # 180-degree image of (0, 31)


def test_octant_partition_is_exact_and_balanced():
    counts = np.zeros(8, dtype=int)
    for r in range(GRID):
        for c in range(GRID):
            k = octant_of(r, c)
            assert k == reference.octant(r, c), (r, c)
            counts[k] += 1
    np.testing.assert_array_equal(counts, [128] * 8)


def test_octant_rejects_out_of_range():
    with pytest.raises(ValueError):
        octant_of(32, 0)


def test_octant_ink_counts_partition_total():
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(10):
        img = random_raster(rng)
        per_octant = np.zeros(8, dtype=int)
        for r, c in zip(*np.nonzero(img)):
            per_octant[octant_of(int(r), int(c))] += 1
        assert per_octant.sum() == img.sum()


# ---------------------------------------------------------------------------
# Shadow features

def test_shadow_blank_and_full():
    blank = np.zeros((GRID, GRID), dtype=np.uint8)
    np.testing.assert_array_equal(shadow_features(blank), np.zeros(SHADOW_COUNT))
    full = np.ones((GRID, GRID), dtype=np.uint8)
    np.testing.assert_array_equal(shadow_features(full), np.ones(SHADOW_COUNT))


def test_shadow_single_interior_pixel():
    # (0, 30) sits strictly inside octant 1: exactly its three sides
    # catch the projection, one cell each.
    img = np.zeros((GRID, GRID), dtype=np.uint8)
    img[0, 30] = 1
    expected = np.zeros(SHADOW_COUNT)
    expected[3:6] = 1 / 16
    np.testing.assert_array_equal(shadow_features(img), expected)


def test_shadow_single_corner_pixel_casts_into_both_octants():
    # (0, 31) lies exactly on the NE diagonal, so it shadows the sides
    # of octants 0 and 1 alike.
    img = np.zeros((GRID, GRID), dtype=np.uint8)
    img[0, 31] = 1
    expected = np.zeros(SHADOW_COUNT)
    expected[0:6] = 1 / 16
    np.testing.assert_array_equal(shadow_features(img), expected)


def test_shadow_matches_oracle_on_random_rasters():
    rng = np.random.Generator(np.random.PCG64(12))
    for _ in range(10):
        img = random_raster(rng)
        np.testing.assert_array_equal(shadow_features(img), reference.shadow(img))


def test_shadow_monotone_under_added_ink():
    rng = np.random.Generator(np.random.PCG64(13))
    for _ in range(20):
        img = random_raster(rng, density=0.15)
        before = shadow_features(img)
        zeros = np.argwhere(img == 0)
        r, c = zeros[int(rng.integers(len(zeros)))]
        img[r, c] = 1
        after = shadow_features(img)
        assert (after >= before).all()


def test_shadow_consistent_under_half_turn():
    # Rotating the raster 180 degrees relabels octant k as k+4 and
    # preserves each side's parameterization, so the 24 values permute.
    rng = np.random.Generator(np.random.PCG64(14))
    for _ in range(10):
        img = random_raster(rng)
        rotated = img[::-1, ::-1].copy()
        got = shadow_features(rotated)
        want = shadow_features(img)
        for k in range(8):
            j = (k + 4) % 8
            np.testing.assert_array_equal(got[3 * j:3 * j + 3], want[3 * k:3 * k + 3])


# ---------------------------------------------------------------------------
# Centroid features

def test_centroid_blank_is_zero():
    blank = np.zeros((GRID, GRID), dtype=np.uint8)
    np.testing.assert_array_equal(centroid_features(blank), np.zeros(CENTROID_COUNT))


def test_centroid_single_corner_pixel():
    img = np.zeros((GRID, GRID), dtype=np.uint8)
    img[0, 31] = 1
    expected = np.zeros(CENTROID_COUNT)
    expected[2] = 0.0       # octant 1 mean row 0/31
    expected[3] = 1.0       # octant 1 mean col 31/31
    np.testing.assert_array_equal(centroid_features(img), expected)


def test_centroid_matches_oracle_on_random_rasters():
    rng = np.random.Generator(np.random.PCG64(15))
    for _ in range(10):
        img = random_raster(rng)
        np.testing.assert_allclose(centroid_features(img), reference.centroid(img),
                                   rtol=0, atol=1e-12)


def test_centroid_consistent_under_half_turn():
    rng = np.random.Generator(np.random.PCG64(16))
    for _ in range(10):
        img = random_raster(rng, density=0.4)
        rotated = img[::-1, ::-1].copy()
        got = centroid_features(rotated)
        want = centroid_features(img)
        for k in range(8):
            j = (k + 4) % 8
            if want[2 * k] == 0 and want[2 * k + 1] == 0:
                # Possibly-empty octant: its half-turn image is empty too.
                continue
            np.testing.assert_allclose(got[2 * j], 1 - want[2 * k], atol=1e-12)
            np.testing.assert_allclose(got[2 * j + 1], 1 - want[2 * k + 1], atol=1e-12)


# ---------------------------------------------------------------------------
# Longest-run features

WORKED_GRID = np.array([
    [1, 0, 1, 1, 1, 1],
    [1, 0, 0, 1, 1, 0],
    [1, 0, 0, 1, 1, 0],
    [1, 0, 0, 0, 1, 0],
    [0, 1, 0, 0, 1, 0],
    [0, 0, 1, 1, 0, 0],
], dtype=np.uint8)


def test_row_runs_on_worked_grid():
    values = longest_runs_by_line(WORKED_GRID, (0, 5), (0, 5), "row")
    assert values == [4, 2, 2, 1, 1, 2]
    assert sum(values) == 12


def test_runs_extend_beyond_the_window():
    img = np.zeros((GRID, GRID), dtype=np.uint8)
    img[3, 10:30] = 1  # run of 20 crossing the region boundary at col 15
    values = longest_runs_by_line(img, (0, 15), (0, 15), "row")
    assert values[3] == 20
    # A run that never touches the window does not count.
    img2 = np.zeros((GRID, GRID), dtype=np.uint8)
    img2[3, 20:30] = 1
    assert longest_runs_by_line(img2, (0, 15), (0, 15), "row")[3] == 0


def test_longest_run_blank_and_full():
    blank = np.zeros((GRID, GRID), dtype=np.uint8)
    np.testing.assert_array_equal(longest_run_features(blank),
                                  np.zeros(LONGEST_RUN_COUNT))
    full = np.ones((GRID, GRID), dtype=np.uint8)
    got = longest_run_features(full)
    for i in range(0, LONGEST_RUN_COUNT, 4):
        assert got[i] == 0.5 and got[i + 1] == 0.5  # 16 rows x full width 32
    # Diagonal sums: every offset contributes the whole diagonal.
    idx = 0
    for r0 in (0, 8, 16):
        for c0 in (0, 8, 16):
            main = sum(32 - abs(d) for d in range(r0 - c0 - 15, r0 - c0 + 16))
            anti = sum(min(s + 1, 32, 63 - s) for s in range(r0 + c0, r0 + c0 + 31))
            assert got[idx + 2] == main / 1024
            assert got[idx + 3] == anti / 1024
            idx += 4


def test_runs_by_line_matches_oracle_on_small_rasters():
    rng = np.random.Generator(np.random.PCG64(17))
    for _ in range(200):
        img = (rng.random((8, 8)) < rng.uniform(0.2, 0.8)).astype(np.uint8)
        r0 = int(rng.integers(0, 5))
        c0 = int(rng.integers(0, 5))
        window = ((r0, r0 + 3), (c0, c0 + 3))
        for direction in DIRECTIONS:
            got = longest_runs_by_line(img, window[0], window[1], direction)
            want = oracle_runs_by_line(img, window[0], window[1], direction)
            assert got == want, (direction, window, img.tolist())


def test_longest_run_monotone_under_added_ink():
    rng = np.random.Generator(np.random.PCG64(18))
    for _ in range(20):
        img = random_raster(rng, density=0.2)
        before = longest_run_features(img)
        zeros = np.argwhere(img == 0)
        r, c = zeros[int(rng.integers(len(zeros)))]
        img[r, c] = 1
        assert (longest_run_features(img) >= before).all()


def test_runs_by_line_rejects_bad_arguments():
    img = np.zeros((GRID, GRID), dtype=np.uint8)
    with pytest.raises(ValueError):
        longest_runs_by_line(img, (0, 15), (0, 40), "row")
    with pytest.raises(ValueError):
        longest_runs_by_line(img, (0, 15), (0, 15), "spiral")
    with pytest.raises(ValueError, match="2-D"):
        longest_runs_by_line(img[None], (0, 15), (0, 15), "row")
    # Unchecked, any nonzero value was read as ink: all NaN gave [4, 4, 4, 4].
    for value in (np.nan, 0.5, np.inf, 2):
        for bad in (np.full((4, 4), value), np.where(np.eye(4), value, 0)):
            with pytest.raises(ValueError, match="0/1 binary"):
                longest_runs_by_line(bad, (0, 3), (0, 3), "row")


# ---------------------------------------------------------------------------
# Properties against the oracles

# Mostly-uniform rasters that shrink well, and seeded ones of any density.
rasters = st.one_of(
    arrays(np.uint8, (GRID, GRID), elements=st.integers(0, 1)),
    st.builds(lambda seed, density: random_raster(
        np.random.Generator(np.random.PCG64(seed)), density),
        st.integers(0, 2**32 - 1), st.floats(0, 1)))


@st.composite
def rasters_with_window(draw):
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    img = draw(arrays(np.uint8, (h, w), elements=st.integers(0, 1)))
    r0 = draw(st.integers(0, h - 1))
    c0 = draw(st.integers(0, w - 1))
    rows = (r0, draw(st.integers(r0, h - 1)))
    cols = (c0, draw(st.integers(c0, w - 1)))
    return img, rows, cols, draw(st.sampled_from(DIRECTIONS))


@settings(deadline=None)
@given(rasters)
def test_shadow_equals_oracle(img):
    np.testing.assert_array_equal(shadow_features(img), reference.shadow(img))
    vec = extract_features(img)
    assert ((0 <= vec) & (vec <= 1)).all()


@settings(deadline=None)
@given(rasters)
def test_centroid_equals_oracle(img):
    np.testing.assert_array_equal(centroid_features(img), reference.centroid(img))


# Rasters whose ink sits on the edges of the regions' segments.
_EDGE_LINES = np.isin(np.arange(GRID), [7, 8, 15, 16, 23, 24])
_EDGE_ROWS = np.repeat(_EDGE_LINES[:, None], GRID, axis=1).astype(np.uint8)
_CORNERS = np.zeros((GRID, GRID), np.uint8)
_CORNERS[[0, 0, -1, -1], [0, -1, 0, -1]] = 1
_DIAGONALS = (np.eye(GRID) + np.fliplr(np.eye(GRID)) > 0).astype(np.uint8)
_CHECKERBOARD = (np.indices((GRID, GRID)).sum(axis=0) % 2).astype(np.uint8)


@settings(deadline=None, max_examples=50)
@given(rasters)
@example(_EDGE_ROWS)
@example(_EDGE_ROWS.T)
@example(_CORNERS)
@example(_DIAGONALS)
@example(_CHECKERBOARD)
def test_longest_run_equals_oracle(img):
    np.testing.assert_array_equal(longest_run_features(img), reference.longest_runs(img))


# Lines longer than 255 cells, past the range of 8-bit run lengths.
@settings(deadline=None, max_examples=300)
@given(rasters_with_window())
@example((np.ones((1, 300), np.uint8), (0, 0), (0, 299), "row"))
@example((np.ones((1, 300), np.uint8), (0, 0), (120, 130), "diag_anti"))
@example((np.ones((300, 1), np.uint8), (0, 299), (0, 0), "column"))
@example((np.ones((300, 1), np.uint8), (7, 260), (0, 0), "diag_main"))
def test_runs_by_line_equals_oracle(case):
    img, rows, cols, direction = case
    assert (longest_runs_by_line(img, rows, cols, direction)
            == oracle_runs_by_line(img, rows, cols, direction))


# Each family has one body, for stacks: a raster alone is a stack of
# one. Every row of a stack must still equal the oracles on its raster.
@settings(deadline=None, max_examples=50)
@given(st.lists(rasters, max_size=5))
def test_each_row_of_a_stack_equals_the_oracles(imgs):
    stack = np.reshape(imgs, (len(imgs), GRID, GRID)).astype(np.uint8)
    shadows, centroids, runs = (shadow_features(stack), centroid_features(stack),
                                longest_run_features(stack))
    assert shadows.shape == (len(imgs), SHADOW_COUNT)
    assert centroids.shape == (len(imgs), CENTROID_COUNT)
    assert runs.shape == (len(imgs), LONGEST_RUN_COUNT)
    for img, shadow, centroid, run in zip(imgs, shadows, centroids, runs):
        np.testing.assert_array_equal(shadow, reference.shadow(img))
        np.testing.assert_array_equal(centroid, reference.centroid(img))
        np.testing.assert_array_equal(run, reference.longest_runs(img))


def test_toy_corpus_features_are_pinned():
    # Any change to any bit of any feature changes this digest of the
    # 100 x 76 float64 matrix; re-pin it only for a deliberate change.
    data = make_toy_dataset(10, 0.05, 7)
    matrix = data.features
    assert matrix.shape == (100, FEATURE_COUNT)
    assert hashlib.sha256(matrix.tobytes()).hexdigest() == (
        "bfcee255dd569311aaccca131b6d5c578d262bd8246b99f6a53e58f2dd0333b2")


# ---------------------------------------------------------------------------
# Assembled vector and CSV round trip

@settings(deadline=None)
@given(rasters)
def test_extract_concatenates_the_three_families(img):
    vec = extract_features(img)
    assert vec.shape == (FEATURE_COUNT,) and ((0 <= vec) & (vec <= 1)).all()
    np.testing.assert_array_equal(vec, np.concatenate(
        [shadow_features(img), centroid_features(img), longest_run_features(img)]))
    # The same 0/1 raster in any dtype gives the same bits.
    for dtype in (bool, np.int64, np.float64):
        assert extract_features(img.astype(dtype)).tobytes() == vec.tobytes()


def test_extract_rejects_wrong_shape_and_values():
    for family in (extract_features, shadow_features, centroid_features, longest_run_features):
        with pytest.raises(ValueError, match="32x32"):
            family(np.zeros((16, 16), dtype=np.uint8))
        with pytest.raises(ValueError, match="32x32"):
            family(np.zeros((GRID, GRID, 1), dtype=bool))
        # Any value but 0 and 1 is refused: NaN, 0.5 and 1e-9 would all read as ink.
        for value in (2, -1, 0.5, 1e-9, np.nextafter(1, 0), np.nan, np.inf):
            img = np.zeros((GRID, GRID))
            img[5, 7] = value
            with pytest.raises(ValueError, match="0/1 binary"):
                family(img)
            with pytest.raises(ValueError, match="0/1 binary"):
                family(np.full((GRID, GRID), value))


def test_feature_csv_roundtrip_is_exact(tmp_path):
    rng = np.random.Generator(np.random.PCG64(20))
    vectors = [extract_features(random_raster(rng)) for _ in range(5)]
    # Signed zeros, subnormals, tiny values and the largest accepted magnitudes.
    extremes = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-300, -1e-300,
                1e6, -1e6, np.nextafter(1e6, 0), 0.1, 1 / 3]
    vectors.append(np.resize(extremes, FEATURE_COUNT))
    labels = [int(rng.integers(0, 10)) for _ in range(6)]
    path = tmp_path / "features.csv"
    write_features_csv(path, labels, vectors)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(CSV_HEADER)
    got_labels, got_vectors = read_features_csv(path)
    assert got_labels.dtype == np.int64 and got_labels.tolist() == labels
    assert got_vectors.dtype == np.float64 and got_vectors.shape == (6, FEATURE_COUNT)
    assert np.array_equal(got_vectors, vectors)
    assert np.array_equal(np.signbit(got_vectors), np.signbit(vectors))


CSV_EXTREMES = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 2.2250738585072009e-308,
                1e6, -1e6, np.nextafter(1e6, 0), 0.1, 1 / 3]


@settings(deadline=None, max_examples=100)
@given(arrays(np.float64, st.tuples(st.integers(1, 3), st.just(FEATURE_COUNT)),
              elements=st.one_of(st.floats(-1e6, 1e6), st.sampled_from(CSV_EXTREMES),
                                 st.integers(-10**6, 10**6).map(float))),
       arrays(np.int64, 3, elements=st.integers(0, 9)), st.integers(0, 2 * CSV_ROWS + 1))
def test_feature_csv_bytes_are_csv_writers(tmp_path_factory, block, label_block, n):
    # Subnormals, signed zeros and whole numbers included; n rows, tiled
    # from the drawn ones, cross the writer's chunks of CSV_ROWS rows.
    features, labels = np.resize(block, (n, FEATURE_COUNT)), np.resize(label_block, n)
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(CSV_HEADER)
    for label, row in zip(labels.tolist(), features):
        writer.writerow([label, *map(repr, row.tolist())])
    path = tmp_path_factory.mktemp("csv") / "features.csv"
    write_features_csv(path, labels, features)
    assert path.read_bytes() == want.getvalue().encode()


def test_feature_csv_of_no_rows_reads_as_empty_arrays(tmp_path):
    path = tmp_path / "features.csv"
    write_features_csv(path, np.zeros(0, np.int64), np.zeros((0, FEATURE_COUNT)))
    assert path.read_text() == ",".join(CSV_HEADER) + "\n"
    labels, vectors = read_features_csv(path)
    assert labels.shape == (0,) and labels.dtype == np.int64
    assert vectors.shape == (0, FEATURE_COUNT) and vectors.dtype == np.float64


def test_feature_csv_rejects_malformed_input(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n")
    with pytest.raises(ValueError, match="header"):
        read_features_csv(path)
    rows = [",".join(CSV_HEADER), "3," + ",".join(["0.0"] * 75)]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="columns"):
        read_features_csv(path)
    rows = [",".join(CSV_HEADER), "11," + ",".join(["0.0"] * 76)]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="label"):
        read_features_csv(path)
    for value in ["nan", "inf", "-inf"]:
        rows = [",".join(CSV_HEADER), "3," + ",".join(["0.0"] * 75 + [value])]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=f"{path}:2: non-finite"):
            read_features_csv(path)
    # A non-numeric value or label names its file and line too.
    for row, message in [("3," + ",".join(["0.0"] * 75 + ["x"]), "could not convert"),
                         ("x," + ",".join(["0.0"] * 76), "invalid literal")]:
        path.write_text(",".join(CSV_HEADER) + "\n" + row + "\n")
        with pytest.raises(ValueError, match=f"{path}:2: {message}"):
            read_features_csv(path)
    # Finite values outside [0, 1] are still accepted.
    rows = [",".join(CSV_HEADER), "3," + ",".join(["-2.5"] * 75 + ["7.0"])]
    path.write_text("\n".join(rows) + "\n")
    assert read_features_csv(path)[1][0][-1] == 7.0
    # Up to 1e6 in size, that is; larger values would overflow training.
    rows = [",".join(CSV_HEADER), "3," + ",".join(["-1e6"] * 75 + ["1e6"])]
    path.write_text("\n".join(rows) + "\n")
    assert read_features_csv(path)[1][0][-1] == 1e6
    for value in ["1000000.5", "-1e308"]:
        rows = [",".join(CSV_HEADER), "3," + ",".join(["0.0"] * 75 + [value])]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=rf"{path}:2: feature value outside \[-1e6, 1e6\]"):
            read_features_csv(path)


def test_write_features_csv_keeps_the_old_file_on_failure(tmp_path):
    out = tmp_path / "features.csv"
    write_features_csv(out, [3, 4], [np.full(FEATURE_COUNT, 0.5)] * 2)
    before = out.read_bytes()
    with pytest.raises(ValueError):
        write_features_csv(out, [0, 1], [np.zeros(FEATURE_COUNT), np.zeros(5)])
    with pytest.raises(ValueError, match=rf"expected an \(n, {FEATURE_COUNT}\) feature matrix, "
                                         rf"got \(2, {FEATURE_COUNT - 1}\)"):
        write_features_csv(out, [0, 1], np.zeros((2, FEATURE_COUNT - 1)))
    with pytest.raises(ValueError, match="differ in length"):
        write_features_csv(out, [0, 1, 2], [np.zeros(FEATURE_COUNT)] * 2)
    # What the reader would reject is not written: int() would turn 3.7
    # into a silent 3, and a label past 9 or a value past 1e6 would make
    # a file that cannot be read back.
    for labels in ([3.7, 1], [3.0, 1], [True, False], [3, 11], [-1, 3]):
        with pytest.raises(ValueError, match=r"labels must be integers in 0\.\.9"):
            write_features_csv(out, labels, [np.zeros(FEATURE_COUNT)] * 2)
    for value in (np.nan, np.inf, -np.inf, 1000000.5, -1e308):
        rows = np.zeros((2, FEATURE_COUNT))
        rows[1, 40] = value
        with pytest.raises(ValueError, match=r"non-finite or outside \[-1e6, 1e6\]"):
            write_features_csv(out, [0, 1], rows)
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["features.csv"]
