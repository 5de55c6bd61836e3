import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from digitrec.evaluation import make_toy_dataset
from digitrec.features import (CENTROID_COUNT, CSV_HEADER, DIRECTIONS,
                               FEATURE_COUNT, LONGEST_RUN_COUNT, SHADOW_COUNT,
                               centroid_features, extract_features,
                               longest_run_features, longest_runs_by_line,
                               octant_of, read_features_csv, shadow_features,
                               write_features_csv)

GRID = 32

# ---------------------------------------------------------------------------
# Independent geometry oracles

def oracle_octant(r, c):
    """Angle-sector classification with the diagonal split spelled out."""
    dx = (c + 0.5) - 16.0
    dy = 16.0 - (r + 0.5)
    if abs(dx) == abs(dy):
        quadrant = {(1, 1): 0, (-1, 1): 2, (-1, -1): 4, (1, -1): 6}[
            (int(math.copysign(1, dx)), int(math.copysign(1, dy)))]
        return quadrant if abs(dx) < 8 else quadrant + 1
    angle = math.degrees(math.atan2(dy, dx)) % 360.0
    return int(angle // 45.0)


# Octant triangle vertices in x-right/y-up coordinates: the center-line
# endpoint M and the corner K, written out rather than derived.
ORACLE_SIDES = {
    0: ((32, 16), (32, 32)),
    1: ((16, 32), (32, 32)),
    2: ((16, 32), (0, 32)),
    3: ((0, 16), (0, 32)),
    4: ((0, 16), (0, 0)),
    5: ((16, 0), (0, 0)),
    6: ((16, 0), (32, 0)),
    7: ((32, 16), (32, 0)),
}


def oracle_shadow(img):
    marked = {(k, s): set() for k in range(8) for s in range(3)}
    for r in range(GRID):
        for c in range(GRID):
            if not img[r, c]:
                continue
            px, py = c + 0.5, 31.5 - r
            dx, dy = px - 16.0, py - 16.0
            if abs(dx) == abs(dy):
                base = oracle_octant(r, c)
                octants = (base - 1, base) if base % 2 else (base, base + 1)
            else:
                octants = (oracle_octant(r, c),)
            for k in octants:
                m, corner = ORACLE_SIDES[k]
                cen = (16.0, 16.0)
                for s, (a, b) in enumerate([(m, corner), (cen, m), (cen, corner)]):
                    vx, vy = b[0] - a[0], b[1] - a[1]
                    t = ((px - a[0]) * vx + (py - a[1]) * vy) / (vx * vx + vy * vy)
                    marked[(k, s)].add(min(15, max(0, math.floor(16 * t))))
    return np.array([len(marked[(k, s)]) / 16 for k in range(8) for s in range(3)])


def oracle_centroid(img):
    sums = {k: [0, 0, 0] for k in range(8)}
    for r in range(GRID):
        for c in range(GRID):
            if img[r, c]:
                k = oracle_octant(r, c)
                sums[k][0] += r
                sums[k][1] += c
                sums[k][2] += 1
    out = []
    for k in range(8):
        rs, cs, n = sums[k]
        out.extend([rs / n / 31, cs / n / 31] if n else [0.0, 0.0])
    return np.array(out)


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


REGION_CORNERS = [(r, c) for r in (0, 8, 16) for c in (0, 8, 16)]


def oracle_longest_run(img):
    return np.array([sum(oracle_runs_by_line(img, (r0, r0 + 15), (c0, c0 + 15), d)) / 1024
                     for r0, c0 in REGION_CORNERS for d in DIRECTIONS])


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
            assert k == oracle_octant(r, c), (r, c)
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
        np.testing.assert_array_equal(shadow_features(img), oracle_shadow(img))


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
        np.testing.assert_allclose(centroid_features(img), oracle_centroid(img),
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
    np.testing.assert_array_equal(shadow_features(img), oracle_shadow(img))
    vec = extract_features(img)
    assert ((0 <= vec) & (vec <= 1)).all()


@settings(deadline=None)
@given(rasters)
def test_centroid_equals_oracle(img):
    np.testing.assert_array_equal(centroid_features(img), oracle_centroid(img))


@settings(deadline=None, max_examples=50)
@given(rasters)
def test_longest_run_equals_oracle(img):
    np.testing.assert_array_equal(longest_run_features(img), oracle_longest_run(img))


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


def test_toy_corpus_features_are_pinned():
    # Any change to any bit of any feature changes this digest of the
    # 100 x 76 float64 matrix; re-pin it only for a deliberate change.
    data = make_toy_dataset(10, 0.05, 7)
    matrix = np.stack([s.features for s in data.samples])
    assert matrix.shape == (100, FEATURE_COUNT)
    assert hashlib.sha256(matrix.tobytes()).hexdigest() == (
        "bfcee255dd569311aaccca131b6d5c578d262bd8246b99f6a53e58f2dd0333b2")


# ---------------------------------------------------------------------------
# Assembled vector and CSV round trip

def test_extract_concatenates_the_three_families():
    rng = np.random.Generator(np.random.PCG64(19))
    img = random_raster(rng)
    vec = extract_features(img)
    assert vec.shape == (FEATURE_COUNT,)
    np.testing.assert_array_equal(vec[:24], shadow_features(img))
    np.testing.assert_array_equal(vec[24:40], centroid_features(img))
    np.testing.assert_array_equal(vec[40:], longest_run_features(img))
    assert (vec >= 0).all() and (vec <= 1).all()


def test_extract_rejects_wrong_shape_and_values():
    with pytest.raises(ValueError):
        extract_features(np.zeros((16, 16), dtype=np.uint8))
    with pytest.raises(ValueError):
        extract_features(np.full((GRID, GRID), 2, dtype=np.uint8))


def test_feature_csv_roundtrip_is_exact(tmp_path):
    rng = np.random.Generator(np.random.PCG64(20))
    vectors = [extract_features(random_raster(rng)) for _ in range(5)]
    labels = [int(rng.integers(0, 10)) for _ in range(5)]
    path = tmp_path / "features.csv"
    write_features_csv(path, labels, vectors)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(CSV_HEADER)
    got_labels, got_vectors = read_features_csv(path)
    assert got_labels == labels
    for got, want in zip(got_vectors, vectors):
        np.testing.assert_array_equal(got, want)


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
    # Finite values outside [0, 1] are still accepted.
    rows = [",".join(CSV_HEADER), "3," + ",".join(["-2.5"] * 75 + ["7.0"])]
    path.write_text("\n".join(rows) + "\n")
    assert read_features_csv(path)[1][0][-1] == 7.0


def test_write_features_csv_keeps_the_old_file_on_failure(tmp_path):
    out = tmp_path / "features.csv"
    write_features_csv(out, [3, 4], [np.full(FEATURE_COUNT, 0.5)] * 2)
    before = out.read_bytes()
    with pytest.raises(ValueError):
        write_features_csv(out, [0, 1], [np.zeros(FEATURE_COUNT), np.zeros(5)])
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["features.csv"]
