"""The 76-element feature vector for canonical 32x32 binary rasters.

Layout: 24 shadow features, then 16 octant centroid features, then 36
longest-run features, every value scaled into [0, 1].

The square is cut into eight triangular sectors ("octants") by its
horizontal and vertical center lines and its two main diagonals.
Octants are numbered 0..7 counter-clockwise starting at the triangle
between the east half of the horizontal center line and the NE
diagonal. Pixel (row, col) is classified by its center: with

    dx = (col + 0.5) - 16      (positive to the right)
    dy = 16 - (row + 0.5)      (positive upward)

the signs of dx and dy pick the quadrant and comparing |dx| with |dy|
picks the triangle within it. Pixel centers sit exactly on a diagonal
whenever |dx| == |dy| (the center lines are never hit, since dx and dy
are odd multiples of 0.5). Those boundary pixels are split between
the two adjacent sectors by distance from the center: the inner half
(|dx| < 8) joins the even-numbered sector, the outer half the odd one.
The split keeps all eight sector populations equal at 128 pixels.

Shadow features project ink onto the three sides of each octant
triangle: its half-edge of the square perimeter, its center-line
segment, and its diagonal segment. A side is divided into 16 equal
cells; a pixel marks the cell holding the foot of the perpendicular
from its center onto that side, and the feature is the marked-cell
count over 16. For projection only, a pixel centered exactly on a
diagonal casts onto both octants that share the diagonal, so blanket
ink shadows every side completely.

Centroid features are the mean (row, col) of each octant's ink under
the exclusive partition, each coordinate divided by 31; an octant
without ink contributes (0, 0).

Longest-run features cover nine half-size (16x16) regions whose
corners lie at rows and columns {0, 8, 16}. For each region and each
of four scan directions (rows, columns, NW-SE diagonals, NE-SW
diagonals) every scan line through the region contributes the length
of the longest run of consecutive ink that touches the region, where
runs are traced across the full image and keep any length they gain
outside the region. The per-line maxima are summed over the region's
lines and the sum is divided by 1024.

Each family, and extract_features, takes a 32x32 raster or an
(n, 32, 32) stack of them, such as the rasters of one chunk of extract's
scans, and returns one row per raster in a few array passes over the
whole stack; a raster alone is a stack of one and gets its row back.
All three families are array operations on the (n, 1024) ink matrix and
tables fixed at import. Shadows OR, per raster and octant, one 64-bit
word per member pixel that holds its cells on the octant's three sides,
and count the marked cells. Centroids are one product of the ink with
each pixel's 1, row and col in its octant's columns; every sum is an
integer below 2**53, so they are exact on any BLAS kernel. Longest runs
gather each raster into its 190 scan lines, laid end to end with an
off-raster cell after each, so no run reaches into the next line or
raster, give each ink cell its run's length, take the maximum of each
of the 846 (region, direction, line) segments through a table of their
cells, and sum the regions with add.reduceat. No run of the 32 grid is
longer than 32, so 8 bits hold its length; longest_runs_by_line does
the same on its one window of any size, in intp.
"""

from __future__ import annotations

import csv
import math
from array import array
from pathlib import Path

import numpy as np

from ._atomic import atomic_open
from .imgproc import GRID

FEATURE_COUNT = 76
SHADOW_COUNT = 24
CENTROID_COUNT = 16
LONGEST_RUN_COUNT = 36
# Larger feature values or model weights would overflow the sums of a training step.
VALUE_LIMIT = 1e6

CSV_HEADER = ["label"] + [f"f{i}" for i in range(FEATURE_COUNT)]
# Rows joined into one write: a few hundred kilobytes of text at most.
CSV_ROWS = 256

DIRECTIONS = ("row", "column", "diag_main", "diag_anti")

_CENTER = 16.0
_CELLS = 16
_HALF = GRID // 2


def _build_octant_tables() -> tuple[np.ndarray, tuple, np.ndarray]:
    """The (32, 32) octant map, the shadow table and the centroid table.

    The shadow table holds, per pixel and octant side, a 16-bit mask
    with the bit of the cell holding the pixel's foot on that side set,
    or 0 where the pixel casts no shadow into that octant. Sides run
    octant-major in the order perimeter half-edge (from the center-line
    end toward the corner), center-line segment and diagonal segment,
    the last two from the center outward. It is returned as one 64-bit
    word per octant member pixel with the octant's three masks,
    octant-major (1,088 words: diagonal pixels belong to two octants),
    with each word's pixel and each octant's first word. The (1024, 24)
    centroid table holds each pixel's 1, row and col in columns
    3k..3k + 2 of its octant k.
    """
    row, col = np.divmod(np.arange(GRID * GRID), GRID)
    dx = (col + 0.5) - _CENTER
    dy = _CENTER - (row + 0.5)
    on_diag = np.abs(dx) == np.abs(dy)
    # Even sector of each quadrant; off the diagonals its odd neighbour
    # lies nearer the vertical axis in the NE and SW quadrants and nearer
    # the horizontal axis in the NW and SE ones.
    pair = np.where(dy > 0, np.where(dx > 0, 0, 2), np.where(dx < 0, 4, 6))
    octant = pair + np.where(on_diag, np.abs(dx) >= _HALF / 2,
                             (np.abs(dx) > np.abs(dy)) != (dx * dy > 0))

    # Unit direction of each boundary ray, indexed by angle/45. Octant k
    # lies between its center-line ray and its diagonal ray k | 1; side
    # endpoints are taken relative to the center, like dx and dy.
    ray = np.array([(1, 0), (1, 1), (0, 1), (-1, 1),
                    (-1, 0), (-1, -1), (0, -1), (1, -1)])
    k = np.arange(8)
    mid, corner = _HALF * ray[(k + 1) // 2 * 2 % 8], _HALF * ray[k | 1]
    a = np.stack([mid, 0 * mid, 0 * mid], axis=1).reshape(SHADOW_COUNT, 2)
    b = np.stack([corner, mid, corner], axis=1).reshape(SHADOW_COUNT, 2)
    # A pixel centered on a diagonal casts into both sectors of its pair.
    members = (octant[:, None] == k) | (on_diag[:, None] & (pair[:, None] == k & ~1))
    pix, side = np.nonzero(np.repeat(members, 3, axis=1))
    (ax, ay), (vx, vy) = a[side].T, (b - a)[side].T
    t = ((dx[pix] - ax) * vx + (dy[pix] - ay) * vy) / (vx * vx + vy * vy)
    shadow = np.zeros((GRID * GRID, SHADOW_COUNT), dtype=np.uint16)
    shadow[pix, side] = 1 << np.clip(np.floor(_CELLS * t), 0, _CELLS - 1).astype(int)
    by_octant = np.pad(shadow.reshape(-1, 8, 3), ((0, 0), (0, 0), (0, 1))).view(np.uint64)[..., 0]
    member_octant, member_pixel = np.nonzero(members.T)
    stacked = (member_pixel, by_octant[member_pixel, member_octant],
               np.searchsorted(member_octant, k))
    centroid = (octant[:, None] == k)[..., None] * np.c_[np.ones(GRID * GRID), row, col][:, None]
    return (octant.reshape(GRID, GRID).astype(np.int8), stacked,
            centroid.reshape(GRID * GRID, 3 * 8))


_OCTANT_MAP, (_MEMBER_PIXELS, _MEMBER_WORDS, _OCTANT_STARTS), _CENTROID_TABLE = _build_octant_tables()


def octant_of(row: int, col: int) -> int:
    """Sector index 0..7 of a pixel in the exclusive partition."""
    if not (0 <= row < GRID and 0 <= col < GRID):
        raise ValueError(f"pixel ({row}, {col}) outside the {GRID}x{GRID} raster")
    return int(_OCTANT_MAP[row, col])


def _line_segments(h: int, w: int, windows) -> tuple[np.ndarray, ...]:
    """Scan lines of an h x w raster and their segments inside each window.

    The h rows, w columns and h + w - 1 lines of each diagonal direction
    lie end to end in DIRECTIONS order, in row, column, row - col and
    row + col order (diagonals walked by row), each followed by one
    off-raster cell. windows holds ((r0, r1), (c0, c1)) pairs, ends
    inclusive. Returns the flat raster index of each line cell (-1 off
    the raster); a table of the line positions of each segment's cells,
    one column per segment, window-major, padded with the off-raster last
    line cell; and the starts of each (window, direction) group.
    """
    line, pos = np.ogrid[:h + w - 1, :max(h, w) + 1]
    row = np.stack(np.broadcast_arrays(line, pos, pos, pos))
    col = np.stack(np.broadcast_arrays(pos, line, pos + w - 1 - line, line - pos))
    on = (row < h) & (col >= 0) & (col < w)
    keep = on | np.pad(on[..., :-1], ((0, 0), (0, 0), (1, 0)))  # a line's cells, then one more
    direction = np.broadcast_to(np.arange(4)[:, None, None], on.shape)[keep]
    row, col, flat = row[keep], col[keep], np.where(on, row * w + col, -1)[keep]
    (r0, r1), (c0, c1) = np.array(windows).transpose(1, 2, 0)[..., None]
    inside = (r0 <= row) & (row <= r1) & (c0 <= col) & (col <= c1)
    # Line ends lie off the raster, so consecutive inside cells share a line.
    index = np.flatnonzero(inside)
    window, cells = np.divmod(index, flat.size)
    starts = np.diff(index, prepend=-2) != 1
    seg, segment = np.flatnonzero(starts), np.cumsum(starts) - 1
    group = np.flatnonzero(np.diff(4 * window[seg] + direction[cells[seg]], prepend=-1))
    # One segment per column: a maximum down axis 0 ran 2.6x as fast as along axis 1.
    rank = np.arange(index.size) - seg[segment]
    table = np.full((rank.max() + 1, seg.size), flat.size - 1)
    table[rank, segment] = cells
    return flat, table, group


def _line_maxima(rows: np.ndarray, flat: np.ndarray, table: np.ndarray, dtype) -> np.ndarray:
    """Longest ink run touching each segment, runs traced along whole lines,
    of each of the (n, h * w) bool rows of ink: (segments, n), in dtype."""
    # Each raster's lines end to end, raster after raster: every line
    # ends blank, so no run reaches into the next line or raster.
    lines = np.concatenate([rows, np.zeros((len(rows), 1), dtype=bool)], axis=1).take(flat, axis=1)
    line = lines.ravel()
    # Runs of ink or blank start at cell 0 and at each change.
    starts = np.flatnonzero(line != np.append(~line[:1], line[:-1]))
    length = np.diff(starts, append=line.size)
    runs = np.repeat((length * line[starts]).astype(dtype, copy=False), length).reshape(lines.shape)
    return np.ascontiguousarray(runs.T).take(table, axis=0).max(axis=0)


_LINE_FLAT, _SEGMENT_TABLE, _GROUP_STARTS = _line_segments(
    GRID, GRID, [((r, r + _HALF - 1), (c, c + _HALF - 1)) for r in (0, 8, 16) for c in (0, 8, 16)])


def _binary(img: np.ndarray) -> np.ndarray:
    """The raster as bool, or ValueError unless every value is 0 or 1 (NaN is not)."""
    ink = img.astype(bool, copy=False)
    if ink is not img and not (ink == img).all():  # a bool raster is 0/1 by its type
        raise ValueError("expected a 0/1 binary raster")
    return ink


def _check_canonical(img: np.ndarray) -> np.ndarray:
    """A 32x32 raster or an (n, 32, 32) stack of them, as bool."""
    img = np.asarray(img)
    if img.shape != (GRID, GRID) and (img.ndim != 3 or img.shape[1:] != (GRID, GRID)):
        raise ValueError(f"expected a {GRID}x{GRID} raster or a stack of them, "
                         f"got shape {img.shape}")
    return _binary(img)


def shadow_features(img: np.ndarray) -> np.ndarray:
    """24 projection-coverage values, octant-major, sides in the order
    (perimeter, center line, diagonal); (n, 24) for a stack."""
    ink = _check_canonical(img)
    members = ink.reshape(-1, GRID * GRID).take(_MEMBER_PIXELS, axis=1)
    words = np.bitwise_or.reduceat(_MEMBER_WORDS * members, _OCTANT_STARTS, axis=1)
    masks = words.view(np.uint16).reshape(-1, 8, 4)[..., :3]
    return np.bitwise_count(masks).reshape(ink.shape[:-2] + (SHADOW_COUNT,)) / _CELLS


def centroid_features(img: np.ndarray) -> np.ndarray:
    """16 values: (mean row, mean col) / 31 per octant, 0s when empty;
    (n, 16) for a stack."""
    ink = _check_canonical(img)
    sums = (ink.reshape(-1, GRID * GRID).astype(np.float64) @ _CENTROID_TABLE).reshape(-1, 8, 3)
    means = sums[..., 1:] / np.maximum(sums[..., :1], 1)
    return means.reshape(ink.shape[:-2] + (CENTROID_COUNT,)) / (GRID - 1)


def longest_runs_by_line(img: np.ndarray, rows: tuple[int, int],
                         cols: tuple[int, int], direction: str) -> list[int]:
    """Per scan line, the longest full-image run touching the window.

    The window is rows[0]..rows[1] by cols[0]..cols[1], both ends
    inclusive. Runs extend across the whole image; only the touch test
    uses the window. Lines are ordered by row (or by column for the
    "column" direction); diagonal directions visit one line per offset
    that crosses the window.
    """
    img = np.asarray(img)
    if img.ndim != 2:
        raise ValueError(f"expected a 2-D raster, got shape {img.shape}")
    h, w = img.shape
    (r0, r1), (c0, c1) = rows, cols
    if not (0 <= r0 <= r1 < h and 0 <= c0 <= c1 < w):
        raise ValueError(f"window {rows}x{cols} outside a {h}x{w} raster")
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    flat, table, group = _line_segments(h, w, [(rows, cols)])
    best = _line_maxima(_binary(img).reshape(1, h * w), flat, table, np.intp)[:, 0]
    return np.split(best, group[1:])[DIRECTIONS.index(direction)].tolist()


def longest_run_features(img: np.ndarray) -> np.ndarray:
    """36 normalized run sums: 9 regions x 4 directions; (n, 36) for a stack.

    Regions are the half-size windows anchored at rows/cols {0, 8, 16}
    in row-major order; directions follow DIRECTIONS. Each sum is
    divided by 1024.
    """
    ink = _check_canonical(img)
    # No run of the 32 grid is longer than 32, so 8 bits hold its length.
    best = _line_maxima(ink.reshape(-1, GRID * GRID), _LINE_FLAT, _SEGMENT_TABLE, np.uint8)
    sums = np.add.reduceat(best, _GROUP_STARTS, dtype=np.intp).T
    return sums.reshape(ink.shape[:-2] + (LONGEST_RUN_COUNT,)) / (GRID * GRID)


def extract_features(img: np.ndarray) -> np.ndarray:
    """Full 76-element vector: shadows, centroids, longest runs. An
    (n, 32, 32) stack of rasters gives an (n, 76) matrix, row i that of
    raster i, bit for bit."""
    ink = _check_canonical(img)  # bool: each family's own check then tests the shape only
    return np.concatenate([shadow_features(ink), centroid_features(ink),
                           longest_run_features(ink)], axis=-1)


def digit_labels(labels, count: int) -> np.ndarray:
    """labels as an (count,) int64 vector of digits 0..9, or ValueError."""
    labels = np.asarray(labels)
    if labels.shape != (count,):
        raise ValueError(f"labels of shape {labels.shape} and {count} feature rows differ in length")
    if labels.size and (labels.dtype.kind not in "iu" or not 0 <= labels.min() <= labels.max() <= 9):
        raise ValueError("labels must be integers in 0..9")
    return labels.astype(np.int64)


def write_features_csv(path: str | Path, labels, features) -> None:
    """Write an (n,) label vector and an (n, 76) feature matrix as CSV with
    header label,f0..f75; values the reader would reject are a ValueError."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != FEATURE_COUNT:
        raise ValueError(f"expected an (n, {FEATURE_COUNT}) feature matrix, got {features.shape}")
    labels = digit_labels(labels, len(features))
    if not (np.abs(features) <= VALUE_LIMIT).all():
        raise ValueError("feature value non-finite or outside [-1e6, 1e6]")
    # csv.writer's bytes: no name, int or float repr needs quoting, and lines end \r\n.
    labels = labels.tolist()
    with atomic_open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        for first in range(0, len(labels), CSV_ROWS):
            rows = zip(labels[first:first + CSV_ROWS], features[first:first + CSV_ROWS].tolist())
            fh.write("".join([",".join(map(repr, (label, *row))) + "\r\n" for label, row in rows]))


def read_features_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a feature CSV into an (n,) int64 label vector and an (n, 76)
    float64 matrix; any bad field is a ValueError naming the path and the
    physical line on which its record starts.
    """
    labels, values = array("q"), array("d")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != CSV_HEADER:
                raise ValueError(f"{path}: bad or missing feature CSV header")
            end = reader.line_num  # last physical line read so far
            for rec in reader:
                lineno, end = end + 1, reader.line_num
                if len(rec) != FEATURE_COUNT + 1:
                    raise ValueError(f"{path}:{lineno}: expected {FEATURE_COUNT + 1} columns")
                try:
                    label, row = int(rec[0]), list(map(float, rec[1:]))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                if not 0 <= label <= 9:
                    raise ValueError(f"{path}:{lineno}: label {label} outside 0..9")
                if not all(-VALUE_LIMIT <= v <= VALUE_LIMIT for v in row):
                    if not all(map(math.isfinite, row)):
                        raise ValueError(f"{path}:{lineno}: non-finite feature value")
                    raise ValueError(f"{path}:{lineno}: feature value outside [-1e6, 1e6]")
                labels.append(label)
                values.fromlist(row)
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    return np.frombuffer(labels, np.int64), np.frombuffer(values).reshape(-1, FEATURE_COUNT)
