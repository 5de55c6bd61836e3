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

All three families are computed from tables fixed at import and
array operations: shadows OR together per-pixel one-hot cell masks,
and centroids are bincounts over the octant map. For longest runs one
builder lays the scan lines end to end as flat pixel indices, each
followed by an off-raster -1, and cuts the cells inside each window
into one contiguous segment per line: 846 (region, direction, line)
segments over the 190 lines of the 32x32 raster. One reduction gathers
the raster into 0/1 lines, whose run edges alternate start, stop,
gives each ink cell its run's length and takes each segment's maximum
with maximum.reduceat; add.reduceat then sums the regions.
longest_runs_by_line runs the same two functions on its one window.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from ._atomic import atomic_open
from .imgproc import GRID

FEATURE_COUNT = 76
SHADOW_COUNT = 24
CENTROID_COUNT = 16
LONGEST_RUN_COUNT = 36

CSV_HEADER = ["label"] + [f"f{i}" for i in range(FEATURE_COUNT)]

DIRECTIONS = ("row", "column", "diag_main", "diag_anti")

_CENTER = 16.0
_CELLS = 16
_HALF = GRID // 2


def _build_octant_tables() -> tuple[np.ndarray, np.ndarray]:
    """The (32, 32) octant map and the (1024, 24) shadow table.

    The shadow table holds, per pixel and octant side, a 16-bit mask
    with the bit of the cell holding the pixel's foot on that side set,
    or 0 where the pixel casts no shadow into that octant. Sides run
    octant-major in the order perimeter half-edge (from the center-line
    end toward the corner), center-line segment and diagonal segment,
    the last two from the center outward.
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
    return octant.reshape(GRID, GRID).astype(np.int8), shadow


_OCTANT_MAP, _SHADOW_TABLE = _build_octant_tables()


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
    the raster), the line positions of the cells inside each window,
    window-major, the segment starts among them and the starts of each
    (window, direction) group of segments.
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
    seg = np.flatnonzero(np.diff(index, prepend=-2) != 1)
    group = np.flatnonzero(np.diff(4 * window[seg] + direction[cells[seg]], prepend=-1))
    return flat, cells, seg, group


def _line_maxima(ink: np.ndarray, flat: np.ndarray, cells: np.ndarray,
                 seg_starts: np.ndarray) -> np.ndarray:
    """Longest ink run touching each segment, runs traced along whole lines."""
    line = np.append(ink.ravel(), False)[flat]
    # Lines end blank, so no run crosses a line end and edges alternate start, stop.
    edges = np.flatnonzero(np.diff(line, prepend=False))
    length = edges[1::2] - edges[::2]
    runs = np.zeros(line.shape, dtype=flat.dtype)
    runs[line] = np.repeat(length, length)
    return np.maximum.reduceat(runs[cells], seg_starts)


_LINE_FLAT, _SEGMENT_CELLS, _SEGMENT_STARTS, _GROUP_STARTS = _line_segments(
    GRID, GRID, [((r, r + _HALF - 1), (c, c + _HALF - 1)) for r in (0, 8, 16) for c in (0, 8, 16)])


def _check_canonical(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img)
    if img.shape != (GRID, GRID):
        raise ValueError(f"expected a {GRID}x{GRID} raster, got shape {img.shape}")
    if img.min(initial=0) < 0 or img.max(initial=0) > 1:
        raise ValueError("expected a 0/1 binary raster")
    return img.astype(bool)


def shadow_features(img: np.ndarray) -> np.ndarray:
    """24 projection-coverage values, octant-major, sides in the order
    (perimeter, center line, diagonal)."""
    ink = _check_canonical(img).ravel()
    marked = np.bitwise_or.reduce(_SHADOW_TABLE[ink], axis=0)
    bits = np.unpackbits(marked.view(np.uint8)).reshape(SHADOW_COUNT, _CELLS)
    return bits.sum(axis=1) / _CELLS


def centroid_features(img: np.ndarray) -> np.ndarray:
    """16 values: (mean row, mean col) / 31 per octant, 0s when empty."""
    pixels = np.flatnonzero(_check_canonical(img))
    octs = _OCTANT_MAP.ravel()[pixels]
    rows, cols = np.divmod(pixels, GRID)
    sums = np.stack([np.bincount(octs, rows, 8), np.bincount(octs, cols, 8)], axis=1)
    counts = np.maximum(np.bincount(octs, minlength=8), 1)
    return (sums / counts[:, None]).ravel() / (GRID - 1)


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
    flat, cells, seg, group = _line_segments(h, w, [(rows, cols)])
    best = _line_maxima(img != 0, flat, cells, seg)
    return np.split(best, group[1:])[DIRECTIONS.index(direction)].tolist()


def longest_run_features(img: np.ndarray) -> np.ndarray:
    """36 normalized run sums: 9 regions x 4 directions.

    Regions are the half-size windows anchored at rows/cols {0, 8, 16}
    in row-major order; directions follow DIRECTIONS. Each sum is
    divided by 1024.
    """
    best = _line_maxima(_check_canonical(img), _LINE_FLAT, _SEGMENT_CELLS, _SEGMENT_STARTS)
    return np.add.reduceat(best, _GROUP_STARTS) / (GRID * GRID)


def extract_features(img: np.ndarray) -> np.ndarray:
    """Full 76-element vector: shadows, centroids, longest runs."""
    return np.concatenate([
        shadow_features(img),
        centroid_features(img),
        longest_run_features(img),
    ])


def write_features_csv(path: str | Path, labels, vectors) -> None:
    """Write labeled vectors as CSV with header label,f0..f75."""
    labels = list(labels)
    vectors = list(vectors)
    if len(labels) != len(vectors):
        raise ValueError("labels and vectors differ in length")
    with atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for label, vec in zip(labels, vectors):
            vec = np.asarray(vec, dtype=np.float64)
            if vec.shape != (FEATURE_COUNT,):
                raise ValueError(f"expected {FEATURE_COUNT} features, got {vec.shape}")
            writer.writerow([int(label), *map(repr, vec.tolist())])


def read_features_csv(path: str | Path, with_lines: bool = False) -> tuple:
    """Read a feature CSV back into (labels, vectors); any bad field is a ValueError.

    with_lines puts first the physical line on which each record starts.
    """
    lines, labels, vectors = [], [], []
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
                    label, vector = int(rec[0]), np.array([float(v) for v in rec[1:]])
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                if not 0 <= label <= 9:
                    raise ValueError(f"{path}:{lineno}: label {label} outside 0..9")
                if not np.isfinite(vector).all():
                    raise ValueError(f"{path}:{lineno}: non-finite feature value")
                # Larger values would overflow the sums of a training step.
                if (np.abs(vector) > 1e6).any():
                    raise ValueError(f"{path}:{lineno}: feature value outside [-1e6, 1e6]")
                lines.append(lineno)
                labels.append(label)
                vectors.append(vector)
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    return (lines, labels, vectors) if with_lines else (labels, vectors)
