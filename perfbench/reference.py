"""Scalar references for the benchmark's output checks.

Each function is written from the definitions in the package's
docstrings, one pixel or one cell at a time, and shares no code with
the package. They are slow and run outside every timed region.
"""

from __future__ import annotations

import math

import numpy as np

GRID = 32
CELLS = 16


def otsu(gray) -> int:
    """Threshold t in 1..255 maximising n0*n1*(mu0 - mu1)^2 over the
    split {v < t} / {v >= t}; ties go to the smallest t."""
    hist = [0] * 256
    for v in np.asarray(gray).ravel().tolist():
        hist[v] += 1
    total = sum(hist)
    weighted = sum(v * n for v, n in enumerate(hist))
    best_t, best_var = 1, -1.0
    n0 = s0 = 0
    for t in range(1, 256):
        n0 += hist[t - 1]
        s0 += (t - 1) * hist[t - 1]
        n1 = total - n0
        if n0 == 0 or n1 == 0:
            continue
        var = n0 * n1 * (s0 / n0 - (weighted - s0) / n1) ** 2
        if var > best_var:
            best_t, best_var = t, var
    if best_var < 0:
        mean = weighted / total
        return int(mean) + 1 if mean < 255 else 255
    return best_t


def normalize(gray, threshold: int) -> list[list[int]]:
    """Ink below threshold, cropped to its bounding box, resampled to
    32x32 by corner-aligned bilinear interpolation, and thresholded
    again. None when there is no ink.

    Sample positions are i * ((n - 1) / 31), and the blend is written
    in the same order of operations as the definition, so values lying
    exactly on the threshold compare the same way as in any faithful
    implementation.
    """
    rows = np.asarray(gray).tolist()
    ink = [(r, c) for r, row in enumerate(rows) for c, v in enumerate(row) if v < threshold]
    if not ink:
        return None
    r0 = min(r for r, _ in ink)
    r1 = max(r for r, _ in ink)
    c0 = min(c for _, c in ink)
    c1 = max(c for _, c in ink)
    crop = [[float(v) for v in row[c0:c1 + 1]] for row in rows[r0:r1 + 1]]
    h, w = len(crop), len(crop[0])
    sy, sx = (h - 1) / (GRID - 1), (w - 1) / (GRID - 1)
    out = []
    for i in range(GRID):
        y = i * sy
        y0 = math.floor(y)
        y1 = min(y0 + 1, h - 1)
        fy = y - y0
        line = []
        for j in range(GRID):
            x = j * sx
            x0 = math.floor(x)
            x1 = min(x0 + 1, w - 1)
            fx = x - x0
            top = crop[y0][x0] * (1 - fx) + crop[y0][x1] * fx
            bottom = crop[y1][x0] * (1 - fx) + crop[y1][x1] * fx
            line.append(1 if top * (1 - fy) + bottom * fy < threshold else 0)
        out.append(line)
    return out


def _centre(r: int, c: int) -> tuple[float, float]:
    """Pixel centre in x-right/y-up coordinates, origin at the raster centre."""
    return (c + 0.5) - 16.0, 16.0 - (r + 0.5)


def octant(r: int, c: int) -> int:
    """Sector by the angle of the pixel centre; diagonal pixels split by
    distance, the inner half to the even sector."""
    dx, dy = _centre(r, c)
    if abs(dx) == abs(dy):
        even = {(True, True): 0, (False, True): 2, (False, False): 4, (True, False): 6}[
            (dx > 0, dy > 0)]
        return even if abs(dx) < 8 else even + 1
    return int((math.degrees(math.atan2(dy, dx)) % 360.0) // 45.0)


# Per octant, the end of its centre-line half-ray (M) and its corner
# (K), in x-right/y-up coordinates with the origin at the bottom left.
SIDES = {0: ((32, 16), (32, 32)), 1: ((16, 32), (32, 32)),
         2: ((16, 32), (0, 32)), 3: ((0, 16), (0, 32)),
         4: ((0, 16), (0, 0)), 5: ((16, 0), (0, 0)),
         6: ((16, 0), (32, 0)), 7: ((32, 16), (32, 0))}


def shadow(img) -> list[float]:
    """Per octant and side (perimeter M-K, centre line C-M, diagonal
    C-K), the share of 16 cells hit by perpendicular feet of ink pixels.
    A pixel on a diagonal casts into both octants sharing it."""
    marked = [[set() for _ in range(3)] for _ in range(8)]
    for r in range(GRID):
        for c in range(GRID):
            if not img[r][c]:
                continue
            dx, dy = _centre(r, c)
            k = octant(r, c)
            casts = ((k, k + 1) if k % 2 == 0 else (k - 1, k)) if abs(dx) == abs(dy) else (k,)
            px, py = c + 0.5, 32 - (r + 0.5)
            for k in casts:
                m, corner = SIDES[k]
                for s, (a, b) in enumerate(((m, corner), ((16, 16), m), ((16, 16), corner))):
                    vx, vy = b[0] - a[0], b[1] - a[1]
                    t = ((px - a[0]) * vx + (py - a[1]) * vy) / (vx * vx + vy * vy)
                    marked[k][s].add(min(CELLS - 1, max(0, math.floor(CELLS * t))))
    return [len(marked[k][s]) / CELLS for k in range(8) for s in range(3)]


def centroid(img) -> list[float]:
    """Mean row and column of each octant's ink, over 31; 0s when empty."""
    acc = [[0, 0, 0] for _ in range(8)]
    for r in range(GRID):
        for c in range(GRID):
            if img[r][c]:
                a = acc[octant(r, c)]
                a[0] += r
                a[1] += c
                a[2] += 1
    out = []
    for rs, cs, n in acc:
        out += [rs / n / 31, cs / n / 31] if n else [0.0, 0.0]
    return out


def _lines(direction: str) -> list[list[tuple[int, int]]]:
    """Every full-raster scan line of one direction, as cell lists."""
    n = GRID
    if direction == "row":
        return [[(r, c) for c in range(n)] for r in range(n)]
    if direction == "column":
        return [[(r, c) for r in range(n)] for c in range(n)]
    if direction == "diag_main":
        return [[(r, r - d) for r in range(n) if 0 <= r - d < n] for d in range(-(n - 1), n)]
    return [[(r, s - r) for r in range(n) if 0 <= s - r < n] for s in range(2 * n - 1)]


_LINES = {d: _lines(d) for d in ("row", "column", "diag_main", "diag_anti")}


def longest_runs(img) -> list[float]:
    """Per 16x16 window (corners at 0, 8, 16) and direction, the sum over
    lines of the longest whole-line ink run touching the window, /1024."""
    runs = {}
    for direction, lines in _LINES.items():
        found = []
        for cells in lines:
            line_runs, current = [], []
            for r, c in cells:
                if img[r][c]:
                    current.append((r, c))
                elif current:
                    line_runs.append(current)
                    current = []
            if current:
                line_runs.append(current)
            found.append(line_runs)
        runs[direction] = found
    out = []
    for r0 in (0, 8, 16):
        for c0 in (0, 8, 16):
            def inside(cell):
                return r0 <= cell[0] < r0 + 16 and c0 <= cell[1] < c0 + 16
            for direction in ("row", "column", "diag_main", "diag_anti"):
                total = 0
                for line_runs in runs[direction]:
                    total += max((len(run) for run in line_runs if any(map(inside, run))),
                                 default=0)
                out.append(total / 1024)
    return out


def features(img) -> list[float]:
    """The 76 features: 24 shadow, 16 centroid, 36 longest run."""
    return shadow(img) + centroid(img) + longest_runs(img)


def forward(weights, x) -> np.ndarray:
    """Output activations of a sigmoid network; bias is each row's last entry."""
    act = np.asarray(x, dtype=np.float64)
    for w in weights:
        act = 1.0 / (1.0 + np.exp(-(w[:, :-1] @ act + w[:, -1])))
    return act
