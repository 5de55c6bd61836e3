"""Seeded input generators: grayscale digit scans and feature rows.

Everything here is written from scratch and shares no code with the
package, so the benchmark's inputs do not depend on the code they
measure. The same seed always gives the same bytes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FEATURES = 76
CLASSES = 10

# Scan sizes: the short side runs through this ladder so every corpus
# has the same spread of sizes; the seed only decides which scan gets
# which size.
SIZE_LADDER = tuple(range(30, 131, 10))
INK_LEVELS = (0, 90)        # darkest and lightest ink
PAPER_LEVELS = (170, 250)   # darkest and lightest background
NOISE_AMPLITUDE = 20        # uniform noise in [-a, a] on every pixel


def _arc(cx, cy, rx, ry, start, stop, n=12):
    """Points on an ellipse arc, angles in degrees, y pointing down."""
    return [(cx + rx * math.cos(math.radians(a)), cy + ry * math.sin(math.radians(a)))
            for a in np.linspace(start, stop, n)]


# Ten stroke glyphs in a unit box (x right, y down), one list of
# polylines per class.
GLYPHS = {
    0: [_arc(0.5, 0.5, 0.4, 0.47, 0, 360, 20)],
    1: [[(0.25, 0.25), (0.55, 0.0), (0.55, 1.0)], [(0.3, 1.0), (0.8, 1.0)]],
    2: [_arc(0.5, 0.28, 0.38, 0.28, 180, 380, 10) + [(0.08, 1.0), (0.95, 1.0)]],
    3: [_arc(0.48, 0.25, 0.38, 0.25, 200, 450, 10), _arc(0.48, 0.73, 0.42, 0.27, 270, 520, 10)],
    4: [[(0.72, 1.0), (0.72, 0.0), (0.05, 0.68), (0.95, 0.68)]],
    5: [[(0.9, 0.0), (0.18, 0.0), (0.12, 0.45)], _arc(0.5, 0.68, 0.42, 0.32, 220, 500, 12)],
    6: [[(0.8, 0.02), (0.35, 0.3), (0.1, 0.7)], _arc(0.5, 0.7, 0.4, 0.3, 0, 360, 16)],
    7: [[(0.05, 0.0), (0.95, 0.0), (0.35, 1.0)], [(0.35, 0.52), (0.8, 0.52)]],
    8: [_arc(0.5, 0.25, 0.3, 0.24, 0, 360, 14), _arc(0.5, 0.72, 0.4, 0.28, 0, 360, 16)],
    9: [_arc(0.5, 0.3, 0.4, 0.3, 0, 360, 16), [(0.9, 0.3), (0.62, 1.0)]],
}


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """An independent PCG64 stream per (seed, purpose)."""
    key = [seed] + [ord(ch) for ch in stream]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def render_scan(rng: np.random.Generator, label: int, short_side: int) -> np.ndarray:
    """One dark-on-light scan of a glyph with jittered strokes.

    The canvas is short_side pixels wide and up to 1.4 times as tall;
    stroke width, ink and paper levels and noise come from rng.
    """
    w = short_side
    h = int(round(short_side * rng.uniform(1.0, 1.4)))
    margin = rng.uniform(0.08, 0.2, size=4)  # top, bottom, left, right
    top, bottom = margin[0] * h, (1 - margin[1]) * h
    left, right = margin[2] * w, (1 - margin[3]) * w
    half_width = rng.uniform(0.045, 0.09) * (right - left) + 0.6
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64) + 0.5
    dist = np.full((h, w), np.inf)
    for line in GLYPHS[label]:
        pts = np.array(line) + rng.normal(0.0, 0.035, size=(len(line), 2))
        xs = left + pts[:, 0] * (right - left)
        ys = top + pts[:, 1] * (bottom - top)
        for x0, y0, x1, y1 in zip(xs, ys, xs[1:], ys[1:]):
            vx, vy = x1 - x0, y1 - y0
            t = ((xx - x0) * vx + (yy - y0) * vy) / max(vx * vx + vy * vy, 1e-12)
            t = np.clip(t, 0.0, 1.0)
            dist = np.minimum(dist, np.hypot(xx - (x0 + t * vx), yy - (y0 + t * vy)))
    coverage = np.clip(half_width + 0.5 - dist, 0.0, 1.0)
    ink = rng.uniform(*INK_LEVELS)
    paper = rng.uniform(*PAPER_LEVELS)
    noise = rng.uniform(-NOISE_AMPLITUDE, NOISE_AMPLITUDE, size=(h, w))
    gray = paper + (ink - paper) * coverage + noise
    return np.clip(np.rint(gray), 0, 255).astype(np.uint8)


def write_pgm_bytes(gray: np.ndarray, ascii_format: bool) -> bytes:
    """P5 or P2 encoding of a uint8 image, maxval 255."""
    h, w = gray.shape
    if not ascii_format:
        return f"P5\n{w} {h}\n255\n".encode() + gray.tobytes()
    rows = "\n".join(" ".join(map(str, row)) for row in gray.tolist())
    return f"P2\n# generated scan\n{w} {h}\n255\n{rows}\n".encode()


@dataclass
class Scan:
    path: Path
    label: int
    gray: np.ndarray
    ascii_format: bool
    blank: bool


def make_corpus(root: Path, seed: int, per_class: int, blanks: int,
                p2_share: float, stream: str = "corpus") -> list[Scan]:
    """Write a labelled corpus: root/<label>/<index>.pgm.

    Every class holds per_class glyph scans. blanks extra scans of
    plain white paper go to classes picked by the seed. A fixed share
    of all scans, picked by the seed, is written as P2 and the rest as
    P5. Returns the scans in the order a sorted directory walk visits
    them.
    """
    rng = rng_for(seed, stream)
    total = CLASSES * per_class + blanks
    p2 = np.zeros(total, dtype=bool)
    p2[:int(round(p2_share * total))] = True
    p2 = rng.permutation(p2)
    sizes = rng.permutation(np.resize(SIZE_LADDER, total))
    labels = [c for c in range(CLASSES) for _ in range(per_class)]
    labels += [int(c) for c in rng.integers(0, CLASSES, size=blanks)]
    is_blank = [False] * (CLASSES * per_class) + [True] * blanks
    order = rng.permutation(total)  # file index within its class
    scans = []
    for i in range(total):
        size = int(sizes[i])
        if is_blank[i]:
            gray = np.full((size + size // 4, size), 255, dtype=np.uint8)
        else:
            gray = render_scan(rng, labels[i], size)
        path = root / str(labels[i]) / f"{int(order[i]):04d}.pgm"
        scans.append(Scan(path, labels[i], gray, bool(p2[i]), is_blank[i]))
    for scan in scans:
        scan.path.parent.mkdir(parents=True, exist_ok=True)
        scan.path.write_bytes(write_pgm_bytes(scan.gray, scan.ascii_format))
    scans.sort(key=lambda s: (s.label, s.path.name))
    return scans


# Feature-space rows for crossval: each class has a prototype in
# [0.3, 0.7]^76 and rows are prototypes plus Gaussian jitter, clipped
# to [0, 1]. The jitter makes the classes overlap, so cross-validated
# accuracy lands near 98%, close to the paper's 96.67%.
PROTOTYPE_RANGE = (0.3, 0.7)
ROW_JITTER = 0.22


def make_feature_rows(seed: int, per_class: int) -> tuple[list[int], np.ndarray]:
    """Balanced labelled rows in shuffled order."""
    rng = rng_for(seed, "rows")
    protos = rng.uniform(*PROTOTYPE_RANGE, size=(CLASSES, FEATURES))
    labels = np.repeat(np.arange(CLASSES), per_class)
    rows = protos[labels] + rng.normal(0.0, ROW_JITTER, size=(labels.size, FEATURES))
    order = rng.permutation(labels.size)
    return labels[order].tolist(), np.clip(rows[order], 0.0, 1.0)


def write_feature_csv(path: Path, labels, rows) -> None:
    """The feature CSV layout: header label,f0..f75, repr floats."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"f{i}" for i in range(FEATURES)])
        for label, row in zip(labels, rows):
            writer.writerow([int(label)] + [repr(float(v)) for v in row])
