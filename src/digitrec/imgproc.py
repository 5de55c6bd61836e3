"""Image preparation: thresholding, cropping, and size normalization.

Grayscale images are 2-D uint8 arrays; binary images are 2-D uint8
arrays of 0 (background) and 1 (foreground/ink). Every downstream
stage consumes the canonical form produced by normalize_image: a
32x32 binary raster whose ink fills the frame.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

GRID = 32
DEFAULT_THRESHOLD = 128


class NoForegroundError(ValueError):
    """Raised when an image contains no ink at the chosen threshold."""


class BoundingBox(NamedTuple):
    row_min: int
    row_max: int
    col_min: int
    col_max: int


def binarize(gray: np.ndarray, threshold: int = DEFAULT_THRESHOLD,
             invert: bool = False) -> np.ndarray:
    """Threshold a grayscale image to a 0/1 ink mask.

    Dark-on-light is the default: a pixel is ink when its intensity is
    strictly below the threshold. With invert=True the comparison
    flips (ink when intensity >= threshold), for light-on-dark scans.
    """
    gray = np.asarray(gray)
    if gray.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {gray.shape}")
    if not 0 <= threshold <= 255:
        raise ValueError(f"threshold {threshold} outside 0..255")
    if invert:
        return (gray >= threshold).astype(np.uint8)
    return (gray < threshold).astype(np.uint8)


def otsu_threshold(gray: np.ndarray) -> int:
    """Pick the threshold that maximizes between-class variance.

    Candidates t in 1..255 split pixels into {v < t} and {v >= t};
    ties resolve to the smallest t, so the result is deterministic.
    """
    gray = np.asarray(gray, dtype=np.uint8)
    hist = np.bincount(gray.ravel(), minlength=256).astype(np.float64)
    total = hist.sum()
    cum_v = np.cumsum(hist * np.arange(256))
    # Index t - 1 holds the split at t: n0 pixels below t, n1 at or above.
    n0 = np.cumsum(hist)[:-1]
    n1 = total - n0
    with np.errstate(divide="ignore", invalid="ignore"):
        var = n0 * n1 * (cum_v[:-1] / n0 - (cum_v[-1] - cum_v[:-1]) / n1) ** 2
    var[(n0 == 0) | (n1 == 0)] = -1
    if var.max() < 0:
        # Flat image: every split is empty on one side. Any threshold
        # is as good as another; keep the deterministic fallback.
        mean_all = cum_v[-1] / total
        return int(mean_all) + 1 if mean_all < 255 else 255
    return int(np.argmax(var)) + 1


def minimal_bounding_box(binary: np.ndarray) -> BoundingBox:
    """Tightest row/col box around the ink. Raises NoForegroundError."""
    binary = np.asarray(binary)
    rows = np.flatnonzero(binary.any(axis=1))
    cols = np.flatnonzero(binary.any(axis=0))
    if rows.size == 0:
        raise NoForegroundError("image has no foreground pixels")
    return BoundingBox(int(rows[0]), int(rows[-1]), int(cols[0]), int(cols[-1]))


def bilinear_resize(src: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resample a grayscale array to (out_h, out_w) by bilinear blending.

    Corner-aligned sampling: output pixel i reads source coordinate
    i*(n_src-1)/(n_out-1), so the four corners map exactly onto the
    source corners and same-size resampling is the identity. Aspect
    ratio is not preserved; each axis stretches independently.
    """
    src = np.asarray(src, dtype=np.float64)
    h, w = src.shape
    ys = np.arange(out_h) * ((h - 1) / (out_h - 1)) if out_h > 1 else np.zeros(1)
    xs = np.arange(out_w) * ((w - 1) / (out_w - 1)) if out_w > 1 else np.zeros(1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    block = src[np.concatenate([y0, y1])][:, np.concatenate([x0, x1])]  # rows, then columns
    (tl, tr), (bl, br) = block.reshape(2, out_h, 2, out_w).swapaxes(1, 2)
    top = tl * (1 - fx) + tr * fx
    bot = bl * (1 - fx) + br * fx
    return top * (1 - fy) + bot * fy


def normalize_image(gray: np.ndarray, threshold: int | None = DEFAULT_THRESHOLD,
                    invert: bool = False) -> np.ndarray:
    """Reduce a grayscale scan to the canonical 32x32 binary raster.

    Pipeline: threshold provisionally to locate the ink, crop the
    grayscale to the minimal bounding box, rescale the crop to 32x32
    with bilinear_resize, and re-threshold with the same cutoff. The
    scaled values stay floating point until the final comparison, so
    no rounding happens between rescale and threshold.

    threshold=None selects the cutoff automatically with
    otsu_threshold on the input image. Raises NoForegroundError when
    nothing survives the provisional threshold.
    """
    gray = np.asarray(gray)
    t = otsu_threshold(gray) if threshold is None else threshold
    box = minimal_bounding_box(binarize(gray, t, invert))
    crop = gray[box.row_min:box.row_max + 1, box.col_min:box.col_max + 1]
    return binarize(bilinear_resize(crop, GRID, GRID), t, invert)
