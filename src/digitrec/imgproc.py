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

    A cut t splits pixels into {v < t} and {v >= t}. This is
    otsu_thresholds on the image's histogram: ties resolve to the
    smallest t, and a one-level image gives level + 1, at most 255. An
    image with no pixels raises ValueError.
    """
    gray = np.asarray(gray, dtype=np.uint8)
    if gray.size == 0:
        raise ValueError("cannot threshold an image with no pixels")
    return int(otsu_thresholds(np.bincount(gray.ravel(), minlength=256)[None])[0])


def otsu_thresholds(hists: np.ndarray) -> np.ndarray:
    """The Otsu cut of each row of an (n, 256) stack of gray-level counts,
    each row counting at least one pixel.

    Only the cuts lo+1..hi between a row's first and last occupied
    levels leave both classes non-empty. Every row scores all 255 cuts,
    and a cut that leaves a class empty scores -1, below every other;
    ties resolve to the smallest cut, and a one-level row, which has no
    other, gives level + 1, at most 255.
    """
    hists = np.asarray(hists, dtype=np.float64)
    # Column t - 1 holds the cut at t: n0 pixels below t, n1 at or above.
    n0 = np.cumsum(hists, axis=1)[:, :-1]
    n1 = hists.sum(axis=1, keepdims=True) - n0
    split = (n0 > 0) & (n1 > 0)
    cum_v = np.cumsum(hists * np.arange(256), axis=1)
    # Cuts that leave a class empty divide by 1 instead of 0; -1 replaces their score.
    mu0 = cum_v[:, :-1] / np.where(split, n0, 1)
    mu1 = (cum_v[:, -1:] - cum_v[:, :-1]) / np.where(split, n1, 1)
    var = np.where(split, n0 * n1 * (mu0 - mu1) ** 2, -1)
    one_level = np.minimum(hists.argmax(axis=1) + 1, 255)
    return np.where(split.any(axis=1), var.argmax(axis=1) + 1, one_level)


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
    fx = xs - x0
    cols = src[:, x0] * (1 - fx) + src[:, x1] * fx  # every source row, at the output columns
    return cols[y0] * (1 - fy) + cols[y1] * fy


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


def _sample_grid(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """bilinear_resize's sampling of an (n, 1) column of source lengths at GRID
    outputs: the lower and upper source index and the upper one's weight, each (n, GRID)."""
    pos = np.arange(GRID) * ((sizes - 1) / (GRID - 1))
    lower = np.floor(pos).astype(np.intp)
    return lower, np.minimum(lower + 1, sizes - 1), pos - lower


def normalize_images(grays, threshold: int | None = DEFAULT_THRESHOLD,
                     invert: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """normalize_image of each of a sequence of 2-D uint8 scans, in array
    passes over all of them.

    Returns an (m, 32, 32) uint8 stack of the rasters of the m scans
    that have ink, in order, and an (n,) bool vector marking those
    scans. Each raster equals normalize_image's bit for bit: Otsu runs
    over the stacked histograms, each scan's bounding box comes from its
    row and column extremes, all crops are sampled into one stack with
    bilinear_resize's per-element arithmetic, and the stack is
    thresholded once.
    """
    grays = list(grays)
    if not all(isinstance(g, np.ndarray) and g.dtype == np.uint8 and g.ndim == 2 for g in grays):
        raise ValueError("expected 2-D uint8 images")
    if threshold is None:
        hists = [np.bincount(gray.ravel(), minlength=256) for gray in grays]
        cuts = otsu_thresholds(np.reshape(hists, (len(grays), 256)))
    elif 0 <= threshold <= 255:
        cuts = np.full(len(grays), threshold)
    else:
        raise ValueError(f"threshold {threshold} outside 0..255")
    # binarize's rule: a row or column holds ink when its extreme level does.
    extreme, inked = (np.maximum, np.greater_equal) if invert else (np.minimum, np.less)
    found, crops = [], []
    for gray, cut in zip(grays, cuts.tolist()):
        rows = np.flatnonzero(inked(extreme.reduce(gray, axis=1), cut))
        found.append(rows.size > 0)
        if rows.size:
            cols = np.flatnonzero(inked(extreme.reduce(gray, axis=0), cut))
            crops.append(gray[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1])
    found = np.array(found, dtype=bool)
    if not crops:
        return np.zeros((0, GRID, GRID), dtype=np.uint8), found
    # The crops laid end to end, row-major: each crop's pixels from its corner.
    height, width = np.array([crop.shape for crop in crops], dtype=np.intp).T[..., None]
    corner = np.cumsum(height * width, axis=0) - height * width
    y0, y1, fy = _sample_grid(height)
    x0, x1, fx = _sample_grid(width)
    src = np.concatenate([crop.ravel() for crop in crops])

    def sample(y, x):
        return src.take((corner + y * width)[:, :, None] + x[:, None, :])

    fx, fy = fx[:, None, :], fy[:, :, None]
    top = sample(y0, x0) * (1 - fx) + sample(y0, x1) * fx
    bottom = sample(y1, x0) * (1 - fx) + sample(y1, x1) * fx
    scaled = top * (1 - fy) + bottom * fy
    return inked(scaled, cuts[found][:, None, None]).view(np.uint8), found
