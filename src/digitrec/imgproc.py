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


def _sample_grid(sizes, out: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """bilinear_resize's sampling of a source length, or an (n, 1) column of
    them, at out outputs: the lower and upper source index and the upper
    one's weight, each (out,) or (n, out)."""
    pos = np.arange(out) * ((sizes - 1) / max(out - 1, 1))
    lower = np.floor(pos).astype(np.intp)
    return lower, np.minimum(lower + 1, sizes - 1), pos - lower


def bilinear_resize(src: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resample a grayscale array to (out_h, out_w) by bilinear blending.

    Corner-aligned sampling: output pixel i reads source coordinate
    i*(n_src-1)/(n_out-1), so the four corners map exactly onto the
    source corners and same-size resampling is the identity. Aspect
    ratio is not preserved; each axis stretches independently. The
    source's own samples are gathered and then blended in float64.
    """
    src = np.asarray(src)
    h, w = src.shape
    y0, y1, fy = _sample_grid(h, out_h)
    x0, x1, fx = _sample_grid(w, out_w)
    cols = src[:, x0] * (1 - fx) + src[:, x1] * fx  # every source row, at the output columns
    return cols[y0] * (1 - fy[:, None]) + cols[y1] * fy[:, None]


def _ink_crop(gray: np.ndarray, cut, invert: bool) -> np.ndarray | None:
    """gray cropped to the bounding box of its ink at cut, or None without
    ink. binarize's rule decides: a row or column holds ink when its extreme
    level does. An image that is not 2-D or has no pixels is a ValueError."""
    if gray.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {gray.shape}")
    if gray.size == 0:
        raise ValueError("cannot threshold an image with no pixels")
    # fmin and fmax skip NaN, which binarize never counts as ink.
    extreme, inked = (np.fmax, np.greater_equal) if invert else (np.fmin, np.less)
    rows = np.flatnonzero(inked(extreme.reduce(gray, axis=1), cut))
    if not rows.size:
        return None
    cols = np.flatnonzero(inked(extreme.reduce(gray, axis=0), cut))
    return gray[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]


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
    nothing survives the provisional threshold, and ValueError for an
    image with no pixels.
    """
    gray = np.asarray(gray)
    t = otsu_threshold(gray) if threshold is None else threshold
    if not 0 <= t <= 255:
        raise ValueError(f"threshold {t} outside 0..255")
    crop = _ink_crop(gray, t, invert)
    if crop is None:
        raise NoForegroundError("image has no foreground pixels")
    return binarize(bilinear_resize(crop, GRID, GRID), t, invert)


def normalize_images(grays, threshold: int | None = DEFAULT_THRESHOLD,
                     invert: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """normalize_image of each of a sequence of 2-D uint8 scans, in array
    passes over all of them.

    Returns an (m, 32, 32) uint8 stack of the rasters of the m scans
    that have ink, in order, and an (n,) bool vector marking those
    scans. Each raster equals normalize_image's bit for bit: Otsu runs
    over the stacked histograms, each scan is cropped by normalize_image's
    rule, all crops are sampled into one stack with bilinear_resize's
    sampling grid and per-element arithmetic, and the stack is thresholded
    once. A scan with no pixels raises ValueError, as in normalize_image.
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
    crops = [_ink_crop(gray, cut, invert) for gray, cut in zip(grays, cuts.tolist())]
    found = np.array([crop is not None for crop in crops], dtype=bool)
    crops = [crop for crop in crops if crop is not None]
    if not crops:
        return np.zeros((0, GRID, GRID), dtype=np.uint8), found
    # The crops laid end to end, row-major: each crop's pixels from its corner.
    height, width = np.array([crop.shape for crop in crops], dtype=np.intp).T[..., None]
    corner = np.cumsum(height * width, axis=0) - height * width
    y0, y1, fy = _sample_grid(height, GRID)
    x0, x1, fx = _sample_grid(width, GRID)
    src = np.concatenate([crop.ravel() for crop in crops])

    def sample(y, x):
        return src.take((corner + y * width)[:, :, None] + x[:, None, :])

    fx, fy = fx[:, None, :], fy[:, :, None]
    top = sample(y0, x0) * (1 - fx) + sample(y0, x1) * fx
    bottom = sample(y1, x0) * (1 - fx) + sample(y1, x1) * fx
    scaled = top * (1 - fy) + bottom * fy
    inked = np.greater_equal if invert else np.less
    return inked(scaled, cuts[found][:, None, None]).view(np.uint8), found
