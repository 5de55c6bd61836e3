import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from digitrec.imgproc import (GRID, NoForegroundError, binarize, bilinear_resize,
                              normalize_image, otsu_threshold, otsu_thresholds)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import reference  # noqa: E402


def reference_bilinear(src, out_h, out_w):
    """Scalar corner-aligned resampling, one output pixel at a time."""
    src = np.asarray(src, dtype=float)
    h, w = src.shape
    out = np.zeros((out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            y = i * (h - 1) / (out_h - 1) if out_h > 1 else 0.0
            x = j * (w - 1) / (out_w - 1) if out_w > 1 else 0.0
            y0, x0 = math.floor(y), math.floor(x)
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            fy, fx = y - y0, x - x0
            out[i, j] = (src[y0, x0] * (1 - fy) * (1 - fx)
                         + src[y0, x1] * (1 - fy) * fx
                         + src[y1, x0] * fy * (1 - fx)
                         + src[y1, x1] * fy * fx)
    return out


def as_gray(binary):
    """0/1 ink mask to a dark-on-light grayscale image."""
    return np.where(np.asarray(binary) == 1, 0, 255).astype(np.uint8)


def test_binarize_threshold_cases():
    gray = np.array([[0, 127, 128, 255]], dtype=np.uint8)
    np.testing.assert_array_equal(binarize(gray, 128), [[1, 1, 0, 0]])
    np.testing.assert_array_equal(binarize(gray, 128, invert=True), [[0, 0, 1, 1]])


def test_binarize_is_complementary():
    rng = np.random.Generator(np.random.PCG64(0))
    for _ in range(20):
        gray = rng.integers(0, 256, size=(6, 9), dtype=np.uint8)
        t = int(rng.integers(0, 256))
        total = binarize(gray, t) + binarize(gray, t, invert=True)
        np.testing.assert_array_equal(total, np.ones_like(gray))


def test_binarize_rejects_bad_threshold():
    with pytest.raises(ValueError):
        binarize(np.zeros((2, 2), dtype=np.uint8), 256)


def test_binarize_rejects_a_non_2d_image():
    with pytest.raises(ValueError, match="2-D"):
        binarize(np.zeros(4, dtype=np.uint8), 128)


def test_bilinear_identity_at_same_size():
    rng = np.random.Generator(np.random.PCG64(3))
    src = rng.integers(0, 256, size=(32, 32)).astype(float)
    np.testing.assert_array_equal(bilinear_resize(src, 32, 32), src)


def test_bilinear_matches_scalar_reference():
    rng = np.random.Generator(np.random.PCG64(4))
    for _ in range(10):
        h = int(rng.integers(1, 40))
        w = int(rng.integers(1, 40))
        src = rng.integers(0, 256, size=(h, w)).astype(float)
        got = bilinear_resize(src, 32, 32)
        np.testing.assert_allclose(got, reference_bilinear(src, 32, 32),
                                   rtol=0, atol=1e-9)


def four_gather_bilinear(src, out_h, out_w):
    """bilinear_resize as it was with one gather per corner: the same
    arithmetic per element, so the results must be equal, not close."""
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
    top = src[y0][:, x0] * (1 - fx) + src[y0][:, x1] * fx
    bot = src[y1][:, x0] * (1 - fx) + src[y1][:, x1] * fx
    return top * (1 - fy) + bot * fy


@settings(deadline=None, max_examples=300)
@given(arrays(np.float64, st.tuples(st.integers(1, 70), st.integers(1, 70)),
              elements=st.floats(0, 255)),
       st.integers(1, 70), st.integers(1, 70))
def test_bilinear_equals_the_four_gather_formula(src, out_h, out_w):
    np.testing.assert_array_equal(bilinear_resize(src, out_h, out_w),
                                  four_gather_bilinear(src, out_h, out_w))


@settings(deadline=None, max_examples=100)
@given(arrays(np.uint8, st.tuples(st.integers(1, 40), st.integers(1, 40))),
       st.integers(1, 40), st.integers(1, 40))
@example(np.array([[0, 255], [255, 0]], np.uint8), 1, 1)
@example(np.array([[7]], np.uint8), 1, 33)
def test_bilinear_gives_the_same_bytes_for_any_source_type(src, out_h, out_w):
    # The source's own samples are gathered, then blended in float64.
    want = bilinear_resize(src.astype(np.float64), out_h, out_w)
    assert want.dtype == np.float64 and want.shape == (out_h, out_w)
    for dtype in (np.uint8, np.int64, np.float32):
        assert bilinear_resize(src.astype(dtype), out_h, out_w).tobytes() == want.tobytes()
    ink = src > 127
    assert (bilinear_resize(ink, out_h, out_w).tobytes()
            == bilinear_resize(ink.astype(np.float64), out_h, out_w).tobytes())


@pytest.mark.parametrize("axis", [0, 1])
def test_bilinear_refuses_an_output_size_below_1(axis):
    for size in (-3, 0):
        out = [5, 5]
        out[axis] = size
        with pytest.raises(ValueError, match=f"output size {out[0]}x{out[1]}"):
            bilinear_resize(np.ones((3, 3)), *out)
    out = [5, 5]
    out[axis] = 1
    assert bilinear_resize(np.ones((3, 3)), *out).shape == tuple(out)


def test_normalize_uniform_dark_input():
    gray = np.zeros((64, 40), dtype=np.uint8)
    np.testing.assert_array_equal(normalize_image(gray), np.ones((GRID, GRID)))


def test_normalize_single_dark_pixel_fills_frame():
    gray = np.full((100, 100), 255, dtype=np.uint8)
    gray[61, 17] = 0
    np.testing.assert_array_equal(normalize_image(gray), np.ones((GRID, GRID)))


def test_normalize_blank_raises():
    with pytest.raises(NoForegroundError):
        normalize_image(np.full((20, 20), 255, dtype=np.uint8))


def test_normalize_ring_matches_reference_pipeline():
    # 64x64 scan of a thick ring, dark on light.
    rr, cc = np.mgrid[0:64, 0:64]
    dist = np.hypot(rr - 31.5, cc - 31.5)
    gray = np.where((dist >= 14) & (dist <= 22), 20, 240).astype(np.uint8)

    got = normalize_image(gray, 128)

    np.testing.assert_array_equal(got, reference.normalize(gray, 128))
    # It still looks like a ring: ink present, hole in the middle.
    assert got.sum() > 0 and got[15:17, 15:17].sum() == 0


@pytest.mark.parametrize("invert", [False, True])
def test_normalize_crops_by_binarizes_rule_in_any_type(invert):
    # NaN is never ink under binarize, so a NaN pixel neither hides the
    # ink of its row or column nor adds a row or column of its own.
    rng = np.random.Generator(np.random.PCG64(6))
    for _ in range(25):
        gray = rng.integers(0, 256, size=(int(rng.integers(2, 30)), int(rng.integers(2, 30))))
        gray = np.where(rng.random(gray.shape) < 0.8, 0 if invert else 255, gray).astype(np.float64)
        gray[rng.random(gray.shape) < 0.1] = np.nan
        mask = binarize(gray, 128, invert)
        rows = np.flatnonzero(mask.any(axis=1))
        cols = np.flatnonzero(mask.any(axis=0))
        if not rows.size:
            with pytest.raises(NoForegroundError):
                normalize_image(gray, 128, invert)
            continue
        crop = gray[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
        np.testing.assert_array_equal(normalize_image(gray, 128, invert),
                                      binarize(bilinear_resize(crop, GRID, GRID), 128, invert))


def test_normalize_idempotent_on_canonical_rasters():
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(25):
        img = (rng.random((GRID, GRID)) < 0.3).astype(np.uint8)
        img[0, int(rng.integers(GRID))] = 1
        img[-1, int(rng.integers(GRID))] = 1
        img[int(rng.integers(GRID)), 0] = 1
        img[int(rng.integers(GRID)), -1] = 1
        np.testing.assert_array_equal(normalize_image(as_gray(img)), img)


def test_normalize_touches_all_four_borders():
    # Upscaling only: once the crop is larger than the grid, bilinear
    # averaging can wash out a lone edge pixel, so sizes stay <= 32.
    rng = np.random.Generator(np.random.PCG64(6))
    for _ in range(50):
        h = int(rng.integers(2, GRID + 1))
        w = int(rng.integers(2, GRID + 1))
        img = (rng.random((h, w)) < 0.25).astype(np.uint8)
        box_ok = img.any(axis=1).sum() >= 2 and img.any(axis=0).sum() >= 2
        if not box_ok:
            img[0, 0] = img[-1, -1] = 1
        out = normalize_image(as_gray(img))
        assert out[0].any() and out[-1].any()
        assert out[:, 0].any() and out[:, -1].any()


def test_otsu_matches_the_scan_on_random_and_few_level_images():
    rng = np.random.Generator(np.random.PCG64(10))
    for i in range(300):
        shape = tuple(int(n) for n in rng.integers(1, 40, size=2))
        if i % 2:
            levels = rng.choice(256, size=int(rng.integers(1, 5)), replace=False)
            gray = rng.choice(levels, size=shape).astype(np.uint8)
        else:
            gray = rng.integers(0, 256, size=shape, dtype=np.uint8)
        assert otsu_threshold(gray) == reference.otsu(gray), gray.tolist()
    for v in (0, 17, 254, 255):  # flat images take the fallback
        gray = np.full((3, 4), v, dtype=np.uint8)
        assert otsu_threshold(gray) == reference.otsu(gray)


def test_otsu_separates_bimodal_image():
    rng = np.random.Generator(np.random.PCG64(8))
    lo = rng.integers(5, 40, size=200)
    hi = rng.integers(190, 230, size=300)
    gray = np.concatenate([lo, hi]).reshape(20, 25).astype(np.uint8)
    t = otsu_threshold(gray)
    # Foreground is v < t, so any cut in (39, 190] splits the modes.
    assert 39 < t <= 190
    # Automatic threshold drives the same pipeline.
    out = normalize_image(gray, threshold=None)
    assert out.shape == (GRID, GRID)


def test_otsu_is_deterministic():
    rng = np.random.Generator(np.random.PCG64(9))
    gray = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
    assert otsu_threshold(gray) == otsu_threshold(gray.copy())


@pytest.mark.parametrize("shape", [(0, 5), (4, 0)])
def test_otsu_refuses_an_image_with_no_pixels(shape):
    # The scan once divided by a zero pixel count: a RuntimeWarning, then int(nan).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no pixels"):
            otsu_threshold(np.zeros(shape, dtype=np.uint8))


def test_otsu_refuses_values_a_cast_to_uint8_would_change():
    # 1000 would wrap to 232 and 0.9 truncate to 0: the cut of 0.2 paper
    # with a 0.9 square was 1, and normalize_image gave an all-ink raster.
    square = np.full((20, 20), 0.2)
    square[5:10, 5:10] = 0.9
    for gray in (np.array([[1000, 10], [4, 200]]), square, np.array([[0.0, np.nan]]),
                 np.array([[-1, 7]])):
        with pytest.raises(ValueError, match="integer gray levels in 0..255"):
            otsu_threshold(gray)
    with pytest.raises(ValueError, match="integer gray levels in 0..255"):
        normalize_image(square, None)


def test_otsu_of_integer_levels_in_any_type_is_the_uint8_cut():
    rng = np.random.Generator(np.random.PCG64(12))
    gray = rng.integers(0, 256, size=(17, 23), dtype=np.uint8)
    for dtype in (np.int64, np.float64, np.uint16):
        assert otsu_threshold(gray.astype(dtype)) == otsu_threshold(gray)
    assert otsu_threshold(gray > 127) == otsu_threshold((gray > 127).astype(np.uint8))


def test_otsu_of_a_one_level_image_is_the_next_level():
    # No cut leaves both classes non-empty; the image's mean is its level.
    got = [otsu_threshold(np.full((2, 3), v, dtype=np.uint8)) for v in range(256)]
    assert got == [min(v + 1, 255) for v in range(256)]


def test_otsu_of_a_stack_is_each_rows_cut():
    # Random, few-level and one-level images side by side in one stack.
    rng = np.random.Generator(np.random.PCG64(11))
    grays = []
    for i in range(60):
        shape = tuple(int(n) for n in rng.integers(1, 30, size=2))
        levels = rng.choice(256, size=int(rng.integers(1, 4)), replace=False)
        grays.append(rng.integers(0, 256, size=shape, dtype=np.uint8) if i % 2
                     else rng.choice(levels, size=shape).astype(np.uint8))
    hists = np.array([np.bincount(g.ravel(), minlength=256) for g in grays])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = otsu_thresholds(hists)
    assert got.tolist() == [reference.otsu(g) for g in grays]
