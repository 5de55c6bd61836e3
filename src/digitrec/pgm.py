"""Reading and writing PGM (portable graymap) images.

Both the ASCII (P2) and binary (P5) variants are supported, with a
maximum gray value of 255. Images are exchanged as 2-D uint8 numpy
arrays indexed [row, col]; samples of a file whose maxval is below 255
are rescaled to 0..255 on read, so thresholds always use that scale.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np


class PgmError(ValueError):
    """Raised when a file is not a PGM image this package can read."""


def _tokens(data: bytes):
    """Yield whitespace-separated header tokens, skipping # comments.

    Yields (token, end_offset) pairs so the caller knows where the
    raster starts once the header is consumed.
    """
    i = 0
    n = len(data)
    while i < n:
        ch = data[i:i + 1]
        if ch.isspace():
            i += 1
        elif ch == b"#":
            while i < n and data[i:i + 1] not in (b"\n", b"\r"):
                i += 1
        else:
            j = i
            while j < n and not data[j:j + 1].isspace() and data[j:j + 1] != b"#":
                j += 1
            yield data[i:j], j
            i = j


def read_pgm(path: str | Path) -> np.ndarray:
    """Read a P2 or P5 file and return a (height, width) uint8 array.

    With maxval below 255 each sample v becomes the nearest integer to
    v * 255 / maxval, (v * 255 + maxval // 2) // maxval.

    Raises PgmError on a bad magic number, malformed header, maxval
    above 255, or a raster with the wrong number of samples.
    """
    data = Path(path).read_bytes()
    header = _tokens(data)

    def next_token() -> tuple[bytes, int]:
        try:
            return next(header)
        except StopIteration:
            raise PgmError("truncated header") from None

    magic, _ = next_token()
    if magic not in (b"P2", b"P5"):
        raise PgmError(f"not a PGM file (magic {magic!r})")

    fields = []
    end = 0
    for _ in range(3):
        tok, end = next_token()
        if not tok.isdigit():
            raise PgmError(f"malformed header field {tok!r}")
        fields.append(int(tok))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PgmError(f"bad dimensions {width}x{height}")
    if not 0 < maxval <= 255:
        raise PgmError(f"unsupported maxval {maxval} (must be 1..255)")

    count = width * height
    if magic == b"P5":
        # Exactly one whitespace byte separates the header from the raster.
        if not data[end:end + 1].isspace():
            raise PgmError("missing whitespace between header and raster")
        raster = data[end + 1:]
        if len(raster) < count:
            raise PgmError(f"raster truncated: {len(raster)} of {count} bytes")
        if raster[count:].strip():
            raise PgmError(f"{len(raster) - count} trailing bytes after raster")
        img = np.frombuffer(raster[:count], dtype=np.uint8)
    else:
        samples = re.sub(rb"#[^\r\n]*", b" ", data[end:]).split()
        bad = next((tok for tok in samples if not tok.isdigit()), None)
        if bad is not None:
            raise PgmError(f"malformed sample {bad!r}")
        if len(samples) != count:
            raise PgmError(f"raster has {len(samples)} samples, expected {count}")
        img = np.array([int(tok) for tok in samples], dtype=np.int64)

    if img.max(initial=0) > maxval:
        raise PgmError(f"sample exceeds declared maxval {maxval}")
    if maxval < 255:
        img = (img.astype(np.int64) * 255 + maxval // 2) // maxval
    return img.astype(np.uint8).reshape(height, width)


def write_pgm(path: str | Path, img: np.ndarray, binary: bool = True) -> None:
    """Write a uint8 grayscale image as P5 (binary) or P2 (ASCII)."""
    img = np.asarray(img, dtype=np.uint8)
    if img.ndim != 2:
        raise PgmError(f"expected a 2-D image, got shape {img.shape}")
    height, width = img.shape
    if binary:
        header = f"P5\n{width} {height}\n255\n".encode()
        Path(path).write_bytes(header + img.tobytes())
    else:
        lines = [f"P2\n{width} {height}\n255"]
        for row in img:
            lines.append(" ".join(str(int(v)) for v in row))
        Path(path).write_text("\n".join(lines) + "\n")
