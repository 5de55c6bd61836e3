"""Reading and writing PGM (portable graymap) images.

Both the ASCII (P2) and binary (P5) variants are supported, with a
maximum gray value of 255. Images are exchanged as 2-D uint8 numpy
arrays indexed [row, col]; samples of a file whose maxval is below 255
are rescaled to 0..255 on read, so thresholds always use that scale.

Grammar: the magic, width, height, maxval and every P2 sample (decimal
digits, leading zeros allowed, at most 3 significant) are each preceded
by ASCII whitespace or "#" comments, a comment running to its line end.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from ._atomic import atomic_open


class PgmError(ValueError):
    """Raised when a file is not a PGM image this package can read."""


# A comment always runs to the end of its line, so a line of many "#"
# parses one way only and a failed match does not backtrack for long. A field
# past 9 significant digits does not match, so int() never meets a huge number.
_SEP = rb"(?:\s|#[^\r\n]*(?![^\r\n]))"
_HEADER = re.compile(_SEP + rb"*(P[25])" + (_SEP + rb"+0*(\d{1,9})(?!\d)") * 3)


def read_pgm(path: str | Path) -> np.ndarray:
    """Read a P2 or P5 file and return a (height, width) uint8 array.

    With maxval below 255 each sample v becomes the nearest integer to
    v * 255 / maxval, (v * 255 + maxval // 2) // maxval.

    Raises PgmError on a bad magic number, malformed header, maxval
    above 255, a P2 sample other than digits (leading zeros allowed, at
    most 3 significant), or a raster with the wrong number of samples.
    """
    data = Path(path).read_bytes()
    match = _HEADER.match(data)
    if match is None:
        if data.lstrip()[:2] not in (b"P2", b"P5"):
            raise PgmError("not a PGM file (bad magic)")
        raise PgmError("malformed or truncated header")
    width, height, maxval = map(int, match.groups()[1:])
    end = match.end()
    if width < 1 or height < 1:
        raise PgmError(f"bad dimensions {width}x{height}")
    if not 0 < maxval <= 255:
        raise PgmError(f"unsupported maxval {maxval} (must be 1..255)")

    count = width * height
    if match[1] == b"P5":
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
        body = data[end:]
        if b"#" in body:
            body = re.sub(rb"#[^\r\n]*", b" ", body)
        if body.translate(None, b"0123456789 \t\n\r\x0b\x0c"):
            bad = next(tok for tok in body.split() if not tok.isdigit())
            raise PgmError(f"malformed sample {bad!r}")
        raw = np.frombuffer(b" " + body + b" ", dtype=np.uint8)
        # Per token: the index of the separator before it and of its last digit.
        before, last = np.flatnonzero(np.diff(raw > 32)).reshape(-1, 2).T
        if len(last) != count:
            raise PgmError(f"raster has {len(last)} samples, expected {count}")
        # Each value from its token's last 3 places; a separator reads as 0.
        digit = np.maximum(raw, 48) - 48
        img = digit.take(last) + digit.take(last - 1) * np.uint16(10)
        img += digit.take(np.maximum(last - 2, before)) * np.uint16(100)
        for i in np.flatnonzero(last - before > 3):  # a 4th significant digit: over 999
            img[i] += 1000 * (raw[before[i] + 1:last[i] - 2] > 48).any()

    if img.max() > maxval:
        raise PgmError(f"sample exceeds declared maxval {maxval}")
    if maxval < 255:
        img = (np.asarray(img, dtype=np.int64) * 255 + maxval // 2) // maxval
    return np.array(img, dtype=np.uint8).reshape(height, width)


def write_pgm(path: str | Path, img: np.ndarray, binary: bool = True) -> None:
    """Write a 2-D image of integer samples in 0..255 as P5 (binary) or P2 (ASCII)."""
    img = np.asarray(img)
    if img.ndim != 2:
        raise PgmError(f"expected a 2-D image, got shape {img.shape}")
    # NaN fails too; a cast to uint8 would wrap 300 to 44 and cut 254.7 to 254.
    if not ((img >= 0) & (img <= 255) & (np.trunc(img) == img)).all():
        raise PgmError("image samples must be integers in 0..255")
    img = img.astype(np.uint8, copy=False)
    height, width = img.shape
    if binary:
        data = f"P5\n{width} {height}\n255\n".encode() + img.tobytes()
    else:
        # Plain PGM lines may not exceed 70 characters: 17 samples of
        # at most 3 digits each, with separators, take 67.
        lines = [f"P2\n{width} {height}\n255"]
        lines.extend(" ".join(map(str, row[i:i + 17]))
                     for row in img.tolist() for i in range(0, width, 17))
        data = ("\n".join(lines) + "\n").encode()
    with atomic_open(path, "wb") as fh:
        fh.write(data)
