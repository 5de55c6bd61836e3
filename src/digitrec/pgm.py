"""Reading and writing PGM (portable graymap) images.

Both the ASCII (P2) and binary (P5) variants are supported, with a
maximum gray value of 255. Images are exchanged as 2-D uint8 numpy
arrays indexed [row, col]; samples of a file whose maxval is below 255
are rescaled to 0..255 on read, so thresholds always use that scale.

Header grammar: the magic, width, height and maxval, each preceded by
whitespace or "#" comments, a comment running to the end of its line.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from ._atomic import atomic_open


class PgmError(ValueError):
    """Raised when a file is not a PGM image this package can read."""


# A comment always runs to the end of its line, so a line of many "#"
# parses one way only and a failed match does not backtrack for long.
_SEP = rb"(?:\s|#[^\r\n]*(?![^\r\n]))"
_HEADER = re.compile(_SEP + rb"*(P[25])" + (_SEP + rb"+(\d+)") * 3)


def read_pgm(path: str | Path) -> np.ndarray:
    """Read a P2 or P5 file and return a (height, width) uint8 array.

    With maxval below 255 each sample v becomes the nearest integer to
    v * 255 / maxval, (v * 255 + maxval // 2) // maxval.

    Raises PgmError on a bad magic number, malformed header, maxval
    above 255, or a raster with the wrong number of samples.
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
        peak = int(img.max())
    else:
        samples = re.sub(rb"#[^\r\n]*", b" ", data[end:]).split()
        bad = next((tok for tok in samples if not tok.isdigit()), None)
        if bad is not None:
            raise PgmError(f"malformed sample {bad!r}")
        if len(samples) != count:
            raise PgmError(f"raster has {len(samples)} samples, expected {count}")
        # Compared as Python ints: a sample past int64 is an error, not an overflow.
        img = [int(tok) for tok in samples]
        peak = max(img)

    if peak > maxval:
        raise PgmError(f"sample exceeds declared maxval {maxval}")
    if maxval < 255:
        img = (np.asarray(img, dtype=np.int64) * 255 + maxval // 2) // maxval
    return np.array(img, dtype=np.uint8).reshape(height, width)


def write_pgm(path: str | Path, img: np.ndarray, binary: bool = True) -> None:
    """Write a uint8 grayscale image as P5 (binary) or P2 (ASCII)."""
    img = np.asarray(img, dtype=np.uint8)
    if img.ndim != 2:
        raise PgmError(f"expected a 2-D image, got shape {img.shape}")
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
