"""Atomic file output, shared by every writer in the package."""

import contextlib
import os


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """open() for writing a temporary file beside path, renamed over path
    by os.replace once the block succeeds and removed if it raises."""
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
