"""Atomic file output, shared by every writer in the package."""

import contextlib
import errno
import os


class _Opened(Exception):
    """Leaves check_output's atomic_open block once its file is open."""


def check_output(path) -> None:
    """Raise the OSError that writing path would meet, before any work is
    done: atomic_open's own refusals, or the open of the temporary file
    that atomic_open creates, here removed at once."""
    with contextlib.suppress(_Opened), atomic_open(path):
        raise _Opened


@contextlib.contextmanager
def _naming(path):
    """Re-raise an OSError as one about path, the name the caller gave."""
    try:
        yield
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from exc


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """open() for writing a temporary file beside path, renamed over path
    by os.replace once the block succeeds and removed if it raises. As
    open() does, it takes a str, bytes or path-like path, and refuses an
    empty name (ENOENT) and a directory, a link to one too (EISDIR), before
    it creates any file; the rename replaces any other entry, a link or a
    FIFO too. An OSError of the open or of the rename names path as given,
    not the temporary file; errors raised in the block pass through."""
    name = os.fspath(path)
    if not name or os.path.isdir(name):
        code = errno.EISDIR if name else errno.ENOENT
        raise OSError(code, os.strerror(code), name)
    head, tail = os.path.split(os.fsdecode(name))
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with _naming(name):
            fh = open(tmp, mode, **kwargs)
        with fh:
            yield fh
        with _naming(name):
            os.replace(tmp, name)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
