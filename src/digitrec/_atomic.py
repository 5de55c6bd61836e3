"""Atomic file output, shared by every writer in the package."""

import contextlib
import errno
import os


def check_output(path) -> None:
    """Raise the OSError that writing path would meet, before any work is
    done: the name must not be empty or an existing directory, and its
    parent must be an existing directory."""
    name = os.fspath(path)
    parent = os.path.dirname(name) or "."
    if not name:
        code = errno.ENOENT
    elif os.path.isdir(name):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    else:
        return
    raise OSError(code, os.strerror(code), name)


@contextlib.contextmanager
def _naming(path):
    """Re-raise an OSError as one about path, the name the caller gave."""
    try:
        yield
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from exc


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """open() for writing a temporary file beside path, renamed over path
    by os.replace once the block succeeds and removed if it raises. An
    OSError of the open or of the rename names path, not the temporary
    file; errors raised in the block pass through as they are."""
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with _naming(path):
            fh = open(tmp, mode, **kwargs)
        with fh:
            yield fh
        with _naming(path):
            os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
