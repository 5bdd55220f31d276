"""Atomic file replacement for checkpoints and dataset files.

A writer fills a temporary file next to the target and renames it over
the target only once it is complete, so a write that fails part way
leaves the previous file as it was. This guards against a crash of the
writing process, not against power loss: nothing is fsynced.
"""

from __future__ import annotations

import os
import secrets
import stat
from contextlib import contextmanager
from typing import IO, Iterator


@contextmanager
def atomic_open(path: str, mode: str = "w", **kwargs) -> Iterator[IO]:
    """Open a temporary file in path's directory for writing; on a clean
    exit it replaces path, on an exception it is removed. As with a plain
    open, a symlinked path has its target replaced and an existing file
    keeps its permission bits."""
    path = os.path.realpath(path)
    try:
        keep_mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        keep_mode = None
    temp = f"{path}.{secrets.token_hex(4)}.tmp"
    # O_EXCL never reuses a stranger's file; 0o666 lets the umask set the
    # mode of a new file, as a plain open would
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, mode, **kwargs) as handle:
            if keep_mode is not None:
                os.fchmod(handle.fileno(), keep_mode)
            yield handle
        os.replace(temp, path)
    except BaseException:
        try:
            os.unlink(temp)
        except FileNotFoundError:
            pass
        raise
