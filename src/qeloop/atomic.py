"""Whole-file replacement: a reader of the path sees the old file or the
new one, never a part of the new one."""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager
from typing import IO, Iterator


@contextmanager
def atomic_open(path) -> Iterator[IO[str]]:
    """Yield a text file that replaces ``path`` once the block completes.

    The data goes to a temporary file beside ``path``, which ``os.replace``
    then moves over it. If the block raises, the temporary file is removed
    and ``path`` keeps its previous bytes. This guards against a process
    failing mid-write; without an fsync it does not guard against power loss.
    """
    path = os.fspath(path)
    tmp = f"{path}.{secrets.token_hex(4)}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise

