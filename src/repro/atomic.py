"""Atomic file publish shared by every on-disk store and manifest."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import Iterator


@contextlib.contextmanager
def atomic_path(path: str | Path) -> Iterator[Path]:
    """Yield a temp path beside ``path``; publish it there on success.

    Readers see the old file or the new one, never a torn one: the temp
    file (``.{name}.{pid}.tmp``, its directory created if missing)
    replaces ``path`` in one ``os.replace`` when the block exits
    cleanly, and is unlinked on any exception, leaving ``path`` as it
    was (a full disk or a failed serializer never leaves debris).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise
