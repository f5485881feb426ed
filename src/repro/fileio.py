"""Atomic file replacement for every on-disk artifact.

Checkpoints, cache entries, BENCH trajectories and traces are all
written through :func:`atomic_write`: the new content goes to a sibling
temp file that is renamed over the target only once it is complete, so
a reader (or a resumed run) sees the old file or the new one, never a
torn one.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import BinaryIO, Callable


def atomic_write(
    path: str | Path, data: str | bytes | Callable[[BinaryIO], None]
) -> Path:
    """Replace ``path`` with ``data`` through a temp file and a rename.

    ``data`` is the whole new content (text is written as UTF-8) or a
    callable that streams it into the open binary handle.  If writing
    raises, the temp file is removed and ``path`` keeps its previous
    bytes.  Missing parent directories are created.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Unique per process and thread, so concurrent writers never share
    # a temp file.
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            if isinstance(data, str):
                handle.write(data.encode("utf-8"))
            elif isinstance(data, bytes):
                handle.write(data)
            else:
                data(handle)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
