"""Write-temp-then-rename: an artifact is replaced only by a complete new one."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path, mode: str = "wb", newline: str | None = None):
    """Yield a file on a temporary sibling of `path` that replaces `path` on success.

    If the block raises, `path` keeps its previous content and the temporary
    file is removed.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
