"""The one atomic file writer: every artifact, ledger, lease, telemetry
shard, phase-cache and lint-cache file is written through it.

:func:`write_atomic` puts the text in a fresh temp file next to the
target (``tempfile.mkstemp``, so concurrent writers — other processes,
or other threads of this one — never share a temp path), then swaps it
in with ``os.replace``.  A reader sees the old file or the new one,
never a torn one, and a failed write removes its temp file.

Standard library only, so every layer (``obs`` and ``service``
included, which must not import ``camodel``) can use it.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def write_atomic(path: Path, text: str) -> None:
    """Replace *path* with *text* atomically; the directory must exist."""
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
