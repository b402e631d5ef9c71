"""Atomic file persistence: tmp file + fsync + ``os.replace``.

Every on-disk JSON document the campaign engines produce — result-cache
entries, corpus entries, experiment artifacts, campaign manifests,
checkpoints, findings JSONL — goes through these two helpers, so a
SIGKILL at any instant leaves either the previous complete file or the
new complete file, never a truncated one.  The fuzz checkpoint journal
is created here once per campaign and then only appended to, one
fsync'd line per task (:mod:`repro.fuzz.cli`); its reader quarantines a
torn last line.  The tmp file is created with
:func:`tempfile.mkstemp` in the destination directory (same filesystem,
so the final ``os.replace`` is atomic; unique name, so two campaigns
sharing a cache or corpus directory cannot clobber each other's
half-written staging files).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any

__all__ = ["atomic_write_text", "atomic_write_json"]


def atomic_write_text(path: str | Path, text: str, *, encoding: str = "utf-8") -> Path:
    """Write ``text`` to ``path`` atomically and durably; returns the path.

    The content is flushed and fsynced before the rename, so after this
    returns the file is either absent/old (crash before the replace) or
    complete — a reader can never observe a partial write.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding=encoding) as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def atomic_write_json(path: str | Path, payload: Any, *, indent: int | None = 2) -> Path:
    """Serialize ``payload`` canonically (sorted keys) and write it atomically.

    The JSON persistence primitive: the result cache, the corpus,
    experiment artifacts and campaign manifests all call this.  The fuzz
    checkpoint journal, one JSON line per record, is created with
    :func:`atomic_write_text` — the same durability path.
    """
    text = json.dumps(payload, indent=indent, sort_keys=True) + "\n"
    return atomic_write_text(path, text)
