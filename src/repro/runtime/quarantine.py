"""Corrupted-state quarantine: move aside, explain, count — never delete.

A cache entry, corpus case, artifact or checkpoint that fails schema
validation is evidence (of a crashed writer, a bad disk, or a bug in our
own serialization) and must not be silently destroyed the way the early
caches did.  :func:`quarantine` moves the offending file into
``<root>/quarantine/`` next to a ``*.reason`` sidecar describing why,
and callers count the event so campaign summaries can surface it.

Stores that scan their directory (the result cache, the corpus) must
skip :data:`QUARANTINE_DIR` so quarantined files are not re-read as
entries; they key their layout on two-hex-char shards, so the name can
never collide with a shard directory.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["QUARANTINE_DIR", "quarantine"]

QUARANTINE_DIR = "quarantine"


def quarantine(root: str | Path, path: str | Path, reason: str) -> Path | None:
    """Move ``path`` under ``<root>/quarantine/`` with a reason sidecar.

    Returns the quarantined path, or ``None`` when the move itself failed
    (in which case the file is left exactly where it was — a quarantine
    must never make things worse).  Name collisions get a numeric suffix
    so repeated quarantines of equally-named files all survive.
    """
    root = Path(root)
    path = Path(path)
    target_dir = root / QUARANTINE_DIR
    try:
        target_dir.mkdir(parents=True, exist_ok=True)
        dest = target_dir / path.name
        attempt = 0
        while dest.exists():
            attempt += 1
            dest = target_dir / f"{path.stem}.{attempt}{path.suffix}"
        os.replace(path, dest)
        dest.with_name(dest.name + ".reason").write_text(
            reason.rstrip() + "\n", encoding="utf-8"
        )
        return dest
    except OSError:
        return None
