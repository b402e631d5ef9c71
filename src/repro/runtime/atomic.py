"""Atomic file persistence and the one canonical JSON serialization.

Every on-disk JSON document the campaign engines produce — result-cache
entries, corpus entries, experiment artifacts, campaign manifests,
findings JSONL — goes through these two writers, so a SIGKILL at any
instant leaves either the previous complete file or the new complete
file, never a truncated one.  The checkpoint journal of both campaigns
(:mod:`repro.runtime.journal`) is created here once per campaign and
then only appended to, one fsync'd line per task; its reader
quarantines a torn last line.  The tmp file is created with
:func:`tempfile.mkstemp` in the destination directory (same filesystem,
so the final ``os.replace`` is atomic; unique name, so two campaigns
sharing a cache or corpus directory cannot clobber each other's
half-written staging files).

:func:`canonical` (sorted keys, fixed separators) is the serialization
of every byte-compared JSONL line — findings, scan records, traces,
journal lines — and :func:`content_key` hashes it into the content
address of result-cache entries, corpus cases, journal fingerprints and
equivalence digests.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any

__all__ = ["atomic_write_text", "atomic_write_json", "canonical", "content_key"]


def canonical(data: Any) -> str:
    """The one canonical JSON serialization: sorted keys, no whitespace."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def content_key(payload: Any) -> str:
    """SHA-256 of :func:`canonical` ``payload``: identical inputs get
    identical keys no matter which run produced them."""
    return hashlib.sha256(canonical(payload).encode("utf-8")).hexdigest()


def atomic_write_text(path: str | Path, text: str) -> Path:
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
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
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


def atomic_write_json(path: str | Path, payload: Any) -> Path:
    """Serialize ``payload`` canonically (sorted keys) and write it atomically.

    The JSON persistence primitive: the result cache, the corpus,
    experiment artifacts and campaign manifests all call this.  The
    checkpoint journal, one JSON line per record, is created with
    :func:`atomic_write_text` — the same durability path.
    """
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return atomic_write_text(path, text)
