"""Content-addressed cache for experiment results.

A campaign re-run should not repeat work whose inputs have not changed.
Every experiment is a pure function of (driver, seed, platform model,
code), so the cache key is the SHA-256 of exactly those inputs,
canonically serialized:

* **experiment name** — the registry key, which pins the driver;
* **seed** — the effective seed the driver ran with;
* **CpuModel** — every field of the platform config (a frozen dataclass;
  ``dataclasses.asdict`` recurses into the nested ``LatencyModel``), so
  editing a latency or queue size invalidates prior results;
* **source digest** — :func:`source_digest` of the ``repro`` package:
  the SHA-256 over every ``.py`` file's path and bytes, computed once
  per process.  Any edit to the code misses, so a result is never
  served from older code.

Entries are the same JSON documents as the artifacts in ``results/``
(:mod:`repro.experiments.artifacts`), stored under
``.repro-cache/<key[:2]>/<key>.json`` and written atomically
(:func:`repro.runtime.atomic.atomic_write_json`), so a SIGKILL mid-store
can never leave a truncated entry.  A corrupt or schema-incompatible
entry behaves as a miss and is **quarantined** — moved to
``.repro-cache/quarantine/`` with a reason file and counted in
:attr:`ResultCache.quarantined` — never silently deleted and never an
error.
"""

from __future__ import annotations

import functools
import hashlib
import json
import shutil
from dataclasses import asdict
from pathlib import Path

from repro.core.config import CpuModel, default_model
from repro.errors import ArtifactError
from repro.experiments.base import ExperimentResult
from repro.runtime.atomic import atomic_write_json, content_key
from repro.runtime.quarantine import QUARANTINE_DIR, quarantine

__all__ = [
    "ResultCache",
    "cache_key",
    "code_digest",
    "source_digest",
    "DEFAULT_CACHE_DIR",
]

DEFAULT_CACHE_DIR = ".repro-cache"

#: The ``repro`` package directory, whose sources :func:`code_digest` hashes.
_PACKAGE_ROOT = Path(__file__).resolve().parent.parent


def source_digest(root: Path) -> str:
    """SHA-256 over every ``.py`` file under ``root``: each file's
    relative path and bytes, in sorted path order."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


@functools.cache
def code_digest() -> str:
    """:func:`source_digest` of the running ``repro`` package, once per process."""
    return source_digest(_PACKAGE_ROOT)


def cache_key(name: str, seed: int | None, model: CpuModel | None = None) -> str:
    """Derive the content address for one experiment configuration."""
    return content_key(
        {
            "experiment": name,
            "seed": seed,
            "model": asdict(model or default_model()),
            "code": code_digest(),
        }
    )


class ResultCache:
    """Filesystem-backed result store keyed by :func:`cache_key`."""

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        #: Corrupt entries moved to ``<root>/quarantine/`` by :meth:`get`;
        #: surfaced in the campaign summary and manifest.
        self.quarantined = 0

    def _entry(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> ExperimentResult | None:
        """Return the cached result for ``key``, or None on a miss.

        A hit is returned with ``cache_hit=True`` so downstream rendering
        and manifests can tell replayed results from fresh ones.  An
        entry that exists but cannot be decoded or validated is a miss
        too, but the evidence is preserved: the file moves to the
        quarantine directory and :attr:`quarantined` is bumped.
        """
        path = self._entry(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            self.misses += 1
            return None
        try:
            data = json.loads(raw.decode("utf-8"))
            result = ExperimentResult.from_dict(data)
        except (json.JSONDecodeError, UnicodeDecodeError, KeyError,
                ArtifactError, OSError) as exc:
            if quarantine(self.root, path, f"cache entry {key}: {exc!r}"):
                self.quarantined += 1
            self.misses += 1
            return None
        self.hits += 1
        result.cache_hit = True
        return result

    def put(self, key: str, result: ExperimentResult) -> Path:
        """Store ``result`` under ``key`` atomically and durably."""
        stored = result.to_dict()
        stored["cache_hit"] = False  # the stamp is per-run, not part of content
        return atomic_write_json(self._entry(key), stored)

    def clear(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(
            1 for path in self.root.glob("*/*.json")
            if path.parent.name != QUARANTINE_DIR
        )
