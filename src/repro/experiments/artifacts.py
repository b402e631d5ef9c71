"""JSON artifact I/O for experiment results.

Every campaign run can persist each :class:`ExperimentResult` as a JSON
document (``results/<name>.json`` by default) plus one campaign manifest
(``results/campaign.json``) describing the run as a whole — seeds, wall
times, cache hits, library version.  Artifacts are the machine-readable
counterpart of the text tables: EXPERIMENTS.md's measured-value tables
are regenerated from them (:mod:`repro.experiments.report`), and the
result cache (:mod:`repro.experiments.cache`) stores the same schema.

All writes go through :func:`repro.runtime.atomic.atomic_write_json`
(tmp file + fsync + ``os.replace``), so a reader never observes a
truncated document.  The runner writes the artifacts and the manifest
once per campaign; crash recovery is the checkpoint journal
(``<dir>/campaign.checkpoint.jsonl``, :mod:`repro.runtime.journal`),
which ``--resume`` replays.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from repro.errors import ArtifactError
from repro.experiments.base import ExperimentResult
from repro.runtime.atomic import atomic_write_json

__all__ = [
    "artifact_path",
    "write_artifact",
    "read_artifact",
    "load_artifacts",
    "write_manifest",
    "MANIFEST_NAME",
    "CHECKPOINT_NAME",
]

MANIFEST_NAME = "campaign.json"

#: The campaign's checkpoint journal (:mod:`repro.runtime.journal`); not
#: ``*.json``, so :func:`load_artifacts` never reads it as an artifact.
CHECKPOINT_NAME = "campaign.checkpoint.jsonl"


def artifact_path(directory: str | Path, name: str) -> Path:
    """Where the artifact for experiment ``name`` lives under ``directory``."""
    return Path(directory) / f"{name}.json"


def write_artifact(
    result: ExperimentResult, directory: str | Path, name: str | None = None
) -> Path:
    """Serialize ``result`` to ``<directory>/<name>.json`` and return the path.

    ``name`` defaults to the result's ``experiment_id``; the registry key
    is passed explicitly by the runner because a few drivers reuse an id
    (e.g. ``stl-inplace`` reports ``experiment_id`` of its own).
    """
    path = artifact_path(directory, name or result.experiment_id)
    return atomic_write_json(path, result.to_dict())


def read_artifact(path: str | Path) -> ExperimentResult:
    """Load one artifact; raises :class:`ArtifactError` on bad content."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ArtifactError(f"no artifact at {path}") from None
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"artifact {path} is not valid JSON: {exc}") from exc
    return ExperimentResult.from_dict(data)


def load_artifacts(directory: str | Path) -> dict[str, ExperimentResult]:
    """Read every ``*.json`` artifact in ``directory``, keyed by file stem.

    The campaign manifest is skipped; unreadable files raise.
    """
    directory = Path(directory)
    results: dict[str, ExperimentResult] = {}
    for path in sorted(directory.glob("*.json")):
        if path.name == MANIFEST_NAME:
            continue
        results[path.stem] = read_artifact(path)
    return results


def write_manifest(
    directory: str | Path, entries: Iterable[dict[str, Any]], **extra: Any
) -> Path:
    """Write the campaign manifest summarizing one runner invocation.

    ``entries`` is one dict per experiment (name, seed, wall time, cache
    hit, worker); ``extra`` lands at the top level (jobs, version, ...).
    """
    path = Path(directory) / MANIFEST_NAME
    payload = {"experiments": list(entries), **extra}
    return atomic_write_json(path, payload)
