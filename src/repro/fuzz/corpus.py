"""The persistent seed corpus.

A corpus entry is the full identity of one generated program — the
``(generator, seed, blocks)`` triple (programs are pure functions of it,
see :mod:`repro.fuzz.gen`) plus provenance.  Entries are stored one JSON
file each under a content-addressed layout borrowed from the experiment
result cache (``<root>/<key[:2]>/<key>.json``, key =
:func:`repro.runtime.atomic.content_key` of the identity fields), so
re-adding a known case is a no-op and two campaigns can share a corpus
directory without coordination.

The hand-written differential regressions that used to live as a table in
``tests/cpu/test_differential_regressions.py`` are promoted here as
:data:`REGRESSION_ENTRIES`; :func:`replay_order` puts them (and then any
on-disk entries) ahead of freshly generated programs, so every
``repro-fuzz`` run re-checks all historical counterexamples first.
:func:`program_set` appends the generated programs to that replay set:
it is the one program list ``repro-fuzz``, ``repro-scan`` and the
static cross-validation derive their tasks from.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.errors import ArtifactError
from repro.fuzz.gen import GENERATORS, derive_case
from repro.runtime.atomic import atomic_write_json, content_key
from repro.runtime.quarantine import QUARANTINE_DIR, quarantine

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_CORPUS_DIR",
    "CorpusEntry",
    "Corpus",
    "REGRESSION_ENTRIES",
    "program_set",
    "replay_order",
]

SCHEMA_VERSION = 1
DEFAULT_CORPUS_DIR = ".repro-corpus"


@dataclass(frozen=True)
class CorpusEntry:
    """One replayable program identity with provenance."""

    generator: str
    seed: int
    blocks: int
    label: str = ""
    origin: str = "campaign"  # "regression" | "campaign" | "generated"
    schema: int = field(default=SCHEMA_VERSION)

    def __post_init__(self) -> None:
        if self.generator not in GENERATORS:
            known = ", ".join(sorted(GENERATORS))
            raise ArtifactError(
                f"corpus entry names unknown generator {self.generator!r}; "
                f"known: {known}"
            )

    @property
    def key(self) -> str:
        """Content address over the program identity (not the label, so
        relabeling a case cannot duplicate it)."""
        return content_key(
            {
                "generator": self.generator,
                "seed": self.seed,
                "blocks": self.blocks,
                "schema": self.schema,
            }
        )

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "generator": self.generator,
            "seed": self.seed,
            "blocks": self.blocks,
            "label": self.label,
            "origin": self.origin,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CorpusEntry":
        try:
            schema = data["schema"]
            if schema != SCHEMA_VERSION:
                raise ArtifactError(
                    f"corpus entry schema {schema} unsupported "
                    f"(this build reads {SCHEMA_VERSION})"
                )
            return cls(
                generator=data["generator"],
                seed=int(data["seed"]),
                blocks=int(data["blocks"]),
                label=str(data.get("label", "")),
                origin=str(data.get("origin", "campaign")),
                schema=schema,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ArtifactError(f"malformed corpus entry: {exc!r}") from exc


#: The pinned differential-fuzzing regressions.  Each seed once exposed a
#: pipeline bug; they stay in the corpus so the bugs stay dead:
#:
#: * 42363 — a G-squash rewinding past an open branch window left the
#:   stale window armed; its later closure restored wrong-path state.
#: * 200104 — a wrong-path store at the store-queue head committed to
#:   memory inside a branch window (nothing older blocked it).
#: * 200006 — a bypassing load was validated only against the *nearest*
#:   unresolved store; an older, slower-resolving aliasing store slipped
#:   its data past the load.
#: * 200058+ — the remaining failures of the first fuzzing campaign.
REGRESSION_ENTRIES: tuple[CorpusEntry, ...] = (
    CorpusEntry("diff-v1", 42363, 20,
                "stale branch window survives store squash", "regression"),
    CorpusEntry("diff-v1", 200104, 19,
                "wrong-path store commit inside branch window", "regression"),
    CorpusEntry("diff-v1", 200006, 26,
                "bypass misses older unresolved aliasing store", "regression"),
    CorpusEntry("diff-v1", 200058, 43, "campaign-0", "regression"),
    CorpusEntry("diff-v1", 200229, 39, "campaign-1", "regression"),
    CorpusEntry("diff-v1", 200322, 27, "campaign-2", "regression"),
    CorpusEntry("diff-v1", 200613, 38, "campaign-3", "regression"),
    CorpusEntry("diff-v1", 200860, 40, "campaign-4", "regression"),
)


class Corpus:
    """Filesystem-backed corpus, content-addressed like the result cache."""

    def __init__(self, root: str | Path = DEFAULT_CORPUS_DIR) -> None:
        self.root = Path(root)
        #: Corrupt entries moved to ``<root>/quarantine/`` by :meth:`entries`.
        self.quarantined = 0

    def _entry_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def add(self, entry: CorpusEntry) -> Path:
        """Persist ``entry`` atomically; adding a known case is a no-op."""
        path = self._entry_path(entry.key)
        if path.exists():
            return path
        return atomic_write_json(path, entry.to_dict())

    def entries(self) -> list[CorpusEntry]:
        """Every stored entry, sorted by content key (stable replay order).

        A corrupt file behaves as absent, but is quarantined under
        ``<root>/quarantine/`` with a reason file (and counted in
        :attr:`quarantined`) rather than deleted — the same discipline
        the result cache applies.
        """
        found: list[tuple[str, CorpusEntry]] = []
        if not self.root.exists():
            return []
        for path in sorted(self.root.glob("*/*.json")):
            if path.parent.name == QUARANTINE_DIR:
                continue
            try:
                entry = CorpusEntry.from_dict(
                    json.loads(path.read_bytes().decode("utf-8"))
                )
            except (json.JSONDecodeError, UnicodeDecodeError, KeyError,
                    ArtifactError, OSError) as exc:
                if quarantine(self.root, path, f"corpus entry: {exc!r}"):
                    self.quarantined += 1
                continue
            found.append((entry.key, entry))
        return [entry for _, entry in sorted(found, key=lambda pair: pair[0])]

    def clear(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(
            1 for path in self.root.glob("*/*.json")
            if path.parent.name != QUARANTINE_DIR
        )


def replay_order(corpus: Corpus | None = None) -> list[CorpusEntry]:
    """Entries every campaign replays before generating new programs:
    the built-in regressions first, then on-disk cases (deduplicated)."""
    ordered = list(REGRESSION_ENTRIES)
    if corpus is not None:
        known = {entry.key for entry in ordered}
        for entry in corpus.entries():
            if entry.key not in known:
                known.add(entry.key)
                ordered.append(entry)
    return ordered


def program_set(
    replay: Sequence[CorpusEntry], budget: int, seed: int
) -> list[tuple[str, CorpusEntry]]:
    """A campaign's programs in task order, each with its source.

    ``("corpus", entry)`` for every ``replay`` entry, then for each index
    ``i < budget`` the ``fuzz-v1`` and the ``oracle-v1`` program of
    :func:`~repro.fuzz.gen.derive_case` ``(seed, i)``, both labelled
    ``gen-{i}`` and sourced ``"generated"``.
    """
    programs = [("corpus", entry) for entry in replay]
    for index in range(budget):
        program_seed, blocks = derive_case(seed, index)
        for generator in ("fuzz-v1", "oracle-v1"):
            entry = CorpusEntry(generator, program_seed, blocks,
                                label=f"gen-{index}", origin="generated")
            programs.append(("generated", entry))
    return programs
