"""Persistent corpus + findings JSONL: round-trips, schema guards."""

import json

import pytest

from repro.errors import ArtifactError
from repro.fuzz.corpus import (
    REGRESSION_ENTRIES,
    Corpus,
    CorpusEntry,
    program_set,
    replay_order,
)
from repro.fuzz.findings import Finding, read_findings, write_findings
from repro.runtime.atomic import canonical
from repro.runtime.quarantine import QUARANTINE_DIR


class TestCorpus:
    def test_entry_round_trip(self):
        entry = CorpusEntry("fuzz-v1", 99, 17, label="x", origin="campaign")
        again = CorpusEntry.from_dict(entry.to_dict())
        assert again == entry

    def test_key_is_content_addressed_and_label_free(self):
        a = CorpusEntry("fuzz-v1", 99, 17, label="one")
        b = CorpusEntry("fuzz-v1", 99, 17, label="two", origin="regression")
        c = CorpusEntry("fuzz-v1", 100, 17)
        assert a.key == b.key
        assert a.key != c.key

    def test_unknown_generator_rejected(self):
        with pytest.raises(Exception):
            CorpusEntry("nope-v9", 1, 10)

    def test_schema_mismatch_rejected(self):
        data = CorpusEntry("fuzz-v1", 1, 10).to_dict()
        data["schema"] = 99
        with pytest.raises(ArtifactError):
            CorpusEntry.from_dict(data)

    def test_disk_round_trip_and_dedup(self, tmp_path):
        corpus = Corpus(tmp_path / "corpus")
        entry = CorpusEntry("oracle-v1", 5, 16, label="leak")
        corpus.add(entry)
        corpus.add(entry)  # idempotent
        assert len(corpus) == 1
        assert corpus.entries() == [entry]

    def test_corrupt_files_skipped_and_quarantined(self, tmp_path):
        corpus = Corpus(tmp_path / "corpus")
        corpus.add(CorpusEntry("fuzz-v1", 1, 10))
        junk = tmp_path / "corpus" / "zz"
        junk.mkdir(parents=True)
        (junk / "zzzz.json").write_text("{not json", encoding="utf-8")
        assert len(corpus.entries()) == 1
        # The corrupt file is preserved under quarantine/ with a reason
        # sidecar and counted — and no longer shadows the healthy corpus.
        assert corpus.quarantined == 1
        saved = corpus.root / QUARANTINE_DIR / "zzzz.json"
        assert saved.read_text() == "{not json"
        assert saved.with_name(saved.name + ".reason").exists()
        assert len(corpus) == 1
        assert len(corpus.entries()) == 1  # idempotent on a clean corpus

    def test_replay_order_regressions_first(self, tmp_path):
        corpus = Corpus(tmp_path / "corpus")
        fresh = CorpusEntry("fuzz-v1", 424242, 12)
        corpus.add(fresh)
        order = replay_order(corpus)
        assert order[: len(REGRESSION_ENTRIES)] == list(REGRESSION_ENTRIES)
        assert fresh in order[len(REGRESSION_ENTRIES):]
        # Built-ins replay even without a disk corpus.
        assert replay_order(None) == list(REGRESSION_ENTRIES)

    def test_program_set_appends_a_generated_pair_per_index(self):
        from repro.fuzz.gen import derive_case

        programs = program_set(REGRESSION_ENTRIES, 2, seed=1)
        replayed = len(REGRESSION_ENTRIES)
        assert programs[:replayed] == [("corpus", e) for e in REGRESSION_ENTRIES]
        generated = programs[replayed:]
        assert [(source, e.generator, e.label) for source, e in generated] == [
            ("generated", "fuzz-v1", "gen-0"), ("generated", "oracle-v1", "gen-0"),
            ("generated", "fuzz-v1", "gen-1"), ("generated", "oracle-v1", "gen-1"),
        ]
        assert [(e.seed, e.blocks) for _, e in generated] == [
            derive_case(1, 0), derive_case(1, 0), derive_case(1, 1), derive_case(1, 1),
        ]

    def test_regression_entries_match_historical_cases(self):
        assert [(e.seed, e.blocks) for e in REGRESSION_ENTRIES[:3]] == [
            (42363, 20),
            (200104, 19),
            (200006, 26),
        ]
        assert all(e.origin == "regression" for e in REGRESSION_ENTRIES)


def _finding(**overrides):
    data = dict(
        kind="leak",
        generator="oracle-v1",
        seed=5,
        blocks=16,
        cpu_model="ryzen9-5900x",
        mitigation="none",
        task=9,
        detail={"cached_lines": {"differing": 2, "offsets": [0, 64]}},
    )
    data.update(overrides)
    return Finding(**data)


class TestFindings:
    def test_round_trip(self, tmp_path):
        findings = [
            _finding(),
            _finding(
                kind="architectural-divergence",
                mitigation="ssbd",
                task=12,
                shrunk={"count": 3, "original_count": 80, "instructions": []},
            ),
        ]
        path = write_findings(tmp_path / "f.jsonl", findings)
        assert read_findings(path) == findings

    def test_canonical_line_is_stable_json(self):
        line = canonical(_finding().to_dict())
        assert line == canonical(_finding().to_dict())
        assert json.loads(line)["kind"] == "leak"
        assert ": " not in line  # canonical separators

    def test_unknown_kind_rejected(self):
        with pytest.raises(ArtifactError):
            _finding(kind="vibes")

    def test_schema_guard(self, tmp_path):
        path = tmp_path / "f.jsonl"
        data = _finding().to_dict()
        data["schema"] = 99
        path.write_text(json.dumps(data) + "\n", encoding="utf-8")
        with pytest.raises(ArtifactError):
            read_findings(path)

    def test_damaged_line_rejected(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text(canonical(_finding().to_dict()) + "\n{oops\n", encoding="utf-8")
        with pytest.raises(ArtifactError):
            read_findings(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ArtifactError):
            read_findings(tmp_path / "absent.jsonl")
