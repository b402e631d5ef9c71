"""Atomic persistence, quarantine discipline, and the exit-code contract."""

import json

import pytest

from repro.runtime.atomic import atomic_write_json, atomic_write_text
from repro.runtime.exitcodes import (
    EXIT_FAILURES,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_USAGE,
    describe,
)
from repro.runtime.quarantine import QUARANTINE_DIR, quarantine


class TestAtomicWrite:
    def test_roundtrip_and_trailing_newline(self, tmp_path):
        path = atomic_write_json(tmp_path / "a.json", {"b": 1, "a": [2]})
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert json.loads(text) == {"a": [2], "b": 1}

    def test_sorts_keys_canonically(self, tmp_path):
        path = atomic_write_json(tmp_path / "a.json", {"z": 0, "a": 0})
        assert path.read_text().index('"a"') < path.read_text().index('"z"')

    def test_creates_parent_directories(self, tmp_path):
        path = atomic_write_text(tmp_path / "deep" / "er" / "f.txt", "x")
        assert path.read_text() == "x"

    def test_overwrites_existing_file(self, tmp_path):
        target = tmp_path / "f.json"
        atomic_write_json(target, {"v": 1})
        atomic_write_json(target, {"v": 2})
        assert json.loads(target.read_text()) == {"v": 2}

    def test_no_staging_files_left_behind(self, tmp_path):
        atomic_write_json(tmp_path / "f.json", {"v": 1})
        assert [p.name for p in tmp_path.iterdir()] == ["f.json"]

    def test_failed_serialization_leaves_no_tmp(self, tmp_path):
        with pytest.raises(TypeError):
            atomic_write_json(tmp_path / "f.json", {"bad": object()})
        assert not (tmp_path / "f.json").exists()
        assert list(tmp_path.glob("*.tmp")) == []


class TestQuarantine:
    def test_moves_file_with_reason_sidecar(self, tmp_path):
        victim = tmp_path / "ab" / "entry.json"
        victim.parent.mkdir()
        victim.write_text("{broken")
        dest = quarantine(tmp_path, victim, "not valid JSON")
        assert dest is not None
        assert not victim.exists()
        assert dest.parent == tmp_path / QUARANTINE_DIR
        assert dest.read_text() == "{broken"
        reason = dest.with_name(dest.name + ".reason")
        assert "not valid JSON" in reason.read_text()

    def test_name_collisions_all_survive(self, tmp_path):
        for i in range(3):
            victim = tmp_path / f"d{i}"
            victim.mkdir()
            victim = victim / "same.json"
            victim.write_text(str(i))
        dests = [
            quarantine(tmp_path, tmp_path / f"d{i}" / "same.json", "r")
            for i in range(3)
        ]
        assert len({d.name for d in dests}) == 3
        assert sorted(d.read_text() for d in dests) == ["0", "1", "2"]

    def test_missing_source_returns_none(self, tmp_path):
        assert quarantine(tmp_path, tmp_path / "ghost.json", "r") is None


class TestExitCodes:
    def test_contract_values(self):
        assert (EXIT_OK, EXIT_FAILURES, EXIT_USAGE, EXIT_INTERRUPTED) == (0, 1, 2, 3)

    def test_describe_known_and_unknown(self):
        assert "clean" in describe(EXIT_OK)
        assert "resume" in describe(EXIT_INTERRUPTED)
        assert "unknown" in describe(42)
