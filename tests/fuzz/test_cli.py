"""The repro-fuzz campaign engine: determinism, replay, exit policy."""

import pytest

from repro.core.spec_ctrl import SpecCtrl
from repro.fuzz.cli import (
    build_tasks,
    main,
    regressions,
    run_fuzz_campaign,
)
from repro.fuzz.corpus import REGRESSION_ENTRIES, Corpus, replay_order
from repro.fuzz.findings import read_findings
from repro.fuzz.gen import derive_case

BUDGET = 4  # 4 generated cases x (differential + oracle) + corpus replays


def _campaign(tmp_path, tag, **kwargs):
    options = dict(
        budget=BUDGET,
        seed=1,
        corpus_dir=tmp_path / f"corpus-{tag}",
        shrink=False,
    )
    options.update(kwargs)
    return run_fuzz_campaign(**options)


def test_derive_case_deterministic_and_index_dependent():
    assert derive_case(1, 0) == derive_case(1, 0)
    assert derive_case(1, 0) != derive_case(1, 1)
    assert derive_case(1, 0) != derive_case(2, 0)


def test_tasks_replay_corpus_first():
    tasks = build_tasks(
        budget=2, seed=1, mitigations=["none"], model_name=None,
        replay=replay_order(None),
    )
    assert [t["origin"] for t in tasks[: len(REGRESSION_ENTRIES)]] == (
        ["corpus"] * len(REGRESSION_ENTRIES)
    )
    generated = tasks[len(REGRESSION_ENTRIES):]
    assert [t["check"] for t in generated] == [
        "differential", "oracle", "differential", "oracle",
    ]
    assert [t["task"] for t in tasks] == list(range(len(tasks)))


def test_serial_and_parallel_campaigns_identical(tmp_path):
    serial = _campaign(tmp_path, "serial", jobs=1)
    parallel = _campaign(tmp_path, "parallel", jobs=4)
    assert serial == parallel
    assert [f.kind for f in serial] == ["leak"] * len(serial)
    assert len(serial) >= 1, "expected the unmitigated pipeline to leak"


def test_campaign_findings_only_from_unmitigated_leaks(tmp_path):
    findings = _campaign(tmp_path, "clean")
    assert regressions(findings) == []
    assert all(f.mitigation == "none" for f in findings)


def test_injected_bug_found_shrunk_and_remembered(tmp_path):
    corpus_dir = tmp_path / "corpus-inject"
    findings = run_fuzz_campaign(
        budget=2, seed=1, corpus_dir=corpus_dir,
        mitigations=["none"], inject="skip-register-repair",
    )
    divergences = [f for f in findings if f.kind == "architectural-divergence"]
    assert divergences, "campaign missed the injected pipeline bug"
    assert regressions(findings)
    shrunk = [f for f in divergences if f.shrunk]
    assert shrunk, "divergences were not minimized"
    assert all(
        f.shrunk["count"] <= f.shrunk["original_count"] for f in shrunk
    )
    # Generated reproducers were added to the corpus for future replays.
    remembered = Corpus(corpus_dir).entries()
    generated = [f for f in divergences if f.origin == "generated"]
    assert {(f.seed, f.blocks) for f in generated} <= {
        (e.seed, e.blocks) for e in remembered
    }


def test_campaign_catches_a_broken_ssbd(monkeypatch):
    """Every oracle task runs dynamically, so a dead SSBD bit is a regression.

    The paper's Section VI mitigation is only as good as the simulator's
    enforcement of it: with SPEC_CTRL.SSBD reading 0 whatever was written,
    generated programs leak under ``ssbd`` and the campaign must say so.
    """
    options = dict(
        budget=2, seed=1, mitigations=("ssbd",), corpus_dir=None, shrink=False
    )
    assert run_fuzz_campaign(**options) == []

    monkeypatch.setattr(
        SpecCtrl, "ssbd", property(lambda self: False, SpecCtrl.ssbd.fset)
    )
    broken = regressions(run_fuzz_campaign(**options))
    assert broken, "campaign missed a disabled SSBD"
    assert all(f.kind == "leak" and f.mitigation == "ssbd" for f in broken)


def test_each_task_builds_its_program_once(monkeypatch):
    import repro.fuzz.cli as cli

    built = []
    build = cli.build_program
    monkeypatch.setattr(cli, "build_program", lambda *case: built.append(case) or build(*case))
    run_fuzz_campaign(budget=1, seed=1, mitigations=("none", "ssbd"),
                      corpus_dir=None, shrink=False)
    # 8 corpus replays + one fuzz-v1 and one oracle-v1 program, each built
    # once for both mitigations.
    assert len(built) == len(REGRESSION_ENTRIES) + 2
    assert len(set(built)) == len(built)


def test_unknown_mitigation_raises(tmp_path):
    with pytest.raises(Exception):
        _campaign(tmp_path, "bad", mitigations=["prayer"])


class TestMain:
    def test_clean_run_exit_zero_and_byte_identity(self, tmp_path, capsys):
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        code_a = main([
            "--budget", "2", "--seed", "1", "--jobs", "1", "--no-shrink",
            "--out", str(out_a), "--corpus-dir", str(tmp_path / "ca"),
        ])
        code_b = main([
            "--budget", "2", "--seed", "1", "--jobs", "3", "--no-shrink",
            "--out", str(out_b), "--corpus-dir", str(tmp_path / "cb"),
        ])
        assert code_a == code_b == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert read_findings(out_a) == read_findings(out_b)
        assert "clean" in capsys.readouterr().out

    def test_injected_bug_fails_the_run(self, tmp_path, capsys):
        code = main([
            "--budget", "1", "--seed", "1", "--mitigation", "none",
            "--inject", "skip-register-repair", "--no-shrink",
            "--out", str(tmp_path / "f.jsonl"), "--no-corpus",
        ])
        assert code == 1
        assert "REGRESSIONS" in capsys.readouterr().out
