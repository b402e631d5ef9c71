"""The shared CLI surface: one --version string, one exit-code epilog.

Every console script in ``pyproject.toml`` — ``repro-experiments``,
``repro-fuzz``, ``repro-trace``, ``repro-attack`` and ``repro-scan`` —
builds its parser through
:func:`repro.runtime.cliutil.build_parser`, so all five tools present the
same ``--version`` format and the same documented 0/1/2/3 contract.
``_SURFACE`` pins every option, short flag, default and metavar.
``_CLIS`` is cross-checked against the ``[project.scripts]`` table so a
new entry point cannot ship without joining the shared surface.
"""

import argparse
import re
from pathlib import Path

import pytest

from repro import __version__
from repro.errors import (
    CampaignInterrupted,
    ConfigError,
    ReproError,
    UnknownExperimentError,
)
from repro.runtime.cliutil import EXIT_CODE_EPILOG, build_parser, version_string

_CLIS = {
    "repro-experiments": "repro.experiments.runner",
    "repro-fuzz": "repro.fuzz.cli",
    "repro-trace": "repro.telemetry.cli",
    "repro-attack": "repro.attacks.cli",
    "repro-scan": "repro.static.cli",
}

#: Every CLI's options: "[subcommand ]option strings" -> (default, type,
#: metavar).  Shared flag helpers must reproduce this table exactly.
_SURFACE = {
    "repro-experiments": {
        "names": (None, None, None), "--list": (False, None, None),
        "--all": (False, None, None), "--jobs -j": (1, int, "N"),
        "--json": (None, None, "DIR"), "--seed": (None, int, None),
        "--no-cache": (False, None, None),
        "--cache-dir": (".repro-cache", None, "DIR"), "--cost": (None, None, "TIERS"),
        "--timeout": (None, float, "SECONDS"), "--retries": (2, int, "N"),
        "--resume": (False, None, None), "--stable-meta": (False, None, None),
        "--metrics": (False, None, None), "--chaos": (None, None, "SPEC"),
    },
    "repro-fuzz": {
        "--budget": (100, int, "N"), "--seed": (0, int, None),
        "--jobs -j": (1, int, "N"), "--cpu-model": (None, None, "NAME"),
        "--mitigation": ("none,ssbd", None, "LIST"),
        "--out": ("fuzz-findings.jsonl", None, "FILE"),
        "--corpus-dir": (".repro-corpus", None, "DIR"),
        "--no-corpus": (False, None, None), "--no-shrink": (False, None, None),
        "--trace-findings": (False, None, None), "--metrics": (False, None, None),
        "--inject": (None, None, "HOOK"), "--timeout": (None, float, "SECONDS"),
        "--retries": (2, int, "N"), "--resume": (False, None, None),
        "--chaos": (None, None, "SPEC"),
    },
    "repro-trace": {
        "record targets": (None, None, None), "record --out": (None, None, "DIR"),
        "record --seed": (None, int, None),
        "record --mitigation": ("none", None, None),
        "record --model": (None, None, None), "record --jobs -j": (1, int, "N"),
        "summarize trace": (None, None, None),
        "summarize --json": (False, None, None), "diff left": (None, None, None),
        "diff right": (None, None, None), "diff --ignore": ("", None, "FIELDS"),
        "diff --context": (3, int, None), "export trace": (None, None, None),
        "export --format": ("chrome", None, None),
        "export --out": (None, None, "PATH"),
    },
    "repro-attack": {
        "channel --channel": ("stl", None, None), "channel --width": (2, int, "BITS"),
        "channel --repeat": (1, int, "N"), "channel --payload-bytes": (8, int, "N"),
        "channel --noise": (0.0, float, "P"),
        "channel --interference": (None, None, "PRESET"),
        "channel --resync": (False, None, None), "channel --seed": (7, int, None),
        "channel --json": (False, None, None), "channel --out": (None, None, "FILE"),
        "leak --mitigation": ("none", None, None),
        "leak --secret": (None, None, "TEXT"), "leak --seed": (2024, int, None),
        "leak --redundancy": (1, int, "N"), "leak --slide-pages": (16, int, "N"),
        "leak --collision-budget": (8500, int, "N"),
        "leak --interference": (None, None, "PRESET"),
        "leak --no-hardening": (False, None, None),
        "leak --json": (False, None, None), "leak --out": (None, None, "FILE"),
        "aslr --seed": (4242, int, None), "aslr --window-bits": (12, int, "N"),
        "aslr --region-pages": (40, int, "N"), "aslr --json": (False, None, None),
        "aslr --out": (None, None, "FILE"), "verify report": (None, None, None),
    },
    "repro-scan": {
        "scan targets": (None, None, None), "scan --verbose -v": (False, None, None),
        "scan --mitigation": ("none,ssbd,fence", None, "LIST"),
        "scan --budget": (0, int, "N"), "scan --seed": (0, int, None),
        "scan --jobs -j": (1, int, "N"),
        "scan --out": ("scan-findings.jsonl", None, "FILE"),
        "scan --corpus-dir": (".repro-corpus", None, "DIR"),
        "scan --no-corpus": (False, None, None),
        "scan --timeout": (None, float, "SECONDS"), "scan --retries": (2, int, "N"),
        "scan --progress": (False, None, None), "advise targets": (None, None, None),
        "advise --verbose -v": (False, None, None),
        "crossval --mitigation": ("none,ssbd,fence", None, "LIST"),
        "crossval --budget": (0, int, "N"), "crossval --seed": (0, int, None),
        "crossval --findings": ([], None, "FILE"),
        "crossval --cpu-model": (None, None, "NAME"),
        "crossval --jobs -j": (1, int, "N"), "crossval --out": ("", None, "FILE"),
        "crossval --corpus-dir": (".repro-corpus", None, "DIR"),
        "crossval --no-corpus": (False, None, None),
        "crossval --timeout": (None, float, "SECONDS"),
        "crossval --retries": (2, int, "N"),
        "crossval --progress": (False, None, None),
    },
}


#: One bad invocation per CLI, given a path that does not exist.
_BAD_USAGE = {
    "repro-experiments": lambda _: ["fig4", "--no-cache", "--chaos", "explode@fig4"],
    "repro-fuzz": lambda missing: ["--budget", "0", "--mitigation", "prayer",
                                   "--out", str(missing), "--no-corpus"],
    "repro-scan": lambda _: ["crossval", "--mitigation", "prayer"],
    "repro-trace": lambda missing: ["diff", str(missing), str(missing)],
    "repro-attack": lambda missing: ["verify", str(missing)],
}


class _Parsed(Exception):
    """Carries the parser out of ``main`` at its ``parse_args`` call."""


def _surface(parser, prefix=""):
    table = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                table.update(_surface(sub, f"{name} "))
        elif not isinstance(action, (argparse._HelpAction, argparse._VersionAction)):
            key = prefix + (" ".join(action.option_strings) or action.dest)
            table[key] = (action.default, action.type, action.metavar)
    return table


def test_clis_match_pyproject_scripts():
    pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
    text = pyproject.read_text(encoding="utf-8")
    section = text.split("[project.scripts]", 1)[1].split("[", 1)[0]
    declared = dict(re.findall(r'^([\w-]+) = "([\w.]+):main"', section, re.M))
    assert declared == _CLIS


class TestBuildParser:
    def test_epilog_documents_all_four_codes(self):
        for code in range(4):
            assert f"\n  {code}  " in "\n" + EXIT_CODE_EPILOG

    def test_tool_epilog_goes_above_the_contract(self):
        parser = build_parser("x", "desc", epilog="tool specifics")
        assert parser.epilog.index("tool specifics") \
            < parser.epilog.index("exit codes:")

    def test_version_string_carries_package_version(self):
        assert version_string("repro-x") == f"repro-x (repro) {__version__}"


@pytest.mark.parametrize("prog,module", sorted(_CLIS.items()))
class TestUnifiedSurface:
    def _main(self, module):
        import importlib

        return importlib.import_module(module).main

    def test_version_flag(self, prog, module, capsys):
        with pytest.raises(SystemExit) as exc:
            self._main(module)(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.strip() == version_string(prog)

    def test_help_states_the_exit_code_contract(self, prog, module, capsys):
        with pytest.raises(SystemExit) as exc:
            self._main(module)(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "exit codes:" in out
        for line in EXIT_CODE_EPILOG.splitlines():
            assert line in out

    def test_options_defaults_and_metavars_are_pinned(self, prog, module, monkeypatch):
        def capture(parser, *args, **kwargs):
            raise _Parsed(parser)

        monkeypatch.delenv("REPRO_RUNTIME_CHAOS", raising=False)
        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
        with pytest.raises(_Parsed) as parsed:
            self._main(module)([])
        assert _surface(parsed.value.args[0]) == _SURFACE[prog]

    @pytest.mark.parametrize("exc,code", [
        (ConfigError("bad flag"), 2),
        (UnknownExperimentError("fig99"), 2),
        (ReproError("broke"), 1),
        (KeyboardInterrupt(), 3),
        (CampaignInterrupted("stopped"), 3),
        (CampaignInterrupted("stopped", checkpoint="run.ckpt"), 3),
    ], ids=["config", "unknown", "repro", "ctrl-c", "no-ckpt", "ckpt"])
    def test_one_exit_code_table(self, prog, module, exc, code, monkeypatch, capsys):
        def fail(parser, *args, **kwargs):
            raise exc

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", fail)
        assert self._main(module)([]) == code
        err = capsys.readouterr().err
        assert err.startswith(f"{prog}: ")
        if code == 3 and getattr(exc, "checkpoint", None):
            assert f"written to run.ckpt; continue with: {prog} --resume" in err
        elif code == 3:
            assert "no checkpoint was written" in err and "--resume" not in err

    def test_bad_usage_exits_2(self, prog, module, tmp_path, capsys):
        assert self._main(module)(_BAD_USAGE[prog](tmp_path / "missing")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{prog}: ") and len(err.splitlines()) == 1
        assert not list(tmp_path.iterdir())

    def test_engine_flag_rejects_unknown_engine(self, prog, module, capsys):
        """There is one execution engine and no flag to choose it: a
        leftover ``--engine`` is a usage error, never silently ignored,
        and no CLI advertises it."""
        with pytest.raises(SystemExit) as exc:
            self._main(module)(["--engine", "bogus"])
        assert exc.value.code == 2
        capsys.readouterr()
        with pytest.raises(SystemExit):
            self._main(module)(["--help"])
        assert "--engine" not in capsys.readouterr().out
