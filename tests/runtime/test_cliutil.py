"""The shared CLI surface: one --version string, one exit-code epilog.

Every console script in ``pyproject.toml`` — ``repro-experiments``,
``repro-fuzz``, ``repro-trace``, ``repro-attack`` and ``repro-scan`` —
builds its parser through
:func:`repro.runtime.cliutil.build_parser`, so all five tools present the
same ``--version`` format and the same documented 0/1/2/3 contract.
``_CLIS`` is cross-checked against the ``[project.scripts]`` table so a
new entry point cannot ship without joining the shared surface.
"""

import re
from pathlib import Path

import pytest

from repro import __version__
from repro.runtime.cliutil import EXIT_CODE_EPILOG, build_parser, version_string

_CLIS = {
    "repro-experiments": "repro.experiments.runner",
    "repro-fuzz": "repro.fuzz.cli",
    "repro-trace": "repro.telemetry.cli",
    "repro-attack": "repro.attacks.cli",
    "repro-scan": "repro.static.cli",
}


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
