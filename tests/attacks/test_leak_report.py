"""The accuracy every leak report shares (repro.attacks.leak_report)."""

import pytest

from repro.attacks.extraction import ExtractionReport
from repro.attacks.spectre_ctl import CtlLeakReport
from repro.attacks.spectre_stl import LeakReport
from repro.attacks.spectre_stl_inplace import InPlaceLeakReport

TIMED = {"cycles": 3_700, "clock_ghz": 3.7}
REPORTS = {
    "LeakReport": lambda **kw: LeakReport(**TIMED, **kw),
    "CtlLeakReport": lambda **kw: CtlLeakReport(**TIMED, **kw),
    "InPlaceLeakReport": lambda **kw: InPlaceLeakReport(victim_invocations=1, **kw),
    "ExtractionReport": lambda **kw: ExtractionReport(
        mitigation="none", redundancy=1, validation_attempts=1, **TIMED, **kw
    ),
}


@pytest.mark.parametrize("kind", sorted(REPORTS))
def test_accuracy_on_empty_and_partial_secrets(kind):
    build = REPORTS[kind]
    assert build(recovered=b"", expected=b"").accuracy == 1.0
    partial = build(recovered=b"\x11\x00\x33\x44", expected=b"\x11\x22\x33\x44")
    assert partial.accuracy == pytest.approx(0.75)
