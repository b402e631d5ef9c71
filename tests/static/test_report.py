"""Scan artifacts: canonical serialization and rendering."""

from repro.cpu.isa import Halt, Load, MovImm, Store
from repro.static.advisor import advise
from repro.static.gadgets import scan_program
from repro.runtime.atomic import canonical
from repro.static.report import (
    render_crossval,
    render_plan,
    render_scan,
)

LEAKY = [
    MovImm("v", 7),
    Store(base="buf", src="v"),
    Load("r0", base="buf"),
    Halt(),
]


class TestCanonical:
    def test_sorted_keys_fixed_separators(self):
        assert canonical({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'


class TestRendering:
    def test_render_scan_names_the_verdict(self):
        clean = render_scan(scan_program([Halt()], name="c"))
        assert "CLEAN" in clean
        dirty = render_scan(scan_program(LEAKY, name="d"), verbose=True)
        assert "gadget(s)" in dirty
        assert "stale-value-probe" in dirty
        assert "needs:" in dirty            # verbose mode prints preconditions

    def test_render_plan_reports_the_proof(self):
        text = render_plan(advise(LEAKY, name="p"))
        assert "1 fence(s)" in text
        assert "eliminated" in text

    def test_render_crossval_prints_matrix_and_verdict(self):
        from repro.static.crossval import CrossValReport

        sound = CrossValReport(rows=[{
            "case": 0, "source": "corpus", "generator": "g", "seed": 1,
            "blocks": 2, "label": "l", "mitigation": "none",
            "cell": "both-positive",
        }])
        assert "SOUND" in render_crossval(sound)
        violated = CrossValReport(rows=[{
            "case": 0, "source": "corpus", "generator": "g", "seed": 1,
            "blocks": 2, "label": "l", "mitigation": "none",
            "cell": "dynamic-only", "dynamic_kind": "leak",
        }])
        text = render_crossval(violated)
        assert "SOUNDNESS VIOLATIONS" in text and "seed=1" in text
