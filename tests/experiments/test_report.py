"""Measured-table regeneration from campaign artifacts."""

import pytest

from repro.experiments.base import ExperimentResult
from repro.experiments.report import (
    BEGIN_MARK,
    END_MARK,
    render_measured_table,
    update_markdown,
)


def result_with(metrics, rows=(("a", 1),), seed=5):
    result = ExperimentResult(
        experiment_id="demo", title="t", headers=["x", "y"]
    )
    for row in rows:
        result.add_row(*row)
    result.metrics.update(metrics)
    result.seed = seed
    result.wall_time_s = 0.5
    return result


class TestRenderAndUpdate:
    def test_table_contains_metrics_and_seed(self):
        table = render_measured_table({"demo": result_with({"acc": 0.995, "n": 64})})
        assert "| `demo` | 5 | 0.5s |" in table
        assert "acc=0.995" in table and "n=64" in table

    def test_update_markdown_rewrites_only_the_block(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text(f"intro\n\n{BEGIN_MARK}\nstale\n{END_MARK}\n\noutro\n")
        changed = update_markdown(doc, {"demo": result_with({"acc": 1.0})})
        text = doc.read_text()
        assert changed is True
        assert "stale" not in text
        assert "acc=1" in text
        assert text.startswith("intro") and text.rstrip().endswith("outro")
        assert update_markdown(doc, {"demo": result_with({"acc": 1.0})}) is False

    def test_update_markdown_requires_markers(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("no markers here\n")
        with pytest.raises(SystemExit):
            update_markdown(doc, {})

