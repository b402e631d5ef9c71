"""Tests for the stld sequence DSL."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.exec_types import ExecType
from repro.revng.sequences import (
    SequenceSyntaxError,
    StldToken,
    format_types,
    parse,
    to_bools,
)


class TestParse:
    def test_single_token(self):
        assert parse("n") == [StldToken(aliasing=False)]

    def test_counted_token(self):
        assert parse("3a") == [StldToken(aliasing=True)] * 3

    def test_mixed(self):
        tokens = parse("2n, a")
        assert [t.kind for t in tokens] == ["n", "n", "a"]

    def test_annotated(self):
        (token,) = parse("a:0:1")
        assert token == StldToken(aliasing=True, load_id=0, store_id=1)

    def test_counted_annotated(self):
        tokens = parse("6a:0:1")
        assert len(tokens) == 6
        assert all(t.store_id == 1 for t in tokens)

    def test_parenthesised_paper_style(self):
        assert parse("(7n, a)") == parse("7n, a")

    def test_whitespace_tolerant(self):
        assert parse(" 2n ,a ") == parse("2n,a")

    def test_empty_chunks_ignored(self):
        assert parse("n,,a") == parse("n,a")

    @pytest.mark.parametrize("bad", ["x", "3", "n:1", "a:b:c", "-2n", "n a"])
    def test_bad_tokens_rejected(self, bad):
        with pytest.raises(SequenceSyntaxError):
            parse(bad)


class TestToBools:
    def test_plain(self):
        assert to_bools("n, a, n") == [False, True, False]

    def test_accepts_token_list(self):
        assert to_bools(parse("2a")) == [True, True]

    def test_rejects_annotated(self):
        with pytest.raises(SequenceSyntaxError):
            to_bools("a:0:1")


class TestFormatting:
    def test_format_types(self):
        types = [ExecType.H, ExecType.H, ExecType.G]
        assert format_types(types) == "2H, G"

    def test_types_roundtrip(self):
        types = [ExecType.E] * 4 + [ExecType.H] * 3 + [ExecType.G] + [ExecType.D] * 2
        assert format_types(types) == "4E, 3H, G, 2D"
        assert _expand(format_types(types)) == types


def _expand(text):
    """The execution types a run-length string like ``"4E, 3H"`` names."""
    return [
        ExecType(run[-1]) for run in text.split(", ") for _ in range(int(run[:-1] or 1))
    ]


sequences = st.lists(
    st.tuples(st.integers(1, 9), st.booleans(), st.integers(0, 3), st.integers(0, 3)),
    min_size=1,
    max_size=10,
)


class TestRoundtrips:
    @given(sequences)
    def test_parse_format_roundtrip(self, spec):
        tokens = [
            token
            for count, aliasing, load_id, store_id in spec
            for token in [StldToken(aliasing, load_id, store_id)] * count
        ]
        assert parse(", ".join(map(str, tokens))) == tokens

    @given(st.lists(st.sampled_from(list(ExecType)), min_size=1, max_size=40))
    def test_types_format_parse_roundtrip(self, types):
        text = format_types(types)
        assert _expand(text) == types
        runs = text.split(", ")
        # Each run is maximal: neighbouring runs name different types.
        assert all(a[-1] != b[-1] for a, b in zip(runs, runs[1:]))
