"""Sequence DSL for store-load pair experiments.

The paper describes experiments as compact sequences such as ``(7n, a)``:
seven non-aliasing stld executions followed by one aliasing execution.
Counter-organization experiments additionally annotate each stld with the
hashed values of its load and store IPAs, written :math:`n_x^y` (load hash
``x``, store hash ``y``).

This module provides a textual form of that notation:

``"7n, a"``
    seven ``n`` then one ``a``, all with load/store hash ids 0.
``"6a:0:1, 35n"``
    six aliasing pairs with load id 0 and store id 1 (:math:`a_0^1`),
    then 35 plain ``n``.

Execution-type strings use the same run-length notation: ``"4E, 3H"``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.core.exec_types import ExecType
from repro.errors import ReproError

__all__ = [
    "StldToken",
    "SequenceSyntaxError",
    "parse",
    "to_bools",
    "format_types",
]


class SequenceSyntaxError(ReproError):
    """A sequence string could not be parsed."""


@dataclass(frozen=True)
class StldToken:
    """One stld execution: aliasing or not, plus its hash-id annotations.

    ``load_id`` and ``store_id`` are symbolic identifiers (the subscripts
    and superscripts of the paper's :math:`n_x^y` notation), not hash
    values; experiments map ids to concrete IPAs.
    """

    aliasing: bool
    load_id: int = 0
    store_id: int = 0

    @property
    def kind(self) -> str:
        return "a" if self.aliasing else "n"

    def __str__(self) -> str:
        if self.load_id == 0 and self.store_id == 0:
            return self.kind
        return f"{self.kind}:{self.load_id}:{self.store_id}"


_TOKEN_RE = re.compile(
    r"^\s*(?P<count>\d+)?\s*(?P<kind>[na])"
    r"(?::(?P<load>\d+):(?P<store>\d+))?\s*$"
)


def parse(text: str) -> list[StldToken]:
    """Parse a sequence string into a flat list of tokens.

    >>> [str(t) for t in parse("2n, a:0:1")]
    ['n', 'n', 'a:0:1']
    """
    tokens: list[StldToken] = []
    for chunk in _split(text):
        match = _TOKEN_RE.match(chunk)
        if match is None:
            raise SequenceSyntaxError(f"bad sequence token: {chunk!r}")
        count = int(match.group("count") or 1)
        token = StldToken(
            aliasing=match.group("kind") == "a",
            load_id=int(match.group("load") or 0),
            store_id=int(match.group("store") or 0),
        )
        tokens.extend([token] * count)
    return tokens


def _split(text: str) -> Iterator[str]:
    stripped = text.strip()
    if stripped.startswith("(") and stripped.endswith(")"):
        stripped = stripped[1:-1]
    for chunk in stripped.split(","):
        chunk = chunk.strip()
        if chunk:
            yield chunk


def to_bools(text_or_tokens: str | Iterable[StldToken]) -> list[bool]:
    """Reduce a sequence to aliasing booleans (for the pure state machine).

    Raises :class:`SequenceSyntaxError` if any token carries a non-zero
    hash id, because those require a multi-entry simulation.
    """
    tokens = parse(text_or_tokens) if isinstance(text_or_tokens, str) else list(text_or_tokens)
    for token in tokens:
        if token.load_id != 0 or token.store_id != 0:
            raise SequenceSyntaxError(
                f"token {token} selects a non-default entry; "
                "use a PredictorUnit-level experiment instead"
            )
    return [token.aliasing for token in tokens]


def format_types(types: Sequence[ExecType]) -> str:
    """Render execution types in the paper's run-length notation.

    >>> format_types([ExecType.H, ExecType.H, ExecType.G])
    '2H, G'
    """
    return ", ".join(_runs([t.value for t in types]))


def _runs(symbols: list[str]) -> Iterator[str]:
    index = 0
    while index < len(symbols):
        symbol = symbols[index]
        run = 1
        while index + run < len(symbols) and symbols[index + run] == symbol:
            run += 1
        yield symbol if run == 1 else f"{run}{symbol}"
        index += run
