"""Channel coding for the covert channels: symbols, redundancy, framing.

The predictor and cache channels move *symbols* (``width``-bit values);
this module is the pure-software layer that turns payload bytes into a
symbol stream and back:

* **packing** — bytes are serialized LSB-first into ``width``-bit
  symbols (the natural order for a receiver assembling bits as they
  arrive);
* **redundancy** — an r-fold repetition code with *bitwise* majority
  decode (stronger than symbol-plurality for width > 1, because a
  symbol hit by independent bit flips still contributes its unharmed
  bits to the vote);
* **sync** — a preamble/length frame, so a receiver that attaches to
  the channel mid-stream (or behind lead-in noise) can find the payload
  without any out-of-band synchronization.

Everything here is deterministic and channel-agnostic; the capacity
harness composes it with the transports in :mod:`repro.attacks.channels`.
"""

from __future__ import annotations

from repro.errors import AttackError
from repro.telemetry.metrics import registry

__all__ = [
    "FramingError",
    "bytes_to_symbols",
    "symbols_to_bytes",
    "encode_repetition",
    "decode_repetition",
    "preamble_symbols",
    "frame_symbols",
    "deframe_symbols",
]

#: Width of the length field in bits (symbol counts up to 65535).
_LENGTH_BITS = 16


class FramingError(AttackError):
    """The receiver could not locate or parse a frame in the stream."""


def _check_width(width: int) -> None:
    if not 1 <= width <= 16:
        raise ValueError(f"symbol width must be in 1..16, got {width}")


def bytes_to_symbols(data: bytes, width: int) -> list[int]:
    """Serialize bytes LSB-first into ``width``-bit symbols.

    The final symbol is zero-padded when ``8 * len(data)`` is not a
    multiple of ``width``.

    >>> bytes_to_symbols(b"\\xb4", 2)
    [0, 1, 3, 2]
    """
    _check_width(width)
    symbols = []
    acc = bits = 0
    for byte in data:
        acc |= byte << bits
        bits += 8
        while bits >= width:
            symbols.append(acc & ((1 << width) - 1))
            acc >>= width
            bits -= width
    if bits:
        symbols.append(acc)
    return symbols


def symbols_to_bytes(symbols: list[int], width: int, length: int) -> bytes:
    """Reassemble ``length`` bytes from LSB-first ``width``-bit symbols."""
    _check_width(width)
    acc = bits = 0
    out = bytearray()
    for symbol in symbols:
        acc |= (symbol & ((1 << width) - 1)) << bits
        bits += width
        while bits >= 8 and len(out) < length:
            out.append(acc & 0xFF)
            acc >>= 8
            bits -= 8
    if len(out) < length:
        raise ValueError(
            f"{len(symbols)} symbols of width {width} hold fewer than "
            f"{length} bytes"
        )
    return bytes(out)


def encode_repetition(symbols: list[int], repeat: int) -> list[int]:
    """Repeat every symbol ``repeat`` times (r-fold repetition code)."""
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    return [symbol for symbol in symbols for _ in range(repeat)]


def decode_repetition(symbols: list[int], repeat: int, width: int) -> list[int]:
    """Bitwise-majority decode of an r-fold repetition stream.

    Each output bit is set when *strictly more* than half its ``repeat``
    copies are set, so an even split (possible for even ``repeat``)
    decodes to 0 — deterministic, and biased toward the channels' idle
    symbol.  A trailing partial group is decoded from the copies present.
    """
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    _check_width(width)
    decoded = []
    for start in range(0, len(symbols), repeat):
        group = symbols[start:start + repeat]
        value = 0
        for bit in range(width):
            votes = sum(symbol >> bit & 1 for symbol in group)
            if votes * 2 > len(group):
                value |= 1 << bit
        decoded.append(value)
    return decoded


def preamble_symbols(width: int, length: int = 8) -> list[int]:
    """The sync preamble: ``length`` symbols alternating all-ones/zero.

    The all-ones symbol exercises every bit lane of the channel, so a
    receiver that can read the preamble has demonstrably synchronized
    all ``width`` lanes, not just one.
    """
    _check_width(width)
    ones = (1 << width) - 1
    return [ones if index % 2 == 0 else 0 for index in range(length)]


def frame_symbols(
    payload: list[int], width: int, preamble_len: int = 8, repeat: int = 1
) -> list[int]:
    """Wrap payload symbols in a ``preamble + length + payload`` frame.

    With ``repeat > 1`` the length field *and* payload are protected by
    the repetition code; the preamble stays uncoded (it is the sync
    pattern the decoder aligns on, so it must keep its wire shape) but
    the fuzzy matching in :func:`deframe_symbols` absorbs errors there.
    """
    if len(payload) >= 1 << _LENGTH_BITS:
        raise ValueError(f"payload too long to frame: {len(payload)} symbols")
    length_field = bytes_to_symbols(
        len(payload).to_bytes(_LENGTH_BITS // 8, "little"), width
    )
    body = encode_repetition(length_field + payload, repeat)
    return preamble_symbols(width, preamble_len) + body


def deframe_symbols(
    stream: list[int],
    width: int,
    preamble_len: int = 8,
    repeat: int = 1,
    resync: bool = False,
) -> list[int]:
    """Locate the first frame in ``stream`` and return its payload.

    Scans for the earliest preamble occurrence (tolerating lead-in
    symbols from before the receiver attached).  The match is fuzzy: a
    window whose first symbol is the all-ones mark and that differs from
    the preamble in at most a quarter of ``preamble_len`` symbols counts
    — anchoring on the leading mark keeps idle zeros from producing an
    off-by-one false sync.  The body is then
    repetition-decoded (``repeat``) and the length field parsed.  Raises
    :class:`FramingError` when no complete frame exists.

    With ``resync=True`` (the hardened receiver), a sync point whose
    frame fails to parse — a noise window that happened to look like a
    preamble, or a corrupted length field announcing more symbols than
    the stream holds — is abandoned and the scan *continues* at the next
    candidate window instead of giving up, so one unlucky match no
    longer loses a recoverable frame further down the stream.  The
    first parse failure is re-raised only when no later sync point
    yields a frame.
    """
    preamble = preamble_symbols(width, preamble_len)
    tolerance = preamble_len // 4
    length_symbols = len(bytes_to_symbols(b"\x00" * (_LENGTH_BITS // 8), width))
    ones = (1 << width) - 1
    sync_failure: FramingError | None = None
    for start in range(len(stream) - len(preamble) + 1):
        window = stream[start:start + len(preamble)]
        if window[0] != ones:
            continue
        mismatches = sum(got != want for got, want in zip(window, preamble))
        if mismatches > tolerance:
            continue
        body = decode_repetition(
            stream[start + len(preamble):], repeat, width
        )
        field = body[:length_symbols]
        if len(field) < length_symbols:
            break
        count = int.from_bytes(
            symbols_to_bytes(field, width, _LENGTH_BITS // 8), "little"
        )
        payload = body[length_symbols:length_symbols + count]
        if len(payload) < count:
            error = FramingError(
                f"frame announces {count} payload symbols, "
                f"stream holds {len(payload)}"
            )
            if not resync:
                raise error
            if sync_failure is None:
                sync_failure = error
            registry().counter("attack.resync").inc()
            continue
        return payload
    if sync_failure is not None:
        raise sync_failure
    raise FramingError("no preamble found in the received stream")
