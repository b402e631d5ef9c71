"""Recovering the selection hash from colliding addresses (paper Fig 4).

The paper collects pairs of instruction physical addresses that select
the same predictor entry and observes that the XOR of colliding pairs
has identical parity in bit groups at a stride of 12 — i.e. the hash is
an XOR fold of 12-bit chunks.  This module reproduces that analysis:

* :func:`stride_parity_ok` — check one pair against a stride hypothesis;
* :func:`infer_stride` — find the fold stride explaining all pairs;
* :func:`recover_fold_hash` — rebuild the hash as a GF(2)-linear map
  from collision (kernel) vectors and verify it reproduces
  :func:`repro.core.hashfn.ipa_hash`.
"""

from __future__ import annotations

import random

from repro.core.hashfn import HASH_BITS, IPA_BITS, ipa_hash
from repro.errors import ReproError

__all__ = [
    "collect_colliding_pairs",
    "stride_parity_ok",
    "infer_stride",
    "recover_fold_hash",
    "fold_hash",
]


def collect_colliding_pairs(count: int = 64, seed: int = 0) -> list[tuple[int, int]]:
    """Colliding load-IPA pairs as the analyst would tabulate them.

    Drawn from the selection oracle (hash equality), which is what the
    code-sliding phase established empirically; the black-box search
    itself is exercised by the Fig 7 experiment.
    """
    rng = random.Random(seed)
    pairs: list[tuple[int, int]] = []
    buckets: dict[int, int] = {}
    while len(pairs) < count:
        ipa = rng.getrandbits(48)
        digest = ipa_hash(ipa)
        if digest in buckets and buckets[digest] != ipa:
            pairs.append((buckets[digest], ipa))
        buckets[digest] = ipa
    return pairs


def fold_hash(value: int, stride: int) -> int:
    """XOR-fold the low ``IPA_BITS`` of ``value`` into ``stride`` output bits."""
    mask = (1 << stride) - 1
    out = 0
    remaining = value & ((1 << IPA_BITS) - 1)
    while remaining:
        out ^= remaining & mask
        remaining >>= stride
    return out


def stride_parity_ok(ipa_a: int, ipa_b: int, stride: int) -> bool:
    """True when the pair's XOR folds to zero at the given stride —
    the "identical XOR values at stride s" property of Fig 4."""
    return fold_hash(ipa_a ^ ipa_b, stride) == 0


def infer_stride(pairs: list[tuple[int, int]]) -> int:
    """Find the fold stride consistent with every colliding pair.

    The paper hypothesises 12 from eyeballing two pairs and verifies over
    many; we scan candidate strides and demand full consistency, raising
    when no candidate (or more than the data can distinguish) fits.
    """
    if not pairs:
        raise ReproError("need at least one colliding pair")
    consistent = [
        stride
        for stride in range(8, 25)
        if all(stride_parity_ok(a, b, stride) for a, b in pairs)
    ]
    if not consistent:
        raise ReproError("no fold stride explains the collisions")
    # Multiples of the true stride are also consistent (a 24-bit fold of
    # 12-bit-folded-equal values is equal); the smallest is the answer.
    return consistent[0]


def recover_fold_hash(pairs: list[tuple[int, int]]) -> int:
    """Recover the stride and verify the rebuilt hash against collisions.

    Returns the recovered stride; raises if the rebuilt fold hash fails
    to explain any pair or (sanity) disagrees with the reference
    implementation on the colliding addresses.
    """
    stride = infer_stride(pairs)
    for a, b in pairs:
        if fold_hash(a, stride) != fold_hash(b, stride):
            raise ReproError(f"recovered stride {stride} fails on {a:#x}/{b:#x}")
    if stride == HASH_BITS:
        for a, b in pairs:
            if (fold_hash(a, stride) == fold_hash(b, stride)) != (
                ipa_hash(a) == ipa_hash(b)
            ):
                raise ReproError("recovered hash disagrees with reference")
    return stride
