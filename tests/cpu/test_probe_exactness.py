"""Exactness pin for one code-sliding scan (paper Fig 3, Section IV-B).

Code sliding runs the attacker's stld once per slide offset, so the
cost of one short ``Machine.run`` sets the cost of every attack.  This
test pins everything such a scan leaves behind: a fixed 181-offset scan
on ``Machine(seed=1)`` that ends on a hit, with the hit's verify reads
and the recharge.  Any change to the simulator's observables shows up
as a new digest:

* the hardware thread's cycle counter and its PMC bank;
* the predictor unit's execution-type counts and live PSFP/SSBP entries;
* the run's ``pipeline.*`` metrics, ``pipeline.run_cycles`` included;
* the core RNG state (one draw per timer reading);
* the event stream of the same scan recorded with a tracer attached.
"""

import dataclasses
import hashlib

from repro import telemetry
from repro.attacks.collision import SsbpCollisionFinder
from repro.attacks.runtime import AttackerStld
from repro.cpu.machine import Machine
from repro.osm.address_space import Perm
from repro.runtime.atomic import canonical, content_key
from repro.telemetry.metrics import registry

#: The first colliding slide offset of this rig is 0x528; the scan
#: starts 180 offsets before it.
_START = 0x528 - 180


class _DigestSink:
    """A trace sink that keeps only a running SHA-256 of the events."""

    def __init__(self) -> None:
        self.hash = hashlib.sha256()
        self.events = 0

    def emit(self, event) -> None:
        self.hash.update(canonical(event).encode("utf-8"))
        self.events += 1

    def close(self) -> None:
        pass


def _scan() -> dict:
    """Calibrate an attacker, charge a target and slide onto its hit."""
    machine = Machine(seed=1)
    process = machine.kernel.create_process("attacker")
    attacker = AttackerStld(machine, process, slide_pages=2)
    region = machine.kernel.map_anonymous(process, pages=2, perms=Perm.RX, kind="code")
    target = attacker.template.relocate(region + 96)
    finder = SsbpCollisionFinder(attacker, lambda: attacker.charge_c3(target))
    before = registry().snapshot()
    result = finder.find(start_offset=_START, max_attempts=200)
    metrics = registry().delta_since(before)
    thread = machine.core.thread(0)
    unit = thread.unit
    return {
        "hit": [result.iva - attacker.slide_base, result.attempts, attacker.runs],
        "cycles": thread.cycles,
        "pmc": dict(thread.pmc.counts),
        "exec_types": {t.name: n for t, n in unit.exec_type_counts.items()},
        "psfp": [dataclasses.asdict(e) for e in unit.psfp.entries()],
        "ssbp": [dataclasses.asdict(e) for e in unit.ssbp.entries()],
        "metrics": {
            kind: {k: v for k, v in values.items() if k.startswith("pipeline.")}
            for kind, values in metrics.items()
        },
        "rng": machine.core.rng.getstate(),
    }


def test_scan_ends_on_the_collision():
    # [slide offset, attempts, stld runs including calibration]
    assert _scan()["hit"] == [0x528, 181, 404]


def test_scan_state_and_trace_match_pinned_digests():
    state = _scan()
    sink = _DigestSink()
    with telemetry.recording(sink):
        traced = _scan()
    assert traced == state
    assert (content_key(state), sink.events, sink.hash.hexdigest()) == (
        "462e1e4fcfdafd96430462c819b49856092bc997830a35b0314118e282ffd4d8",
        32324,
        "132911911bd96de665a5d45755f77060763b6e04ec66204d3307a4d5023d10a9",
    )
