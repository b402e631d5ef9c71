"""Victim gadgets (paper Listings 2 and 3).

These are the in-victim code patterns the attacks exploit, expressed in
the micro-ISA.  Both follow the paper exactly:

* Spectre-STL gadget (Listing 2)::

      array2[idx * 4096] = x;
      temp = array2[array1[array2[0]] * 4096];

  One store (address delayed through a cache-missing load of ``idx``)
  and three loads: the first receives ``x`` through a mistrained PSF
  forward, the second fetches the secret at ``array1 + x``, the third
  encodes it into a cache line for Flush+Reload.

* Spectre-CTL gadget (Listing 3)::

      array2[idx] = 0;
      temp = array2[array1[array2[idx2]]];

  The first load bypasses the store (mistrained SSBP) and reads the
  *stale* attacker-planted value at ``array2[idx2]``; the second fetches
  the secret; the third races the still-pending store and trains the
  SSBP entry — C3 charges only when ``secret == idx``, the covert channel.

:class:`StlVictim` is the one Listing 2 victim every Spectre-STL user
drives (the out-of-place attack, the in-place baseline and the ``stl``
trace target): its buffers, its gadget and its one call.
"""

from __future__ import annotations

from repro.attacks.flush_reload import FlushReloadChannel
from repro.cpu.isa import Alu, Clflush, Halt, ImulImm, Load, Mov, MovImm, Program, Store
from repro.cpu.machine import Machine
from repro.osm.process import Process

__all__ = [
    "spectre_stl_gadget",
    "spectre_ctl_gadget",
    "flush_line_program",
    "StlVictim",
    "STL_ATTACK_IDX",
]


def spectre_stl_gadget() -> Program:
    """The Listing 2 victim function.

    The store's address depends on ``idx`` loaded from memory; flushing
    that line delays address generation and opens the window.
    """
    return Program(
        [
            Load("idx", base="idx_ptr"),          # flushed -> slow AGEN
            ImulImm("soff", "idx", 4096),
            Alu("saddr", "array2", "soff", "add"),
            Store(base="saddr", src="x", width=8),     # the delayed store
            Load("t1", base="array2", offset=0),       # load 1: gets x via PSF
            Alu("a1addr", "array1", "t1", "add"),
            Load("t2", base="a1addr", width=1),        # load 2: the secret
            ImulImm("enc", "t2", 4096),
            Alu("eaddr", "array2", "enc", "add"),
            Load("t3", base="eaddr"),                  # load 3: cache-encode
            Halt(),
        ],
        name="victim-stl",
    )


def spectre_ctl_gadget() -> Program:
    """The Listing 3 victim function.

    The first load is pointer-wide (it carries the planted secret
    address, as in the paper's WebAssembly variant where
    ``spectreArgs[0]`` holds a full address); the second and third are
    byte-wide index chasing.  The covert channel is the third load's
    race against the pending store.
    """
    return Program(
        [
            Load("idx", base="idx_ptr"),               # flushed -> slow AGEN
            Alu("saddr", "array2", "idx", "add"),
            Mov("zero", "nil"),
            Store(base="saddr", src="zero", width=1),  # the delayed store
            Alu("laddr", "array2", "idx2_off", "add"),
            Load("t1", base="laddr", width=8),         # load 1: stale pointer
            Alu("a1addr", "array1", "t1", "add"),
            Load("t2", base="a1addr", width=1),        # load 2: the secret
            Alu("eaddr", "array2", "t2", "add"),
            Load("t3", base="eaddr", width=1),         # load 3: covert update
            Halt(),
        ],
        name="victim-ctl",
    )


def flush_line_program(va: int) -> Program:
    """``clflush`` the line at ``va``: the attacker's delay of a gadget's
    store, whose address waits on the flushed ``idx``."""
    return Program([MovImm("p", va), Clflush(base="p"), Halt()], name="flush-idx")


#: Store index of an attack call: disjoint from the first 256 probe
#: slots of array2, so the delayed store never aliases the encoded line.
STL_ATTACK_IDX = 300
#: The squash replay re-encodes array1[array2[0]]; array2[0] = 0 points
#: it at a zero byte, pinning the replay's cache touch to slot 0, which
#: :meth:`StlVictim.receive` accounts for.
_DECOY_SLOT = 0


class StlVictim:
    """The Listing 2 victim in ``process``: its memory and its one call.

    ``array1`` is the byte pool the gadget indexes, ``array2`` doubles as
    the Flush+Reload probe array, ``idx_slot`` holds the store index (and
    is flushed before each call to delay the store), and ``secret_va``
    (``secret_pages`` pages, none when 0) holds what the attacks leak.
    ``gadget`` replaces the victim routine, e.g. with a fenced variant
    (Section VI-A).  :attr:`calls` counts the victim invocations — the
    cost the out-of-place attack cuts to one per leaked byte.
    """

    def __init__(
        self,
        machine: Machine,
        process: Process,
        gadget: Program | None = None,
        secret_pages: int = 4,
    ) -> None:
        kernel = machine.kernel
        self.machine = machine
        self.process = process
        # Frames come from the kernel's seeded RNG in allocation order,
        # so reordering these mappings and loads moves every seeded result.
        self.array1 = kernel.map_anonymous(process, pages=2)
        self.array2 = kernel.map_anonymous(process, pages=512)
        self.idx_slot = kernel.map_anonymous(process, pages=1)
        self.secret_va = (
            kernel.map_anonymous(process, pages=secret_pages) if secret_pages else None
        )
        kernel.write(process, self.array2, bytes(8))  # array1[array2[0]] is 0
        self.program = machine.load_program(
            process, gadget if gadget is not None else spectre_stl_gadget()
        )
        #: Loaded on the first call, after whatever the caller maps next
        #: (the attacker's slide pages and Flush+Reload programs).
        self._flush_idx: Program | None = None
        self.calls = 0

    def set_idx(self, idx: int) -> None:
        """Store the gadget's store index (0 aliases its first load)."""
        self.machine.kernel.write(self.process, self.idx_slot, idx.to_bytes(8, "little"))

    def plant(self, secret: bytes) -> None:
        """Write ``secret`` into the victim's secret mapping."""
        self.machine.kernel.write(self.process, self.secret_va, secret)

    def secret_x(self, index: int) -> int:
        """The ``x`` that makes the gadget read secret byte ``index``."""
        return self.secret_va + index - self.array1

    def call(self, x: int) -> None:
        """One victim invocation: flush ``idx``, then run the gadget."""
        if self._flush_idx is None:
            self._flush_idx = self.machine.load_program(
                self.process, flush_line_program(self.idx_slot)
            )
        self.machine.run(self.process, self._flush_idx)
        self.machine.run(
            self.process,
            self.program,
            {
                "x": x & ((1 << 64) - 1),
                "idx_ptr": self.idx_slot,
                "array1": self.array1,
                "array2": self.array2,
            },
        )
        self.calls += 1

    def receive(self, channel: FlushReloadChannel) -> tuple[int | None, int | None]:
        """Decode one Flush+Reload round over ``array2``: (byte, hit time).

        One hot slot other than the decoy names the byte; none means the
        byte was the decoy value (no hit time); more than one is no
        answer, ``(None, None)``.
        """
        hits = [
            (slot, t)
            for slot, t in enumerate(channel.reload_times())
            if t < channel.threshold and slot != _DECOY_SLOT
        ]
        if len(hits) > 1:
            return None, None
        return hits[0] if hits else (_DECOY_SLOT, None)
