#!/usr/bin/env python3
"""A covert channel with no shared memory and no cache lines (Vuln 4).

Two processes that share *nothing* — no mmap, no files, no common
frames — exchange a message through SSBP: the sender charges (or not) a
predictor entry the receiver found by code sliding; the receiver reads
each bit as a stall-vs-bypass timing difference.

Run:  python examples/covert_channel_demo.py
"""

from repro.attacks.channels import StlPredictorChannel

MESSAGE = b"hi"


def to_bits(payload: bytes) -> list[int]:
    return [byte >> bit & 1 for byte in payload for bit in range(8)]


def from_bits(bits: list[int]) -> bytes:
    out = bytearray()
    for index in range(0, len(bits), 8):
        out.append(sum(bit << pos for pos, bit in enumerate(bits[index : index + 8])))
    return bytes(out)


def main() -> None:
    channel = StlPredictorChannel(width=1)
    sender_frames = {
        m.frame for m in channel.sender_process.address_space.pages().values()
    }
    receiver_frames = {
        m.frame for m in channel.receiver_process.address_space.pages().values()
    }
    print(f"shared physical frames between the processes: "
          f"{len(sender_frames & receiver_frames)}")

    (attempts,) = channel.handshake()
    print(f"handshake: receiver collided with the sender's entry after "
          f"{attempts} slide attempts (bound: 4096)")

    sent = to_bits(MESSAGE)
    thread = channel.machine.core.thread(0)
    start = thread.cycles
    received = channel.transfer(sent)
    seconds = (thread.cycles - start) / (channel.machine.core.model.clock_ghz * 1e9)
    errors = sum(a != b for a, b in zip(sent, received))
    print(f"sent {MESSAGE!r}, received {from_bits(received)!r}")
    print(f"bit errors: {errors}/{len(sent)}; "
          f"bandwidth {len(sent) / seconds:,.0f} bit/s (simulated time)")


if __name__ == "__main__":
    main()
