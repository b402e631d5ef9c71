"""The four end-to-end workloads: what one round runs and how it is checked.

A round is one fresh interpreter that calls a public CLI's ``main(argv)``
once per planned invocation (``child.py``).  Every round of a run gets the
same inputs, derived from the benchmark seed, so rounds are repeated
measurements of identical work and their output digests must agree.

The checks here run in the benchmark process, which never imports
``repro``: they read the files the CLI wrote and the exit codes it
returned, and count failed operations by the rules in README.md.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

__all__ = [
    "ATTACK_SEEDS",
    "EXPERIMENT_NAMES",
    "Outcome",
    "WORKLOADS",
    "Workload",
    "attack_secret",
]

#: ``repro-experiments`` QUICK_SET minus fig7, which alone takes longer
#: than the other sixteen together and would swamp them.
EXPERIMENT_NAMES = (
    "fig2", "table1", "sec3-selection", "fig4", "table2", "fig5",
    "sec4-isolation", "sec4-transient", "fig12", "table4", "covert-channel",
    "address-leak", "channel-capacity", "aslr-derand", "robustness-channel",
    "scan-crossval",
)

#: Victim machine seeds for the attack workload; both recover the full
#: secret.  They are fixed rather than derived from the benchmark seed:
#: the collision search behind one leak takes 1 to 16 validation attempts
#: depending on the machine seed (0.5 s to 10 s of host time), which would
#: make the amount of work, not the code, set the throughput.  The
#: benchmark seed picks the secret instead.  Seed 3 would not do: it
#: recovers 0/16 bytes unmitigated (README.md).
ATTACK_SEEDS = (1, 4)

#: One run's per-mitigation secret length (the CLI's default is 16 bytes).
SECRET_LEN = 16
ATTACK_MITIGATIONS = ("none", "ssbd", "fence")
SCAN_MITIGATIONS = ("none", "ssbd", "fence")


@dataclass
class Outcome:
    """What the checks found in one round's outputs."""

    failed: int
    digest: str
    problems: list[str] = field(default_factory=list)
    #: Exact, output-derived numbers (for example simulated cycles).
    exact: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    #: Module whose ``main(argv)`` the round calls.
    module: str
    #: Default per-round size (budget, experiment count or seed count).
    size: int
    #: ``(seed, size, round_dir) -> [argv, ...]``, one per ``main`` call.
    plan: Callable[[int, int, Path], list[list[str]]]
    #: ``size -> operations per round``.
    ops: Callable[[int], int]
    #: ``(seed, size, round_dir, calls) -> Outcome``; ``calls`` are the
    #: child's per-invocation records (``rc``, ``stdout``).
    check: Callable[[int, int, Path, list[dict]], Outcome]


def _sha256(*paths: Path) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _read_jsonl(path: Path, problems: list[str]) -> list[dict]:
    if not path.exists():
        problems.append(f"{path.name} was not written")
        return []
    try:
        return [json.loads(line) for line in path.read_text().splitlines()]
    except json.JSONDecodeError as exc:
        problems.append(f"{path.name} is not JSONL: {exc}")
        return []


def _supervisor_failures(stdout: str) -> int:
    return len(re.findall(r"^\s*FAILED (?:task|case) ", stdout, re.M))


# ---------------------------------------------------------------- fuzz

def _fuzz_plan(seed: int, size: int, round_dir: Path) -> list[list[str]]:
    return [[
        "--budget", str(size), "--seed", str(seed), "--jobs", "2",
        "--timeout", "120", "--mitigation", "none,ssbd",
        "--out", str(round_dir / "f.jsonl"),
        "--corpus-dir", str(round_dir / "corpus"),
    ]]


def _fuzz_check(seed: int, size: int, round_dir: Path, calls: list[dict]) -> Outcome:
    problems: list[str] = []
    out = round_dir / "f.jsonl"
    findings = _read_jsonl(out, problems)
    # Leaks under `none` are the attacks working; any other finding is a
    # regression, and fails its case when the case is a generated one.
    regressions = [
        f for f in findings
        if f.get("kind") != "leak" or f.get("mitigation") != "none"
    ]
    regressed = {f.get("label") for f in regressions if f.get("origin") == "generated"}
    crashed = _supervisor_failures(calls[0]["stdout"])
    failed = min(size, len(regressed) + crashed)
    if calls[0]["rc"] != (1 if regressions or crashed else 0):
        problems.append(f"repro-fuzz exited {calls[0]['rc']} with "
                        f"{len(regressions)} regression(s), {crashed} failure(s)")
    if (round_dir / "f.jsonl.checkpoint.json").exists():
        problems.append("checkpoint left behind after a clean campaign")
    digest = _sha256(out) if out.exists() else ""
    return Outcome(failed, digest, problems)


# ---------------------------------------------------------- experiments

def _experiment_order(seed: int, size: int) -> list[str]:
    """The first ``size`` names in a seeded order.

    The drivers keep their own published seeds: overriding them with
    ``--seed`` changes how much work some drivers do (channel-capacity
    takes 0.9 s to 1.9 s), so the benchmark seed orders the tasks instead.
    """
    names = list(EXPERIMENT_NAMES[:size])
    random.Random(f"e2e-experiments-{seed}").shuffle(names)
    return names


def _experiments_plan(seed: int, size: int, round_dir: Path) -> list[list[str]]:
    return [[
        *_experiment_order(seed, size), "--jobs", "1", "--timeout", "300",
        "--no-cache", "--stable-meta", "--json", str(round_dir / "exp"),
    ]]


def _experiments_check(
    seed: int, size: int, round_dir: Path, calls: list[dict]
) -> Outcome:
    problems: list[str] = []
    names = _experiment_order(seed, size)
    directory = round_dir / "exp"
    manifest_path = directory / "campaign.json"
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return Outcome(len(names), "", [f"campaign.json unreadable: {exc}"])
    ok = {
        entry["name"] for entry in manifest.get("experiments", [])
        if entry.get("status") == "ok"
    }
    # A TaskFailure entry, or a name the manifest does not list as ok.
    failed = len(set(names) - ok)
    if calls[0]["rc"] != (1 if failed else 0):
        problems.append(f"repro-experiments exited {calls[0]['rc']} "
                        f"with {failed} failed experiment(s)")
    artifacts = [directory / f"{name}.json" for name in names if name in ok]
    missing = [path.name for path in artifacts if not path.exists()]
    if missing:
        problems.append(f"artifacts missing: {', '.join(missing)}")
        return Outcome(failed, "", problems)
    return Outcome(failed, _sha256(manifest_path, *artifacts), problems)


# --------------------------------------------------------------- attack

def attack_secret(seed: int) -> str:
    """The secret planted in every victim for benchmark seed ``seed``.

    Printable ASCII, so it round-trips through ``--secret`` and contains
    no zero byte (a failed campaign reports zeros, which must never count
    as a recovered byte).
    """
    rng = random.Random(f"e2e-attack-secret-{seed}")
    alphabet = string.ascii_letters + string.digits
    return "".join(rng.choice(alphabet) for _ in range(SECRET_LEN))


def _attack_plan(seed: int, size: int, round_dir: Path) -> list[list[str]]:
    argvs = []
    for machine_seed in ATTACK_SEEDS[:size]:
        report = str(round_dir / f"leak-{machine_seed}.json")
        argvs.append([
            "leak", "--mitigation", "all", "--seed", str(machine_seed),
            "--secret", attack_secret(seed), "--out", report,
        ])
        argvs.append(["verify", report])
    return argvs


def _attack_check(seed: int, size: int, round_dir: Path, calls: list[dict]) -> Outcome:
    problems: list[str] = []
    expected = attack_secret(seed).encode()
    failed = 0
    cycles_per_byte = []
    paths = []
    for index, machine_seed in enumerate(ATTACK_SEEDS[:size]):
        path = round_dir / f"leak-{machine_seed}.json"
        leak_rc, verify_rc = calls[2 * index]["rc"], calls[2 * index + 1]["rc"]
        try:
            reports = {
                entry["mitigation"]: entry
                for entry in json.loads(path.read_text())["reports"]
            }
        except (OSError, json.JSONDecodeError, KeyError) as exc:
            problems.append(f"{path.name} unreadable: {exc}")
            failed += SECRET_LEN * len(ATTACK_MITIGATIONS)
            continue
        paths.append(path)
        missing = set(ATTACK_MITIGATIONS) - set(reports)
        if missing:
            problems.append(f"{path.name} lacks mitigation(s) {sorted(missing)}")
            failed += SECRET_LEN * len(missing)
        for mitigation, entry in reports.items():
            if bytes.fromhex(entry["expected_hex"]) != expected:
                problems.append(f"{path.name}: planted secret differs")
            recovered = bytes.fromhex(entry["recovered_hex"])
            right = sum(a == b for a, b in zip(recovered, expected))
            # Unmitigated, every wrong byte fails; mitigated, every
            # recovered byte is a leak the mitigation should have stopped.
            failed += SECRET_LEN - right if mitigation == "none" else right
        none = reports.get("none")
        if none is not None:
            cycles_per_byte.append(none["cycles_per_byte"])
            full = none["accuracy"] == 1.0
            if leak_rc != (0 if full else 1):
                problems.append(f"leak --seed {machine_seed} exited {leak_rc}")
            if full and verify_rc != 0:
                problems.append(f"verify {path.name} exited {verify_rc}")
    exact = {}
    if cycles_per_byte:
        exact["sim_cycles_per_byte"] = sum(cycles_per_byte) / len(cycles_per_byte)
    return Outcome(failed, _sha256(*paths) if paths else "", problems, exact)


# ----------------------------------------------------------------- scan

def _scan_plan(seed: int, size: int, round_dir: Path) -> list[list[str]]:
    return [[
        "scan", "--no-corpus", "--budget", str(size), "--seed", str(seed),
        "--mitigation", ",".join(SCAN_MITIGATIONS),
        "--out", str(round_dir / "s.jsonl"),
    ]]


def _scan_check(seed: int, size: int, round_dir: Path, calls: list[dict]) -> Outcome:
    problems: list[str] = []
    out = round_dir / "s.jsonl"
    records = _read_jsonl(out, problems)
    seen = {
        (r.get("label"), r.get("generator"), r.get("mitigation"))
        for r in records
        if "gadgets" in r and "clean" in r
    }
    wanted = {
        (f"gen-{index}", generator, mitigation)
        for index in range(size)
        for generator in ("fuzz-v1", "oracle-v1")
        for mitigation in SCAN_MITIGATIONS
    }
    failed = len(wanted - seen)
    if calls[0]["rc"] != (1 if _supervisor_failures(calls[0]["stdout"]) else 0):
        problems.append(f"repro-scan exited {calls[0]['rc']}")
    return Outcome(failed, _sha256(out) if out.exists() else "", problems)


#: Why each workload is in the benchmark is recorded in BENCHMARK.json
#: and README.md; in short, each stresses layers the others leave idle.
WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("fuzz", "repro.fuzz.cli", 40, _fuzz_plan, lambda size: size,
                 _fuzz_check),
        Workload("experiments", "repro.experiments.runner", len(EXPERIMENT_NAMES),
                 _experiments_plan, lambda size: len(EXPERIMENT_NAMES[:size]),
                 _experiments_check),
        Workload("attack", "repro.attacks.cli", len(ATTACK_SEEDS), _attack_plan,
                 lambda size: len(ATTACK_SEEDS[:size]) * SECRET_LEN
                 * len(ATTACK_MITIGATIONS),
                 _attack_check),
        Workload("scan", "repro.static.cli", 240, _scan_plan,
                 lambda size: size * 2 * len(SCAN_MITIGATIONS), _scan_check),
    )
}
