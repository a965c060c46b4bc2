"""Trusted boot chain: measure, extend, log — plus attack edits.

The initial component measures itself, every later component is measured
before it runs; all measurements land in one PCR (index 0 by default) and
in an ordered log the verifier can refold.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import crypto
from .anchor import TrustAnchor
from .errors import ProtocolError

BOOT_PCR = 0


@dataclass(frozen=True)
class BootComponent:
    name: str
    payload: bytes


def make_chain(components) -> list:
    """Build a boot chain from (name, payload) pairs, in boot order."""
    return [BootComponent(name=name, payload=payload) for name, payload in components]


@dataclass(frozen=True)
class LogEntry:
    component: str
    measurement: str  # hex digest
    pcr_index: int


class MeasurementLog:
    """Ordered record of boot measurements."""

    def __init__(self, entries=()):
        self.entries = list(entries)

    def to_fields(self) -> list:
        return [
            {"component": e.component, "measurement": e.measurement, "pcr": e.pcr_index}
            for e in self.entries
        ]

    @classmethod
    def from_fields(cls, rows) -> "MeasurementLog":
        """The log that to_fields() put on the wire. Raises KeyError,
        TypeError or ValueError when an entry is malformed."""
        log = cls(LogEntry(r["component"], r["measurement"], r["pcr"]) for r in rows)
        for entry in log.entries:
            if not (isinstance(entry.component, str) and isinstance(entry.pcr_index, int)):
                raise ValueError("log entry needs a component name and a pcr index")
            bytes.fromhex(entry.measurement)
        return log


def measure(chain) -> MeasurementLog:
    """The log a measured boot of chain writes, computed without an anchor:
    every component is measured into BOOT_PCR, in order."""
    return MeasurementLog(LogEntry(c.name, crypto.hash160(c.payload).hex(), BOOT_PCR)
                          for c in chain)


def boot(anchor: TrustAnchor, chain) -> MeasurementLog:
    """Run the measured boot: hash each component, extend, log, in order."""
    if not chain:
        raise ValueError("boot chain must not be empty")
    if anchor.pcr_value(BOOT_PCR) != crypto.ZERO_DIGEST:
        raise ProtocolError("pcr-not-reset", f"register {BOOT_PCR} already extended")
    log = measure(chain)
    for entry in log.entries:
        anchor.extend(BOOT_PCR, bytes.fromhex(entry.measurement))
    return log


def tamper(chain, component_name: str, new_payload: bytes) -> list:
    """Replace one component's payload (pre-boot attack); returns a new chain."""
    if component_name not in {c.name for c in chain}:
        raise ProtocolError("unknown-component", component_name)
    return [
        BootComponent(c.name, new_payload) if c.name == component_name else c
        for c in chain
    ]


def forge_log(log: MeasurementLog, entry_index: int, fake_digest: bytes) -> MeasurementLog:
    """Rewrite one log entry (post-boot attack); the PCR is untouched."""
    if not 0 <= entry_index < len(log.entries):
        raise IndexError(f"log entry {entry_index} out of range")
    entries = list(log.entries)
    old = entries[entry_index]
    entries[entry_index] = LogEntry(old.component, fake_digest.hex(), old.pcr_index)
    return MeasurementLog(entries)
