"""Software trust anchor: PCRs, endorsement key, AIKs, shielded storage.

One anchor per simulated device, single-owner. PCRs only ever change via
extend; AIK private keys never leave the anchor and each AIK signs at most
one quote (or one batch-replenishment request).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import crypto
from .crypto import DIGEST_LEN, ZERO_DIGEST, KeyPair, Rng
from .errors import ProtocolError

PCR_COUNT = 24
MODEL = "trusted-handset"

# Domain separation for the three things anchor keys sign.
_EK_TAG = b"ek-liveness:"
_QUOTE_TAG = b"quote:"
_REPLENISH_TAG = b"replenish:"


@dataclass
class AikRecord:
    """One AIK of an anchor. Its key pair is drawn from its own label-derived
    rng fork the first time it is needed, so an AIK that never signs or shows
    its public key costs no keygen, and the key is the same whenever it is
    drawn."""

    aik_id: str
    rng: Rng = field(repr=False)
    used: bool = False

    @cached_property
    def key(self) -> KeyPair:
        return crypto.keygen(self.rng)


@dataclass(frozen=True)
class Quote:
    pcr_selection: tuple
    pcr_values: tuple  # hex digests, parallel to pcr_selection
    nonce: bytes
    aik_public: bytes
    signature: bytes

    def _body(self) -> dict:
        """The wire fields the AIK signs: all but its public key and signature."""
        return {"selection": list(self.pcr_selection), "values": list(self.pcr_values),
                "nonce": self.nonce.hex()}

    def signed_payload(self) -> bytes:
        return _QUOTE_TAG + crypto.canonical_bytes(self._body())

    def to_fields(self) -> dict:
        return {**self._body(), "aik_public": self.aik_public.hex(),
                "signature": self.signature.hex()}

    @classmethod
    def from_fields(cls, fields: dict) -> "Quote":
        """The quote that to_fields() put on the wire."""
        return cls(tuple(fields["selection"]), tuple(fields["values"]),
                   bytes.fromhex(fields["nonce"]), bytes.fromhex(fields["aik_public"]),
                   bytes.fromhex(fields["signature"]))


@dataclass
class ShieldedSlot:
    value: object  # unsigned counter (int) or opaque bytes
    access_policy: dict  # pcr index -> required digest bytes


@dataclass(frozen=True)
class EkCertificate:
    """Manufacturer-signed statement over the EK public key and device model."""

    ek_public: bytes
    model: str
    manufacturer_public: bytes
    signature: bytes

    def _body(self) -> dict:
        """The wire fields the manufacturer signs: all but its key and signature."""
        return {"ek_public": self.ek_public.hex(), "model": self.model}

    def signed_payload(self) -> bytes:
        return crypto.canonical_bytes(self._body())

    def to_fields(self) -> dict:
        return {**self._body(), "manufacturer_public": self.manufacturer_public.hex(),
                "signature": self.signature.hex()}

    @classmethod
    def from_fields(cls, fields: dict) -> "EkCertificate":
        """The certificate that to_fields() put on the wire."""
        return cls(bytes.fromhex(fields["ek_public"]), fields["model"],
                   bytes.fromhex(fields["manufacturer_public"]),
                   bytes.fromhex(fields["signature"]))


class Manufacturer:
    """Root of the EK certificate chain."""

    def __init__(self, rng: Rng):
        self.root = crypto.keygen(rng.fork("mfr:manufacturer"))

    def endorse(self, ek_public: bytes, model: str) -> EkCertificate:
        fields = ek_public, model, self.root.public
        signature = crypto.sign(self.root, EkCertificate(*fields, b"").signed_payload())
        return EkCertificate(*fields, signature)


@dataclass
class TrustAnchor:
    """The per-device TPM emulation."""

    device_id: str
    rng: Rng
    ek: KeyPair
    ek_certificate: EkCertificate
    # PCR_COUNT registers of 20 bytes each; only extend changes one
    pcrs: list = field(default_factory=lambda: [ZERO_DIGEST] * PCR_COUNT)
    aiks: dict = field(default_factory=dict)
    slots: dict = field(default_factory=dict)
    _batch_counter: int = 0

    @classmethod
    def manufacture(cls, device_id: str, rng: Rng, manufacturer: Manufacturer) -> "TrustAnchor":
        ek = crypto.keygen(rng.fork("ek"))
        return cls(device_id=device_id, rng=rng, ek=ek,
                   ek_certificate=manufacturer.endorse(ek.public, MODEL))

    # -- PCRs ------------------------------------------------------------

    def extend(self, index: int, measurement: bytes) -> bytes:
        """The one way a register changes: PCR[index] = H(PCR[index] || m)."""
        current = self.pcr_value(index)
        if len(measurement) != DIGEST_LEN:
            raise ValueError("measurement must be a 20-byte digest")
        self.pcrs[index] = crypto.hash160(current + measurement)
        return self.pcrs[index]

    def pcr_value(self, index: int) -> bytes:
        if not 0 <= index < PCR_COUNT:
            raise IndexError(f"pcr index {index} out of range 0..{PCR_COUNT - 1}")
        return self.pcrs[index]

    # -- AIKs and quotes ---------------------------------------------------

    def create_aik_batch(self, count: int) -> list:
        """count fresh AIKs sharing a new batch id; returns the records
        (callers export only the public halves)."""
        if count < 2:
            raise ValueError("a batch of one cannot sustain replenishment; need count >= 2")
        self._batch_counter += 1
        batch_id = f"{self.device_id}-batch{self._batch_counter}"
        records = []
        for i in range(count):
            record = AikRecord(aik_id=f"{batch_id}-aik{i}",
                               rng=self.rng.fork(f"aik:{batch_id}:{i}"))
            self.aiks[record.aik_id] = record
            records.append(record)
        return records

    def _take_aik(self, aik_id: str) -> AikRecord:
        record = self.aiks.get(aik_id)
        if record is None:
            raise ProtocolError("unknown-aik", aik_id)
        if record.used:
            raise ProtocolError("aik-already-used", aik_id)
        record.used = True
        return record

    def quote(self, aik_id: str, pcr_selection, nonce: bytes) -> Quote:
        record = self._take_aik(aik_id)
        selection = tuple(pcr_selection)
        fields = (selection, tuple(self.pcr_value(i).hex() for i in selection), bytes(nonce),
                  record.key.public)
        signature = crypto.sign(record.key, Quote(*fields, b"").signed_payload())
        return Quote(*fields, signature)

    def sign_replenishment(self, aik_id: str, new_publics: list) -> bytes:
        """Authenticate a batch replenishment with (and consume) the last AIK."""
        return crypto.sign(self._take_aik(aik_id).key, _replenishment(new_publics))

    def ek_challenge_response(self, challenge: bytes) -> bytes:
        return crypto.sign(self.ek, _EK_TAG + bytes(challenge))

    # -- shielded storage --------------------------------------------------

    def define_slot(self, slot_id: str, value, access_policy: dict) -> None:
        """access_policy maps pcr index -> digest the register must hold."""
        if isinstance(value, int) and value < 0:
            raise ValueError("counter slots hold unsigned values")
        self.slots[slot_id] = ShieldedSlot(value, dict(access_policy))

    def _open_slot(self, slot_id: str) -> ShieldedSlot:
        slot = self.slots.get(slot_id)
        if slot is None:
            raise ProtocolError("unknown-slot", slot_id)
        for index, required in slot.access_policy.items():
            if self.pcr_value(index) != required:
                raise ProtocolError("sealed-against-state", slot_id)
        return slot

    def slot_read(self, slot_id: str):
        return self._open_slot(slot_id).value

    def _open_counter(self, slot_id: str, amount: int) -> ShieldedSlot:
        """The counter slot a non-negative amount may move, once the
        platform state passes its policy."""
        if amount < 0:
            raise ValueError("amount must be non-negative")
        slot = self._open_slot(slot_id)
        if not isinstance(slot.value, int):
            raise ValueError(f"slot {slot_id} is not a counter")
        return slot

    def slot_decrement(self, slot_id: str, amount: int) -> int:
        slot = self._open_counter(slot_id, amount)
        if amount > slot.value:
            raise ProtocolError("insufficient-balance", f"{slot.value} < {amount}")
        slot.value -= amount
        return slot.value

    def slot_credit(self, slot_id: str, amount: int) -> int:
        """Voucher-authorized top-up path; voucher validation happens in the
        prepaid client, the anchor only gates on platform state."""
        slot = self._open_counter(slot_id, amount)
        slot.value += amount
        return slot.value


def _replenishment(publics) -> bytes:
    """What the last AIK of a batch signs to ask for the next one."""
    return _REPLENISH_TAG + crypto.canonical_bytes([p.hex() for p in publics])


def verify_replenishment_signature(aik_public: bytes, new_publics: list, signature: bytes) -> bool:
    return crypto.verify(aik_public, _replenishment(new_publics), signature)


def verify_ek_response(ek_public: bytes, challenge: bytes, signature: bytes) -> bool:
    return crypto.verify(ek_public, _EK_TAG + bytes(challenge), signature)


def verify_ek_certificate(cert: EkCertificate, trusted_roots) -> bool:
    if cert.manufacturer_public not in trusted_roots:
        return False
    return crypto.verify(cert.manufacturer_public, cert.signed_payload(), cert.signature)
