"""Remote attestation: challenge, response, verdict, and the verifier's checks.

Challenge, response and verdict own their wire forms (to_fields/from_fields)
and aik_fingerprint names an AIK. All failure modes are verdict reasons,
never exceptions, and every check runs (no short-circuit) so a verdict
carries the full diagnostic set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import crypto
from .anchor import PCR_COUNT, Quote, verify_quote_signature
from .boot import BOOT_PCR, MeasurementLog
from .privacy_ca import AikCertificate, verify_aik_certificate

REASON_OK = "ok"
REASON_BAD_CERT_CHAIN = "bad-cert-chain"
REASON_CERT_EXPIRED = "cert-expired"
REASON_AIK_REUSED = "aik-reused"
REASON_BAD_QUOTE_SIGNATURE = "bad-quote-signature"
REASON_STALE_NONCE = "stale-nonce"
REASON_LOG_PCR_MISMATCH = "log-pcr-mismatch"
REASON_REFERENCE_MISMATCH = "reference-mismatch"

# Fixed evaluation (and reporting) order.
ALL_REASONS = (
    REASON_BAD_CERT_CHAIN,
    REASON_CERT_EXPIRED,
    REASON_AIK_REUSED,
    REASON_BAD_QUOTE_SIGNATURE,
    REASON_STALE_NONCE,
    REASON_LOG_PCR_MISMATCH,
    REASON_REFERENCE_MISMATCH,
)

MIN_NONCE_LEN = 16


def aik_fingerprint(public: bytes) -> str:
    """The fingerprint an AIK is known by: hex of its public key's hash160."""
    return crypto.hash160(public).hex()


@dataclass(frozen=True)
class AttestationChallenge:
    nonce: bytes
    pcr_selection: tuple
    freshness_deadline: int

    def __post_init__(self):
        if len(self.nonce) < MIN_NONCE_LEN:
            raise ValueError(f"nonce must be at least {MIN_NONCE_LEN} bytes")

    def to_fields(self) -> dict:
        return {"nonce": self.nonce.hex(), "selection": list(self.pcr_selection),
                "deadline": self.freshness_deadline}

    @classmethod
    def from_fields(cls, fields: dict) -> "AttestationChallenge":
        """The challenge as it came off the wire: its PCR selection inside
        the bank, its nonce long enough."""
        selection = tuple(fields["selection"])
        if not all(isinstance(i, int) and 0 <= i < PCR_COUNT for i in selection):
            raise ValueError("pcr selection outside the bank")
        return cls(bytes.fromhex(fields["nonce"]), selection, fields["deadline"])


@dataclass(frozen=True)
class AttestationResponse:
    quote: Quote
    log: MeasurementLog
    certificate: AikCertificate

    def to_fields(self) -> dict:
        return {"quote": self.quote.to_fields(), "log": self.log.to_fields(),
                "certificate": self.certificate.to_fields()}

    @classmethod
    def from_fields(cls, fields: dict) -> "AttestationResponse":
        """The response as it came off the wire."""
        return cls(Quote.from_fields(fields["quote"]), MeasurementLog.from_fields(fields["log"]),
                   AikCertificate.from_fields(fields["certificate"]))


@dataclass(frozen=True)
class AttestationVerdict:
    accepted: bool
    reasons: tuple

    @classmethod
    def from_failures(cls, failures) -> "AttestationVerdict":
        if failures:
            ordered = tuple(r for r in ALL_REASONS if r in failures)
            return cls(accepted=False, reasons=ordered)
        return cls(accepted=True, reasons=(REASON_OK,))

    def to_fields(self) -> dict:
        return {"ok": self.accepted, "reasons": list(self.reasons)}

    @classmethod
    def from_fields(cls, fields: dict) -> "AttestationVerdict":
        """A verdict as it came off the wire: accepted only when ok is True,
        its reasons kept only when they are a list of strings."""
        reasons = fields.get("reasons")
        strings = isinstance(reasons, list) and all(isinstance(r, str) for r in reasons)
        return cls(fields.get("ok") is True, tuple(reasons) if strings else ())


def recompute_pcr(log: MeasurementLog, register: int = BOOT_PCR) -> bytes:
    """Left fold of extend over the register's logged measurements, from the
    zero state: the value that register holds after the logged boot."""
    acc = crypto.ZERO_DIGEST
    for entry in log.entries:
        if entry.pcr_index == register:
            acc = crypto.hash160(acc + bytes.fromhex(entry.measurement))
    return acc


def verify_attestation(
    response: AttestationResponse,
    challenge: AttestationChallenge,
    pca_root: bytes,
    refs: dict,
    used_aiks: set,
    now: int,
) -> AttestationVerdict:
    """The three-step verification plus freshness and one-time-AIK checks.

    used_aiks is the verifier's replay store; the presented AIK is added
    after the reuse check regardless of the other outcomes.
    """
    failures = set()
    quote = response.quote
    cert = response.certificate

    # 1. certificate chains to the privacy CA root and is inside its window
    if not verify_aik_certificate(cert, pca_root):
        failures.add(REASON_BAD_CERT_CHAIN)
    if not cert.valid_from <= now <= cert.valid_until:
        failures.add(REASON_CERT_EXPIRED)

    # 2. one AIK per transaction
    fingerprint = aik_fingerprint(quote.aik_public)
    if fingerprint in used_aiks:
        failures.add(REASON_AIK_REUSED)
    used_aiks.add(fingerprint)

    # 3. quote signed by the certified AIK
    if quote.aik_public != cert.aik_public or not verify_quote_signature(quote):
        failures.add(REASON_BAD_QUOTE_SIGNATURE)

    # 4. fresh response to this challenge
    if quote.nonce != challenge.nonce or now > challenge.freshness_deadline:
        failures.add(REASON_STALE_NONCE)

    # 5. the log refolds to the quoted PCR values
    if tuple(quote.pcr_selection) != tuple(challenge.pcr_selection):
        failures.add(REASON_STALE_NONCE)
    for register, quoted in zip(quote.pcr_selection, quote.pcr_values):
        if recompute_pcr(response.log, register).hex() != quoted:
            failures.add(REASON_LOG_PCR_MISMATCH)

    # 6. every logged measurement is a known-good reference value
    for entry in response.log.entries:
        if refs.get(entry.component) != entry.measurement:
            failures.add(REASON_REFERENCE_MISMATCH)

    return AttestationVerdict.from_failures(failures)


@dataclass
class Verifier:
    """One verifying party: its trust root, references, and replay store.

    Verifiers may share a used_aiks set (a collaboration that pools its
    replay protection) — pass the same set to several instances.
    """

    pca_root: bytes
    refs: dict  # component name -> measurement hex (device.reference_db_for)
    rng: crypto.Rng
    freshness_window: int = 100
    used_aiks: set = field(default_factory=set)

    def make_challenge(self, now: int) -> AttestationChallenge:
        return AttestationChallenge(
            nonce=self.rng.bytes(MIN_NONCE_LEN),
            pcr_selection=(BOOT_PCR,),
            freshness_deadline=now + self.freshness_window,
        )

    def verify(
        self, response: AttestationResponse, challenge: AttestationChallenge, now: int
    ) -> AttestationVerdict:
        return verify_attestation(
            response, challenge, self.pca_root, self.refs, self.used_aiks, now
        )
