"""Privacy CA: EK-verified enrollment, AIK certificate batches, replenishment.

The CA doubles as the identity provider for service access: services trust
its root and accept its one-time AIK certificates as pseudonymous
authentication tokens. Certificates carry no EK-derived field, so two
authentications are linkable only by the CA itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import crypto
from .anchor import (
    EkCertificate,
    TrustAnchor,
    ek_certificate_claim,
    ek_response_claim,
    replenishment_claim,
)
from .crypto import CERT_HASH_ALG, Rng
from .errors import ProtocolError

VALIDITY_TICKS = 1000  # every certificate's lifetime from its issue tick


@crypto.slot_init
@dataclass(frozen=True, slots=True)
class AikCertificate:
    """CA-signed binding of an AIK public key to "valid platform in domain".

    Field set is deliberately EK-free. The CA signs the SHA-256 digest of
    the fields; hash_alg names that digest and is signed with them.
    """

    aik_public: bytes
    domain_id: str
    valid_from: int
    valid_until: int
    hash_alg: str
    pca_signature: bytes

    def _body(self) -> dict:
        """The wire fields the CA signs: all but its signature."""
        return {
            "aik_public": self.aik_public.hex(),
            "domain_id": self.domain_id,
            "valid_from": self.valid_from,
            "valid_until": self.valid_until,
            "hash_alg": self.hash_alg,
        }

    def signed_payload(self) -> bytes:
        return crypto.hash256(crypto.canonical_bytes(self._body()))

    def to_fields(self) -> dict:
        return {**self._body(), "pca_signature": self.pca_signature.hex()}

    @classmethod
    def from_fields(cls, fields: dict) -> "AikCertificate":
        """The certificate that to_fields() put on the wire, its fields in
        the JSON value domain, so that it has a signed_payload. Raises
        KeyError, TypeError or ValueError when a field is malformed."""
        crypto.check_domain(fields)
        valid_from, valid_until = fields["valid_from"], fields["valid_until"]
        if not (type(valid_from) is int and type(valid_until) is int):
            raise ValueError("validity bounds must be integer ticks")
        return cls(bytes.fromhex(fields["aik_public"]), fields["domain_id"], valid_from,
                   valid_until, fields["hash_alg"], bytes.fromhex(fields["pca_signature"]))


def aik_certificate_claim(cert: AikCertificate, pca_root: bytes) -> tuple:
    """The (public, message, signature) that crypto.verify checks of a
    certificate issued under pca_root."""
    return pca_root, cert.signed_payload(), cert.pca_signature


def verify_aik_certificate(cert: AikCertificate, pca_root: bytes) -> bool:
    return crypto.verify(*aik_certificate_claim(cert, pca_root))


class PrivacyCa:
    """Certifies AIK batches for one service domain and tracks replenishment."""

    def __init__(self, name: str, rng: Rng, trusted_manufacturer_roots, domain_id: str):
        self.rng = rng.fork(f"pca:{name}")
        self.root = crypto.keygen(self.rng.fork("root"))
        self.trusted_roots = set(trusted_manufacturer_roots)
        self.domain_id = domain_id
        self._consumed_replenish_aiks = set()
        self._issued = set()  # aik public hex of every certificate ever issued

    def liveness_challenge(self) -> bytes:
        return self.rng.bytes(16)

    def certify(self, aik_publics: list, now: int) -> list:
        """One certificate for each AIK of an admitted device, valid from now."""
        fields = [(public, self.domain_id, now, now + VALIDITY_TICKS, CERT_HASH_ALG)
                  for public in aik_publics]
        self._issued.update(public.hex() for public in aik_publics)
        signatures = crypto.sign_each(
            self.root, [AikCertificate(*f, b"").signed_payload() for f in fields])
        return [AikCertificate(*f, signature) for f, signature in zip(fields, signatures)]

    def admit(self, ek_certificate: EkCertificate, challenge: bytes, ek_response: bytes) -> None:
        """Check EK provenance and liveness; raises ProtocolError on failure."""
        if ek_certificate.manufacturer_public not in self.trusted_roots:
            raise ProtocolError("untrusted-ek", ek_certificate.model)
        endorsed, live = crypto.verify_pair(
            ek_certificate_claim(ek_certificate),
            ek_response_claim(ek_certificate.ek_public, challenge, ek_response))
        if not endorsed:
            raise ProtocolError("untrusted-ek", ek_certificate.model)
        if not live:
            raise ProtocolError("ek-liveness-failed")

    def enroll(
        self,
        ek_certificate: EkCertificate,
        aik_publics: list,
        challenge: bytes,
        ek_response: bytes,
        now: int,
    ) -> list:
        """Issue one certificate per AIK after checking EK provenance and
        liveness. The EK itself never appears in the issued certificates."""
        self.admit(ek_certificate, challenge, ek_response)
        return self.certify(aik_publics, now)

    def replenish(
        self,
        old_certificate: AikCertificate,
        new_aik_publics: list,
        last_aik_signature: bytes,
        now: int,
    ) -> list:
        """Certify a new batch, authenticated by the last AIK of the old one.

        Each old-batch AIK buys exactly one replenishment; replaying the
        request is rejected."""
        issued_here, requested = crypto.verify_pair(
            aik_certificate_claim(old_certificate, self.root.public),
            replenishment_claim(old_certificate.aik_public, new_aik_publics, last_aik_signature))
        if not issued_here:
            raise ProtocolError("untrusted-replenish-cert")
        if not old_certificate.valid_from <= now <= old_certificate.valid_until:
            raise ProtocolError("replenish-cert-expired")
        if old_certificate.aik_public.hex() not in self._issued:
            raise ProtocolError("untrusted-replenish-cert", "certificate not issued here")
        if old_certificate.aik_public.hex() in self._consumed_replenish_aiks:
            raise ProtocolError("replenish-replay")
        if not requested:
            raise ProtocolError("bad-replenish-signature")
        self._consumed_replenish_aiks.add(old_certificate.aik_public.hex())
        return self.certify(new_aik_publics, now)


@dataclass
class CredentialWallet:
    """Device-side batch of (AIK, certificate) pairs with one-time take().

    An enrolled batch stays off the record, so its certificates are minted
    on first use: enroll() runs the PCA's EK and liveness checks and keeps
    (AikRecord, None) entries, and peek()/take() certify an AIK the first
    time it is looked at, valid from tick 0, when every such batch is
    enrolled. Installed batches arrive certified. Replenishment is due
    exactly when one unused credential remains: that last credential
    authenticates the request for the next batch.
    """

    anchor: TrustAnchor
    pca: PrivacyCa
    batch_size: int
    credentials: list = field(default_factory=list)  # (AikRecord, AikCertificate | None)
    replenish_count: int = field(default=0, init=False)

    def enroll(self) -> None:
        """First batch: prove EK provenance + liveness now, certify on use."""
        records = self.anchor.create_aik_batch(self.batch_size)
        challenge = self.pca.liveness_challenge()
        self.pca.admit(
            self.anchor.ek_certificate, challenge, self.anchor.ek_challenge_response(challenge)
        )
        self.credentials = [(record, None) for record in records]

    @property
    def needs_replenish(self) -> bool:
        return len(self.credentials) == 1

    def peek(self) -> tuple:
        """The next one-time credential, (AikRecord, AikCertificate), left
        in place."""
        if not self.credentials:
            raise ProtocolError("wallet-empty", self.anchor.device_id)
        record, cert = self.credentials[0]
        if cert is None:
            [cert] = self.pca.certify([record.key.public], 0)
            self.credentials[0] = (record, cert)
        return record, cert

    def take(self) -> tuple:
        """Consume the next one-time credential: (AikRecord, AikCertificate)."""
        credential = self.peek()
        del self.credentials[0]
        return credential

    def prepare_replenish(self) -> tuple:
        """Consume the last old credential and sign the fresh batch's publics:
        (last AikCertificate, fresh AikRecords, signature)."""
        last_record, last_cert = self.take()
        records = self.anchor.create_aik_batch(self.batch_size)
        signature = self.anchor.sign_replenishment(last_record.aik_id,
                                                   [r.key.public for r in records])
        return last_cert, records, signature

    def install_batch(self, records, certs) -> None:
        self.credentials = list(zip(records, certs))
        self.replenish_count += 1
