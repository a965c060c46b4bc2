"""Sub-domain restriction: generic vs trust credentials, clone handling,
feature policies with location rules.

Devices reach the network with an identity-bearing generic credential;
admission to a restricted sub-domain takes an additional trust credential
(an attested one-time AIK). The operator issues the generic credential for a
device's identity and keeps the sub-domain registry itself, in unbound mode
(first-come-first-served per identity) or bound mode (as the joint authority
it bound each identity to that device's AIKs, defeating clones outright).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import crypto
from .attestation import Verifier, aik_fingerprint
from .crypto import KeyPair, Rng
from .errors import ProtocolError
from .flows import attest_flow, checked, hop
from .harness import CHANNEL_MOBILE, MNO

UNBOUND = "unbound"
BOUND = "bound"


_ACCESS_TAG = b"netaccess:"


@dataclass(frozen=True)
class GenericCredential:
    """c-style network credential: bears the individual device identity.

    Clones share it by construction — copying the object is the attack.
    """

    device_identity: str
    secret: KeyPair

    def access_proof(self) -> bytes:
        return crypto.sign(self.secret, _ACCESS_TAG + self.device_identity.encode())


@dataclass(frozen=True)
class Session:
    session_id: str
    identity: str


@dataclass(frozen=True)
class Admission:
    admitted: bool
    reason: str  # "ok" | "credential-inconsistency" | "clone-conflict" | "attestation-failed"


class MobileNetworkOperator:
    """The MNO party: credential issuance, network sessions, and the
    sub-domain registry (mode, admitted identities, authority bindings)."""

    def __init__(self, rng: Rng, registry_mode: str = UNBOUND):
        self.rng = rng.fork(f"mno:{MNO}")
        self.keys = crypto.keygen(self.rng.fork("keys"))
        self.mode = registry_mode
        self.admitted = {}  # identity -> trust fingerprint
        self.bindings = {}  # identity -> set of issued fingerprints
        self._issued = {}  # identity -> public key of the credential secret
        self._session_counter = 0

    def issue_credential(self, device) -> GenericCredential:
        """The generic credential bearing device's identity."""
        secret = crypto.keygen(self.rng.fork(f"cred:{device.identity}"))
        self._issued[device.identity] = secret.public
        return GenericCredential(device_identity=device.identity, secret=secret)

    def bind(self, device) -> None:
        """As the joint authority, record device's AIKs under its identity."""
        self.bindings.setdefault(device.identity, set()).update(
            aik_fingerprint(record.key.public) for record, _ in device.wallet.credentials)

    def decide(self, identity: str, fingerprint: str, attestation_accepted: bool) -> Admission:
        """Admission rules; bound mode checks the authority binding first."""
        if self.mode == BOUND and fingerprint not in self.bindings.get(identity, set()):
            return Admission(False, "credential-inconsistency")
        prior = self.admitted.get(identity)
        if prior is not None and prior != fingerprint:
            return Admission(False, "clone-conflict")
        if not attestation_accepted:
            return Admission(False, "attestation-failed")
        self.admitted[identity] = fingerprint
        return Admission(True, "ok")

    def network_access(self, identity: str, proof: bytes) -> Session:
        """Basic network logon; clone detection deliberately does NOT happen
        here — two sessions for one identity are both granted."""
        public = self._issued.get(identity)
        if public is None:
            raise ProtocolError("unknown-identity", identity)
        if not crypto.verify(public, _ACCESS_TAG + identity.encode(), proof):
            raise ProtocolError("bad-access-proof", identity)
        self._session_counter += 1
        return Session(f"sess-{self._session_counter}", identity)


def network_access_flow(sim, device, mno: MobileNetworkOperator,
                        credential: GenericCredential):
    """Recorded logon: identity + possession proof, session or denial back.

    The MNO judges the request that reached it. Returns the session, or
    None after a denial or after the abort of a lost or unreadable request."""
    received = hop(sim, device.device_id, MNO, CHANNEL_MOBILE, "network-access",
                   {"identity": credential.device_identity,
                    "proof": credential.access_proof().hex()},
                   "network-access-lost", read=_access_request, bad="bad-access-request",
                   encrypted=False)
    if received is None:
        return None
    try:
        session = mno.network_access(*received)
    except ProtocolError as err:
        sim.send(MNO, device.device_id, CHANNEL_MOBILE, "network-denied",
                 {"code": err.code})
        sim.event("network-denied", device=device.device_id, code=err.code)
        return None
    sim.send(MNO, device.device_id, CHANNEL_MOBILE, "network-session",
             {"session_id": session.session_id})
    sim.event("network-session", device=device.device_id, session=session.session_id)
    return session


def _access_request(payload: dict) -> tuple:
    """(identity, possession proof) of a delivered network-access."""
    identity = payload["identity"]
    return checked(identity, isinstance(identity, str)), bytes.fromhex(payload["proof"])


def subdomain_admission_flow(
    sim,
    device,
    mno: MobileNetworkOperator,
    verifier: Verifier,
    session: Session,
    plan=None,
) -> Admission:
    """Transmit the trust credential (attestation) and apply the registry rules."""
    sim.send(device.device_id, MNO, CHANNEL_MOBILE, "subdomain-request",
             {"session_id": session.session_id})
    exchange = attest_flow(sim, device, MNO, verifier, CHANNEL_MOBILE, plan=plan)
    if exchange is None:
        admission = Admission(False, "attestation-failed")
        fingerprint = None
    else:
        fingerprint = aik_fingerprint(exchange.response.quote.aik_public)  # as it arrived
        admission = mno.decide(session.identity, fingerprint, exchange.verdict.accepted)
    sim.send(MNO, device.device_id, CHANNEL_MOBILE, "subdomain-verdict",
             {"admitted": admission.admitted, "reason": admission.reason})
    sim.event(
        "admission",
        mno=MNO,
        device=device.device_id,
        identity=session.identity,
        fingerprint=fingerprint,
        admitted=admission.admitted,
        reason=admission.reason,
    )
    return admission


# -- feature policies ---------------------------------------------------------


@dataclass(frozen=True)
class FeaturePolicy:
    base: dict  # feature name -> "enabled" | "disabled"
    location_rules: tuple = ()  # ((location id, {feature: state}), ...)

    def effective(self, location: str) -> dict:
        features = dict(self.base)
        for rule_location, overrides in self.location_rules:
            if rule_location == location:
                features.update(overrides)
        return features
