"""Recorded protocol flows shared by the scenario modules.

Wire format helpers (challenge/response/certificate as labeled message
payloads) plus the standard attestation exchange with its five injectable
attacks. The verifier always checks what came off the wire, so drop and
modify hooks behave like real tampering.
"""

from __future__ import annotations

import dataclasses

from . import boot as mb
from . import crypto
from .attestation import AttestationChallenge, AttestationResponse, AttestationVerdict, Verifier
from .anchor import PCR_COUNT, EkCertificate, Quote
from .device import TrustedDevice
from .errors import ProtocolError
from .harness import seal
from .privacy_ca import AikCertificate, CredentialWallet, PrivacyCa

# The five generic attestation attacks and the reason each must trigger.
ATTESTATION_ATTACKS = ("forge-log", "tamper", "replay-aik", "wrong-nonce", "expired-cert")
EXPECTED_ATTACK_REASONS = {
    "forge-log": "log-pcr-mismatch",
    "tamper": "reference-mismatch",
    "replay-aik": "aik-reused",
    "wrong-nonce": "stale-nonce",
    "expired-cert": "cert-expired",
}

TAMPER_PAYLOAD = b"tampered-code"


class AttackPlan:
    """Which attacks this run injects; each fires once, at the first
    opportunity (device setup for tamper, first attestation otherwise)."""

    def __init__(self, names=()):
        self.names = set(names)
        self._fired = set()

    def take(self, name: str) -> bool:
        if name in self.names and name not in self._fired:
            self._fired.add(name)
            return True
        return False


def apply_setup_attacks(device: TrustedDevice, plan: AttackPlan | None) -> None:
    """Pre-boot injections; call after provisioning, before boot."""
    if plan and plan.take("tamper"):
        device.tamper(device.chain[-1].name, TAMPER_PAYLOAD)


# -- wire format ------------------------------------------------------------


def challenge_fields(challenge: AttestationChallenge) -> tuple:
    payload = {
        "nonce": challenge.nonce.hex(),
        "selection": list(challenge.pcr_selection),
        "deadline": challenge.freshness_deadline,
    }
    labels = {"nonce": "plumbing", "selection": "plumbing", "deadline": "plumbing"}
    return payload, labels


def parse_challenge(payload: dict) -> AttestationChallenge:
    """The challenge as it came off the wire. Raises KeyError, TypeError or
    ValueError when a field the device acts on is malformed."""
    selection = tuple(payload["selection"])
    if not all(isinstance(i, int) and 0 <= i < PCR_COUNT for i in selection):
        raise ValueError("pcr selection outside the bank")
    return AttestationChallenge(
        nonce=bytes.fromhex(payload["nonce"]),
        pcr_selection=selection,
        freshness_deadline=payload["deadline"],
    )


def response_fields(response: AttestationResponse) -> tuple:
    quote = response.quote
    payload = {
        "quote": {
            "selection": list(quote.pcr_selection),
            "values": list(quote.pcr_values),
            "nonce": quote.nonce.hex(),
            "aik_public": quote.aik_public.hex(),
            "signature": quote.signature.hex(),
        },
        "log": response.log.to_fields(),
        "certificate": response.certificate.to_fields(),
    }
    labels = {"quote": "plumbing", "log": "plumbing", "certificate": "token"}
    return payload, labels


def parse_response(payload: dict) -> AttestationResponse:
    """The response as it came off the wire. Raises KeyError, TypeError or
    ValueError when a field the verifier checks is malformed."""
    q = payload["quote"]
    quote = Quote(
        pcr_selection=tuple(q["selection"]),
        pcr_values=tuple(q["values"]),
        nonce=bytes.fromhex(q["nonce"]),
        aik_public=bytes.fromhex(q["aik_public"]),
        signature=bytes.fromhex(q["signature"]),
    )
    return AttestationResponse(
        quote=quote,
        log=mb.MeasurementLog.from_fields(payload["log"]),
        certificate=AikCertificate.from_fields(payload["certificate"]),
    )


# -- flows -------------------------------------------------------------------

ENV_LABELS = {"env": "plumbing"}  # labels of a hop that carries one sealed envelope


def hop(sim, sender: str, receiver: str, channel: str, msg_type: str, payload: dict,
        labels: dict, lost: str, *, read=None, bad: str | None = None,
        party: str | None = None, encrypted: bool = True, **fields):
    """Send one hop and return the payload that reached receiver, decoded
    through read(payload) when a reader is given.

    Returns None after writing the one abort record instead: with code bad,
    for the receiver, when read raised KeyError, TypeError or ValueError;
    with code lost, for party (the receiver unless named), when the hop was
    dropped, or could not be read and has no bad code. fields go on the
    abort record."""
    msg = sim.send(sender, receiver, channel, msg_type, payload, labels, encrypted=encrypted)
    if msg is not None:
        if read is None:
            return msg.payload
        try:
            return read(msg.payload)
        except (KeyError, TypeError, ValueError):
            if bad is not None:
                sim.event("abort", party=receiver, code=bad, **fields)
                return None
    sim.event("abort", party=party or receiver, code=lost, **fields)
    return None


def checked(value, ok):
    """value, or ValueError unless ok: a reader's failed check becomes its
    hop's bad-* abort."""
    if not ok:
        raise ValueError("check failed")
    return value


def opened(payload: dict) -> dict:
    """The interior of a payload's sealed envelope, as its addressee reads it."""
    return payload["env"]["_sealed"]["payload"]


def replenish_flow(sim, device: TrustedDevice, pca_id: str, pca: PrivacyCa, channel: str) -> bool:
    """Spend the device's last credential to certify a fresh batch, on the record.

    Each side acts on what reached it: the CA judges the request it received
    and the device installs the certificates it received, each of which must
    name its record's AIK. Returns whether the device now holds the new
    batch; a lost or malformed hop, or a refused request, ends in one abort
    instead."""
    request = device.wallet.prepare_replenish()
    body = seal(
        [pca_id],
        {
            "old_certificate": request.old_certificate.to_fields(),
            "new_publics": [p.hex() for p in request.publics],
            "signature": request.signature.hex(),
        },
        {"old_certificate": "token", "new_publics": "token", "signature": "plumbing"},
    )
    received = hop(sim, device.device_id, pca_id, channel, "replenish-request",
                   {"env": body}, ENV_LABELS, "replenish-request-lost",
                   read=_replenish_request, bad="bad-replenish-request")
    if received is None:
        return False
    try:
        certs = pca.replenish(*received, now=sim.tick)
    except ProtocolError as err:
        sim.event("abort", party=pca_id, code=err.code)
        return False
    reply = seal([device.device_id],
                 {"certificates": [c.to_fields() for c in certs]},
                 {"certificates": "token"})
    certs = hop(sim, pca_id, device.device_id, channel, "replenish-certs",
                {"env": reply}, ENV_LABELS, "replenish-certs-lost",
                read=lambda p: _certificates_for(p, request.records), bad="bad-replenish-certs")
    if certs is None:
        return False
    device.wallet.install_batch(request.records, certs)
    sim.event(
        "replenishment",
        device=device.device_id,
        pca=pca_id,
        batch_size=len(certs),
        count=device.wallet.replenish_count,
    )
    return True


def expired_cert_override(device: TrustedDevice, plan: AttackPlan | None) -> int | None:
    """expired-cert injection: run the exchange after the credential window
    closed. Consult before minting the challenge."""
    if plan and plan.take("expired-cert"):
        return device.wallet.peek()[1].valid_until + 1
    return None


def mangle_and_respond(device: TrustedDevice, wire_challenge: AttestationChallenge,
                       plan: AttackPlan | None) -> tuple:
    """Device-side response with the response-level injections applied.

    Returns (response, presentations); presentations is 2 for a replay-aik
    injection (the same response goes on the wire twice)."""
    if plan and plan.take("wrong-nonce"):
        mangled = crypto.hash256(wire_challenge.nonce)[:16]
        wire_challenge = dataclasses.replace(wire_challenge, nonce=mangled)
    response = device.respond(wire_challenge)
    if plan and plan.take("forge-log"):
        response = dataclasses.replace(
            response, log=mb.forge_log(response.log, 0, crypto.hash160(b"forged-entry"))
        )
    presentations = 2 if plan and plan.take("replay-aik") else 1
    return response, presentations


def record_verdict(sim, verifier_id: str, verifier: Verifier, subject: str,
                   wire_response: AttestationResponse, challenge: AttestationChallenge,
                   now: int):
    """Verify a response as it came off the wire and put the verdict on the
    record; the one writer of "attestation-verdict" events."""
    verdict = verifier.verify(wire_response, challenge, now=max(now, sim.tick))
    sim.event(
        "attestation-verdict",
        verifier=verifier_id,
        subject=subject,
        aik_fp=wire_response.aik_fingerprint(),
        accepted=verdict.accepted,
        reasons=list(verdict.reasons),
    )
    return verdict


@dataclasses.dataclass(frozen=True)
class Exchange:
    """One recorded attestation exchange: the challenge as it reached the
    device, the response as it reached the verifier (the last presentation)
    and the verdict on it."""

    challenge: AttestationChallenge
    response: AttestationResponse
    verdict: AttestationVerdict


def attest_flow(
    sim,
    device: TrustedDevice,
    verifier_id: str,
    verifier: Verifier,
    channel: str,
    plan: AttackPlan | None = None,
    replenish_via: tuple | None = None,
) -> Exchange | None:
    """One challenge-response attestation, recorded; returns the Exchange.

    Returns None after an abort: a message was dropped, or arrived too
    malformed to act on. With a replay-aik injection the response is
    presented twice and the second (rejected) verdict is returned.
    replenish_via is replenish_flow's (pca_id, pca, channel).
    """
    now = expired_cert_override(device, plan) or sim.tick

    challenge = verifier.make_challenge(now)
    payload, labels = challenge_fields(challenge)
    wire_challenge = hop(sim, verifier_id, device.device_id, channel, "attestation-challenge",
                         payload, labels, "challenge-lost", read=parse_challenge,
                         bad="bad-challenge", encrypted=False)
    if wire_challenge is None:
        return None

    response, presentations = mangle_and_respond(device, wire_challenge, plan)
    if device.wallet.needs_replenish and replenish_via is not None:
        if not replenish_flow(sim, device, *replenish_via):
            return None

    for _ in range(presentations):
        payload, labels = response_fields(response)
        wire_response = hop(sim, device.device_id, verifier_id, channel, "attestation-response",
                            payload, labels, "response-lost", read=parse_response,
                            bad="bad-response", encrypted=False)
        if wire_response is None:
            return None
        verdict = record_verdict(sim, verifier_id, verifier, device.device_id,
                                 wire_response, challenge, now)
    return Exchange(wire_challenge, wire_response, verdict)


def enroll_flow(sim, device: TrustedDevice, pca_id: str, pca: PrivacyCa,
                batch_size: int, channel: str) -> bool:
    """Recorded batch enrollment: EK provenance + liveness in a sealed
    request, certificates sealed back. The EK reaches the CA and nobody
    else — linkage by the CA is inherent.

    Each side acts on what reached it: the device answers the challenge it
    received, the CA judges and certifies the request it received, and the
    device installs the certificates it received, each of which must name
    its record's AIK. Returns whether the device now holds the batch; a lost
    or malformed hop, or a refused EK, ends in one abort instead."""
    records = device.anchor.create_aik_batch(batch_size)
    challenge = pca.liveness_challenge()
    challenge_env = seal([device.device_id], {"nonce": challenge.hex()}, {"nonce": "plumbing"})
    nonce = hop(sim, pca_id, device.device_id, channel, "enroll-challenge",
                {"env": challenge_env}, ENV_LABELS, "enroll-challenge-lost",
                read=lambda p: bytes.fromhex(opened(p)["nonce"]), bad="bad-enroll-challenge")
    if nonce is None:
        return False
    request = seal(
        [pca_id],
        {
            "ek_certificate": device.anchor.ek_certificate.to_fields(),
            "aik_publics": [r.key.public.hex() for r in records],
            "liveness": device.anchor.ek_challenge_response(nonce).hex(),
        },
        {"ek_certificate": "identity", "aik_publics": "token", "liveness": "plumbing"},
    )
    received = hop(sim, device.device_id, pca_id, channel, "enroll-request",
                   {"env": request}, ENV_LABELS, "enroll-request-lost",
                   read=_enroll_request, bad="bad-enroll-request")
    if received is None:
        return False
    ek_certificate, publics, liveness = received
    try:
        certs = pca.enroll(ek_certificate, publics, challenge, liveness, now=sim.tick)
    except ProtocolError as err:
        sim.event("abort", party=pca_id, code=err.code)
        return False
    reply = seal([device.device_id],
                 {"certificates": [c.to_fields() for c in certs]},
                 {"certificates": "token"})
    certs = hop(sim, pca_id, device.device_id, channel, "enroll-certs",
                {"env": reply}, ENV_LABELS, "enroll-certs-lost",
                read=lambda p: _certificates_for(p, records), bad="bad-enroll-certs")
    if certs is None:
        return False
    device.wallet = CredentialWallet(device.anchor, pca, batch_size=batch_size,
                                     credentials=list(zip(records, certs)))
    return True


def _enroll_request(payload: dict) -> tuple:
    """(EK certificate, AIK publics, liveness answer) of a delivered enroll-request."""
    fields = opened(payload)
    return (EkCertificate.from_fields(fields["ek_certificate"]),
            [bytes.fromhex(public) for public in fields["aik_publics"]],
            bytes.fromhex(fields["liveness"]))


def _replenish_request(payload: dict) -> tuple:
    """(old certificate, new AIK publics, signature) of a delivered replenish-request."""
    fields = opened(payload)
    return (AikCertificate.from_fields(fields["old_certificate"]),
            [bytes.fromhex(public) for public in fields["new_publics"]],
            bytes.fromhex(fields["signature"]))


def _certificates_for(payload: dict, records) -> list:
    """The certificates a delivered enroll-certs or replenish-certs carries;
    ValueError unless they name the records' AIKs, in order."""
    certs = [AikCertificate.from_fields(c) for c in opened(payload)["certificates"]]
    return checked(certs, [c.aik_public for c in certs] == [r.key.public for r in records])
