"""Recorded protocol flows shared by the scenario modules.

The delivered-hop helper and the routes built from it, enrollment and
replenishment, plus the one attestation exchange, where every injectable
attack but tamper acts (scenarios.World.device patches the chain before
boot). The exchange takes the route its challenge and response travel (one
direct hop each way, or legs through relays), so every scenario runs the
same exchange. The verifier always checks what came off the wire, read
through the wire types' own from_fields, so drop and modify hooks behave
like real tampering.
"""

from __future__ import annotations

import collections
import dataclasses

from . import boot as mb
from . import crypto
from .attestation import (AttestationChallenge, AttestationResponse, AttestationVerdict,
                          Verifier, aik_fingerprint)
from .anchor import EkCertificate
from .device import TrustedDevice
from .errors import ProtocolError
from .harness import is_sealed, opens, seal
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


class AttackPlan:
    """Which attacks this run injects; each fires once, at the first
    opportunity (the setup of the subject device for tamper, first
    attestation otherwise)."""

    def __init__(self, names, subject: str):
        self.names = set(names)
        self.subject = subject  # the id of the device the attacks target
        self._fired = set()

    def take(self, name: str) -> bool:
        if name in self.names and name not in self._fired:
            self._fired.add(name)
            return True
        return False


# -- flows -------------------------------------------------------------------

def hop(sim, sender: str, receiver: str, channel: str, msg_type: str, payload: dict,
        lost: str, *, read=None, bad: str | None = None, party: str | None = None,
        encrypted: bool = True, **fields):
    """Send one hop and return the payload that reached receiver, decoded
    through read(payload) when a reader is given.

    Returns None after writing the one abort record instead: with code bad,
    for the receiver, when read raised KeyError, TypeError or ValueError;
    with code lost, for party (the receiver unless named), when the hop was
    dropped, or could not be read and has no bad code. fields go on the
    abort record."""
    record = sim.send(sender, receiver, channel, msg_type, payload, encrypted=encrypted)
    if record is not None:
        if read is None:
            return record["payload"]
        try:
            return read(record["payload"])
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
    """The interior of a payload's sealed envelope, as its addressee reads
    it; ValueError when the envelope is opaque (see harness.opens)."""
    env = payload["env"]
    if not (is_sealed(env) and opens(env["_sealed"])):
        raise ValueError("no envelope that opens")
    return env["_sealed"]["payload"]


# One hop of a route: sender to receiver over channel as msg_type; a loss
# aborts with code lost for party (the receiver when None). sealed_for names
# the addressee when the leg carries the payload in an envelope (see carry).
Leg = collections.namedtuple(
    "Leg", "sender receiver channel msg_type lost party encrypted sealed_for",
    defaults=(None, True, None))

# The legs an attestation exchange travels: the challenge to the device, the
# response to the verifier and, when given, each verdict on to the party
# that acts on it.
Route = collections.namedtuple("Route", "challenge response verdict", defaults=((),))


def carry(sim, legs, payload: dict, *, read=None, bad: str | None = None, **fields):
    """Send payload along legs, each sender forwarding what reached it, and
    return it as the last receiver got it, through read when given; or None
    after the one abort (see hop; bad is the last leg's code).

    Consecutive legs sealed for one party carry the payload in one envelope:
    sealed by the first sender, forwarded unread, opened by the addressee."""
    sealed = False
    for n, leg in enumerate(legs, 1):
        last = n == len(legs)
        if leg.sealed_for is not None and not sealed:
            payload, sealed = {"env": seal([leg.sealed_for], payload)}, True
        opens = sealed and leg.receiver == leg.sealed_for
        if not sealed:
            step = read if last else None
        elif not opens:  # a relay forwards the envelope as it arrived
            step = lambda p: {"env": p["env"]}
        else:
            step = (lambda p: read(opened(p))) if last and read else opened
        payload = hop(sim, leg.sender, leg.receiver, leg.channel, leg.msg_type, payload,
                      leg.lost, read=step, bad=bad if last else None, party=leg.party,
                      encrypted=leg.encrypted, **fields)
        if payload is None:
            return None
        sealed = sealed and not opens
    return payload


def _sealed_hop(sim, sender: str, receiver: str, channel: str, msg_type: str,
                payload: dict, read):
    """One hop sealed for its receiver, who reads the interior through read;
    aborts with msg_type-lost or bad-msg_type."""
    leg = Leg(sender, receiver, channel, msg_type, f"{msg_type}-lost", sealed_for=receiver)
    return carry(sim, (leg,), payload, read=read, bad=f"bad-{msg_type}")


def _certify(sim, pca_id: str, device: TrustedDevice, channel: str, kind: str, records,
             certify):
    """The CA's answer in enrollment and replenishment: certify() the request
    that reached it and seal the certificates back. Returns them as the
    device received them, each naming its record's AIK, or None after the
    refusal's abort (the ProtocolError's code) or the hop's."""
    try:
        certs = certify()
    except ProtocolError as err:
        sim.event("abort", party=pca_id, code=err.code)
        return None
    return _sealed_hop(sim, pca_id, device.device_id, channel, f"{kind}-certs",
                       {"certificates": [c.to_fields() for c in certs]},
                       lambda f: _certificates_for(f, records))


def replenish_flow(sim, device: TrustedDevice, pca_id: str, channel: str) -> bool:
    """Spend the device's last credential to certify a fresh batch, on the
    record, with the CA that issued the wallet (pca_id names it).

    Each side acts on what reached it: the CA judges the request it received
    and the device installs the certificates it received, each of which must
    name its record's AIK. Returns whether the device now holds the new
    batch; a lost or malformed hop, or a refused request, ends in one abort
    instead."""
    old_certificate, records, signature = device.wallet.prepare_replenish()
    received = _sealed_hop(
        sim, device.device_id, pca_id, channel, "replenish-request",
        {
            "old_certificate": old_certificate.to_fields(),
            "new_publics": [r.key.public.hex() for r in records],
            "signature": signature.hex(),
        },
        _replenish_request)
    certs = None if received is None else _certify(
        sim, pca_id, device, channel, "replenish", records,
        lambda: device.wallet.pca.replenish(*received, now=sim.tick))
    if certs is None:
        return False
    device.wallet.install_batch(records, certs)
    sim.event(
        "replenishment",
        device=device.device_id,
        pca=pca_id,
        batch_size=len(certs),
        count=device.wallet.replenish_count,
    )
    return True


@dataclasses.dataclass(frozen=True)
class Exchange:
    """One recorded attestation exchange: the challenge as it reached the
    device, the response as it reached the verifier (the last presentation),
    the verdict on it (as it reached the end of the verdict route, if there
    is one) and the response payload presented."""

    challenge: AttestationChallenge
    response: AttestationResponse
    verdict: AttestationVerdict
    presented: dict


def attest_flow(
    sim,
    device: TrustedDevice,
    verifier_id: str,
    verifier: Verifier,
    route: str | Route,
    plan: AttackPlan | None = None,
    replenish_via: tuple | None = None,
    replay: dict | None = None,
) -> Exchange | None:
    """One challenge-response attestation, recorded; returns the Exchange,
    or None after an abort: a message was dropped, or arrived too malformed
    to act on. The one writer of "attestation-verdict" events and the one
    place the response-level attacks act.

    route is a Route, or a channel name for the direct one: one unencrypted
    attestation-challenge and attestation-response hop. replay is a stored
    response payload, presented once instead of the device's answer. With a
    replay-aik injection the response is presented twice and the second
    (rejected) verdict is returned. replenish_via is replenish_flow's
    (pca_id, channel).
    """
    if isinstance(route, str):
        route = Route(
            (Leg(verifier_id, device.device_id, route, "attestation-challenge",
                 "challenge-lost", encrypted=False),),
            (Leg(device.device_id, verifier_id, route, "attestation-response",
                 "response-lost", encrypted=False),))
    now = sim.tick
    if plan and plan.take("expired-cert"):  # the credential window has closed
        now = device.wallet.peek()[1].valid_until + 1

    challenge = verifier.make_challenge(now)
    wire_challenge = carry(sim, route.challenge, challenge.to_fields(),
                           read=AttestationChallenge.from_fields, bad="bad-challenge")
    if wire_challenge is None:
        return None

    presentations = 1
    if replay is not None:
        payload = dict(replay)
    else:
        answered = wire_challenge
        if plan and plan.take("wrong-nonce"):
            answered = dataclasses.replace(answered, nonce=crypto.hash256(answered.nonce)[:16])
        response = device.respond(answered)
        if plan and plan.take("forge-log"):
            response = dataclasses.replace(
                response, log=mb.forge_log(response.log, 0, crypto.hash160(b"forged-entry")))
        if plan and plan.take("replay-aik"):
            presentations = 2  # the same response goes on the wire twice
        payload = response.to_fields()
    if device.wallet.needs_replenish and replenish_via is not None:
        if not replenish_flow(sim, device, *replenish_via):
            return None

    for _ in range(presentations):
        wire_response = carry(sim, route.response, payload,
                              read=AttestationResponse.from_fields, bad="bad-response")
        if wire_response is None:
            return None
        verdict = verifier.verify(wire_response, challenge, now=max(now, sim.tick))
        sim.event(
            "attestation-verdict",
            verifier=verifier_id,
            subject=device.device_id,
            aik_fp=aik_fingerprint(wire_response.quote.aik_public),
            accepted=verdict.accepted,
            reasons=list(verdict.reasons),
        )
        if route.verdict:
            verdict = carry(sim, route.verdict, verdict.to_fields(),
                            read=AttestationVerdict.from_fields)
            if verdict is None:
                return None
    return Exchange(wire_challenge, wire_response, verdict, payload)


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
    nonce = _sealed_hop(sim, pca_id, device.device_id, channel, "enroll-challenge",
                        {"nonce": challenge.hex()}, lambda f: bytes.fromhex(f["nonce"]))
    received = None if nonce is None else _sealed_hop(
        sim, device.device_id, pca_id, channel, "enroll-request",
        {
            "ek_certificate": device.anchor.ek_certificate.to_fields(),
            "aik_publics": [r.key.public.hex() for r in records],
            "liveness": device.anchor.ek_challenge_response(nonce).hex(),
        },
        _enroll_request)
    certs = None if received is None else _certify(
        sim, pca_id, device, channel, "enroll", records,
        lambda: pca.enroll(received[0], received[1], challenge, received[2], now=sim.tick))
    if certs is None:
        return False
    device.wallet = CredentialWallet(device.anchor, pca, batch_size=batch_size,
                                     credentials=list(zip(records, certs)))
    return True


def _enroll_request(fields: dict) -> tuple:
    """(EK certificate, AIK publics, liveness answer) of a delivered enroll-request."""
    return (EkCertificate.from_fields(fields["ek_certificate"]),
            [bytes.fromhex(public) for public in fields["aik_publics"]],
            bytes.fromhex(fields["liveness"]))


def _replenish_request(fields: dict) -> tuple:
    """(old certificate, new AIK publics, signature) of a delivered replenish-request."""
    return (AikCertificate.from_fields(fields["old_certificate"]),
            [bytes.fromhex(public) for public in fields["new_publics"]],
            bytes.fromhex(fields["signature"]))


def _certificates_for(fields: dict, records) -> list:
    """The certificates a delivered enroll-certs or replenish-certs carries;
    ValueError unless they name the records' AIKs, in order."""
    certs = [AikCertificate.from_fields(c) for c in fields["certificates"]]
    return checked(certs, [c.aik_public for c in certs] == [r.key.public for r in records])
