"""Attestation verdicts: completeness on honest runs, exact reasons on attacks."""

import dataclasses

import pytest

from trustsim import attestation as att
from trustsim import boot as mb
from trustsim.anchor import Manufacturer, TrustAnchor
from trustsim.attestation import (
    AttestationChallenge,
    AttestationResponse,
    Verifier,
    recompute_pcr,
)
from trustsim.crypto import Rng, ZERO_DIGEST, hash160
from trustsim.device import reference_db_for
from trustsim.privacy_ca import PrivacyCa

from sha1_oracle import fold_pcr, sha1


def build_world(seed=1, chain_payloads=None):
    """Manufacturer, enrolled device with booted chain, CA, verifier."""
    rng = Rng(seed)
    mfr = Manufacturer(rng)
    pca = PrivacyCa("pca", rng, {mfr.root.public}, domain_id="svc-domain")
    anchor = TrustAnchor.manufacture("dev-1", rng.fork("dev"), mfr)
    chain = mb.make_chain(
        chain_payloads
        or [("crtm", b"crtm-code"), ("bios", b"bios-code"), ("os", b"os-image")]
    )
    log = mb.boot(anchor, chain)
    refs = reference_db_for(chain)
    records = anchor.create_aik_batch(4)
    challenge = pca.liveness_challenge()
    certs = pca.enroll(
        anchor.ek_certificate,
        [r.key.public for r in records],
        challenge,
        anchor.ek_challenge_response(challenge),
        now=0,
    )
    verifier = Verifier(pca.root.public, refs, rng.fork("verifier"))
    return anchor, log, records, certs, verifier


def respond(anchor, log, record, cert, challenge):
    quote = anchor.quote(record.aik_id, challenge.pcr_selection, challenge.nonce)
    return AttestationResponse(quote=quote, log=log, certificate=cert)


def test_recompute_pcr_empty_log_is_zero():
    assert recompute_pcr(mb.MeasurementLog()) == ZERO_DIGEST


def test_recompute_pcr_matches_oracle_on_random_chains():
    rng = Rng(77)
    for _ in range(25):
        n = 1 + rng.randrange(8)
        payloads = [rng.bytes(1 + rng.randrange(40)) for _ in range(n)]
        chain = mb.make_chain([(f"c{i}", p) for i, p in enumerate(payloads)])
        world_rng = Rng(3)
        anchor = TrustAnchor.manufacture("d", world_rng.fork("d"), Manufacturer(world_rng))
        log = mb.boot(anchor, chain)
        assert recompute_pcr(log) == fold_pcr([sha1(p) for p in payloads])
        assert recompute_pcr(log) == anchor.pcr_value(0)


def test_honest_attestation_accepts():
    anchor, log, records, certs, verifier = build_world()
    challenge = verifier.make_challenge(now=1)
    resp = respond(anchor, log, records[0], certs[0], challenge)
    verdict = verifier.verify(resp, challenge, now=2)
    assert verdict.accepted
    assert verdict.reasons == ("ok",)


def test_replayed_response_rejected_as_aik_reused():
    anchor, log, records, certs, verifier = build_world()
    challenge = verifier.make_challenge(now=1)
    resp = respond(anchor, log, records[0], certs[0], challenge)
    assert verifier.verify(resp, challenge, now=2).accepted
    verdict = verifier.verify(resp, challenge, now=3)
    assert not verdict.accepted
    assert verdict.reasons == ("aik-reused",)


def test_forged_log_rejected_as_log_pcr_mismatch():
    anchor, log, records, certs, verifier = build_world()
    challenge = verifier.make_challenge(now=1)
    resp = respond(anchor, log, records[0], certs[0], challenge)
    forged = dataclasses.replace(resp, log=mb.forge_log(log, 0, hash160(b"fake")))
    verdict = verifier.verify(forged, challenge, now=2)
    assert not verdict.accepted
    assert "log-pcr-mismatch" in verdict.reasons


def test_tampered_component_rejected_as_reference_mismatch():
    chain_payloads = [("crtm", b"crtm-code"), ("bios", b"bios-code"), ("os", b"evil-os")]
    anchor, log, records, certs, verifier = build_world(chain_payloads=chain_payloads)
    # references describe the honest build
    verifier.refs = reference_db_for(
        mb.make_chain([("crtm", b"crtm-code"), ("bios", b"bios-code"), ("os", b"os-image")])
    )
    challenge = verifier.make_challenge(now=1)
    resp = respond(anchor, log, records[0], certs[0], challenge)
    verdict = verifier.verify(resp, challenge, now=2)
    assert not verdict.accepted
    assert verdict.reasons == ("reference-mismatch",)


def test_wrong_nonce_rejected_as_stale():
    anchor, log, records, certs, verifier = build_world()
    challenge = verifier.make_challenge(now=1)
    other = AttestationChallenge(b"x" * 16, challenge.pcr_selection, challenge.freshness_deadline)
    resp = respond(anchor, log, records[0], certs[0], other)
    verdict = verifier.verify(resp, challenge, now=2)
    assert not verdict.accepted
    assert verdict.reasons == ("stale-nonce",)


def test_missed_deadline_rejected_as_stale():
    anchor, log, records, certs, verifier = build_world()
    challenge = verifier.make_challenge(now=1)
    resp = respond(anchor, log, records[0], certs[0], challenge)
    verdict = verifier.verify(resp, challenge, now=challenge.freshness_deadline + 1)
    assert not verdict.accepted
    assert "stale-nonce" in verdict.reasons


def test_expired_certificate_rejected():
    anchor, log, records, certs, verifier = build_world()
    challenge = verifier.make_challenge(now=1)
    resp = respond(anchor, log, records[0], certs[0], challenge)
    late = certs[0].valid_until + 1
    stale_challenge = AttestationChallenge(challenge.nonce, challenge.pcr_selection, late + 10)
    verdict = verifier.verify(
        dataclasses.replace(resp), stale_challenge, now=late
    )
    assert not verdict.accepted
    assert "cert-expired" in verdict.reasons


def test_foreign_certificate_rejected_as_bad_chain():
    anchor, log, records, certs, verifier = build_world()
    rogue = Rng(999)
    from trustsim import crypto

    rogue_key = crypto.keygen(rogue)
    forged_cert = dataclasses.replace(
        certs[0], pca_signature=crypto.sign(rogue_key, certs[0].signed_payload())
    )
    challenge = verifier.make_challenge(now=1)
    resp = respond(anchor, log, records[0], forged_cert, challenge)
    verdict = verifier.verify(resp, challenge, now=2)
    assert not verdict.accepted
    assert "bad-cert-chain" in verdict.reasons


@pytest.mark.parametrize("hash_alg", ["sha1", "none"])
def test_rewritten_hash_alg_breaks_the_chain(hash_alg):
    # the CA signs hash_alg with the other fields, whatever it names
    anchor, log, records, certs, verifier = build_world()
    challenge = verifier.make_challenge(now=1)
    resp = respond(anchor, log, records[0],
                   dataclasses.replace(certs[0], hash_alg=hash_alg), challenge)
    verdict = verifier.verify(resp, challenge, now=2)
    assert not verdict.accepted
    assert "bad-cert-chain" in verdict.reasons


def test_quote_signature_mutation_rejected():
    anchor, log, records, certs, verifier = build_world()
    challenge = verifier.make_challenge(now=1)
    resp = respond(anchor, log, records[0], certs[0], challenge)
    bad_quote = dataclasses.replace(resp.quote, signature=b"\x00" * 64)
    verdict = verifier.verify(
        dataclasses.replace(resp, quote=bad_quote), challenge, now=2
    )
    assert not verdict.accepted
    assert "bad-quote-signature" in verdict.reasons


def test_verdict_deterministic_and_reason_order_fixed():
    anchor, log, records, certs, verifier = build_world()
    challenge = verifier.make_challenge(now=1)
    resp = respond(anchor, log, records[0], certs[0], challenge)
    # break several checks at once: forged log + expired cert window
    broken = dataclasses.replace(resp, log=mb.forge_log(log, 0, hash160(b"zz")))
    late = certs[0].valid_until + 1
    ch = AttestationChallenge(challenge.nonce, challenge.pcr_selection, late + 5)
    # two verifiers with fresh replay stores judge the same response
    v1, v2 = (dataclasses.replace(verifier, used_aiks=set()).verify(broken, ch, now=late)
              for _ in range(2))
    assert v1 == v2
    assert list(v1.reasons) == [r for r in att.ALL_REASONS if r in v1.reasons]
    assert "cert-expired" in v1.reasons and "log-pcr-mismatch" in v1.reasons


def test_challenge_nonce_minimum_length():
    with pytest.raises(ValueError):
        AttestationChallenge(b"short", (0,), 10)


def test_verifier_nonces_unique_within_run():
    _, _, _, _, verifier = build_world()
    nonces = {verifier.make_challenge(now=i).nonce for i in range(50)}
    assert len(nonces) == 50
