"""Privacy CA: enrollment hygiene, replenishment protocol, batch liveness."""

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustsim import boot as mb
from trustsim import crypto
from trustsim.anchor import Manufacturer, TrustAnchor
from trustsim.attestation import Verifier
from trustsim.crypto import Rng
from trustsim.device import TrustedDevice, reference_db_for
from trustsim.errors import ProtocolError
from trustsim.flows import replenish_flow
from trustsim.harness import Simulation
from trustsim.privacy_ca import (
    VALIDITY_TICKS,
    CredentialWallet,
    PrivacyCa,
    verify_aik_certificate,
)


def build(seed=1, batch_size=10):
    rng = Rng(seed)
    mfr = Manufacturer(rng)
    pca = PrivacyCa("pca", rng, {mfr.root.public}, domain_id="collab-1")
    anchor = TrustAnchor.manufacture("dev-1", rng.fork("dev"), mfr)
    chain = mb.make_chain([("crtm", b"crtm-code"), ("os", b"os-image")])
    log = mb.boot(anchor, chain)
    refs = reference_db_for(chain)
    wallet = CredentialWallet(anchor, pca, batch_size=batch_size)
    return rng, mfr, pca, anchor, log, refs, wallet


def recorded_replenisher(anchor, wallet):
    """replenish() running the recorded flow the scenarios use."""
    sim = Simulation(1, scenario="unit-pca")
    sim.add_party("dev-1", "device")
    sim.add_party("pca", "pca")
    device = TrustedDevice("dev-1", anchor, chain=[])
    device.wallet = wallet

    def replenish():
        replenish_flow(sim, device, "pca", "net")
        return [cert for _, cert in wallet.credentials]

    return sim, replenish


def test_enroll_issues_one_cert_per_aik_with_no_ek_material():
    _, _, pca, anchor, _, _, wallet = build()
    wallet.enroll()
    certs = [wallet.take()[1] for _ in range(10)]
    assert not wallet.credentials
    ek_hex = anchor.ek_certificate.ek_public.hex()
    for cert in certs:
        assert verify_aik_certificate(cert, pca.root.public)
        fields = cert.to_fields()
        assert set(fields) == {
            "aik_public", "domain_id", "valid_from", "valid_until", "hash_alg", "pca_signature",
        }
        assert ek_hex not in str(fields.values())
        assert cert.domain_id == "collab-1"


def test_enroll_rejects_forged_ek_certificate():
    rng, mfr, pca, anchor, _, _, _ = build()
    rogue_mfr = Manufacturer(Rng(777))
    rogue_anchor = TrustAnchor.manufacture("rogue", Rng(778), rogue_mfr)
    records = rogue_anchor.create_aik_batch(2)
    challenge = pca.liveness_challenge()
    with pytest.raises(ProtocolError) as err:
        pca.enroll(
            rogue_anchor.ek_certificate,
            [r.key.public for r in records],
            challenge,
            rogue_anchor.ek_challenge_response(challenge),
            now=0,
        )
    assert err.value.code == "untrusted-ek"


def test_enroll_rejects_failed_liveness():
    _, _, pca, anchor, _, _, _ = build()
    records = anchor.create_aik_batch(2)
    challenge = pca.liveness_challenge()
    with pytest.raises(ProtocolError) as err:
        pca.enroll(
            anchor.ek_certificate,
            [r.key.public for r in records],
            challenge,
            b"\x00" * 64,
            now=0,
        )
    assert err.value.code == "ek-liveness-failed"


def test_replenish_after_batch_exhaustion():
    _, _, pca, anchor, _, _, wallet = build(batch_size=3)
    wallet.enroll()
    old_certs = [wallet.take()[1], wallet.take()[1], wallet.peek()[1]]
    assert wallet.needs_replenish
    sim, replenish = recorded_replenisher(anchor, wallet)
    new_certs = replenish()
    assert len(new_certs) == 3
    assert len(wallet.credentials) == 3
    assert wallet.replenish_count == 1
    assert all(verify_aik_certificate(c, pca.root.public) for c in new_certs)
    assert [e["count"] for e in sim.events("replenishment")] == [1]
    # fresh certificates share nothing with the old beyond domain and CA
    old_fields = [c.to_fields() for c in old_certs]
    for new in new_certs:
        nf = new.to_fields()
        for of in old_fields:
            common = {k for k in nf if nf[k] == of[k]}
            assert common <= {"domain_id", "hash_alg", "valid_from", "valid_until"}
            assert nf["aik_public"] != of["aik_public"]
            assert nf["pca_signature"] != of["pca_signature"]


def test_replenish_replay_rejected():
    _, _, pca, anchor, _, _, wallet = build(batch_size=2)
    wallet.enroll()
    wallet.take()
    last_record, last_cert = wallet.peek()
    publics = [r.key.public for r in anchor.create_aik_batch(2)]
    signature = anchor.sign_replenishment(last_record.aik_id, publics)
    assert len(pca.replenish(last_cert, publics, signature, now=1)) == 2
    with pytest.raises(ProtocolError) as err:
        pca.replenish(last_cert, publics, signature, now=2)
    assert err.value.code == "replenish-replay"


def test_replenish_refuses_foreign_or_unsigned_requests():
    _, _, pca, anchor, _, _, wallet = build(batch_size=2)
    wallet.enroll()
    record, cert = wallet.peek()
    publics = [r.key.public for r in anchor.create_aik_batch(2)]
    with pytest.raises(ProtocolError) as err:
        pca.replenish(cert, publics, b"\x11" * 64, now=1)
    assert err.value.code == "bad-replenish-signature"

    foreign = dataclasses.replace(cert, domain_id="other")
    with pytest.raises(ProtocolError) as err:
        pca.replenish(foreign, publics, b"\x11" * 64, now=1)
    assert err.value.code == "untrusted-replenish-cert"


@pytest.mark.parametrize("batch_size,uses", [(10, 27), (10, 9), (10, 8), (3, 11), (2, 5)])
def test_batch_liveness_replenishment_count(batch_size, uses):
    # k service uses with batch size N trigger exactly floor(k/(N-1)) replenishments
    _, _, pca, anchor, log, refs, wallet = build(batch_size=batch_size)
    wallet.enroll()
    sim, replenish = recorded_replenisher(anchor, wallet)
    for _ in range(uses):
        wallet.take()
        if wallet.needs_replenish:
            replenish()
    assert wallet.replenish_count == uses // (batch_size - 1)
    assert len(sim.events("replenishment")) == wallet.replenish_count
    assert len(wallet.credentials) >= 1


def test_service_access_fresh_token_accepted_expired_rejected():
    rng, _, pca, anchor, log, refs, wallet = build()
    wallet.enroll()
    service = Verifier(pca.root.public, refs, rng.fork("shop"))

    record, cert = wallet.take()
    challenge = service.make_challenge(now=1)
    quote = anchor.quote(record.aik_id, challenge.pcr_selection, challenge.nonce)
    from trustsim.attestation import AttestationResponse

    resp = AttestationResponse(quote, log, cert)
    assert service.verify(resp, challenge, now=2).accepted

    record2, cert2 = wallet.take()
    late = cert2.valid_until + 1
    challenge2 = service.make_challenge(now=late)
    quote2 = anchor.quote(record2.aik_id, challenge2.pcr_selection, challenge2.nonce)
    verdict = service.verify(AttestationResponse(quote2, log, cert2), challenge2, now=late)
    assert not verdict.accepted
    assert "cert-expired" in verdict.reasons


def test_shared_used_set_links_services_unshared_does_not():
    # A device careless enough to reuse one AIK at two services is caught
    # only when the services pool their replay stores.
    rng = Rng(4)
    mfr = Manufacturer(rng)
    pca = PrivacyCa("pca", rng, {mfr.root.public}, domain_id="collab")
    anchor = TrustAnchor.manufacture("dev", rng.fork("dev"), mfr)
    chain = mb.make_chain([("crtm", b"crtm-code")])
    log = mb.boot(anchor, chain)
    refs = reference_db_for(chain)
    record = anchor.create_aik_batch(2)[0]
    challenge0 = pca.liveness_challenge()
    cert = pca.enroll(
        anchor.ek_certificate, [record.key.public], challenge0,
        anchor.ek_challenge_response(challenge0), now=0,
    )[0]

    from trustsim.attestation import AttestationResponse

    def attest_at(service, now):
        ch = service.make_challenge(now)
        record.used = False  # the careless device forgets it already used this AIK
        quote = anchor.quote(record.aik_id, ch.pcr_selection, ch.nonce)
        return service.verify(AttestationResponse(quote, log, cert), ch, now + 1)

    shared = set()
    svc_a = Verifier(pca.root.public, refs, rng.fork("a"), used_aiks=shared)
    svc_b = Verifier(pca.root.public, refs, rng.fork("b"), used_aiks=shared)
    assert attest_at(svc_a, 1).accepted
    verdict = attest_at(svc_b, 2)
    assert not verdict.accepted and "aik-reused" in verdict.reasons

    svc_c = Verifier(pca.root.public, refs, rng.fork("c"))
    svc_d = Verifier(pca.root.public, refs, rng.fork("d"))
    assert attest_at(svc_c, 3).accepted
    assert attest_at(svc_d, 4).accepted


# -- certificates minted on first use -------------------------------------------


def _eager_certificates(seed, batch_size, now):
    """What PrivacyCa.enroll issues for the batch a fresh wallet would hold,
    and the PCA it issued them from."""
    _, _, pca, anchor, _, _, _ = build(seed, batch_size)
    records = anchor.create_aik_batch(batch_size)
    challenge = pca.liveness_challenge()
    certs = pca.enroll(anchor.ek_certificate, [r.key.public for r in records], challenge,
                       anchor.ek_challenge_response(challenge), now)
    return pca, certs


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), batch_size=st.integers(2, 12),
       calls=st.lists(st.sampled_from(["take", "peek"]), max_size=30))
def test_wallet_mints_what_eager_enrollment_issues(seed, batch_size, calls):
    # off-record batches are enrolled at tick 0
    eager_pca, eager = _eager_certificates(seed, batch_size, 0)
    _, _, pca, _, _, _, wallet = build(seed, batch_size)
    wallet.enroll()
    # the EK and liveness checks ran now: the PCA's stream is where eager left it
    assert pca.rng.bytes(32) == eager_pca.rng.bytes(32)

    taken, looked = [], set()
    with mock.patch.object(crypto, "sign", wraps=crypto.sign) as sign:
        for call in calls[:batch_size]:
            before = sign.call_count
            record, cert = wallet.take() if call == "take" else wallet.peek()
            # one signature per AIK, at the first look only
            assert sign.call_count - before == (record.aik_id not in looked)
            looked.add(record.aik_id)
            if call == "take":
                taken.append(cert)
    assert taken == eager[:len(taken)]
    rest = [wallet.take()[1] for _ in range(len(wallet.credentials))]
    assert taken + rest == eager
    assert {c.aik_public.hex() for c in eager} <= pca._issued


def test_peek_then_take_signs_once():
    _, _, pca, _, _, _, wallet = build(batch_size=3)
    wallet.enroll()
    with mock.patch.object(crypto, "sign", wraps=crypto.sign) as sign:
        peeked = wallet.peek()
        assert wallet.peek() == peeked
        assert wallet.take() == peeked
        assert sign.call_count == 1
    assert peeked[1].valid_from == 0 and peeked[1].valid_until == VALIDITY_TICKS
    assert len(wallet.credentials) == 2


def test_wallet_enroll_mints_nothing_until_used():
    _, _, pca, _, _, _, wallet = build(batch_size=4)
    with mock.patch.object(crypto, "sign", wraps=crypto.sign) as sign:
        wallet.enroll()
    assert sign.call_count == 1  # the EK's liveness answer, no certificate
    assert [cert for _, cert in wallet.credentials] == [None] * 4
    assert not pca._issued


def test_wallet_enroll_checks_ek_provenance_and_liveness_up_front():
    rng, _, pca, _, _, _, _ = build()
    rogue = TrustAnchor.manufacture("rogue", Rng(778), Manufacturer(Rng(777)))
    with pytest.raises(ProtocolError) as err:
        CredentialWallet(rogue, pca, batch_size=10).enroll()
    assert err.value.code == "untrusted-ek"

    _, _, pca, anchor, _, _, wallet = build()
    anchor.ek_challenge_response = lambda challenge: b"\x00" * 64
    with pytest.raises(ProtocolError) as err:
        wallet.enroll()
    assert err.value.code == "ek-liveness-failed"
    assert not wallet.credentials


def test_replenishment_is_authenticated_by_a_minted_last_credential():
    # the last AIK of a lazily minted batch joins the PCA's issued set when
    # it is taken to sign the request, before the PCA sees the request
    _, _, pca, anchor, _, _, wallet = build(batch_size=2)
    wallet.enroll()
    wallet.take()
    sim, replenish = recorded_replenisher(anchor, wallet)
    assert len(replenish()) == 2
    assert [e["count"] for e in sim.events("replenishment")] == [1]
