"""Domain restriction: network access, clone resilience, feature policies."""

import pytest

from trustsim.anchor import Manufacturer
from trustsim.attestation import Verifier
from trustsim.boot import tamper
from trustsim.crypto import Rng
from trustsim.device import TrustedDevice, reference_db_for
from trustsim.domain import (
    BOUND,
    UNBOUND,
    FeaturePolicy,
    MobileNetworkOperator,
    network_access_flow,
    subdomain_admission_flow,
)
from trustsim.errors import ProtocolError
from trustsim.harness import Simulation
from trustsim.privacy_ca import PrivacyCa


def clone_world(mode, seed=3, tampered=False):
    """MNO + PCA + a legit device and a clone sharing its generic credential;
    tampered patches the legit device's OS before it boots."""
    rng = Rng(seed)
    sim = Simulation(seed, scenario="unit-clone")
    mfr = Manufacturer(rng)
    mno = MobileNetworkOperator(rng, registry_mode=mode)
    pca = PrivacyCa("pca", rng, {mfr.root.public}, domain_id="subdomain")
    sim.add_party("mno", "mno")

    legit = TrustedDevice.provision("legit", rng.fork("legit"), mfr, identity="imsi-100")
    clone = TrustedDevice.provision("clone", rng.fork("clone"), mfr, identity="imsi-100")
    credential = mno.issue_credential(legit)
    refs = reference_db_for(legit.chain)
    if tampered:
        legit.chain = tamper(legit.chain, "os", b"rootkit")
    for device in (legit, clone):
        sim.add_party(device.device_id, "device")
        device.boot()
        device.attach_wallet(pca, batch_size=4)
    verifier = Verifier(pca.root.public, refs, rng.fork("verifier"))
    if mode == BOUND:
        mno.bind(legit)
    return sim, mno, verifier, credential, legit, clone


def admit(sim, mno, verifier, credential, device):
    session = network_access_flow(sim, device, mno, credential)
    assert session is not None
    return subdomain_admission_flow(sim, device, mno, verifier, session)


def test_network_access_grants_known_identity_denies_unknown():
    sim, mno, verifier, credential, legit, _ = clone_world(UNBOUND)
    session = network_access_flow(sim, legit, mno, credential)
    assert session.identity == "imsi-100"
    with pytest.raises(ProtocolError) as err:
        mno.network_access("imsi-999", b"\x00")
    assert err.value.code == "unknown-identity"


def test_two_sessions_same_identity_both_granted_at_network_layer():
    sim, mno, verifier, credential, legit, clone = clone_world(UNBOUND)
    s1 = network_access_flow(sim, legit, mno, credential)
    s2 = network_access_flow(sim, clone, mno, credential)
    assert s1 is not None and s2 is not None
    assert s1.session_id != s2.session_id


def test_unbound_first_come_first_served():
    sim, mno, verifier, credential, legit, clone = clone_world(UNBOUND)
    first = admit(sim, mno, verifier, credential, clone)
    second = admit(sim, mno, verifier, credential, legit)
    assert first.admitted
    assert not second.admitted and second.reason == "clone-conflict"


def test_unbound_same_device_refresh_keeps_admission():
    sim, mno, verifier, credential, legit, _ = clone_world(UNBOUND)
    first = mno.decide("imsi-100", "fp-1", attestation_accepted=True)
    again = mno.decide("imsi-100", "fp-1", attestation_accepted=True)
    assert first.admitted and again.admitted


def test_bound_mode_rejects_clone_admits_legit():
    sim, mno, verifier, credential, legit, clone = clone_world(BOUND)
    denied = admit(sim, mno, verifier, credential, clone)
    assert not denied.admitted and denied.reason == "credential-inconsistency"
    granted = admit(sim, mno, verifier, credential, legit)
    assert granted.admitted


def test_failed_attestation_blocks_admission():
    sim, mno, verifier, credential, legit, _ = clone_world(UNBOUND, tampered=True)
    admission = admit(sim, mno, verifier, credential, legit)
    assert not admission.admitted and admission.reason == "attestation-failed"
    rejected = [e for e in sim.events("attestation-verdict") if not e["accepted"]]
    assert rejected and "reference-mismatch" in rejected[0]["reasons"]


def test_bound_acceptance_implies_unbound_acceptance():
    # per-request dominance on identical registry state
    rng = Rng(17)
    bound = MobileNetworkOperator(Rng(0), registry_mode=BOUND)
    unbound = MobileNetworkOperator(Rng(0), registry_mode=UNBOUND)
    for trial in range(200):
        identity = f"imsi-{rng.randrange(5)}"
        fp = f"fp-{rng.randrange(6)}"
        attested = rng.randrange(4) > 0
        admitted_state = {
            f"imsi-{i}": f"fp-{rng.randrange(6)}" for i in range(5) if rng.randrange(2)
        }
        bindings = {
            f"imsi-{i}": {f"fp-{rng.randrange(6)}", f"fp-{rng.randrange(6)}"}
            for i in range(5)
        }
        bound.admitted, bound.bindings = dict(admitted_state), dict(bindings)
        unbound.admitted, unbound.bindings = dict(admitted_state), {}
        if bound.decide(identity, fp, attested).admitted:
            assert unbound.decide(identity, fp, attested).admitted


def test_effective_policy_location_rules():
    policy = FeaturePolicy(
        base={"camera": "enabled", "mms": "enabled"},
        location_rules=(("cell-X", {"camera": "disabled"}),),
    )
    assert policy.effective("cell-X") == {"camera": "disabled", "mms": "enabled"}
    assert policy.effective("cell-Y") == policy.base


def test_later_matching_rules_override_earlier():
    policy = FeaturePolicy(
        base={"camera": "enabled"},
        location_rules=(
            ("zone", {"camera": "disabled"}),
            ("zone", {"camera": "enabled"}),
        ),
    )
    assert policy.effective("zone") == {"camera": "enabled"}
