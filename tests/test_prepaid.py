"""Prepaid: pool logon, attested grants, conservation, vouchers, anonymity."""

import pytest

from trustsim import crypto
from trustsim.anchor import Manufacturer
from trustsim.attestation import Verifier
from trustsim.boot import tamper
from trustsim.crypto import Rng
from trustsim.device import TrustedDevice, reference_db_for, standard_chain
from trustsim.errors import ProtocolError
from trustsim.harness import Simulation
from trustsim.prepaid import (
    PrepaidClient,
    PrepaidOperator,
    make_voucher,
    prepaid_service_request,
    top_up_flow,
    vsim_logon,
)
from trustsim.privacy_ca import PrivacyCa

TARIFFS = {"calls": 10, "data": 5}


def prepaid_world(seed=5, balance=500, pool_size=5, tampered=False, devices=1):
    rng = Rng(seed)
    sim = Simulation(seed, scenario="unit-prepaid")
    sim.add_party("mno", "mno")
    sim.add_party("pca", "pca")
    mfr = Manufacturer(rng)
    pca = PrivacyCa("pca", rng, {mfr.root.public}, domain_id="prepaid")
    mno_keys = crypto.keygen(rng.fork("mno-keys"))
    statement_keys = crypto.keygen(rng.fork("ppc-group"))
    operator = PrepaidOperator(tuple(f"ppimsi-{i}" for i in range(pool_size)),
                               statement_keys.public)

    chain = standard_chain((("vsim", b"vsim-client-v1"), ("ppc", b"prepaid-client-v1")))
    clients = []
    for i in range(devices):
        booted = tamper(chain, "ppc", b"tampered-code") if tampered else chain
        device = TrustedDevice.provision(f"dev-{i}", rng.fork(f"dev-{i}"), mfr, chain=booted)
        sim.add_party(device.device_id, "device")
        device.boot()
        client = PrepaidClient.provision(device, chain, TARIFFS, balance, statement_keys.private)
        device.attach_wallet(pca, batch_size=10)
        sim.event("balance-init", device=device.device_id, value=balance)
        clients.append(client)

    verifier = Verifier(pca.root.public, reference_db_for(chain), rng.fork("verifier"))
    return sim, rng, mno_keys, operator, verifier, pca, clients


def test_logon_picks_seed_determined_imsi():
    sim, rng, _, operator, _, _, clients = prepaid_world()
    expected = Rng(5).fork("pick").shuffled(operator.imsis)[0]
    out = vsim_logon(sim, clients[0], operator, Rng(5).fork("pick"))
    assert out is not None and out[0] == expected


def test_logon_conflict_retries_to_distinct_imsis():
    sim, rng, _, operator, _, _, clients = prepaid_world(devices=2)
    first = vsim_logon(sim, clients[0], operator, rng.fork("a"))
    # drive the second device with a stream whose first pick collides
    seed = None
    for candidate in range(2000):
        if Rng(candidate).fork("b").shuffled(operator.imsis)[0] == first[0]:
            seed = candidate
            break
    assert seed is not None
    second = vsim_logon(sim, clients[1], operator, Rng(seed).fork("b"))
    assert second is not None and second[0] != first[0]
    assert len(sim.messages("vsim-logon-conflict")) >= 1


def test_logon_fails_when_pool_exhausted():
    sim, rng, _, operator, _, _, clients = prepaid_world(pool_size=1, devices=2)
    assert vsim_logon(sim, clients[0], operator, rng.fork("a")) is not None
    assert vsim_logon(sim, clients[1], operator, rng.fork("b")) is None
    assert any(e["code"] == "pool-exhausted" for e in sim.events("abort"))


def test_grant_decrements_and_denies_at_zero():
    sim, rng, mno_keys, operator, verifier, pca, clients = prepaid_world(balance=25)
    client = clients[0]
    vsim_logon(sim, client, operator, rng.fork("pick"))
    cost = prepaid_service_request(sim, client, operator, verifier, "calls", 2)
    assert cost == 20 and client.balance() == 5

    denied = prepaid_service_request(sim, client, operator, verifier, "calls", 1)
    assert denied is None and client.balance() == 5
    assert sim.events("denial")[-1]["code"] == "insufficient-balance"
    # the refusal happened after an accepted attestation, before any decrement
    assert sim.events("attestation-verdict")[-1]["accepted"]
    assert len(sim.events("decrement")) == 1


def test_tampered_ppc_requests_rejected_without_decrement():
    sim, rng, mno_keys, operator, verifier, pca, clients = prepaid_world(tampered=True)
    client = clients[0]
    vsim_logon(sim, client, operator, rng.fork("pick"))
    out = prepaid_service_request(sim, client, operator, verifier, "data", 3)
    assert out is None
    assert sim.events("denial")[-1]["code"] == "reference-mismatch"
    assert sim.events("grant") == [] and sim.events("decrement") == []


def test_voucher_top_up_and_replay():
    sim, rng, mno_keys, operator, verifier, pca, clients = prepaid_world(balance=0)
    client = clients[0]
    voucher = make_voucher(mno_keys, "v-1", 100)
    assert top_up_flow(sim, client, mno_keys, voucher) == 100
    assert top_up_flow(sim, client, mno_keys, voucher) is None
    events = sim.events("top-up")
    assert events[0]["accepted"] and not events[1]["accepted"]
    assert events[1]["code"] == "voucher-replay"
    assert client.balance() == 100


def test_forged_voucher_rejected():
    sim, rng, mno_keys, operator, verifier, pca, clients = prepaid_world(balance=0)
    rogue = crypto.keygen(Rng(321))
    voucher = make_voucher(rogue, "v-9", 500)
    assert top_up_flow(sim, clients[0], mno_keys, voucher) is None
    assert sim.events("top-up")[-1]["code"] == "voucher-invalid"
    assert clients[0].balance() == 0


def test_conservation_over_randomized_sequences():
    for seed in (11, 12, 13):
        sim, rng, mno_keys, operator, verifier, pca, clients = prepaid_world(
            seed=seed, balance=300
        )
        client = clients[0]
        vsim_logon(sim, client, operator, rng.fork("pick"))
        script_rng = rng.fork("script")
        vouchers = granted = 0
        voucher_counter = 0
        for step in range(40):
            if script_rng.randrange(4) == 0:
                voucher_counter += 1
                voucher = make_voucher(mno_keys, f"v-{voucher_counter}", 25)
                if top_up_flow(sim, client, mno_keys, voucher) is not None:
                    vouchers += 25
            else:
                service = ("calls", "data")[script_rng.randrange(2)]
                units = 1 + script_rng.randrange(3)
                cost = prepaid_service_request(
                    sim, client, operator, verifier, service, units,
                    replenish_via=("pca", "mobile"),
                )
                if cost is not None:
                    granted += cost
        assert client.balance() == 300 + vouchers - granted
        assert client.balance() >= 0


def test_no_message_carries_an_individual_device_identity():
    sim, rng, mno_keys, operator, verifier, pca, clients = prepaid_world()
    client = clients[0]
    vsim_logon(sim, client, operator, rng.fork("pick"))
    prepaid_service_request(sim, client, operator, verifier, "data", 2)
    forbidden = {client.device.device_id, client.device.anchor.ek_certificate.ek_public.hex()}

    def walk(value):
        if isinstance(value, dict):
            for v in value.values():
                walk(v)
        elif isinstance(value, list):
            for v in value:
                walk(v)
        else:
            assert value not in forbidden

    for record in sim.messages():
        walk(record["payload"])


def test_statement_requires_sealed_key():
    sim, rng, mno_keys, operator, verifier, pca, clients = prepaid_world(tampered=True)
    client = clients[0]
    with pytest.raises(ProtocolError) as err:
        client.sign_statement("calls", 1, 10, b"n" * 16)
    assert err.value.code == "sealed-against-state"
