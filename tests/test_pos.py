"""POS flows: mutual sessions, both purchase variants, privacy of parties."""

import copy
import dataclasses

import pytest

from trustsim import audit, crypto, pos, scenarios
from trustsim.anchor import Manufacturer
from trustsim.attestation import Verifier
from trustsim.boot import tamper
from trustsim.crypto import Rng
from trustsim.device import TrustedDevice, reference_db_for, standard_chain
from trustsim.domain import MobileNetworkOperator, network_access_flow
from trustsim.flows import carry, enroll_flow
from trustsim.harness import (
    DROP,
    Simulation,
    Transcript,
    canon_value,
)
from trustsim.pos import (
    PosContext,
    PriceList,
    control_exchange,
    exchange_price_list,
    make_billing_package,
    mutual_attest_session,
    purchase_via_operator,
    rotate_pos_pseudonym,
    separation_purchase,
    separation_session,
    verify_billing_package,
)
from trustsim.privacy_ca import PrivacyCa

GOODS = (("cola", 3), ("water", 2), ("juice", 4))


def pos_world(seed=7, merged=False, tampered_pos=False):
    rng = Rng(seed)
    sim = Simulation(seed, scenario="unit-pos")
    roster = [
        ("dev-1", "device"), ("pos-1", "pos"), ("mno", "mno"),
        ("pos-owner", "pos_owner"), ("pos-pca", "pos_pca"),
        ("charging", "charging_provider"),
        ("vendor", "vendor"), ("payment", "payment_provider"),
    ]
    if not merged:
        roster.append(("auth", "auth_provider"))
    for pid, role in roster:
        sim.add_party(pid, role)
    auth_id = "mno" if merged else "auth"

    mfr = Manufacturer(rng)
    device_pca = PrivacyCa("device-pca", rng, {mfr.root.public}, domain_id="operator-domain")
    pos_pca = PrivacyCa("pos-pca", rng, {mfr.root.public}, domain_id="pos-domain")
    mno = MobileNetworkOperator(rng)

    device = TrustedDevice.provision("dev-1", rng.fork("dev-1"), mfr,
                                     chain=standard_chain((("wallet-app", b"wallet-v1"),)),
                                     identity="imsi-7001")
    device.boot()
    pos_device = TrustedDevice.provision(
        "pos-1", rng.fork("pos-1"), mfr,
        chain=standard_chain((("pos-client", b"pos-firmware-v1"),)),
    )
    if tampered_pos:
        pos_device.chain = tamper(pos_device.chain, "pos-client", b"skimmer")
    pos_device.boot()

    device_refs = reference_db_for(standard_chain((("wallet-app", b"wallet-v1"),)))
    pos_refs = reference_db_for(standard_chain((("pos-client", b"pos-firmware-v1"),)))

    credential = mno.issue_credential(device)
    network_access_flow(sim, device, mno, credential)
    enroll_flow(sim, device, auth_id, device_pca, batch_size=10, channel="mobile")
    enroll_flow(sim, pos_device, "pos-pca", pos_pca, batch_size=10, channel="net")

    ctx = PosContext(
        device=device,
        pos=pos_device,
        device_id="dev-1",
        pos_id="pos-1",
        auth_id=auth_id,
        pos_verifier_for_device=Verifier(device_pca.root.public, device_refs, rng.fork("v-pos")),
        device_verifier_for_pos=Verifier(pos_pca.root.public, pos_refs, rng.fork("v-dev")),
        auth_verifier=Verifier(device_pca.root.public, device_refs, rng.fork("v-auth")),
        mno_keys=mno.keys,
        pos_owner_keys=crypto.keygen(rng.fork("owner-keys")),
        charging_keys=crypto.keygen(rng.fork("charging-keys")),
        pos_delegate_keys=crypto.keygen(rng.fork("delegate-keys")),
        device_credential=credential,
    )
    ctx.price_list = PriceList.build(GOODS, ctx.pos_owner_keys)
    return sim, ctx


def test_mutual_attest_session_happy_path():
    sim, ctx = pos_world()
    session = mutual_attest_session(sim, ctx)
    assert session == "session-1"
    verdicts = sim.events("attestation-verdict")
    assert len(verdicts) == 2 and all(v["accepted"] for v in verdicts)
    # each side learned only the other's pseudonymous token, no identities
    assert sim.knowledge_query("pos-1", "identity") == set()


def test_tampered_pos_firmware_aborts_session():
    sim, ctx = pos_world(tampered_pos=True)
    assert mutual_attest_session(sim, ctx) is None
    aborts = sim.events("abort")
    assert aborts and aborts[-1]["code"] == "session-attestation-failed"
    rejected = [e for e in sim.events("attestation-verdict") if not e["accepted"]]
    assert rejected and "reference-mismatch" in rejected[0]["reasons"]
    assert sim.events("delivery") == []


def test_operator_purchase_happy_sequence():
    sim, ctx = pos_world()
    assert mutual_attest_session(sim, ctx) is not None
    assert exchange_price_list(sim, ctx)
    order = purchase_via_operator(sim, ctx, "cola")
    assert order == "order-1"
    types = [m["type"] for m in sim.messages()]
    expected_tail = ["price-list", "purchase-order", "vendor-notify", "payment-notify",
                     "purchase-ack", "purchase-ack-relay", "delivery-confirmation"]
    assert [t for t in types if t in expected_tail] == expected_tail
    assert sim.events("delivery")[0]["order_id"] == "order-1"


def test_operator_purchase_encrypted_hides_good_from_operator():
    sim, ctx = pos_world()
    mutual_attest_session(sim, ctx)
    exchange_price_list(sim, ctx)
    purchase_via_operator(sim, ctx, "cola", encrypted=True)
    assert sim.knowledge_query("mno", "good") == set()
    assert canon_value("cola") in sim.knowledge_query("vendor", "good")


def test_operator_purchase_plaintext_reveals_good_to_operator():
    sim, ctx = pos_world()
    mutual_attest_session(sim, ctx)
    exchange_price_list(sim, ctx)
    purchase_via_operator(sim, ctx, "cola", encrypted=False)
    assert canon_value("cola") in sim.knowledge_query("mno", "good")


def test_stripped_ack_signature_blocks_delivery():
    sim, ctx = pos_world()
    mutual_attest_session(sim, ctx)
    exchange_price_list(sim, ctx)

    def corrupt(record):
        if record["type"] == "purchase-ack-relay":
            payload = dict(record["payload"])
            payload["signature"] = "00" * 64
            return {**record, "payload": payload}
        return None

    sim.add_hook(corrupt)
    assert purchase_via_operator(sim, ctx, "cola") is None
    assert sim.events("delivery") == []
    assert sim.events("abort")[-1]["code"] == "bad-ack-signature"


def test_pos_identity_check_via_operator_reveals_pos_to_it():
    sim, ctx = pos_world()
    mutual_attest_session(sim, ctx)
    exchange_price_list(sim, ctx)
    assert sim.knowledge_query("mno", "token") == set()
    purchase_via_operator(sim, ctx, "cola", check_pos_via_mno=True)
    assert sim.knowledge_query("mno", "token") != set()


def test_separation_purchase_centralised_privacy():
    sim, ctx = pos_world()
    out = separation_session(sim, ctx)
    assert out is not None
    session, token_fp, _ = out
    assert exchange_price_list(sim, ctx)
    order = separation_purchase(sim, ctx, "cola", token_fp)
    assert order is not None
    # charging provider: token and total only, no goods, no price list
    assert sim.knowledge_query("charging", "good") == set()
    assert canon_value(token_fp) in sim.knowledge_query("charging", "token")
    prices = sim.knowledge_query("charging", "price")
    assert prices == {canon_value(3)}
    # POS owner: no customer identity, but its own sale data
    assert sim.knowledge_query("pos-owner", "identity") == set()
    assert canon_value("cola") in sim.knowledge_query("pos-owner", "good")


def test_separation_purchase_decentralised_same_privacy():
    sim, ctx = pos_world()
    out = separation_session(sim, ctx, validate_direct=True)
    assert out is not None
    _, token_fp, _ = out
    exchange_price_list(sim, ctx)
    order = separation_purchase(sim, ctx, "water", token_fp, decentralised=True)
    assert order is not None
    assert sim.knowledge_query("charging", "good") == set()
    assert sim.knowledge_query("pos-owner", "identity") == set()
    assert sim.events("delivery")[-1]["order_id"] == order
    # the relaying device never reads the backhaul interiors
    assert {value for fname, _, value in sim.knowledge["dev-1"] if fname == "auth_token"} == set()


def test_reused_token_rejected_at_validation():
    sim, ctx = pos_world()
    first = separation_session(sim, ctx)
    assert first is not None
    _, token_fp, response_payload = first
    exchange_price_list(sim, ctx)
    assert separation_purchase(sim, ctx, "cola", token_fp) is not None

    replayed = separation_session(sim, ctx, reuse_response=response_payload)
    assert replayed is None
    assert sim.events("abort")[-1]["code"] == "token-rejected"
    last = [e for e in sim.events("attestation-verdict") if not e["accepted"]][-1]
    assert "aik-reused" in last["reasons"]
    assert len(sim.events("delivery")) == 1


def test_merged_operator_learns_identity_and_tokens():
    sim, ctx = pos_world(merged=True)
    out = separation_session(sim, ctx)
    assert out is not None
    _, token_fp, response_payload = out
    exchange_price_list(sim, ctx)
    separation_purchase(sim, ctx, "cola", token_fp)
    # the merged MNO/auth-provider can link subscriber identity to the
    # one-time tokens spent at the POS
    spent = response_payload["quote"]["aik_public"]
    assert sim.knowledge_query("mno", "identity") != set()
    assert any(spent in v for v in sim.knowledge_query("mno", "token"))


def test_unmerged_operator_sees_neither_tokens_nor_goods():
    sim, ctx = pos_world(merged=False)
    out = separation_session(sim, ctx)
    _, token_fp, response_payload = out
    exchange_price_list(sim, ctx)
    separation_purchase(sim, ctx, "cola", token_fp)
    control_exchange(sim, ctx)
    spent = response_payload["quote"]["aik_public"]
    assert sim.knowledge_query("mno", "good") == set()
    assert all(spent not in v for v in sim.knowledge_query("mno", "token"))
    # carrier view: uniform encrypted envelopes, indistinguishable from the
    # control session's shape
    shapes = {(tuple(e["fields"]), e["encrypted"]) for e in sim.carrier_views["mno"]}
    assert shapes == {(("env",), True)}


def test_two_purchases_expose_distinct_pos_pseudonyms():
    sim, ctx = pos_world()
    for good in ("cola", "water"):
        out = separation_session(sim, ctx)
        assert out is not None
        _, token_fp, _ = out
        exchange_price_list(sim, ctx)
        assert separation_purchase(sim, ctx, good, token_fp) is not None
    device_tokens = {value for fname, _, value in sim.knowledge["dev-1"] if fname == "certificate"}
    assert len(device_tokens) >= 2


def test_rotation_keeps_service_alive():
    sim, ctx = pos_world()
    fp_before = rotate_pos_pseudonym(sim, ctx)
    assert mutual_attest_session(sim, ctx) is not None
    fp_after = rotate_pos_pseudonym(sim, ctx)
    assert fp_before != fp_after


@pytest.mark.parametrize("msg_type", ["replenish-request", "replenish-certs"])
def test_rotation_stops_after_a_failed_replenishment(msg_type):
    sim, ctx = pos_world()
    del ctx.pos.wallet.credentials[1:]  # the last credential: rotation replenishes
    sim.add_hook(lambda record: DROP if record["type"] == msg_type else None)
    assert rotate_pos_pseudonym(sim, ctx) is None
    last = sim.records[-1]
    assert (last["event"], last["code"]) == ("abort", f"{msg_type}-lost")
    assert not sim.events("replenishment")


def test_expired_pos_pseudonym_aborts_session():
    sim, ctx = pos_world()
    # shrink every POS credential's window so it has lapsed by session time
    ctx.pos.wallet.credentials = [
        (record, dataclasses.replace(cert, valid_until=0))
        for record, cert in ctx.pos.wallet.credentials
    ]
    assert mutual_attest_session(sim, ctx) is None
    rejected = [e for e in sim.events("attestation-verdict") if not e["accepted"]]
    assert rejected and "cert-expired" in rejected[-1]["reasons"]


@pytest.mark.parametrize(
    "scenario", ["pos-fig4", "pos-sep-duties", "pos-decentralised", "pos-mno-merged"])
def test_the_device_refuses_a_pos_terminal_it_rejected(scenario):
    # the tamper attack aimed at the POS terminal, not at the device: the
    # device rejects the terminal's proof, and no session or delivery follows
    script = dataclasses.replace(scenarios.CATALOG[scenario], subject="pos-1")
    transcript, _ = scenarios.run_scenario(script, 1, attacks=("tamper",))
    verdicts = [e for e in transcript.events("attestation-verdict")
                if e["verifier"] == "dev-1" and e["subject"] == "pos-1"]
    assert [(v["accepted"], v["reasons"]) for v in verdicts] == [(False, ["reference-mismatch"])]
    assert [e["code"] for e in transcript.events("abort")] == ["session-attestation-failed"]
    assert transcript.events("secure-session") == []
    assert transcript.events("delivery") == []


def test_device_knows_prices_from_the_price_list():
    sim, ctx = pos_world()
    mutual_attest_session(sim, ctx)
    exchange_price_list(sim, ctx)
    entries = {value for fname, _, value in sim.knowledge["dev-1"] if fname == "entries"}
    assert entries and all(str(price) in next(iter(entries)) for _, price in GOODS)


def test_billing_package_shape_is_enforced():
    keys = crypto.keygen(Rng(5))
    package = make_billing_package("fp", 7, keys)
    assert set(package) == {"auth_token", "grand_total", "signature"}
    assert verify_billing_package(package, [keys.public])
    assert not verify_billing_package({**package, "extra": 1}, [keys.public])
    assert not verify_billing_package(package, [crypto.keygen(Rng(6)).public])


# -- lost and rewritten hops in the separation session ---------------------------

# Every message type separation_session puts on the wire, with the abort
# code a loss of that hop must produce.
SESSION_HOPS = {
    "token-challenge": "challenge-lost",
    "token-challenge-relay": "challenge-lost",
    "attestation-challenge": "challenge-lost",
    "auth-token": "token-lost",
    "token-validate-relay": "token-lost",
    "token-validate": "token-lost",
    "token-verdict": "verdict-lost",
    "token-verdict-relay": "verdict-lost",
}


def _drop_type(msg_type):
    def hook(record):
        return DROP if record["type"] == msg_type else None
    return hook


@pytest.mark.parametrize("direct", [False, True], ids=["via-owner", "direct"])
@pytest.mark.parametrize("msg_type", sorted(SESSION_HOPS))
def test_separation_session_aborts_on_any_lost_hop(msg_type, direct):
    sim, ctx = pos_world()
    sim.add_hook(_drop_type(msg_type))
    assert separation_session(sim, ctx, validate_direct=direct) is None
    dropped = [e for e in sim.events("message-dropped") if e["type"] == msg_type]
    assert dropped, f"{msg_type} never went on the wire"
    assert sim.events("abort")[-1]["code"] == SESSION_HOPS[msg_type]
    assert sim.events("secure-session") == []
    if SESSION_HOPS[msg_type] != "verdict-lost":
        # the authentication provider never decides on a token it did not get
        assert sim.events("attestation-verdict") == []


def _rewrite_validated_nonce(record):
    if record["type"] != "token-validate":
        return None
    payload = copy.deepcopy(record["payload"])
    interior = payload["env"]["_sealed"]["payload"] if "env" in payload else payload
    interior["quote"]["nonce"] = "00" * 16
    return {**record, "payload": payload}


@pytest.mark.parametrize("direct", [False, True], ids=["via-owner", "direct"])
def test_auth_provider_verifies_the_token_it_received(direct):
    sim, ctx = pos_world()
    sim.add_hook(_rewrite_validated_nonce)
    assert separation_session(sim, ctx, validate_direct=direct) is None
    verdict = sim.events("attestation-verdict")[-1]
    assert verdict["verifier"] == "auth" and not verdict["accepted"]
    assert "stale-nonce" in verdict["reasons"]
    abort = sim.events("abort")[-1]
    assert abort["code"] == "token-rejected" and "stale-nonce" in abort["reasons"]
    assert sim.events("secure-session") == []


def test_pos_acts_on_the_verdict_that_reached_it():
    sim, ctx = pos_world()

    def refuse(record):
        if record["type"] != "token-verdict-relay":
            return None
        payload = copy.deepcopy(record["payload"])
        payload["env"]["_sealed"]["payload"] = {"ok": False, "reasons": ["forged"]}
        return {**record, "payload": payload}

    sim.add_hook(refuse)
    assert separation_session(sim, ctx) is None
    assert sim.events("attestation-verdict")[-1]["accepted"]
    abort = sim.events("abort")[-1]
    assert abort["code"] == "token-rejected" and abort["reasons"] == ["forged"]
    assert sim.events("secure-session") == []


def test_relay_forwards_what_arrived_and_stops_at_a_lost_hop():
    sim, ctx = pos_world()

    def stamp(record):
        if record["type"] == "note-relay":
            payload = copy.deepcopy(record["payload"])
            payload["env"]["_sealed"]["payload"]["request"] = "rewritten"
            return {**record, "payload": payload}
        return None

    sim.add_hook(stamp)
    legs = pos._backhaul(ctx, "pos-1", "pos-owner", "note", "note-lost")
    assert carry(sim, legs, {"request": "hello"}) == {"request": "rewritten"}
    last = sim.messages()[-1]
    assert last["type"] == "note" and last["receiver"] == "pos-owner"
    assert not sim.events("abort")

    sim.add_hook(_drop_type("note-relay"))
    sent = len(sim.messages())
    assert carry(sim, legs, {"request": "hello"}, order_id="order-9") is None
    assert len(sim.messages()) == sent  # nothing left the device
    abort = sim.events("abort")[-1]
    assert (abort["party"], abort["code"], abort["order_id"]) == ("pos-1", "note-lost", "order-9")



def _rewrite_interior(msg_type, **fields):
    """Hook: overwrite fields inside the relayed envelope of msg_type."""
    def hook(record):
        if record["type"] != msg_type:
            return None
        payload = copy.deepcopy(record["payload"])
        payload["env"]["_sealed"]["payload"].update(fields)
        return {**record, "payload": payload}
    return hook


@pytest.mark.parametrize("decentralised", [False, True], ids=["centralised", "decentralised"])
def test_pos_verifies_the_acknowledgement_that_reached_it(decentralised):
    sim, ctx = pos_world()
    _, token_fp, _ = separation_session(sim, ctx, validate_direct=decentralised)
    assert exchange_price_list(sim, ctx)
    sim.add_hook(_rewrite_interior("purchase-acknowledgement-relay", signature="00" * 64))
    assert separation_purchase(sim, ctx, "cola", token_fp, decentralised=decentralised) is None
    assert sim.events("abort")[-1]["code"] == "bad-ack-signature"
    assert sim.events("delivery") == []


def test_owner_bills_the_data_that_reached_it():
    sim, ctx = pos_world()
    _, token_fp, _ = separation_session(sim, ctx)
    assert exchange_price_list(sim, ctx)
    sim.add_hook(_rewrite_interior("billing-data-relay", price=99))
    separation_purchase(sim, ctx, "cola", token_fp)
    assert sim.messages("billing-package")[-1]["payload"]["grand_total"] == 99



def test_charging_provider_judges_the_package_that_reached_it():
    sim, ctx = pos_world()
    _, token_fp, _ = separation_session(sim, ctx)
    assert exchange_price_list(sim, ctx)

    def discount(record):
        if record["type"] != "billing-package":
            return None
        return {**record, "payload": {**record["payload"], "grand_total": 0}}

    sim.add_hook(discount)
    assert separation_purchase(sim, ctx, "cola", token_fp) is None
    assert sim.events("abort")[-1]["code"] == "charge-refused"
    assert sim.events("charge-confirmed") == [] and sim.events("delivery") == []


def test_owner_refuses_a_confirmation_for_another_token():
    sim, ctx = pos_world()
    _, token_fp, _ = separation_session(sim, ctx)
    assert exchange_price_list(sim, ctx)
    # a genuine confirmation, but of someone else's purchase
    other = pos._charge(ctx, make_billing_package("other-token", 3, ctx.pos_owner_keys),
                        [ctx.pos_owner_keys.public])
    assert other["status"] == "confirmed"
    sim.add_hook(lambda record: {**record, "payload": other}
                 if record["type"] == "charge-confirmation" else None)
    assert separation_purchase(sim, ctx, "cola", token_fp) is None
    assert sim.events("abort")[-1]["code"] == "charge-refused"
    assert sim.events("delivery") == []

def test_device_checks_the_price_list_that_reached_it():
    sim, ctx = pos_world()
    separation_session(sim, ctx)

    def reprice(record):
        if record["type"] != "price-list":
            return None
        return {**record, "payload": {**record["payload"], "entries": [["cola", 1]]}}

    sim.add_hook(reprice)
    assert not exchange_price_list(sim, ctx)
    assert sim.events("abort")[-1]["code"] == "bad-price-list"


# -- lost hops in whole separation-of-duties runs ---------------------------------

# Every message type of the separation flow from the token challenge to the
# owner's acknowledgement, per route; dropping the first one of any must end
# the run in an abort.
_SESSION_TYPES = sorted(SESSION_HOPS) + ["attestation-response", "price-list"]
_PURCHASE_TYPES = {
    "centralised": ["billing-data-relay", "billing-data", "billing-package",
                    "charge-confirmation", "purchase-acknowledgement",
                    "purchase-acknowledgement-relay"],
    "decentralised": ["billing-package-relay", "billing-package", "charge-confirmation",
                      "charge-confirmation-relay", "ack-request-relay", "ack-request",
                      "purchase-acknowledgement", "purchase-acknowledgement-relay"],
}
_SEPARATION_RUNS = [
    (scenario, msg_type)
    for scenario, route in (("pos-sep-duties", "centralised"),
                            ("pos-decentralised", "decentralised"),
                            ("pos-mno-merged", "centralised"))
    for msg_type in _SESSION_TYPES + _PURCHASE_TYPES[route]
]


def _drop_first(msg_type):
    dropped = []

    def hook(record):
        if record["type"] == msg_type and not dropped:
            dropped.append(record["id"])
            return DROP
        return None
    return hook


def _run_with_hook(monkeypatch, scenario, hook, variants=None):
    """run_scenario(scenario, 1, variants=variants) with hook on its
    Simulation; returns the transcript, the report and the event records."""
    class HookedSimulation(Simulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.add_hook(hook)

    monkeypatch.setattr(scenarios, "Simulation", HookedSimulation)
    transcript, report = scenarios.run_scenario(scenario, 1, variants=variants)
    return transcript, report, transcript.events()


def _assert_aborted_without_delivery(transcript, report, events, code=None):
    aborts = [i for i, e in enumerate(events) if e["event"] == "abort"]
    assert aborts, "a lost or altered hop must end in an abort"
    if code is not None:
        assert events[aborts[-1]]["code"] == code
    after = {e["event"] for e in events[aborts[0]:]}
    assert not after & {"delivery", "secure-session"}
    rows = {row["name"]: row["ok"] for row in report["assertions"]}
    assert rows["purchase-delivered"] is False
    parsed = Transcript.parse(transcript.to_text())
    assert all(f.ok for f in audit.audit(parsed)), audit.audit(parsed)


@pytest.mark.parametrize("scenario,msg_type", _SEPARATION_RUNS)
def test_separation_run_aborts_on_a_lost_hop(monkeypatch, scenario, msg_type):
    transcript, report, events = _run_with_hook(monkeypatch, scenario, _drop_first(msg_type))
    assert [e for e in events if e["event"] == "message-dropped"
            and e["type"] == msg_type], f"{msg_type} never went on the wire"
    _assert_aborted_without_delivery(transcript, report, events)


@pytest.mark.parametrize("scenario", ["pos-fig4", "pos-sep-duties", "pos-decentralised",
                                      "pos-mno-merged"])
def test_pos_run_stops_at_a_failed_network_logon(monkeypatch, scenario):
    transcript, report, events = _run_with_hook(monkeypatch, scenario,
                                                _drop_first("network-access"))
    _assert_aborted_without_delivery(transcript, report, events, "network-access-lost")
    assert not [e for e in events if e["event"] == "delivery"]
    assert not report["ok"]
    rows = {row["name"]: row for row in report["assertions"]}
    assert rows["purchase-delivered"]["detail"] == "setup aborted"


# pos-fig4 hop types from the session to the acknowledgement, with the abort
# code a loss of each must produce, and the hops delivery does not wait for.
_FIG4_HOPS = {
    "attestation-challenge": "session-attestation-failed",
    "attestation-response": "session-attestation-failed",
    "price-list": "price-list-lost",
    "purchase-order": "order-lost",
    "purchase-ack": "ack-lost",
    "purchase-ack-relay": "ack-lost",
}
_FIG4_SIDE_HOPS = ["vendor-notify", "payment-notify", "delivery-confirmation", "control-env"]


@pytest.mark.parametrize("msg_type", sorted(_FIG4_HOPS))
def test_operator_run_aborts_on_a_lost_hop(monkeypatch, msg_type):
    transcript, report, events = _run_with_hook(monkeypatch, "pos-fig4", _drop_first(msg_type))
    assert [e for e in events if e["event"] == "message-dropped"
            and e["type"] == msg_type], f"{msg_type} never went on the wire"
    _assert_aborted_without_delivery(transcript, report, events, _FIG4_HOPS[msg_type])


@pytest.mark.parametrize("msg_type", _FIG4_SIDE_HOPS)
def test_operator_run_survives_a_lost_side_hop(monkeypatch, msg_type):
    transcript, report, events = _run_with_hook(monkeypatch, "pos-fig4", _drop_first(msg_type))
    assert [e for e in events if e["event"] == "message-dropped" and e["type"] == msg_type]
    assert not [e for e in events if e["event"] == "abort"]
    parsed = Transcript.parse(transcript.to_text())
    assert all(f.ok for f in audit.audit(parsed)), audit.audit(parsed)


REMOVED = object()
NOT_HEX = "zz" * 64


_IDENTITY_CHECK = {"pos_check_via_mno": True}


@pytest.mark.parametrize("msg_type", ["pos-identity-check", "pos-identity-ok"])
def test_operator_identity_check_aborts_on_a_lost_hop(monkeypatch, msg_type):
    transcript, report, events = _run_with_hook(monkeypatch, "pos-fig4", _drop_first(msg_type),
                                                _IDENTITY_CHECK)
    _assert_aborted_without_delivery(transcript, report, events, "identity-check-lost")
    assert not [m for m in transcript.messages() if m["type"] == "purchase-order"]


def test_operator_identity_check_judges_the_certificate_that_reached_it(monkeypatch):
    def forge(record):
        if record["type"] != "pos-identity-check":
            return None
        payload = copy.deepcopy(record["payload"])
        payload["pos_certificate"]["valid_until"] += 1
        return {**record, "payload": payload}

    transcript, report, events = _run_with_hook(monkeypatch, "pos-fig4", forge,
                                                _IDENTITY_CHECK)
    assert transcript.messages("pos-identity-ok")[0]["payload"] == {"ok": False}
    _assert_aborted_without_delivery(transcript, report, events, "pos-identity-unverified")


def _alter_first(msg_type, changes):
    """Hook: in the first message of msg_type, set each field of changes to
    its value, or delete it for REMOVED, inside the relayed envelope if the
    message carries one."""
    altered = []

    def hook(record):
        if record["type"] != msg_type or altered:
            return None
        altered.append(record["id"])
        payload = copy.deepcopy(record["payload"])
        body = payload["env"]["_sealed"]["payload"] if "env" in payload else payload
        for name, value in changes.items():
            if value is REMOVED:
                del body[name]
            else:
                body[name] = value
        return {**record, "payload": payload}
    return hook


# (scenario, message type, changes, abort code): malformed payloads of every
# kind a party reads, on each route; each must end in that abort, not in an
# exception out of run_scenario.
_MALFORMED_RUNS = [
    ("pos-fig4", "purchase-order", {"signature": NOT_HEX}, "bad-order-signature"),
    ("pos-fig4", "purchase-order", {"price": REMOVED}, "bad-order-signature"),
    ("pos-fig4", "purchase-ack", {"signature": NOT_HEX}, "bad-ack-signature"),
    ("pos-fig4", "purchase-ack-relay", {"status": REMOVED}, "bad-ack-signature"),
    ("pos-fig4", "purchase-ack-relay", {"signature": 7}, "bad-ack-signature"),
    ("pos-fig4", "price-list", {"signature": NOT_HEX}, "bad-price-list"),
    ("pos-fig4", "pos-identity-check", {"pos_certificate": {"aik_public": NOT_HEX}},
     "pos-identity-unverified"),
    ("pos-fig4", "pos-identity-ok", {"ok": REMOVED}, "pos-identity-unverified"),
    ("pos-fig4", "pos-identity-ok", {"ok": "zz"}, "pos-identity-unverified"),
    ("pos-sep-duties", "charge-confirmation", {"status": REMOVED}, "charge-refused"),
    ("pos-sep-duties", "charge-confirmation", {"signature": NOT_HEX}, "charge-refused"),
    ("pos-sep-duties", "billing-package", {"signature": NOT_HEX}, "charge-refused"),
    ("pos-sep-duties", "billing-data-relay", {"price": REMOVED}, "bad-billing-data"),
    ("pos-sep-duties", "purchase-acknowledgement-relay", {"signature": NOT_HEX},
     "bad-ack-signature"),
    ("pos-sep-duties", "purchase-acknowledgement-relay", {"order_id": REMOVED},
     "bad-ack-signature"),
    ("pos-sep-duties", "token-verdict-relay", {"ok": REMOVED}, "token-rejected"),
    ("pos-sep-duties", "token-verdict-relay", {"ok": False, "reasons": 5}, "token-rejected"),
    ("pos-sep-duties", "token-verdict-relay", {"ok": [1], "reasons": REMOVED},
     "token-rejected"),
    ("pos-decentralised", "billing-package-relay", {"signature": NOT_HEX}, "charge-refused"),
    ("pos-decentralised", "charge-confirmation-relay", {"status": REMOVED}, "charge-refused"),
    ("pos-decentralised", "charge-confirmation", {"signature": NOT_HEX}, "charge-refused"),
    ("pos-decentralised", "ack-request-relay", {"order_id": REMOVED}, "bad-billing-data"),
    ("pos-decentralised", "purchase-acknowledgement-relay", {"signature": REMOVED},
     "bad-ack-signature"),
    ("pos-mno-merged", "charge-confirmation", {"status": REMOVED}, "charge-refused"),
    ("pos-mno-merged", "purchase-acknowledgement-relay", {"signature": NOT_HEX},
     "bad-ack-signature"),
    ("pos-mno-merged", "token-verdict", {"ok": REMOVED, "reasons": REMOVED},
     "token-rejected"),
]


def _malformed_id(run):
    scenario, msg_type, changes, _ = run
    what = ",".join(f"{name}-{'removed' if value is REMOVED else 'bad'}"
                    for name, value in changes.items())
    return f"{scenario}:{msg_type}:{what}"


@pytest.mark.parametrize("scenario,msg_type,changes,code", _MALFORMED_RUNS,
                         ids=[_malformed_id(run) for run in _MALFORMED_RUNS])
def test_malformed_hop_aborts_instead_of_raising(monkeypatch, scenario, msg_type, changes,
                                                  code):
    variants = _IDENTITY_CHECK if msg_type.startswith("pos-identity") else None
    transcript, report, events = _run_with_hook(monkeypatch, scenario,
                                                _alter_first(msg_type, changes), variants)
    _assert_aborted_without_delivery(transcript, report, events, code)


@pytest.mark.parametrize("changes", [run[2] for run in _MALFORMED_RUNS
                                     if run[1] == "purchase-order"],
                         ids=[_malformed_id(run) for run in _MALFORMED_RUNS
                              if run[1] == "purchase-order"])
def test_broken_order_gets_a_signed_reject(monkeypatch, changes):
    operators = []

    class RecordedOperator(MobileNetworkOperator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            operators.append(self)

    monkeypatch.setattr(scenarios, "MobileNetworkOperator", RecordedOperator)
    transcript, _, _ = _run_with_hook(monkeypatch, "pos-fig4",
                                      _alter_first("purchase-order", changes))
    reject = transcript.messages("purchase-reject")[0]["payload"]
    assert crypto.signed_by(operators[0].keys.public, pos._ACK_TAG, reject)
    assert reject["status"] == "rejected" and reject["order_id"] == "order-1"


# (scenario, relayed hop, payload it arrives with, abort party, abort code):
# an envelope that is missing or does not open is malformed where its
# reader has a bad-* code, and otherwise counts as lost for the party
# waiting on it
_UNOPENABLE_RUNS = [
    ("pos-sep-duties", "token-challenge-relay", {"env": "sealed?"}, "dev-1", "challenge-lost"),
    ("pos-sep-duties", "token-validate-relay", {"env": "sealed?"}, "pos-1", "token-lost"),
    ("pos-sep-duties", "token-verdict-relay", {"env": "sealed?"}, "pos-1", "verdict-lost"),
    ("pos-decentralised", "charge-confirmation-relay", {"env": "sealed?"}, "pos-1",
     "charge-refused"),
    ("pos-sep-duties", "billing-data-relay", {}, "pos-1", "billing-lost"),
]


@pytest.mark.parametrize("scenario,msg_type,arrives,party,code", _UNOPENABLE_RUNS,
                         ids=[f"{run[0]}:{run[1]}" for run in _UNOPENABLE_RUNS])
def test_an_envelope_that_does_not_open_counts_as_lost(monkeypatch, scenario, msg_type,
                                                       arrives, party, code):
    def unseal(record):
        if record["type"] != msg_type:
            return None
        return {**record, "payload": dict(arrives)}

    transcript, report, events = _run_with_hook(monkeypatch, scenario, unseal)
    _assert_aborted_without_delivery(transcript, report, events, code)
    assert [e["party"] for e in events if e["event"] == "abort"] == [party]


@pytest.mark.parametrize("reasons,recorded", [
    (5, []), (["forged", 7], []), ("forged", []), (["forged"], ["forged"]),
])
def test_token_rejected_records_only_a_list_of_reason_strings(monkeypatch, reasons, recorded):
    transcript, report, events = _run_with_hook(
        monkeypatch, "pos-sep-duties",
        _alter_first("token-verdict-relay", {"ok": False, "reasons": reasons}))
    _assert_aborted_without_delivery(transcript, report, events, "token-rejected")
    assert [e for e in events if e["event"] == "abort"][-1]["reasons"] == recorded
