"""Facility pieces in isolation: gate checks, cache, enforcer, terminals; and
the gate terminal under attack in the facility scenarios."""

import dataclasses

import pytest

from trustsim.anchor import Manufacturer
from trustsim.attestation import Verifier
from trustsim.boot import tamper
from trustsim.crypto import Rng
from trustsim.device import TrustedDevice, reference_db_for, standard_chain
from trustsim.facility import (
    BASE_FEATURES,
    CACHE_STALENESS,
    OUTSIDE,
    FacilityContext,
    access_rights_check,
    facility_access,
    facility_exit,
    send_external,
    terminal_interaction,
    zone_features,
)
from trustsim.harness import DROP, Simulation
from trustsim.privacy_ca import PrivacyCa
from trustsim.scenarios import CATALOG, run_scenario


def facility_world(seed=9, tampered_employee=False):
    rng = Rng(seed)
    sim = Simulation(seed, scenario="unit-facility")
    for pid, role in [("employee", "device"), ("gate", "gate"),
                      ("gate-dev", "gate_terminal"), ("company", "company"),
                      ("external", "facility_provider"), ("mno", "mno"),
                      ("board", "terminal")]:
        sim.add_party(pid, role)

    mfr = Manufacturer(rng)
    pca = PrivacyCa("pca", rng, {mfr.root.public}, domain_id="company")
    chain = standard_chain((("enforcer", b"policy-enforcer-v1"),))
    refs = reference_db_for(chain)

    employee = TrustedDevice.provision("employee", rng.fork("emp"), mfr,
                                       chain=chain, identity="imsi-1")
    if tampered_employee:
        employee.chain = tamper(employee.chain, "enforcer", b"patched-enforcer")
    employee.boot()
    employee.attach_wallet(pca, 4)

    gate_chain = standard_chain((("gate-terminal", b"gate-firmware-v1"),))
    gate = TrustedDevice.provision("gate-dev", rng.fork("gate"), mfr, chain=gate_chain)
    gate.boot()
    gate.attach_wallet(pca, 4)
    gate_refs = reference_db_for(gate_chain)

    ctx = FacilityContext(
        zones={"zone-lab": {"camera": "disabled", "mms": "disabled"}},
        enforcer_allowed_fields=frozenset({"room", "action"}),
        gate=gate,
        gate_verifier_for_device=Verifier(pca.root.public, refs, rng.fork("vg")),
        device_verifier_for_gate=Verifier(pca.root.public, gate_refs, rng.fork("ve")),
        admitted_identities={"imsi-1"},
        gate_cache=None,
        gate_cache_synced=0,
    )
    return sim, ctx, employee


def test_entry_applies_zone_policy_and_exit_restores():
    sim, ctx, employee = facility_world()
    inside = facility_access(sim, ctx, employee, "zone-lab")
    assert inside == {"camera": "disabled", "mms": "disabled", "calls": "enabled"}
    assert sim.events("entry")[-1]["granted"]
    outside = facility_exit(sim, ctx, employee)
    assert outside == BASE_FEATURES


def test_zone_features_override_the_base_set_inside_a_zone():
    zones = {"cell-X": {"camera": "disabled"}}
    assert zone_features(zones, "cell-X") == {**BASE_FEATURES, "camera": "disabled"}
    assert zone_features(zones, "cell-Y") == BASE_FEATURES
    assert zone_features(zones, OUTSIDE) == BASE_FEATURES
    # each call is a fresh map: an applied feature set never aliases the config
    zone_features(zones, "cell-X")["mms"] = "disabled"
    assert zones == {"cell-X": {"camera": "disabled"}} and BASE_FEATURES["mms"] == "enabled"


def test_tampered_enforcement_component_is_turned_away():
    # policy would be unenforceable on this device, so it stays outside:
    # no rights check is made and no feature policy is applied to it
    sim, ctx, employee = facility_world(tampered_employee=True)
    assert facility_access(sim, ctx, employee, "zone-lab") is None
    entry = sim.events("entry")[-1]
    assert not entry["granted"]
    rejected = [e for e in sim.events("attestation-verdict") if not e["accepted"]]
    assert rejected and "reference-mismatch" in rejected[0]["reasons"]
    assert sim.events("policy-applied") == []
    assert sim.events("access-check") == [] and sim.messages("access-check") == []


@pytest.mark.parametrize("scenario", ["facility-entry", "facility-midnight"])
def test_the_device_refuses_a_gate_terminal_it_rejected(scenario):
    # the tamper attack aimed at the gate terminal, not at the employee: the
    # employee's device rejects the gate's proof, and the door stays shut
    script = dataclasses.replace(CATALOG[scenario], subject="gate-dev")
    transcript, _ = run_scenario(script, 1, attacks=("tamper",))
    verdicts = [e for e in transcript.events("attestation-verdict")
                if e["verifier"] == "employee" and e["subject"] == "gate-dev"]
    assert [(v["accepted"], v["reasons"]) for v in verdicts] == [(False, ["reference-mismatch"])]
    [entry] = transcript.events("entry")
    assert entry["granted"] is False
    after = transcript.records[transcript.records.index(entry):]
    assert [e for e in after if e.get("event") == "policy-applied"
            and e["location"] != OUTSIDE] == []


def test_unlisted_identity_denied_even_when_attested():
    sim, ctx, employee = facility_world()
    ctx.admitted_identities = set()
    assert facility_access(sim, ctx, employee, "zone-lab") is None
    assert not sim.events("entry")[-1]["granted"]


def test_gate_cache_used_until_stale():
    sim, ctx, employee = facility_world()
    ctx.gate_cache = {"imsi-1"}
    ctx.gate_cache_synced = sim.tick - CACHE_STALENESS  # as old as a cache may be
    assert access_rights_check(sim, ctx, "imsi-1")
    assert sim.events("access-check")[-1]["source"] == "cache"
    assert len(sim.messages("access-check")) == 0

    ctx.gate_cache_synced = sim.tick - CACHE_STALENESS - 1  # stale: online path
    assert access_rights_check(sim, ctx, "imsi-1")
    assert sim.events("access-check")[-1]["source"] == "online"
    assert len(sim.messages("access-check")) == 1


def test_terminal_relays_through_device_sealed():
    sim, _, employee = facility_world()
    ack = terminal_interaction(sim, employee, "board", "show-agenda")
    assert ack == {"terminal": "board", "ok": True}
    # the relaying device cannot read the terminal's request
    requests = {party: {value for fname, _, value in sim.knowledge[party] if fname == "request"}
                for party in ("employee", "company")}
    assert requests == {"employee": set(), "company": {'"show-agenda"'}}


def _terminal_with_hook(hook):
    sim, _, employee = facility_world()
    sim.add_hook(hook)
    return sim, terminal_interaction(sim, employee, "board", "show-agenda")


def test_lost_terminal_request_is_never_acked():
    sim, ack = _terminal_with_hook(
        lambda record: DROP if record["type"] == "terminal-relay" else None)
    assert ack is None
    assert [(e["party"], e["code"]) for e in sim.events("abort")] == [
        ("company", "request-lost")]
    assert not sim.messages("terminal-ack")


def test_company_acks_the_terminal_its_request_named():
    def hook(record):
        if record["type"] != "terminal-request":
            return None
        inner = record["payload"]["env"]["_sealed"]["payload"]
        inner["terminal"] = "elsewhere"
        return None

    sim, ack = _terminal_with_hook(hook)
    assert [m["payload"]["terminal"] for m in sim.messages("terminal-ack")] == ["elsewhere"]
    assert ack is None  # the ack is not for this terminal
    assert [(e["party"], e["code"]) for e in sim.events("abort")] == [
        ("board", "bad-terminal-ack")]


def test_terminal_reads_only_an_ok_ack_for_itself():
    def hook(record):
        if record["type"] == "terminal-ack-relay":
            return {**record, "payload": {**record["payload"], "ok": "yes"}}
        return None

    sim, ack = _terminal_with_hook(hook)
    assert ack is None
    assert [(e["party"], e["code"]) for e in sim.events("abort")] == [
        ("board", "bad-terminal-ack")]


def test_enforcer_strips_disallowed_fields():
    sim, ctx, employee = facility_world()
    sent = send_external(
        sim, ctx, "power-request",
        {"room": "r1", "action": "keep-power", "attendees": ["imsi-1"]})
    assert set(sent) == {"room", "action"}
    assert sim.events("enforcer-filtered")[0]["dropped_fields"] == ["attendees"]
    assert sim.knowledge_query("external", "identity") == set()
