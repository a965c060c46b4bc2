"""Catalog completeness, scenario assertions, attack handling, determinism."""

import json

import pytest

from trustsim import audit, scenarios
from trustsim.harness import FIELD_LABELS, Transcript, is_sealed
from trustsim.scenarios import (
    CATALOG,
    ScriptError,
    get_script,
    load_script_file,
    run_scenario,
)

EXPECTED_NAMES = {
    "one-time-aik-auth", "clone-attack-bound", "clone-attack-unbound",
    "prepaid-happy", "prepaid-tamper", "prepaid-zero",
    "pos-fig4", "pos-sep-duties", "pos-decentralised", "pos-mno-merged",
    "facility-entry", "facility-midnight",
}


def test_catalog_has_the_twelve_scripts():
    assert set(CATALOG) == EXPECTED_NAMES


def test_every_honest_scenario_passes_and_audits_clean():
    for name in sorted(CATALOG):
        transcript, report = run_scenario(name, seed=5)
        assert report["ok"], (name, [r for r in report["assertions"] if not r["ok"]])
        assert all(f.ok for f in audit.audit(transcript)), name


@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
def test_attack_runs_report_expected_rejections(name):
    script = get_script(name)
    for attack in script.attacks:
        transcript, report = run_scenario(name, seed=6, attacks=(attack,))
        assert report["ok"], (name, attack,
                              [r for r in report["assertions"] if not r["ok"]])


def test_transcripts_are_byte_identical_across_runs():
    for name in ("prepaid-happy", "pos-sep-duties", "facility-midnight"):
        first = run_scenario(name, seed=42)[0].to_text()
        second = run_scenario(name, seed=42)[0].to_text()
        assert first == second, name
        # and survive a parse/serialize round trip
        assert Transcript.parse(first).to_text() == first


def test_different_seeds_differ():
    a = run_scenario("pos-fig4", seed=1)[0].to_text()
    b = run_scenario("pos-fig4", seed=2)[0].to_text()
    assert a != b


def test_unknown_variant_and_attack_rejected_before_execution():
    with pytest.raises(ScriptError):
        run_scenario("prepaid-happy", seed=1, variants={"no_such_key": 1})
    with pytest.raises(ScriptError):
        run_scenario("prepaid-happy", seed=1, attacks=("reuse-token",))
    with pytest.raises(ScriptError):
        run_scenario("missing-scenario", seed=1)


def test_variant_switches_flip_assertions():
    _, encrypted = run_scenario("pos-fig4", seed=3)
    assert any(r["name"] == "operator-blind-to-good" and r["ok"]
               for r in encrypted["assertions"])
    _, plaintext = run_scenario("pos-fig4", seed=3, variants={"encryption": False})
    assert any(r["name"] == "plaintext-variant-reveals-good" and r["ok"]
               for r in plaintext["assertions"])


def test_pos_identity_check_variant():
    _, report = run_scenario("pos-fig4", seed=3, variants={"pos_check_via_mno": True})
    assert any(r["name"] == "pos-identity-revealed-to-operator" and r["ok"]
               for r in report["assertions"])
    assert report["ok"]


def test_facility_gate_cache_variant():
    transcript, report = run_scenario("facility-entry", seed=3,
                                      variants={"gate_cache": True})
    assert report["ok"]
    sources = {e["source"] for e in transcript.events("access-check")}
    assert sources == {"cache"}


def test_chain_definition_loadable_from_config():
    transcript, report = run_scenario(
        "one-time-aik-auth", seed=3,
        variants={"auth_count": 3,
                  "extra_components": [["svc-client", "v2"], ["helper", "h1"]]},
    )
    assert report["ok"]
    response = transcript.messages("attestation-response")[0]
    logged = [entry["component"] for entry in response["payload"]["log"]]
    assert logged == ["crtm", "bios", "os", "svc-client", "helper"]


def test_script_file_loading_and_validation(tmp_path):
    good = tmp_path / "night.json"
    good.write_text(json.dumps({
        "schema": "trustsim-script/1",
        "base": "prepaid-zero",
        "config": {"voucher_value": 80},
        "attacks": ["voucher-replay"],
    }))
    script, config, attacks = load_script_file(str(good))
    assert script.name == "prepaid-zero"
    assert config == {"voucher_value": 80}
    assert attacks == ("voucher-replay",)
    _, report = run_scenario(script, seed=4, attacks=attacks, variants=config)
    assert report["ok"]

    for broken in (
        {"schema": "other/1", "base": "prepaid-zero"},
        {"schema": "trustsim-script/1", "base": "nope"},
        {"schema": "trustsim-script/1", "base": "prepaid-zero",
         "config": {"bad-key": 1}},
        {"schema": "trustsim-script/1", "base": "prepaid-zero",
         "config": {"voucher_value": "lots"}},
        {"schema": "trustsim-script/1", "base": "prepaid-zero",
         "attacks": ["reuse-token"]},
    ):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken))
        with pytest.raises(ScriptError):
            load_script_file(str(path))


def test_reports_list_all_transcript_invariants():
    _, report = run_scenario("prepaid-happy", seed=5)
    names = {r["name"] for r in report["assertions"]}
    for invariant in ("knowledge-soundness", "channel-separation", "one-time-aik",
                      "counter-conservation", "no-delivery-without-confirmation",
                      "billing-package-exactness", "no-grant-without-attestation",
                      "gate-logging"):
        assert invariant in names


def test_facility_midnight_external_message_shape():
    transcript, report = run_scenario("facility-midnight", seed=8)
    assert report["ok"]
    external = transcript.messages("power-request")
    assert len(external) == 1
    assert set(external[0]["payload"]) == {"room", "action", "until"}
    dropped = transcript.events("enforcer-filtered")[0]["dropped_fields"]
    assert dropped == ["agenda", "attendees"]


@pytest.mark.parametrize("allowed, sent, dropped", [
    (["room"], ["room"], ["action", "agenda", "attendees", "until"]),
    (["room", "action", "until", "floor"], ["action", "room", "until"], ["agenda", "attendees"]),
], ids=["room-only", "unrequested-field-allowed"])
def test_facility_midnight_judge_follows_the_allow_list(allowed, sent, dropped):
    transcript, report = run_scenario("facility-midnight", 1,
                                      variants={"enforcer_allowed_fields": allowed})
    assert [r for r in report["assertions"] if not r["ok"]] == []
    assert sorted(transcript.messages("power-request")[0]["payload"]) == sent
    assert [e["dropped_fields"] for e in transcript.events("enforcer-filtered")] == [dropped]


def test_facility_midnight_judge_wants_no_filter_event_when_nothing_is_dropped():
    # with every requested field allowed, an enforcer-filtered event is a fault
    allowed = ["agenda", "attendees", "room", "action", "until"]
    transcript, report = run_scenario("facility-midnight", 1,
                                      variants={"enforcer_allowed_fields": allowed})
    assert not transcript.events("enforcer-filtered")
    rows = {r["name"]: r["ok"] for r in report["assertions"]}
    assert rows["enforcer-dropped-sensitive-fields"] and rows["external-request-filtered"]
    transcript.records.append({"kind": "event", "tick": transcript.records[-1]["tick"],
                               "event": "enforcer-filtered", "server": "company",
                               "dropped_fields": []})
    rows = {r["name"]: r["ok"] for r in scenarios.report(transcript)["assertions"]}
    assert not rows["enforcer-dropped-sensitive-fields"]


@pytest.mark.parametrize("device,served", [("dev-1", True), ("dev-2", False)])
def test_a_secure_session_after_a_rejection_is_a_service(device, served):
    # the hand-edited seed-1 transcript: a secure session right after the
    # rejected verdict counts against the attack when it is the subject's
    transcript, report = run_scenario("pos-fig4", 1, attacks=("forge-log",))
    assert report["ok"]
    lines = transcript.to_text().splitlines()
    at = next(i for i, line in enumerate(lines)
              if '"attestation-verdict"' in line and '"accepted":false' in line)
    session = {"kind": "event", "tick": json.loads(lines[at])["tick"],
               "event": "secure-session", "device": device, "pos": "pos-1",
               "session": "session-9"}
    lines.insert(at + 1, json.dumps(session, sort_keys=True, separators=(",", ":")))
    edited = scenarios.report(Transcript.parse("\n".join(lines) + "\n"))
    rows = {r["name"]: r["ok"] for r in edited["assertions"]}
    assert rows["attack-forge-log-rejected"]
    assert rows["attack-forge-log-no-service"] is not served


def test_long_tampered_prepaid_session_replenishes_and_is_refused_throughout():
    # 25 requests outlast the 10-credential batch: the tampered device
    # replenishes like an honest one, and every request is still refused
    transcript, report = run_scenario("prepaid-tamper", 1,
                                      variants={"requests": [["calls", 1]] * 25})
    assert report["ok"], [r for r in report["assertions"] if not r["ok"]]
    assert len(transcript.events("replenishment")) >= 2
    assert not transcript.events("grant")
    denials = transcript.events("denial")
    assert len(denials) == 25
    assert all(d["code"] == "reference-mismatch" for d in denials)


# With an empty IMSI pool the vsim logon aborts, and the failing rows are
# the judge's own: nothing was requested, granted or denied.
FAILED_LOGON_ROWS = {
    "prepaid-happy": {"vsim-logon", "all-requests-granted"},
    "prepaid-tamper": {"vsim-logon", "denials-cite-reference-mismatch"},
    "prepaid-zero": {"zero-balance-denied", "grant-after-top-up"},
}


@pytest.mark.parametrize("name", sorted(FAILED_LOGON_ROWS))
def test_prepaid_run_stops_at_a_failed_vsim_logon(name):
    transcript, report = run_scenario(name, 1, variants={"pool_size": 0})
    aborts = [i for i, r in enumerate(transcript.records) if r.get("event") == "abort"]
    assert aborts and aborts[0] == len(transcript.records) - 1, "records follow the abort"
    assert transcript.records[-1]["code"] == "pool-exhausted"
    failing = {r["name"] for r in report["assertions"] if not r["ok"]}
    assert failing == FAILED_LOGON_ROWS[name]
    parsed = Transcript.parse(transcript.to_text())
    assert all(f.ok for f in audit.audit(parsed))
    assert scenarios.report(parsed) == report


@pytest.mark.parametrize("name", ["prepaid-happy", "prepaid-zero"])
def test_no_grant_falls_outside_the_freshness_window(name):
    # a grant is written three ticks after its accepted verdict: with a
    # window of 2 the operator denies instead, and nothing is decremented
    transcript, _ = run_scenario(name, 1, variants={"freshness_window": 2})
    assert not transcript.events("grant") and not transcript.events("decrement")
    assert "stale-attestation" in {d["code"] for d in transcript.events("denial")}
    assert all(f.ok for f in audit.audit(transcript))
    transcript, report = run_scenario(name, 1, variants={"freshness_window": 3})
    assert report["ok"] and transcript.events("grant")


def _sent_fields(payload: dict):
    """The field names of a payload and of every sealed interior in it."""
    for fname, value in payload.items():
        yield fname
        if is_sealed(value):
            yield from _sent_fields(value["_sealed"]["payload"])


def _fields_sent(runs) -> set:
    sent = set()
    for name, variants in runs:
        transcript, _ = run_scenario(name, 1, variants=variants)
        for message in transcript.messages():
            sent.update(_sent_fields(message["payload"]))
    return sent


def test_every_labelled_field_is_sent_by_some_catalog_run():
    clean = _fields_sent((name, {}) for name in sorted(CATALOG))
    assert FIELD_LABELS.keys() - clean == {"pos_certificate", "attendees", "agenda"}
    overridden = _fields_sent([
        ("pos-fig4", {"pos_check_via_mno": True}),
        ("facility-midnight", {"enforcer_allowed_fields": sorted(scenarios._MIDNIGHT_REQUEST)}),
    ])
    assert clean | overridden == FIELD_LABELS.keys()
