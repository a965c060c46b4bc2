"""Every report row is judged from the finalized transcript alone.

`scenarios.report` builds the report that `trustsim run` writes and that
`trustsim verify` re-derives: the audit findings, then the scenario rows
that its judge, in `trustsim.judges`, reads off the records, the snapshot
and the header. So a report re-derived from a transcript's text equals the
run's own, a hand edit shows in the scenario rows too, never as a
traceback, and a bug in the protocol code does not pass its own report.
"""

import dataclasses
import json
import sys

import pytest

from trustsim import audit, facility
from trustsim.cli import main
from trustsim.harness import Simulation, Transcript
from trustsim.scenarios import CATALOG, report, run_scenario


def _rows(result: dict) -> dict:
    return {row["name"]: row for row in result["assertions"]}


def _without(transcript, keep) -> Transcript:
    """A parsed copy of transcript holding only the records keep() accepts."""
    edited = Transcript.parse(transcript.to_text())
    edited.records = [r for r in edited.records if keep(r)]
    return edited


def _first_only(kind_key: str, name: str):
    """keep() that drops the first record whose kind_key is name."""
    dropped = []

    def keep(record):
        if not dropped and record.get(kind_key) == name:
            dropped.append(record)
            return False
        return True

    return keep


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_report_rederived_from_text_equals_the_runs(name):
    for attacks in [()] + [(attack,) for attack in CATALOG[name].attacks]:
        transcript, result = run_scenario(name, 1, attacks)
        assert report(Transcript.parse(transcript.to_text())) == result, attacks


def test_multi_zone_override_out_of_key_order_verifies(tmp_path, capsys):
    # The header records the zones keys sorted; the run enters the first of
    # them, zone-a, as a judge of the written text reads it.
    zones = {"zone-z": {"camera": "disabled"},
             "zone-a": {"camera": "disabled", "mms": "disabled", "calls": "disabled"}}
    transcript, result = run_scenario("facility-entry", 1, variants={"zones": zones})
    assert result["ok"]
    assert '"calls": "disabled"' in _rows(result)["zone-policy-applied"]["detail"]
    assert report(Transcript.parse(transcript.to_text())) == result

    assert main(["run", "facility-entry", "--seed", "1", "--out", str(tmp_path),
                 "--variant", "zones=" + json.dumps(zones)]) == 0
    stem = tmp_path / "facility-entry-seed1"
    assert main(["verify", f"{stem}.transcript.jsonl",
                 "--expect", f"{stem}.report.json"]) == 0


@pytest.mark.parametrize("zones", [{"zone-b": {"calls": "disabled"}},
                                   {"zone-lab": {"camera": "disabled"}}],
                         ids=["camera-and-mms-on", "mms-on"])
def test_camera_and_mms_are_judged_as_the_first_zone_sets_them(zones):
    transcript, result = run_scenario("facility-entry", 1, variants={"zones": zones})
    assert result["ok"], [r for r in result["assertions"] if not r["ok"]]
    assert report(Transcript.parse(transcript.to_text())) == result

    # a camera left on against the zone's overrides, or turned off against
    # them, fails the row
    edited = Transcript.parse(transcript.to_text())
    applied = next(r for r in edited.records if r.get("event") == "policy-applied")
    applied["features"]["camera"] = {"enabled": "disabled", "disabled": "enabled"}[
        applied["features"]["camera"]]
    assert not _rows(report(edited))["camera-and-mms-restricted"]["ok"]


def test_a_zone_rule_that_ignores_the_zone_fails_the_report(monkeypatch):
    # every binding of the facility model's zone rule returns the base
    # features, as a bug that drops a zone's overrides would
    rule = facility.zone_features
    for module in [m for name, m in sys.modules.items() if name.startswith("trustsim")]:
        if getattr(module, "zone_features", None) is rule:
            monkeypatch.setattr(module, "zone_features",
                                lambda zones, location: dict(facility.BASE_FEATURES))
    _, result = run_scenario("facility-entry", 1)
    assert not _rows(result)["zone-policy-applied"]["ok"]
    assert not result["ok"]


def test_verify_expect_fails_on_deleted_delivery(tmp_path, capsys):
    assert main(["run", "pos-fig4", "--seed", "1", "--out", str(tmp_path)]) == 0
    path = tmp_path / "pos-fig4-seed1.transcript.jsonl"
    lines = [line for line in path.read_text().splitlines()
             if json.loads(line).get("event") != "delivery"]
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", str(path), "--expect",
                 str(tmp_path / "pos-fig4-seed1.report.json")]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] purchase-delivered" in out
    assert "[PASS] no-delivery-without-confirmation" in out


def test_deleted_grant_fails_all_requests_granted():
    transcript, result = run_scenario("prepaid-happy", 1)
    assert _rows(result)["all-requests-granted"]["ok"]
    rows = _rows(report(_without(transcript, _first_only("event", "grant"))))
    assert not rows["all-requests-granted"]["ok"]
    assert rows["all-requests-granted"]["detail"] == "2/3"


def test_the_anonymity_row_names_the_first_leaking_message():
    # defect (a): replenish-certs is sealed to the device id; the row stops
    # at the first message that carries it
    transcript, result = run_scenario("prepaid-happy", 1,
                                      variants={"requests": [["calls", 1]] * 12})
    leaking = [m for m in transcript.messages() if '"dev-1"' in json.dumps(m["payload"])]
    assert (leaking[0]["id"], leaking[0]["type"]) == ("m00063", "replenish-certs")
    assert _rows(result)["anonymity-no-device-identity-on-wire"] == {
        "name": "anonymity-no-device-identity-on-wire", "ok": False,
        "detail": "message m00063 (replenish-certs) carries dev-1"}


def test_the_anonymity_row_names_a_planted_ek_public():
    transcript, result = run_scenario("prepaid-happy", 1)
    assert _rows(result)["anonymity-no-device-identity-on-wire"]["detail"] == ""
    edited = Transcript.parse(transcript.to_text())
    ek_public = edited.snapshot["summary"]["ek_publics"]["dev-1"]
    message = edited.messages()[5]
    message["payload"]["imsi"] = [{"public": ek_public}]
    message["labels"]["imsi"] = "identity"
    row = _rows(report(edited))["anonymity-no-device-identity-on-wire"]
    assert not row["ok"]
    assert row["detail"] == (f"message {message['id']} ({message['type']}) "
                             "carries the EK public of dev-1")


@pytest.mark.parametrize("name", ["prepaid-happy", "prepaid-tamper"])
def test_the_logon_row_names_the_abort_that_ended_the_logon(name):
    _, result = run_scenario(name, 1)
    assert _rows(result)["vsim-logon"] == {"name": "vsim-logon", "ok": True, "detail": ""}
    transcript, result = run_scenario(name, 1, variants={"pool_size": 0})
    assert _rows(result)["vsim-logon"] == {
        "name": "vsim-logon", "ok": False, "detail": "pool-exhausted for dev-1 at tick 0"}
    row = _rows(report(_without(transcript, lambda r: r.get("event") != "abort")))["vsim-logon"]
    assert row == {"name": "vsim-logon", "ok": False, "detail": "no logon tried"}


@pytest.mark.parametrize("variants, name, detail", [
    ({"initial_balance": 100}, "zero-balance-denied", "grant at tick 8"),
    ({"voucher_value": 5}, "grant-after-top-up", "denial insufficient-balance at tick 13"),
], ids=["balance-not-empty", "voucher-too-small"])
def test_a_failing_prepaid_zero_row_names_the_grant_or_denial_it_saw(variants, name, detail):
    _, result = run_scenario("prepaid-zero", 1)
    rows = _rows(result)
    assert rows["zero-balance-denied"] == {"name": "zero-balance-denied", "ok": True, "detail": ""}
    assert rows["grant-after-top-up"] == {"name": "grant-after-top-up", "ok": True, "detail": ""}
    _, result = run_scenario("prepaid-zero", 1, variants=variants)
    assert [row for row in result["assertions"] if not row["ok"]] == [
        {"name": name, "ok": False, "detail": detail}]


def test_unreadable_edit_gives_one_failing_row(tmp_path, capsys):
    transcript, _ = run_scenario("facility-midnight", 1)
    edited = _without(transcript, _first_only("type", "power-request"))
    result = report(edited)
    scenario_rows = result["assertions"][len(audit.INVARIANT_CHECKS):]
    assert [row["name"] for row in scenario_rows] == ["scenario-assertions"]
    assert not scenario_rows[0]["ok"]
    assert "no power-request message" in scenario_rows[0]["detail"]

    path = tmp_path / "edited.transcript.jsonl"
    path.write_text(edited.to_text(), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    assert "[FAIL] scenario-assertions" in capsys.readouterr().out


def test_an_enroll_request_that_does_not_open_is_one_malformed_row():
    # the judges' own envelope read refuses an opaque interior as the
    # protocol's read does, with the same error
    transcript, _ = run_scenario("one-time-aik-auth", 1)
    edited = Transcript.parse(transcript.to_text())
    edited.messages("enroll-request")[0]["payload"]["env"]["_sealed"]["readers"] = "pca"
    assert _rows(report(edited))["scenario-assertions"]["detail"] == (
        "malformed transcript: ValueError('no envelope that opens')")


def test_judge_fault_propagates(monkeypatch):
    # Only a malformed record becomes a failing row; a judge's own bug, here
    # a name it never defined, stays a traceback.
    def buggy(transcript, config, attacks):
        return [undefined_helper(transcript)]  # noqa: F821

    script = dataclasses.replace(CATALOG["facility-entry"], judge=buggy)
    monkeypatch.setitem(CATALOG, "facility-entry", script)
    with pytest.raises(NameError):
        run_scenario("facility-entry", 1)


@pytest.mark.parametrize("key,value", [("attacks", 5), ("variants", ["x"]),
                                       ("scenario", ["pos-fig4"])])
def test_hand_edited_header_never_raises(key, value):
    transcript, _ = run_scenario("pos-fig4", 1)
    edited = Transcript.parse(transcript.to_text())
    edited.header[key] = value
    result = report(edited)
    assert result[key] == value
    if key != "scenario":
        assert not result["ok"]


def test_scenario_outside_the_catalog_verifies_on_invariants(tmp_path, capsys):
    sim = Simulation(3, scenario="custom-demo")
    for party in ("dev", "owner", "mno"):
        sim.add_party(party, "device")
    sim.send("dev", "owner", "mobile", "hello", {"good": "cola"})
    transcript = sim.finalize()
    result = report(transcript)
    assert [row["name"] for row in result["assertions"]] == [
        name for name, _ in audit.INVARIANT_CHECKS]
    assert result["ok"]

    path = tmp_path / "custom.transcript.jsonl"
    expect = tmp_path / "custom.report.json"
    path.write_text(transcript.to_text(), encoding="utf-8")
    expect.write_text(json.dumps(result))
    assert main(["verify", str(path), "--expect", str(expect)]) == 0
