"""CLI contract: exit codes, output files, verify, list."""

import json

import pytest

from trustsim.cli import main
from trustsim.harness import Transcript
from trustsim.scenarios import CATALOG


def run_cli(args):
    return main(args)


def test_run_writes_transcript_and_report(tmp_path, capsys):
    code = run_cli(["run", "prepaid-happy", "--seed", "42", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "RESULT: OK" in out and "[PASS]" in out
    transcript_path = tmp_path / "prepaid-happy-seed42.transcript.jsonl"
    report_path = tmp_path / "prepaid-happy-seed42.report.json"
    assert transcript_path.exists() and report_path.exists()
    report = json.loads(report_path.read_text())
    assert report["ok"] and report["seed"] == 42
    Transcript.read(transcript_path)  # parses cleanly


def test_run_attack_script_exits_zero_on_expected_rejection(tmp_path):
    code = run_cli(["run", "pos-sep-duties", "--attack", "reuse-token",
                    "--seed", "5", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads(
        (tmp_path / "pos-sep-duties-reuse-token-seed5.report.json").read_text()
    )
    assert any(r["name"] == "attack-reuse-token-rejected" and r["ok"]
               for r in report["assertions"])


def test_run_unknown_scenario_exits_2(tmp_path, capsys):
    assert run_cli(["run", "unknown-name", "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_bad_variant_exits_2(tmp_path):
    assert run_cli(["run", "prepaid-happy", "--variant", "bogus=1",
                    "--out", str(tmp_path)]) == 2


# Keys that the catalog name or a constant fixes -> a scenario that once
# had the key, and a value it took.
FIXED_KEYS = {
    "mode": ("clone-attack-bound", '"x"'),
    "variant": ("pos-sep-duties", '"x"'),
    "cert_validity": ("one-time-aik-auth", "5"),
    "shared_used_set": ("one-time-aik-auth", "true"),
    "cache_staleness": ("facility-entry", "0"),
    "notify_vendor": ("pos-fig4", "false"),
    "notify_payment": ("pos-fig4", "false"),
}

# Overrides that are config errors, by scenario, key and value: well-typed
# values the runners cannot act on, and the fixed keys.
UNUSABLE_VARIANTS = [
    pytest.param("one-time-aik-auth", "batch_size", "1", id="batch-of-one"),
    pytest.param("prepaid-happy", "requests", '[["sms",1]]', id="unpriced-service"),
    pytest.param("prepaid-happy", "requests", '[["calls",0]]', id="zero-units"),
    pytest.param("prepaid-happy", "requests", "[]", id="happy-no-requests"),
    pytest.param("prepaid-tamper", "requests", "[]", id="tamper-no-requests"),
    pytest.param("prepaid-zero", "tariffs", '{"data":5}', id="calls-unpriced"),
    pytest.param("pos-fig4", "good", '"tea"', id="good-not-for-sale"),
    pytest.param("facility-entry", "zones", '{"z":5}', id="zone-without-overrides"),
    pytest.param("facility-entry", "zones", '{"outside":{}}', id="zone-named-outside"),
    pytest.param("facility-entry", "zones", '{"zone-lab":{"wifi":"disabled"}}',
                 id="zone-feature-unknown"),
    pytest.param("facility-entry", "zones", '{"zone-lab":{"camera":["x"]}}',
                 id="zone-state-a-list"),
    pytest.param("facility-entry", "zones", '{"zone-lab":{"camera":null}}',
                 id="zone-state-null"),
    pytest.param("one-time-aik-auth", "extra_components", '[["a"]]', id="component-no-payload"),
    pytest.param("one-time-aik-auth", "extra_components", '[["os","x"]]', id="component-named-os"),
    pytest.param("one-time-aik-auth", "extra_components", '[["crtm","x"]]',
                 id="component-named-crtm"),
    pytest.param("one-time-aik-auth", "extra_components", '[["svc","a"],["svc","b"]]',
                 id="component-name-twice"),
] + [pytest.param(scenario, key, value, id=f"fixed-{key}")
      for key, (scenario, value) in FIXED_KEYS.items()]


@pytest.mark.parametrize("scenario, key, value", UNUSABLE_VARIANTS)
def test_run_unusable_variant_is_a_config_error(tmp_path, capsys, scenario, key, value):
    assert run_cli(["run", scenario, "--variant", f"{key}={value}",
                    "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    says = "unknown config key" if key in FIXED_KEYS else f"config key {key!r} needs"
    assert err.startswith(f"config error: {says}") and repr(key) in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("components", ["[]", json.dumps(
    CATALOG["one-time-aik-auth"].defaults["extra_components"])], ids=["none", "default"])
def test_run_distinct_extra_components_are_accepted(tmp_path, components):
    assert run_cli(["run", "one-time-aik-auth", "--variant", f"extra_components={components}",
                    "--seed", "1", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("seed", ["-1", str(2**64)], ids=["negative", "two-to-the-64"])
def test_run_seed_outside_64_bits_is_a_config_error(tmp_path, capsys, seed):
    assert run_cli(["run", "pos-fig4", "--seed", seed, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: seed must be in 0..2**64-1")
    assert not list(tmp_path.iterdir())


def test_seed_determines_output_bytes(tmp_path):
    run_cli(["run", "pos-fig4", "--seed", "7", "--out", str(tmp_path / "a")])
    run_cli(["run", "pos-fig4", "--seed", "7", "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "pos-fig4-seed7.transcript.jsonl").read_bytes()
    b = (tmp_path / "b" / "pos-fig4-seed7.transcript.jsonl").read_bytes()
    assert a == b


def test_verify_fresh_transcript_ok(tmp_path):
    run_cli(["run", "facility-midnight", "--seed", "3", "--out", str(tmp_path)])
    path = tmp_path / "facility-midnight-seed3.transcript.jsonl"
    assert run_cli(["verify", str(path)]) == 0


def test_verify_detects_hand_edited_billing_package(tmp_path):
    run_cli(["run", "pos-sep-duties", "--seed", "3", "--out", str(tmp_path)])
    path = tmp_path / "pos-sep-duties-seed3.transcript.jsonl"
    lines = path.read_text().splitlines()
    edited = []
    for line in lines:
        record = json.loads(line)
        if record.get("kind") == "message" and record.get("type") == "billing-package":
            record["payload"]["skim"] = 1
            record["labels"]["skim"] = "plumbing"
            line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        edited.append(line)
    path.write_text("\n".join(edited) + "\n")
    assert run_cli(["verify", str(path)]) == 1


def test_verify_reports_unlabeled_field_edit_without_crashing(tmp_path, capsys):
    run_cli(["run", "prepaid-zero", "--seed", "3", "--out", str(tmp_path)])
    path = tmp_path / "prepaid-zero-seed3.transcript.jsonl"
    lines = path.read_text().splitlines()
    index = next(i for i, line in enumerate(lines)
                 if json.loads(line).get("kind") == "message")
    record = json.loads(lines[index])
    record["payload"]["smuggled"] = "x"  # no label on purpose
    lines[index] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    assert run_cli(["verify", str(path)]) == 1
    assert "malformed transcript" in capsys.readouterr().out


def test_verify_against_wrong_expectations(tmp_path):
    run_cli(["run", "prepaid-happy", "--seed", "1", "--out", str(tmp_path)])
    run_cli(["run", "prepaid-happy", "--seed", "2", "--out", str(tmp_path)])
    transcript = tmp_path / "prepaid-happy-seed1.transcript.jsonl"
    wrong_report = tmp_path / "prepaid-happy-seed2.report.json"
    right_report = tmp_path / "prepaid-happy-seed1.report.json"
    assert run_cli(["verify", str(transcript), "--expect", str(right_report)]) == 0
    assert run_cli(["verify", str(transcript), "--expect", str(wrong_report)]) == 1


def test_verify_unparseable_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("this is not a transcript\n")
    assert run_cli(["verify", str(bad)]) == 2
    assert run_cli(["verify", str(tmp_path / "missing.jsonl")]) == 2


@pytest.mark.parametrize("line", [0, -1], ids=["header", "snapshot"])
@pytest.mark.parametrize("value", ["[1]", "5"])
def test_verify_non_object_header_or_snapshot_is_a_parse_error(tmp_path, capsys, line, value):
    run_cli(["run", "pos-fig4", "--seed", "1", "--out", str(tmp_path)])
    path = tmp_path / "pos-fig4-seed1.transcript.jsonl"
    lines = path.read_text().splitlines()
    lines[line] = value
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli(["verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("parse error:")


@pytest.mark.parametrize("expected", [[1], {"assertions": 5}], ids=["list", "assertions-int"])
def test_verify_expect_that_is_not_a_report_is_a_parse_error(tmp_path, capsys, expected):
    run_cli(["run", "pos-fig4", "--seed", "1", "--out", str(tmp_path)])
    expect = tmp_path / "expect.json"
    expect.write_text(json.dumps(expected))
    capsys.readouterr()
    transcript = tmp_path / "pos-fig4-seed1.transcript.jsonl"
    assert run_cli(["verify", str(transcript), "--expect", str(expect)]) == 2
    assert capsys.readouterr().err.startswith("parse error in expectations:")


def test_list_names_all_scenarios(capsys):
    assert run_cli(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("one-time-aik-auth", "pos-mno-merged", "facility-midnight"):
        assert name in out


def test_list_json_is_machine_readable(capsys):
    assert run_cli(["list", "--json"]) == 0
    catalog = json.loads(capsys.readouterr().out)
    assert len(catalog) == 12
    entry = {s["name"]: s for s in catalog}["prepaid-zero"]
    assert "voucher-replay" in entry["attacks"]
    assert "config" in entry and "roster" in entry


def test_run_script_file(tmp_path):
    script = tmp_path / "custom.json"
    script.write_text(json.dumps({
        "schema": "trustsim-script/1",
        "base": "clone-attack-bound",
        "config": {"batch_size": 3},
    }))
    assert run_cli(["run", str(script), "--seed", "4", "--out", str(tmp_path)]) == 0


def test_out_env_var_respected(tmp_path, monkeypatch):
    monkeypatch.setenv("TRUSTSIM_OUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    assert run_cli(["run", "prepaid-zero", "--seed", "6"]) == 0
    assert (tmp_path / "envout" / "prepaid-zero-seed6.report.json").exists()
