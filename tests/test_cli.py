"""CLI contract: exit codes, output files, verify, list."""

import json
import os
import subprocess
import sys

import pytest

from trustsim import cli
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
    Transcript.parse(transcript_path.read_text(encoding="utf-8"))  # parses cleanly


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


# Runs that are config errors, each as its arguments after "run": the run is
# refused before its --out directory is made.
REFUSED_RUNS = {
    "unknown-scenario": ["unknown-name"],
    "unknown-key": ["prepaid-happy", "--variant", "bogus=1"],
    "unsupported-attack": ["prepaid-happy", "--attack", "ack-strip"],
    "seed-outside-64-bits": ["pos-fig4", "--seed", str(2**64)],
    "int-outside-64-bits": ["prepaid-happy", "--variant", "vouchers=[100000000000000000000000]"],
    "lone-surrogate": ["one-time-aik-auth", "--variant",
                       'extra_components=[["svc-\\ud800","v1"]]'],
    # each value fits 64 bits; the balance or a cost it leads to does not
    "balance-past-64-bits": ["prepaid-happy", "--variant", f"vouchers=[{2**64 - 1}]"],
    "cost-past-64-bits": ["prepaid-happy", "--variant", 'requests=[["calls",1844674407370955162]]'],
    "top-up-past-64-bits": ["prepaid-zero", "--variant", f"initial_balance={2**63}",
                            "--variant", f"voucher_value={2**63}"],
}


@pytest.mark.parametrize("args", REFUSED_RUNS.values(), ids=REFUSED_RUNS.keys())
def test_a_config_error_leaves_no_out_directory(tmp_path, capsys, args):
    out = tmp_path / "D"
    assert run_cli(["run", *args, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


def test_a_balance_at_the_64_bit_edge_runs_and_verifies(tmp_path):
    # 500 to start and one voucher sum to 2**64 - 1, the most they may; the
    # three requests spend 50 of it
    variant = f"vouchers=[{2**64 - 501}]"
    assert run_cli(["run", "prepaid-happy", "--variant", variant, "--out", str(tmp_path)]) == 0
    transcript, = tmp_path.glob("*.transcript.jsonl")
    assert f'"balances":{{"dev-1":{2**64 - 51}}}' in transcript.read_text()
    assert run_cli(["verify", str(transcript)]) == 0


@pytest.mark.parametrize("value, says", [
    ("[100000000000000000000000]", "an int outside [-2**63, 2**64)"),
    (f"[{2**64}]", "an int outside [-2**63, 2**64)"),
    ('[["svc-\\udc00","v1"]]', "a lone surrogate"),
], ids=["vouchers-10e23", "vouchers-2e64", "component-lone-surrogate"])
def test_a_config_value_outside_the_json_value_domain_is_a_config_error(tmp_path, capsys,
                                                                          value, says):
    key = "extra_components" if "svc" in value else "vouchers"
    scenario = "one-time-aik-auth" if key == "extra_components" else "prepaid-happy"
    assert run_cli(["run", scenario, "--variant", f"{key}={value}", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: config key {key!r} holds {says}")


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
    # too deep for json.loads, so it stays a string
    pytest.param("pos-fig4", "good", "[" * 5_000 + "]" * 5_000, id="good-too-deep-for-json"),
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


@pytest.mark.parametrize("content", [
    b'{"schema":"trustsim-script/1","base":"pos-fig4\xff"}',
    b"[" * 100_000 + b"]" * 100_000,
], ids=["not-utf-8", "nested-too-deep"])
def test_run_unreadable_script_file_is_a_config_error(tmp_path, capsys, content):
    script = tmp_path / "script.json"
    script.write_bytes(content)
    out = tmp_path / "out"
    assert run_cli(["run", str(script), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot read script file:")
    assert not out.exists()


def test_run_out_that_is_a_file_is_a_config_error(tmp_path, capsys, monkeypatch):
    out = tmp_path / "taken"
    out.write_text("a file\n")
    ran = []
    monkeypatch.setattr(cli, "run_validated", lambda *args, **kwargs: ran.append(args))
    assert run_cli(["run", "pos-fig4", "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot make output directory") and str(out) in err
    assert out.read_text() == "a file\n"
    assert not ran


def test_run_output_path_that_is_a_directory_is_a_config_error(tmp_path, capsys):
    taken = tmp_path / "pos-fig4-seed1.transcript.jsonl"
    taken.mkdir()
    assert run_cli(["run", "pos-fig4", "--seed", "1", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot write {taken}: ")
    assert taken.is_dir() and not list(taken.iterdir())


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


def _deepened(tmp_path, scenario, kind, depth):
    """The path of scenario's seed-1 transcript with a value nested depth
    deep added to its first record of kind: a record field of an event, or a
    labelled payload field of a message."""
    run_cli(["run", scenario, "--seed", "1", "--out", str(tmp_path)])
    path = tmp_path / f"{scenario}-seed1.transcript.jsonl"
    lines = path.read_text().splitlines()
    index = next(i for i, line in enumerate(lines) if json.loads(line).get("kind") == kind)
    deep = "[" * depth + "]" * depth
    if kind == "message":  # the record's own labels and payload come first
        lines[index] = lines[index].replace('"labels":{', '"labels":{"deep":"plumbing",', 1)
        lines[index] = lines[index].replace('"payload":{', f'"payload":{{"deep":{deep},', 1)
    else:
        lines[index] = f'{{"deep":{deep},{lines[index][1:]}'
    path.write_text("\n".join(lines) + "\n")
    return path


def _verify_in_a_subprocess(path):
    """trustsim verify path in its own process, which a crash of the
    decoder cannot take down with the tests."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    return subprocess.run([sys.executable, "-m", "trustsim.cli", "verify", str(path)],
                          env=env, capture_output=True, text=True)


def test_verify_of_a_line_nested_too_deep_is_a_parse_error(tmp_path):
    done = _verify_in_a_subprocess(_deepened(tmp_path, "pos-fig4", "event", 200_000))
    assert done.returncode == 2
    assert done.stderr.startswith("parse error:")


def test_verify_of_a_deep_payload_value_fails_a_row_without_a_traceback(tmp_path):
    # deep enough for the judge's recursion, within what every orjson decodes
    done = _verify_in_a_subprocess(_deepened(tmp_path, "prepaid-happy", "message", 1_000))
    assert done.returncode == 1
    assert "[FAIL]" in done.stdout
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("expected", [
    "[1]", '{"assertions": 5}', "[" * 100_000 + "]" * 100_000,
], ids=["list", "assertions-int", "nested-too-deep"])
def test_verify_expect_that_is_not_a_report_is_a_parse_error(tmp_path, capsys, expected):
    run_cli(["run", "pos-fig4", "--seed", "1", "--out", str(tmp_path)])
    expect = tmp_path / "expect.json"
    expect.write_text(expected)
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
