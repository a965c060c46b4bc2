"""Audit checks against reference scans: the grant and gate checks against
the plain scans they replaced, and audit() as a whole against the checks
as they stood before the verify path was sped up."""

import functools
import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audit_reference import REFERENCE_CHECKS, reference_audit
from trustsim import audit, harness
from trustsim.audit import DEFAULT_FRESHNESS_WINDOW, Finding
from trustsim.harness import Transcript
from trustsim.scenarios import CATALOG, run_scenario

SUBJECTS = ("dev-1", "dev-2", "dev-3")


# -- reference scans: every event against every verdict ----------------------


def reference_no_grant_without_attestation(transcript) -> Finding:
    window = transcript.snapshot.get("summary", {}).get(
        "freshness_window", DEFAULT_FRESHNESS_WINDOW
    )
    verdicts = transcript.events("attestation-verdict")
    for grant in transcript.events("grant"):
        ok = [
            v
            for v in verdicts
            if v["subject"] == grant["device"]
            and v["accepted"]
            and v["tick"] <= grant["tick"] <= v["tick"] + window
        ]
        if not ok:
            return Finding(
                "no-grant-without-attestation",
                False,
                f"grant to {grant['device']} at tick {grant['tick']} has no fresh accepted attestation",
            )
    return Finding("no-grant-without-attestation", True)


def reference_gate_logging(transcript) -> Finding:
    verdicts = transcript.events("attestation-verdict")
    for entry in transcript.events("entry"):
        if not entry["granted"]:
            continue
        ok = [
            v
            for v in verdicts
            if v["subject"] == entry["device"] and v["accepted"] and v["tick"] <= entry["tick"]
        ]
        if not ok:
            return Finding(
                "gate-logging",
                False,
                f"entry of {entry['device']} at tick {entry['tick']} lacks an attestation verdict",
            )
    return Finding("gate-logging", True)


# -- transcripts built from bare records --------------------------------------


def verdict(tick, subject="dev-1", accepted=True):
    return {"kind": "event", "event": "attestation-verdict", "tick": tick,
            "subject": subject, "accepted": accepted, "verifier": "mno"}


def grant(tick, device="dev-1"):
    return {"kind": "event", "event": "grant", "tick": tick, "device": device, "cost": 1}


def entry(tick, device="dev-1", granted=True):
    return {"kind": "event", "event": "entry", "tick": tick, "device": device,
            "granted": granted}


def transcript_of(records, window=None):
    summary = {} if window is None else {"freshness_window": window}
    return Transcript(
        header={"schema": "trustsim-transcript/1", "channels": {}},
        records=list(records),
        snapshot={"kind": "snapshot", "knowledge": {}, "summary": summary},
    )


TICK = st.integers(min_value=0, max_value=40)
SUBJECT = st.sampled_from(SUBJECTS)
WINDOW = st.one_of(st.none(), st.integers(min_value=0, max_value=12))
MOSTLY_TRUE = st.sampled_from((True, True, True, False))
NOISE = st.one_of(
    st.builds(verdict, TICK, SUBJECT, st.booleans()),
    st.builds(lambda t: {"kind": "message", "type": "grant", "tick": t}, TICK),
)


@st.composite
def shuffled_records(draw, window):
    """Grants and entries, each beside a verdict of its subject that is
    mostly accepted and lies inside the window or just past its edge, plus
    unrelated verdicts and messages, all in a random record order."""
    width = DEFAULT_FRESHNESS_WINDOW if window is None else window
    lag = st.one_of(st.integers(0, 2), st.sampled_from((width, width + 1)))
    records = draw(st.lists(NOISE, max_size=10))
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        subject, tick = draw(SUBJECT), draw(TICK)
        records.append(verdict(tick - draw(lag), subject, draw(MOSTLY_TRUE)))
        records.append(grant(tick, subject))
        records.append(entry(tick, subject, draw(MOSTLY_TRUE)))
    return draw(st.permutations(records))


@given(st.data(), WINDOW)
@settings(max_examples=500, deadline=None)
def test_checks_equal_the_reference_scans(data, window):
    transcript = transcript_of(data.draw(shuffled_records(window)), window)
    assert audit.check_no_grant_without_attestation(transcript) == (
        reference_no_grant_without_attestation(transcript)
    )
    assert audit.check_gate_logging(transcript) == reference_gate_logging(transcript)


@pytest.mark.parametrize("window", [None, 0, 5])
def test_grant_window_edges(window):
    width = DEFAULT_FRESHNESS_WINDOW if window is None else window
    check = audit.check_no_grant_without_attestation
    base = [verdict(10), verdict(3, accepted=False), verdict(11, subject="dev-2")]
    assert check(transcript_of(base + [grant(10)], window)).ok
    assert check(transcript_of(base + [grant(10 + width)], window)).ok
    late = check(transcript_of(base + [grant(10 + width + 1)], window))
    assert late == Finding(
        "no-grant-without-attestation", False,
        f"grant to dev-1 at tick {10 + width + 1} has no fresh accepted attestation",
    )
    assert not check(transcript_of(base + [grant(9)], window)).ok
    # a later verdict renews the window; the earlier one still covers its own
    renewed = base + [verdict(10 + width + 1), grant(10 + width + 1), grant(10 + width)]
    assert check(transcript_of(renewed, window)).ok


def test_grant_reports_the_first_failure_in_record_order():
    records = [verdict(5), grant(50, "dev-2"), grant(1), grant(6)]
    finding = audit.check_no_grant_without_attestation(transcript_of(records, 10))
    assert finding.detail == "grant to dev-2 at tick 50 has no fresh accepted attestation"


def test_gate_edges():
    check = audit.check_gate_logging
    base = [verdict(10), verdict(2, accepted=False), verdict(1, subject="dev-2")]
    assert check(transcript_of(base + [entry(10), entry(500)])).ok
    assert check(transcript_of(base + [entry(9, granted=False)])).ok
    assert check(transcript_of(base + [entry(9), entry(3, device="dev-3")])) == Finding(
        "gate-logging", False, "entry of dev-1 at tick 9 lacks an attestation verdict"
    )


def without(record, key):
    return {k: v for k, v in record.items() if k != key}


@pytest.mark.parametrize(
    "name, records",
    [
        ("no-grant-without-attestation", [verdict(1), without(grant(2), "device")]),
        ("no-grant-without-attestation", [verdict(1), without(grant(2), "tick")]),
        ("no-grant-without-attestation", [without(verdict(1), "subject"), grant(2)]),
        ("no-grant-without-attestation", [without(verdict(1), "accepted"), grant(2)]),
        ("no-grant-without-attestation", [without(verdict(1), "tick"), grant(2)]),
        ("gate-logging", [verdict(1), without(entry(2), "device")]),
        ("gate-logging", [verdict(1), without(entry(2), "granted")]),
        ("gate-logging", [without(verdict(1), "tick"), entry(2)]),
    ],
)
def test_record_missing_a_key_fails_without_raising(name, records):
    findings = {f.name: f for f in audit.audit(transcript_of(records))}
    assert not findings[name].ok


# -- in-place edits of parsed transcripts -------------------------------------


def parsed(scenario):
    transcript, _ = run_scenario(scenario, seed=11)
    parsed = Transcript.parse(transcript.to_text())
    findings = {f.name: f for f in audit.audit(parsed)}
    assert all(f.ok for f in findings.values()), findings
    return parsed


def failing(transcript):
    return {f.name for f in audit.audit(transcript) if not f.ok}


def test_audit_sees_edits_to_a_parsed_transcript():
    transcript = parsed("prepaid-happy")
    for record in transcript.events("attestation-verdict"):
        record["accepted"] = False
    assert "no-grant-without-attestation" in failing(transcript)

    transcript = parsed("prepaid-happy")
    window = transcript.snapshot["summary"].get("freshness_window", DEFAULT_FRESHNESS_WINDOW)
    last = transcript.events("grant")[-1]
    transcript.records.append({**last, "tick": last["tick"] + window + 1})
    assert "no-grant-without-attestation" in failing(transcript)

    transcript = parsed("facility-entry")
    for record in transcript.events("attestation-verdict"):
        record["tick"] = transcript.snapshot["tick"] + 1
    assert "gate-logging" in failing(transcript)


def test_audit_sees_edits_between_two_audits_of_one_transcript():
    transcript = parsed("pos-sep-duties")
    attrs = set(vars(transcript))
    package = transcript.messages("billing-package")[0]
    package["payload"]["note"] = "x"
    package["labels"]["note"] = "plumbing"
    assert "billing-package-exactness" in failing(transcript)
    del package["payload"]["note"]
    assert "billing-package-exactness" not in failing(transcript)
    transcript.records = [r for r in transcript.records if r.get("event") != "ack-verified"]
    assert "no-delivery-without-confirmation" in failing(transcript)
    assert set(vars(transcript)) == attrs  # audit stores nothing on the transcript


# -- audit() against the reference checks -------------------------------------


@functools.lru_cache(maxsize=None)
def transcript_pool() -> tuple:
    """Transcript texts: every catalog scenario clean, a few attacks, and a
    prepaid run long enough to replenish its credentials (sealed
    envelopes both ways)."""
    runs = [(name, ()) for name in CATALOG]
    runs += [("pos-fig4", ("ack-strip",)), ("pos-sep-duties", ("reuse-token",)),
             ("one-time-aik-auth", ("replay-aik",)), ("prepaid-zero", ("voucher-replay",))]
    texts = [run_scenario(name, 5, attacks=attacks)[0].to_text() for name, attacks in runs]
    requests = [["calls", 1]] * 14
    happy, _ = run_scenario("prepaid-happy", 5, variants={
        "requests": requests, "vouchers": [20] * 5, "initial_balance": 200})
    texts.append(happy.to_text())
    return tuple(texts)


def _package(rnd):
    fields = {"grand_total": rnd.randint(0, 9)}
    for name in ("auth_token", "signature", "note"):
        if rnd.random() < (0.2 if name == "note" else 0.8):
            fields[name] = "x"
    return fields


def _wrap(rnd, value, receiver):
    """value nested at a random depth in dicts, lists and sealed envelopes,
    some readable by the receiver and some not."""
    for _ in range(rnd.randint(0, 4)):
        shape = rnd.choice(("dict", "list", "sealed"))
        if shape == "dict":
            value = {rnd.choice(("a", "b", "grand_total")): value}
        elif shape == "list":
            value = [rnd.randint(0, 3), value]
        else:
            readers = [receiver] if rnd.random() < 0.5 else ["nobody"]
            value = {"_sealed": {"readers": readers, "payload": {"inner": value},
                                 "labels": {"inner": "price"}}}
    return value


def _malformed_envelope(rnd):
    return rnd.choice(({"_sealed": 5}, {"_sealed": {"readers": []}}, {"_sealed": [1]},
                       {"_sealed": {"payload": None, "labels": {"grand_total": "price"}}}))


def _mutate(rnd, transcript):
    """One random edit: a package (well-formed or not) embedded in a payload
    at some depth or merged into it, a malformed envelope, a shuffle of
    the records, a record of an unknown kind, or one to three keys of a
    record or one label deleted."""
    records = transcript.records
    messages = [r for r in records if r.get("kind") == "message"
                and {"payload", "labels", "receiver"} <= r.keys()]
    op = rnd.choice(("embed", "merge", "envelope", "shuffle", "rekind", "delete-key",
                     "delete-label", "delete-nested"))
    if not messages:
        return
    message = rnd.choice(messages)
    if op == "embed":
        message["payload"]["embedded"] = _wrap(rnd, _package(rnd), message["receiver"])
        message["labels"]["embedded"] = "price"
    elif op == "merge":
        package = _package(rnd)
        message["payload"].update(package)
        message["labels"].update(dict.fromkeys(package, "price"))
    elif op == "envelope":
        message["payload"]["embedded"] = _wrap(rnd, _malformed_envelope(rnd), "nobody")
        message["labels"]["embedded"] = "plumbing"
    elif op == "shuffle":
        rnd.shuffle(records)
    elif op == "rekind":
        rnd.choice(records)["kind"] = "note"
    elif op == "delete-key":
        # several keys at once, so the order in which a check reads a
        # record's keys decides which KeyError its finding names
        record = rnd.choice(records)
        for key in rnd.sample(sorted(record), min(len(record), rnd.randint(1, 3))):
            del record[key]
    elif op == "delete-label" and message["labels"]:
        del message["labels"][rnd.choice(sorted(message["labels"]))]
    elif op == "delete-nested":
        # only a non-empty dict interior has a key to delete; a malformed
        # envelope planted by an earlier edit is left as it is
        for value in message["payload"].values():
            inner = value.get("_sealed") if isinstance(value, dict) else None
            if isinstance(inner, dict) and inner:
                del inner[rnd.choice(sorted(inner))]
                break


@given(st.data(), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_audit_equals_the_reference_checks(data, rnd):
    pool = transcript_pool()
    transcript = Transcript.parse(pool[data.draw(st.integers(0, len(pool) - 1))])
    for _ in range(data.draw(st.integers(0, 3))):
        _mutate(rnd, transcript)
    assert audit.audit(transcript) == reference_audit(transcript)


def _refused_dumps(*args):
    raise TypeError("refused: _canon decides")


@pytest.mark.parametrize("canon_only", [True, False], ids=["json", "default"])
def test_reference_pool_audits_clean_and_equal(monkeypatch, canon_only):
    # the replay on _canon alone, forced by an orjson hook that raises as
    # orjson does where _canon decides, and through orjson behind its gate
    if canon_only:
        monkeypatch.setattr(audit, "_dumps", _refused_dumps)
    for text in transcript_pool():
        transcript = Transcript.parse(text)
        findings = audit.audit(transcript)
        assert all(f.ok for f in findings), findings
        assert findings == reference_audit(transcript)


def test_carrier_views_that_do_not_replay_name_the_carrier_and_tick():
    transcript, _ = run_scenario("one-time-aik-auth", 1)
    transcript = Transcript.parse(transcript.to_text())
    entry = transcript.snapshot["carrier_views"]["mno"][20]
    tick, entry["tick"] = entry["tick"], entry["tick"] + 1000
    expected = Finding("knowledge-soundness", False,
                       f"carrier views do not replay: mno from tick {tick}")
    assert audit.audit(transcript)[0] == expected
    assert reference_audit(transcript)[0] == expected


def test_each_check_alone_equals_its_reference():
    for text in transcript_pool():
        transcript = Transcript.parse(text)
        for (name, check), (_, reference) in zip(audit.INVARIANT_CHECKS, REFERENCE_CHECKS):
            assert check(transcript) == reference(transcript), name


# -- the cyclic collector is paused for parse and audit, then restored --------


@pytest.fixture
def collector():
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_parse_and_audit_restore_the_collector(collector, monkeypatch, enabled):
    text = transcript_pool()[0]
    (gc.enable if enabled else gc.disable)()
    seen = []
    decode_lines = harness._decode_lines

    def spying_decode_lines(lines):
        seen.append(gc.isenabled())
        return decode_lines(lines)

    monkeypatch.setattr(harness, "_decode_lines", spying_decode_lines)
    transcript = Transcript.parse(text)
    monkeypatch.undo()
    assert seen and not any(seen)
    assert gc.isenabled() is enabled

    checks = audit.INVARIANT_CHECKS
    seen.clear()
    spy = (("spy", lambda t: seen.append(gc.isenabled()) or Finding("spy", True)),)
    monkeypatch.setattr(audit, "INVARIANT_CHECKS", checks + spy)
    assert all(f.ok for f in audit.audit(transcript))
    assert seen == [False]
    assert gc.isenabled() is enabled


class Interrupted(BaseException):
    pass


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_parse_and_audit_restore_the_collector_on_exceptions(collector, monkeypatch,
                                                              enabled):
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(ValueError):
        Transcript.parse('{"schema": "trustsim-transcript/1"}\n{"kind": "event"}\n')
    assert gc.isenabled() is enabled

    def interrupt(transcript):
        raise Interrupted

    monkeypatch.setattr(audit, "INVARIANT_CHECKS", (("interrupt", interrupt),))
    with pytest.raises(Interrupted):
        audit.audit(Transcript.parse(transcript_pool()[0]))
    assert gc.isenabled() is enabled
