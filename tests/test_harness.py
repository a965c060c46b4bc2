"""Harness: delivery rules, knowledge sets, envelopes, transcripts, auditor."""

import json

import pytest

from trustsim import audit, crypto, scenarios
from trustsim.flows import hop
from trustsim.harness import (
    CHANNELS,
    DROP,
    FIELD_LABELS,
    LABELS,
    Simulation,
    Transcript,
    seal,
)

from test_flows import _run_with_hook


def basic_sim(**kwargs):
    sim = Simulation(seed=42, scenario="unit", **kwargs)
    for pid, role in [("dev", "device"), ("mno", "mno"), ("pos", "pos"), ("owner", "pos_owner")]:
        sim.add_party(pid, role)
    return sim


def test_plaintext_on_mobile_network_reaches_carrier_view_and_knowledge():
    sim = basic_sim()
    sim.send("dev", "owner", "mobile", "hello", {"good": "cola"})
    assert sim.knowledge_query("owner", "good") == {crypto.canonical_json("cola")}
    assert sim.knowledge_query("mno", "good") == {crypto.canonical_json("cola")}
    assert sim.carrier_views["mno"] == [{"tick": 1, "channel": "mobile", "fields": ["good"], "encrypted": False}]


def test_encrypted_payload_reaches_endpoints_only():
    sim = basic_sim()
    sim.send("dev", "owner", "mobile", "hello", {"good": "cola"}, encrypted=True)
    assert sim.knowledge_query("owner", "good") == {crypto.canonical_json("cola")}
    assert sim.knowledge_query("mno", "good") == set()
    # the carrier still sees the shape
    assert sim.carrier_views["mno"][0]["fields"] == ["good"]


def test_short_range_never_enters_carrier_state():
    sim = basic_sim()
    sim.send("dev", "pos", "sr", "hello", {"good": "cola"})
    assert sim.carrier_views == {}
    assert sim.knowledge_query("mno", "good") == set()
    assert sim.knowledge_query("pos", "good") == {crypto.canonical_json("cola")}


def test_carrier_as_endpoint_reads_like_any_receiver():
    sim = basic_sim()
    sim.send("dev", "mno", "mobile", "order", {"price": 120})
    assert sim.knowledge_query("mno", "price") == {crypto.canonical_json(120)}
    assert sim.carrier_views == {}


def test_sealed_payload_opens_only_for_readers():
    sim = basic_sim()
    envelope = seal(["owner"], {"good": "cola", "cost": 3})
    # relay hop: pos -> dev (short range), dev -> owner (mobile, encrypted)
    sim.send("pos", "dev", "sr", "relay", {"env": envelope}, encrypted=True)
    sim.send("dev", "owner", "mobile", "relay", {"env": envelope}, encrypted=True)
    assert sim.knowledge_query("dev", "good") == set()
    assert sim.knowledge_query("mno", "good") == set()
    assert sim.knowledge_query("owner", "good") == {crypto.canonical_json("cola")}
    assert sim.knowledge_query("owner", "price") == {crypto.canonical_json(3)}


def test_every_field_label_is_in_the_taxonomy():
    assert set(FIELD_LABELS.values()) <= LABELS


def test_labels_are_mandatory_and_fixed():
    sim = basic_sim()
    with pytest.raises(ValueError, match=r"unlabeled payload fields: \['a'\]"):
        sim.send("dev", "mno", "mobile", "x", {"price": 1, "a": 1})
    sim.add_hook(lambda message: DROP)  # checked before any hook can drop it
    with pytest.raises(ValueError, match="unlabeled"):
        sim.send("dev", "mno", "mobile", "x", {"a": 1})
    assert (sim.tick, sim.records, sim.knowledge["mno"]) == (0, [], set())
    with pytest.raises(ValueError, match=r"unlabeled payload fields: \['a'\]"):
        seal(["owner"], {"good": "cola", "a": 1})


def test_labels_come_from_the_table():
    sim = basic_sim()
    record = sim.send("dev", "mno", "mobile", "order",
                      {"price": 3, "good": seal(["owner"], {"good_id": "cola"})})
    assert record["labels"] == {"price": "price", "good": "good"}
    assert record["payload"]["good"]["_sealed"]["labels"] == {"good_id": "good"}


def test_unknown_party_or_channel_rejected():
    sim = basic_sim()
    with pytest.raises(ValueError):
        sim.send("ghost", "mno", "mobile", "x", {})
    with pytest.raises(ValueError):
        sim.send("dev", "mno", "missing", "x", {})


def test_drop_hook_records_event_and_skips_state():
    sim = basic_sim()
    sim.add_hook(lambda record: DROP if record["type"] == "order" else None)
    out = sim.send("dev", "mno", "mobile", "order", {"price": 5})
    assert out is None
    assert sim.knowledge_query("mno", "price") == set()
    assert sim.tick == 0
    assert len(sim.events("message-dropped")) == 1


def test_send_returns_the_record_it_appended():
    sim = basic_sim()
    payload = {"good": "cola"}
    record = sim.send("dev", "owner", "mobile", "hello", payload, encrypted=True)
    assert record is sim.records[-1]
    assert record == {"kind": "message", "id": "m00001", "tick": 1, "sender": "dev",
                      "receiver": "owner", "channel": "mobile", "type": "hello",
                      "encrypted": True, "payload": payload, "labels": {"good": "good"}}
    assert record["payload"] is not payload
    delivered = hop(sim, "owner", "dev", "mobile", "reply", {"units": 2}, "lost")
    assert delivered is sim.records[-1]["payload"]


def _replaced(record, key, field, value):
    return {**record, key: {**record[key], field: value}}


def _edited_in_place(record, key, field, value):
    record[key][field] = value


EDITS = pytest.mark.parametrize("edit", [_replaced, _edited_in_place],
                                ids=["replaced", "in-place"])


@EDITS
def test_what_a_hook_leaves_is_recorded_and_observed(edit):
    sim = basic_sim()
    sim.add_hook(lambda record: edit(record, "payload", "signature", "00")
                 if record["type"] == "ack" else None)
    record = sim.send("mno", "dev", "mobile", "ack", {"signature": "aabb"})
    assert record is sim.records[-1]
    assert record["payload"] == {"signature": "00"}
    assert sim.knowledge_query("dev", "plumbing") == {crypto.canonical_json("00")}


# A top-level label is the harness's record of a message, not wire content,
# so a hook that rewrites one raises like a protocol step that sends one.
@EDITS
@pytest.mark.parametrize("value", ["bogus", ["price"]], ids=["bogus", "list"])
def test_rewritten_top_level_label_raises(value, edit):
    sim = basic_sim()
    sim.add_hook(lambda record: edit(record, "labels", "entries", value))
    with pytest.raises(ValueError, match="labels outside the fixed taxonomy"):
        sim.send("pos", "dev", "sr", "price-list", {"entries": [["cola", 3]]})
    assert (sim.tick, sim.records) == (0, [])


def _state(sim):
    knowledge = {party: sorted(rows) for party, rows in sim.knowledge.items()}
    return json.dumps([sim.tick, sim.records, knowledge, sim.carrier_views])


GONE = object()  # an edit that deletes the field

# A hook's record is checked as send checks its arguments: a rewritten kind,
# id or tick, an unregistered party, an unknown channel, a sender, receiver
# or channel that is no string, a payload or labels that is no dict, or an
# encrypted flag that is no bool (each also when gone) raises before
# anything of the message is recorded or observed.
@pytest.mark.parametrize("replace", [True, False], ids=["replaced", "in-place"])
@pytest.mark.parametrize("edits", [
    *(pytest.param({field: value}, id=f"{field}-{value}") for field, value in (
        ("kind", "event"), ("id", "m00009"), ("tick", 7), ("sender", "ghost"),
        ("receiver", "ghost"), ("channel", "nowhere"))),
    *(pytest.param({field: value}, id=f"{field}-{type(value).__name__}")
      for field in ("sender", "receiver", "channel") for value in (["b"], {"x": 1})),
    pytest.param({"payload": None}, id="payload-None"),
    pytest.param({"labels": None}, id="labels-None"),
    pytest.param({"payload": GONE}, id="payload-deleted"),
    pytest.param({"payload": [], "labels": {}}, id="payload-list-labels-empty"),
    pytest.param({"encrypted": None}, id="encrypted-None"),
    pytest.param({"encrypted": GONE}, id="encrypted-deleted"),
])
def test_rewritten_routing_field_raises_before_any_state_changes(edits, replace):
    sim = basic_sim()
    sim.send("dev", "owner", "mobile", "hello", {"good": "cola"})
    before = _state(sim)

    def hook(record):
        edited = dict(record) if replace else record
        for field, value in edits.items():
            if value is GONE:
                del edited[field]
            else:
                edited[field] = value
        return edited if replace else None

    sim.add_hook(hook)
    with pytest.raises(ValueError):
        sim.send("dev", "owner", "mobile", "hello", {"good": "tea"})
    assert _state(sim) == before


# Each bad argument of send, as the keyword arguments it replaces; payload
# {"good": "tea"} from "dev" to "owner" on "mobile" is a good send.
BAD_SENDS = {
    **{f"{name}-{type(value).__name__}": {name: value}
       for name in ("sender", "receiver", "channel") for value in (["dev"], 7, None)},
    "sender-unregistered": {"sender": "ghost"},
    "receiver-unregistered": {"receiver": "ghost"},
    "channel-unknown": {"channel": "nowhere"},
    "field-unlabeled": {"payload": {"good": "tea", "a": 1}},
    "encrypted-int": {"encrypted": 1},
    "encrypted-None": {"encrypted": None},
    "payload-pairs": {"payload": [("good", "tea")]},
    "payload-None": {"payload": None},
    "payload-str": {"payload": "good"},
}


# send checks its arguments once, before any hook runs, so a hook sees only
# a send that would have gone through, and a bad one raises the same error
# with or without hooks, before any state changes.
@pytest.mark.parametrize("bad", BAD_SENDS.values(), ids=BAD_SENDS.keys())
def test_a_bad_send_raises_alike_with_and_without_a_hook(bad):
    errors = []
    for hooked in (False, True):
        sim = basic_sim()
        sim.send("dev", "owner", "mobile", "hello", {"good": "cola"})
        seen = []
        if hooked:
            sim.add_hook(seen.append)  # passes every record it sees
        before = _state(sim)
        args = {"sender": "dev", "receiver": "owner", "channel": "mobile",
                "payload": {"good": "tea"}, "encrypted": False, **bad}
        with pytest.raises(ValueError) as raised:
            sim.send(args["sender"], args["receiver"], args["channel"], "hello",
                     args["payload"], encrypted=args["encrypted"])
        errors.append(str(raised.value))
        assert (_state(sim), seen) == (before, [])
        # the message counter did not move either
        assert sim.send("dev", "owner", "mobile", "hello", {"good": "tea"})["id"] == "m00002"
    assert errors[0] == errors[1]


# A clean run reads the same bytes when every message passes a hook: a
# record send built passes the after-hook checks unchanged.
@pytest.mark.parametrize("hook", [lambda record: None, dict], ids=["in-place", "replaced"])
@pytest.mark.parametrize("scenario", sorted(scenarios.CATALOG))
def test_a_pass_through_hook_leaves_the_transcript_bytes(monkeypatch, scenario, hook):
    plain, _ = scenarios.run_scenario(scenario, 1)
    hooked, _, _ = _run_with_hook(monkeypatch, scenario, hook)
    assert hooked.to_text() == plain.to_text()


# A relay forwards the envelope object it received, so a hook's in-place
# edit of the relayed interior must not reach the record of the first leg.
def test_an_in_place_edit_of_a_relayed_envelope_stays_in_its_record(monkeypatch):
    def hook(record):
        if record["type"] == "terminal-relay":
            record["payload"]["env"]["_sealed"]["payload"]["request"] = "open-all-doors"

    transcript, _, _ = _run_with_hook(monkeypatch, "facility-entry", hook)
    requests = {msg_type: m["payload"]["env"]["_sealed"]["payload"]["request"]
                for msg_type in ("terminal-request", "terminal-relay")
                for m in transcript.messages(msg_type)}
    assert requests == {"terminal-request": "show-agenda", "terminal-relay": "open-all-doors"}


@pytest.mark.parametrize("moves", [{"receiver": "owner"}, {"channel": "mobile"},
                                   {"receiver": "owner", "channel": "mobile"}],
                         ids=["receiver", "channel", "both"])
def test_a_hook_may_move_a_message_to_another_party_or_channel(moves):
    sim = basic_sim()
    sim.add_hook(lambda record: {**record, **moves})
    record = sim.send("dev", "pos", "sr", "hello", {"good": "cola"})
    assert record is sim.records[-1]
    assert {key: record[key] for key in moves} == moves
    receiver = moves.get("receiver", "pos")
    on_mobile = moves.get("channel") == "mobile"
    for party in ("pos", "owner", "mno"):
        readable = party == receiver or (party == "mno" and on_mobile)
        expected = {crypto.canonical_json("cola")} if readable else set()
        assert sim.knowledge_query(party, "good") == expected
    assert sim.carrier_views == ({"mno": [{"tick": 1, "channel": "mobile", "fields": ["good"],
                                           "encrypted": False}]} if on_mobile else {})
    findings = audit.audit(Transcript.parse(sim.finalize().to_text()))
    assert all(f.ok for f in findings), [f for f in findings if not f.ok]


def test_each_header_has_its_own_copy_of_the_channel_table():
    first, second = basic_sim().finalize(), basic_sim().finalize()
    assert first.header["channels"] == second.header["channels"] == CHANNELS
    first.header["channels"]["mobile"]["carrier"] = "other"
    first.header["channels"]["extra"] = {"kind": "short_range", "carrier": None}
    assert second.header["channels"] == CHANNELS
    assert CHANNELS["mobile"]["carrier"] == "mno" and "extra" not in CHANNELS


def test_tick_advances_once_per_delivery():
    sim = basic_sim()
    sim.send("dev", "mno", "mobile", "a", {})
    sim.send("mno", "dev", "mobile", "b", {})
    assert sim.tick == 2
    assert [m["tick"] for m in sim.messages()] == [1, 2]


def test_transcript_round_trip_and_queries():
    sim = basic_sim()
    sim.send("dev", "owner", "mobile", "hello", {"good": "cola"})
    sim.event("delivery", order_id="o1")
    transcript = sim.finalize()
    text = transcript.to_text()
    back = Transcript.parse(text)
    assert back.header == transcript.header
    assert back.records == transcript.records
    assert back.snapshot == transcript.snapshot
    assert back.knowledge_query("owner", "good") == {crypto.canonical_json("cola")}
    assert len(back.events("delivery")) == 1
    # stable bytes
    assert back.to_text() == text


def test_transcript_parse_rejects_garbage():
    with pytest.raises(ValueError):
        Transcript.parse("")
    with pytest.raises(ValueError):
        Transcript.parse('{"schema":"other/1"}\n{"kind":"snapshot"}')
    with pytest.raises(json.JSONDecodeError):
        Transcript.parse("not json\nstill not json")


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
def test_transcript_lines_end_only_at_line_feeds_and_returns(separator):
    # JSON allows these raw inside a string, so they must not end a line
    sim = basic_sim()
    sim.send("dev", "owner", "mobile", "hello", {"good": "cola"})
    sim.event("note", text=f"a{separator}b")
    lines = [json.dumps(json.loads(line), ensure_ascii=False)
             for line in sim.finalize().to_text().split("\n")[:-1]]
    assert separator in lines[2]
    back = Transcript.parse("\n".join(lines) + "\n")
    assert back.records == [json.loads(line) for line in lines[1:-1]]
    assert back.events("note")[0]["text"] == f"a{separator}b"
    assert all(f.ok for f in audit.audit(back)), audit.audit(back)


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_transcript_parses_crlf_and_cr_line_ends(newline):
    sim = basic_sim()
    sim.send("dev", "owner", "mobile", "hello", {"good": "cola"})
    sim.event("delivery", order_id="o1")
    transcript = sim.finalize()
    back = Transcript.parse(transcript.to_text().replace("\n", newline))
    assert (back.header, back.records, back.snapshot) == (
        transcript.header, transcript.records, transcript.snapshot)


def test_auditor_accepts_honest_transcript():
    sim = basic_sim()
    envelope = seal(["owner"], {"good": "cola"})
    sim.send("pos", "dev", "sr", "relay", {"env": envelope}, encrypted=True)
    sim.send("dev", "owner", "mobile", "relay", {"env": envelope}, encrypted=True)
    sim.send("dev", "mno", "mobile", "plain", {"units": 1})
    findings = audit.audit(sim.finalize())
    assert all(f.ok for f in findings), [f for f in findings if not f.ok]


def test_auditor_catches_knowledge_snapshot_tampering():
    sim = basic_sim()
    sim.send("dev", "mno", "mobile", "plain", {"units": 1})
    transcript = sim.finalize()
    transcript.snapshot["knowledge"]["pos"] = [["stolen", "good", '"cola"']]
    finding = audit.check_knowledge_soundness(transcript)
    assert not finding.ok


def test_auditor_catches_billing_package_extra_field():
    sim = basic_sim()
    sim.send(
        "owner", "mno", "mobile", "billing-package",
        {"auth_token": "t", "grand_total": 5, "signature": "ss", "order_id": "o1"},
    )
    finding = audit.check_billing_package_exactness(sim.finalize())
    assert not finding.ok


def test_auditor_catches_duplicate_accepted_aik():
    sim = basic_sim()
    for _ in range(2):
        sim.event(
            "attestation-verdict",
            verifier="mno", subject="dev", aik_fp="aa" * 20,
            accepted=True, reasons=["ok"],
        )
    finding = audit.check_one_time_aik(sim.finalize())
    assert not finding.ok


def test_auditor_catches_delivery_without_confirmation():
    sim = basic_sim()
    sim.event("delivery", order_id="o1")
    finding = audit.check_no_delivery_without_confirmation(sim.finalize())
    assert not finding.ok
    sim2 = basic_sim()
    sim2.event("ack-verified", order_id="o1")
    sim2.event("delivery", order_id="o1")
    assert audit.check_no_delivery_without_confirmation(sim2.finalize()).ok


def test_auditor_counter_conservation():
    sim = basic_sim()
    sim.event("balance-init", device="dev", value=100)
    sim.event("top-up", device="dev", value=50, accepted=True)
    sim.event("grant", device="dev", service="calls", cost=30)
    sim.summary["balances"] = {"dev": 120}
    assert audit.check_counter_conservation(sim.finalize()).ok
    sim.summary["balances"] = {"dev": 121}
    assert not audit.check_counter_conservation(sim.finalize()).ok


def test_same_seed_same_bytes():
    def run():
        sim = basic_sim()
        sim.send("dev", "mno", "mobile", "a", {"units": sim.rng.randrange(100)})
        sim.send("mno", "dev", "mobile", "b", {"nonce": sim.rng.u64()})
        return sim.finalize().to_text()

    assert run() == run()
