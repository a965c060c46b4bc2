"""Canonical JSON over one value domain: a str with no lone surrogate, an
int in [-2**63, 2**64), a bool, None, and lists and dicts with str keys of
those, nested at most 255 levels. Over it every encoder writes the UTF-8 of
json.dumps(value, sort_keys=True, separators=(",", ":"),
ensure_ascii=False), one encoding per message; send refuses a hooked record
outside it, parse a line outside it, and the audit a value orjson refuses."""

import collections
import contextlib
import dataclasses
import datetime
import enum
import json
import os
import subprocess
import sys
import uuid

import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trustsim import audit, crypto, harness
from trustsim.harness import Simulation, Transcript, seal
from trustsim.scenarios import run_scenario

from audit_reference import reference_audit


def reference(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


ENCODERS = {
    "crypto": crypto.canonical_json,
    "crypto-bytes": lambda value: crypto.canonical_bytes(value).decode("utf-8"),
    "audit": audit._canon,
}


def outcome(fn, *args):
    """("ok", result), or the type and message of what fn raised."""
    try:
        return "ok", fn(*args)
    except Exception as err:  # compared, not handled
        return type(err), str(err)


def typed(value):
    """value with the type of each part spelled out, and each scalar as its
    repr: == on two of them is type-exact (2**64 == 2.0**64, but not here)
    and order-exact for dict keys."""
    if type(value) is dict:
        return dict, [(typed(k), typed(v)) for k, v in value.items()]
    if type(value) is list:
        return list, [typed(v) for v in value]
    return type(value), repr(value)


def typed_outcome(fn, *args):
    result = outcome(fn, *args)
    return ("ok", typed(result[1])) if result[0] == "ok" else result


# -- the domain and its one form ------------------------------------------------

# The edges of the int range, and text with non-ASCII, DEL, U+2028, control
# and astral characters.
EDGE_INTS = [2**64 - 1, 2**63, 2**63 - 1, -(2**63), 10**19, -(10**18), 0]
EDGE_TEXT = ["é", "\x7f", "\u2028 ", "\x00\x1f\n\t\\\"/", "😀", "中文 ☕"]
domain_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**63), 2**64 - 1)
    | st.sampled_from(EDGE_INTS)
    | st.text()
    | st.sampled_from(EDGE_TEXT),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=8), children, max_size=5),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(domain_values)
@example({"b": [1, True, None], "a": {"é": "中\x00\x1f ", "\x7f": -(2**63)}})
@example(["😀 \u2028 and \x7f", 2**64 - 1])
def test_every_encoder_writes_the_canonical_form_over_the_domain(value):
    crypto.check_domain(value)
    expected = reference(value)
    for name, encode in ENCODERS.items():
        assert encode(value) == expected, name
    assert orjson.dumps(value, option=orjson.OPT_SORT_KEYS) == expected.encode()


def _nested(levels, leaf=None):
    """leaf inside levels lists."""
    value = leaf
    for _ in range(levels):
        value = [value]
    return value


# Values just outside the domain, each with what check_domain names.
OUTSIDE = {
    "float": (1.5, "a value of type float"),
    "nan": (float("nan"), "a value of type float"),
    "infinity": (float("inf"), "a value of type float"),
    "wide-int": (2**64, "an int outside"),
    "narrow-int": (-(2**63) - 1, "an int outside"),
    "int-key": ({1: "a"}, "a dict key that is not a str"),
    "lone-surrogate": ("\ud800", "a lone surrogate"),
    "lone-surrogate-key": ({"\udc00": 1}, "a lone surrogate"),
    "256-deep": (_nested(256, 1), "nested deeper than 255 levels"),
    "tuple": ((1, 2), "a value of type tuple"),
    "bytes": (b"x", "a value of type bytes"),
    "str-subclass": (type("Text", (str,), {})("x"), "a value of type Text"),
    "enum": (enum.Enum("Colour", "RED").RED, "a value of type Colour"),
    "uuid": (uuid.UUID(int=5), "a value of type UUID"),
}


@pytest.mark.parametrize("case", OUTSIDE)
def test_check_domain_names_what_is_outside_it(case):
    value, named = OUTSIDE[case]
    with pytest.raises(ValueError, match=named):
        crypto.check_domain({"v": [value]})


def test_the_domain_nests_as_deep_as_orjson_writes():
    crypto.check_domain(_nested(255, 1))
    crypto.check_domain(_nested(254, []))
    assert orjson.dumps(_nested(255, 1)) and orjson.dumps(_nested(254, []))
    for value in (_nested(256, 1), _nested(255, [])):
        with pytest.raises(ValueError, match="nested deeper"):
            crypto.check_domain(value)
        with pytest.raises(TypeError):
            orjson.dumps(value)


# orjson refuses each of these, so every encoder raises TypeError, bare or
# inside a list.
REFUSED = [2**64, -(2**63) - 1, "\ud800", "é\udfff", {1: "a"}, {"k": ["\ud800"]},
           _nested(256), b"x", {1, 2},
           object(), 1j, (collections.namedtuple("Pair", "a b"))(1, 2),
           dataclasses.make_dataclass("Point", ["x"])(1), datetime.datetime(2020, 1, 1),
           type("Number", (int,), {})(3), type("Shown", (dict,), {})(a=1)]


@pytest.mark.parametrize("value", REFUSED, ids=lambda v: type(v).__name__)
def test_every_encoder_refuses_what_orjson_refuses(value):
    for name, encode in {**ENCODERS, "to_text": lambda v: _transcript([{"v": v}]).to_text()
                         }.items():
        for wrapped in (value, [value]):
            with pytest.raises(TypeError):
                encode(wrapped)
    with pytest.raises(ValueError):
        crypto.check_domain(value)


def test_a_cyclic_value_raises_type_error():
    looped_list, looped_dict = [], {}
    looped_list.append(looped_list)
    looped_dict["self"] = [looped_dict]
    for name, encode in ENCODERS.items():
        for cyclic in (looped_list, looped_dict):
            with pytest.raises(TypeError):
                encode(cyclic)
    with pytest.raises(ValueError, match="nested deeper"):
        crypto.check_domain(looped_list)


# -- send refuses a hooked record outside the domain ---------------------------


def _unit_sim():
    sim = Simulation(seed=3, scenario="unit")
    for pid, role in (("dev", "device"), ("owner", "pos_owner"), ("mno", "mno")):
        sim.add_party(pid, role)
    return sim


def _state(sim):
    knowledge = {party: sorted(rows) for party, rows in sim.knowledge.items()}
    return repr([sim.tick, sim.records, knowledge, sim.carrier_views])


# A record line nests the payload one level below the record, and a field
# value one more: a field nested 253 deep is as deep as the domain goes.
SENT_OUTSIDE = {
    "float": 1.5,
    "nan": float("nan"),
    "wide-int": 2**64,
    "int-key": {1: "a"},
    "lone-surrogate": "\ud800",
    "300-deep": _nested(300),
    "line-256-deep": _nested(253, []),
    "tuple": (1, 2),
    "enum": enum.Enum("Colour", "RED").RED,
}


@pytest.mark.parametrize("replace", [True, False], ids=["replaced", "in-place"])
@pytest.mark.parametrize("case", SENT_OUTSIDE)
def test_send_refuses_a_hooked_record_outside_the_domain(case, replace):
    sim = _unit_sim()
    sim.send("dev", "owner", "mobile", "order", {"quote": 1})
    before = _state(sim)

    def hook(record):
        payload = {**record["payload"], "quote": SENT_OUTSIDE[case]}
        if replace:
            return {**record, "payload": payload}
        record["payload"] = payload
        return None

    sim.add_hook(hook)
    with pytest.raises(ValueError, match="record outside the JSON value domain"):
        sim.send("dev", "owner", "mobile", "order", {"quote": 2})
    assert _state(sim) == before


@pytest.mark.parametrize("value", [2**64 - 1, -(2**63), _nested(252, []), _nested(253, 1),
                                   "é\x7f\u2028😀"], ids=["top", "bottom", "deep", "deep-leaf",
                                                         "text"])
def test_send_takes_a_hooked_record_at_the_edges_of_the_domain(value):
    sim = _unit_sim()
    sim.add_hook(lambda record: record["payload"].update(quote=value))
    sim.send("dev", "owner", "mobile", "order", {"quote": 2})
    assert ("quote", "plumbing", reference(value)) in sim.knowledge["owner"]
    text = sim.finalize().to_text()
    assert Transcript.parse(text).records[0]["payload"]["quote"] == value


# -- the transcript decoder -----------------------------------------------------

# The line decoder's two paths: orjson behind its gates, and _strict_loads
# line by line, forced by an orjson hook that raises as orjson does where
# the gates fall back.
CODECS = ["json", "orjson"]


def refused_loads(*args):
    raise ValueError("refused: the stdlib path decides")


@contextlib.contextmanager
def line_codec(name):
    with pytest.MonkeyPatch.context() as patch:
        if name == "json":
            patch.setattr(harness, "_loads", refused_loads)
        yield


record_dicts = st.dictionaries(st.text(max_size=8), domain_values, max_size=5)
padding = st.text(" \t", max_size=3)
blank_lines = st.lists(st.text(" \t", max_size=3), max_size=2)
HEADER = {"schema": harness.TRANSCRIPT_SCHEMA, "scenario": "unit"}
SNAPSHOT = {"kind": "snapshot", "tick": 0}


def _layout(draw, lines):
    """lines padded with JSON whitespace, blank lines in between."""
    out = []
    for line in lines:
        out += draw(blank_lines)
        out.append(draw(padding) + line + draw(padding))
    out += draw(blank_lines)
    return "\n".join(out) + "\n"


@st.composite
def padded_transcripts(draw):
    records = draw(st.lists(record_dicts, max_size=6))
    encode = draw(st.sampled_from([reference, json.dumps]))
    lines = [encode(value) for value in [HEADER, *records, SNAPSHOT]]
    return _layout(draw, lines)


# The edge ints of the domain as a value, in a list, after whitespace and as
# a bare line: each decodes as an int.
EDGE_INT_LINES = [form.format(n) for n in EDGE_INTS
                  for form in ('{{"v":{}}}', "[1,{}]", '{{"v": \t{}}}', "[ {}]", "{}")]


def _decode_lines(lines):
    """lines decoded as Transcript.parse decodes the lines after a header:
    one number gate over them all, then batch by batch."""
    return harness._decode_lines(lines, harness._plain_numbers("\n".join(lines), 0))


@settings(max_examples=100, deadline=None)
@given(padded_transcripts())
@example("".join(f"{line}\n" for line in [reference(HEADER), *EDGE_INT_LINES,
                                          reference(SNAPSHOT)]))
@example(f'{reference(HEADER)}\n{{"v":[1,{2**64 - 1}]}}\n{{"kind":"snapshot","n":-{2**63}}}\n')
def test_parse_is_per_line_json_loads_over_the_domain(text):
    lines = typed([json.loads(line) for line in text.split("\n") if line.strip()])
    for codec in CODECS:
        with line_codec(codec):
            parsed = Transcript.parse(text)
        assert typed([parsed.header, *parsed.records, parsed.snapshot]) == lines, codec


@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("line", EDGE_INT_LINES)
def test_an_int_at_the_edges_of_the_domain_decodes_as_an_int(codec, line):
    with line_codec(codec):  # first in a batch, and after a line break
        assert typed(_decode_lines([line])) == typed([json.loads(line)])
        assert typed(_decode_lines(["[]", line])) == typed([[], json.loads(line)])


@settings(max_examples=100, deadline=None)
@given(st.lists(record_dicts, max_size=6))
def test_to_text_writes_the_canonical_lines_and_parse_reads_them_back(records):
    transcript = _transcript(records)
    text = transcript.to_text()
    assert text == _reference_text(transcript)
    parsed = Transcript.parse(text)
    assert typed([parsed.header, *parsed.records, parsed.snapshot]) == typed(
        [json.loads(reference(value))
         for value in [transcript.header, *transcript.records, transcript.snapshot]])
    assert parsed.to_text() == text


# Number tokens outside the domain; parse refuses each, wherever it stands.
REFUSED_TOKENS = ["1.5", "1e16", "-0.0", "1E5", "NaN", "Infinity", "-Infinity", str(2**64),
                  str(-(2**63) - 1), "1" + "0" * 30]
# orjson refuses an escaped lone surrogate, which json.loads reads, so its
# batch decodes line by line.
FALLBACK_LINE = '{"v":"\\ud800"}'


def _lines_with(token, at, fallback):
    """A header, 150 records with {"v": token} as record at, and a snapshot:
    the token in the first batch or a later one, alone or beside a line that
    sends its batch to the line-by-line path."""
    records = [reference({"n": i}) for i in range(150)]
    records[at] = f'{{"v":{token}}}'
    if fallback:
        records[at + 1] = FALLBACK_LINE
    return [reference(HEADER), *records, reference(SNAPSHOT)]


@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("fallback", [False, True], ids=["alone", "fallback-batch"])
@pytest.mark.parametrize("at", [0, 100], ids=["first-batch", "later-batch"])
@pytest.mark.parametrize("token", REFUSED_TOKENS)
def test_parse_refuses_a_number_outside_the_domain(token, at, fallback, codec):
    text = "\n".join(_lines_with(token, at, fallback)) + "\n"
    with line_codec(codec):
        with pytest.raises(ValueError, match=f"{token} is outside the JSON value domain"):
            Transcript.parse(text)


@pytest.mark.parametrize("token", ["1.5", "NaN", str(2**64)])
def test_parse_refuses_a_number_outside_the_domain_in_the_header_and_snapshot(token):
    for lines in ([f'{{"schema":"{harness.TRANSCRIPT_SCHEMA}","v":{token}}}', "{}",
                   reference(SNAPSHOT)],
                  [reference(HEADER), "{}", f'{{"kind":"snapshot","v":{token}}}']):
        with pytest.raises(ValueError, match="outside the JSON value domain"):
            Transcript.parse("\n".join(lines))


def test_a_wide_header_seed_sends_only_the_header_to_json_loads(monkeypatch):
    text = run_scenario("pos-fig4", 2**64 - 1)[0].to_text()
    header = text.split("\n", 1)[0]
    assert '"seed":18446744073709551615' in header
    decoded = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda line, **kw: decoded.append(line) or loads(line, **kw))
    Transcript.parse(text)
    assert decoded == [header]


def test_whether_a_line_decodes_does_not_depend_on_its_neighbours():
    # 1,000 deep is within what orjson reads and beyond json.loads's recursion;
    # an escaped lone surrogate sends its batch, and a float-like token in a
    # string the whole text, past the orjson path, and the deep line still
    # decodes through orjson alone
    lines = run_scenario("pos-fig4", 1)[0].to_text().split("\n")
    message = next(i for i, line in enumerate(lines) if '"kind":"message"' in line)
    event = next(i for i, line in enumerate(lines) if '"kind":"event"' in line)
    assert max(message, event) <= harness._BATCH  # records 0-63: one batch
    deep = "[" * 1_000 + "]" * 1_000
    lines[message] = lines[message].replace('"labels":{', '"labels":{"deep":"plumbing",', 1)
    lines[message] = lines[message].replace('"payload":{', f'"payload":{{"deep":{deep},', 1)
    lines[event] = f'{{"s":"\\ud800","t":"v 1.5",{lines[event][1:]}'
    text = "\n".join(lines)
    assert not harness._plain_numbers(text, 0)
    transcript = Transcript.parse(text)
    value = transcript.records[message - 1]["payload"]["deep"]
    for _ in range(999):
        (value,) = value
    assert value == []
    assert transcript.records[event - 1]["t"] == "v 1.5"


def _mutants(line):
    """Lines that json.loads mostly rejects, each near the valid line."""
    cut = st.integers(1, max(len(line) - 1, 1))
    return (
        cut.map(lambda i: line[:i])
        | st.sampled_from(["x", " 1", "}", ",", " \xa0", ".5", "e5"]).map(lambda tail: line + tail)
        | st.sampled_from(["\ufeff", "\xa0", "x", "]"]).map(lambda head: head + line)
        | st.tuples(cut, st.sampled_from(list('"{}[],:\\ \x00.e'))).map(
            lambda t: line[:t[0]] + t[1] + line[t[0]:])
    ).filter(lambda mutant: "\n" not in mutant and "\r" not in mutant)


@st.composite
def malformed_transcripts(draw):
    records = [reference(r) for r in draw(st.lists(record_dicts, min_size=1, max_size=3))]
    index = draw(st.integers(0, len(records) - 1))
    records[index] = draw(_mutants(records[index]))
    text = "\n".join([reference(HEADER), *records, reference(SNAPSHOT)]) + "\n"
    return text, index, records[index]


@settings(max_examples=150, deadline=None)
@given(malformed_transcripts())
@example(('{"schema":"trustsim-transcript/1"}\n{"a":1}x\n{"kind":"snapshot"}\n', 0, '{"a":1}x'))
@example(('{"schema":"trustsim-transcript/1"}\n{"a":1.5}\n{"kind":"snapshot"}\n', 0, '{"a":1.5}'))
def test_a_malformed_line_fails_as_strict_json_loads_fails(case):
    text, index, line = case
    expected = outcome(harness._strict_loads, line)
    assert outcome(lambda: Transcript.parse(text).records[index]) == expected


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=12))
@example("\ufeff{}")
@example(" 1")
@example("1 ")
@example("[1,")
@example("NaN")
@example("-0")
@example("1.5")
@example("1e5")
@example('"\\ud800"')
@example('"\ud800"')
@example(f"-{2**63}")
@example(f"-{2**63 + 1}")
@example(f" {2**64 - 1}")
@example(f"{2**64}")
def test_a_line_decodes_as_strict_json_loads_decodes_it(line):
    expected = typed_outcome(lambda: [harness._strict_loads(line)])
    for codec in CODECS:
        with line_codec(codec):
            assert typed_outcome(_decode_lines, [line]) == expected, codec


# Lines longer than one window of the number gate (harness._CHUNK bytes): each
# value on both sides of the first window edge between lines and inside one
# long line. The gate still reads window by window.
FILLER = {"f": "x" * 991}  # a 999-character line
EDGE = harness._CHUNK // 1000  # the first window edge is within a line of this index
EDGE_VALUES = {"exponent": "1e16", "float": "1.5", "wide-int": str(2**64),
               "top-int": str(2**64 - 1), "bottom-int": str(-(2**63)),
               "non-ascii": '"é"', "del": '"\x7f"'}
# where a value's text begins, in bytes from its line's first window edge,
# give or take the line break before it
SHIFTS = (-30, -11, -3, -2, -1, 0, 5)


def _at_line(index, token, count=2 * EDGE):
    lines = [reference(FILLER)] * count
    lines[index] = f'{{"f":"{"x" * 991}","v":{token}}}'
    return lines


def _in_window(shift, token):
    return [f'{{"a":"{"y" * (harness._CHUNK - 12 + shift)}","v":{token}}}', reference(FILLER)]


def _late_line(line):
    return [*[reference(FILLER)] * (2 * EDGE + 7), line, *[reference(FILLER)] * EDGE]


DECODE_CASES = {
    **{f"{name}-line{index - EDGE:+d}": _at_line(index, token)
       for name, token in EDGE_VALUES.items() for index in range(EDGE - 3, EDGE + 3)},
    **{f"{name}-window{shift:+d}": _in_window(shift, token)
       for name, token in EDGE_VALUES.items() for shift in SHIFTS},
    "late-wide-int": _at_line(2 * EDGE + 7, str(-(2**70)), 3 * EDGE),
    "late-malformed": _late_line('{"f":1}x'),
    "late-nan": _late_line('{"v":NaN}'),
    "late-surrogate-escape": _late_line('{"v":"\\ud800"}'),
    "late-lone-surrogate": _late_line('{"v":"\ud800"}'),
    "late-wide-int-line": _late_line(f"[1,{2**64}]"),
}


def _parsed_lines(text):
    transcript = Transcript.parse(text)
    return [transcript.header, *transcript.records, transcript.snapshot]


@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("case", DECODE_CASES)
def test_long_line_lists_decode_as_strict_json_loads_decodes_each_line(codec, case):
    records = DECODE_CASES[case]
    lines = [reference(HEADER), *records, reference(SNAPSHOT)]
    expected = typed_outcome(lambda: [harness._strict_loads(line) for line in records])
    with line_codec(codec):
        assert typed_outcome(_decode_lines, list(records)) == expected
        assert typed_outcome(lambda: _parsed_lines("\n".join(lines) + "\n")[1:-1]) == expected


# -- the transcript encoder -----------------------------------------------------


def _transcript(records):
    return Transcript(header=HEADER, records=[*records, {"kind": "x", "n": 7}],
                      snapshot=SNAPSHOT)


def _reference_text(transcript):
    values = [transcript.header, *transcript.records, transcript.snapshot]
    return "".join(reference(value) + "\n" for value in values)


# Records longer than one window of the number gate, as in DECODE_CASES, with
# a value from the edges of the domain on both sides of the first window edge,
# between lines and inside one long line: to_text writes the canonical lines,
# and parse reads each value back with its type.
EDGE_RECORD_VALUES = {"non-ascii": "é", "del": "\x7f", "line-separator": "\u2028 ",
                      "controls": "\x00\x1f\n\t\\\"/", "astral": "😀",
                      "top-int": 2**64 - 1, "int-2**63": 2**63, "bottom-int": -(2**63)}


def _record_at_line(index, value, count=2 * EDGE):
    records = [FILLER] * count
    records[index] = {"f": "x" * 991, "v": value}
    return records


def _record_in_window(shift, value):
    return [{"a": "y" * (harness._CHUNK - 12 + shift), "v": value}, FILLER]


ROUND_TRIP_CASES = {
    **{f"{name}-line{index - EDGE:+d}": _record_at_line(index, value)
       for name, value in EDGE_RECORD_VALUES.items() for index in range(EDGE - 3, EDGE + 3)},
    **{f"{name}-window{shift:+d}": _record_in_window(shift, value)
       for name, value in EDGE_RECORD_VALUES.items() for shift in SHIFTS},
}


@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("case", ROUND_TRIP_CASES)
def test_long_transcripts_write_the_canonical_lines_and_read_them_back(codec, case):
    transcript = _transcript(ROUND_TRIP_CASES[case])
    text = transcript.to_text()
    assert text == _reference_text(transcript)
    with line_codec(codec):
        parsed = Transcript.parse(text)
    assert typed(parsed.records) == typed(transcript.records)
    assert parsed.to_text() == text


# Values that orjson refuses, in a record past the first window: to_text
# raises TypeError there as on the first line.
LATE_REFUSED = {"wide-int": -(2**70), "int-keys": {1: "a"}, "lone-surrogate": "\ud800",
                "bytes": b"x"}


@pytest.mark.parametrize("case", LATE_REFUSED)
def test_to_text_refuses_a_late_value_outside_the_domain(case):
    transcript = _transcript(_record_at_line(2 * EDGE + 7, LATE_REFUSED[case], 3 * EDGE))
    with pytest.raises(TypeError):
        transcript.to_text()


def test_a_facility_run_with_a_non_ascii_zone_writes_it_raw_and_reads_back():
    transcript, report = run_scenario("facility-entry", 1, variants={
        "zones": {"zone-é": {"camera": "disabled"}}})
    assert report["ok"]
    text = transcript.to_text()
    assert "zone-é" in text and "\\u00e9" not in text
    parsed = Transcript.parse(text)
    assert parsed.to_text() == text
    assert all(f.ok for f in audit.audit(parsed))


# -- knowledge: the per-field encoding, live and in the replay ----------------


def test_receiver_and_carrier_knowledge_is_the_per_field_encoding():
    sim = _unit_sim()
    plain = {
        "good": "café ☕",
        "quote": {"z": [1, -5, None], "a": {"nested": True}},
        "price": 120,
    }
    plain_labels = {"good": "good", "quote": "plumbing", "price": "price"}
    inner = {"auth_token": "cola", "certificate": "t-1\x00"}
    inner_labels = {"auth_token": "token", "certificate": "token"}
    sim.send("dev", "owner", "mobile", "order", {**plain, "env": seal(["owner"], inner)})

    carrier_rows = {(f, plain_labels[f], reference(v)) for f, v in plain.items()}
    receiver_rows = carrier_rows | {(f, inner_labels[f], reference(v)) for f, v in inner.items()}
    assert sim.knowledge["owner"] == receiver_rows
    assert sim.knowledge["mno"] == carrier_rows  # the seal stays shut

    parsed = Transcript.parse(sim.finalize().to_text())
    knowledge, _, _ = audit._replay_observations(parsed)
    assert knowledge["owner"] == receiver_rows
    assert knowledge["mno"] == carrier_rows
    assert all(f.ok for f in audit.audit(parsed))


def test_one_payload_under_two_label_sets_is_read_under_both():
    sim = _unit_sim()
    shared = {"x": "v"}
    # interiors built by hand: seal() would label x from the table, once
    payload = {
        "env": {"_sealed": {"readers": ["owner"], "payload": shared, "labels": {"x": "good"}}},
        "blob": {"_sealed": {"readers": ["owner"], "payload": shared, "labels": {"x": "price"}}},
    }
    sim.send("dev", "owner", "mobile", "pair", payload)
    expected = {("x", "good", '"v"'), ("x", "price", '"v"')}
    assert sim.knowledge["owner"] == expected
    assert sim.knowledge["mno"] == set()
    # the auditor sees the same shared objects when it checks a run in memory
    knowledge, _, _ = audit._replay_observations(sim.finalize())
    assert knowledge["owner"] == expected


_INNER = {"auth_token": "cola", "certificate": "t-1"}
_INNER_ROWS = {(f, "token", reference(v)) for f, v in _INNER.items()}


def _opaque(envelope):
    envelope["_sealed"]["labels"] = None  # an interior out of shape opens for no one
    return envelope


# An unencrypted mobile message from dev to owner, which the carrier mno
# observes: each envelope case and the parties that read its interior.
SEALED_CASES = {
    "carrier-listed": (lambda: seal(["mno", "owner"], _INNER), {"owner", "mno"}),
    "carrier-not-listed": (lambda: seal(["owner"], _INNER), {"owner"}),
    "opaque": (lambda: _opaque(seal(["mno", "owner"], _INNER)), set()),
    "nested-for-carrier": (
        lambda: seal(["mno", "owner"], {"env": seal(["mno"], _INNER)}), {"mno"}),
}


@pytest.mark.parametrize("case", SEALED_CASES.values(), ids=SEALED_CASES.keys())
def test_sealed_interiors_open_alike_live_and_in_the_replay(case):
    envelope, readers = case
    sim = _unit_sim()
    sim.send("dev", "owner", "mobile", "order", {"price": 3, "env": envelope()})
    for party in ("dev", "owner", "mno"):
        expected = ({("price", "price", "3")} if party != "dev" else set()) | (
            _INNER_ROWS if party in readers else set())
        assert sim.knowledge[party] == expected, party

    transcript = sim.finalize()
    for replayed in (transcript, Transcript.parse(transcript.to_text())):
        knowledge, _, _ = audit._replay_observations(replayed)
        assert knowledge == sim.knowledge
        assert all(f.ok for f in audit.audit(replayed))


def test_audit_imports_no_other_trustsim_module():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    code = ("import sys, trustsim.audit; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'trustsim'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "['trustsim', 'trustsim.audit']"


# -- the audit replay refuses what orjson refuses --------------------------------

# Values the replay encodes: the domain, and values orjson refuses.
replayed_values = st.recursive(
    domain_values
    | st.sampled_from([2**64, -(2**63) - 1, 10**30, "\ud800", "a\udfffb", _nested(255)]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4)
    | st.dictionaries(st.integers(-3, 3), children, min_size=1, max_size=2),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(replayed_values, replayed_values, st.integers(0, 2))
@example(2**64, "ok", 1)
@example({"k": [{1: "x"}]}, "ok", 0)
@example("ok", ["\ud800"], 2)
@example(_nested(253), _nested(254), 1)
def test_the_audit_refuses_what_orjson_refuses_as_the_reference_does(value, other, at):
    sim = _unit_sim()
    for n in range(3):
        sim.send("dev", "owner", "mobile", "order",
                 {"quote": n, "price": n, "env": seal(["owner"], {"proof": n})})
    transcript = sim.finalize()
    message = transcript.records[at]
    message["payload"].update(quote=value, price=other)
    message["payload"]["env"]["_sealed"]["payload"]["proof"] = value
    findings = audit.audit(transcript)
    assert findings == reference_audit(transcript)
    refused = any(_refused(v) for v in (value, other))
    assert (findings[0] == audit.Finding(
        "knowledge-soundness", False,
        f"message {message['id']} holds a value outside the JSON value domain")) == refused


def _refused(value) -> bool:
    try:
        orjson.dumps(value)
    except TypeError:
        return True
    return False


# A snapshot row spelled otherwise than the canonical form: each fails
# knowledge-soundness.
FORGED_ROWS = {
    "ascii-escaped": (["é"], '["\\u00e9"]'),
    "del-escaped": (["\x7f"], '["\\u007f"]'),
    "spaced": ([1, 2], "[1, 2]"),
    "unsorted": ({"b": 1, "a": 2}, '{"b":1,"a":2}'),
}


@pytest.mark.parametrize("case", FORGED_ROWS)
def test_a_row_in_another_spelling_fails_knowledge_soundness(case):
    value, spelled = FORGED_ROWS[case]
    sim = _unit_sim()
    sim.send("dev", "owner", "net", "order", {"quote": value})
    transcript = sim.finalize()
    [row] = transcript.snapshot["knowledge"]["owner"]
    assert row[2] == reference(value) != spelled
    row[2] = spelled
    expected = audit.Finding("knowledge-soundness", False,
                             "party owner: 1 unexplained, 1 missing entries")
    for forged in (transcript, Transcript.parse(transcript.to_text())):
        assert audit.audit(forged)[0] == expected == reference_audit(forged)[0]
