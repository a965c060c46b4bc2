"""Canonical JSON codecs: one form everywhere, one encoding per message, and
the prebuilt encoders and transcript decoder behave as json.dumps and
json.loads do, errors included."""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trustsim import audit, crypto, harness
from trustsim.harness import Simulation, Transcript, canon_value, seal


def reference(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


ENCODERS = {
    "harness": canon_value,
    "audit": audit._canon,
    "crypto": lambda value: crypto.canonical_bytes(value).decode("utf-8"),
}


def outcome(fn, *args):
    """("ok", result), or the type, message and notes of what fn raised."""
    try:
        return "ok", fn(*args)
    except Exception as err:  # compared, not handled
        return type(err), str(err), getattr(err, "__notes__", None)


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=8), children, max_size=5),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(json_values)
@example({"b": [1, 2.5, True, None], "a": {"é": "中\x00\x1f ", "\ud800": -(2**70)}})
@example("😀 lone \udc00 and \x7f")
def test_every_encoder_is_json_dumps_canonical_form(value):
    expected = reference(value)
    for name, encode in ENCODERS.items():
        assert encode(value) == expected, name


scalar_keys = st.integers() | st.floats() | st.booleans() | st.none()
# dicts keyed by one scalar type each, and by mixed types (which sorted
# keys cannot order: json.dumps raises TypeError, and so must the encoders)
keyed_values = st.recursive(
    json_values,
    lambda children: st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.integers(), children, max_size=4)
    | st.dictionaries(st.floats(), children, max_size=4)
    | st.dictionaries(st.booleans(), children, max_size=2)
    | st.dictionaries(st.none(), children, max_size=1)
    | st.dictionaries(scalar_keys | st.text(max_size=3), children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(keyed_values)
@example({1: "a", 2.5: "b", True: "c", None: "d"})
@example({"k": (1, (2.5, None)), "t": ()})
def test_encoders_match_json_dumps_on_scalar_keys_and_tuples(value):
    expected = outcome(reference, value)
    for name, encode in ENCODERS.items():
        assert outcome(encode, value) == expected, name


NOT_JSON = [object(), b"bytes", {1, 2}, 1j, {"a": [1, {"b": b"x"}]}, [(), {"k": object}]]


@pytest.mark.parametrize("value", NOT_JSON, ids=[type(v).__name__ for v in NOT_JSON])
def test_a_non_json_value_raises_json_dumps_type_error(value):
    expected = outcome(reference, value)
    assert expected[0] is TypeError
    for name, encode in ENCODERS.items():
        assert outcome(encode, value) == expected, name


def test_a_cyclic_value_raises_recursion_error_and_leaves_no_stale_marker():
    # No circular-reference markers: a cycle recurses until Python's limit
    # (json.dumps would raise ValueError "Circular reference detected").
    looped_list, looped_dict = [], {}
    looped_list.append(looped_list)
    looped_dict["self"] = [looped_dict]
    half_done = [object()]
    for name, encode in ENCODERS.items():
        for cyclic in (looped_list, looped_dict):
            with pytest.raises(RecursionError):
                encode(cyclic)
        # an encode that raised inside a container leaves nothing behind
        # that a later encode of the same container would trip over
        half_done[0] = object()
        with pytest.raises(TypeError):
            encode(half_done)
        half_done[0] = 1
        assert encode(half_done) == "[1]", name


# -- the transcript decoder -----------------------------------------------------

record_dicts = st.dictionaries(st.text(max_size=8), json_values, max_size=5)
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


@settings(max_examples=100, deadline=None)
@given(padded_transcripts())
def test_parse_is_per_line_json_loads(text):
    lines = [json.loads(line) for line in text.splitlines() if line.strip()]
    parsed = Transcript.parse(text)
    assert [parsed.header, *parsed.records, parsed.snapshot] == lines


def _mutants(line):
    """Lines that json.loads mostly rejects, each near the valid line."""
    cut = st.integers(1, max(len(line) - 1, 1))
    return (
        cut.map(lambda i: line[:i])
        | st.sampled_from(["x", " 1", "}", ",", " \xa0"]).map(lambda tail: line + tail)
        | st.sampled_from(["\ufeff", "\xa0", "x", "]"]).map(lambda head: head + line)
        | st.tuples(cut, st.sampled_from(list('"{}[],:\\ \x00'))).map(
            lambda t: line[:t[0]] + t[1] + line[t[0]:])
    ).filter(lambda mutant: mutant.splitlines() == [mutant])


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
def test_a_malformed_line_fails_as_json_loads_fails(case):
    text, index, line = case
    expected = outcome(json.loads, line)
    assert outcome(lambda: Transcript.parse(text).records[index]) == expected


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=12))
@example("\ufeff{}")
@example(" 1")
@example("1 ")
@example("[1,")
def test_a_line_decodes_as_json_loads_decodes_it(line):
    assert outcome(harness._decode, line) == outcome(json.loads, line)


def _observed_sim():
    sim = Simulation(seed=3, scenario="unit")
    for pid, role in (("dev", "device"), ("owner", "pos_owner"), ("mno", "mno")):
        sim.add_party(pid, role)
    return sim


def test_receiver_and_carrier_knowledge_is_the_per_field_encoding():
    sim = _observed_sim()
    plain = {
        "good": "café ☕",
        "quote": {"z": [1, 2.5, None], "a": {"nested": True}},
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
    knowledge, _ = audit._replay_observations(parsed)
    assert knowledge["owner"] == receiver_rows
    assert knowledge["mno"] == carrier_rows
    assert all(f.ok for f in audit.audit(parsed))


def test_one_payload_under_two_label_sets_is_read_under_both():
    sim = _observed_sim()
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
    knowledge, _ = audit._replay_observations(sim.finalize())
    assert knowledge["owner"] == expected


def test_audit_imports_no_other_trustsim_module():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    code = ("import sys, trustsim.audit; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'trustsim'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "['trustsim', 'trustsim.audit']"
