"""Canonical JSON codecs: one form everywhere, one encoding per message, and
the encoders and transcript decoder behave as json.dumps and json.loads do,
errors included, on both paths of each gate (orjson and the stdlib's)."""

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

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trustsim import audit, crypto, harness
from trustsim.harness import Simulation, Transcript, canon_value, seal


def reference(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def orjson_spelled(value) -> str:
    """One field as the auditor's orjson replay writes it, before its gate.
    A value holding a key that is not a str, which the replay refuses (see
    test_audit.py), is _canon's text here."""
    try:
        return audit._orjson_canon(value)
    except audit._NonStrKey:
        return audit._canon(value)


def gated_orjson(value) -> str:
    """One field as the auditor's orjson replay keeps it: orjson's text
    where it passes the replay's gate, and _canon's where it does not."""
    encoded = orjson_spelled(value)
    return encoded if audit._exact("\n" + encoded) else audit._canon(value)


ENCODERS = {
    "harness": canon_value,
    "audit": audit._canon,
    "audit-orjson": gated_orjson,
    "crypto": lambda value: crypto.canonical_bytes(value).decode("utf-8"),
}


def outcome(fn, *args):
    """("ok", result), or the type, message and notes of what fn raised."""
    try:
        return "ok", fn(*args)
    except Exception as err:  # compared, not handled
        return type(err), str(err), getattr(err, "__notes__", None)


def typed(value):
    """value with the type of each part spelled out, and each scalar as its
    repr: == on two of them is type-exact (2**64 == 2.0**64, but not here),
    order-exact for dict keys, and holds for NaN and tells -0.0 from 0.0."""
    if type(value) is dict:
        return dict, [(typed(k), typed(v)) for k, v in value.items()]
    if type(value) is list:
        return list, [typed(v) for v in value]
    return type(value), repr(value)


def typed_outcome(fn, *args):
    result = outcome(fn, *args)
    return ("ok", typed(result[1])) if result[0] == "ok" else result


def refused_dumps(*args):
    raise TypeError("refused: the stdlib path decides")


def refused_loads(*args):
    raise ValueError("refused: the stdlib path decides")


# The line codec's two paths: orjson behind its gates, and the stdlib's,
# forced by orjson hooks that raise as orjson does where the gates fall back.
CODECS = ["json", "orjson"]


@contextlib.contextmanager
def line_codec(name):
    with pytest.MonkeyPatch.context() as patch:
        if name == "json":
            patch.setattr(harness, "_dumps", refused_dumps)
            patch.setattr(harness, "_loads", refused_loads)
        yield


# The audit replay's two paths: orjson behind its gate, and _canon alone,
# forced by an orjson hook that raises as orjson does where _canon decides.
AUDIT_ENCODERS = ["json", "orjson"]


@contextlib.contextmanager
def audit_encoder(name):
    with pytest.MonkeyPatch.context() as patch:
        if name == "json":
            patch.setattr(audit, "_dumps", refused_dumps)
        yield


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


# Integers at the edges of orjson's 64-bit range (json.loads keeps each an
# int; orjson.loads reads those beyond it as floats), each as a value, in a
# list, after whitespace and as a bare line.
WIDE_INTS = [2**63, -(2**63), 2**63 - 1, -(2**63) - 1, 2**64, 10**19, -(10**19)]
WIDE_INT_LINES = [form.format(n) for n in WIDE_INTS
                  for form in ('{{"v":{}}}', "[1,{}]", '{{"v": \t{}}}', "[ {}]", "{}")]


@settings(max_examples=100, deadline=None)
@given(padded_transcripts())
@example("".join(f"{line}\n" for line in [reference(HEADER), *WIDE_INT_LINES,
                                          reference(SNAPSHOT)]))
@example(f'{reference(HEADER)}\n{{"v":[1,{2**64}]}}\n{{"kind":"snapshot","n":-{10**19}}}\n')
def test_parse_is_per_line_json_loads(text):
    lines = typed([json.loads(line) for line in text.splitlines() if line.strip()])
    for codec in CODECS:
        with line_codec(codec):
            parsed = Transcript.parse(text)
        assert typed([parsed.header, *parsed.records, parsed.snapshot]) == lines, codec


@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("line", WIDE_INT_LINES)
def test_an_integer_beyond_64_bits_decodes_as_an_int(codec, line):
    with line_codec(codec):  # first in a block, and after a line break
        assert typed(harness._decode_lines([line])) == typed([json.loads(line)])
        assert typed(harness._decode_lines(["[]", line])) == typed([[], json.loads(line)])


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
@example("NaN")
@example('"\\ud800"')
@example('"\ud800"')
@example(f"-{2**63 + 1}")
@example(f" {2**64}")
@example(f"{2**64}")
def test_a_line_decodes_as_json_loads_decodes_it(line):
    expected = typed_outcome(lambda: [json.loads(line)])
    for codec in CODECS:
        with line_codec(codec):
            assert typed_outcome(harness._decode_lines, [line]) == expected, codec


# -- the transcript encoder -----------------------------------------------------

Pair = collections.namedtuple("Pair", "a b")


class Text(str):
    pass


class Number(int):
    pass


@dataclasses.dataclass
class Point:
    x: int


class Shown(dict):
    def items(self):  # what json.dumps writes of a dict subclass
        return [("shown", 1)]


# Records longer than one chunk of the line codec (harness._CHUNK bytes):
# each value whose line orjson writes otherwise than json.dumps, or refuses,
# on both sides of the first edge between chunks of whole lines and of the
# first window edge inside one long line; and, in a late chunk after chunks
# that orjson wrote, a value orjson refuses and a TypeError.
FILLER = {"f": "x" * 991}  # a 999-character line
EDGE = harness._CHUNK // 1000  # the first chunk edge is within a line of this index
EDGE_VALUES = {"exponent-float": 1e16, "float": 1.5, "nan": float("nan"),
               "non-ascii": "é", "del": "\x7f", "wide-int": 2**64}
# where a value's text begins, in bytes from its line's first window edge,
# give or take the line break before it
SHIFTS = (-30, -11, -3, -2, -1, 0, 5)


def _at_line(index, value, count=2 * EDGE):
    records = [FILLER] * count
    records[index] = {"f": "x" * 991, "v": value}
    return records


def _in_window(shift, value):
    return [{"a": "y" * (harness._CHUNK - 12 + shift), "v": value}, FILLER]


LONG_CASES = {
    **{f"{name}-line{index - EDGE:+d}": _at_line(index, value)
       for name, value in EDGE_VALUES.items() for index in range(EDGE - 3, EDGE + 3)},
    **{f"{name}-window{shift:+d}": _in_window(shift, value)
       for name, value in EDGE_VALUES.items() for shift in SHIFTS},
    "late-wide-int": _at_line(2 * EDGE + 7, -(2**70), 3 * EDGE),
    "late-int-keys": _at_line(2 * EDGE + 7, {1: "a"}, 3 * EDGE),
    "late-type-error": _at_line(2 * EDGE + 7, b"x", 3 * EDGE),
}

# Transcript records where orjson's bytes differ from json.dumps's, or where
# one raises and the other does not: each must give json.dumps's lines, or
# its TypeError.
LINE_CASES = {
    "exponent-floats": [{"v": [1e16, -2e-7, 1e22, 5e-324]}],
    "floats": [{"v": [1.5, -0.0, 1.5e300, 0.1]}],
    "exponent-float-first": [1e16, {}],
    "exponent-float-later": [{}, -1e16],
    "nan": [{"v": float("nan")}],
    "infinities": [{"v": [float("inf"), -float("inf")]}],
    "none": [{"v": None}],
    "non-ascii": [{"good": "café ☕", "€": 1}],
    "del": [{"v": "a\x7fb"}],
    "controls": [{"v": "\x00\x1f\n\t\\\"/"}],
    "lone-surrogate": [{"v": "\ud800"}],
    "tuples": [{"t": (1, (2, "x")), "e": ()}],
    "namedtuple": [{"v": Pair(1, "b")}],
    "str-subclass": [{"v": Text("x"), Text("k"): 2}],
    "int-subclass": [{"v": [Number(3), True]}],
    "dict-subclass": [{"v": Shown(a=1)}],
    "int-keys": [{"v": {1: "a", 2: "b"}}],
    "mixed-keys": [{"v": {1: "a", 2.5: "c", True: "d", None: "e"}}],
    "wide-ints": [{"v": [2**64, -(2**63) - 1, 2**63, -(2**63)]}],
    "bytes": [{"v": b"x"}],
    "object": [{"v": object()}],
    "dataclass": [{"v": Point(1)}],
    "datetime": [{"v": datetime.datetime(2020, 1, 1)}],
    "set": [{"v": {1}}],
    "unsortable-keys": [{"v": {1: "a", "b": 2}}],
    **LONG_CASES,
}


def _transcript(records):
    return Transcript(header=HEADER, records=[*records, {"kind": "x", "n": 7}],
                      snapshot=SNAPSHOT)


def _reference_text(transcript):
    values = [transcript.header, *transcript.records, transcript.snapshot]
    return "".join(reference(value) + "\n" for value in values)


@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("case", LINE_CASES)
def test_to_text_writes_json_dumps_lines_or_raises_its_error(codec, case):
    transcript = _transcript(LINE_CASES[case])
    expected = outcome(_reference_text, transcript)
    with line_codec(codec):
        assert outcome(transcript.to_text) == expected


class Colour(enum.Enum):
    RED = 1


@pytest.mark.parametrize("value", [Colour.RED, uuid.UUID(int=5)], ids=["enum", "uuid"])
def test_orjson_writes_enum_members_and_uuids_that_json_dumps_refuses(value):
    # The one documented difference of the orjson line codec (see to_text).
    transcript = _transcript([{"v": value}])
    with line_codec("json"):
        with pytest.raises(TypeError):
            transcript.to_text()
    written = json.dumps(value.value if isinstance(value, enum.Enum) else str(value))
    assert transcript.to_text().split("\n")[1] == f'{{"v":{written}}}'


def _late_line(line):
    return [reference(HEADER), *[reference(FILLER)] * (2 * EDGE + 7), line,
            *[reference(FILLER)] * EDGE, reference(SNAPSHOT)]


# Line lists longer than one chunk: the records above, non-ASCII text and DEL
# written raw, and lines that orjson.loads refuses or reads otherwise in a
# late chunk, after chunks that it decoded.
DECODE_CASES = {
    **{name: [json.dumps(value, ensure_ascii=False) for value in [HEADER, *records, SNAPSHOT]]
       for name, records in LONG_CASES.items() if name != "late-type-error"},
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
def test_long_line_lists_decode_as_json_loads_decodes_each_line(codec, case):
    lines = DECODE_CASES[case]
    expected = typed_outcome(lambda: [json.loads(line) for line in lines])
    with line_codec(codec):
        assert typed_outcome(harness._decode_lines, list(lines)) == expected
        assert typed_outcome(_parsed_lines, "\n".join(lines) + "\n") == expected


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
    knowledge, _ = audit._replay_observations(parsed, {}, audit._canon)
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
    knowledge, _ = audit._replay_observations(sim.finalize(), {}, audit._canon)
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
    sim = _observed_sim()
    sim.send("dev", "owner", "mobile", "order", {"price": 3, "env": envelope()})
    for party in ("dev", "owner", "mno"):
        expected = ({("price", "price", "3")} if party != "dev" else set()) | (
            _INNER_ROWS if party in readers else set())
        assert sim.knowledge[party] == expected, party

    transcript = sim.finalize()
    for replayed in (transcript, Transcript.parse(transcript.to_text())):
        knowledge, _ = audit._replay_observations(replayed, {}, audit._canon)
        assert knowledge == sim.knowledge
        assert all(f.ok for f in audit.audit(replayed))


def test_audit_imports_no_other_trustsim_module():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    code = ("import sys, trustsim.audit; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'trustsim'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "['trustsim', 'trustsim.audit']"


# -- the audit replay's encoder -------------------------------------------------

# Payload values whose orjson text differs from json.dumps's, or on which
# orjson raises where json.dumps does not: exponent floats, -0.0, NaN and
# the infinities, None, non-ASCII text, DEL and control characters, integers
# at and beyond 64 bits, keys that are not a str, tuples, and subclasses.
DIVERGENT_SCALARS = [1e16, 1e-7, 5e-324, -0.0, float("nan"), float("inf"), -float("inf"),
                     None, "é", "\u2028", "\x7f", "\x00\x1f\n", 2**63, -(2**63),
                     -(2**63) - 1, 2**64, 10**19]
divergent_values = st.recursive(
    st.sampled_from(DIVERGENT_SCALARS) | st.text(max_size=4) | st.integers() | st.floats(),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), children, max_size=4)
    | st.dictionaries(st.integers(), children, max_size=3)
    | st.dictionaries(st.text(max_size=3).map(Text), children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3).map(Shown)
    | st.text(max_size=4).map(Text),
    max_leaves=12,
)


def _replayed(transcript, encode):
    """transcript with the knowledge rows that a replay on encode derives
    as its snapshot's: rows in orjson's spelling when encode writes them."""
    knowledge, _ = audit._replay_observations(transcript, {}, encode)
    rows = {pid: sorted(map(list, known)) for pid, known in knowledge.items()}
    return Transcript(header=transcript.header, records=transcript.records,
                      snapshot={**transcript.snapshot, "knowledge": rows})


def _audits(transcript) -> dict:
    """encoder -> the outcome of audit(transcript) on it."""
    audits = {}
    for name in AUDIT_ENCODERS:
        with audit_encoder(name):
            audits[name] = outcome(audit.audit, transcript)
    return audits


@settings(max_examples=150, deadline=None)
@given(divergent_values, divergent_values)
@example(1e16, [-1e-7, 5e-324])
@example(float("nan"), {"k": [float("inf"), None]})
@example(["é\u2028"], ("\x7f", "\x00"))
@example({1: 2**64, 2: -(2**63)}, Shown(a=10**19))
@example({Text("k"): Text("v")}, -0.0)
def test_the_audit_finds_the_same_under_both_encoders(value, other):
    sim = _observed_sim()
    sent = sim.send("dev", "owner", "mobile", "order",
                    {"quote": value, "price": other, "env": seal(["owner"], {"proof": value})})
    honest = sim.finalize()
    cases = {"honest": honest, "parsed": Transcript.parse(honest.to_text()),
             "orjson-spelled": _replayed(honest, orjson_spelled)}
    for case, transcript in cases.items():
        audits = _audits(transcript)
        assert audits["json"] == audits["orjson"], case
        if case == "honest" and _non_str_keyed([value, other]):
            assert audits["json"][1][0] == audit.Finding(
                "knowledge-soundness", False,
                f"message {sent['id']} holds a dict with a key that is not a str")
        elif case == "honest":
            assert all(f.ok for f in audits["json"][1])


def _non_str_keyed(value) -> bool:
    """Whether a dict inside value, as json.dumps reads it (its items()),
    has a key that is not a str."""
    if isinstance(value, dict):
        keys, items = zip(*value.items()) if value else ((), ())
        return not all(isinstance(key, str) for key in keys) or _non_str_keyed(items)
    return isinstance(value, (list, tuple)) and any(map(_non_str_keyed, value))


# A snapshot row in orjson's spelling of the payload value, which _canon
# spells otherwise: each must fail knowledge-soundness as on _canon alone.
FORGED_ROWS = {
    "exponent-float": (1e16, "1e16"),
    "raw-non-ascii": (["é"], '["é"]'),
    "raw-del": (["\x7f"], '["\x7f"]'),
    "nan-as-null": (float("nan"), "null"),
}


@pytest.mark.parametrize("encoder", AUDIT_ENCODERS)
@pytest.mark.parametrize("case", FORGED_ROWS)
def test_a_row_in_orjson_spelling_fails_knowledge_soundness(encoder, case):
    value, spelled = FORGED_ROWS[case]
    sim = _observed_sim()
    sim.send("dev", "owner", "net", "order", {"quote": value})
    transcript = sim.finalize()
    [row] = transcript.snapshot["knowledge"]["owner"]
    assert row[2] == reference(value) != spelled
    row[2] = spelled
    expected = audit.Finding("knowledge-soundness", False,
                             "party owner: 1 unexplained, 1 missing entries")
    for forged in (transcript, Transcript.parse(transcript.to_text())):
        with audit_encoder(encoder):
            assert audit.audit(forged)[0] == expected


@pytest.mark.parametrize("value,written",
                         [(Colour.RED, 1), (uuid.UUID(int=5), str(uuid.UUID(int=5)))],
                         ids=["enum", "uuid"])
def test_the_orjson_replay_reads_enum_members_and_uuids_that_canon_refuses(value, written):
    # The one documented difference of the orjson replay (see _orjson_canon):
    # the record holds the value, its snapshot row what orjson writes of it.
    sim = _observed_sim()
    sim.send("dev", "owner", "net", "order", {"quote": written})
    transcript = sim.finalize()
    [message] = transcript.messages()
    message["payload"]["quote"] = value
    with audit_encoder("json"):
        finding = audit.audit(transcript)[0]
    assert not finding.ok and finding.detail.startswith("malformed transcript: TypeError(")
    assert audit.audit(transcript)[0] == audit.Finding("knowledge-soundness", True)
