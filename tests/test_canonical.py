"""Canonical JSON encoders: one form everywhere, one encoding per message."""

import json
import os
import subprocess
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from trustsim import audit, crypto
from trustsim.harness import MOBILE_NETWORK, Simulation, Transcript, canon_value, seal


def reference(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


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
    assert canon_value(value) == expected
    assert audit._canon(value) == expected
    assert crypto.canonical_bytes(value) == expected.encode("utf-8")


def _observed_sim():
    sim = Simulation(seed=3, scenario="unit")
    for pid, role in (("dev", "device"), ("owner", "pos_owner"), ("mno", "mno")):
        sim.add_party(pid, role)
    sim.add_channel("mobile", MOBILE_NETWORK, carrier="mno")
    return sim


def test_receiver_and_carrier_knowledge_is_the_per_field_encoding():
    sim = _observed_sim()
    plain = {
        "item": "café ☕",
        "quote": {"z": [1, 2.5, None], "a": {"nested": True}},
        "price": 120,
    }
    plain_labels = {"item": "good", "quote": "plumbing", "price": "price"}
    inner = {"item": "cola", "token": "t-1\x00"}
    inner_labels = {"item": "token", "token": "token"}
    payload = {**plain, "secret": seal(["owner"], inner, inner_labels)}
    labels = {**plain_labels, "secret": "plumbing"}
    sim.send("dev", "owner", "mobile", "order", payload, labels)

    carrier_rows = {(f, plain_labels[f], reference(v)) for f, v in plain.items()}
    receiver_rows = carrier_rows | {(f, inner_labels[f], reference(v)) for f, v in inner.items()}
    assert sim.parties["owner"].knowledge == receiver_rows
    assert sim.parties["mno"].knowledge == carrier_rows  # the seal stays shut

    parsed = Transcript.parse(sim.finalize().to_text())
    knowledge, _ = audit._replay_observations(parsed)
    assert knowledge["owner"] == receiver_rows
    assert knowledge["mno"] == carrier_rows
    assert all(f.ok for f in audit.audit(parsed))


def test_one_payload_under_two_label_sets_is_read_under_both():
    sim = _observed_sim()
    shared = {"x": "v"}
    payload = {
        "a": {"_sealed": {"readers": ["owner"], "payload": shared, "labels": {"x": "good"}}},
        "b": {"_sealed": {"readers": ["owner"], "payload": shared, "labels": {"x": "price"}}},
    }
    sim.send("dev", "owner", "mobile", "pair", payload, {"a": "plumbing", "b": "plumbing"})
    expected = {("x", "good", '"v"'), ("x", "price", '"v"')}
    assert sim.parties["owner"].knowledge == expected
    assert sim.parties["mno"].knowledge == set()
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
