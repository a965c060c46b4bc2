"""A sealed envelope rewritten on the wire is opaque, never an exception.

For every clean catalog scenario at seed 1 and every message type that
carries an envelope (`env`), the first such message is broken five ways:
its interior payload replaced by a list, its `_sealed` value by a string,
one unlabelled field added to its interior, and one interior label set to
a string outside the taxonomy or to a list. No run may raise, every
transcript must re-audit clean from its text, and a receiver that reads
the hop must end in an abort. (A rewritten top-level label is no wire
content but the harness's record of a message: see test_harness.)
"""

import copy
import functools

import pytest

from trustsim import audit, harness, scenarios
from trustsim.harness import Transcript

from audit_reference import TAXONOMY
from test_discarded_sends import FIRE_AND_FORGET, NOT_YET_DELIVERED
from test_flows import _run_with_hook


def _payload_list(payload):
    payload["env"]["_sealed"]["payload"] = ["zz"]


def _sealed_string(payload):
    payload["env"]["_sealed"] = "zz"


def _unlabelled_field(payload):
    payload["env"]["_sealed"]["payload"]["zz"] = "zz"


def _label(value):
    def change(payload):
        labels = payload["env"]["_sealed"]["labels"]
        labels[next(iter(labels))] = value
    return change


BREAKS = {"payload-list": _payload_list, "sealed-string": _sealed_string,
          "unlabelled-field": _unlabelled_field, "label-bogus": _label("bogus"),
          "label-list": _label(["plumbing"])}

# Hops whose receiver goes on without reading what arrived.
UNREAD = {msg_type for _, _, msg_type in FIRE_AND_FORGET + NOT_YET_DELIVERED}


@functools.lru_cache(maxsize=None)
def _envelope_types(scenario: str) -> tuple:
    transcript, _ = scenarios.run_scenario(scenario, 1)
    return tuple(dict.fromkeys(
        m["type"] for m in transcript.messages() if "env" in m["payload"]))


def _run_breaking_first(monkeypatch, scenario, msg_type, change):
    broken = []

    def hook(record):
        if record["type"] != msg_type or broken or "env" not in record["payload"]:
            return None
        broken.append(record["id"])
        payload = copy.deepcopy(record["payload"])
        change(payload)
        return {**record, "payload": payload}

    transcript, _, _ = _run_with_hook(monkeypatch, scenario, hook)
    assert broken, f"no {msg_type} with an envelope"
    return transcript


def test_auditor_copies_of_the_taxonomy_match_the_harness():
    assert audit.LABELS == harness.LABELS == TAXONOMY


def test_some_scenarios_carry_envelopes():
    assert sum(len(_envelope_types(name)) for name in scenarios.CATALOG) >= 50


@pytest.mark.parametrize("scenario", sorted(scenarios.CATALOG))
@pytest.mark.parametrize("break_name", sorted(BREAKS))
def test_broken_envelope_is_opaque(monkeypatch, scenario, break_name):
    for msg_type in _envelope_types(scenario):
        transcript = _run_breaking_first(monkeypatch, scenario, msg_type, BREAKS[break_name])
        findings = audit.audit(Transcript.parse(transcript.to_text()))
        assert all(f.ok for f in findings), (msg_type, [f for f in findings if not f.ok])
        if msg_type not in UNREAD:
            assert transcript.events("abort"), msg_type
