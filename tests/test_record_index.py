"""Record queries of Simulation and Transcript (one shared implementation)
against a plain filter over records."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustsim.harness import DROP, Simulation, Transcript

# Shared between messages and events on purpose, "message-dropped" included,
# so a type name alone never tells the two kinds apart.
TYPES = ("alpha", "beta", "grant", "message-dropped")
QUERIED = TYPES + ("unknown",)

OPERATIONS = st.lists(
    st.tuples(st.sampled_from(("send", "event", "drop")), st.sampled_from(TYPES)),
    max_size=60,
)


def naive(view, kind, rtype):
    key = "event" if kind == "event" else "type"
    return [
        r for r in view.records if r["kind"] == kind and (rtype is None or r[key] == rtype)
    ]


def replay(operations):
    sim = Simulation(seed=7, scenario="index")
    sim.add_party("dev", "device")
    sim.add_party("mno", "mno")
    for action, rtype in operations:
        if action == "send":
            sim.send("dev", "mno", "mobile", rtype, {"units": len(sim.records)})
        elif action == "event":
            sim.event(rtype, n=len(sim.records))
        else:  # from now on, every message of this type is dropped
            sim.add_hook(lambda record, rtype=rtype: DROP if record["type"] == rtype else None)
    return sim


def same_records(got, expected):
    return len(got) == len(expected) and all(a is b for a, b in zip(got, expected))


@given(OPERATIONS)
@settings(max_examples=300, deadline=None)
def test_queries_equal_the_filter_over_records(operations):
    sim = replay(operations)
    parsed = Transcript.parse(sim.finalize().to_text())
    for view in (sim, parsed):
        for rtype in QUERIED + (None,):
            assert same_records(view.events(rtype), naive(view, "event", rtype))
            assert same_records(view.messages(rtype), naive(view, "message", rtype))
    for party in sim.roles:
        for label in ("plumbing", "identity", None):
            assert sim.knowledge_query(party, label) == parsed.knowledge_query(party, label)


@given(OPERATIONS)
@settings(max_examples=100, deadline=None)
def test_returned_lists_are_copies(operations):
    sim = replay(operations)
    for rtype in QUERIED:
        events, messages = naive(sim, "event", rtype), naive(sim, "message", rtype)
        sim.events(rtype).clear()
        sim.messages(rtype).append({"kind": "message", "type": rtype})
        assert same_records(sim.events(rtype), events)
        assert same_records(sim.messages(rtype), messages)


def test_unknown_party_is_an_error_in_both_views():
    sim = replay([("send", "alpha")])
    for view in (sim, sim.finalize()):
        with pytest.raises(ValueError, match="unknown party: nobody"):
            view.knowledge_query("nobody")
