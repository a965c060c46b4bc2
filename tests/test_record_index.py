"""Simulation's per-type record index against a plain filter over records."""

from hypothesis import given, settings
from hypothesis import strategies as st

from trustsim.harness import DROP, MOBILE_NETWORK, Simulation

# Shared between messages and events on purpose, "message-dropped" included,
# so a type name alone never tells the two kinds apart.
TYPES = ("alpha", "beta", "grant", "message-dropped")
QUERIED = TYPES + ("unknown",)

OPERATIONS = st.lists(
    st.tuples(st.sampled_from(("send", "event", "drop")), st.sampled_from(TYPES)),
    max_size=60,
)


def naive(sim, kind, rtype):
    key = "event" if kind == "event" else "type"
    return [
        r for r in sim.records if r["kind"] == kind and (rtype is None or r[key] == rtype)
    ]


def replay(operations):
    sim = Simulation(seed=7, scenario="index")
    sim.add_party("dev", "device")
    sim.add_party("mno", "mno")
    sim.add_channel("mobile", MOBILE_NETWORK, carrier="mno")
    for action, rtype in operations:
        if action == "send":
            sim.send("dev", "mno", "mobile", rtype, {"n": len(sim.records)}, {"n": "plumbing"})
        elif action == "event":
            sim.event(rtype, n=len(sim.records))
        else:  # from now on, every message of this type is dropped
            sim.add_hook(lambda m, rtype=rtype: DROP if m.msg_type == rtype else None)
    return sim


def same_records(got, expected):
    return len(got) == len(expected) and all(a is b for a, b in zip(got, expected))


@given(OPERATIONS)
@settings(max_examples=300, deadline=None)
def test_queries_equal_the_filter_over_records(operations):
    sim = replay(operations)
    for rtype in QUERIED + (None,):
        assert same_records(sim.events(rtype), naive(sim, "event", rtype))
        assert same_records(sim.messages(rtype), naive(sim, "message", rtype))
    for rtype in QUERIED:
        expected = naive(sim, "message", rtype)
        for n in (1, 2, 3):
            assert same_records(sim.latest_messages(rtype, n), expected[-n:])
        assert sim.latest_messages(rtype, 0) == []


@given(OPERATIONS)
@settings(max_examples=100, deadline=None)
def test_returned_lists_are_copies(operations):
    sim = replay(operations)
    for rtype in QUERIED:
        events, messages = naive(sim, "event", rtype), naive(sim, "message", rtype)
        sim.events(rtype).clear()
        sim.messages(rtype).append({"kind": "message", "type": rtype})
        sim.latest_messages(rtype, 2).clear()
        assert same_records(sim.events(rtype), events)
        assert same_records(sim.messages(rtype), messages)
        assert same_records(sim.latest_messages(rtype, 2), messages[-2:])
