"""Ratchet on faults that no one notices: the drop and garble matrix.

For every clean catalog scenario at seed 1 and every message type it sends,
the first message of that type is dropped in one run (column "drop") and has
every payload field set to "zz" in another (column "garble"). No run may
raise, and every transcript must re-audit clean from its text, except for
the listed findings a garbled hop must raise.

A hop whose receiver reads it must end its run in an abort. The hops that
`test_discarded_sends` lists as unread are exempt; a run where such a fault
is followed by a granted service and by no abort is *silent*, and each
silent (column, scenario, type) is listed below. A silent run that is not
listed fails this test, and so does a listed one that is no longer silent,
so the list only shrinks.
"""

import functools

import pytest

from trustsim import audit, scenarios
from trustsim.harness import DROP, Transcript

from test_broken_envelopes import UNREAD as ENVELOPE_UNREAD
from test_flows import SERVICE_EVENTS, _run_with_hook

COLUMNS = ("drop", "garble")

# Hops whose receiver goes on without reading what arrived; send_external's
# {msg_type} is the one power-request of facility-midnight.
UNREAD = ENVELOPE_UNREAD | {"power-request"}

# (scenario, type) of a garbled hop -> the audit findings it must fail: the
# audit checks a billing package's wire fields, and the garble replaced its
# envelope.
GARBLE_FINDINGS = {
    ("pos-decentralised", "billing-package"): {"billing-package-exactness"},
    ("pos-decentralised", "billing-package-relay"): {"billing-package-exactness"},
}

# (scenario, type) whose fault is followed by service and no abort, the
# same in both columns today.
_SILENT_PAIRS = [
    ("facility-entry", "access-check"),
    ("facility-entry", "access-verdict"),
    ("facility-entry", "network-session"),
    ("facility-entry", "subdomain-request"),
    ("facility-entry", "subdomain-verdict"),
    ("facility-midnight", "access-check"),
    ("facility-midnight", "access-verdict"),
    ("facility-midnight", "network-session"),
    ("facility-midnight", "subdomain-request"),
    ("facility-midnight", "subdomain-verdict"),
    ("pos-decentralised", "network-session"),
    ("pos-fig4", "network-session"),
    ("pos-fig4", "payment-notify"),
    ("pos-fig4", "vendor-notify"),
    ("pos-mno-merged", "network-session"),
    ("pos-sep-duties", "network-session"),
    ("prepaid-happy", "balance-statement"),
    ("prepaid-happy", "service-accept"),
    ("prepaid-happy", "service-consumed"),
    ("prepaid-happy", "service-granted"),
    ("prepaid-happy", "service-request"),
    ("prepaid-happy", "voucher"),
    ("prepaid-happy", "vsim-logon"),
    ("prepaid-happy", "vsim-session"),
    ("prepaid-zero", "balance-statement"),
    ("prepaid-zero", "service-accept"),
    ("prepaid-zero", "service-consumed"),
    ("prepaid-zero", "service-denied"),
    ("prepaid-zero", "service-request"),
    ("prepaid-zero", "statement-refused"),
    ("prepaid-zero", "voucher"),
    ("prepaid-zero", "vsim-logon"),
    ("prepaid-zero", "vsim-session"),
]
SILENT = {(column, scenario, msg_type)
          for column in COLUMNS for scenario, msg_type in _SILENT_PAIRS}


def _fault(column: str, msg_type: str, hit: list):
    """Hook: drop or garble the first message of msg_type, noting its id."""
    def hook(record):
        if record["type"] != msg_type or hit:
            return None
        hit.append(record["id"])
        if column == "drop":
            return DROP
        return {**record, "payload": dict.fromkeys(record["payload"], "zz")}
    return hook


@functools.lru_cache(maxsize=None)
def _matrix() -> dict:
    """(column, scenario, type) -> (transcript, the event records from the
    fault on) of every run of the matrix."""
    runs = {}
    for scenario in sorted(scenarios.CATALOG):
        clean, _ = scenarios.run_scenario(scenario, 1)
        for msg_type in dict.fromkeys(m["type"] for m in clean.messages()):
            for column in COLUMNS:
                hit = []
                with pytest.MonkeyPatch.context() as monkeypatch:
                    transcript, _, _ = _run_with_hook(
                        monkeypatch, scenario, _fault(column, msg_type, hit))
                records = transcript.records
                # the garbled message, or the message-dropped event, names the id
                start = next(i for i, r in enumerate(records) if r.get("id") == hit[0])
                after = [r for r in records[start:] if r["kind"] == "event"]
                runs[column, scenario, msg_type] = transcript, after
    return runs


def _served(events) -> bool:
    return any(e["event"] in SERVICE_EVENTS or (e["event"] == "entry" and e["granted"])
               for e in events)


def _aborted(events) -> bool:
    return any(e["event"] == "abort" for e in events)


def test_the_matrix_covers_every_type_of_every_scenario():
    assert len(_matrix()) == 308


@pytest.mark.parametrize("column", COLUMNS)
def test_every_faulted_transcript_reaudits_clean(column):
    for (col, scenario, msg_type), (transcript, _) in _matrix().items():
        if col != column:
            continue
        failed = {f.name for f in audit.audit(Transcript.parse(transcript.to_text()))
                  if not f.ok}
        expected = GARBLE_FINDINGS.get((scenario, msg_type), set()) if column == "garble" \
            else set()
        assert failed == expected, (scenario, msg_type)


@pytest.mark.parametrize("column", COLUMNS)
def test_a_fault_on_a_read_hop_ends_in_an_abort(column):
    quiet = [(scenario, msg_type) for (col, scenario, msg_type), (_, after) in _matrix().items()
             if col == column and msg_type not in UNREAD and not _aborted(after)]
    assert not quiet, f"read hops whose fault no one noticed: {quiet}"


@pytest.mark.parametrize("column", COLUMNS)
def test_silent_runs_are_listed_and_listed_ones_are_silent(column):
    silent = {key for key, (_, after) in _matrix().items()
              if key[0] == column and _served(after) and not _aborted(after)}
    listed = {key for key in SILENT if key[0] == column}
    assert not silent - listed, f"new silent runs: {sorted(silent - listed)}"
    assert not listed - silent, f"listed but no longer silent: {sorted(listed - silent)}"
