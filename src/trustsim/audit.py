"""Independent replay auditor for finalized transcripts.

Re-derives every party's knowledge set and carrier view from the raw
serialized records — on purpose without calling the harness — and checks
the transcript-level invariants: knowledge soundness, channel separation,
one-time AIK acceptance, counter conservation, delivery/grant ordering,
and billing-package field exactness. This is the second route of the
dual-route privacy checks and the engine behind `trustsim verify`.
"""

from __future__ import annotations

import gc
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain

import orjson

DEFAULT_FRESHNESS_WINDOW = 100

BILLING_PACKAGE_FIELDS = {"auth_token", "grand_total", "signature"}

# The harness's label taxonomy, copied: the auditor imports nothing from it.
LABELS = frozenset({"identity", "good", "price", "token", "balance", "policy", "plumbing"})


@dataclass(frozen=True)
class Finding:
    name: str
    ok: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


# Sorted keys; a dataclass, datetime or subclass of str, int, dict or list
# raises TypeError.
_DUMPS_OPTIONS = (orjson.OPT_SORT_KEYS | orjson.OPT_PASSTHROUGH_DATACLASS
                  | orjson.OPT_PASSTHROUGH_DATETIME | orjson.OPT_PASSTHROUGH_SUBCLASS)


def _canon(value) -> str:
    """The auditor's own canonical encoder, deliberately not the harness's:
    orjson's text, which over the JSON value domain is json.dumps(value,
    sort_keys=True, separators=(",", ":"), ensure_ascii=False). A value that
    orjson refuses (an int beyond 64 bits, a key that is not a str, a lone
    surrogate, nesting past 255 levels, a type it does not write) raises
    orjson.JSONEncodeError."""
    return orjson.dumps(value, None, _DUMPS_OPTIONS).decode()


class _Refused(Exception):
    """The knowledge replay met a value that orjson refuses; its one
    argument is the id of the message that holds it."""


def _is_envelope(value) -> bool:
    return isinstance(value, dict) and len(value) == 1 and "_sealed" in value


def _opens(inner) -> bool:
    """Whether a sealed envelope's interior opens for its readers: a dict
    whose readers is a list and whose payload and labels are dicts, with
    every payload field labelled and every label in the taxonomy. Any other
    interior is opaque: no one learns anything from it, and no billing
    package is read in it."""
    return (
        isinstance(inner, dict)
        and isinstance(inner.get("readers"), list)
        and isinstance(inner.get("payload"), dict)
        and isinstance(inner.get("labels"), dict)
        and inner["payload"].keys() <= inner["labels"].keys()
        and all(isinstance(label, str) and label in LABELS
                for label in inner["labels"].values())
    )


def _split(payload, labels):
    """(plain knowledge rows, sealed interiors that open) of one payload
    dict; a field that is not an envelope is written by _canon."""
    plain, sealed = [], []
    for fname, value in payload.items():
        if _is_envelope(value):
            if _opens(value["_sealed"]):
                sealed.append(value["_sealed"])
        else:
            plain.append((fname, labels[fname], _canon(value)))
    return plain, sealed


def _open(party, sealed) -> list:
    """The knowledge rows of the sealed interiors that list party as a
    reader, however deeply they nest."""
    rows = []
    for inner in sealed:
        if party in inner["readers"]:
            plain, nested = _split(inner["payload"], inner["labels"])
            rows += plain
            rows += _open(party, nested)
    return rows


def _walked(inner, receiver, reader) -> bool:
    """Whether an interior that opens has a grand_total key, holds an
    interior that opens, or lists neither the receiver nor the reading
    carrier (reader; None if none) in its readers, a list that may hold
    unhashable items: the replay's rows do not show all that the billing
    check walks in it."""
    payload, readers = inner["payload"], inner["readers"]
    return (
        "grand_total" in payload
        or receiver not in readers and (reader is None or reader not in readers)
        or any(_is_envelope(value) and _opens(value["_sealed"]) for value in payload.values())
    )


def _replay_observations(transcript):
    """Walk the message records and rebuild who could read what, and list
    the messages that can fail the billing check. Where _canon raises
    orjson's refusal, _Refused names the message being replayed.

    The receiver and the carrier share one split of each payload; an
    interior is split where a reader opens it. A message is listed when its
    type is missing or is billing-package, when its payload has a
    grand_total key, when an interior of it must be walked (_walked), or
    when one of its rows holds '"grand_total":', as a row does wherever its
    value holds a dict with that key. A str row cannot: its quotes are
    escaped. Any other message holds no package."""
    channels = transcript.header.get("channels", {})
    knowledge = {pid: set() for pid in transcript.snapshot.get("knowledge", {})}
    carrier_views = {pid: [] for pid in knowledge}
    listed = []

    try:
        for record in _messages(transcript):
            receiver, payload = record["receiver"], record["payload"]
            plain, sealed = _split(payload, record["labels"])
            rows = plain + _open(receiver, sealed) if sealed else plain
            knowledge.setdefault(receiver, set()).update(rows)

            ch = channels.get(record["channel"], {})
            carrier = ch.get("carrier")
            reader = None  # the carrier, where it reads the payload
            if (
                ch.get("kind") == "mobile_network"
                and carrier
                and carrier not in (record["sender"], receiver)
            ):
                carrier_views.setdefault(carrier, []).append(
                    {
                        "tick": record["tick"],
                        "channel": record["channel"],
                        "fields": sorted(payload),
                        "encrypted": record["encrypted"],
                    }
                )
                if not record["encrypted"]:
                    reader = carrier
                    read = _open(carrier, sealed) if sealed else []
                    knowledge.setdefault(carrier, set()).update(plain, read)
                    rows = rows + read

            if (
                record.get("type") in (None, "billing-package")
                or "grand_total" in payload
                or sealed and any(_walked(inner, receiver, reader) for inner in sealed)
                or any('"grand_total":' in text for _, _, text in rows)
            ):
                listed.append(record)
    except orjson.JSONEncodeError:
        raise _Refused(record["id"]) from None

    return knowledge, carrier_views, listed


def check_knowledge_soundness(transcript) -> Finding:
    """Snapshot knowledge == what the raw messages actually exposed. A
    value that the replay encodes and orjson refuses fails it, naming the
    first message that holds one: such a value has no canonical text (see
    _canon), and a written transcript cannot hold it."""
    try:
        knowledge, carrier_views, listed = _replay_observations(transcript)
    except _Refused as refused:
        return Finding("knowledge-soundness", False,
                       f"message {refused.args[0]} holds a value outside the JSON value domain")
    if isinstance(transcript, _AuditView):
        transcript.listed = listed
    snapshot_knowledge = {
        pid: set(map(tuple, rows))
        for pid, rows in transcript.snapshot.get("knowledge", {}).items()
    }
    for pid in chain(knowledge, snapshot_knowledge):  # replay order, then the snapshot's
        derived = knowledge.get(pid, set())
        recorded = snapshot_knowledge.get(pid, set())
        if derived != recorded:
            extra = recorded - derived
            missing = derived - recorded
            return Finding(
                "knowledge-soundness",
                False,
                f"party {pid}: {len(extra)} unexplained, {len(missing)} missing entries",
            )
    snapshot_views = transcript.snapshot.get("carrier_views", {})
    derived_views = {pid: view for pid, view in carrier_views.items() if view}
    if snapshot_views != derived_views:
        detail = _view_difference(snapshot_views, derived_views)
        return Finding("knowledge-soundness", False, detail)
    return Finding("knowledge-soundness", True)


def _view_difference(recorded, derived) -> str:
    """The detail of carrier views that do not replay: the first carrier,
    in replay order and then the snapshot's, whose recorded view differs
    from the replayed one, and the tick of its first entry that differs
    (the replayed entry's, or the recorded one's past the replay's end)."""
    if isinstance(recorded, dict):
        for carrier in chain(derived, recorded):
            replayed, kept = derived.get(carrier, []), recorded.get(carrier, [])
            if replayed == kept or not isinstance(kept, list):
                continue
            index = next((i for i, (ours, theirs) in enumerate(zip(replayed, kept))
                          if ours != theirs), min(len(replayed), len(kept)))
            entry = replayed[index] if index < len(replayed) else kept[index]
            tick = entry.get("tick") if isinstance(entry, dict) else None
            return f"carrier views do not replay: {carrier} from tick {tick}"
    return "carrier views do not replay"


def check_channel_separation(transcript) -> Finding:
    """No short-range message ever shows up in a carrier's metadata view."""
    channels = transcript.header.get("channels", {})
    short_range = {n for n, c in channels.items() if c.get("kind") == "short_range"}
    for pid, view in transcript.snapshot.get("carrier_views", {}).items():
        for entry in view:
            if entry["channel"] in short_range:
                return Finding(
                    "channel-separation",
                    False,
                    f"carrier {pid} observed short-range traffic at tick {entry['tick']}",
                )
    return Finding("channel-separation", True)


def check_one_time_aik(transcript) -> Finding:
    """No verifier accepts the same AIK fingerprint twice."""
    accepted = {}
    for event in transcript.events("attestation-verdict"):
        if not event["accepted"]:
            continue
        key = (event["verifier"], event["aik_fp"])
        accepted[key] = accepted.get(key, 0) + 1
    reused = [k for k, n in accepted.items() if n > 1]
    if reused:
        verifier, fp = reused[0]
        return Finding(
            "one-time-aik", False, f"verifier {verifier} accepted {fp[:12]}... twice"
        )
    return Finding("one-time-aik", True, f"{len(accepted)} accepted attestations")


def check_counter_conservation(transcript) -> Finding:
    """final balance = initial + vouchers credited - granted costs, per device."""
    balances = transcript.snapshot.get("summary", {}).get("balances")
    if balances is None:
        return Finding("counter-conservation", True, "not-applicable")
    initial = {e["device"]: e["value"] for e in transcript.events("balance-init")}
    credits = {}
    for e in transcript.events("top-up"):
        if e["accepted"]:
            credits[e["device"]] = credits.get(e["device"], 0) + e["value"]
    costs = {}
    for e in transcript.events("grant"):
        costs[e["device"]] = costs.get(e["device"], 0) + e["cost"]
    for device, final in balances.items():
        expected = initial.get(device, 0) + credits.get(device, 0) - costs.get(device, 0)
        if final != expected:
            return Finding(
                "counter-conservation",
                False,
                f"{device}: final {final} != {expected}",
            )
        if final < 0:
            return Finding("counter-conservation", False, f"{device}: negative balance")
    return Finding("counter-conservation", True)


def check_no_delivery_without_confirmation(transcript) -> Finding:
    verified = {}
    for event in transcript.events("ack-verified"):
        verified.setdefault(event["order_id"], event["tick"])
    for event in transcript.events("delivery"):
        order = event["order_id"]
        if order not in verified or verified[order] > event["tick"]:
            return Finding(
                "no-delivery-without-confirmation",
                False,
                f"delivery of {order} lacks a prior verified acknowledgement",
            )
    return Finding("no-delivery-without-confirmation", True)


def _field_sets(value):
    """Key sets of the dicts in value that carry a grand total, looking
    through sealed envelopes into the interiors that open."""
    if isinstance(value, dict):
        if _is_envelope(value):
            if _opens(value["_sealed"]):
                yield from _field_sets(value["_sealed"]["payload"])
            return
        if "grand_total" in value:
            yield set(value)
        for nested in value.values():
            yield from _field_sets(nested)
    elif isinstance(value, list):
        for nested in value:
            yield from _field_sets(nested)


def _hop_package_fields(payload):
    """The fields of the package a billing-package message carries: the
    interior of its one sealed envelope, or else the payload itself. None
    when that envelope is opaque: it shows no package."""
    value = next(iter(payload.values())) if len(payload) == 1 else None
    if not _is_envelope(value):
        return set(payload)
    inner = value["_sealed"]
    return set(inner["payload"]) if _opens(inner) else None


def check_billing_package_exactness(transcript) -> Finding:
    """Structural exactness wherever a billing package appears: a message of
    that type (possibly one sealed hop) and any payload dict carrying a
    grand total must hold exactly {auth_token, grand_total, signature}.

    Only the messages the knowledge replay of this audit listed are walked
    (see _replay_observations): no other can fail. Without that list, every
    message is walked."""
    listed = transcript.listed if isinstance(transcript, _AuditView) else None
    for record in _messages(transcript) if listed is None else listed:
        rtype, payload = record["type"], record["payload"]
        if rtype == "billing-package":
            fields = _hop_package_fields(payload)
            if fields is not None and fields != BILLING_PACKAGE_FIELDS:
                return Finding(
                    "billing-package-exactness",
                    False,
                    f"message {record['id']} has fields {sorted(fields)}",
                )
        for fields in _field_sets(payload):
            if fields != BILLING_PACKAGE_FIELDS:
                return Finding(
                    "billing-package-exactness",
                    False,
                    f"message {record['id']} embeds a package with fields {sorted(fields)}",
                )
    return Finding("billing-package-exactness", True)


def _accepted_verdict_ticks(transcript) -> dict:
    """subject -> ticks of its accepted attestation verdicts, ascending."""
    ticks = {}
    for verdict in transcript.events("attestation-verdict"):
        if verdict["accepted"]:
            ticks.setdefault(verdict["subject"], []).append(verdict["tick"])
    for subject_ticks in ticks.values():
        subject_ticks.sort()
    return ticks


def check_no_grant_without_attestation(transcript) -> Finding:
    """Every grant lies within the freshness window after an accepted
    attestation of the same device. Only the latest accepted verdict at or
    before the grant's tick can be in the window, so each grant is one
    bisection into its device's sorted verdict ticks."""
    window = transcript.snapshot.get("summary", {}).get(
        "freshness_window", DEFAULT_FRESHNESS_WINDOW
    )
    grants = transcript.events("grant")
    accepted = _accepted_verdict_ticks(transcript) if grants else {}
    for grant in grants:
        ticks = accepted.get(grant["device"], ())
        latest = bisect_right(ticks, grant["tick"])
        if not latest or grant["tick"] > ticks[latest - 1] + window:
            return Finding(
                "no-grant-without-attestation",
                False,
                f"grant to {grant['device']} at tick {grant['tick']} has no fresh accepted attestation",
            )
    return Finding("no-grant-without-attestation", True)


def check_gate_logging(transcript) -> Finding:
    """Every granted entry comes at or after an accepted attestation of the
    same device."""
    entries = [entry for entry in transcript.events("entry") if entry["granted"]]
    accepted = _accepted_verdict_ticks(transcript) if entries else {}
    for entry in entries:
        ticks = accepted.get(entry["device"])
        if not ticks or ticks[0] > entry["tick"]:
            return Finding(
                "gate-logging",
                False,
                f"entry of {entry['device']} at tick {entry['tick']} lacks an attestation verdict",
            )
    return Finding("gate-logging", True)


INVARIANT_CHECKS = (
    ("knowledge-soundness", check_knowledge_soundness),
    ("channel-separation", check_channel_separation),
    ("one-time-aik", check_one_time_aik),
    ("counter-conservation", check_counter_conservation),
    ("no-delivery-without-confirmation", check_no_delivery_without_confirmation),
    ("billing-package-exactness", check_billing_package_exactness),
    ("no-grant-without-attestation", check_no_grant_without_attestation),
    ("gate-logging", check_gate_logging),
)


class _AuditView:
    """What the checks of one audit() call share: the transcript's header,
    snapshot and records, those records grouped by kind (events also by
    type) in one pass, and the messages the knowledge replay lists for the
    billing check, once that replay has run to its end. It lives
    for that call only and is never stored on the transcript, so in-place
    edits show up on the next audit.

    Grouping reads exactly what Transcript.events reads, each record's
    "kind" and each event's "event", so when it succeeds every check reads
    the same keys of the same records in the same order as on the
    transcript itself."""

    def __init__(self, transcript):
        self.header = transcript.header
        self.snapshot = transcript.snapshot
        self.records = transcript.records
        self.listed = None
        self.messages = []
        self._events = {}
        for record in self.records:
            kind = record["kind"]
            if kind == "message":
                self.messages.append(record)
            elif kind == "event":
                self._events.setdefault(record["event"], []).append(record)

    def events(self, event_type: str) -> list:
        """Event records of that type, in record order. The list is shared:
        checks only read it."""
        return self._events.get(event_type, [])


def _messages(transcript):
    """The message records, in record order."""
    if isinstance(transcript, _AuditView):
        return transcript.messages
    return (record for record in transcript.records if record["kind"] == "message")


def audit(transcript) -> list:
    """Run every transcript invariant; returns the findings in fixed order.

    A record so malformed that a check cannot even run (a payload field
    with no label, a missing event key) fails that check rather than
    raising: hand-edited files must come back as findings.

    The cyclic garbage collector is paused for the call: the audit builds
    many containers but no reference cycles, so the pause defers no
    garbage and saves the collections those allocations would trigger. A
    collector the caller had disabled stays disabled."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            view = _AuditView(transcript)
        except Exception:
            # A record too malformed to group: the checks read the transcript
            # itself and fail exactly as they would without the view.
            view = transcript
        findings = []
        for name, check in INVARIANT_CHECKS:
            try:
                findings.append(check(view))
            except Exception as err:
                findings.append(Finding(name, False, f"malformed transcript: {err!r}"))
        return findings
    finally:
        if collecting:
            gc.enable()
