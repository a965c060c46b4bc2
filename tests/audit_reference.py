"""The audit checks as they stood before the verify path was sped up, kept
as references: audit() must return the same Findings, detail text
included. They scan the transcript's records directly, with one encoding
memo per message and a full walk of every payload for billing packages.
A sealed envelope whose interior does not open (see _opened) is opaque to
both: no knowledge comes from it and no package is read in it.
"""

import json
import re
from bisect import bisect_right

from trustsim.audit import BILLING_PACKAGE_FIELDS, DEFAULT_FRESHNESS_WINDOW, Finding

# The canonical form (sorted keys, "," and ":" separators, non-ASCII text
# written raw), built once. It is deliberately not the harness's encoder or
# the auditor's.
_canon = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode

# What a written transcript can hold: ints of 64 bits, text in UTF-8 (no
# surrogate code point) and containers nested at most 255 levels deep.
_INTS = range(-(2**63), 2**64)
_SURROGATE = re.compile("[\ud800-\udfff]")
_LEVELS = 255

# The label taxonomy, written out again rather than imported.
TAXONOMY = {"identity", "good", "price", "token", "balance", "policy", "plumbing"}


def _opened(envelope):
    """The interior of a sealed envelope, or None when it does not open: it
    opens when it is a dict with a list of readers, and a payload and labels
    that are dicts, each payload field with a label and each label a string
    of the taxonomy."""
    inner = envelope["_sealed"]
    if not isinstance(inner, dict):
        return None
    readers, payload, labels = (inner.get(key) for key in ("readers", "payload", "labels"))
    if (isinstance(readers, list) and isinstance(payload, dict) and isinstance(labels, dict)
            and all(fname in labels for fname in payload)
            and all(isinstance(label, str) and label in TAXONOMY for label in labels.values())):
        return inner
    return None


class _Unwritable(Exception):
    """A field the replay encodes holds a value that has no canonical text;
    once raised from a record, its one argument is the record's id."""


def _writable(value) -> bool:
    """Whether a written transcript can hold value: only JSON's own types
    (exactly: no subclass but bool), dicts keyed by text, ints in _INTS,
    text with no surrogate and containers at most _LEVELS deep. Floats are
    written as the encoders write them. Read with a stack of its own, so
    that no depth exhausts Python's."""
    pending = [(value, 1)]
    while pending:
        item, level = pending.pop()
        kind = type(item)
        if kind is str:
            if _SURROGATE.search(item):
                return False
        elif kind is int:
            if item not in _INTS:
                return False
        elif kind in (dict, list, tuple):
            if level > _LEVELS:
                return False
            if kind is dict:
                if not all(type(key) is str for key in item):
                    return False
                pending += [(key, level) for key in item]
                item = item.values()
            pending += [(child, level + 1) for child in item]
        elif kind not in (bool, float, type(None)):
            return False
    return True


def _replay_observations(transcript):
    """Walk the message records and rebuild who could read what."""
    channels = transcript.header.get("channels", {})
    knowledge = {pid: set() for pid in transcript.snapshot.get("knowledge", {})}
    carrier_views = {pid: [] for pid in knowledge}

    def absorb(party, payload, labels, memo):
        # memo: this record's (id(payload), id(labels)) -> (plain rows,
        # sealed interiors), so the receiver and the carrier share one
        # encoding of each field; an interior is encoded only once opened.
        key = id(payload), id(labels)
        split = memo.get(key)
        if split is None:
            plain, sealed = [], []
            for fname, value in payload.items():
                if isinstance(value, dict) and len(value) == 1 and "_sealed" in value:
                    inner = _opened(value)
                    if inner is not None:
                        sealed.append(inner)
                else:
                    label = labels[fname]
                    if not _writable(value):
                        raise _Unwritable
                    plain.append((fname, label, _canon(value)))
            split = memo[key] = (plain, sealed)
        plain, sealed = split
        knowledge.setdefault(party, set()).update(plain)
        for inner in sealed:
            if party in inner["readers"]:
                absorb(party, inner["payload"], inner["labels"], memo)

    for record in transcript.records:
        if record["kind"] != "message":
            continue
        memo = {}
        try:
            absorb(record["receiver"], record["payload"], record["labels"], memo)
            ch = channels.get(record["channel"], {})
            carrier = ch.get("carrier")
            if (
                ch.get("kind") == "mobile_network"
                and carrier
                and carrier not in (record["sender"], record["receiver"])
            ):
                carrier_views.setdefault(carrier, []).append(
                    {
                        "tick": record["tick"],
                        "channel": record["channel"],
                        "fields": sorted(record["payload"]),
                        "encrypted": record["encrypted"],
                    }
                )
                if not record["encrypted"]:
                    absorb(carrier, record["payload"], record["labels"], memo)
        except _Unwritable:
            raise _Unwritable(record["id"]) from None

    return knowledge, carrier_views


def check_knowledge_soundness(transcript) -> Finding:
    """Snapshot knowledge == what the raw messages actually exposed; a field
    holding a value that a written transcript cannot hold fails it, naming
    the first message whose replay meets one."""
    try:
        knowledge, carrier_views = _replay_observations(transcript)
    except _Unwritable as unwritable:
        detail = f"message {unwritable.args[0]} holds a value outside the JSON value domain"
        return Finding("knowledge-soundness", False, detail)
    snapshot_knowledge = {
        pid: {tuple(row) for row in rows}
        for pid, rows in transcript.snapshot.get("knowledge", {}).items()
    }
    parties = list(knowledge) + [pid for pid in snapshot_knowledge if pid not in knowledge]
    for pid in parties:
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
        return Finding("knowledge-soundness", False,
                       _carrier_view_detail(snapshot_views, derived_views))
    return Finding("knowledge-soundness", True)


_ABSENT = object()


def _carrier_view_detail(recorded, derived):
    """Names the first carrier whose recorded view is not the replayed one,
    replayed carriers first, and the tick of the first entry that differs:
    the replayed entry at that place if there is one, else the recorded."""
    if not isinstance(recorded, dict):
        return "carrier views do not replay"
    carriers = list(derived) + [pid for pid in recorded if pid not in derived]
    for pid in carriers:
        replayed = derived.get(pid, [])
        kept = recorded.get(pid, [])
        if not isinstance(kept, list) or kept == replayed:
            continue
        for i in range(max(len(replayed), len(kept))):
            ours = replayed[i] if i < len(replayed) else _ABSENT
            theirs = kept[i] if i < len(kept) else _ABSENT
            if ours == theirs:
                continue
            entry = theirs if ours is _ABSENT else ours
            tick = entry["tick"] if isinstance(entry, dict) and "tick" in entry else None
            return f"carrier views do not replay: {pid} from tick {tick}"
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


def check_billing_package_exactness(transcript) -> Finding:
    """Structural exactness wherever a billing package appears: a message of
    that type (possibly one sealed hop) and any payload dict carrying a
    grand total must hold exactly {auth_token, grand_total, signature}."""

    def field_sets(value):
        if isinstance(value, dict):
            if set(value) == {"_sealed"}:
                inner = _opened(value)
                if inner is not None:
                    yield from field_sets(inner["payload"])
                return
            if "grand_total" in value:
                yield set(value)
            for nested in value.values():
                yield from field_sets(nested)
        elif isinstance(value, list):
            for nested in value:
                yield from field_sets(nested)

    for record in transcript.records:
        if record["kind"] != "message":
            continue
        if record["type"] == "billing-package":
            payload = record["payload"]
            values = list(payload.values())
            if len(values) == 1 and isinstance(values[0], dict) and set(values[0]) == {"_sealed"}:
                inner = _opened(values[0])
                fields = None if inner is None else set(inner["payload"])
            else:
                fields = set(payload)
            if fields is not None and fields != BILLING_PACKAGE_FIELDS:
                return Finding(
                    "billing-package-exactness",
                    False,
                    f"message {record['id']} has fields {sorted(fields)}",
                )
        for fields in field_sets(record["payload"]):
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


REFERENCE_CHECKS = (
    ("knowledge-soundness", check_knowledge_soundness),
    ("channel-separation", check_channel_separation),
    ("one-time-aik", check_one_time_aik),
    ("counter-conservation", check_counter_conservation),
    ("no-delivery-without-confirmation", check_no_delivery_without_confirmation),
    ("billing-package-exactness", check_billing_package_exactness),
    ("no-grant-without-attestation", check_no_grant_without_attestation),
    ("gate-logging", check_gate_logging),
)


def reference_audit(transcript) -> list:
    findings = []
    for name, check in REFERENCE_CHECKS:
        try:
            findings.append(check(transcript))
        except Exception as err:
            findings.append(Finding(name, False, f"malformed transcript: {err!r}"))
    return findings
