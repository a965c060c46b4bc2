"""The report's judges: each scenario's rows, from its finalized transcript.

A judge reads only the transcript and the merged config, so `trustsim
verify` re-derives every row. As the protocol code's oracle, this module
imports only the auditor and the standard library, and restates what it
expects: the attacks' reasons, the zone feature rule, the opened envelope,
a good's text; party ids come from the snapshot's roles. Do not fold a
restatement back: a bug in shared code passes a report that shares it.
"""

from __future__ import annotations

import json

from . import audit

# The reason each generic attestation attack must trigger.
EXPECTED_ATTACK_REASONS = {
    "forge-log": "log-pcr-mismatch",
    "tamper": "reference-mismatch",
    "replay-aik": "aik-reused",
    "wrong-nonce": "stale-nonce",
    "expired-cert": "cert-expired",
}

# The device features outside every zone, and where a device is after exit.
_BASE_FEATURES = {"camera": "enabled", "mms": "enabled", "calls": "enabled"}
_OUTSIDE = "outside"

# The midnight meeting's request to the facility provider: keep the room
# powered; the enforcer lets only the allowed fields leave.
MIDNIGHT_REQUEST = {"room": "conf-3", "action": "maintain-power", "until": "06:00",
                    "attendees": ["imsi-9001", "imsi-9004"], "agenda": "quarterly-figures"}

# What reading a hand-edited or hook-garbled record can raise: a missing key
# or record, a value of the wrong type or shape, or one nested too deep.
_MALFORMED = (KeyError, IndexError, TypeError, ValueError, AttributeError, RecursionError)


def scenario_rows(transcript, script) -> list:
    """The rejection rows of the generic attestation attacks the header
    names, or else the script's judge's rows; one failing row when a record
    the judge needs is malformed. Any other error in a judge propagates."""
    header = transcript.header
    try:
        attacks = set(header["attacks"])
        generic = attacks & EXPECTED_ATTACK_REASONS.keys()
        return (_attack_rows(transcript, generic, script.subject) if generic else
                script.judge(transcript, {**script.defaults, **header["variants"]}, attacks))
    except _MALFORMED as err:
        return [_row("scenario-assertions", False, f"malformed transcript: {err!r}")]


def _row(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def _first(records: list, what: str) -> dict:
    """The first of records, or ValueError: there is no what."""
    if not records:
        raise ValueError(f"no {what}")
    return records[0]


def _parties(transcript) -> dict:
    """Role -> party id, from the snapshot's roles (for a role one party has)."""
    return {role: party for party, role in transcript.snapshot["roles"].items()}


def _attack_rows(transcript, names, subject: str) -> list:
    """Expected-rejection assertions for the generic attestation attacks:
    each is rejected for its reason, and no service follows."""
    rows = []
    for name in sorted(names):
        expected = EXPECTED_ATTACK_REASONS[name]
        hits = [e for e in transcript.events("attestation-verdict")
                if e["subject"] == subject and not e["accepted"] and expected in e["reasons"]]
        rows.append(_row(f"attack-{name}-rejected", hits,
                         f"expected reason {expected!r}" + ("" if hits else " not observed")))
        if not hits:
            continue
        successes = [
            e for e in transcript.events()
            if e["tick"] >= hits[0]["tick"] and (
                (e["event"] == "grant" and e.get("device") == subject)
                or (e["event"] == "admission" and e.get("device") == subject and e["admitted"])
                or (e["event"] == "entry" and e.get("device") == subject and e["granted"])
                or (e["event"] == "secure-session" and e.get("device") == subject)
                or e["event"] == "delivery")
        ]
        rows.append(_row(f"attack-{name}-no-service", not successes,
                         f"{len(successes)} service events after rejection" if successes else ""))
    return rows


def _opened(payload: dict) -> dict:
    """A payload's sealed interior, or ValueError: it is opaque (see audit._opens)."""
    env = payload["env"]
    if not (audit._is_envelope(env) and audit._opens(env["_sealed"])):
        raise ValueError("no envelope that opens")
    return env["_sealed"]["payload"]


def one_time_aik(transcript, config, attacks):
    # logins stop at the first rejection or abort, so each accepted verdict is one
    verdicts = transcript.events("attestation-verdict")
    accepted = sum(1 for v in verdicts if v["accepted"])
    aborted = accepted < len(verdicts) or bool(transcript.events("abort"))
    expected_replenishments = config["auth_count"] // (config["batch_size"] - 1)
    replenishments = len(transcript.events("replenishment"))
    common = set.intersection(*(transcript.knowledge_query(svc, "token")
                                | transcript.knowledge_query(svc, "identity")
                                for svc in ("svc-a", "svc-b")))
    # the EK public reaches the record only inside the device's enrollment request
    eks = {_opened(m["payload"])["ek_certificate"]["ek_public"]
           for m in transcript.messages("enroll-request")}
    ek_known = any(ek in value for svc in ("svc-a", "svc-b")
                   for value in transcript.knowledge_query(svc) for ek in eks)
    return [
        _row("all-authentications-accepted",
             not aborted and accepted == config["auth_count"],
             f"{accepted}/{config['auth_count']}"),
        _row("replenishment-count",
             replenishments == expected_replenishments,
             f"{replenishments} (expected {expected_replenishments})"),
        _row("service-unlinkability", not common,
             "" if not common else f"{len(common)} shared credential values"),
        _row("no-ek-at-services", not ek_known),
    ]


def clone(transcript, config, attacks, bound):
    admissions = dict.fromkeys(("clone", "legit"), (False, "no-network-session"))
    for e in transcript.events("admission"):
        admissions[e["device"]] = e["admitted"], e["reason"]
    (clone_in, clone_why), (legit_in, legit_why) = admissions["clone"], admissions["legit"]
    if not bound:
        rows = [_row("first-requester-admitted", clone_in),
                _row("second-clone-denied", not legit_in and legit_why == "clone-conflict",
                     legit_why)]
    else:
        clones_admitted = sum(1 for e in transcript.events("admission")
                              if e["admitted"] and e["device"] == "clone")
        rows = [_row("clone-denied-on-consistency",
                     not clone_in and clone_why == "credential-inconsistency", clone_why),
                _row("legit-device-admitted", legit_in),
                _row("zero-clones-admitted", clones_admitted == 0)]
    return rows + [_row("both-network-sessions-granted",
                        len(transcript.events("network-session")) == 2,
                        "clone detection belongs to restriction, not network access")]


def prepaid_happy(transcript, config, attacks):
    summary = transcript.snapshot["summary"]
    grants = len(transcript.events("grant"))
    requests = len(config["requests"])
    # each identifying value, and how a failing row names it
    forbidden = {"dev-1": "dev-1", summary["ek_publics"]["dev-1"]: "the EK public of dev-1"}
    final = summary["balances"]["dev-1"]
    leak = _first_leak(transcript.messages(), forbidden)
    return [
        _logon_row(transcript),
        _row("all-requests-granted", grants == requests, f"{grants}/{requests}"),
        _row("anonymity-no-device-identity-on-wire", not leak, leak),
        _row("balance-final-recorded", final >= 0, str(final)),
    ]


def _logon_row(transcript) -> dict:
    """The vsim-logon row: a vsim session, or else a detail naming the abort
    that ended the logon, or that no logon was tried."""
    if transcript.events("vsim-session"):
        return _row("vsim-logon", True)
    aborts = transcript.events("abort")
    if not aborts:
        return _row("vsim-logon", False, "no logon tried")
    abort = aborts[0]
    return _row("vsim-logon", False,
                f"{abort['code']} for {abort['party']} at tick {abort['tick']}")


def _first_leak(messages, forbidden) -> str:
    """A detail naming the first message whose payload holds a forbidden
    value, and what it carries; empty when none does."""
    for message in messages:
        found = _leaked(message["payload"], forbidden)
        if found is not None:
            return f"message {message['id']} ({message['type']}) carries {forbidden[found]}"
    return ""


def _leaked(value, forbidden):
    """The first forbidden value inside value, or None."""
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, list):
        return value if value in forbidden else None
    for nested in value:
        found = _leaked(nested, forbidden)
        if found is not None:
            return found
    return None


def prepaid_tamper(transcript, config, attacks):
    denials = transcript.events("denial")
    return [
        _logon_row(transcript),
        _row("zero-grants", not transcript.events("grant")),
        _row("zero-decrements", not transcript.events("decrement")),
        _row("denials-cite-reference-mismatch",
             bool(denials) and all(d["code"] == "reference-mismatch" for d in denials),
             f"{len(denials)} denials"),
    ]


def prepaid_zero(transcript, config, attacks):
    # The first top-up separates the first request from the second.
    events = transcript.events()
    top_up = next((i for i, e in enumerate(events) if e["event"] == "top-up"), len(events))
    first_denials = [e for e in events[:top_up] if e["event"] == "denial"]
    denied = bool(first_denials) and first_denials[0]["code"] == "insufficient-balance"
    granted = any(e["event"] == "grant" for e in events[top_up:])
    rows = [
        _row("zero-balance-denied", denied, "" if denied else
             _first_outcome(first_denials or events[:top_up], "before the top-up")),
        _row("grant-after-top-up", granted, "" if granted else
             _first_outcome(events[top_up:], "after the top-up")),
    ]
    if "voucher-replay" in attacks:
        replays = [e for e in transcript.events("top-up") if not e["accepted"]]
        rows.append(_row("attack-voucher-replay-rejected",
                         bool(replays) and replays[0]["code"] == "voucher-replay"))
    return rows


def _first_outcome(events, where: str) -> str:
    """A detail naming the first grant or denial among events, with its
    code and tick, or saying that none came where."""
    for event in events:
        if event["event"] == "grant":
            return f"grant at tick {event['tick']}"
        if event["event"] == "denial":
            return f"denial {event['code']} at tick {event['tick']}"
    return f"no grant or denial {where}"


def _pos_set_up(transcript) -> bool:
    """Whether the POS world came up: the runners send control-env (or have
    it dropped) after a setup that went through, and stop before it otherwise."""
    return any(r.get("type") == "control-env" for r in transcript.records)


def _carrier_uniformity_row(transcript) -> dict:
    shapes = {(tuple(e["fields"]), e["encrypted"])
              for e in transcript.snapshot["carrier_views"].get(_parties(transcript)["mno"], ())}
    return _row("carrier-sees-uniform-encrypted-shapes",
                shapes <= {(("env",), True)},
                "" if shapes <= {(("env",), True)} else str(sorted(shapes)))


def pos_fig4(transcript, config, attacks):
    if not _pos_set_up(transcript):
        return [_row("purchase-delivered", False, "setup aborted")]
    deliveries = transcript.events("delivery")
    if "ack-strip" in attacks:
        return [
            _row("attack-ack-strip-no-delivery", not deliveries),
            _row("attack-ack-strip-abort",
                 any(e["code"] == "bad-ack-signature" for e in transcript.events("abort"))),
        ]

    expected_order = ["price-list", "purchase-order", "vendor-notify", "payment-notify",
                      "purchase-ack", "purchase-ack-relay", "delivery-confirmation"]
    seen = [m["type"] for m in transcript.messages() if m["type"] in expected_order]
    mno = _parties(transcript)["mno"]
    good_at_mno = transcript.knowledge_query(mno, "good")
    rows = [
        _row("purchase-delivered", len(deliveries) == 1),
        _row("message-sequence", seen == expected_order, "->".join(seen)),
        _row("operator-blind-to-good", not good_at_mno) if config["encryption"] else
        _row("plaintext-variant-reveals-good", audit._canon(config["good"]) in good_at_mno),
    ]
    if config["pos_check_via_mno"]:
        rows.append(_row("pos-identity-revealed-to-operator",
                         bool(transcript.knowledge_query(mno, "token"))))
    rows.append(_carrier_uniformity_row(transcript))
    return rows


def pos_sep(transcript, config, attacks):
    if not _pos_set_up(transcript):
        return [_row("purchase-delivered", False, "setup aborted")]
    deliveries = transcript.events("delivery")
    # a session that went through opens a secure session, the reused one too
    sessions = transcript.events("secure-session")
    if "reuse-token" in attacks:
        rejected = [e for e in transcript.events("attestation-verdict") if not e["accepted"]]
        return [
            _row("attack-reuse-token-rejected",
                 len(sessions) < 2 and bool(rejected) and "aik-reused" in rejected[-1]["reasons"]),
            _row("attack-reuse-token-single-delivery", len(deliveries) == 1),
        ]

    know, ids = transcript.knowledge_query, _parties(transcript)
    mno = ids["mno"]
    rows = [
        _row("purchase-delivered", len(deliveries) == 1),
        _row("charging-provider-blind-to-goods", not know(ids["charging_provider"], "good")),
        _row("pos-owner-blind-to-customer-identity", not know(ids["pos_owner"], "identity")),
    ]
    # the token the device presented (none is spent when the session aborted)
    spent = (_first(transcript.messages("auth-token"), "auth-token message")
             ["payload"]["quote"]["aik_public"] if sessions else None)
    held = spent is not None and any(spent in v for v in know(mno, "token"))
    if "auth_provider" not in ids:  # the operator authenticates
        rows += [_row("merged-operator-links-identity", know(mno, "identity")),
                 _row("merged-operator-holds-spent-token", held)]
    else:
        rows += [_row("operator-never-sees-spent-token", not held),
                 _row("operator-blind-to-good", not know(mno, "good"))]
    return rows + [_carrier_uniformity_row(transcript)]


def _zone_features(zones: dict, location: str) -> dict:
    """The features at location: the base set, overridden inside a zone."""
    return {**_BASE_FEATURES, **zones.get(location, {})}


def _entered(transcript, device: str) -> dict | None:
    """The feature map applied when device was let in, or None: it was not."""
    granted = any(e["granted"] for e in transcript.events("entry") if e["device"] == device)
    inside = [e["features"] for e in transcript.events("policy-applied")
              if e["device"] == device and e["location"] != _OUTSIDE]
    return inside[0] if granted and inside else None


def facility_entry(transcript, config, attacks):
    zones = config["zones"]
    expected = _zone_features(zones, next(iter(zones)))
    inside = _entered(transcript, "employee")
    outside = [e["features"] for e in transcript.events("policy-applied")
               if e["device"] == "employee" and e["location"] == _OUTSIDE]
    return [
        _row("employee-entry-granted", inside is not None),
        _row("zone-policy-applied", inside == expected, json.dumps(inside, sort_keys=True)),
        # camera and MMS as the first zone sets them (the default zone disables both)
        _row("camera-and-mms-restricted",
             inside is not None and inside["camera"] == expected["camera"]
             and inside["mms"] == expected["mms"]),
        _row("policy-restored-on-exit", outside[-1:] == [_zone_features(zones, _OUTSIDE)]),
        _row("non-enrolled-device-denied", _entered(transcript, "visitor") is None),
    ]


def facility_midnight(transcript, config, attacks):
    sent = _first(transcript.messages("power-request"), "power-request message")["payload"]
    allowed = set(config["enforcer_allowed_fields"])
    dropped = sorted(MIDNIGHT_REQUEST.keys() - allowed)
    # one enforcer-filtered event naming the dropped fields, none when none are
    filtered = [e["dropped_fields"] for e in transcript.events("enforcer-filtered")]
    expected = [dropped] if dropped else []
    sensitive = ("identity", "good", "price", "token", "balance", "policy")
    external = _parties(transcript)["facility_provider"]
    leaked = set().union(*(transcript.knowledge_query(external, label) for label in sensitive))
    return [
        _row("entry-granted", _entered(transcript, "employee") is not None),
        _row("external-request-filtered",
             set(sent) == MIDNIGHT_REQUEST.keys() & allowed,
             json.dumps(sorted(sent), sort_keys=True)),
        _row("enforcer-dropped-sensitive-fields", filtered == expected,
             "" if filtered == expected else f"dropped {filtered}, expected {expected}"),
        _row("external-provider-knows-no-sensitive-values", not leaked,
             "" if not leaked else f"{len(leaked)} leaked values"),
    ]
