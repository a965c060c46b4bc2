"""Deterministic run harness: channels, message delivery, knowledge tracking.

A run is a single-threaded sequence of delivered messages; time is an
integer tick that advances once per delivery. Every payload field carries
the sensitivity label FIELD_LABELS gives its name, from a fixed taxonomy,
and each party's knowledge set records exactly the labeled values it could
read — the substrate for all privacy assertions. Transcripts serialize to
line-delimited JSON with stable ordering so identical (scenario, seed)
pairs produce identical bytes.
"""

from __future__ import annotations

import copy
import gc
import json
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from json.encoder import encode_basestring_ascii

import orjson

from .crypto import Rng, canonical_json as _encode

# Transcript lines and knowledge-set values are in crypto's canonical JSON
# form (_encode). Record and snapshot lines go through orjson wherever the
# gates (_exact_lines and _decode_lines) find that it writes and reads what
# the stdlib's json does, and through the stdlib's json otherwise.
_dumps, _loads = orjson.dumps, orjson.loads
# Sorted keys; a dataclass, datetime or subclass of str, int, dict or list
# raises TypeError, as json.dumps raises for the first two.
_DUMPS_OPTIONS = (orjson.OPT_SORT_KEYS | orjson.OPT_PASSTHROUGH_DATACLASS
                  | orjson.OPT_PASSTHROUGH_DATETIME | orjson.OPT_PASSTHROUGH_SUBCLASS)

TRANSCRIPT_SCHEMA = "trustsim-transcript/1"

MOBILE_NETWORK = "mobile_network"
SHORT_RANGE = "short_range"

MNO = "mno"  # every scenario's one mobile operator, the mobile channel's carrier

# The channel table of every simulation, and of every transcript header: the
# operator's network, observed by its carrier, a short-range link and a
# fixed network.
CHANNEL_MOBILE, CHANNEL_SR, CHANNEL_NET = "mobile", "sr", "net"
CHANNELS = {
    CHANNEL_MOBILE: {"kind": MOBILE_NETWORK, "carrier": MNO},
    CHANNEL_NET: {"kind": MOBILE_NETWORK, "carrier": None},
    CHANNEL_SR: {"kind": SHORT_RANGE, "carrier": None},
}

# The fixed label taxonomy; scenario code may not invent labels.
LABELS = frozenset(
    {"identity", "good", "price", "token", "balance", "policy", "plumbing"}
)

# The one label of each payload field name, wherever the field travels:
# send and seal label every payload from it, so no message can label a
# field otherwise than the rest.
FIELD_LABELS = {
    "account": "identity", "attendees": "identity", "ek_certificate": "identity",
    "identity": "identity", "imsi": "identity",
    "good": "good", "good_id": "good", "service": "good",
    "cost": "price", "entries": "price", "grand_total": "price", "price": "price",
    "aik_publics": "token", "auth_token": "token", "certificate": "token",
    "certificates": "token", "new_publics": "token", "old_certificate": "token",
    "pos_certificate": "token",
    "statement": "balance", "voucher": "balance",
    "agenda": "policy",
    "action": "plumbing", "admitted": "plumbing", "authorized": "plumbing",
    "blob": "plumbing", "code": "plumbing", "deadline": "plumbing", "env": "plumbing",
    "liveness": "plumbing", "log": "plumbing", "modality": "plumbing", "nonce": "plumbing",
    "ok": "plumbing", "order_id": "plumbing", "proof": "plumbing", "quote": "plumbing",
    "reason": "plumbing", "reasons": "plumbing", "request": "plumbing", "room": "plumbing",
    "selection": "plumbing", "session_id": "plumbing", "signature": "plumbing",
    "status": "plumbing", "terminal": "plumbing", "units": "plumbing", "until": "plumbing",
}

DROP = "drop"


# The line codec works in bounded pieces: to_text and parse take the stdlib's
# path or orjson's per chunk of whole lines of about _CHUNK bytes (characters,
# in parse), and the gates read a chunk in windows of _CHUNK, so a line of any
# length costs bounded memory. Most catalog transcripts are one chunk.
_CHUNK = 1 << 16


# orjson.loads returns a float for an integer beyond 64 bits, where json.loads
# returns an int; every other difference between the two is an error of
# orjson.loads. An integer token follows a line start, JSON whitespace, "[",
# ",", ":" or "-": with those mapped to ":" and digits to "0", a ":" and 19
# zeros mark every token that might be one. A mark holds one ":", so none
# spans a line break.
_INT_GATE = bytes.maketrans(b"0123456789,[- \t\r\n", b"0000000000:::::::")
_WIDE_INT = b":" + b"0" * 19


def _narrow_ints(text: str) -> bool:
    """Whether ":" + text, in UTF-8 mapped by _INT_GATE, holds no _WIDE_INT.
    Read in windows of _CHUNK characters, each after the last 19 bytes mapped
    before it, so that a mark across a window edge is still found."""
    tail = b":"
    for edge in range(0, len(text), _CHUNK):
        try:
            marked = tail + text[edge:edge + _CHUNK].encode().translate(_INT_GATE)
        except UnicodeEncodeError:  # a lone surrogate: no UTF-8 for orjson
            return False
        if _WIDE_INT in marked:
            return False
        tail = marked[-19:]
    return True


def _decode(lines: list) -> list:
    """[json.loads(line) for line in lines], type-exact, errors included:
    through orjson.loads where no line can hold an integer beyond 64 bits
    and every line decodes, and through json.loads otherwise."""
    if _narrow_ints("\n".join(lines)):
        try:
            return list(map(_loads, lines))
        except ValueError:
            pass
    return list(map(json.loads, lines))


def _decode_lines(lines: list) -> list:
    """lines with each line replaced by json.loads(line) (see _decode), in
    place, chunk by chunk, so that each chunk's lines are freed as its values
    are built. Where a line raises, its chunk and those after it stay
    undecoded; every chunk before it decoded as json.loads decodes it, so
    the error is json.loads's first."""
    ends = list(accumulate(map(len, lines)))  # where each line ends, line breaks left out
    start = 0
    while start < len(lines):
        # the lines that end within _CHUNK characters of the chunk's start, at least one
        stop = bisect_right(ends, ends[start] - len(lines[start]) + _CHUNK, start + 1)
        lines[start:stop] = _decode(lines[start:stop])
        start = stop
    return lines


# Where an orjson line differs from _encode's: non-ASCII text and DEL (which
# _encode escapes), floats (no exponent sign or zero padding), NaN and the
# infinities (written as null). With digits mapped to "0", line breaks, "["
# and "," to ":", "-" dropped, and DEL and every non-ASCII byte to ".", each
# leaves a ".", a "null" or a float with a one-digit mantissa after its line
# break, ":0e".
_LINE_GATE = bytes.maketrans(b"0123456789,[\n\x7f" + bytes(range(0x80, 0x100)),
                             b"0000000000:::" + b"." * 0x81)


def _exact_lines(buffer: bytearray, start: int) -> bool:
    """Whether buffer[start:], each line orjson wrote after its "\n", is
    those lines as _encode writes them. Read in windows of _CHUNK bytes,
    each after the last 3 bytes mapped before it, so that a "null" or ":0e"
    across a window edge is still found."""
    tail = b""
    for edge in range(start, len(buffer), _CHUNK):
        marked = tail + buffer[edge:edge + _CHUNK].translate(_LINE_GATE, b"-")
        if b"." in marked or b"null" in marked or b":0e" in marked:
            return False
        tail = marked[-3:]
    return True


def canon_value(value) -> str:
    """Canonical JSON string for one payload value (knowledge-set element)."""
    return _encode(value)


_NOT_TYPED = ("sender, receiver or channel not a string, payload or labels not a dict, "
              "or encrypted not a bool")


def _unlabeled(payload: dict, labels: dict) -> str:
    return f"unlabeled payload fields: {sorted(payload.keys() - labels.keys())}"


def _labels_of(payload: dict) -> dict:
    """The label of each payload field, from FIELD_LABELS; ValueError naming
    the fields it lacks."""
    try:
        return {fname: FIELD_LABELS[fname] for fname in payload}
    except KeyError:
        raise ValueError(_unlabeled(payload, FIELD_LABELS)) from None


def seal(readers, payload: dict) -> dict:
    """Payload sealed end-to-end for specific readers.

    Carried opaquely by everyone else: relays and carriers learn that a
    sealed blob passed, never the fields inside.
    """
    return {"_sealed": {"readers": sorted(set(readers)), "payload": dict(payload),
                        "labels": _labels_of(payload)}}


def is_sealed(value) -> bool:
    return isinstance(value, dict) and len(value) == 1 and "_sealed" in value


def opens(inner) -> bool:
    """Whether a sealed envelope's interior opens for its readers: a dict
    whose readers is a list and whose payload and labels are dicts, with
    every payload field labelled and every label in the taxonomy. seal()
    builds nothing else, so only a rewritten envelope is opaque, and no one
    learns anything from it."""
    return (
        isinstance(inner, dict)
        and isinstance(inner.get("readers"), list)
        and isinstance(inner.get("payload"), dict)
        and isinstance(inner.get("labels"), dict)
        and inner["payload"].keys() <= inner["labels"].keys()
        and all(isinstance(label, str) and label in LABELS
                for label in inner["labels"].values())
    )


class Simulation:
    """One deterministic run over the CHANNELS: by party id, each party's
    role, knowledge set of (field, label, value) rows and carrier view."""

    def __init__(self, seed: int, scenario: str = "", attacks=(), variants=None):
        self.rng = Rng(seed)
        self.seed = seed
        self.scenario = scenario
        self.attacks = tuple(attacks)
        self.variants = dict(variants or {})
        self.tick = 0
        self.roles = {}
        self.knowledge = {}
        self.carrier_views = {}
        self.records = []
        self.summary = {}
        self._hooks = []
        self._msg_counter = 0

    # -- setup -------------------------------------------------------------

    def add_party(self, party_id: str, role: str) -> None:
        if party_id in self.roles:
            raise ValueError(f"duplicate party id: {party_id}")
        self.roles[party_id] = role
        self.knowledge[party_id] = set()

    def add_hook(self, hook) -> None:
        """Attack hook: hook(record) -> None (pass, after any in-place edit
        of the record) | a replacement record dict | harness.DROP."""
        self._hooks.append(hook)

    # -- delivery ----------------------------------------------------------

    def send(self, sender: str, receiver: str, channel: str, msg_type: str, payload: dict, *,
             encrypted: bool = False):
        """Deliver one message in order, each field labelled from FIELD_LABELS;
        returns the record it appended, or None when a hook dropped it.

        The arguments are checked once, before any hook runs: ValueError
        unless they pass _check_routing and FIELD_LABELS labels every
        payload field. Only a record that hooks let through, replaced or
        edited in place is checked again (see _check): a record send built
        itself passes by construction. With hooks installed the record
        carries a deep copy of payload, so an in-place edit reaches no other
        record: a relay forwards the envelope object it received."""
        self._check_routing(sender, receiver, channel, payload, encrypted)
        labels = _labels_of(payload)
        self._msg_counter += 1
        record = {
            "kind": "message",
            "id": f"m{self._msg_counter:05d}",
            "tick": self.tick + 1,
            "sender": sender,
            "receiver": receiver,
            "channel": channel,
            "type": msg_type,
            "encrypted": encrypted,
            "payload": copy.deepcopy(payload) if self._hooks else dict(payload),
            "labels": labels,
        }

        if self._hooks:
            msg_id = record["id"]
            for hook in self._hooks:
                outcome = hook(record)
                if outcome is DROP:
                    self.event("message-dropped", id=record["id"], type=record["type"],
                               sender=sender, receiver=receiver)
                    return None
                if outcome is not None:
                    record = outcome
            self._check(record, msg_id)

        self.tick += 1
        self.records.append(record)
        self._observe(record)
        return record

    def _check_routing(self, sender, receiver, channel, payload, encrypted) -> None:
        """ValueError unless sender, receiver and channel are strings naming
        registered parties and a channel of CHANNELS, payload is a dict and
        encrypted a bool."""
        if not (isinstance(sender, str) and isinstance(receiver, str)
                and isinstance(channel, str) and isinstance(payload, dict)
                and isinstance(encrypted, bool)):
            raise ValueError(_NOT_TYPED)
        if sender not in self.roles or receiver not in self.roles:
            raise ValueError(f"unregistered party in {sender}->{receiver}")
        if channel not in CHANNELS:
            raise ValueError(f"unknown channel: {channel}")

    def _check(self, record: dict, msg_id: str) -> None:
        """ValueError unless send may append a record that hooks let through:
        kind, id and tick as built, routing that passes _check_routing,
        labels that are a dict, and every field labelled within the
        taxonomy. Sealed interiors need no check: one that fails it does not
        open (see opens)."""
        built = record.get("kind"), record.get("id"), record.get("tick")
        if built != ("message", msg_id, self.tick + 1):
            raise ValueError(f"kind, id or tick not as built: {built}")
        payload, labels = record.get("payload"), record.get("labels")
        if not isinstance(labels, dict):
            raise ValueError(_NOT_TYPED)
        self._check_routing(record.get("sender"), record.get("receiver"),
                            record.get("channel"), payload, record.get("encrypted"))
        if not payload.keys() <= labels.keys():
            raise ValueError(_unlabeled(payload, labels))
        for label in labels.values():
            if not isinstance(label, str) or label not in LABELS:
                raise ValueError(f"labels outside the fixed taxonomy: {label!r}")

    def _observe(self, record: dict) -> None:
        """Fold a delivered record into the receiver's knowledge and, on a
        carried mobile channel, the carrier's view and (unencrypted) its
        knowledge. Both read one split of the payload."""
        payload = record["payload"]
        plain, sealed = _split(payload, record["labels"])
        receiver = record["receiver"]
        known = self.knowledge[receiver]
        known.update(plain)
        if sealed:
            _open(known, receiver, sealed)

        channel = CHANNELS[record["channel"]]
        carrier = channel["carrier"]
        if channel["kind"] != MOBILE_NETWORK or carrier is None:
            return
        if carrier == record["sender"] or carrier == receiver:
            return
        known = self.knowledge[carrier]  # KeyError: the carrier is no party
        self.carrier_views.setdefault(carrier, []).append(
            {
                "tick": record["tick"],
                "channel": record["channel"],
                "fields": sorted(payload),
                "encrypted": record["encrypted"],
            }
        )
        if not record["encrypted"]:
            known.update(plain)
            if sealed:
                _open(known, carrier, sealed)

    # -- events and report queries -------------------------------------------

    def event(self, event_type: str, **fields) -> dict:
        record = {"kind": "event", "tick": self.tick, "event": event_type, **fields}
        self.records.append(record)
        return record

    def events(self, event_type: str | None = None) -> list:
        """Event records of that type (all events for None), in record order."""
        return _select(self.records, "event", event_type)

    def messages(self, msg_type: str | None = None) -> list:
        """Message records of that type (all messages for None), in record order."""
        return _select(self.records, "message", msg_type)

    def knowledge_query(self, party: str, label: str | None = None) -> set:
        """Exact set of canonical values with that label ever readable by
        the party."""
        return _known(party, self.knowledge.get(party), label)

    # -- transcript --------------------------------------------------------

    def finalize(self) -> "Transcript":
        return Transcript(
            header={
                "schema": TRANSCRIPT_SCHEMA,
                "scenario": self.scenario,
                "seed": self.seed,
                "attacks": list(self.attacks),
                "variants": self.variants,
                "channels": {name: dict(spec) for name, spec in CHANNELS.items()},
            },
            records=list(self.records),
            snapshot={
                "kind": "snapshot",
                "tick": self.tick,
                "knowledge": {pid: sorted(map(list, rows))
                              for pid, rows in sorted(self.knowledge.items())},
                "carrier_views": dict(sorted(self.carrier_views.items())),
                "roles": dict(sorted(self.roles.items())),
                "summary": self.summary,
            },
        )


def _select(records: list, kind: str, rtype: str | None) -> list:
    """The records of that kind ("event" or "message") and type (any type
    for None), in record order: events/messages of Simulation and
    Transcript. Report rows read them from the finalized transcript;
    protocol steps act on delivered hops instead."""
    key = "event" if kind == "event" else "type"
    return [r for r in records if r["kind"] == kind and (rtype is None or r[key] == rtype)]


def _known(party: str, rows, label: str | None) -> set:
    """knowledge_query of Simulation and Transcript: the exact set of
    canonical values with that label among a party's knowledge rows
    (field, label, value)."""
    if rows is None:
        raise ValueError(f"unknown party: {party}")
    return {value for _, l, value in rows if label is None or l == label}


def _split(payload: dict, labels: dict) -> tuple:
    """(plain knowledge rows (field, label, canonical value), sealed
    interiors that open) of one payload; a sealed field that is opaque
    (see opens) is neither."""
    plain, sealed = [], []
    for fname, value in payload.items():
        if value.__class__ is str:  # canonical_json's own shortcut
            plain.append((fname, labels[fname], encode_basestring_ascii(value)))
        elif is_sealed(value):
            if opens(value["_sealed"]):
                sealed.append(value["_sealed"])
        else:
            plain.append((fname, labels[fname], _encode(value)))
    return plain, sealed


def _open(known: set, party_id: str, sealed: list) -> None:
    """Fold the sealed interiors that list party_id as a reader into its
    knowledge set, known, however deeply they nest."""
    for inner in sealed:
        if party_id in inner["readers"]:
            plain, nested = _split(inner["payload"], inner["labels"])
            known.update(plain)
            if nested:
                _open(known, party_id, nested)


@dataclass
class Transcript:
    """Finalized run record: header line, ordered records, snapshot line."""

    header: dict
    records: list
    snapshot: dict

    def to_text(self) -> str:
        """The header, each record and the snapshot in canonical JSON (_encode),
        one line each. The lines are written into one buffer, decoded once at
        the end. Records and snapshot go through orjson, chunk by chunk, where
        _exact_lines finds a chunk's lines to be _encode's, and through
        _encode otherwise: the same text, or _encode's exception.

        One difference stays: orjson writes an enum.Enum member as its value
        and a uuid.UUID as its string, where _encode raises TypeError (for an
        Enum member that is not also a str or an int). No run builds either."""
        buffer = bytearray(_encode(self.header).encode())
        values = [*self.records, self.snapshot]
        first, start = 0, len(buffer)  # the chunk's first value and its "\n"
        for stop, value in enumerate(values, 1):
            buffer += b"\n"
            try:
                buffer += _dumps(value, None, _DUMPS_OPTIONS)
            except TypeError:  # a wide int, a key not a str, a type passed through, a cycle
                exact = False
            else:
                if len(buffer) - start < _CHUNK and stop < len(values):
                    continue
                exact = _exact_lines(buffer, start)
            if not exact:
                del buffer[start:]
                for chunk_value in values[first:stop]:
                    buffer += b"\n"
                    buffer += _encode(chunk_value).encode()
            first, start = stop, len(buffer)
        buffer += b"\n"
        return buffer.decode()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())

    @classmethod
    def parse(cls, text: str) -> "Transcript":
        """Decode a transcript line by line.

        The cyclic garbage collector is paused meanwhile: decoded JSON holds
        no reference cycles, so the pause defers no garbage and saves the
        collections that the new containers would trigger, each scanning
        the records decoded so far. A collector the caller had disabled
        stays disabled.

        Lines end at "\n", "\r\n" or "\r" only: U+2028, U+2029 and U+0085
        may stand raw inside a JSON string."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            if "\r" in text:
                text = text.replace("\r\n", "\n").replace("\r", "\n")
            lines = [line for line in text.split("\n") if line.strip()]
            if len(lines) < 2:
                raise ValueError("transcript too short")
            header = json.loads(lines[0])
            schema = header.get("schema") if isinstance(header, dict) else header
            if schema != TRANSCRIPT_SCHEMA:
                raise ValueError(f"unknown transcript schema: {schema!r}")
            snapshot = _decode([lines.pop()])[0]
            if not isinstance(snapshot, dict) or snapshot.get("kind") != "snapshot":
                raise ValueError("transcript missing snapshot line")
            del lines[0]
            return cls(header=header, records=_decode_lines(lines), snapshot=snapshot)
        finally:
            if collecting:
                gc.enable()

    @classmethod
    def read(cls, path) -> "Transcript":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.parse(fh.read())

    def knowledge_query(self, party: str, label: str | None = None) -> set:
        return _known(party, self.snapshot["knowledge"].get(party), label)

    def events(self, event_type: str | None = None) -> list:
        return _select(self.records, "event", event_type)

    def messages(self, msg_type: str | None = None) -> list:
        return _select(self.records, "message", msg_type)
