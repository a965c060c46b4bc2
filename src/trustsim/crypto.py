"""Deterministic-capable crypto primitives shared by every other module.

Four things live here: the 160-bit digest used for PCRs and measurement
logs, Ed25519 signatures, the one signed-message form every signed wire
dict takes, and a seedable random stream. Everything is
reproducible from a 64-bit seed so whole protocol runs can be replayed
bit-for-bit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from json.encoder import c_make_encoder, encode_basestring_ascii

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

DIGEST_LEN = 20
ZERO_DIGEST = b"\x00" * DIGEST_LEN

CERT_HASH_ALG = "sha256"


def hash160(data: bytes) -> bytes:
    """SHA-1 digest (the fixed PCR/log hash), always 20 bytes."""
    return hashlib.sha1(data).digest()


def hash256(data: bytes) -> bytes:
    """General-purpose digest for certificates and fingerprints."""
    return hashlib.sha256(data).digest()


# The C encoder behind json.dumps(value, sort_keys=True, separators=(",",
# ":")), built once at import: JSONEncoder.encode builds a fresh one on every
# call. markers is None, so there is no circular-reference check: a shared
# markers dict keeps the ids of the containers an encode was inside when it
# raised, and a later encode of one of them would then fail as a false
# "Circular reference". A cyclic value raises RecursionError instead.
_iterencode = c_make_encoder and c_make_encoder(
    None, json.JSONEncoder().default, encode_basestring_ascii, None, ":", ",",
    True, False, True,
)


def canonical_json(value) -> str:
    """Canonical JSON text of a value: sorted keys, "," and ":" separators,
    non-ASCII escaped, exactly as json.dumps writes it with those options."""
    if value.__class__ is str:  # JSONEncoder.encode's own shortcut
        return encode_basestring_ascii(value)
    return "".join(_iterencode(value, 0))


if c_make_encoder is None:  # no C accelerator: the pure-Python encoder, same text
    canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def canonical_bytes(obj) -> bytes:
    """Stable byte encoding of a JSON-able structure, used for signing."""
    return canonical_json(obj).encode("utf-8")


class Rng:
    """Deterministic byte stream from a 64-bit unsigned seed.

    SHA-256 in counter mode; identical seeds produce identical streams on
    every platform. fork() derives an independent child stream so one
    consumer's draws never shift another's.
    """

    def __init__(self, seed: int):
        if not 0 <= seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        self.seed = seed
        self._key = hash256(seed.to_bytes(8, "big"))
        self._counter = 0
        self._buffer = b""

    def bytes(self, n: int) -> bytes:
        while len(self._buffer) < n:
            block = hash256(self._key + self._counter.to_bytes(8, "big"))
            self._counter += 1
            self._buffer += block
        out, self._buffer = self._buffer[:n], self._buffer[n:]
        return out

    def u64(self) -> int:
        return int.from_bytes(self.bytes(8), "big")

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        limit = (2**64 // n) * n
        while True:
            v = self.u64()
            if v < limit:
                return v % n

    def shuffled(self, seq) -> list:
        items = list(seq)
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]
        return items

    def fork(self, label: str) -> "Rng":
        child = Rng.__new__(Rng)
        child.seed = self.seed
        child._key = hash256(self._key + b"fork:" + label.encode("utf-8"))
        child._counter = 0
        child._buffer = b""
        return child


@dataclass(frozen=True)
class KeyPair:
    """An Ed25519 key pair: 32-byte raw public and private keys."""

    public: bytes
    private: bytes


@lru_cache(maxsize=4096)
def _ed25519_private(private: bytes) -> Ed25519PrivateKey:
    return Ed25519PrivateKey.from_private_bytes(private)


@lru_cache(maxsize=4096)
def _ed25519_public(public: bytes) -> Ed25519PublicKey:
    return Ed25519PublicKey.from_public_bytes(public)


def keygen(rng: Rng) -> KeyPair:
    """Fresh key pair drawn from the rng stream."""
    private = rng.bytes(32)
    return KeyPair(public=public_from_private(private), private=private)


def public_from_private(private: bytes) -> bytes:
    return _ed25519_private(private).public_key().public_bytes_raw()


def sign(key: KeyPair, message: bytes) -> bytes:
    return _ed25519_private(key.private).sign(message)


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """True iff signature was produced over exactly this message by the
    matching private key. Malformed input never raises."""
    if not isinstance(signature, (bytes, bytearray)) or len(public) != 32:
        return False
    try:
        _ed25519_public(bytes(public)).verify(bytes(signature), message)
        return True
    except (InvalidSignature, ValueError):
        return False


def signed(key: KeyPair, tag: bytes, body: dict) -> dict:
    """body as it goes on the wire: its fields plus key's hex signature over
    tag + its canonical bytes."""
    return {**body, "signature": sign(key, tag + canonical_bytes(body)).hex()}


def signed_by(public: bytes, tag: bytes, payload: dict, fields) -> bool:
    """Whether a payload, as it arrived, carries public's signature over
    those of its fields. A payload that lacks one of them, or whose
    signature is not hex text, is unsigned rather than an error."""
    try:
        body = {name: payload[name] for name in fields}
        signature = bytes.fromhex(payload["signature"])
    except (KeyError, TypeError, ValueError):
        return False
    return verify(public, tag + canonical_bytes(body), signature)
