"""Deterministic-capable crypto primitives shared by every other module.

Five things live here: the 160-bit digest used for PCRs and measurement
logs, Ed25519 signatures, the one signed-message form every signed wire
dict takes, a seedable random stream, and the constructor that the frozen
protocol values share (slot_init). Everything is
reproducible from a 64-bit seed so whole protocol runs can be replayed
bit-for-bit.
"""

from __future__ import annotations

import ctypes
import dataclasses
import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from json.encoder import c_make_encoder, encode_basestring_ascii

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
    if value.__class__ is int:  # what the C encoder writes for an int
        return int.__repr__(value)
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
        child._key = hash256(self._key + b"fork:" + label.encode("utf-8"))
        child._counter = 0
        child._buffer = b""
        return child


# The frozen __setattr__ and __delattr__ of slot_init's classes, with the
# messages of the dataclass's own.
_FROZEN = """
def __setattr__(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")
def __delattr__(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")
"""


def slot_init(cls):
    """cls, a frozen dataclass with slots, given an __init__ that stores each
    field through its slot's descriptor.

    The dataclass's own frozen __init__ stores each field with
    object.__setattr__, which looks the name up along the class's MRO each
    time; a descriptor's __set__, bound here once per field, writes the
    slot directly, for 30-45% less per value. __post_init__, where the class
    has one, runs last. __setattr__ and __delattr__ raise FrozenInstanceError
    for any name, as a frozen dataclass without slots does: on Python 3.11
    the dataclass's own close over the class that slots=True replaces, and
    raise TypeError from super() for a name that is not a field. Everything
    else stays the dataclass's. Every field must be an init field without a
    default."""
    params = dataclasses.fields(cls)
    if not (cls.__dataclass_params__.frozen and "__slots__" in cls.__dict__) or any(
            not f.init or f.default is not dataclasses.MISSING
            or f.default_factory is not dataclasses.MISSING for f in params):
        raise TypeError(f"{cls.__name__}: slot_init needs a frozen dataclass with slots "
                        "whose fields are all init fields without defaults")
    names = [f.name for f in params]
    scope = {f"_set_{name}": cls.__dict__[name].__set__ for name in names}
    scope["FrozenInstanceError"] = dataclasses.FrozenInstanceError
    body = [f"    _set_{name}(self, {name})\n" for name in names]
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()\n")
    exec(f"def __init__(self, {', '.join(names)}):\n{''.join(body)}" + _FROZEN, scope)
    for method in ("__init__", "__setattr__", "__delattr__"):
        scope[method].__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, scope[method])
    return cls


@slot_init
@dataclass(frozen=True, slots=True)
class KeyPair:
    """An Ed25519 key pair: 32-byte raw public and private keys."""

    public: bytes
    private: bytes


# -- Ed25519 ------------------------------------------------------------------
#
# RFC 8032 Ed25519 through libsodium when a build of it loads, else through
# the `cryptography` package (OpenSSL). Both derive the same keys and write
# the same signatures, byte for byte, and verify() gives the same verdict on
# every input: the fallback first rejects what libsodium rejects and OpenSSL
# would accept (see _openssl_verify). The fallback imports `cryptography` on
# first use, so a process that has libsodium never loads it.


# The libsodium functions used, with their argument types; each returns int.
_SODIUM_ARGTYPES = {
    "sodium_init": (),
    "crypto_sign_ed25519_seed_keypair": (ctypes.c_char_p,) * 3,
    "crypto_sign_ed25519_detached": (
        ctypes.c_char_p, ctypes.c_void_p, ctypes.c_char_p, ctypes.c_ulonglong, ctypes.c_char_p),
    "crypto_sign_ed25519_verify_detached": (
        ctypes.c_char_p, ctypes.c_char_p, ctypes.c_ulonglong, ctypes.c_char_p),
}


def _load_libsodium():
    """libsodium through ctypes, or None where no build of it loads. Fixed
    sonames only: ctypes.util.find_library starts subprocesses."""
    for name in ("libsodium.so.23", "libsodium.so.26", "libsodium.so", "libsodium.dylib"):
        try:
            lib = ctypes.CDLL(name)
            for function, argtypes in _SODIUM_ARGTYPES.items():
                getattr(lib, function).argtypes = argtypes
                getattr(lib, function).restype = ctypes.c_int
        except (OSError, AttributeError):  # not found, or lacks a function
            continue
        if lib.sodium_init() >= 0:  # 1: already initialised in this process
            return lib
    return None


_sodium = _load_libsodium()
BACKEND = "cryptography" if _sodium is None else "libsodium"


# The output buffer types, built once: ctypes.create_string_buffer(n) makes
# an instance of ctypes.c_char * n, a type it builds or looks up per call.
_Bytes32, _Bytes64 = ctypes.c_char * 32, ctypes.c_char * 64


def _sodium_secret_key(seed: bytes) -> bytes:
    """libsodium's 64-byte secret key: the seed, then the public key."""
    public, secret = _Bytes32(), _Bytes64()
    _sodium.crypto_sign_ed25519_seed_keypair(public, secret, seed)
    return secret.raw


def _sodium_sign(secret: bytes, message: bytes) -> bytes:
    signature = _Bytes64()
    _sodium.crypto_sign_ed25519_detached(signature, None, message, len(message), secret)
    return signature.raw


def _sodium_verify(public: bytes, message: bytes, signature: bytes) -> bool:
    return _sodium.crypto_sign_ed25519_verify_detached(
        signature, message, len(message), public) == 0


def _openssl_secret_key(seed: bytes) -> bytes:
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

    return seed + Ed25519PrivateKey.from_private_bytes(seed).public_key().public_bytes_raw()


def _openssl_sign(secret: bytes, message: bytes) -> bytes:
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

    return Ed25519PrivateKey.from_private_bytes(secret[:32]).sign(message)


_P = 2**255 - 19
# y of every point of order 1, 2, 4 or 8 ([8]P is the identity), as the
# encodings libsodium lists: 0, 1, two y of order-8 points, p - 1, and p and
# p + 1, which encode 0 and 1 non-canonically. The sign bit is ignored.
_SMALL_ORDER_Y = frozenset({
    0,
    1,
    int.from_bytes(bytes.fromhex(
        "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05"), "little"),
    int.from_bytes(bytes.fromhex(
        "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a"), "little"),
    _P - 1,
    _P,
    _P + 1,
})


def _y(encoding: bytes) -> int:
    return int.from_bytes(encoding, "little") & (2**255 - 1)


def _openssl_verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """OpenSSL's verify behind libsodium's checks of the key and R: a key
    must encode y < p, and neither the key nor R may be a point of small
    order. OpenSSL alone accepts R = identity, S = 0 on any message under
    the identity key, and on about one message in four under the all-zero
    key."""
    from cryptography.exceptions import InvalidSignature
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

    y = _y(public)
    if y >= _P or y in _SMALL_ORDER_Y or _y(signature[:32]) in _SMALL_ORDER_Y:
        return False
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


if _sodium is None:
    _derive, _sign, _verify = _openssl_secret_key, _openssl_sign, _openssl_verify
else:
    _derive, _sign, _verify = _sodium_secret_key, _sodium_sign, _sodium_verify


@lru_cache(maxsize=4096)
def _secret_key(seed: bytes) -> bytes:
    """The 64-byte secret key of a 32-byte seed: the seed, then its public key."""
    if not isinstance(seed, bytes) or len(seed) != 32:
        raise ValueError("an Ed25519 private key is 32 bytes")
    return _derive(seed)


def keygen(rng: Rng) -> KeyPair:
    """Fresh key pair drawn from the rng stream."""
    private = rng.bytes(32)
    return KeyPair(public=public_from_private(private), private=private)


def public_from_private(private: bytes) -> bytes:
    return _secret_key(private)[32:]


def sign(key: KeyPair, message: bytes) -> bytes:
    return _sign(_secret_key(key.private), message)


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """True iff signature was produced over exactly this message by the
    matching private key. Malformed input never raises."""
    if not (isinstance(public, (bytes, bytearray)) and len(public) == 32
            and isinstance(signature, (bytes, bytearray)) and len(signature) == 64):
        return False
    return _verify(bytes(public), message, bytes(signature))


def signed(key: KeyPair, tag: bytes, body: dict) -> dict:
    """body as it goes on the wire: its fields plus key's hex signature over
    tag + its canonical bytes."""
    return {**body, "signature": sign(key, tag + canonical_bytes(body)).hex()}


def signed_by(public: bytes, tag: bytes, payload: dict) -> bool:
    """Whether a payload, as it arrived, carries public's signature over
    every field but its signature, as signed() signs them: an added field
    unsigns it. A payload that is not a dict, or whose signature is missing
    or not hex text, is unsigned rather than an error."""
    try:
        signature = bytes.fromhex(payload["signature"])
    except (KeyError, TypeError, ValueError):
        return False
    body = {name: value for name, value in payload.items() if name != "signature"}
    return verify(public, tag + canonical_bytes(body), signature)
