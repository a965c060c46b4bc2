"""Crypto suite: digest oracle agreement, signature semantics, signed
wire dicts, seeded rng."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustsim import crypto
from trustsim.crypto import Rng, hash160, keygen, sign, verify

from sha1_oracle import sha1

# Known digests from the algorithm definition, confirmed with the oracle.
SHA1_EMPTY = "da39a3ee5e6b4b0d3255bfef95601890afd80709"
SHA1_ABC = "a9993e364706816aba3e25717850c26c9cd0d89d"


def test_hash160_known_vectors():
    assert hash160(b"").hex() == SHA1_EMPTY
    assert hash160(b"abc").hex() == SHA1_ABC


def test_hash160_matches_oracle_on_corpus():
    rng = Rng(7)
    for i in range(100):
        data = rng.bytes(i % 131)
        digest = hash160(data)
        assert len(digest) == 20
        assert digest == sha1(data)


def test_hash160_deterministic():
    m = b"repeatable"
    assert hash160(m) == hash160(m)


def test_keygen_round_trip_and_freshness():
    rng = Rng(1)
    kp = keygen(rng)
    other = keygen(rng)
    assert kp.public != other.public
    msg = b"attest this"
    sig = sign(kp, msg)
    assert verify(kp.public, msg, sig)


def test_keygen_reproducible_across_runs():
    first = [keygen(Rng(42).fork("dev")) for _ in range(1)][0]
    second = keygen(Rng(42).fork("dev"))
    assert first.public == second.public
    assert first.private == second.private


def test_verify_rejects_wrong_message_and_key():
    rng = Rng(2)
    kp1 = keygen(rng)
    kp2 = keygen(rng)
    sig = sign(kp1, b"m")
    assert not verify(kp1.public, b"m2", sig)
    assert not verify(kp2.public, b"m", sig)


def test_verify_never_raises_on_garbage():
    kp = keygen(Rng(3))
    assert verify(kp.public, b"m", b"") is False
    assert verify(kp.public, b"m", b"\x00" * 64) is False
    assert verify(kp.public, b"m", b"short") is False
    assert verify(b"not-a-key", b"m", b"\x00" * 64) is False


def test_no_forgery_without_private_key():
    # The only signatures that verify are ones produced by sign() with
    # the matching private key; random/derived blobs never pass.
    rng = Rng(4)
    kp = keygen(rng)
    msg = b"balance >= 50"
    for _ in range(50):
        assert not verify(kp.public, msg, rng.bytes(64))
    assert not verify(kp.public, msg, crypto.hash256(kp.public + msg) * 2)


def test_public_from_private_matches_keygen():
    kp = keygen(Rng(5))
    assert crypto.public_from_private(kp.private) == kp.public
    sig = sign(kp, b"x")
    assert verify(crypto.public_from_private(kp.private), b"x", sig)


def test_private_key_must_be_32_bytes():
    for private in (b"\x00" * 31, b"\x00" * 33, b"", "x" * 32):
        with pytest.raises(ValueError):
            crypto.public_from_private(private)


# -- the two Ed25519 paths: libsodium, and `cryptography` where it does not load

_OPENSSL = (crypto._openssl_secret_key, crypto._openssl_sign, crypto._openssl_verify)
_SODIUM = (crypto._sodium_secret_key, crypto._sodium_sign, crypto._sodium_verify)
_PATHS = [
    pytest.param(_OPENSSL, id="cryptography"),
    pytest.param(_SODIUM, id="libsodium", marks=pytest.mark.skipif(
        crypto._sodium is None, reason="libsodium did not load")),
]

# RFC 8032 section 7.1, tests 1 and 2: seed, public key, message, signature.
RFC8032_VECTORS = [
    ("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
     "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
     "",
     "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555fb8821590a33bacc61e39"
     "701cf9b46bd25bf5f0595bbe24655141438e7a100b"),
    ("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
     "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
     "72",
     "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da085ac1e43e15996e458f36"
     "13d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"),
]


@pytest.mark.parametrize("path", _PATHS)
@pytest.mark.parametrize("seed, public, message, signature", RFC8032_VECTORS)
def test_rfc8032_vectors(path, seed, public, message, signature):
    derive, sign_, verify_ = path
    secret = derive(bytes.fromhex(seed))
    assert secret == bytes.fromhex(seed + public)
    assert sign_(secret, bytes.fromhex(message)).hex() == signature
    assert verify_(bytes.fromhex(public), bytes.fromhex(message), bytes.fromhex(signature))


@pytest.mark.parametrize("seed, public, message, signature", RFC8032_VECTORS)
def test_rfc8032_vectors_through_the_api(seed, public, message, signature):
    key = crypto.KeyPair(public=bytes.fromhex(public), private=bytes.fromhex(seed))
    assert crypto.public_from_private(key.private) == key.public
    assert sign(key, bytes.fromhex(message)).hex() == signature


_ORDER = 2**252 + 27742317777372353535851937790883648493  # the group order, l
_P = 2**255 - 19
# Encodings of the y of each point of small order, top bit clear.
_SMALL_ORDER = [
    (0).to_bytes(32, "little"),
    (1).to_bytes(32, "little"),
    bytes.fromhex("26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05"),
    bytes.fromhex("c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a"),
    (_P - 1).to_bytes(32, "little"),
    _P.to_bytes(32, "little"),
    (_P + 1).to_bytes(32, "little"),
]
_SMALL_ORDER += [e[:31] + bytes([e[31] | 0x80]) for e in _SMALL_ORDER]  # sign bit set
_IDENTITY_FORGERY = (1).to_bytes(32, "little") + bytes(32)  # R = identity, S = 0


def _flip(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def _identity_r_signature(key, message: bytes) -> bytes:
    """R = identity and S = k * a for the key's secret scalar a: it passes
    the cofactorless equation [S]B = R + [k]A, and only the check that R is
    not of small order rejects it."""
    digest = hashlib.sha512(key.private).digest()
    a = int.from_bytes(digest[:32], "little") & (2**254 - 8) | 2**254
    r = (1).to_bytes(32, "little")
    k = int.from_bytes(hashlib.sha512(r + key.public + message).digest(), "little")
    return r + (k * a % _ORDER).to_bytes(32, "little")


def _verify_corpus():
    """(public, message, signature, expected verdict) cases: only the honest
    signatures verify."""
    rng = Rng(30)
    messages = (b"", b"m", rng.bytes(100))
    keys = [keygen(rng) for _ in range(3)]
    honest = [(k.public, m, sign(k, m)) for k in keys for m in messages]
    corpus = [(*case, True) for case in honest]
    corpus += [(k.public, m, _identity_r_signature(k, m), False) for k in keys for m in messages]
    public, message, signature = honest[-1]
    corpus += [(_flip(public, bit), message, signature, False) for bit in range(256)]
    corpus += [(public, message, _flip(signature, bit), False) for bit in range(512)]
    corpus += [(public, _flip(message, bit), signature, False) for bit in range(0, 800, 7)]
    for public, message, signature in honest:
        s = int.from_bytes(signature[32:], "little")
        for big_s in (s + _ORDER, _ORDER, 2**256 - 1):  # S >= l
            corpus.append((public, message, signature[:32] + big_s.to_bytes(32, "little"),
                           False))
        corpus += [
            (public, message, signature[:63], False),
            (public, message, signature + b"\x00", False),
            (public, message, b"", False),
            (public[:31], message, signature, False),
            (public + b"\x00", message, signature, False),
            (public, message, signature.hex(), False),
            (public, message, None, False),
            (public, message, list(signature), False),
            (public.hex(), message, signature, False),
        ]
        for encoding in _SMALL_ORDER:
            corpus += [
                (encoding, message, signature, False),  # as the key
                (encoding, message, _IDENTITY_FORGERY, False),
                (encoding, message, encoding + bytes(32), False),
                (public, message, encoding + signature[32:], False),  # as R
                (public, message, encoding + bytes(32), False),
            ]
    for n in range(64):  # the identity forgery on many messages
        corpus += [(encoding, b"%d" % n, _IDENTITY_FORGERY, False)
                   for encoding in _SMALL_ORDER[:2]]
    return corpus


def test_both_paths_give_the_same_verdicts(monkeypatch):
    corpus = _verify_corpus()
    expected = [ok for *_, ok in corpus]
    assert expected.count(True) == 9

    def verdicts(path_verify):
        monkeypatch.setattr(crypto, "_verify", path_verify)
        return [verify(public, message, signature) for public, message, signature, _ in corpus]

    assert verdicts(crypto._openssl_verify) == expected
    if crypto._sodium is None:
        pytest.skip("libsodium did not load: only the cryptography path ran")
    assert verdicts(crypto._sodium_verify) == expected


def test_rng_same_seed_same_stream():
    a, b = Rng(99), Rng(99)
    assert a.bytes(64) == b.bytes(64)
    assert [a.randrange(10) for _ in range(20)] == [b.randrange(10) for _ in range(20)]


def test_rng_forks_are_independent_and_stable():
    base = Rng(8)
    fork1 = base.fork("alpha")
    base.bytes(100)  # draining the parent must not affect the fork
    fork2 = Rng(8).fork("alpha")
    assert fork1.bytes(32) == fork2.bytes(32)
    assert Rng(8).fork("alpha").bytes(8) != Rng(8).fork("beta").bytes(8)


def test_rng_rejects_bad_seed():
    with pytest.raises(ValueError):
        Rng(-1)
    with pytest.raises(ValueError):
        Rng(2**64)


def test_rng_shuffled_is_permutation():
    rng = Rng(11)
    items = list(range(17))
    out = rng.shuffled(items)
    assert sorted(out) == items
    assert items == list(range(17))  # input untouched


def test_canonical_bytes_stable():
    a = crypto.canonical_bytes({"b": 1, "a": [2, {"z": 3}]})
    b = crypto.canonical_bytes({"a": [2, {"z": 3}], "b": 1})
    assert a == b


# -- signed wire dicts --------------------------------------------------------

_KEY, _OTHER_KEY = keygen(Rng(20)), keygen(Rng(21))
_TAG = b"test:"
_NAMES = st.text(max_size=6).filter(lambda name: name != "signature")
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)


@settings(max_examples=100, deadline=None)
@given(body=st.dictionaries(_NAMES, _VALUES, min_size=1, max_size=5), data=st.data())
def test_signed_round_trips_and_any_edit_unsigns_it(body, data):
    wire = crypto.signed(_KEY, _TAG, body)
    assert wire == {**body, "signature": wire["signature"]}
    assert crypto.signed_by(_KEY.public, _TAG, wire)
    assert crypto.signed_by(_KEY.public, _TAG, json.loads(json.dumps(wire)))

    name = data.draw(st.sampled_from(tuple(body)))
    extra = data.draw(_NAMES.filter(lambda n: n not in body))
    missing = {k: v for k, v in wire.items() if k != name}
    signature = wire["signature"]
    unsigned = [
        (_KEY.public, _TAG, {**wire, name: [wire[name]]}),  # changed field
        (_KEY.public, _TAG, missing),  # missing field
        (_KEY.public, _TAG, {**wire, extra: 0}),  # an added field unsigns
        (_KEY.public, _TAG, {**wire, "signature": "zz" + signature[2:]}),  # not hex
        (_KEY.public, _TAG, {**wire, "signature": 7}),  # not a string
        (_KEY.public, _TAG, {**wire, "signature": bytes.fromhex(signature)}),
        (_KEY.public, _TAG, {**wire, "signature": signature[:-2]}),  # truncated
        (_KEY.public, _TAG, {k: v for k, v in wire.items() if k != "signature"}),
        (_KEY.public, _TAG, [wire]),  # not a dict
        (_KEY.public, _TAG, signature),
        (_KEY.public, _TAG, None),
        (_OTHER_KEY.public, _TAG, wire),  # another key
        (_KEY.public, b"other:", wire),  # another tag
    ]
    for public, tag, payload in unsigned:
        assert not crypto.signed_by(public, tag, payload)
