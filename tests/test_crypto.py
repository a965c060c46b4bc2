"""Crypto suite: digest oracle agreement, signature semantics, signed
wire dicts, seeded rng."""

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
    fields = tuple(body)
    assert wire == {**body, "signature": wire["signature"]}
    assert crypto.signed_by(_KEY.public, _TAG, wire, fields)
    assert crypto.signed_by(_KEY.public, _TAG, json.loads(json.dumps(wire)), fields)

    name = data.draw(st.sampled_from(fields))
    extra = data.draw(_NAMES.filter(lambda n: n not in body))
    missing = {k: v for k, v in wire.items() if k != name}
    signature = wire["signature"]
    # a field the check does not name is not covered by the signature
    assert crypto.signed_by(_KEY.public, _TAG, {**wire, extra: 0}, fields)
    unsigned = [
        (_KEY.public, _TAG, {**wire, name: [wire[name]]}, fields),  # changed field
        (_KEY.public, _TAG, missing, fields),  # missing field
        (_KEY.public, _TAG, {**wire, extra: 0}, fields + (extra,)),  # extra field
        (_KEY.public, _TAG, {**wire, "signature": "zz" + signature[2:]}, fields),  # not hex
        (_KEY.public, _TAG, {**wire, "signature": 7}, fields),  # not a string
        (_KEY.public, _TAG, {**wire, "signature": bytes.fromhex(signature)}, fields),
        (_KEY.public, _TAG, {**wire, "signature": signature[:-2]}, fields),  # truncated
        (_KEY.public, _TAG, {k: v for k, v in wire.items() if k != "signature"}, fields),
        (_OTHER_KEY.public, _TAG, wire, fields),  # another key
        (_KEY.public, b"other:", wire, fields),  # another tag
    ]
    for public, tag, payload, names in unsigned:
        assert not crypto.signed_by(public, tag, payload, names)
