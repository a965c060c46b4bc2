"""Trust anchor: extend semantics, one-time AIKs, shielded slots."""

import pytest

from trustsim.anchor import (
    Manufacturer,
    TrustAnchor,
    verify_ek_certificate,
    verify_ek_response,
)
from trustsim.crypto import ZERO_DIGEST, Rng, hash160, verify
from trustsim.errors import ProtocolError

from sha1_oracle import fold_pcr, sha1

# extend(zero register, m) with m = sha1(b"component-payload"), from the oracle.
MEASURE_COMPONENT_PAYLOAD = "5c887df5a5a6298b20699fb4ec2812c13773037b"
EXTEND_ZERO_COMPONENT = "0414e057f4f2ad6aa585a4639fb0c190b2dc7877"


def make_anchor(seed=1, device="dev-1"):
    rng = Rng(seed)
    return TrustAnchor.manufacture(device, rng.fork(device), Manufacturer(rng))


def signed_by_its_aik(quote) -> bool:
    """The quote's signature check of Verifier.verify."""
    return verify(quote.aik_public, quote.signed_payload(), quote.signature)


def test_reset_bank_is_all_zero():
    anchor = make_anchor()
    for i in range(24):
        assert anchor.pcr_value(i) == ZERO_DIGEST


def test_extend_matches_oracle_frozen_value():
    anchor = make_anchor()
    m = sha1(b"component-payload")
    assert m.hex() == MEASURE_COMPONENT_PAYLOAD
    anchor.extend(0, m)
    assert anchor.pcr_value(0).hex() == EXTEND_ZERO_COMPONENT
    # only the extended register changed
    assert all(anchor.pcr_value(i) == ZERO_DIGEST for i in range(1, 24))


def test_extend_sequence_equals_oracle_fold():
    anchor = make_anchor()
    rng = Rng(5)
    measurements = [sha1(rng.bytes(33)) for _ in range(8)]
    for m in measurements:
        anchor.extend(3, m)
    assert anchor.pcr_value(3) == fold_pcr(measurements)


def test_extend_index_and_length_validation():
    anchor = make_anchor()
    with pytest.raises(IndexError):
        anchor.extend(24, ZERO_DIGEST)
    with pytest.raises(IndexError):
        anchor.pcr_value(-1)
    with pytest.raises(ValueError):
        anchor.extend(0, b"short")


def test_aik_batch_freshness_and_determinism():
    anchor = make_anchor()
    batch1 = anchor.create_aik_batch(10)
    batch2 = anchor.create_aik_batch(10)
    publics = [r.key.public for r in batch1 + batch2]
    assert len(set(publics)) == 20
    # an aik_id is "<batch id>-aik<index>"
    assert batch1[0].aik_id.rsplit("-aik", 1)[0] != batch2[0].aik_id.rsplit("-aik", 1)[0]

    # same seed, same call sequence -> identical key material
    again = make_anchor().create_aik_batch(10)
    assert [r.key.public for r in again] == [r.key.public for r in batch1]


def test_aik_batch_minimum_size():
    with pytest.raises(ValueError):
        make_anchor().create_aik_batch(1)


def test_quote_round_trip_and_one_time_policy():
    anchor = make_anchor()
    record = anchor.create_aik_batch(2)[0]
    nonce = b"n" * 16
    quote = anchor.quote(record.aik_id, [0, 1], nonce)
    assert signed_by_its_aik(quote)
    assert quote.pcr_values == (ZERO_DIGEST.hex(), ZERO_DIGEST.hex())

    with pytest.raises(ProtocolError) as err:
        anchor.quote(record.aik_id, [0], nonce)
    assert err.value.code == "aik-already-used"

    with pytest.raises(ProtocolError) as err:
        anchor.quote("no-such-aik", [0], nonce)
    assert err.value.code == "unknown-aik"


def test_quote_empty_selection_binds_only_nonce():
    anchor = make_anchor()
    record = anchor.create_aik_batch(2)[0]
    quote = anchor.quote(record.aik_id, [], b"m" * 16)
    assert quote.pcr_selection == ()
    assert signed_by_its_aik(quote)


def test_quote_any_field_change_invalidates_signature():
    anchor = make_anchor()
    record = anchor.create_aik_batch(2)[0]
    quote = anchor.quote(record.aik_id, [0], b"q" * 16)
    import dataclasses

    for change in (
        {"pcr_selection": (1,)},
        {"pcr_values": (hash160(b"x").hex(),)},
        {"nonce": b"r" * 16},
    ):
        mutated = dataclasses.replace(quote, **change)
        assert not signed_by_its_aik(mutated)


def test_ek_challenge_response_round_trip():
    anchor = make_anchor()
    other = make_anchor(seed=2, device="dev-2")
    challenge = b"c" * 16
    sig = anchor.ek_challenge_response(challenge)
    assert verify_ek_response(anchor.ek_certificate.ek_public, challenge, sig)
    assert not verify_ek_response(anchor.ek_certificate.ek_public, b"d" * 16, sig)
    # responses are not interchangeable between anchors
    assert not verify_ek_response(other.ek_certificate.ek_public, challenge, sig)


def test_ek_certificate_chains_to_manufacturer():
    rng = Rng(9)
    mfr = Manufacturer(rng)
    anchor = TrustAnchor.manufacture("dev-9", rng.fork("dev-9"), mfr)
    assert verify_ek_certificate(anchor.ek_certificate, {mfr.root.public})
    assert not verify_ek_certificate(anchor.ek_certificate, {b"other-root"})


def test_slot_decrement_and_floor():
    anchor = make_anchor()
    anchor.define_slot("balance", 500, {0: ZERO_DIGEST})
    assert anchor.slot_decrement("balance", 50) == 450
    assert anchor.slot_read("balance") == 450

    anchor.define_slot("empty", 0, {})
    with pytest.raises(ProtocolError) as err:
        anchor.slot_decrement("empty", 1)
    assert err.value.code == "insufficient-balance"
    assert anchor.slot_read("empty") == 0


def test_slot_sealed_against_state():
    anchor = make_anchor()
    honest = anchor.pcr_value(0)
    anchor.define_slot("balance", 100, {0: honest})
    assert anchor.slot_read("balance") == 100
    anchor.extend(0, hash160(b"unexpected code"))
    with pytest.raises(ProtocolError) as err:
        anchor.slot_read("balance")
    assert err.value.code == "sealed-against-state"
    with pytest.raises(ProtocolError):
        anchor.slot_decrement("balance", 1)


def test_slot_credit_gated_by_same_policy():
    anchor = make_anchor()
    anchor.define_slot("balance", 0, {0: ZERO_DIGEST})
    assert anchor.slot_credit("balance", 100) == 100
    anchor.extend(0, hash160(b"tamper"))
    with pytest.raises(ProtocolError):
        anchor.slot_credit("balance", 1)


@pytest.mark.parametrize("move", ["slot_decrement", "slot_credit"])
def test_counter_moves_refuse_a_negative_amount_and_a_non_counter(move):
    anchor = make_anchor()
    anchor.define_slot("balance", 10, {})
    anchor.define_slot("blob", b"opaque", {})
    with pytest.raises(ValueError):
        getattr(anchor, move)("balance", -1)
    with pytest.raises(ValueError):
        getattr(anchor, move)("blob", 1)
    assert anchor.slot_read("balance") == 10 and anchor.slot_read("blob") == b"opaque"
