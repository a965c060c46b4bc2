"""Measured boot: fold equivalence, tamper and log-forgery edits."""

import pytest

from trustsim import boot as mb
from trustsim.anchor import Manufacturer, TrustAnchor
from trustsim.attestation import recompute_pcr
from trustsim.crypto import Rng, hash160
from trustsim.device import reference_db_for
from trustsim.errors import ProtocolError

from sha1_oracle import fold_pcr, sha1


def make_anchor(seed=1):
    rng = Rng(seed)
    return TrustAnchor.manufacture("dev-1", rng.fork("dev"), Manufacturer(rng))


def default_chain():
    return mb.make_chain(
        [
            ("crtm", b"crtm-code"),
            ("bios", b"bios-code"),
            ("os", b"os-image"),
            ("app", b"app-bundle"),
            ("enforcer", b"policy-enforcer"),
        ]
    )


def test_single_component_boot_matches_two_step_oracle():
    anchor = make_anchor()
    chain = mb.make_chain([("crtm", b"crtm-code")])
    log = mb.boot(anchor, chain)
    expected = sha1(b"\x00" * 20 + sha1(b"crtm-code"))
    assert anchor.pcr_value(0) == expected
    assert len(log.entries) == 1
    assert log.entries[0].measurement == sha1(b"crtm-code").hex()


def test_boot_log_length_and_final_pcr_fold():
    anchor = make_anchor()
    chain = default_chain()
    log = mb.boot(anchor, chain)
    assert len(log.entries) == len(chain)
    measurements = [sha1(c.payload) for c in chain]
    assert anchor.pcr_value(0) == fold_pcr(measurements)


def test_boot_rejects_empty_chain_and_dirty_pcr():
    anchor = make_anchor()
    with pytest.raises(ValueError):
        mb.boot(anchor, [])
    mb.boot(anchor, default_chain())
    with pytest.raises(ProtocolError) as err:
        mb.boot(anchor, default_chain())
    assert err.value.code == "pcr-not-reset"


def test_tamper_changes_only_named_component():
    chain = default_chain()
    tampered = mb.tamper(chain, "os", b"rootkit")
    assert [c.name for c in tampered] == [c.name for c in chain]
    assert tampered[2].payload == b"rootkit"
    assert tampered[1].payload == chain[1].payload
    with pytest.raises(ProtocolError):
        mb.tamper(chain, "missing", b"x")


def test_tamper_with_identical_payload_is_a_no_op():
    chain = default_chain()
    same = mb.tamper(chain, "os", b"os-image")
    a1, a2 = make_anchor(), make_anchor()
    mb.boot(a1, chain)
    mb.boot(a2, same)
    assert a1.pcr_value(0) == a2.pcr_value(0)


def test_tamper_diverges_from_reference_db():
    chain = default_chain()
    refs = reference_db_for(chain)
    log = mb.boot(make_anchor(), mb.tamper(chain, "app", b"evil"))
    entry = next(e for e in log.entries if e.component == "app")
    assert refs["app"] != entry.measurement


def test_forge_log_leaves_pcr_alone():
    anchor = make_anchor()
    log = mb.boot(anchor, default_chain())
    before = anchor.pcr_value(0)
    forged = mb.forge_log(log, 0, hash160(b"fake"))
    assert anchor.pcr_value(0) == before
    assert forged.entries[0].measurement == hash160(b"fake").hex()
    assert log.entries[0].measurement != forged.entries[0].measurement
    with pytest.raises(IndexError):
        mb.forge_log(log, 99, hash160(b"fake"))


def test_forge_with_true_digest_is_harmless():
    log = mb.boot(make_anchor(), default_chain())
    true_digest = bytes.fromhex(log.entries[2].measurement)
    forged = mb.forge_log(log, 2, true_digest)
    assert [e.measurement for e in forged.entries] == [e.measurement for e in log.entries]


def test_single_bit_flips_always_change_final_pcr():
    chain = default_chain()
    baseline_pcr = None
    anchor = make_anchor()
    mb.boot(anchor, chain)
    baseline_pcr = anchor.pcr_value(0)

    rng = Rng(1234)
    for _ in range(50):
        target = chain[rng.randrange(len(chain))]
        payload = bytearray(target.payload)
        bit = rng.randrange(len(payload) * 8)
        payload[bit // 8] ^= 1 << (bit % 8)
        flipped_chain = mb.tamper(chain, target.name, bytes(payload))
        a = make_anchor()
        mb.boot(a, flipped_chain)
        assert a.pcr_value(0) != baseline_pcr


def test_log_serialization_round_trip():
    log = mb.boot(make_anchor(), default_chain())
    rows = log.to_fields()
    back = mb.MeasurementLog.from_fields(rows)
    assert back.to_fields() == rows


def test_measure_is_the_log_boot_writes():
    chain = default_chain()
    anchor = make_anchor()
    booted = mb.boot(anchor, chain)
    assert mb.measure(chain).to_fields() == booted.to_fields()
    assert {e.pcr_index for e in booted.entries} == {mb.BOOT_PCR}
    assert recompute_pcr(mb.measure(chain)) == fold_pcr([sha1(c.payload) for c in chain])
    assert anchor.pcr_value(mb.BOOT_PCR) == recompute_pcr(booted)
