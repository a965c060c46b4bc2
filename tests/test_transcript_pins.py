"""Pinned transcript and report bytes for the catalog at seed 1.

The determinism tests elsewhere only check that two runs of the same code
agree, which cannot catch a refactor that changes what a scenario puts on
the record. These pins can: each is the SHA-256 of the transcript text and
of the report exactly as `trustsim run` writes it, for every clean catalog
scenario plus the scenario-specific attacks, and for two longer runs that
replenish. One more digest covers every scenario under every generic
attestation attack, so a world that hands an attack to the wrong device
shows.

A deliberate protocol change (new message, reordered step, new report row)
must update the pins here, and the change that does so must say so.

The last such change put the prepaid-happy device's EK public key into the
snapshot summary (`ek_publics`), because no message carries it and the
anonymity row, now judged from the transcript alone, needs it. That
changed three transcript digests: the clean prepaid-happy pin, the
replenishing prepaid-happy variant pin and GENERIC_ATTACKS_SHA. No report
digest changed.
Regenerate a pin by running the scenario and hashing the two files
`trustsim run <name> --seed 1 [--attack A]` writes.
"""

import hashlib
import json

import pytest

from trustsim.flows import ATTESTATION_ATTACKS
from trustsim.scenarios import CATALOG, run_scenario

SEED = 1

# (scenario, attacks, sha256 of transcript text, sha256 of report file)
PINS = (
    ("clone-attack-bound", (), "4545200e5531c96dcef2ac62fc6806186ad323cac4494bbec39563fbd6b7fbc6",
     "b2e17990f504901a2afb53780b42c40ec394377e39560d174a55da14985022e2"),
    ("clone-attack-unbound", (), "9672fb3db47bdd981c3e659ceeff628893c3d208a5d8a85aae912c810acc9504",
     "0ede3c9faa95a8efb753b4a0baed932ec149841e07aefa5a292a0f8dfcdf78f6"),
    ("facility-entry", (), "25ec2177ff91f8d69baca06aa87dc390040d50982ad6d7b55926b8cae2b33cc0",
     "253cbe8fcac7b5467f127d7c9bf5f6f27c78cbd9f73f8f7209c2220ccd321c9b"),
    ("facility-midnight", (), "e4c999cc6a061d00054125f6fb49d73b59c75fbfc5360999a658cba2f03315b6",
     "54722ee9095a8c8eebdd52ad134118391ef4c9fe3141231a159b9db2064e00bd"),
    ("one-time-aik-auth", (), "0e508e72abcb16afdbbb6467cbfa5031dbcfb15ae58b4662f038856ee27d9389",
     "ad6be487437098d8abf1380d8112dec2edea5f6b7cd06f68c189763cd0dd2da3"),
    ("pos-decentralised", (), "88280de8095013bc02c75032b3f6ef558f0a566a715e19ff27fd2189d3c64d3f",
     "9b6175eb9e4af88be387e9bbdff50b9063c1ec6ef224fe4e458d5d9471a8d1ba"),
    ("pos-fig4", (), "448e6d8acbf19a7126218671175bd08463072cd4eacc9be66d9967d965436250",
     "3741bec6913f920dcb21ff528e0ba53315ec460e11b40b98ecdc56be4b9d8dc0"),
    ("pos-mno-merged", (), "2e6f732cf97d89106036ba19b72b765640d171e5f65da64c7e843b25fe950a9f",
     "53ccc3f5684c1e220a2ab9e71bb14cefc62fbb685a02499e4d5b93de0c92e709"),
    ("pos-sep-duties", (), "c9db6c0832a67041445ace95c72aad8cb3778c2aa81beeef2bf2661b9b999923",
     "febbb9acd0579e1a5826af08e7d3c091d1485f34300a97fe454d2ef6282f4ad3"),
    ("prepaid-happy", (), "3e254c9cb1397c56de16997af9c2122e9fcaa97b373c8be53d8d0be8f7a812f1",
     "c7708102b1509b2f7d6060467b10cb1c7594c4940daf1dc318c92d050a677ba1"),
    ("prepaid-tamper", (), "6fc78394c8efe4ffd4267074639bda4afb6371e644fd7a34824af7b238ce3a9c",
     "a313234f593672c97e9120d2f315a58c196643dcdaa1ac23491c67c72bd803c3"),
    ("prepaid-zero", (), "e6ed2dbabcf19cc5457f07102173a796d196ef0d26156f192b18450c364c207b",
     "8a896892dd986ce6e8aa53cd919e47a595b7bc677a069f89d6edad49294cd4af"),
    ("pos-fig4", ("ack-strip",), "5d1dd37f25de8bcdec0766960ba451e2fb215581fbe2026946a10755187e79de",
     "f073d8cb87c6a6bff5ccfd2321a8d69f6fa0e8a42ee5ce62f0c43d66e5351c98"),
    ("pos-sep-duties", ("reuse-token",), "5dcd79741ca51b317133621ee1db53bfcf5b2275d14d0b72b811f1b4c7c5d442",
     "9d2a4885f61b91c73fd93ebad90884c047973dbdf059568e6c9430597157fd64"),
    ("pos-decentralised", ("reuse-token",), "cdd6052f8af4b16612a8c8346dfa773fe21e5da03d50b6d4e79db50d3a15a522",
     "9bc6014d15b7f69444c6fecca7c2fd3c2659d51e694198c2a3c6d1746b9d6f34"),
    ("prepaid-zero", ("voucher-replay",), "a65e2f6d07ec8936d87e7e45ee8a655c155fcdb96587b14c8b6714af9e398346",
     "72337b2ee26f33453b08ca85c085279b0ec6523c4a9e014adc820f5983a8a4bf"),
)

# (scenario, variants, sha256 of transcript text, sha256 of report file):
# runs long enough to replenish 4 and 3 times. The prepaid report fails
# its anonymity row, because replenish-certs is sealed to the device id; the
# row's detail names the first such message, m00065.
VARIANT_PINS = (
    ("one-time-aik-auth", {"auth_count": 40},
     "82c56b209bcde8ba6d79b9dcfaa58591419854afd9c8fa5e7f07ad2edc9bf27f",
     "7010b5d7019a39dacee52016b0146392daf9a29b25a54fba503818dd55df6a5d"),
    ("prepaid-happy", {"requests": [["calls", 1], ["data", 2]] * 15, "vouchers": [50, 50, 50]},
     "abc1af84ae09f87e1726f2c24f755962d21f65d32d360bcde5ad116a3f6b68ad",
     "2f0ec763960ffc1dae144f0a13a7b14d50e97c27cc5b23ac1dcf24eb87529831"),
)

# sha256 over the transcript text and report file of every (scenario,
# generic attack) run, scenarios in catalog order, attacks in
# ATTESTATION_ATTACKS order
GENERIC_ATTACKS_SHA = "e65d9c958ba6790fa5278bbc92bd20bc5822ac48bbdced289b3e573b76fba577"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _report_text(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_pins_cover_every_clean_scenario_and_specific_attack():
    clean = {name for name, attacks, _, _ in PINS if not attacks}
    assert clean == set(CATALOG)
    assert len(PINS) == 16
    assert len(VARIANT_PINS) == 2


@pytest.mark.parametrize("name,attacks,transcript_sha,report_sha", PINS,
                         ids=["+".join((p[0],) + p[1]) for p in PINS])
def test_transcript_and_report_bytes_are_pinned(name, attacks, transcript_sha, report_sha):
    transcript, report = run_scenario(name, SEED, attacks)
    assert _digest(transcript.to_text()) == transcript_sha
    assert _digest(_report_text(report)) == report_sha


@pytest.mark.parametrize("name,variants,transcript_sha,report_sha", VARIANT_PINS,
                         ids=[p[0] for p in VARIANT_PINS])
def test_replenishing_runs_are_pinned(name, variants, transcript_sha, report_sha):
    transcript, report = run_scenario(name, SEED, (), variants)
    assert len(transcript.events("replenishment")) >= 3
    assert _digest(transcript.to_text()) == transcript_sha
    assert _digest(_report_text(report)) == report_sha


def test_every_generic_attack_run_is_pinned():
    digest = hashlib.sha256()
    runs = 0
    for name, script in CATALOG.items():
        assert set(ATTESTATION_ATTACKS) <= set(script.attacks)
        for attack in ATTESTATION_ATTACKS:
            transcript, report = run_scenario(name, SEED, (attack,))
            digest.update(transcript.to_text().encode("utf-8"))
            digest.update(_report_text(report).encode("utf-8"))
            runs += 1
    assert runs == 60
    assert digest.hexdigest() == GENERIC_ATTACKS_SHA
