"""Acceptance suite: the eight exit criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

from trustsim import audit, crypto
from trustsim.anchor import Manufacturer, TrustAnchor
from trustsim.attestation import Verifier, recompute_pcr
from trustsim.boot import boot, make_chain
from trustsim.crypto import Rng
from trustsim.device import TrustedDevice, reference_db_for, standard_chain
from trustsim.flows import ATTESTATION_ATTACKS
from trustsim.harness import Simulation
from trustsim.judges import EXPECTED_ATTACK_REASONS
from trustsim.prepaid import (
    PrepaidClient,
    PrepaidOperator,
    make_voucher,
    prepaid_service_request,
    top_up_flow,
    vsim_logon,
)
from trustsim.privacy_ca import PrivacyCa
from trustsim.scenarios import CATALOG, run_scenario

from sha1_oracle import fold_pcr, sha1

SEEDS = list(range(1, 21))


def report(number, ok, text):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_1_attestation_soundness_over_catalog():
    """Honest runs accept; each injected attack rejects with its reason,
    across the whole catalog x 20 seeds, under 10 seconds."""
    started = time.perf_counter()
    failures = []
    for seed in SEEDS:
        for name in CATALOG:
            transcript, rep = run_scenario(name, seed=seed)
            if not rep["ok"]:
                failures.append((name, seed, "honest run failed"))
            if name != "prepaid-tamper":
                bad = [e for e in transcript.events("attestation-verdict")
                       if not e["accepted"]]
                if bad:
                    failures.append((name, seed, f"honest verdict rejected: {bad[0]}"))
            for attack in ATTESTATION_ATTACKS:
                transcript, rep = run_scenario(name, seed=seed, attacks=(attack,))
                expected = EXPECTED_ATTACK_REASONS[attack]
                hit = [e for e in transcript.events("attestation-verdict")
                       if not e["accepted"] and expected in e["reasons"]]
                if not rep["ok"] or not hit:
                    failures.append((name, seed, f"attack {attack} not rejected"))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 10.0
    runs = len(SEEDS) * len(CATALOG) * (1 + len(ATTESTATION_ATTACKS))
    report(1, ok,
           f"attestation completeness/soundness on {runs} runs "
           f"(12 scenarios x 20 seeds x honest+5 attacks) in {elapsed:.2f}s"
           + (f"; failures: {failures[:3]}" if failures else ""))


def test_criterion_2_pcr_fold_equivalence_against_oracle():
    """recompute_pcr(log) equals the quoted PCR on 200 random chains,
    cross-checked with the independent SHA-1 implementation."""
    rng = Rng(2024)
    checked = 0
    for i in range(200):
        length = 1 + rng.randrange(16)
        payloads = [rng.bytes(1 + rng.randrange(64)) for _ in range(length)]
        chain = make_chain([(f"stage-{j}", p) for j, p in enumerate(payloads)])
        world = Rng(i)
        anchor = TrustAnchor.manufacture("dev", world.fork("dev"), Manufacturer(world))
        log = boot(anchor, chain)
        oracle_value = fold_pcr([sha1(p) for p in payloads])
        if not (recompute_pcr(log) == oracle_value == anchor.pcr_value(0)):
            report(2, False, f"fold mismatch on chain {i} (length {length})")
        checked += 1
    report(2, True, f"fold equivalence on {checked} randomized chains "
                    "(lengths 1-16) against the independent SHA-1 oracle")


def test_criterion_3_one_time_aik_and_replenishment_count():
    """27 authentications with batch size 10 -> exactly 3 replenishments;
    no verifier ever accepts one AIK certificate twice."""
    problems = []
    for seed in SEEDS:
        transcript, rep = run_scenario("one-time-aik-auth", seed=seed)
        if not rep["ok"]:
            problems.append((seed, "run failed"))
        replenishments = len(transcript.events("replenishment"))
        if replenishments != 27 // 9:
            problems.append((seed, f"{replenishments} replenishments"))
        seen = set()
        for event in transcript.events("attestation-verdict"):
            if not event["accepted"]:
                continue
            key = (event["verifier"], event["aik_fp"])
            if key in seen:
                problems.append((seed, f"verifier reaccepted {key}"))
            seen.add(key)
        if not audit.check_one_time_aik(transcript).ok:
            problems.append((seed, "auditor one-time-aik failed"))
    report(3, not problems,
           "27 authentications / batch 10 -> exactly 3 replenishments and no "
           f"certificate accepted twice, over {len(SEEDS)} seeds"
           + (f"; problems: {problems[:3]}" if problems else ""))


def test_criterion_4_clone_resilience_both_modes():
    """Unbound: exactly the first of two clones admitted. Bound: zero clones."""
    problems = []
    for seed in SEEDS:
        transcript, rep = run_scenario("clone-attack-unbound", seed=seed)
        admissions = transcript.events("admission")
        admitted = [e["device"] for e in admissions if e["admitted"]]
        if not rep["ok"] or admitted != ["clone"]:
            problems.append(("unbound", seed, admitted))
        transcript, rep = run_scenario("clone-attack-bound", seed=seed)
        admissions = transcript.events("admission")
        admitted = [e["device"] for e in admissions if e["admitted"]]
        if not rep["ok"] or admitted != ["legit"]:
            problems.append(("bound", seed, admitted))
    report(4, not problems,
           f"clone resilience in both registry modes over {len(SEEDS)} seeds"
           + (f"; problems: {problems[:3]}" if problems else ""))


def _conservation_world(seed):
    rng = Rng(seed)
    sim = Simulation(seed, scenario="acceptance-prepaid")
    sim.add_party("mno", "mno")
    sim.add_party("pca", "pca")
    sim.add_party("dev-1", "device")
    mfr = Manufacturer(rng.fork("world"))
    pca = PrivacyCa("pca", rng.fork("world"), {mfr.root.public}, domain_id="prepaid")
    mno_keys = crypto.keygen(rng.fork("mno-keys"))
    statement = crypto.keygen(rng.fork("group"))
    chain = standard_chain((("vsim", b"vsim-client-v1"), ("ppc", b"prepaid-client-v1")))
    device = TrustedDevice.provision("dev-1", rng.fork("dev"), mfr, chain=chain)
    refs = reference_db_for(chain)
    device.boot()
    initial = rng.randrange(120)
    client = PrepaidClient.provision(device, chain, {"calls": 10, "data": 5}, initial,
                                     statement.private)
    device.attach_wallet(pca, 10)
    sim.event("balance-init", device="dev-1", value=initial)
    verifier = Verifier(pca.root.public, refs, rng.fork("verifier"))
    operator = PrepaidOperator(("ppimsi-0", "ppimsi-1", "ppimsi-2"), statement.public)
    return sim, rng, client, operator, verifier, mno_keys, initial


def test_criterion_5_prepaid_conservation():
    """Randomized <=100-step request/voucher sequences conserve the balance;
    zero-balance requests deny; tampered clients get nothing."""
    problems = []
    for seed in (31, 32, 33, 34, 35):
        sim, rng, client, operator, verifier, mno_keys, initial = _conservation_world(seed)
        vsim_logon(sim, client, operator, rng.fork("logon"))
        script = rng.fork("script")
        vouchers = granted = 0
        denials_at_short_balance = True
        steps = 60 + script.randrange(41)  # up to 100
        for step in range(steps):
            if script.randrange(5) == 0:
                voucher = make_voucher(mno_keys, f"v-{step}", 20 + script.randrange(30))
                credited = top_up_flow(sim, client, mno_keys, voucher)
                if credited is not None:
                    vouchers += voucher["value"]
            else:
                service = ("calls", "data")[script.randrange(2)]
                units = 1 + script.randrange(3)
                cost = client.cost_of(service, units)
                balance_before = client.balance()
                outcome = prepaid_service_request(
                    sim, client, operator, verifier, service, units,
                    replenish_via=("pca", "mobile"),
                )
                if outcome is None and balance_before >= cost:
                    denials_at_short_balance = False
                if outcome is not None:
                    granted += outcome
                    if balance_before < cost:
                        denials_at_short_balance = False
        final = client.balance()
        sim.summary["balances"] = {"dev-1": final}
        if final != initial + vouchers - granted or final < 0:
            problems.append((seed, "conservation", initial, vouchers, granted, final))
        if not denials_at_short_balance:
            problems.append((seed, "grant despite short balance"))
        if not audit.check_counter_conservation(sim.finalize()).ok:
            problems.append((seed, "auditor conservation failed"))

    # zero-balance denial and tamper behavior across the catalog seeds
    for seed in SEEDS[:10]:
        transcript, rep = run_scenario("prepaid-zero", seed=seed)
        denial = transcript.events("denial")
        if not rep["ok"] or not denial or denial[0]["code"] != "insufficient-balance":
            problems.append((seed, "zero-balance not denied"))
        transcript, rep = run_scenario("prepaid-tamper", seed=seed)
        if not rep["ok"] or transcript.events("grant") or transcript.events("decrement"):
            problems.append((seed, "tampered run produced grants or decrements"))
    report(5, not problems,
           "balance conservation over randomized <=100-step sequences, "
           "zero-balance denials, and zero grants/decrements under tampering"
           + (f"; problems: {problems[:3]}" if problems else ""))


def test_criterion_6_separation_of_duties_privacy():
    """Charging provider never sees a good, POS owner never a customer
    identity, billing packages carry exactly three fields; the merged
    operator/auth-provider demonstrably can link."""
    problems = []
    for seed in SEEDS[:10]:
        for name in ("pos-sep-duties", "pos-decentralised"):
            transcript, rep = run_scenario(name, seed=seed)
            if not rep["ok"]:
                problems.append((name, seed, "run failed"))
            if transcript.knowledge_query("charging", "good"):
                problems.append((name, seed, "charging provider learned goods"))
            if transcript.knowledge_query("pos-owner", "identity"):
                problems.append((name, seed, "pos owner learned an identity"))
            if not audit.check_billing_package_exactness(transcript).ok:
                problems.append((name, seed, "billing package shape"))
        transcript, rep = run_scenario("pos-mno-merged", seed=seed)
        if not rep["ok"] or not transcript.knowledge_query("mno", "identity"):
            problems.append(("pos-mno-merged", seed, "merged party lacks linkage"))
    report(6, not problems,
           "separation-of-duties privacy on both variants plus the merged "
           "degraded-privacy demonstration, over 10 seeds"
           + (f"; problems: {problems[:3]}" if problems else ""))


def test_criterion_7_facility_enforcer_and_policies():
    """No sensitive value reaches the facility provider; zone policy applies
    on entry and the base policy returns on exit."""
    problems = []
    sensitive = ("identity", "good", "price", "token", "balance", "policy")
    for seed in SEEDS[:10]:
        for name in ("facility-entry", "facility-midnight"):
            transcript, rep = run_scenario(name, seed=seed)
            if not rep["ok"]:
                problems.append((name, seed, "run failed"))
            leaked = set()
            for label in sensitive:
                leaked |= transcript.knowledge_query("external", label)
            if leaked:
                problems.append((name, seed, f"provider learned {len(leaked)} values"))
        transcript, _ = run_scenario("facility-entry", seed=seed)
        applied = transcript.events("policy-applied")
        inside = [e for e in applied if e["location"] == "zone-lab"]
        outside = [e for e in applied if e["location"] == "outside"]
        if not inside or inside[0]["features"]["camera"] != "disabled" \
                or inside[0]["features"]["mms"] != "disabled":
            problems.append(("facility-entry", seed, "zone policy not applied"))
        if not outside or outside[0]["features"] != {
            "camera": "enabled", "mms": "enabled", "calls": "enabled"
        }:
            problems.append(("facility-entry", seed, "policy not restored on exit"))
    report(7, not problems,
           "facility enforcer blindness, in-zone restriction, restore-on-exit, "
           "over 10 seeds" + (f"; problems: {problems[:3]}" if problems else ""))


def test_criterion_8_deterministic_transcripts():
    """(scenario, seed) -> byte-identical transcripts on repeated runs."""
    problems = []
    for name in sorted(CATALOG):
        for seed in (3, 1234567890123456789):
            first = run_scenario(name, seed=seed)[0].to_text()
            second = run_scenario(name, seed=seed)[0].to_text()
            if first != second:
                problems.append((name, seed))
            from trustsim.harness import Transcript

            if Transcript.parse(first).to_text() != first:
                problems.append((name, seed, "round trip"))
    report(8, not problems,
           "byte-identical transcripts for every catalog entry on two seeds, "
           "including serialize/parse round trips"
           + (f"; problems: {problems[:3]}" if problems else ""))
