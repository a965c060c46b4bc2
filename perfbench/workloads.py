"""Workload inputs for the trustsim benchmark, and the outcomes each must show.

Every input is drawn from ``random.Random`` seeded with the workload name and
the ``--seed`` value. The simulator never sees that seed: it receives only
the generated scenario seeds, session lengths, and request/voucher schedules.

One *pass* is the list of jobs a workload runs; a timed run repeats the same
pass, so every pass does identical work and yields identical transcripts.
Session lengths come in pairs that sum to a constant (the range endpoints
plus one drawn pair), so the work in a pass, and with it every rate, barely
depends on the seed while the lengths themselves do.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

ATTESTATION_ATTACKS = ("forge-log", "tamper", "replay-aik", "wrong-nonce", "expired-cert")

# The catalog as it stands, fixed here so that a later scenario added to the
# program does not silently change the workload: 12 clean runs, 12 x 5
# attestation attacks and 4 scenario-specific attacks = 76 combinations.
CATALOG_ATTACKS = {
    "one-time-aik-auth": (),
    "clone-attack-bound": (),
    "clone-attack-unbound": (),
    "prepaid-happy": (),
    "prepaid-tamper": (),
    "prepaid-zero": ("voucher-replay",),
    "pos-fig4": ("ack-strip",),
    "pos-sep-duties": ("reuse-token",),
    "pos-decentralised": ("reuse-token",),
    "pos-mno-merged": (),
    "facility-entry": (),
    "facility-midnight": (),
}

# The report row that proves the protocol rejected each injected attack.
EXPECTED_REJECTION_ROW = {
    **{name: f"attack-{name}-rejected" for name in ATTESTATION_ATTACKS},
    "ack-strip": "attack-ack-strip-no-delivery",
    "reuse-token": "attack-reuse-token-rejected",
    "voucher-replay": "attack-voucher-replay-rejected",
}

DEFAULT_BATCH_SIZE = 10  # privacy CA batch size every scenario here runs with

# long-session: one-time-aik-auth login counts. Each pass runs both endpoints
# and one pair (n, LOGIN_LO + LOGIN_HI - n) with n drawn from LOGIN_DRAWN.
LOGIN_LO, LOGIN_HI = 200, 1000
LOGIN_DRAWN = (400, 600)

# prepaid-metering: request counts per schedule, paired the same way.
REQUEST_LO, REQUEST_HI = 200, 600
REQUEST_DRAWN = (300, 400)
UNITS = (1, 5)  # units per request, uniform; services "calls" or "data"
VOUCHER_SHARE = (0.33, 0.5)  # vouchers per request in a happy schedule
VOUCHER_VALUE = (20, 100)
BALANCE_MARGIN = (0, 100)  # initial balance above the least that never runs dry
TARIFFS = {"calls": 10, "data": 5}  # the prepaid scenarios' default tariffs

# Known defects, counted in error_ratio / assertion_fail_ratio.
DEFECT_A = "a:prepaid-happy-replenish-leaks-device-id"
DEFECT_B = "b:prepaid-tamper-wallet-empty"
DEFECTS = {
    DEFECT_A: "prepaid-happy fails anonymity-no-device-identity-on-wire once a "
              "replenishment happens: dev-1 is in the sealed reader list of replenish-certs",
    DEFECT_B: "prepaid-tamper raises ProtocolError wallet-empty on the request after "
              "the batch runs out, because _run_prepaid_tamper passes no replenish_via",
}


@dataclass(frozen=True)
class Job:
    scenario: str
    seed: int
    attacks: tuple = ()
    variants: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        size = self.variants.get("auth_count") or len(self.variants.get("requests", ()))
        return "+".join((self.scenario,) + self.attacks) + (f"[{size}]" if size else "")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _seed(rng: random.Random) -> int:
    return rng.getrandbits(64)


def _paired_lengths(rng, lo, hi, drawn) -> tuple:
    n = rng.randint(*drawn)
    return (lo, hi, n, lo + hi - n)


def catalog_sweep(seed: int) -> list:
    rng = _rng("catalog-sweep", seed)
    jobs = []
    for scenario, extra in CATALOG_ATTACKS.items():
        jobs.append(Job(scenario, _seed(rng)))
        for attack in ATTESTATION_ATTACKS + extra:
            jobs.append(Job(scenario, _seed(rng), (attack,)))
    return jobs


def long_session(seed: int) -> list:
    rng = _rng("long-session", seed)
    return [
        Job("one-time-aik-auth", _seed(rng), variants={"auth_count": n})
        for n in _paired_lengths(rng, LOGIN_LO, LOGIN_HI, LOGIN_DRAWN)
    ]


def _requests(rng, n: int) -> list:
    return [[rng.choice(("calls", "data")), rng.randint(*UNITS)] for _ in range(n)]


def _happy_variants(rng, n: int) -> dict:
    requests = _requests(rng, n)
    vouchers = [rng.randint(*VOUCHER_VALUE)
                for _ in range(int(n * rng.uniform(*VOUCHER_SHARE)))]
    # Least initial balance that covers every request: voucher i is credited
    # right after request i, so request i may spend vouchers 0..i-1.
    need = spent = credited = 0
    for i, (service, units) in enumerate(requests):
        spent += TARIFFS[service] * units
        need = max(need, spent - credited)
        if i < len(vouchers):
            credited += vouchers[i]
    return {"requests": requests, "vouchers": vouchers,
            "initial_balance": need + rng.randint(*BALANCE_MARGIN)}


def prepaid_metering(seed: int) -> list:
    rng = _rng("prepaid-metering", seed)
    jobs = []
    for n in _paired_lengths(rng, REQUEST_LO, REQUEST_HI, REQUEST_DRAWN):
        jobs.append(Job("prepaid-happy", _seed(rng), variants=_happy_variants(rng, n)))
        jobs.append(Job("prepaid-tamper", _seed(rng), variants={"requests": _requests(rng, n)}))
    return jobs


WORKLOADS = {
    "catalog-sweep": catalog_sweep,
    "long-session": long_session,
    "prepaid-metering": prepaid_metering,
}


def classify_error(job: Job, exc: Exception) -> str | None:
    """The known defect a raised run is, or None for an unexplained error."""
    if (
        job.scenario == "prepaid-tamper"
        and getattr(exc, "code", None) == "wallet-empty"
        and len(job.variants.get("requests", ())) > DEFAULT_BATCH_SIZE
    ):
        return DEFECT_B
    return None


def classify_failed_row(job: Job, row: dict, replenishments: int) -> str | None:
    """The known defect a failing report row is, or None if unexplained."""
    if (
        job.scenario == "prepaid-happy"
        and row["name"] == "anonymity-no-device-identity-on-wire"
        and replenishments > 0
    ):
        return DEFECT_A
    return None
