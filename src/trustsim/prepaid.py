"""Anonymous prepaid phone: group logon via a reserved-IMSI pool, a
shielded running total, attested nonzero-balance service grants, vouchers.

The whole prepaid group is provisioned identically — shared IMSI pool and
a shared statement key sealed to the honest boot state — so members are
indistinguishable to the operator. No message in the operational protocol
carries an individual device identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import crypto
from .attestation import Verifier, recompute_pcr
from .boot import measure
from .crypto import KeyPair, Rng
from .device import TrustedDevice
from .errors import ProtocolError
from .flows import attest_flow
from .harness import CHANNEL_MOBILE, MNO

BALANCE_SLOT = "prepaid-balance"
KEY_SLOT = "ppc-statement-key"

_STATEMENT_TAG = b"ppc-stmt:"
_VOUCHER_TAG = b"voucher:"


@dataclass
class PrepaidClient:
    """Device-side ppC: balance slot, sealed statement key, voucher replay store."""

    device: TrustedDevice
    tariffs: dict  # service -> cost per unit
    used_vouchers: set = field(default_factory=set, init=False)

    @staticmethod
    def provision(device: TrustedDevice, chain, tariffs: dict, balance: int,
                  statement_private: bytes) -> "PrepaidClient":
        """Seal balance and statement key to the boot state of the honest
        chain: a device booted into any other state cannot read either slot.
        """
        policy = {0: recompute_pcr(measure(chain), 0)}
        device.anchor.define_slot(BALANCE_SLOT, balance, policy)
        device.anchor.define_slot(KEY_SLOT, statement_private, policy)
        return PrepaidClient(device=device, tariffs=dict(tariffs))

    def cost_of(self, service: str, units: int) -> int:
        if units <= 0:
            raise ValueError("units must be positive")
        if service not in self.tariffs:
            raise ProtocolError("unknown-service", service)
        return self.tariffs[service] * units

    def balance(self) -> int:
        return self.device.anchor.slot_read(BALANCE_SLOT)

    def sign_statement(self, service: str, units: int, cost: int, nonce: bytes) -> dict:
        """The ppC's "balance covers this" assertion, bound to the attestation
        nonce. Needs the sealed key, so it only exists on an untampered stack."""
        key_bytes = self.device.anchor.slot_read(KEY_SLOT)
        if self.device.anchor.slot_read(BALANCE_SLOT) < cost:
            raise ProtocolError("insufficient-balance")
        key = KeyPair(crypto.public_from_private(key_bytes), key_bytes)
        return crypto.signed(key, _STATEMENT_TAG, {"service": service, "units": units,
                                                   "cost": cost, "nonce": nonce.hex()})

    def decrement(self, cost: int) -> int:
        return self.device.anchor.slot_decrement(BALANCE_SLOT, cost)

    def apply_voucher(self, voucher: dict, mno_public: bytes) -> int:
        if not verify_voucher(voucher, mno_public):
            raise ProtocolError("voucher-invalid")
        if voucher["voucher_id"] in self.used_vouchers:
            raise ProtocolError("voucher-replay", voucher["voucher_id"])
        self.used_vouchers.add(voucher["voucher_id"])
        return self.device.anchor.slot_credit(BALANCE_SLOT, voucher["value"])


def verify_statement(statement: dict, statement_public: bytes, nonce: bytes) -> bool:
    return statement.get("nonce") == nonce.hex() and crypto.signed_by(
        statement_public, _STATEMENT_TAG, statement)


def make_voucher(mno_keys: KeyPair, voucher_id: str, value: int) -> dict:
    return crypto.signed(mno_keys, _VOUCHER_TAG, {"voucher_id": voucher_id, "value": value})


def verify_voucher(voucher: dict, mno_public: bytes) -> bool:
    return crypto.signed_by(mno_public, _VOUCHER_TAG, voucher)


# -- recorded flows ------------------------------------------------------------


class PrepaidOperator:
    """MNO-side prepaid state: the reserved group IMSIs, the group's
    statement verification key and active pool sessions, nothing per-device."""

    def __init__(self, imsis: tuple, statement_public: bytes):
        self.imsis = imsis
        self.statement_public = statement_public
        self.active = set()  # imsis with a live session
        self._session_counter = 0

    def logon(self, imsi: str):
        if imsi not in self.imsis:
            raise ProtocolError("unknown-identity", imsi)
        if imsi in self.active:
            raise ProtocolError("imsi-busy", imsi)
        self.active.add(imsi)
        self._session_counter += 1
        return f"ppsess-{self._session_counter}"


def vsim_logon(sim, client: PrepaidClient, operator: PrepaidOperator, rng: Rng):
    """Random pool IMSI, retrying busy ones — at most pool-size attempts."""
    device_id = client.device.device_id
    for imsi in rng.shuffled(operator.imsis):
        sim.send(device_id, MNO, CHANNEL_MOBILE, "vsim-logon", {"imsi": imsi})
        try:
            session_id = operator.logon(imsi)
        except ProtocolError as err:
            sim.send(MNO, device_id, CHANNEL_MOBILE, "vsim-logon-conflict",
                     {"imsi": imsi, "code": err.code})
            continue
        sim.send(MNO, device_id, CHANNEL_MOBILE, "vsim-session",
                 {"imsi": imsi, "session_id": session_id})
        sim.event("vsim-session", device=device_id, imsi=imsi, session=session_id)
        return imsi, session_id
    sim.event("abort", party=device_id, code="pool-exhausted")
    return None


def prepaid_service_request(
    sim,
    client: PrepaidClient,
    operator: PrepaidOperator,
    verifier: Verifier,
    service: str,
    units: int,
    plan=None,
    replenish_via=None,
):
    """Attested service grant: quote + balance statement, decrement on accept.

    The operator accepts only when the grant would still fall within the
    verifier's freshness window after the accepted verdict, and otherwise
    denies with stale-attestation.

    Returns the granted cost, or None on any denial (no decrement happens)."""
    device_id = client.device.device_id
    cost = client.cost_of(service, units)
    sim.send(device_id, MNO, CHANNEL_MOBILE, "service-request",
             {"service": service, "units": units})

    exchange = attest_flow(sim, client.device, MNO, verifier, CHANNEL_MOBILE,
                           plan=plan, replenish_via=replenish_via)
    verified = sim.tick  # the verdict's tick: the direct exchange ends on it

    def deny(code):
        sim.send(MNO, device_id, CHANNEL_MOBILE, "service-denied",
                 {"service": service, "code": code})
        sim.event("denial", device=device_id, service=service, code=code)
        return None

    if exchange is None:
        return deny("attestation-lost")
    if not exchange.verdict.accepted:
        return deny(exchange.verdict.reasons[0])

    nonce = exchange.challenge.nonce  # as the device received it
    try:
        statement = client.sign_statement(service, units, cost, nonce)
    except ProtocolError as err:
        sim.send(device_id, MNO, CHANNEL_MOBILE, "statement-refused",
                 {"service": service, "code": err.code})
        return deny(err.code)

    sim.send(device_id, MNO, CHANNEL_MOBILE, "balance-statement", {"statement": statement})
    if not verify_statement(statement, operator.statement_public, nonce):
        return deny("bad-statement")
    if sim.tick + 2 > verified + verifier.freshness_window:  # the grant comes two hops on
        return deny("stale-attestation")

    sim.send(MNO, device_id, CHANNEL_MOBILE, "service-accept", {"service": service, "cost": cost})
    remaining = client.decrement(cost)
    sim.event("decrement", device=device_id, amount=cost, balance=remaining)
    sim.send(device_id, MNO, CHANNEL_MOBILE, "service-consumed", {"service": service})
    sim.event("grant", device=device_id, service=service, cost=cost)
    sim.send(MNO, device_id, CHANNEL_MOBILE, "service-granted",
             {"service": service, "units": units})
    return cost


def top_up_flow(sim, client: PrepaidClient, mno_keys: KeyPair, voucher: dict):
    """Deliver a voucher and apply it; replays and forgeries are rejected."""
    device_id = client.device.device_id
    sim.send(MNO, device_id, CHANNEL_MOBILE, "voucher", {"voucher": voucher})
    try:
        balance = client.apply_voucher(voucher, mno_keys.public)
    except ProtocolError as err:
        sim.event("top-up", device=device_id, voucher_id=voucher["voucher_id"],
                  value=voucher["value"], accepted=False, code=err.code)
        return None
    sim.event("top-up", device=device_id, voucher_id=voucher["voucher_id"],
              value=voucher["value"], accepted=True)
    return balance
