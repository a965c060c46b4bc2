"""Point-of-sale purchases over a trusted short-range session.

Two flows: the operator-mediated purchase (signed order to the MNO, signed
acknowledgement back, POS delivers on a verified ack) and the
separation-of-duties flow (one-time token validated at the authentication
provider, billing package of exactly {auth token, grand total, signature}
to the charging provider). The POS has no network uplink of its own: all
its backhaul rides through the customer device as sealed envelopes, so the
carrier sees only uniform encrypted shapes. The token check is the
standard attestation exchange of flows.attest_flow, routed along those
relay legs instead of one direct hop each way.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from . import crypto
from .attestation import Verifier, aik_fingerprint
from .crypto import KeyPair
from .device import TrustedDevice
from .flows import AttackPlan, Leg, Route, attest_flow, carry, checked, hop, replenish_flow
from .harness import CHANNEL_MOBILE, CHANNEL_NET, CHANNEL_SR, MNO, seal
from .privacy_ca import AikCertificate, verify_aik_certificate

_ACK_TAG = b"ack:"
_PRICED_TAG = b"pricelist:"
_ORDER_TAG = b"order:"
_BILLING_TAG = b"billing:"
_CONFIRM_TAG = b"confirm:"

# The fixed back office behind every POS: its owner, the charging provider,
# and the vendor and payment provider the operator notifies.
POS_OWNER, CHARGING, VENDOR, PAYMENT = "pos-owner", "charging", "vendor", "payment"


@dataclass(frozen=True)
class PriceList:
    entries: tuple  # ((good id, price), ...)
    signature: bytes  # by the POS owner

    @staticmethod
    def build(entries, owner_keys: KeyPair) -> "PriceList":
        unsigned = PriceList(tuple(tuple(e) for e in entries), b"")
        return dataclasses.replace(
            unsigned, signature=crypto.sign(owner_keys, unsigned.signed_payload()))

    def _body(self) -> list:
        """The entries as the owner signs them and the wire carries them."""
        return [list(e) for e in self.entries]

    def signed_payload(self) -> bytes:
        return _PRICED_TAG + crypto.canonical_bytes(self._body())

    def to_fields(self) -> dict:
        return {"entries": self._body(), "signature": self.signature.hex()}

    @classmethod
    def from_fields(cls, fields: dict) -> "PriceList":
        """The price list that to_fields() put on the wire."""
        return cls(tuple(tuple(e) for e in fields["entries"]), bytes.fromhex(fields["signature"]))

    def verify(self, owner_public: bytes) -> bool:
        return crypto.verify(owner_public, self.signed_payload(), self.signature)

    def price_of(self, good: str) -> int:
        for name, price in self.entries:
            if name == good:
                return price
        raise ValueError(f"good not on the price list: {good}")


def make_billing_package(auth_token: str, grand_total: int, signer: KeyPair) -> dict:
    """The charging-provider package: exactly these three fields, enforced
    here and re-checked structurally by the transcript auditor."""
    return crypto.signed(signer, _BILLING_TAG,
                         {"auth_token": auth_token, "grand_total": grand_total})


def verify_billing_package(package: dict, signer_publics) -> bool:
    return set(package) == {"auth_token", "grand_total", "signature"} and any(
        crypto.signed_by(public, _BILLING_TAG, package) for public in signer_publics
    )


@dataclass
class PosContext:
    """Roster and trust material for one POS world; scenarios assemble it."""

    device: TrustedDevice
    pos: TrustedDevice
    device_id: str
    pos_id: str
    auth_id: str  # device-domain CA / authentication provider (may be the MNO)
    # verification material
    pos_verifier_for_device: Verifier  # POS-side local check (operator flow)
    device_verifier_for_pos: Verifier  # device-side check of the POS
    auth_verifier: Verifier  # token decisions (separation flow)
    # signing parties
    mno_keys: KeyPair
    pos_owner_keys: KeyPair
    charging_keys: KeyPair
    pos_delegate_keys: KeyPair  # owner-registered key the POS signs with
    device_credential: object  # GenericCredential for operator-billed orders
    price_list: PriceList | None = None
    _counters: dict = field(default_factory=lambda: {"session": 0, "order": 0})

    def next_id(self, kind: str) -> str:
        self._counters[kind] += 1
        return f"{kind}-{self._counters[kind]}"


def _backhaul(ctx: PosContext, origin: str, dest: str, msg_type: str, lost: str,
              party: str | None = None, via_owner: bool = False) -> tuple:
    """The legs of POS backhaul from origin to dest: relayed through the
    device (short-range on the POS side, mobile on the other) in an envelope
    sealed for the relay's far end, which the device forwards unread; with
    via_owner, over the net through the POS owner as well. A loss aborts for
    party, the POS unless named."""
    party = party or ctx.pos_id
    if via_owner:
        if dest == ctx.pos_id:
            return (Leg(origin, POS_OWNER, CHANNEL_NET, msg_type, lost, party),
                    *_backhaul(ctx, POS_OWNER, dest, msg_type, lost, party))
        return (*_backhaul(ctx, origin, POS_OWNER, msg_type, lost, party),
                Leg(POS_OWNER, dest, CHANNEL_NET, msg_type, lost, party))
    if ctx.pos_id not in (origin, dest):
        raise ValueError("relay endpoints must include the POS")

    def leg(sender, receiver):
        at_pos = ctx.pos_id in (sender, receiver)
        return Leg(sender, receiver, CHANNEL_SR if at_pos else CHANNEL_MOBILE,
                   f"{msg_type}-relay" if at_pos else msg_type, lost, party, sealed_for=dest)

    return leg(origin, ctx.device_id), leg(ctx.device_id, dest)


# -- session establishment -----------------------------------------------------


def _attest_peer(sim, subject: TrustedDevice, judge_id: str, verifier: Verifier,
                 plan: AttackPlan | None = None) -> bool:
    """Whether judge accepted the subject's attestation over the short-range
    channel; False after judge's session-attestation-failed abort."""
    exchange = attest_flow(sim, subject, judge_id, verifier, CHANNEL_SR, plan=plan)
    if exchange is None or not exchange.verdict.accepted:
        sim.event("abort", party=judge_id, code="session-attestation-failed",
                  peer=subject.device_id)
        return False
    return True


def mutual_attest_session(sim, ctx: PosContext, plan: AttackPlan | None = None):
    """Operator-flow handshake: both sides verify the other locally.

    Each side spends a one-time credential. Returns the session id or
    None on abort."""
    if not (_attest_peer(sim, ctx.device, ctx.pos_id, ctx.pos_verifier_for_device, plan)
            and _attest_peer(sim, ctx.pos, ctx.device_id, ctx.device_verifier_for_pos)):
        return None
    return _open_session(sim, ctx)


def _open_session(sim, ctx: PosContext) -> str:
    session_id = ctx.next_id("session")
    sim.event("secure-session", device=ctx.device_id, pos=ctx.pos_id, session=session_id)
    return session_id


def exchange_price_list(sim, ctx: PosContext) -> bool:
    """Step 1: signed price list over the established channel; the device
    checks the list that reached it."""
    return hop(sim, ctx.pos_id, ctx.device_id, CHANNEL_SR, "price-list",
               ctx.price_list.to_fields(), "price-list-lost", bad="bad-price-list",
               read=lambda f: checked(f, PriceList.from_fields(f).verify(
                   ctx.pos_owner_keys.public))) is not None


# -- operator-mediated purchase (device -> MNO -> ack -> POS delivers) ----------


def purchase_via_operator(sim, ctx: PosContext, good: str, encrypted: bool = True,
                          check_pos_via_mno: bool = False) -> str | None:
    """The seven-step operator flow. With encryption on, the good travels
    sealed for the vendor and the operator never learns it.

    Each party acts on what reached it: the operator on the POS certificate
    and the order, the device on the operator's answer and relays the
    acknowledgement it received, and the POS delivers on a verified one. A
    lost hop aborts with identity-check-lost, order-lost or ack-lost."""
    if check_pos_via_mno:
        # operator vouches for the POS pseudonym it received; its identity is
        # revealed to it. The device acts on the answer that reached it.
        _, pos_cert = ctx.pos.wallet.peek()
        check = hop(sim, ctx.device_id, MNO, CHANNEL_MOBILE, "pos-identity-check",
                    {"pos_certificate": pos_cert.to_fields()}, "identity-check-lost",
                    party=ctx.device_id)
        if check is None:
            return None
        try:
            received = AikCertificate.from_fields(check["pos_certificate"])
        except (KeyError, TypeError, ValueError):
            received = None
        ok = received is not None and verify_aik_certificate(
            received, ctx.device_verifier_for_pos.pca_root)
        if hop(sim, MNO, ctx.device_id, CHANNEL_MOBILE, "pos-identity-ok",
               {"ok": ok}, "identity-check-lost", read=lambda p: checked(True, p["ok"] is True),
               bad="pos-identity-unverified") is None:
            return None

    order_id = ctx.next_id("order")
    price = ctx.price_list.price_of(good)
    good_field = seal([VENDOR], {"good_id": good}) if encrypted else good
    order_body = {
        "order_id": order_id,
        "account": ctx.device.identity,
        "price": price,
        "modality": "operator-account",
        "good": good_field,
    }
    order = hop(
        sim, ctx.device_id, MNO, CHANNEL_MOBILE, "purchase-order",
        crypto.signed(ctx.device_credential.secret, _ORDER_TAG, order_body),
        "order-lost", party=ctx.device_id, order_id=order_id,
    )
    if order is None:
        return None
    # operator verifies the subscriber's signature on the order that reached
    # it before acknowledging, and then acts on that order
    if not crypto.signed_by(ctx.device_credential.secret.public, _ORDER_TAG, order):
        sim.send(MNO, ctx.device_id, CHANNEL_MOBILE, "purchase-reject",
                 crypto.signed(ctx.mno_keys, _ACK_TAG,
                               {"order_id": order_id, "status": "rejected"}),
                 encrypted=True)
        sim.event("abort", party=MNO, code="bad-order-signature", order_id=order_id)
        return None

    sim.send(MNO, VENDOR, CHANNEL_NET, "vendor-notify",
             {"order_id": order["order_id"], "good": order["good"], "price": order["price"]},
             encrypted=True)
    sim.send(MNO, PAYMENT, CHANNEL_NET, "payment-notify",
             {"order_id": order["order_id"], "price": order["price"],
              "modality": order["modality"]},
             encrypted=True)

    # the device relays the acknowledgement as it arrived
    if carry(
        sim, (Leg(MNO, ctx.device_id, CHANNEL_MOBILE, "purchase-ack", "ack-lost"),
              Leg(ctx.device_id, ctx.pos_id, CHANNEL_SR, "purchase-ack-relay", "ack-lost")),
        crypto.signed(ctx.mno_keys, _ACK_TAG, {"order_id": order["order_id"], "status": "ok"}),
        read=lambda a: checked(a, crypto.signed_by(ctx.mno_keys.public, _ACK_TAG, a)
                               and a["order_id"] == order_id and a["status"] == "ok"),
        bad="bad-ack-signature", order_id=order_id,
    ) is None:
        return None
    return _deliver(sim, ctx, order_id)


def _deliver(sim, ctx: PosContext, order_id: str) -> str:
    """The POS hands over the good on a verified acknowledgement and tells
    the device so; returns the order id."""
    sim.event("ack-verified", order_id=order_id, pos=ctx.pos_id)
    sim.event("delivery", pos=ctx.pos_id, order_id=order_id)
    sim.send(ctx.pos_id, ctx.device_id, CHANNEL_SR, "delivery-confirmation",
             {"order_id": order_id}, encrypted=True)
    return order_id


# -- separation-of-duties purchase ----------------------------------------------


def separation_session(sim, ctx: PosContext, plan: AttackPlan | None = None,
                       validate_direct: bool = False, reuse_response: dict | None = None):
    """Steps (i)+(ii): the device authenticates at the POS with a one-time
    token whose acceptance is decided at the authentication provider;
    the device checks the POS pseudonym locally.

    One attest_flow exchange, routed: challenge and token travel between
    the provider and the POS (through the POS owner unless validate_direct)
    and each verdict back to the POS, which acts on the one that reached it.
    reuse_response is a stored token, presented once instead of a fresh one.
    Returns (session_id, token_fingerprint, response_payload), or None after
    an abort: token rejected, or a hop lost or malformed.
    """
    def path(origin, dest, msg_type, lost, party=None):
        return _backhaul(ctx, origin, dest, msg_type, lost, party, not validate_direct)

    route = Route(
        # the decision maker mints the nonce; it reaches the POS down the
        # decision path, and the POS passes it to the device
        challenge=(*path(ctx.auth_id, ctx.pos_id, "token-challenge", "challenge-lost",
                         party=ctx.device_id),
                   Leg(ctx.pos_id, ctx.device_id, CHANNEL_SR, "attestation-challenge",
                       "challenge-lost")),
        response=(Leg(ctx.device_id, ctx.pos_id, CHANNEL_SR, "auth-token", "token-lost"),
                  *path(ctx.pos_id, ctx.auth_id, "token-validate", "token-lost")),
        verdict=path(ctx.auth_id, ctx.pos_id, "token-verdict", "verdict-lost"),
    )
    exchange = attest_flow(sim, ctx.device, ctx.auth_id, ctx.auth_verifier, route, plan=plan,
                           replay=reuse_response)
    if exchange is None:
        return None
    if not exchange.verdict.accepted:
        sim.event("abort", party=ctx.pos_id, code="token-rejected",
                  reasons=list(exchange.verdict.reasons))
        return None

    # mutual assurance: the device checks the POS pseudonym locally
    if not _attest_peer(sim, ctx.pos, ctx.device_id, ctx.device_verifier_for_pos):
        return None

    session_id = _open_session(sim, ctx)
    return session_id, aik_fingerprint(exchange.response.quote.aik_public), exchange.presented


def separation_purchase(
    sim,
    ctx: PosContext,
    good: str,
    token_fp: str,
    decentralised: bool = False,
) -> str | None:
    """Steps (iii)+(iv): billing through the POS owner (or the POS itself in
    the decentralised variant); delivery only after the owner's signed
    acknowledgement of a confirmed charge.

    Each party acts on what reached it. A lost hop aborts with
    billing-lost, confirmation-lost or ack-lost, and a malformed one with
    bad-billing-data, charge-refused or bad-ack-signature; either way
    nothing is delivered."""
    order_id = ctx.next_id("order")
    price = ctx.price_list.price_of(good)
    billing = {"order_id": order_id, "auth_token": token_fp, "good_id": good, "price": price}

    def to_owner(msg_type, lost):
        return carry(sim, _backhaul(ctx, ctx.pos_id, POS_OWNER, msg_type, lost), billing,
                     read=lambda b: checked(b, not billing.keys() - b.keys()),
                     bad="bad-billing-data", order_id=order_id)

    # The variant picks the signer (the last of the keys the charging
    # provider accepts), the routes to and from the charging provider, and
    # when the billing data reaches the owner: before the charge as
    # billing-data, or after it as ack-request.
    if decentralised:
        signers, billed = (ctx.pos_owner_keys, ctx.pos_delegate_keys), billing
        to_charging, from_charging = (
            _backhaul(ctx, ctx.pos_id, CHARGING, "billing-package", "billing-lost"),
            _backhaul(ctx, CHARGING, ctx.pos_id, "charge-confirmation", "confirmation-lost"))
    else:
        signers, billed = (ctx.pos_owner_keys,), to_owner("billing-data", "billing-lost")
        to_charging, from_charging = (
            (Leg(POS_OWNER, CHARGING, CHANNEL_NET, "billing-package", "billing-lost", POS_OWNER),),
            (Leg(CHARGING, POS_OWNER, CHANNEL_NET, "charge-confirmation", "confirmation-lost"),))
    if billed is None:
        return None
    token = billed["auth_token"]
    package = make_billing_package(token, billed["price"], signers[-1])
    at_charging = carry(sim, to_charging, package, order_id=order_id)
    if at_charging is None or carry(
        sim, from_charging, _charge(ctx, at_charging, [k.public for k in signers]),
        read=lambda c: checked(c, c.get("status") == "confirmed" and c.get("auth_token") == token
                               and crypto.signed_by(ctx.charging_keys.public, _CONFIRM_TAG, c)),
        bad="charge-refused", order_id=order_id,
    ) is None:
        return None
    sim.event("charge-confirmed", order_id=order_id, token=token_fp)
    if decentralised and (billed := to_owner("ack-request", "ack-lost")) is None:
        return None

    ack = crypto.signed(ctx.pos_owner_keys, _ACK_TAG, {"order_id": billed["order_id"]})
    if carry(sim, _backhaul(ctx, POS_OWNER, ctx.pos_id, "purchase-acknowledgement", "ack-lost"),
             ack, read=lambda a: checked(a, a.get("order_id") == order_id and crypto.signed_by(
                 ctx.pos_owner_keys.public, _ACK_TAG, a)),
             bad="bad-ack-signature", order_id=order_id) is None:
        return None
    return _deliver(sim, ctx, order_id)


def _charge(ctx: PosContext, package: dict, signer_publics) -> dict:
    """The charging provider's signed answer to the package it received."""
    accepted = verify_billing_package(package, signer_publics)
    return crypto.signed(ctx.charging_keys, _CONFIRM_TAG,
                         {"auth_token": package.get("auth_token"),
                          "status": "confirmed" if accepted else "refused"})


def rotate_pos_pseudonym(sim, ctx: PosContext) -> str | None:
    """Fresh pseudonym for upcoming sessions. One-time credentials rotate on
    every session anyway; this tops the wallet back up so rotation never
    leaves a service gap. None after a replenishment that ended in an abort."""
    if ctx.pos.wallet.needs_replenish:
        if not replenish_flow(sim, ctx.pos, POS_OWNER, CHANNEL_SR):
            return None
    _, cert = ctx.pos.wallet.peek()
    return aik_fingerprint(cert.aik_public)


def control_exchange(sim, ctx: PosContext) -> None:
    """An arbitrary encrypted session, device to POS owner: what the carrier
    view of any relayed POS traffic must be indistinguishable from."""
    sim.send(ctx.device_id, POS_OWNER, CHANNEL_MOBILE, "control-env",
             {"env": seal([POS_OWNER], {"blob": "opaque-0"})}, encrypted=True)
