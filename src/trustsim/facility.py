"""Physical access control and facility management over trusted devices.

Employees' devices open gates the way they pay at a POS: attested
short-range sessions. Entry applies the zone's feature overrides to the base
feature set (cameras off, MMS suppressed), exit restores the base set, and
every message from the company server to the outsourced facility provider
passes a policy enforcer that strips all but an allow-listed field set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .attestation import Verifier
from .device import TrustedDevice
from .flows import AttackPlan, Leg, attest_flow, carry, checked
from .harness import CHANNEL_MOBILE, CHANNEL_SR

OUTSIDE = "outside"  # where a device is after exit; no zone has this name
BASE_FEATURES = {"camera": "enabled", "mms": "enabled", "calls": "enabled"}
CACHE_STALENESS = 500  # ticks a gate's cached access rights stay usable

# Every facility's fixed parties: company server, gate, outsourced provider.
COMPANY, GATE, EXTERNAL = "company", "gate", "external"


@dataclass
class FacilityContext:
    zones: dict  # zone -> feature overrides of BASE_FEATURES inside it
    enforcer_allowed_fields: frozenset  # only these may leave toward the provider
    gate: TrustedDevice
    gate_verifier_for_device: Verifier  # gate-side check of employee devices
    device_verifier_for_gate: Verifier  # device-side check of the gate terminal
    admitted_identities: set = field(default_factory=set)  # company sub-domain members
    gate_cache: set | None = None  # cached access rights (None = always online)
    gate_cache_synced: int = 0


def zone_features(zones: dict, location: str) -> dict:
    """The features at location: the base set, overridden inside a zone."""
    return {**BASE_FEATURES, **zones.get(location, {})}


def access_rights_check(sim, ctx: FacilityContext, identity: str) -> bool:
    """Online via the operator network, or from the gate's cached table."""
    if ctx.gate_cache is not None and sim.tick - ctx.gate_cache_synced <= CACHE_STALENESS:
        sim.event("access-check", gate=GATE, identity=identity, source="cache")
        return identity in ctx.gate_cache
    sim.send(GATE, COMPANY, CHANNEL_MOBILE, "access-check", {"identity": identity},
             encrypted=True)
    authorized = identity in ctx.admitted_identities
    sim.send(COMPANY, GATE, CHANNEL_MOBILE, "access-verdict",
             {"identity": identity, "authorized": authorized}, encrypted=True)
    sim.event("access-check", gate=GATE, identity=identity, source="online")
    return authorized


def facility_access(
    sim,
    ctx: FacilityContext,
    device: TrustedDevice,
    zone: str,
    plan: AttackPlan | None = None,
) -> dict | None:
    """Gate entry: mutual attestation, rights check, zone policy application.

    Returns the applied feature map on entry, None when denied."""
    device_side = attest_flow(
        sim, device, GATE, ctx.gate_verifier_for_device, CHANNEL_SR, plan=plan
    )
    granted = (device_side is not None and device_side.verdict.accepted
               and access_rights_check(sim, ctx, device.identity))
    if granted:
        # the gate proves itself back before the door opens
        gate_side = attest_flow(
            sim, ctx.gate, device.device_id, ctx.device_verifier_for_gate, CHANNEL_SR
        )
        granted = gate_side is not None and gate_side.verdict.accepted
    sim.event("entry", gate=GATE, device=device.device_id,
              granted=granted, zone=zone)
    if not granted:
        return None
    features = zone_features(ctx.zones, zone)
    sim.event("policy-applied", device=device.device_id, location=zone,
              status="enforced", features=features)
    return features


def facility_exit(sim, ctx: FacilityContext, device: TrustedDevice) -> dict:
    """Leaving restores the base feature set."""
    features = zone_features(ctx.zones, OUTSIDE)
    sim.event("policy-applied", device=device.device_id, location=OUTSIDE,
              status="enforced", features=features)
    sim.event("exit", device=device.device_id)
    return features


def terminal_interaction(sim, device: TrustedDevice, terminal_id: str,
                         request: str) -> dict | None:
    """Room control and similar terminals have no uplink: they reach the
    company server through the employee device, sealed end-to-end, and the
    company acks the terminal its request names the same way back.

    Returns the ack as the terminal received it, or None after the abort of
    a lost hop, an unreadable request or an ack that is not ok for this
    terminal."""
    dev = device.device_id
    named = carry(
        sim, (Leg(terminal_id, dev, CHANNEL_SR, "terminal-request", "request-lost",
                  sealed_for=COMPANY),
              Leg(dev, COMPANY, CHANNEL_MOBILE, "terminal-relay", "request-lost",
                  sealed_for=COMPANY)),
        {"request": request, "terminal": terminal_id}, read=lambda p: p["terminal"],
        bad="bad-terminal-request")
    if named is None:
        return None
    return carry(
        sim, (Leg(COMPANY, dev, CHANNEL_MOBILE, "terminal-ack", "ack-lost"),
              Leg(dev, terminal_id, CHANNEL_SR, "terminal-ack-relay", "ack-lost")),
        {"terminal": named, "ok": True},
        read=lambda p: checked(p, p["ok"] is True and p["terminal"] == terminal_id),
        bad="bad-terminal-ack")


def send_external(sim, ctx: FacilityContext, msg_type: str, payload: dict) -> dict:
    """Everything toward the outsourced provider passes the policy enforcer:
    fields outside the allow list never leave the building."""
    allowed = {k: v for k, v in payload.items() if k in ctx.enforcer_allowed_fields}
    dropped = sorted(set(payload) - set(allowed))
    if dropped:
        sim.event("enforcer-filtered", server=COMPANY, dropped_fields=dropped)
    sim.send(COMPANY, EXTERNAL, CHANNEL_MOBILE, msg_type, allowed, encrypted=True)
    return allowed
