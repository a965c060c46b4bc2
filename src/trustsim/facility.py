"""Physical access control and facility management over trusted devices.

Employees' devices open gates the way they pay at a POS: attested
short-range sessions. Entry applies a zone feature policy (cameras off,
MMS suppressed), exit restores the base policy, and every message from the
company server to the outsourced facility provider passes a policy
enforcer that strips all but an allow-listed field set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .attestation import Verifier
from .device import TrustedDevice
from .domain import FeaturePolicy
from .flows import AttackPlan, attest_flow
from .harness import CHANNEL_MOBILE, CHANNEL_SR, seal

OUTSIDE = "outside"


@dataclass
class FacilityContext:
    company_id: str
    gate_id: str
    external_id: str
    zone_policy: FeaturePolicy  # base features plus per-zone overrides
    enforcer_allowed_fields: frozenset  # only these may leave toward the provider
    gate: TrustedDevice
    gate_verifier_for_device: Verifier  # gate-side check of employee devices
    device_verifier_for_gate: Verifier  # device-side check of the gate terminal
    admitted_identities: set = field(default_factory=set)  # company sub-domain members
    gate_cache: set | None = None  # cached access rights (None = always online)
    gate_cache_synced: int = 0
    cache_staleness: int = 500


def access_rights_check(sim, ctx: FacilityContext, identity: str) -> bool:
    """Online via the operator network, or from the gate's cached table."""
    if ctx.gate_cache is not None and sim.tick - ctx.gate_cache_synced <= ctx.cache_staleness:
        sim.event("access-check", gate=ctx.gate_id, identity=identity, source="cache")
        return identity in ctx.gate_cache
    sim.send(ctx.gate_id, ctx.company_id, CHANNEL_MOBILE, "access-check",
             {"identity": identity}, {"identity": "identity"}, encrypted=True)
    authorized = identity in ctx.admitted_identities
    sim.send(ctx.company_id, ctx.gate_id, CHANNEL_MOBILE, "access-verdict",
             {"identity": identity, "authorized": authorized},
             {"identity": "identity", "authorized": "plumbing"}, encrypted=True)
    sim.event("access-check", gate=ctx.gate_id, identity=identity, source="online")
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
        sim, device, ctx.gate_id, ctx.gate_verifier_for_device, CHANNEL_SR, plan=plan
    )
    granted = (device_side is not None and device_side.verdict.accepted
               and access_rights_check(sim, ctx, device.identity))
    if granted:
        # the gate proves itself back before the door opens
        gate_side = attest_flow(
            sim, ctx.gate, device.device_id, ctx.device_verifier_for_gate, CHANNEL_SR
        )
        granted = gate_side is not None and gate_side.verdict.accepted
    sim.event("entry", gate=ctx.gate_id, device=device.device_id,
              granted=granted, zone=zone)
    if not granted:
        return None
    features = ctx.zone_policy.effective(zone)
    sim.event("policy-applied", device=device.device_id, location=zone,
              status="enforced", features=features)
    return features


def facility_exit(sim, ctx: FacilityContext, device: TrustedDevice) -> dict:
    """Leaving restores the base feature set."""
    features = ctx.zone_policy.effective(OUTSIDE)
    sim.event("policy-applied", device=device.device_id, location=OUTSIDE,
              status="enforced", features=features)
    sim.event("exit", device=device.device_id)
    return features


def terminal_interaction(sim, ctx: FacilityContext, device: TrustedDevice,
                         terminal_id: str, request: str) -> None:
    """Room control and similar terminals have no uplink: they reach the
    company server through the employee device, sealed end-to-end."""
    body = seal([ctx.company_id], {"request": request, "terminal": terminal_id},
                {"request": "plumbing", "terminal": "plumbing"})
    sim.send(terminal_id, device.device_id, CHANNEL_SR, "terminal-request",
             {"env": body}, {"env": "plumbing"}, encrypted=True)
    sim.send(device.device_id, ctx.company_id, CHANNEL_MOBILE, "terminal-relay",
             {"env": body}, {"env": "plumbing"}, encrypted=True)
    sim.send(ctx.company_id, device.device_id, CHANNEL_MOBILE, "terminal-ack",
             {"terminal": terminal_id, "ok": True},
             {"terminal": "plumbing", "ok": "plumbing"}, encrypted=True)
    sim.send(device.device_id, terminal_id, CHANNEL_SR, "terminal-ack-relay",
             {"terminal": terminal_id, "ok": True},
             {"terminal": "plumbing", "ok": "plumbing"}, encrypted=True)


def send_external(sim, ctx: FacilityContext, msg_type: str,
                  payload: dict, labels: dict) -> dict:
    """Everything toward the outsourced provider passes the policy enforcer:
    fields outside the allow list never leave the building."""
    allowed = {k: v for k, v in payload.items() if k in ctx.enforcer_allowed_fields}
    dropped = sorted(set(payload) - set(allowed))
    if dropped:
        sim.event("enforcer-filtered", server=ctx.company_id, dropped_fields=dropped)
    sim.send(ctx.company_id, ctx.external_id, CHANNEL_MOBILE, msg_type,
             allowed, {k: labels[k] for k in allowed}, encrypted=True)
    return allowed
