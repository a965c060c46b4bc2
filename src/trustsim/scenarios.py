"""The scenario catalog: the world, the runners, validation and the report.

Every run is (script, seed, attacks, variants) -> (transcript, report).
A script binds a runner, which only acts, to its judge in the judges
module, which builds the scenario's rows from the finalized transcript
alone (see report), so `trustsim verify` re-derives every row. Attack runs
assert that the protocol rejected the injection: a thwarted attack is a
passing run.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass

from . import audit, crypto, facility, judges, pos
from .anchor import Manufacturer
from .attestation import Verifier
from .boot import tamper
from .device import BASE_CHAIN, TrustedDevice, reference_db_for, standard_chain
from .domain import (
    BOUND,
    UNBOUND,
    MobileNetworkOperator,
    network_access_flow,
    subdomain_admission_flow,
)
from .errors import ProtocolError
from .facility import (BASE_FEATURES, OUTSIDE, FacilityContext, facility_access, facility_exit,
                       send_external, terminal_interaction)
from .flows import ATTESTATION_ATTACKS, AttackPlan, attest_flow, enroll_flow
from .harness import CHANNEL_MOBILE, CHANNEL_NET, MNO, Simulation, paused_collector
from .pos import (
    PosContext,
    PriceList,
    control_exchange,
    exchange_price_list,
    mutual_attest_session,
    purchase_via_operator,
    separation_purchase,
    separation_session,
)
from .prepaid import (
    PrepaidClient,
    PrepaidOperator,
    make_voucher,
    prepaid_service_request,
    top_up_flow,
    vsim_logon,
)
from .privacy_ca import PrivacyCa

SCRIPT_SCHEMA = "trustsim-script/1"
# The tamper attack's patch of the last component of the attacked device's chain.
TAMPER_PAYLOAD = b"tampered-code"


class ScriptError(ValueError):
    """Scenario name, config override, or attack flag failed validation."""


@dataclass(frozen=True)
class ScenarioScript:
    name: str
    description: str
    roster: tuple  # (party id, role) pairs registered before the run
    defaults: dict
    runner: object  # fn(sim, config, plan): acts, returns nothing
    judge: object  # fn(transcript, config, attacks) -> list of assertion rows
    attacks: tuple = ATTESTATION_ATTACKS  # supported attack flag names
    subject: str = "dev-1"  # the device the generic attestation attacks target

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "roster": [list(p) for p in self.roster],
            "config": self.defaults,
            "attacks": list(self.attacks),
        }


# The trust parameters every family's defaults extend.
_TRUST_DEFAULTS = {"batch_size": 10, "freshness_window": 100}


class World:
    """The trust world every scenario stands on: one manufacturer, privacy
    CAs that trust it, booted devices and verifiers that hold the honest
    chain's references.

    Each part draws from its own rng fork, so the calls may come in any
    order, except that off-record wallets enroll with their CA in call order.
    """

    def __init__(self, sim, config, plan):
        self.sim, self.config, self.plan = sim, config, plan
        self.rng = sim.rng.fork("world")  # manufacturer and CAs fork their keys from it
        self.manufacturer = Manufacturer(self.rng)

    def pca(self, name: str, domain_id: str) -> PrivacyCa:
        return PrivacyCa(name, self.rng, {self.manufacturer.root.public}, domain_id=domain_id)

    def device(self, device_id: str, chain, *, label=None, identity=None,
               wallet=None) -> TrustedDevice:
        """A device provisioned from the rng fork label (its id by default)
        and booted, the plan's subject from its chain as the tamper attack
        patched it; a wallet PCA gives it an off-record batch."""
        if device_id == self.plan.subject and self.plan.take("tamper"):
            chain = tamper(chain, chain[-1].name, TAMPER_PAYLOAD)
        device = TrustedDevice.provision(device_id, self.sim.rng.fork(label or device_id),
                                         self.manufacturer, chain=chain, identity=identity)
        device.boot()
        if wallet is not None:
            device.attach_wallet(wallet, self.config["batch_size"])
        return device

    def verifier(self, pca: PrivacyCa, chain, label: str, used_aiks=None) -> Verifier:
        """A verifier of pca's credentials against the honest chain."""
        return Verifier(pca.root.public, reference_db_for(chain), self.sim.rng.fork(label),
                        freshness_window=self.config["freshness_window"],
                        used_aiks=set() if used_aiks is None else used_aiks)


# ---------------------------------------------------------------------------
# one-time-aik-auth
# ---------------------------------------------------------------------------


def _run_one_time_aik(sim, config, plan):
    world = World(sim, config, plan)
    pca = world.pca("pca", "service-collab")
    chain = standard_chain(tuple((name, payload.encode())
                                 for name, payload in config["extra_components"]))
    device = world.device("dev-1", chain)
    if not enroll_flow(sim, device, "pca", pca, config["batch_size"], CHANNEL_MOBILE):
        return
    services = {svc: world.verifier(pca, chain, f"v-{svc}") for svc in ("svc-a", "svc-b")}
    for login in range(config["auth_count"]):  # alternating, until one is refused
        svc = ("svc-a", "svc-b")[login % 2]
        exchange = attest_flow(sim, device, svc, services[svc], CHANNEL_MOBILE, plan=plan,
                               replenish_via=("pca", CHANNEL_MOBILE))
        if exchange is None or not exchange.verdict.accepted:
            break


ONE_TIME_AIK = ScenarioScript(
    name="one-time-aik-auth",
    description="Batch-certified one-time credentials: k service logins, "
                "automatic replenishment with the last credential, unlinkable "
                "across the two collaborating services.",
    roster=(("dev-1", "device"), ("pca", "pca"), ("svc-a", "service"),
            ("svc-b", "service"), (MNO, "mno")),
    defaults={**_TRUST_DEFAULTS, "auth_count": 27,
              "extra_components": [["svc-client", "svc-client-v1"]]},
    runner=_run_one_time_aik,
    judge=judges.one_time_aik,
)


# ---------------------------------------------------------------------------
# clone-attack (bound and unbound)
# ---------------------------------------------------------------------------


def _run_clone(sim, config, plan, mode):
    world = World(sim, config, plan)
    mno = MobileNetworkOperator(sim.rng, registry_mode=mode)
    pca = world.pca("pca", "subdomain")
    chain = standard_chain()
    clone = world.device("clone", chain, identity="imsi-100", wallet=pca)
    legit = world.device("legit", chain, identity="imsi-100", wallet=pca)
    credential = mno.issue_credential(legit)
    if mode == BOUND:
        mno.bind(legit)
    verifier = world.verifier(pca, chain, "verifier")

    for device in (clone, legit):
        session = network_access_flow(sim, device, mno, credential)
        if session is None:
            break
        subdomain_admission_flow(sim, device, mno, verifier, session, plan=plan)


CLONE_UNBOUND = ScenarioScript(
    name="clone-attack-unbound",
    description="Two devices share one stolen network credential; without a "
                "joint authority the registry admits exactly the first comer.",
    roster=(("legit", "device"), ("clone", "device"), (MNO, "mno"), ("pca", "pca")),
    defaults={**_TRUST_DEFAULTS, "batch_size": 4},
    runner=functools.partial(_run_clone, mode=UNBOUND),
    judge=functools.partial(judges.clone, bound=False),
    subject="clone",
)

CLONE_BOUND = dataclasses.replace(
    CLONE_UNBOUND,
    name="clone-attack-bound",
    description="Same clone pair, but a single authority individualised both "
                "credentials: the consistency check turns the clone away.",
    runner=functools.partial(_run_clone, mode=BOUND),
    judge=functools.partial(judges.clone, bound=True),
)


# ---------------------------------------------------------------------------
# prepaid family
# ---------------------------------------------------------------------------


def _prepaid_setup(sim, config, plan, tampered):
    """Whether the device's pool logon went through, then the prepaid world
    it logged on to; a tampered device booted a patched prepaid client."""
    world = World(sim, config, plan)
    pca = world.pca("pca", "prepaid")
    mno_keys = crypto.keygen(sim.rng.fork("mno-keys"))
    statement_keys = crypto.keygen(sim.rng.fork("ppc-group"))
    operator = PrepaidOperator(tuple(f"ppimsi-{i}" for i in range(config["pool_size"])),
                               statement_keys.public)

    chain = standard_chain((("vsim", b"vsim-client-v1"), ("ppc", b"prepaid-client-v1")))
    device = world.device("dev-1", tamper(chain, "ppc", b"balance-patcher") if tampered else chain,
                          wallet=pca)
    client = PrepaidClient.provision(device, chain, config["tariffs"],
                                     config["initial_balance"], statement_keys.private)
    sim.event("balance-init", device="dev-1", value=config["initial_balance"])
    logged_on = vsim_logon(sim, client, operator, sim.rng.fork("logon")) is not None
    return logged_on, client, operator, world.verifier(pca, chain, "verifier"), mno_keys


def _prepaid_finish(sim, client, config):
    try:
        final = client.balance()
    except ProtocolError:
        final = config["initial_balance"]  # sealed away; nothing ever moved it
    sim.summary["balances"] = {"dev-1": final}
    sim.summary["freshness_window"] = config["freshness_window"]


def _run_prepaid(sim, config, plan, tampered):
    """The requests in order, voucher i credited right after request i;
    none without a vsim session."""
    logged_on, client, operator, verifier, mno_keys = _prepaid_setup(
        sim, config, plan, tampered)
    attacked = bool(plan.names & set(ATTESTATION_ATTACKS))
    vouchers = config["vouchers"]
    for n, (service, units) in enumerate(config["requests"] if logged_on else (), 1):
        prepaid_service_request(
            sim, client, operator, verifier, service, units,
            plan=plan, replenish_via=("pca", CHANNEL_MOBILE),
        )
        if attacked:
            break  # the attacked exchange is the whole story of this run
        if not client.device.wallet.credentials:
            break  # a failed replenishment spent the last credential
        if n <= len(vouchers):
            voucher = make_voucher(mno_keys, f"v-{n}", vouchers[n - 1])
            top_up_flow(sim, client, mno_keys, voucher)

    _prepaid_finish(sim, client, config)
    if not tampered:
        # no message carries the device's EK, so the anonymity row reads it here
        sim.summary["ek_publics"] = {"dev-1": client.device.anchor.ek_certificate.ek_public.hex()}


def _run_prepaid_zero(sim, config, plan):
    logged_on, client, operator, verifier, mno_keys = _prepaid_setup(
        sim, config, plan, tampered=False)
    if logged_on:
        prepaid_service_request(sim, client, operator, verifier, "calls", 1, plan=plan)
    # an attacked exchange is the whole story of its run
    if logged_on and not plan.names & set(ATTESTATION_ATTACKS):
        voucher = make_voucher(mno_keys, "v-1", config["voucher_value"])
        top_up_flow(sim, client, mno_keys, voucher)
        if "voucher-replay" in plan.names:
            top_up_flow(sim, client, mno_keys, voucher)
        prepaid_service_request(sim, client, operator, verifier, "calls", 1)
    _prepaid_finish(sim, client, config)


_PREPAID_DEFAULTS = {**_TRUST_DEFAULTS, "pool_size": 5, "initial_balance": 500,
                     "tariffs": {"calls": 10, "data": 5}}

PREPAID_HAPPY = ScenarioScript(
    name="prepaid-happy",
    description="Pool logon, attested balance statements, grants decrement the "
                "shielded counter, a voucher tops it back up.",
    roster=(("dev-1", "device"), (MNO, "mno"), ("pca", "pca")),
    defaults={**_PREPAID_DEFAULTS, "requests": [["calls", 2], ["data", 4], ["calls", 1]],
              "vouchers": [100]},
    runner=functools.partial(_run_prepaid, tampered=False),
    judge=judges.prepaid_happy,
)

PREPAID_TAMPER = dataclasses.replace(
    PREPAID_HAPPY,
    name="prepaid-tamper",
    description="The prepaid client was patched before boot: every request is "
                "rejected on reference values, nothing is granted, nothing moves.",
    defaults={**_PREPAID_DEFAULTS, "requests": [["calls", 1], ["data", 2]], "vouchers": []},
    runner=functools.partial(_run_prepaid, tampered=True),
    judge=judges.prepaid_tamper,
)

PREPAID_ZERO = dataclasses.replace(
    PREPAID_HAPPY,
    name="prepaid-zero",
    description="Empty balance: the request is denied without a decrement, a "
                "signed voucher restores service.",
    defaults={**_PREPAID_DEFAULTS, "pool_size": 3, "initial_balance": 0, "voucher_value": 50},
    attacks=ATTESTATION_ATTACKS + ("voucher-replay",),
    runner=_run_prepaid_zero,
    judge=judges.prepaid_zero,
)


# ---------------------------------------------------------------------------
# POS family
# ---------------------------------------------------------------------------

_POS_GOODS = (("cola", 3), ("water", 2), ("juice", 4))


def _pos_setup(sim, config, plan, auth_id):
    """The POS world with auth_id as the authentication provider, or None
    after a logon or enrollment abort."""
    world = World(sim, config, plan)
    device_pca = world.pca("device-pca", "operator-domain")
    pos_pca = world.pca("pos-pca", "pos-domain")
    mno = MobileNetworkOperator(sim.rng)
    device_chain = standard_chain((("wallet-app", b"wallet-v1"),))
    pos_chain = standard_chain((("pos-client", b"pos-firmware-v1"),))
    device = world.device("dev-1", device_chain, identity="imsi-7001")
    pos_device = world.device("pos-1", pos_chain)

    credential = mno.issue_credential(device)
    batch = config["batch_size"]
    if not (network_access_flow(sim, device, mno, credential)
            and enroll_flow(sim, device, auth_id, device_pca, batch, CHANNEL_MOBILE)
            and enroll_flow(sim, pos_device, "pos-pca", pos_pca, batch, CHANNEL_NET)):
        return None

    owner_keys = crypto.keygen(sim.rng.fork("owner-keys"))
    return PosContext(
        device=device, pos=pos_device, auth_id=auth_id,
        pos_verifier_for_device=world.verifier(device_pca, device_chain, "v-pos"),
        device_verifier_for_pos=world.verifier(pos_pca, pos_chain, "v-dev"),
        auth_verifier=world.verifier(device_pca, device_chain, "v-auth"),
        mno_keys=mno.keys,
        pos_owner_keys=owner_keys,
        charging_keys=crypto.keygen(sim.rng.fork("charging-keys")),
        pos_delegate_keys=crypto.keygen(sim.rng.fork("delegate-keys")),
        device_credential=credential,
        price_list=PriceList.build(_POS_GOODS, owner_keys),
    )


_POS_ROSTER = (
    ("dev-1", "device"), ("pos-1", "pos"), (MNO, "mno"),
    (pos.POS_OWNER, "pos_owner"), ("pos-pca", "pos_pca"),
    (pos.CHARGING, "charging_provider"), (pos.VENDOR, "vendor"),
    (pos.PAYMENT, "payment_provider"), ("auth", "auth_provider"),
)


def _run_pos_fig4(sim, config, plan):
    ctx = _pos_setup(sim, config, plan, "auth")
    if ctx is None:
        return
    if "ack-strip" in plan.names:
        def corrupt(record):
            if record["type"] == "purchase-ack-relay":
                record["payload"]["signature"] = "00" * 64
        sim.add_hook(corrupt)

    session = mutual_attest_session(sim, ctx, plan=plan)
    if session is not None and exchange_price_list(sim, ctx):
        purchase_via_operator(
            sim, ctx, config["good"],
            encrypted=config["encryption"],
            check_pos_via_mno=config["pos_check_via_mno"],
        )
    control_exchange(sim, ctx)


def _run_pos_sep(sim, config, plan, auth_id, decentralised):
    ctx = _pos_setup(sim, config, plan, auth_id)
    if ctx is None:
        return

    session = separation_session(sim, ctx, plan=plan,
                                 validate_direct=decentralised)
    if session is not None:
        _, token_fp, response_payload = session
        if exchange_price_list(sim, ctx):
            separation_purchase(sim, ctx, config["good"], token_fp,
                                decentralised=decentralised)
        if "reuse-token" in plan.names:
            separation_session(sim, ctx, validate_direct=decentralised,
                               reuse_response=response_payload)
    control_exchange(sim, ctx)


POS_FIG4 = ScenarioScript(
    name="pos-fig4",
    description="Operator-mediated vending purchase: signed order up, signed "
                "acknowledgement down, delivery only on a verified ack.",
    roster=_POS_ROSTER,
    defaults={**_TRUST_DEFAULTS, "good": "cola", "encryption": True, "pos_check_via_mno": False},
    attacks=ATTESTATION_ATTACKS + ("ack-strip",),
    runner=_run_pos_fig4,
    judge=judges.pos_fig4,
)

POS_SEP_DUTIES = ScenarioScript(
    name="pos-sep-duties",
    description="Separation of duties: one-time token validated at the "
                "authentication provider, billing package of token + grand "
                "total only, owner acknowledges, POS delivers.",
    roster=_POS_ROSTER,
    defaults={**_TRUST_DEFAULTS, "good": "cola"},
    attacks=ATTESTATION_ATTACKS + ("reuse-token",),
    runner=functools.partial(_run_pos_sep, auth_id="auth", decentralised=False),
    judge=judges.pos_sep,
)

POS_DECENTRALISED = dataclasses.replace(
    POS_SEP_DUTIES,
    name="pos-decentralised",
    description="The decentralised variant: the POS itself requests charge "
                "confirmation and the owner's acknowledgement; same privacy.",
    defaults={**POS_SEP_DUTIES.defaults, "good": "water"},
    runner=functools.partial(_run_pos_sep, auth_id="auth", decentralised=True),
)

POS_MNO_MERGED = dataclasses.replace(
    POS_SEP_DUTIES,
    name="pos-mno-merged",
    description="Degraded-privacy demonstration: operator and authentication "
                "provider merged into one party that can link subscriber "
                "identity to spent purchase tokens.",
    roster=tuple(party for party in _POS_ROSTER if party[0] != "auth"),
    attacks=ATTESTATION_ATTACKS,
    runner=functools.partial(_run_pos_sep, auth_id=MNO, decentralised=False),
)


# ---------------------------------------------------------------------------
# facility family
# ---------------------------------------------------------------------------


def _facility_setup(sim, config, plan):
    """The facility world, once the employee has tried the gate of the
    first zone; an attack run's story ends there."""
    world = World(sim, config, plan)
    mno = MobileNetworkOperator(sim.rng, registry_mode=BOUND)
    pca = world.pca("company-pca", "company-domain")
    chain = standard_chain((("enforcer", b"policy-enforcer-v1"),))
    gate_chain = standard_chain((("gate-terminal", b"gate-firmware-v1"),))
    employee = world.device("employee", chain, identity="imsi-9001", wallet=pca)
    visitor = world.device("visitor", chain, identity="imsi-9002", wallet=pca)
    gate = world.device("gate-dev", gate_chain, label="gate", wallet=pca)

    # company sub-domain enrollment: employee admitted under the joint authority
    credential = mno.issue_credential(employee)
    mno.bind(employee)
    company_verifier = world.verifier(pca, chain, "v-company")
    session = network_access_flow(sim, employee, mno, credential)
    admitted = session is not None and subdomain_admission_flow(
        sim, employee, mno, company_verifier, session).admitted

    admitted_identities = {employee.identity} if admitted else set()
    ctx = FacilityContext(
        zones=config["zones"],
        enforcer_allowed_fields=frozenset(config["enforcer_allowed_fields"]),
        gate=gate,
        gate_verifier_for_device=world.verifier(pca, chain, "v-gate",
                                                used_aiks=company_verifier.used_aiks),
        device_verifier_for_gate=world.verifier(pca, gate_chain, "v-employee"),
        admitted_identities=admitted_identities,
        gate_cache=set(admitted_identities) if config["gate_cache"] else None,
        gate_cache_synced=sim.tick,
    )
    facility_access(sim, ctx, employee, next(iter(config["zones"])), plan=plan)
    return ctx, employee, visitor


_FACILITY_ROSTER = (
    ("employee", "device"), ("visitor", "device"), (facility.GATE, "gate"),
    ("gate-dev", "gate_terminal"), (facility.COMPANY, "company_server"),
    (facility.EXTERNAL, "facility_provider"), (MNO, "mno"),
    ("whiteboard", "terminal"),
)

_FACILITY_DEFAULTS = {
    **_TRUST_DEFAULTS,
    "zones": {"zone-lab": {"camera": "disabled", "mms": "disabled"}},
    "enforcer_allowed_fields": ["room", "action", "until"], "gate_cache": False,
}


def _run_facility_entry(sim, config, plan):
    ctx, employee, visitor = _facility_setup(sim, config, plan)
    if not plan.names:
        terminal_interaction(sim, employee, "whiteboard", "show-agenda")
        facility_exit(sim, ctx, employee)
        facility_access(sim, ctx, visitor, next(iter(config["zones"])))


def _run_facility_midnight(sim, config, plan):
    ctx, employee, _ = _facility_setup(sim, config, plan)
    if not plan.names:
        send_external(sim, ctx, "power-request", judges.MIDNIGHT_REQUEST)
        facility_exit(sim, ctx, employee)


FACILITY_ENTRY = ScenarioScript(
    name="facility-entry",
    description="Gate entry by attested device: camera and MMS restricted "
                "inside, restored on exit; strangers stay outside.",
    roster=_FACILITY_ROSTER,
    defaults=_FACILITY_DEFAULTS,
    runner=_run_facility_entry,
    judge=judges.facility_entry,
    subject="employee",
)

FACILITY_MIDNIGHT = dataclasses.replace(
    FACILITY_ENTRY,
    name="facility-midnight",
    description="Midnight meeting: the company server asks the outsourced "
                "facility provider to keep a room powered; the policy "
                "enforcer strips attendees and agenda.",
    runner=_run_facility_midnight,
    judge=judges.facility_midnight,
)


# ---------------------------------------------------------------------------
# catalog, validation, execution
# ---------------------------------------------------------------------------

CATALOG = {
    script.name: script
    for script in (
        ONE_TIME_AIK, CLONE_BOUND, CLONE_UNBOUND,
        PREPAID_HAPPY, PREPAID_TAMPER, PREPAID_ZERO,
        POS_FIG4, POS_SEP_DUTIES, POS_DECENTRALISED, POS_MNO_MERGED,
        FACILITY_ENTRY, FACILITY_MIDNIGHT,
    )
}


def get_script(name: str) -> ScenarioScript:
    script = CATALOG.get(name)
    if script is None:
        raise ScriptError(f"unknown scenario: {name!r}")
    return script


def load_script_file(path: str) -> tuple:
    """External structured-text script: a catalog entry plus overrides.

    Returns (script, config overrides, attacks). Schema violations raise
    ScriptError before anything executes."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError, RecursionError) as err:
        raise ScriptError(f"cannot read script file: {err}") from err
    if not isinstance(raw, dict) or raw.get("schema") != SCRIPT_SCHEMA:
        raise ScriptError(f"script file must declare schema {SCRIPT_SCHEMA!r}")
    base = raw.get("base")
    if not isinstance(base, str):
        raise ScriptError("script file needs a 'base' catalog name")
    script = get_script(base)
    config = raw.get("config", {})
    attacks = raw.get("attacks", [])
    if not isinstance(config, dict) or not isinstance(attacks, list):
        raise ScriptError("'config' must be an object and 'attacks' a list")
    _validate(script, config, attacks)
    return script, config, tuple(attacks)


def _pairs(value, first: type, second: type) -> bool:
    """Whether value is a list of [first, second] pairs."""
    return all(isinstance(p, (list, tuple)) and len(p) == 2 and type(p[0]) is first
               and type(p[1]) is second for p in value)


# key -> (whether a well-typed value is one the runners can act on, what
# that takes); a check may read the rest of the merged config
_VALUE_RULES = {
    "batch_size": (lambda v, c: v >= 2, "at least 2: replenishing spends a credential"),
    # references are keyed by component name, so a repeated name shadows one
    "extra_components": (lambda v, c: _pairs(v, str, str)
                         and len({n for n, _ in [*BASE_CHAIN, *v]}) == len(BASE_CHAIN) + len(v),
                         "[name, payload] string pairs with distinct names, "
                         f"none of {[n for n, _ in BASE_CHAIN]}"),
    # prepaid-zero has no requests: it asks for calls
    "tariffs": (lambda v, c: all(type(p) is int and p >= 0 for p in v.values())
                and ("requests" in c or "calls" in v),
                "a non-negative int price for each service requested"),
    "requests": (lambda v, c: v and _pairs(v, str, int)
                 and all(s in c["tariffs"] and u > 0 for s, u in v),
                 "at least one [service, units] pair of a priced service and positive units"),
    "vouchers": (lambda v, c: all(type(x) is int and x >= 0 for x in v),
                 "non-negative int values"),
    # the rules above hold, so each sum and product is of ints
    "initial_balance": (lambda v, c: v + sum(c.get("vouchers", ())) + c.get("voucher_value", 0)
                        < 2**64 and all(c["tariffs"][s] * u < 2**64
                                        for s, u in c.get("requests", ())),
                        "a sum with every voucher, and each request's tariff times units, "
                        "below 2**64: a balance or cost the wire carries"),
    "good": (lambda v, c: v in dict(_POS_GOODS), f"one of {[g for g, _ in _POS_GOODS]}"),
    # after exit a device is OUTSIDE, so no zone may share that name
    "zones": (lambda v, c: v and OUTSIDE not in v and all(
                  isinstance(o, dict) and o.keys() <= BASE_FEATURES.keys()
                  and all(s in ("enabled", "disabled") for s in o.values()) for o in v.values()),
              f"at least one zone, none named {OUTSIDE!r}, each setting features of "
              f'{sorted(BASE_FEATURES)} to "enabled" or "disabled"'),
}


def _validate(script: ScenarioScript, overrides: dict, attacks) -> None:
    """ScriptError for an unknown key or attack, or a value of the wrong
    type, outside the JSON value domain (see crypto.check_domain) or one the
    runner cannot act on, before anything runs."""
    for key, value in overrides.items():
        if key not in script.defaults:
            raise ScriptError(f"unknown config key for {script.name}: {key!r}")
        default = script.defaults[key]
        if isinstance(value, bool) != isinstance(default, bool) \
                or not isinstance(value, type(default)):
            raise ScriptError(
                f"config key {key!r} expects {type(default).__name__}, "
                f"got {type(value).__name__}"
            )
        if type(value) is int and value < 0:
            raise ScriptError(f"config key {key!r} must not be negative, got {value}")
        try:
            crypto.check_domain(value)
        except ValueError as err:
            raise ScriptError(f"config key {key!r} holds {err}") from None
    config = {**script.defaults, **overrides}
    for key, (usable, needs) in _VALUE_RULES.items():
        if key in config and not usable(config[key], config):
            raise ScriptError(f"config key {key!r} needs {needs}")
    for attack in attacks:
        if attack not in script.attacks:
            raise ScriptError(f"scenario {script.name} has no attack {attack!r}")


def validate_run(script, seed: int, attacks, variants) -> tuple:
    """(the ScenarioScript, the variants as the transcript header records
    them) that run_validated takes, or ScriptError for an unknown scenario,
    a seed outside 64 bits, or an override or attack that _validate
    refuses: every check a run makes before anything runs."""
    if isinstance(script, str):
        script = get_script(script)
    if not 0 <= seed < 2**64:
        raise ScriptError(f"seed must be in 0..2**64-1, got {seed}")
    _validate(script, variants or {}, attacks)
    # keys sorted, so the runner meets any multi-key override in the order
    # a judge of the text does
    return script, json.loads(crypto.canonical_json(variants or {}))


def run_scenario(script, seed: int, attacks=(), variants=None):
    """Deterministic execution -> (Transcript, report dict): validate_run,
    then run_validated."""
    script, variants = validate_run(script, seed, attacks, variants)
    return run_validated(script, seed, attacks, variants)


@paused_collector
def run_validated(script: ScenarioScript, seed: int, attacks, variants: dict):
    """The run of what validate_run returned -> (Transcript, report dict).

    Under paused_collector: a run builds no reference cycles of its own
    (ctypes' bookkeeping of the crypto buffer types aside, a few objects)."""
    sim = Simulation(seed, scenario=script.name, attacks=attacks, variants=variants)
    for party_id, role in script.roster:
        sim.add_party(party_id, role)

    script.runner(sim, {**script.defaults, **variants}, AttackPlan(attacks, script.subject))
    transcript = sim.finalize()
    return transcript, report(transcript)


def report(transcript) -> dict:
    """The report of a finalized transcript, from it alone: every audit
    finding, then for a catalog scenario the rows its script's judge and
    subject give (see judges.scenario_rows)."""
    header = transcript.header
    rows = [f.to_dict() for f in audit.audit(transcript)]
    scenario = header.get("scenario")
    script = CATALOG.get(scenario) if isinstance(scenario, str) else None
    if script is not None:
        rows += judges.scenario_rows(transcript, script)
    return {
        "schema": "trustsim-report/1",
        "scenario": scenario,
        "seed": header.get("seed"),
        "attacks": header.get("attacks"),
        "variants": header.get("variants"),
        "assertions": rows,
        "ok": all(r["ok"] for r in rows),
    }
