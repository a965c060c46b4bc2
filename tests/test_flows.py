"""Shared flows act on delivered hops: recorded enrollment, replenishment and
the attestation exchange end a run in a named abort, never in an exception or a
service event, when a hop is lost or arrives malformed."""

import copy

import pytest

from trustsim import audit, scenarios
from trustsim.harness import DROP, Simulation, Transcript

SERVICE_EVENTS = {"delivery", "grant", "secure-session"}


def _run_with_hook(monkeypatch, scenario, hook, attacks=(), variants=None):
    """run_scenario(scenario, 1, attacks, variants) with hook on its
    Simulation; returns the transcript, the report and the event records."""
    class HookedSimulation(Simulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.add_hook(hook)

    monkeypatch.setattr(scenarios, "Simulation", HookedSimulation)
    transcript, report = scenarios.run_scenario(scenario, 1, attacks, variants)
    return transcript, report, transcript.events()


def _nth(msg_type, change, n=1):
    """Hook: apply change to the nth message of msg_type (counting from 1).
    change is DROP, or a function that edits a deep copy of the payload."""
    seen = []

    def hook(record):
        if record["type"] != msg_type:
            return None
        seen.append(record["id"])
        if len(seen) != n:
            return None
        if change is DROP:
            return DROP
        payload = copy.deepcopy(record["payload"])
        change(payload)
        return {**record, "payload": payload}
    return hook


def _interior(edit):
    """change for _nth: edit the interior of the sealed envelope."""
    return lambda payload: edit(payload["env"]["_sealed"]["payload"])


def _assert_aborted(transcript, report, events, code):
    codes = [e["code"] for e in events if e["event"] == "abort"]
    assert code in codes, codes
    first = next(i for i, e in enumerate(events) if e["event"] == "abort")
    after = events[first:]
    assert not {e["event"] for e in after} & SERVICE_EVENTS
    assert not [e for e in after if e["event"] == "entry" and e["granted"]]
    assert report["ok"] is False
    parsed = Transcript.parse(transcript.to_text())
    assert all(f.ok for f in audit.audit(parsed)), audit.audit(parsed)


# -- enrollment ---------------------------------------------------------------------

_ENROLL_DROPS = {
    "enroll-challenge": "enroll-challenge-lost",
    "enroll-request": "enroll-request-lost",
    "enroll-certs": "enroll-certs-lost",
}


def _swap_first_public(fields):
    publics = fields["aik_publics"]
    publics[0], publics[1] = publics[1], publics[0]


def _misname_first_cert(fields):
    certs = fields["certificates"]
    certs[0]["aik_public"] = certs[1]["aik_public"]


# (what, message type, interior edit, abort code)
_ENROLL_REWRITES = [
    ("nonce-not-hex", "enroll-challenge", lambda f: f.update(nonce="zz"),
     "bad-enroll-challenge"),
    ("other-nonce", "enroll-challenge", lambda f: f.update(nonce="00" * 16),
     "ek-liveness-failed"),
    ("liveness-not-hex", "enroll-request", lambda f: f.update(liveness="zz"),
     "bad-enroll-request"),
    ("publics-not-a-list", "enroll-request", lambda f: f.update(aik_publics=5),
     "bad-enroll-request"),
    ("no-ek-certificate", "enroll-request", lambda f: f.pop("ek_certificate"),
     "bad-enroll-request"),
    ("forged-ek-model", "enroll-request", lambda f: f["ek_certificate"].update(model="forged"),
     "untrusted-ek"),
    ("publics-swapped", "enroll-request", _swap_first_public, "bad-enroll-certs"),
    ("certs-not-a-list", "enroll-certs", lambda f: f.update(certificates=5),
     "bad-enroll-certs"),
    ("cert-missing", "enroll-certs", lambda f: f["certificates"].pop(), "bad-enroll-certs"),
    ("cert-misnamed", "enroll-certs", _misname_first_cert, "bad-enroll-certs"),
    ("validity-not-int", "enroll-certs", lambda f: f["certificates"][0].update(valid_from="0"),
     "bad-enroll-certs"),
]


# (scenario, which enrollment of the run): pos-fig4 enrolls the customer
# device first and the POS terminal second
_ENROLLMENTS = [("one-time-aik-auth", 1), ("pos-fig4", 1), ("pos-fig4", 2)]


@pytest.mark.parametrize("scenario,n", _ENROLLMENTS,
                         ids=[f"{scenario}-{n}" for scenario, n in _ENROLLMENTS])
@pytest.mark.parametrize("msg_type", sorted(_ENROLL_DROPS))
def test_enrollment_aborts_on_a_lost_hop(monkeypatch, scenario, n, msg_type):
    transcript, report, events = _run_with_hook(monkeypatch, scenario,
                                                _nth(msg_type, DROP, n))
    assert [e for e in events if e["event"] == "message-dropped" and e["type"] == msg_type]
    _assert_aborted(transcript, report, events, _ENROLL_DROPS[msg_type])
    assert not transcript.messages("attestation-challenge")


@pytest.mark.parametrize("what,msg_type,edit,code", _ENROLL_REWRITES,
                         ids=[run[0] for run in _ENROLL_REWRITES])
def test_enrollment_acts_on_the_hop_that_arrived(monkeypatch, what, msg_type, edit, code):
    transcript, report, events = _run_with_hook(monkeypatch, "one-time-aik-auth",
                                                _nth(msg_type, _interior(edit)))
    _assert_aborted(transcript, report, events, code)
    assert not transcript.messages("attestation-challenge")


def test_pca_certifies_the_publics_that_arrived(monkeypatch):
    transcript, _, _ = _run_with_hook(monkeypatch, "one-time-aik-auth",
                                      _nth("enroll-request", _interior(_swap_first_public)))
    request = transcript.messages("enroll-request")[0]["payload"]["env"]["_sealed"]["payload"]
    reply = transcript.messages("enroll-certs")[0]["payload"]["env"]["_sealed"]["payload"]
    assert [c["aik_public"] for c in reply["certificates"]] == request["aik_publics"]


# -- replenishment ------------------------------------------------------------------

_REPLENISH_DROPS = {
    "replenish-request": "replenish-request-lost",
    "replenish-certs": "replenish-certs-lost",
}


def _swap_first_new_public(fields):
    publics = fields["new_publics"]
    publics[0], publics[1] = publics[1], publics[0]


# (what, message type, interior edit, abort code)
_REPLENISH_REWRITES = [
    ("signature-not-hex", "replenish-request", lambda f: f.update(signature="zz"),
     "bad-replenish-request"),
    ("publics-not-a-list", "replenish-request", lambda f: f.update(new_publics=5),
     "bad-replenish-request"),
    ("public-not-hex", "replenish-request", lambda f: f["new_publics"].__setitem__(0, "zz"),
     "bad-replenish-request"),
    ("no-old-certificate", "replenish-request", lambda f: f.pop("old_certificate"),
     "bad-replenish-request"),
    ("validity-not-int", "replenish-request",
     lambda f: f["old_certificate"].update(valid_from="0"), "bad-replenish-request"),
    ("forged-domain", "replenish-request",
     lambda f: f["old_certificate"].update(domain_id="forged"), "untrusted-replenish-cert"),
    ("publics-swapped", "replenish-request", _swap_first_new_public, "bad-replenish-signature"),
    ("certs-not-a-list", "replenish-certs", lambda f: f.update(certificates=5),
     "bad-replenish-certs"),
    ("cert-missing", "replenish-certs", lambda f: f["certificates"].pop(), "bad-replenish-certs"),
    ("cert-misnamed", "replenish-certs", _misname_first_cert, "bad-replenish-certs"),
]


def _assert_replenishment_aborted(transcript, report, events, code):
    """The run's first replenishment failed: the run ends in its abort, with
    no replenishment on the record."""
    _assert_aborted(transcript, report, events, code)
    last = transcript.records[-1]
    assert (last["kind"], last.get("event"), last.get("code")) == ("event", "abort", code)
    assert not transcript.events("replenishment")


@pytest.mark.parametrize("msg_type", sorted(_REPLENISH_DROPS))
def test_replenishment_aborts_on_a_lost_hop(monkeypatch, msg_type):
    transcript, report, events = _run_with_hook(monkeypatch, "one-time-aik-auth",
                                                _nth(msg_type, DROP))
    assert [e for e in events if e["event"] == "message-dropped" and e["type"] == msg_type]
    _assert_replenishment_aborted(transcript, report, events, _REPLENISH_DROPS[msg_type])


@pytest.mark.parametrize("what,msg_type,edit,code", _REPLENISH_REWRITES,
                         ids=[run[0] for run in _REPLENISH_REWRITES])
def test_replenishment_acts_on_the_hop_that_arrived(monkeypatch, what, msg_type, edit, code):
    transcript, report, events = _run_with_hook(monkeypatch, "one-time-aik-auth",
                                                _nth(msg_type, _interior(edit)))
    _assert_replenishment_aborted(transcript, report, events, code)


def test_prepaid_run_ends_after_a_lost_replenishment(monkeypatch):
    # the lost request spent the device's last credential: the request it
    # was for is denied, and no later request is attempted
    variants = {"requests": [["calls", 1]] * 12, "vouchers": []}
    transcript, report, events = _run_with_hook(
        monkeypatch, "prepaid-happy", _nth("replenish-request", DROP), variants=variants)
    _assert_aborted(transcript, report, events, "replenish-request-lost")
    first = next(i for i, e in enumerate(events) if e["event"] == "abort")
    assert [(e["event"], e.get("code")) for e in events[first:]] == [
        ("abort", "replenish-request-lost"), ("denial", "attestation-lost")]
    assert transcript.records[-1] is events[-1]
    assert len(transcript.events("grant")) < len(variants["requests"])


# -- attestation fields --------------------------------------------------------------

# (scenario, message type, what, edit of the payload, abort code): fields
# the device or the verifier cannot parse.
_MALFORMED_ATTESTATION = [
    ("pos-fig4", "attestation-challenge", "nonce-not-hex",
     lambda p: p.update(nonce="zz"), "bad-challenge"),
    ("facility-entry", "attestation-challenge", "nonce-not-hex",
     lambda p: p.update(nonce="zz"), "bad-challenge"),
    ("one-time-aik-auth", "attestation-challenge", "pcr-out-of-range",
     lambda p: p.update(selection=[99]), "bad-challenge"),
    ("one-time-aik-auth", "attestation-challenge", "selection-not-a-list",
     lambda p: p.update(selection=5), "bad-challenge"),
    ("one-time-aik-auth", "attestation-response", "log-not-a-list",
     lambda p: p.update(log=5), "bad-response"),
    ("one-time-aik-auth", "attestation-response", "measurement-not-hex",
     lambda p: p["log"][0].update(measurement="zz"), "bad-response"),
    ("one-time-aik-auth", "attestation-response", "signature-not-hex",
     lambda p: p["quote"].update(signature="zz"), "bad-response"),
    ("one-time-aik-auth", "attestation-response", "validity-not-int",
     lambda p: p["certificate"].update(valid_until="1000"), "bad-response"),
    # a bool is no int on the wire, though Python's int checks admit one
    ("one-time-aik-auth", "attestation-challenge", "pcr-a-bool",
     lambda p: p.update(selection=[False]), "bad-challenge"),
    ("one-time-aik-auth", "attestation-response", "log-pcr-a-bool",
     lambda p: p["log"][0].update(pcr=False), "bad-response"),
    ("one-time-aik-auth", "attestation-response", "validity-a-bool",
     lambda p: p["certificate"].update(valid_from=False), "bad-response"),
    ("facility-entry", "attestation-response", "no-certificate",
     lambda p: p.pop("certificate"), "bad-response"),
    ("pos-sep-duties", "attestation-challenge", "nonce-not-hex",
     lambda p: p.update(nonce="zz"), "bad-challenge"),
    ("pos-sep-duties", "auth-token", "log-not-a-list",
     lambda p: p.update(log=5), "bad-response"),
]


@pytest.mark.parametrize("scenario,msg_type,what,edit,code", _MALFORMED_ATTESTATION,
                         ids=[":".join(run[:3]) for run in _MALFORMED_ATTESTATION])
def test_malformed_attestation_field_aborts_instead_of_raising(monkeypatch, scenario,
                                                               msg_type, what, edit, code):
    transcript, report, events = _run_with_hook(monkeypatch, scenario, _nth(msg_type, edit))
    _assert_aborted(transcript, report, events, code)
    # the verifier writes no verdict for a response it could not read
    responses = len(transcript.messages("attestation-response"))
    verdicts = len(transcript.events("attestation-verdict"))
    if code == "bad-response" and msg_type == "attestation-response":
        assert verdicts == responses - 1


def test_a_response_the_verifier_could_not_read_is_not_presented_again(monkeypatch):
    # replay-aik presents one response twice; after the first copy aborts
    # the exchange, the second never goes on the wire
    transcript, report, events = _run_with_hook(
        monkeypatch, "one-time-aik-auth", _nth("attestation-response", lambda p: p.update(log=5)),
        attacks=("replay-aik",))
    _assert_aborted(transcript, report, events, "bad-response")
    assert len(transcript.messages("attestation-response")) == 1
    assert not transcript.events("attestation-verdict")


# -- network access ------------------------------------------------------------------

_ACCESS_SCENARIOS = ["clone-attack-unbound", "facility-entry"]


def _assert_no_network_access(transcript, report, events, code):
    """The first logon failed: the run writes its one abort, and no network
    session or sub-domain admission follows it."""
    _assert_aborted(transcript, report, events, code)
    assert [e["code"] for e in events if e["event"] == "abort"] == [code]
    first = next(i for i, e in enumerate(events) if e["event"] == "abort")
    assert not {e["event"] for e in events[first:]} & {"network-session", "admission"}
    assert not transcript.messages("subdomain-request")


@pytest.mark.parametrize("scenario", _ACCESS_SCENARIOS)
def test_network_access_aborts_on_a_lost_hop(monkeypatch, scenario):
    transcript, report, events = _run_with_hook(monkeypatch, scenario,
                                                _nth("network-access", DROP))
    _assert_no_network_access(transcript, report, events, "network-access-lost")
    if scenario == "clone-attack-unbound":
        last = transcript.records[-1]
        assert (last.get("event"), last.get("code")) == ("abort", "network-access-lost")


@pytest.mark.parametrize("scenario", _ACCESS_SCENARIOS)
@pytest.mark.parametrize("edit", [lambda p: p.update(proof="zz"),
                                  lambda p: p.update(identity=5),
                                  lambda p: p.pop("proof")],
                         ids=["proof-not-hex", "identity-not-a-string", "no-proof"])
def test_network_access_reads_the_request_that_arrived(monkeypatch, scenario, edit):
    transcript, report, events = _run_with_hook(monkeypatch, scenario,
                                                _nth("network-access", edit))
    _assert_no_network_access(transcript, report, events, "bad-access-request")


def test_the_operator_judges_the_delivered_proof(monkeypatch):
    # a well-formed proof that was not made for this identity is denied
    hook = _nth("network-access", lambda p: p.update(proof="00" * 64))
    transcript, report, events = _run_with_hook(monkeypatch, "facility-entry", hook)
    assert [e["code"] for e in events if e["event"] == "network-denied"] == ["bad-access-proof"]
    assert not transcript.events("network-session")
    assert not transcript.events("admission")
    assert not [e for e in events if e["event"] == "entry" and e["granted"]]
    assert report["ok"] is False
