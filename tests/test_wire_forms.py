"""Wire-codec contract of the eight protocol value types that cross the wire.

Every payload a receiver read as one of them in the seed-1 runs of three
scenarios reads back as it was written, and with any one node below its
top level replaced by a JSON value of another shape it either still reads
or raises KeyError, TypeError or ValueError: the errors flows.hop turns
into the hop's bad-* abort. A garbled attestation response that still
reads gets a verdict from Verifier.verify, never an exception.
"""

import copy
import dataclasses
import functools
import math

import pytest

from trustsim import scenarios
from trustsim.anchor import EkCertificate, Quote
from trustsim.attestation import (ALL_REASONS, REASON_OK, AttestationChallenge,
                                  AttestationResponse, AttestationVerdict, Verifier)
from trustsim.boot import MeasurementLog
from trustsim.pos import PriceList
from trustsim.privacy_ca import AikCertificate

WIRE_TYPES = (AttestationChallenge, Quote, AttestationResponse, AttestationVerdict,
              AikCertificate, EkCertificate, MeasurementLog, PriceList)
SCENARIOS = ("pos-fig4", "pos-sep-duties", "one-time-aik-auth")
GARBLES = (None, True, 0, -1, 1.5, 10**30, "", "zz", "0" * 32, [], [1], {}, {"a": 1},
           [True], math.nan)

BY_TYPE = pytest.mark.parametrize("cls", WIRE_TYPES, ids=lambda cls: cls.__name__)


@functools.lru_cache(maxsize=None)
def _read_payloads() -> dict:
    """Each wire type -> every payload from_fields was given in the runs."""
    read = {cls: [] for cls in WIRE_TYPES}

    def recording(cls):
        original = cls.from_fields.__func__

        def from_fields(klass, fields):
            read[cls].append(copy.deepcopy(fields))
            return original(klass, fields)
        return classmethod(from_fields)

    with pytest.MonkeyPatch.context() as patch:
        for cls in WIRE_TYPES:
            patch.setattr(cls, "from_fields", recording(cls))
        for name in SCENARIOS:
            scenarios.run_scenario(name, 1)
    return read


def _nodes(value, path=()):
    """The path of every node below value."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


def _replaced(fields, path, value):
    garbled = copy.deepcopy(fields)
    node = garbled
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = copy.deepcopy(value)
    return garbled


@BY_TYPE
def test_every_read_payload_round_trips(cls):
    payloads = _read_payloads()[cls]
    assert payloads
    for fields in payloads:
        assert cls.from_fields(fields).to_fields() == fields


@BY_TYPE
def test_a_garbled_node_reads_or_raises_only_a_malformed_error(cls):
    for fields in _read_payloads()[cls]:
        for path in _nodes(fields):
            for value in GARBLES:
                try:
                    cls.from_fields(_replaced(fields, path, value))
                except (KeyError, TypeError, ValueError):
                    pass


@functools.lru_cache(maxsize=None)
def _first_verifications() -> list:
    """The first Verifier.verify call of each verifier in the runs: a copy
    of the verifier as it was, the response's fields, the challenge and now.
    The responses one verifier judges have one shape, and one each keeps
    the test near half a second."""
    found = {}
    original = Verifier.verify

    def verify(self, response, challenge, now):
        found.setdefault((name, id(self)), (
            dataclasses.replace(self, used_aiks=set(self.used_aiks)),
            response.to_fields(), challenge, now))
        return original(self, response, challenge, now)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Verifier, "verify", verify)
        for name in SCENARIOS:
            scenarios.run_scenario(name, 1)
    return list(found.values())


def test_the_verifier_judges_every_garbled_response_that_reads():
    calls = _first_verifications()
    assert len(calls) == 6  # two verifiers in each scenario
    for verifier, fields, challenge, now in calls:
        for path in _nodes(fields):
            for value in GARBLES:
                try:
                    response = AttestationResponse.from_fields(_replaced(fields, path, value))
                except (KeyError, TypeError, ValueError):
                    continue
                judge = dataclasses.replace(verifier, used_aiks=set(verifier.used_aiks))
                verdict = judge.verify(response, challenge, now)
                assert isinstance(verdict, AttestationVerdict)
                if verdict.accepted:
                    assert verdict.reasons == (REASON_OK,), (path, value)
                else:
                    assert verdict.reasons and set(verdict.reasons) <= set(ALL_REASONS), \
                        (path, value)
