"""The frozen protocol values built through crypto.slot_init.

slot_init gives a frozen dataclass with slots an __init__ that stores each
field through its slot's descriptor. Everything else must stay the
dataclass's: assignment and deletion raise, dataclasses.replace runs
__post_init__, ==, hash and repr are those of a plain frozen dataclass with
the same fields, copies and pickles round-trip, and an instance holds its
fields and nothing else.
"""

import ast
import copy
import dataclasses
import pickle
from pathlib import Path

import pytest

import trustsim
from trustsim import anchor, attestation, boot, crypto, flows, privacy_ca
from trustsim.boot import MeasurementLog

ENTRY = boot.LogEntry("boot-rom", "ab" * 20, 0)
CERT = privacy_ca.AikCertificate(b"\x01" * 32, "domain-a", 0, 1000, "sha256", b"\x02" * 64)
QUOTE = anchor.Quote((0,), ("cd" * 20,), b"n" * 16, b"\x01" * 32, b"\x03" * 64)
CHALLENGE = attestation.AttestationChallenge(b"n" * 16, (0,), 100)
RESPONSE = attestation.AttestationResponse(QUOTE, MeasurementLog([ENTRY]), CERT)
VERDICT = attestation.AttestationVerdict(True, ("ok",))

# Two values of each class that differ in one field.
VALUES = {
    boot.LogEntry: (ENTRY, boot.LogEntry("boot-rom", "ab" * 20, 1)),
    privacy_ca.AikCertificate: (CERT, dataclasses.replace(CERT, valid_until=999)),
    anchor.Quote: (QUOTE, dataclasses.replace(QUOTE, signature=b"\x04" * 64)),
    attestation.AttestationChallenge: (CHALLENGE,
                                       dataclasses.replace(CHALLENGE, freshness_deadline=7)),
    attestation.AttestationResponse: (RESPONSE, dataclasses.replace(RESPONSE, certificate=None)),
    attestation.AttestationVerdict: (VERDICT,
                                     attestation.AttestationVerdict(False, ("aik-reused",))),
    flows.Exchange: (flows.Exchange(CHALLENGE, RESPONSE, VERDICT, {"quote": {"nonce": "6e"}}),
                     flows.Exchange(CHALLENGE, RESPONSE, VERDICT, {})),
    crypto.KeyPair: (crypto.KeyPair(b"\x01" * 32, b"\x05" * 32),
                     crypto.KeyPair(public=b"\x01" * 32, private=b"\x06" * 32)),
}
IDS = [cls.__name__ for cls in VALUES]
PACKAGE = Path(trustsim.__file__).parent


def _names(cls) -> list:
    return [f.name for f in dataclasses.fields(cls)]


def _twin(cls):
    """A plain frozen dataclass of the same name and fields."""
    return dataclasses.make_dataclass(cls.__name__, [(f.name, f.type)
                                                     for f in dataclasses.fields(cls)],
                                      frozen=True)


def _as_twin(value, twin):
    return twin(*(getattr(value, name) for name in _names(type(value))))


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except TypeError as err:  # hash of a value holding a dict
        return TypeError, str(err)


def _state(value):
    """value as comparable data: a frozen value or log by its fields, read
    recursively, so that copies compare equal."""
    if dataclasses.is_dataclass(value):
        return type(value), [_state(getattr(value, name)) for name in _names(type(value))]
    if isinstance(value, MeasurementLog):
        return MeasurementLog, [_state(entry) for entry in value.entries]
    return value


def test_the_values_are_the_classes_that_slot_init_decorates():
    decorated = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                    "slot_init" in (getattr(d, "attr", None), getattr(d, "id", None))
                    for d in node.decorator_list):
                decorated.add(node.name)
    assert decorated == set(IDS)


@pytest.mark.parametrize("cls", VALUES, ids=IDS)
def test_assignment_and_deletion_raise(cls):
    value = VALUES[cls][0]
    before = _state(value)
    for name in _names(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
    # A name that is not a field: Python 3.11's frozen __setattr__ and
    # __delattr__ for slots=True close over the class that slots=True
    # replaced, and raise TypeError from super() (see crypto.slot_init).
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        value.added = None
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        del value.added
    assert _state(value) == before


@pytest.mark.parametrize("cls", VALUES, ids=IDS)
def test_an_instance_holds_exactly_its_fields(cls):
    value = VALUES[cls][0]
    assert not hasattr(value, "__dict__")
    slots = [name for klass in type(value).__mro__ for name in getattr(klass, "__slots__", ())]
    assert slots == _names(cls)
    assert all(hasattr(value, name) for name in slots)


@pytest.mark.parametrize("cls", VALUES, ids=IDS)
def test_keyword_and_positional_construction_agree(cls):
    value = VALUES[cls][0]
    fields = {name: getattr(value, name) for name in _names(cls)}
    assert _state(cls(**fields)) == _state(cls(*fields.values())) == _state(value)


@pytest.mark.parametrize("cls", VALUES, ids=IDS)
def test_eq_hash_and_repr_are_a_plain_frozen_dataclass_s(cls):
    twin = _twin(cls)
    first, second = VALUES[cls]
    again = cls(*(getattr(first, name) for name in _names(cls)))
    pairs = [(first, again), (first, second), (second, first)]
    assert [a == b for a, b in pairs] == [
        _as_twin(a, twin) == _as_twin(b, twin) for a, b in pairs]
    assert [a != b for a, b in pairs] == [
        _as_twin(a, twin) != _as_twin(b, twin) for a, b in pairs]
    for value in (first, second):
        assert _outcome(hash, value) == _outcome(hash, _as_twin(value, twin))
        assert repr(value) == repr(_as_twin(value, twin))


@pytest.mark.parametrize("cls", VALUES, ids=IDS)
def test_replace_round_trips(cls):
    first, second = VALUES[cls]
    assert dataclasses.replace(first) == first
    changed = {name: getattr(second, name) for name in _names(cls)}
    assert _state(dataclasses.replace(first, **changed)) == _state(second)


def test_a_short_nonce_raises_through_the_constructor_and_replace():
    with pytest.raises(ValueError, match="nonce must be at least 16 bytes"):
        attestation.AttestationChallenge(b"n" * 15, (0,), 100)
    with pytest.raises(ValueError, match="nonce must be at least 16 bytes"):
        attestation.AttestationChallenge(nonce=b"", pcr_selection=(0,), freshness_deadline=1)
    with pytest.raises(ValueError, match="nonce must be at least 16 bytes"):
        dataclasses.replace(CHALLENGE, nonce=b"n" * 15)


@pytest.mark.parametrize("cls", VALUES, ids=IDS)
def test_deepcopy_and_pickle_round_trip(cls):
    for value in VALUES[cls]:
        for copied in (copy.deepcopy(value), pickle.loads(pickle.dumps(value)),
                       copy.copy(value)):
            assert type(copied) is cls
            assert _state(copied) == _state(value)


@pytest.mark.parametrize("cls", VALUES, ids=IDS)
def test_a_missing_or_extra_argument_raises_type_error(cls):
    fields = [getattr(VALUES[cls][0], name) for name in _names(cls)]
    with pytest.raises(TypeError):
        cls(*fields[:-1])
    with pytest.raises(TypeError):
        cls(*fields, None)
    with pytest.raises(TypeError):
        cls(*fields[:-1], unknown=None)


def test_slot_init_refuses_what_its_init_would_get_wrong():
    @dataclasses.dataclass(frozen=True, slots=True)
    class Defaulted:
        a: int
        b: int = 0

    @dataclasses.dataclass(frozen=True)
    class Unslotted:
        a: int

    @dataclasses.dataclass(slots=True)
    class Mutable:
        a: int

    @dataclasses.dataclass(frozen=True, slots=True)
    class Derived:
        a: int
        b: list = dataclasses.field(init=False, default_factory=list)

    for cls in (Defaulted, Unslotted, Mutable, Derived):
        with pytest.raises(TypeError, match="slot_init"):
            crypto.slot_init(cls)
