"""Ratchet on parameters that their function never reads.

A parameter whose function body never loads its name is an input that
changes nothing: every caller must still find a value for it, and every
reader of the signature must learn that it means nothing. Every named
parameter of a function or method in the package must be read by its
body, nested functions and lambdas included, or be allowed below.

The only allowance is the judge protocol: `scenarios.report` calls every
catalog judge alike, as judge(transcript, config, attacks), so a judge
may leave any of the three unread. A method's `self` is not a parameter
here, as `signature_scan` says.
"""

from pathlib import Path

import trustsim
from trustsim.scenarios import CATALOG

from signature_scan import parameters

PACKAGE = Path(trustsim.__file__).parent

JUDGE_PROTOCOL = ("transcript", "config", "attacks")
# the functions the catalog's judges call, a functools.partial unwrapped
JUDGES = {getattr(s.judge, "func", s.judge).__name__ for s in CATALOG.values()}


def unread(definitions: dict, judges=frozenset()) -> list:
    """(module, function, parameter) of each parameter in the definitions
    (module -> source) that its function never reads, the judge protocol
    of the named judges left out."""
    return sorted(
        (p.module, p.function, p.name)
        for name, source in definitions.items()
        for p in parameters(name, source)
        if not p.read and not (p.function in judges and p.name in JUDGE_PROTOCOL)
    )


def test_every_parameter_is_read():
    found = unread(
        {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))},
        JUDGES,
    )
    assert not found, f"parameters their function never reads: {found}"


def test_the_scan_finds_parameters_never_read():
    source = (
        "def f(a, b, *, c, d=1):\n"
        "    return a + d\n"
        "def closure(e, g):\n"
        "    return lambda: e\n"
        "def shadowed(h):\n"
        "    h = 1\n"  # a store is no read
        "class K:\n"
        "    def m(self, p, q):\n"
        "        return self.q + p\n"  # an attribute of that name is no read
        "def _judge(transcript, config, attacks, mode):\n"
        "    return []\n"
    )
    assert unread({"mod": source}, {"_judge"}) == [
        ("mod", "K.m", "q"), ("mod", "_judge", "mode"), ("mod", "closure", "g"),
        ("mod", "f", "b"), ("mod", "f", "c"), ("mod", "shadowed", "h"),
    ]
