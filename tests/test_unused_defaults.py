"""Ratchet on parameters that no caller sets.

A defaulted parameter that no call ever passes is an option nobody uses:
the default is the only behaviour, and the parameter is dead weight in
the signature. Every defaulted parameter of a function or method in the
package must be passed by some call in the package, its tests or the
benchmark, or be on the named list below. A listed one that a call starts
to pass, or that is gone, fails this test too, so the list only shrinks.

Calls are matched to definitions by name, as `signature_scan` says. A
call that splats `*args` or `**kwargs` counts as passing every parameter
it could reach.
"""

from pathlib import Path

import trustsim

from signature_scan import calls, parameters

PACKAGE = Path(trustsim.__file__).parent
CALLERS = (PACKAGE, Path(__file__).parent, Path(__file__).parent.parent / "perfbench")

# (module, function, parameter) kept although no call passes it; each
# entry says why
NEVER_PASSED = []


def _passed(made, call_name, parameter, index) -> bool:
    return any(
        parameter in keywords or double
        or (index is not None and (len(positional) > index or single))
        for positional, keywords, single, double in made.get(call_name, ())
    )


def never_passed(definitions: dict, callers) -> list:
    """(module, function, parameter) of each defaulted parameter in the
    definitions (module -> source) that no caller source passes."""
    made = calls(callers)
    return sorted(
        (p.module, p.function, p.name)
        for name, source in definitions.items()
        for p in parameters(name, source)
        if p.defaulted and not _passed(made, p.call_name, p.name, p.index)
    )


def test_every_defaulted_parameter_is_passed_or_listed():
    found = never_passed(
        {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))},
        [path.read_text(encoding="utf-8") for d in CALLERS for path in sorted(d.glob("*.py"))],
    )
    assert not set(found) - set(NEVER_PASSED), \
        f"defaulted parameters no call passes: {sorted(set(found) - set(NEVER_PASSED))}"
    assert not set(NEVER_PASSED) - set(found), \
        f"listed but passed or gone, take them off: {sorted(set(NEVER_PASSED) - set(found))}"


def test_the_scan_matches_calls_to_definitions():
    source = (
        "def f(a, b=1, *, c=2, d=3):\n"
        "    pass\n"
        "class K:\n"
        "    def __init__(self, x=0, y=0):\n"
        "        pass\n"
        "    def m(self, p=0, q=0):\n"
        "        def inner(z=0):\n"
        "            pass\n"
        "    @staticmethod\n"
        "    def s(u=0, v=0):\n"
        "        pass\n"
        "@dataclass\n"
        "class D:\n"
        "    a: int\n"
        "    b: int = 0\n"
        "    c: list = field(default_factory=list)\n"
        "    d: int = field(default=0, init=False)\n"  # state, not a parameter
        "    e: object = field(repr=False)\n"  # no default
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls(1, c=[])\n"  # a call of D
    )
    calls = (
        "f(1, 2, c=3)\n"
        "K(1)\n"
        "k.m(1)\n"
        "K.s(*args)\n"
        "inner(**kwargs)\n"
    )
    assert never_passed({"mod": source}, [calls, source]) == [
        ("mod", "D.__init__", "b"), ("mod", "K.__init__", "y"), ("mod", "K.m", "q"),
        ("mod", "f", "d"),
    ]
