"""Ratchet on parameters that every caller sets to the same literal.

A parameter that each call passes the same constant is not a choice: the
value is fixed, and it belongs in the function (or in a module constant it
names), not in every call. Every parameter of a function or method in the
package that at least two calls reach must see at least two values over
those calls, or be on the named list below. A listed one that a call starts
to vary, or that is gone, fails this test too, so the list only shrinks.

Callers are the package and the benchmark; tests do not count, because a
value only a test varies is a value no run varies. Calls are matched to
definitions by name, as `signature_scan` says. A call that leaves a
parameter to its default, or splats `*args` or `**kwargs`, passes no
literal of its own, so it never counts as passing the same one.
"""

import ast
from pathlib import Path

import trustsim

from signature_scan import calls, parameters

PACKAGE = Path(trustsim.__file__).parent
CALLERS = (PACKAGE, Path(__file__).parent.parent / "perfbench")

# (module, function, parameter) kept although every call passes one literal;
# each entry says why
ONE_VALUE = []


def _literal(node):
    """A comparable form of node when it is a literal, else None."""
    try:
        ast.literal_eval(node)
    except ValueError:
        return None
    return ast.dump(node)


def _value(call, parameter, index):
    """The literal form of what call passes for parameter, or None."""
    positional, keywords, single, double = call
    if single or double:
        return None
    if parameter in keywords:
        return _literal(keywords[parameter])
    if index is not None and index < len(positional):
        return _literal(positional[index])
    return None


def one_value(definitions: dict, callers) -> list:
    """(module, function, parameter) of each parameter in the definitions
    (module -> source) that at least two calls in the caller sources reach,
    each passing the same literal."""
    made = calls(callers)
    found = []
    for name, source in definitions.items():
        for p in parameters(name, source):
            reaching = made.get(p.call_name, ())
            values = {_value(call, p.name, p.index) for call in reaching}
            if len(reaching) >= 2 and len(values) == 1 and None not in values:
                found.append((p.module, p.function, p.name))
    return sorted(found)


def test_every_parameter_sees_two_values_or_is_listed():
    found = one_value(
        {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))},
        [path.read_text(encoding="utf-8") for d in CALLERS for path in sorted(d.glob("*.py"))],
    )
    assert not set(found) - set(ONE_VALUE), \
        f"parameters every call passes one literal: {sorted(set(found) - set(ONE_VALUE))}"
    assert not set(ONE_VALUE) - set(found), \
        f"listed but varied or gone, take them off: {sorted(set(ONE_VALUE) - set(found))}"


def test_the_scan_finds_parameters_every_call_fixes():
    source = (
        "def f(a, b, c=1, *, d='x'):\n"
        "    pass\n"
        "def once(e):\n"
        "    pass\n"
        "class K:\n"
        "    def __init__(self, name, size):\n"
        "        pass\n"
        "    def m(self, p, q=0):\n"
        "        pass\n"
        "    @staticmethod\n"
        "    def s(u, v):\n"
        "        pass\n"
        "@dataclass\n"
        "class P:\n"
        "    kind: str\n"
        "    size: int = 0\n"
        "    @classmethod\n"
        "    def make(cls, n):\n"
        "        return cls('p', size=n)\n"  # a call of P
    )
    calls = (
        "f(x, 'same', 1, d='x')\n"
        "f(y, b='same', d='x')\n"  # c: one call leaves it to its default
        "once('only')\n"  # one call fixes nothing
        "K('k', 1)\n"
        "K('k', size=2)\n"
        "k.m(1, q=3)\n"
        "k.m(1)\n"
        "K.s(*args)\n"  # a splat passes something unknown
        "K.s(0, 0)\n"
        "P('p', 1)\n"
    )
    assert one_value({"mod": source}, [calls, source]) == [
        ("mod", "K.__init__", "name"), ("mod", "K.m", "p"), ("mod", "P.__init__", "kind"),
        ("mod", "f", "b"), ("mod", "f", "d"),
    ]
