"""Ratchet on parameters that every caller sets to the same literal.

A parameter that each call passes the same constant is not a choice: the
value is fixed, and it belongs in the function (or in a module constant it
names), not in every call. Every parameter of a function or method in the
package that at least two calls reach must see at least two values over
those calls, or be on the named list below. A listed one that a call starts
to vary, or that is gone, fails this test too, so the list only shrinks.

Callers are the package and the benchmark; tests do not count, because a
value only a test varies is a value no run varies. Calls are matched to
definitions by name (a class name for `__init__`), as in
`test_unused_defaults.py`. A call that leaves a parameter to its default,
or splats `*args` or `**kwargs`, passes no literal of its own, so it never
counts as passing the same one.
"""

import ast
from pathlib import Path

import trustsim

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


def _definitions(module: str, source: str) -> list:
    """(module, function, call name, parameter, positional index or None)
    of every named parameter defined in source; the index counts the
    arguments of a call, so it leaves out a method's self."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in child.decorator_list)
                skip = 1 if cls is not None and not static else 0
                function = child.name if cls is None else f"{cls}.{child.name}"
                call_name = cls if child.name == "__init__" else child.name
                positional = args.posonlyargs + args.args
                for i, arg in enumerate(positional[skip:]):
                    found.append((module, function, call_name, arg.arg, i))
                for arg in args.kwonlyargs:
                    found.append((module, function, call_name, arg.arg, None))
                visit(child, None)
            elif isinstance(child, ast.ClassDef):
                visit(child, child.name)
            else:
                visit(child, cls)

    visit(ast.parse(source), None)
    return found


def _calls(sources) -> dict:
    """call name -> list of (positional argument nodes, keyword name -> node,
    splats)."""
    calls = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            splats = (any(isinstance(a, ast.Starred) for a in node.args)
                      or any(k.arg is None for k in node.keywords))
            calls.setdefault(name, []).append(
                (node.args, {k.arg: k.value for k in node.keywords}, splats))
    return calls


def _value(call, parameter, index):
    """The literal form of what call passes for parameter, or None."""
    positional, keywords, splats = call
    if splats:
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
    calls = _calls(callers)
    found = []
    for name, source in definitions.items():
        for module, function, call_name, parameter, index in _definitions(name, source):
            reaching = calls.get(call_name, ())
            values = {_value(call, parameter, index) for call in reaching}
            if len(reaching) >= 2 and len(values) == 1 and None not in values:
                found.append((module, function, parameter))
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
    )
    assert one_value({"mod": source}, [calls]) == [
        ("mod", "K.__init__", "name"), ("mod", "K.m", "p"),
        ("mod", "f", "b"), ("mod", "f", "d"),
    ]
