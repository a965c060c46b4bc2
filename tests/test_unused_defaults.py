"""Ratchet on parameters that no caller sets.

A defaulted parameter that no call ever passes is an option nobody uses:
the default is the only behaviour, and the parameter is dead weight in
the signature. Every defaulted parameter of a function or method in the
package must be passed by some call in the package, its tests or the
benchmark, or be on the named list below. A listed one that a call starts
to pass, or that is gone, fails this test too, so the list only shrinks.

Calls are matched to definitions by name (a class name for `__init__`),
so two functions of one name share their callers. A call that splats
`*args` or `**kwargs` counts as passing every parameter it could reach.
"""

import ast
from pathlib import Path

import trustsim

PACKAGE = Path(trustsim.__file__).parent
CALLERS = (PACKAGE, Path(__file__).parent, Path(__file__).parent.parent / "perfbench")

# (module, function, parameter) kept although no call passes it; each
# entry says why
NEVER_PASSED = []


def _definitions(module: str, source: str) -> list:
    """(module, function, call name, parameter, positional index or None)
    of every defaulted parameter defined in source; the index counts the
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
                first_default = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first_default:], first_default):
                    found.append((module, function, call_name, arg.arg, i - skip))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((module, function, call_name, arg.arg, None))
                visit(child, None)
            elif isinstance(child, ast.ClassDef):
                visit(child, child.name)
            else:
                visit(child, cls)

    visit(ast.parse(source), None)
    return found


def _calls(sources) -> dict:
    """call name -> list of (positional count, keyword names, splats *, splats **)."""
    calls = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            calls.setdefault(name, []).append((
                sum(not isinstance(a, ast.Starred) for a in node.args),
                {k.arg for k in node.keywords if k.arg is not None},
                starred,
                any(k.arg is None for k in node.keywords),
            ))
    return calls


def _passed(calls, call_name, parameter, index) -> bool:
    return any(
        parameter in keywords or double
        or (index is not None and (count > index or single))
        for count, keywords, single, double in calls.get(call_name, ())
    )


def never_passed(definitions: dict, callers) -> list:
    """(module, function, parameter) of each defaulted parameter in the
    definitions (module -> source) that no caller source passes."""
    calls = _calls(callers)
    return sorted(
        (module, function, parameter)
        for name, source in definitions.items()
        for module, function, call_name, parameter, index in _definitions(name, source)
        if not _passed(calls, call_name, parameter, index)
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
    )
    calls = (
        "f(1, 2, c=3)\n"
        "K(1)\n"
        "k.m(1)\n"
        "K.s(*args)\n"
        "inner(**kwargs)\n"
    )
    assert never_passed({"mod": source}, [calls]) == [
        ("mod", "K.__init__", "y"), ("mod", "K.m", "q"), ("mod", "f", "d"),
    ]
