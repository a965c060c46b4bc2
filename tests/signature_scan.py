"""The AST scans that the signature ratchets share: every named parameter
a source defines, and every call a set of sources makes.

Calls are matched to definitions by name: a function or method by its own
name, `__init__` by its class's name, and a call by the attribute or name
it calls. So two functions of one name share their callers.
"""

import ast
import collections

# defaulted: the parameter has a default. index: its position among a
# call's arguments (a method's self left out), None when keyword-only.
Parameter = collections.namedtuple(
    "Parameter", "module function call_name name index defaulted")


def parameters(module: str, source: str) -> list:
    """A Parameter for every named parameter of every function and method
    defined in source, nested ones included."""
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
                for i, arg in enumerate(positional[skip:], skip):
                    found.append(Parameter(module, function, call_name, arg.arg, i - skip,
                                           i >= first_default))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    found.append(Parameter(module, function, call_name, arg.arg, None,
                                           default is not None))
                visit(child, None)
            elif isinstance(child, ast.ClassDef):
                visit(child, child.name)
            else:
                visit(child, cls)

    visit(ast.parse(source), None)
    return found


def calls(sources) -> dict:
    """call name -> list of (positional argument nodes, keyword name ->
    value node, splats *args, splats **kwargs), one per call in sources;
    the nodes leave the splats out."""
    found = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            found.setdefault(name, []).append((
                [a for a in node.args if not isinstance(a, ast.Starred)],
                {k.arg: k.value for k in node.keywords if k.arg is not None},
                any(isinstance(a, ast.Starred) for a in node.args),
                any(k.arg is None for k in node.keywords),
            ))
    return found
