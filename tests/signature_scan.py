"""The AST scans that the signature ratchets share: every named parameter
a source defines, whether its function reads it, and every call a set of
sources makes.

A constructor's parameters are its class's: those of its `__init__`, or
for a `@dataclass` the init fields (a `field(init=False)` is none). Calls
are matched to definitions by name: a function or method by its own name,
a constructor by its class's name, and a call by the attribute or name it
calls, a `cls(...)` inside a class body by that class's. So two functions
of one name share their callers.
"""

import ast
import collections

# defaulted: the parameter has a default. index: its position among a
# call's arguments (a method's self left out), None when keyword-only.
# read: its function's body, nested functions included, loads its name; a
# dataclass's generated __init__ reads every init field, as it stores it.
Parameter = collections.namedtuple(
    "Parameter", "module function call_name name index defaulted read")


def is_dataclass(node: ast.ClassDef) -> bool:
    """Whether a class is decorated @dataclass, with or without arguments."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", None) == "dataclass" \
                or getattr(target, "attr", None) == "dataclass":
            return True
    return False


def _init_fields(node: ast.ClassDef) -> list:
    """(name, defaulted) of each init field of a dataclass, in order."""
    found = []
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        value = item.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            options = {k.arg: k.value for k in value.keywords}
            if getattr(options.get("init"), "value", True) is False:
                continue
            found.append((item.target.id, "default" in options or "default_factory" in options))
        else:
            found.append((item.target.id, value is not None))
    return found


def parameters(module: str, source: str) -> list:
    """A Parameter for every named parameter of every function and method
    defined in source, nested ones included, and for every init field of
    every dataclass."""
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
                loaded = {n.id for statement in child.body for n in ast.walk(statement)
                          if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                for i, arg in enumerate(positional[skip:], skip):
                    found.append(Parameter(module, function, call_name, arg.arg, i - skip,
                                           i >= first_default, arg.arg in loaded))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    found.append(Parameter(module, function, call_name, arg.arg, None,
                                           default is not None, arg.arg in loaded))
                visit(child, None)
            elif isinstance(child, ast.ClassDef):
                if is_dataclass(child):
                    for i, (name, defaulted) in enumerate(_init_fields(child)):
                        found.append(Parameter(module, f"{child.name}.__init__", child.name,
                                               name, i, defaulted, True))
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

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if isinstance(func, ast.Name) and name == "cls" and cls is not None:
                    name = cls
                found.setdefault(name, []).append((
                    [a for a in child.args if not isinstance(a, ast.Starred)],
                    {k.arg: k.value for k in child.keywords if k.arg is not None},
                    any(isinstance(a, ast.Starred) for a in child.args),
                    any(k.arg is None for k in child.keywords),
                ))
            visit(child, child.name if isinstance(child, ast.ClassDef) else cls)

    for source in sources:
        visit(ast.parse(source), None)
    return found
