"""Every entry point the benchmark's span tracer wraps still exists.

perfbench/tracer.py names its targets as strings ("module", "function" or
"module", "Class.method"). A rename in the package would only show up in
a traced benchmark run; this test reads the tracer's tables, without
installing it, and resolves each target the way the tracer does.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_tables():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.PACKAGE, tracer.SPANS + tracer.COUNTED


PACKAGE, TARGETS = _tracer_tables()


@pytest.mark.parametrize("module,attr,name", TARGETS,
                         ids=[f"{module}.{attr}" for module, attr, _ in TARGETS])
def test_tracer_target_resolves(module, attr, name):
    mod = importlib.import_module(f"{PACKAGE}.{module}")
    if "." in attr:
        cls_name, method = attr.split(".")
        cls = getattr(mod, cls_name)
        # the tracer wraps the class's own attribute, never an inherited one
        assert method in vars(cls), f"{name}: {attr} is not defined on {cls_name} itself"
    else:
        assert inspect.isfunction(getattr(mod, attr, None)), f"{name}: no function {attr}"


def test_audit_checks_resolve_by_name():
    audit = importlib.import_module(f"{PACKAGE}.audit")
    for check, fn in audit.INVARIANT_CHECKS:
        assert getattr(audit, fn.__name__) is fn, check
