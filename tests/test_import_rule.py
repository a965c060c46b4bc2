"""Ratchet on the oracle's independence: what the auditor and the judges import.

A report is evidence about the protocol code only if the code that checks a
run shares nothing with the code that ran it, or a bug in shared code passes
both. So `audit.py` imports nothing from the package, and `judges.py`, which
holds every catalog judge, imports from it only the auditor and otherwise
only the standard library.
"""

import ast
import sys
from pathlib import Path

import trustsim
from trustsim.scenarios import CATALOG

PACKAGE = Path(trustsim.__file__).parent


def imports(source: str) -> set:
    """The modules that source imports: `trustsim.<module>` for a module of
    the package, imported relatively or not, else the top-level name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ("trustsim." if node.level else "") + (node.module or "")
            names = ([f"trustsim.{alias.name}" for alias in node.names]
                     if module.rstrip(".") == "trustsim" else [module])
        else:
            continue
        found.update(".".join(n.split(".")[:2]) if n.startswith("trustsim.") else n.split(".")[0]
                     for n in names)
    return found


def violations(name: str, source: str) -> list:
    """What the module of that file name imports against its rule, sorted."""
    found = imports(source)
    if name == "audit.py":
        return sorted(m for m in found if m.startswith("trustsim"))
    allowed = {"trustsim.audit", "__future__", *sys.stdlib_module_names}
    return sorted(found - allowed)


def _source(name: str) -> str:
    return (PACKAGE / name).read_text(encoding="utf-8")


def test_the_auditor_and_the_judges_import_by_their_rule():
    for name in ("audit.py", "judges.py"):
        assert violations(name, _source(name)) == [], name


def test_every_catalog_judge_lives_in_the_judges_module():
    assert {getattr(s.judge, "func", s.judge).__module__ for s in CATALOG.values()} == {
        "trustsim.judges"}


def test_the_scan_finds_imports_against_the_rule():
    mutant = _source("judges.py") + (
        "from .facility import zone_features\n"
        "from . import flows, audit\n"
        "import trustsim.crypto.x\n"
        "from trustsim.harness import MNO\n"
        "from trustsim import pos\n"
        "from .audit import _canon\n"
        "import json, orjson\n"
    )
    assert violations("judges.py", mutant) == [
        "orjson", "trustsim.crypto", "trustsim.facility", "trustsim.flows",
        "trustsim.harness", "trustsim.pos"]
    auditor = "import orjson\nfrom .audit import x\nfrom . import crypto\n"
    assert violations("audit.py", auditor) == ["trustsim.audit", "trustsim.crypto"]
