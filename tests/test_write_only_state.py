"""Ratchet on state that the package writes and never reads.

A dataclass field or instance attribute that no code reads is dead weight:
every constructor call pays for it and every reader of the class must learn
that it means nothing. Every attribute name the package stores must be
loaded somewhere in the package, or be on the named list below. A listed
name that code starts to load, or that is gone, fails this test too, so the
list only shrinks.

Stores are the annotated fields of `@dataclass` classes and `self.x = ...`
assignments; a load is any attribute read (`obj.x`) in the package. Tests
and the benchmark do not count as readers: state only they read is state
no run reads.

Names are matched, not objects, so a field whose name some other object
has and reads escapes the scan. `MobileNetworkOperator.sessions` and
`.name`, `FacilityContext.mno_id`, `PrivacyCa.name`, `Verifier.name`,
`Rng.seed` and `BootComponent.stage`, all write-only until they were
deleted, were such names: each is read elsewhere in the package.
"""

import ast
from pathlib import Path

import trustsim

PACKAGE = Path(trustsim.__file__).parent

# (attribute name, why it stays although no code reads it)
WRITE_ONLY = []


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", None) == "dataclass" \
                or getattr(target, "attr", None) == "dataclass":
            return True
    return False


def _stores_and_loads(sources) -> tuple:
    """(stored names, loaded names) over the sources."""
    stored, loaded = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                stored.update(item.target.id for item in node.body
                              if isinstance(item, ast.AnnAssign)
                              and isinstance(item.target, ast.Name))
            elif isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
                elif getattr(node.value, "id", None) == "self":
                    stored.add(node.attr)
    return stored, loaded


def write_only(sources) -> list:
    """Attribute names the sources store and never load, sorted."""
    stored, loaded = _stores_and_loads(sources)
    return sorted(stored - loaded)


def test_every_stored_attribute_is_read_or_listed():
    found = set(write_only(path.read_text(encoding="utf-8")
                           for path in sorted(PACKAGE.glob("*.py"))))
    listed = {name for name, _ in WRITE_ONLY}
    assert not found - listed, f"attributes stored and never read: {sorted(found - listed)}"
    assert not listed - found, f"listed but read or gone, take them off: {sorted(listed - found)}"


def test_the_scan_finds_fields_and_attributes_no_code_reads():
    source = (
        "@dataclass(frozen=True)\n"
        "class D:\n"
        "    read: int\n"
        "    unread: int\n"
        "    default: int = 0\n"
        "class C:\n"
        "    plain: int\n"
        "    def __init__(self, d):\n"
        "        self.kept = d.read\n"
        "        self.lost = 1\n"
        "        self.counter = 0\n"
        "        self.counter += 1\n"
        "        other.stored = self.kept\n"
    )
    assert write_only([source]) == ["counter", "default", "lost", "unread"]
