"""Ratchet on imports that bind a name no code loads.

An import whose name is never read costs every reader a lookup for a
dependency that is not there. Every name that an import binds in a
package module or a test module must be loaded somewhere in that module,
or be on the named list below. A listed name that the module starts to
load, or that is gone, fails this test too, so the list only shrinks.

`import a.b` binds `a`; `from m import x as y` binds `y`. A load is any
name read in the module (`a.b.c()` reads `a`). `from __future__` imports
bind nothing a module reads and are exempt.
"""

import ast
from pathlib import Path

import trustsim

PACKAGE = Path(trustsim.__file__).parent
TESTS = Path(__file__).parent

# ((module file name, imported name), why it stays although nothing loads it)
UNUSED = []


def unused_imports(source: str) -> list:
    """Names that the source's imports bind and the source never loads, sorted."""
    bound, loaded = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
    return sorted(bound - loaded)


def test_every_imported_name_is_loaded_or_listed():
    found = {(path.name, name)
             for path in sorted([*PACKAGE.glob("*.py"), *TESTS.glob("*.py")])
             for name in unused_imports(path.read_text(encoding="utf-8"))}
    listed = {entry for entry, _ in UNUSED}
    assert not found - listed, f"imported and never loaded: {sorted(found - listed)}"
    assert not listed - found, f"listed but loaded or gone, take them off: {sorted(listed - found)}"


def test_the_scan_finds_imports_no_code_loads():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as codec\n"
        "import sys\n"
        "from dataclasses import dataclass, field\n"
        "from . import crypto, harness as h\n"
        "@dataclass\n"
        "class C:\n"
        "    x: int = 0\n"
        "def f():\n"
        "    return os.path.join(crypto.name, 'x')\n"
        "sys = None\n"
    )
    assert unused_imports(source) == ["codec", "field", "h", "sys"]
