"""Ratchet on the one attestation exchange and the one delivery.

Minting a challenge, writing an "attestation-verdict" event and injecting a
response-level attack each happen in one place, `flows.attest_flow`; every
scenario reaches them through the route it gives that function. Every POS
purchase hands over its good through `pos._deliver`, the one writer of the
"delivery" event. A second call site anywhere in the package fails this
test.
"""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

import trustsim

RESPONSE_ATTACKS = ("wrong-nonce", "forge-log", "replay-aik", "expired-cert")
EXPECTED = ["make_challenge", "event attestation-verdict"] + [
    f"take {attack}" for attack in RESPONSE_ATTACKS]
WRITTEN_EVENTS = ("attestation-verdict", "delivery")


def _first_literal(call: ast.Call):
    if call.args and isinstance(call.args[0], ast.Constant):
        return call.args[0].value
    return None


class _Sites(ast.NodeVisitor):
    """(module, innermost function) of each call this ratchet watches, by
    what it does."""

    def __init__(self, module: str, found: dict):
        self.module = module
        self.function = None
        self.found = found

    def visit_FunctionDef(self, node):
        outer, self.function = self.function, node.name
        self.generic_visit(node)
        self.function = outer

    def visit_Call(self, node):
        if isinstance(node.func, ast.Attribute):
            name, literal = node.func.attr, _first_literal(node)
            what = None
            if name == "make_challenge":
                what = name
            elif name == "event" and literal in WRITTEN_EVENTS:
                what = f"event {literal}"
            elif name == "take" and literal in RESPONSE_ATTACKS:
                what = f"take {literal}"
            if what is not None:
                self.found[what].append((self.module, self.function))
        self.generic_visit(node)


def call_sites(package_dir: Path) -> dict:
    found = defaultdict(list)
    for path in sorted(package_dir.glob("*.py")):
        _Sites(path.stem, found).visit(ast.parse(path.read_text(encoding="utf-8")))
    return found


SITES = call_sites(Path(trustsim.__file__).parent)


@pytest.mark.parametrize("what", EXPECTED)
def test_one_call_site_inside_attest_flow(what):
    assert SITES[what] == [("flows", "attest_flow")]


def test_one_writer_of_delivery():
    assert SITES["event delivery"] == [("pos", "_deliver")]


def test_the_scan_sees_each_watched_call_and_nothing_else():
    source = (
        "def exchange(sim, verifier, plan):\n"
        "    verifier.make_challenge(0)\n"
        "    sim.event('attestation-verdict', accepted=True)\n"
        "    sim.event('abort', code='x')\n"
        "    sim.event('delivery', pos='p')\n"
        "    plan.take('tamper')\n"
        "    def inner():\n"
        "        plan.take('replay-aik')\n"
        "    return sim.events('attestation-verdict')\n"
    )
    found = defaultdict(list)
    _Sites("mod", found).visit(ast.parse(source))
    assert dict(found) == {
        "make_challenge": [("mod", "exchange")],
        "event attestation-verdict": [("mod", "exchange")],
        "event delivery": [("mod", "exchange")],
        "take replay-aik": [("mod", "inner")],
    }
