"""Ratchet on protocol steps that ignore what was delivered.

A `send` (or `flows.hop`) whose result is thrown away is a step that goes
on with what its sender built, not with what reached the receiver. Every
such call in the package is listed here as (module, function, message
type): the fire-and-forget hops that nothing waits on, and the prepaid,
facility and domain hops that do not act on delivery yet. A new discarded
result fails this test, and so does a listed one that is gone, so the list
can only shrink, one entry at a time.
"""

import ast
from collections import Counter
from pathlib import Path

import trustsim

# Nothing downstream waits on these hops; losing one loses no service.
FIRE_AND_FORGET = [
    ("pos", "_deliver", "delivery-confirmation"),
    ("pos", "control_exchange", "control-env"),
    ("pos", "purchase_via_operator", "payment-notify"),
    ("pos", "purchase_via_operator", "purchase-reject"),
    ("pos", "purchase_via_operator", "vendor-notify"),
]

# Hops whose next step still acts on local values.
NOT_YET_DELIVERED = [
    ("domain", "network_access_flow", "network-denied"),
    ("domain", "network_access_flow", "network-session"),
    ("domain", "subdomain_admission_flow", "subdomain-request"),
    ("domain", "subdomain_admission_flow", "subdomain-verdict"),
    ("facility", "access_rights_check", "access-check"),
    ("facility", "access_rights_check", "access-verdict"),
    ("facility", "send_external", "{msg_type}"),
    ("prepaid", "deny", "service-denied"),
    ("prepaid", "prepaid_service_request", "balance-statement"),
    ("prepaid", "prepaid_service_request", "service-accept"),
    ("prepaid", "prepaid_service_request", "service-consumed"),
    ("prepaid", "prepaid_service_request", "service-granted"),
    ("prepaid", "prepaid_service_request", "service-request"),
    ("prepaid", "prepaid_service_request", "statement-refused"),
    ("prepaid", "top_up_flow", "voucher"),
    ("prepaid", "vsim_logon", "vsim-logon"),
    ("prepaid", "vsim_logon", "vsim-logon-conflict"),
    ("prepaid", "vsim_logon", "vsim-session"),
]

# Position of the message type among each sender's arguments.
MSG_TYPE_ARG = {"send": 3, "hop": 4}


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _msg_type(call: ast.Call, position: int) -> str:
    if len(call.args) > position:
        arg = call.args[position]
    else:
        arg = next(k.value for k in call.keywords if k.arg == "msg_type")
    if isinstance(arg, ast.Constant):
        return arg.value
    return "{" + ast.unparse(arg) + "}"


class _Discards(ast.NodeVisitor):
    """(module, innermost function, message type) of each call statement
    to a sender, that is, each call whose result nobody reads."""

    def __init__(self, module: str):
        self.module = module
        self.function = None
        self.found = []

    def visit_FunctionDef(self, node):
        outer, self.function = self.function, node.name
        self.generic_visit(node)
        self.function = outer

    def visit_Expr(self, node):
        call = node.value
        if isinstance(call, ast.Call) and _callee(call) in MSG_TYPE_ARG:
            position = MSG_TYPE_ARG[_callee(call)]
            self.found.append((self.module, self.function, _msg_type(call, position)))
        self.generic_visit(node)


def discarded_sends(package_dir: Path) -> Counter:
    found = Counter()
    for path in sorted(package_dir.glob("*.py")):
        visitor = _Discards(path.stem)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found.update(visitor.found)
    return found


def test_every_discarded_send_is_listed_and_every_listed_one_exists():
    found = discarded_sends(Path(trustsim.__file__).parent)
    listed = Counter(FIRE_AND_FORGET + NOT_YET_DELIVERED)
    assert not found - listed, f"new discarded send results: {sorted(found - listed)}"
    assert not listed - found, f"listed but gone, take them off: {sorted(listed - found)}"


def test_the_scan_sees_discards_and_ignores_used_results():
    source = (
        "def step(sim):\n"
        "    sim.send('a', 'b', 'c', 'kept-away', {})\n"
        "    msg = sim.send('a', 'b', 'c', 'used', {})\n"
        "    hop(sim, 'a', 'b', 'c', 'hop-away', {}, 'lost')\n"
        "    def inner():\n"
        "        sim.send('a', 'b', 'c', f'{kind}-relay', {})\n"
        "    return msg\n"
    )
    visitor = _Discards("mod")
    visitor.visit(ast.parse(source))
    assert visitor.found == [("mod", "step", "kept-away"), ("mod", "step", "hop-away"),
                             ("mod", "inner", "{f'{kind}-relay'}")]
