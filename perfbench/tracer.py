"""Span tracer that wraps trustsim's public entry points from the outside.

``install`` replaces each target at every attribute where callers look it
up: the module globals of every trustsim module (so ``from .flows import
attest_flow`` copies are covered too), class attributes for methods,
module-level tuples such as ``audit.INVARIANT_CHECKS``, and the ``runner``
of every catalog script. ``missed_bindings`` then lists any reference to an
unwrapped original that is left.

Spans (name, start, end, parent, run) are kept in flat arrays and written
out once at the end. A span's self time is its duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from array import array
from collections import Counter, defaultdict

# (module, attribute, span name). "Class.method" names a method.
SPANS = (
    ("crypto", "sign", "crypto.sign"),
    ("crypto", "verify", "crypto.verify"),
    ("crypto", "keygen", "crypto.keygen"),
    ("crypto", "canonical_bytes", "crypto.canonical_bytes"),
    ("anchor", "TrustAnchor.quote", "anchor.quote"),
    ("anchor", "TrustAnchor.create_aik_batch", "anchor.create_aik_batch"),
    ("anchor", "TrustAnchor.define_slot", "anchor.slot_ops"),
    ("anchor", "TrustAnchor.slot_read", "anchor.slot_ops"),
    ("anchor", "TrustAnchor.slot_decrement", "anchor.slot_ops"),
    ("anchor", "TrustAnchor.slot_credit", "anchor.slot_ops"),
    ("boot", "boot", "boot.boot"),
    ("attestation", "Verifier.verify", "attestation.verify"),
    ("privacy_ca", "PrivacyCa.enroll", "privacy_ca.certify"),
    ("privacy_ca", "PrivacyCa.replenish", "privacy_ca.certify"),
    ("harness", "Simulation.send", "harness.send"),
    ("harness", "Simulation.events", "harness.query"),
    ("harness", "Simulation.messages", "harness.query"),
    ("harness", "Simulation.knowledge_query", "harness.query"),
    ("harness", "Transcript.events", "harness.query"),
    ("harness", "Transcript.messages", "harness.query"),
    ("harness", "Transcript.knowledge_query", "harness.query"),
    ("harness", "Simulation.finalize", "harness.finalize"),
    ("harness", "Transcript.to_text", "harness.serialize"),
    ("harness", "Transcript.parse", "harness.parse"),
    ("audit", "audit", "audit.audit"),
    ("flows", "attest_flow", "flows.attest"),
    ("flows", "replenish_flow", "flows.replenish"),
    ("flows", "enroll_flow", "flows.enroll"),
    ("prepaid", "prepaid_service_request", "prepaid.service_request"),
    ("prepaid", "top_up_flow", "prepaid.top_up"),
    ("pos", "mutual_attest_session", "pos.purchase"),
    ("pos", "exchange_price_list", "pos.purchase"),
    ("pos", "purchase_via_operator", "pos.purchase"),
    ("pos", "separation_session", "pos.purchase"),
    ("pos", "separation_purchase", "pos.purchase"),
    ("pos", "rotate_pos_pseudonym", "pos.purchase"),
    ("pos", "control_exchange", "pos.purchase"),
    ("facility", "facility_access", "facility.access"),
    ("facility", "facility_exit", "facility.access"),
    ("facility", "terminal_interaction", "facility.access"),
    ("facility", "send_external", "facility.access"),
    ("domain", "network_access_flow", "domain.admission"),
    ("domain", "subdomain_admission_flow", "domain.admission"),
    ("scenarios", "run_scenario", "scenarios.run_scenario"),
)

# Called far too often for a span each; only counted.
COUNTED = (
    ("crypto", "hash160", "crypto.hash.calls"),
    ("crypto", "hash256", "crypto.hash.calls"),
)

RECORDED_ENROLMENT = ("flows.enroll", "flows.replenish")
PACKAGE = "trustsim"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._name_ids = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.run = array("l")
        self.stack = []
        self.run_id = -1
        self.counts = Counter()
        self.run_counts = defaultdict(Counter)
        self.presented_certs = set()  # (run id, AIK public) of certificates verified
        self._wrapped = {}  # original function -> wrapper
        self.check_names = []

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] += n
        self.run_counts[self.run_id][key] += n

    def open_span_names(self) -> set:
        return {self.names[self.name_id[i]] for i in self.stack}

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, observe=None):
        """fn wrapped in a span; observe(args, result, exc) runs after each call."""
        nid = self._intern(name)
        name_ids, starts, ends, parents, runs = (
            self.name_id, self.start, self.end, self.parent, self.run)
        stack = self.stack
        clock = self.clock
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(tracer.run_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if observe is not None:
                    observe(args, None, exc)
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result, None)
            return result

        return traced

    def counter(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ----------------------------------------------------

    def _observers(self) -> dict:
        def aiks(args, result, exc):
            if exc is None:
                self.count("anchor.aik_created", len(result))

        def slot(args, result, exc):
            if exc is not None:
                self.count("anchor.slot_denied")

        def verdict(args, result, exc):
            if exc is None:
                self.presented_certs.add((self.run_id, args[1].certificate.aik_public))
                if not result.accepted:
                    self.count("attestation.rejected")

        def certify(args, result, exc):
            if exc is None:
                self.count("privacy_ca.certs_issued", len(result))
                if self.open_span_names() & set(RECORDED_ENROLMENT):
                    self.count("privacy_ca.certs_on_record", len(result))

        def service(args, result, exc):
            if exc is None:
                self.count("prepaid.grants" if result is not None else "prepaid.denials")

        return {
            "anchor.create_aik_batch": aiks,
            "anchor.slot_ops": slot,
            "attestation.verify": verdict,
            "privacy_ca.certify": certify,
            "prepaid.service_request": service,
        }

    def install(self) -> None:
        modules = {name[len(PACKAGE) + 1:]: mod for name, mod in sys.modules.items()
                   if name.startswith(PACKAGE + ".")}
        observers = self._observers()
        audit = modules["audit"]
        self.check_names = [check for check, _ in audit.INVARIANT_CHECKS]
        targets = list(SPANS) + [
            ("audit", fn.__name__, f"audit.{check}") for check, fn in audit.INVARIANT_CHECKS
        ]
        for module, attr, name in targets:
            self._replace(modules[module], attr,
                          lambda fn, name=name: self.wrap(name, fn, observers.get(name)))
        for module, attr, key in COUNTED:
            self._replace(modules[module], attr, lambda fn, key=key: self.counter(key, fn))
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                swapped = self._swap(value)
                if swapped is not value:
                    setattr(mod, key, swapped)

        scenarios = modules["scenarios"]
        for key, script in scenarios.CATALOG.items():
            runner = self.wrap("scenarios.runner", script.runner)
            scenarios.CATALOG[key] = dataclasses.replace(script, runner=runner)

    def _replace(self, owner, attr, make) -> None:
        """Wrap a method in place; for a function, only note its wrapper,
        which install() then binds wherever the function is referenced."""
        if "." not in attr:
            original = getattr(owner, attr)
            self._wrapped[original] = make(original)
            return
        cls_name, attr = attr.split(".")
        cls = getattr(owner, cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(cls, attr, type(raw)(make(raw.__func__)))
        else:
            setattr(cls, attr, make(raw))

    def _is_original(self, value) -> bool:
        try:
            return value in self._wrapped
        except TypeError:  # unhashable
            return False

    def _swap(self, value):
        """value with wrapped originals replaced, looking into nested tuples."""
        if isinstance(value, tuple):
            items = tuple(self._swap(v) for v in value)
            return items if any(a is not b for a, b in zip(items, value)) else value
        return self._wrapped[value] if self._is_original(value) else value

    def missed_bindings(self) -> list:
        """Module globals (or tuple members) still bound to an unwrapped original."""
        return [
            f"{name}.{key}"
            for name, mod in sys.modules.items() if name.startswith(PACKAGE + ".")
            for key, value in vars(mod).items()
            if self._swap(value) is not value
        ]

    # -- results -----------------------------------------------------------

    def self_times(self) -> tuple:
        """(calls by name, self seconds by name, per-run calls by (run, name))."""
        child = [0.0] * len(self.start)
        start, end, parent = self.start, self.end, self.parent
        for i in range(len(start)):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = Counter()
        self_s = Counter()
        run_calls = Counter()
        for i in range(len(start)):
            name = self.names[self.name_id[i]]
            calls[name] += 1
            self_s[name] += end[i] - start[i] - child[i]
            run_calls[self.run[i], name] += 1
        return calls, self_s, run_calls

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\trun\tname\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.run[i]}\t{self.names[self.name_id[i]]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.parent[i]}\n")
