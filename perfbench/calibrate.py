"""Host-speed reference: scale measured host seconds to a nominal CPU speed.

The machines this benchmark runs on are shared, and the speed a process gets
drifts by a third within a minute while CPU time tracks wall time, so the
drift is the CPU running slower, not the process waiting. A fixed kernel
that mixes what trustsim spends its time on (Ed25519 sign and verify, JSON
encode and decode, SHA-256, dict building; about half native, half Python)
is timed at the start and end of every pass over a workload's jobs, between
its runs, and every SAMPLE_EVERY_S seconds within them. Every host time the
benchmark measures (on SpeedRef.now, which stops while a sample runs, spans
included) is multiplied by NOMINAL_KERNEL_S / (median of the samples in and
next to it): it reads as host seconds on a machine where the kernel takes
NOMINAL_KERNEL_S.
The kernel calls no trustsim code, so a change to the program cannot move it.
"""

from __future__ import annotations

import hashlib
import json
import signal
import statistics
import time

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

# Near the kernel's median on the 2-core Xeon (2.0 GHz) the benchmark was
# written on; any constant works, it only fixes the unit.
NOMINAL_KERNEL_S = 0.02
SAMPLE_EVERY_S = 0.25
ROUNDS = 40
PYTHON_UNITS = 12  # per round, about the cost of one sign + verify

_KEY = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
_PUBLIC = _KEY.public_key()
_DOC = {
    "kind": "message",
    "payload": {"values": list(range(20)), "env": {"readers": ["dev-1"], "blob": "ab" * 20}},
    "labels": {"values": "plumbing", "env": "token"},
}


def kernel() -> float:
    """Run the fixed kernel once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    for _ in range(ROUNDS):
        message = hashlib.sha256(json.dumps(_DOC).encode()).digest()
        _PUBLIC.verify(_KEY.sign(message), message)
        for _ in range(PYTHON_UNITS):
            text = json.dumps(_DOC, sort_keys=True, separators=(",", ":"))
            decoded = json.loads(text)
            hashlib.sha256(text.encode()).digest()
            {key: value for key, value in decoded.items() if key != "kind"}
    return time.perf_counter() - t0


class SpeedRef:
    """Kernel samples, taken when asked and every SAMPLE_EVERY_S while on.

    While on, an interval timer interrupts whatever runs (between Python
    bytecodes, on the main thread) to take a sample, so a long run is sampled
    throughout. now() is a clock that excludes the time samples took.
    """

    def __init__(self):
        self.samples = []
        self.paused_s = 0.0
        self._sampled_at = float("-inf")
        self._sampling = False

    def sample(self, *_signal_args) -> None:
        if self._sampling:  # the timer fired during a sample
            return
        self._sampling = True
        t0 = time.perf_counter()
        self.samples.append(kernel())
        self._sampled_at = time.perf_counter()
        self.paused_s += self._sampled_at - t0
        self._sampling = False

    def now(self) -> float:
        return time.perf_counter() - self.paused_s

    def refresh(self) -> None:
        """Sample unless one was taken in the last SAMPLE_EVERY_S."""
        if time.perf_counter() - self._sampled_at >= SAMPLE_EVERY_S:
            self.sample()

    def on(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def off(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, first: int, end: int) -> float:
        """Factor from host seconds to nominal seconds for an interval that
        saw samples[first:end]; the samples just before and just after it
        count too, so the caller samples before the interval and after it."""
        return NOMINAL_KERNEL_S / statistics.median(self.samples[max(first - 1, 0):end + 1])
