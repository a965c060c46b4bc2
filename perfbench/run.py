"""trustsim benchmark: drive the public entry points on generated inputs.

    python3 perfbench/run.py --workload catalog-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; trustsim is imported from ./src.
One run of a job is what `trustsim run` does (run_scenario, Transcript.to_text,
report JSON); every completed run is then verified as `trustsim verify` does
(Transcript.parse, audit.audit). Whole passes over the workload's jobs repeat
until --seconds have elapsed, at least twice, all on one thread.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics from
a traced phase that follows an untraced one (see tracer.py). The last line of
stdout is the JSON result; the lines before it are the same figures for
people, plus the ones BENCHMARK.json does not gate. NOTES.md defines them.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from calibrate import NOMINAL_KERNEL_S, SpeedRef
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 5
P90_MIN_RUNS = 100


class BenchError(Exception):
    """The benchmark cannot run here, or its own declarations disagree."""


@dataclass
class Api:
    scenarios: object
    audit: object
    harness: object


def import_trustsim() -> Api:
    """Fresh import of the package from ./src (earlier imports are dropped)."""
    for name in [n for n in sys.modules if n == "trustsim" or n.startswith("trustsim.")]:
        del sys.modules[name]
    scenarios = importlib.import_module("trustsim.scenarios")
    if not Path(scenarios.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"trustsim imported from {scenarios.__file__}, not {SRC}")
    return Api(scenarios, importlib.import_module("trustsim.audit"),
               importlib.import_module("trustsim.harness"))


@dataclass
class Phase:
    """Everything measured and checked over the passes of one phase."""

    pass_stats: list = field(default_factory=list)  # (msgs, bytes, sha256) per pass
    # (runs/s, msgs/s, MB/s, unscaled runs/s) per pass
    pass_rates: list = field(default_factory=list)
    run_times: list = field(default_factory=list)  # completed runs only, scaled
    attempted: int = 0
    errors: int = 0
    rows: int = 0
    failed_rows: int = 0
    defects: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)
    runs: list = field(default_factory=list)  # per completed run: trace cross-check counts
    wall_s: float = 0.0

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)


class Bench:
    def __init__(self, api: Api, jobs: list, speed: SpeedRef):
        self.api = api
        self.jobs = jobs
        self.speed = speed
        self.tracer = None

    # The two units the benchmark times; in a traced phase they become the
    # root spans "bench.run" and "bench.verify".
    def run_job(self, job):
        transcript, report = self.api.scenarios.run_scenario(
            job.scenario, job.seed, attacks=job.attacks, variants=job.variants)
        return transcript.to_text(), json.dumps(report, indent=2, sort_keys=True), report

    def verify_text(self, text):
        parsed = self.api.harness.Transcript.parse(text)
        return parsed, self.api.audit.audit(parsed)

    def trace(self) -> Tracer:
        self.tracer = Tracer(self.speed.now)
        self.tracer.install()
        self.run_job = self.tracer.wrap("bench.run", self.run_job)
        self.verify_text = self.tracer.wrap("bench.verify", self.verify_text)
        return self.tracer

    def one_pass(self, jobs: list, phase: Phase) -> None:
        """Run jobs once. Each timed interval is scaled by the host speed the
        kernel samples around it show (see calibrate.py)."""
        digest = hashlib.sha256()
        msgs_total = bytes_total = 0
        speed = self.speed
        intervals = []  # (kind, host seconds, first sample in it, first sample after it)
        speed.sample()
        for job in jobs:
            phase.attempted += 1
            if self.tracer is not None:
                self.tracer.run_id += 1
            speed.refresh()
            k0, t0 = len(speed.samples), speed.now()
            try:
                text, _report_json, report = self.run_job(job)
            except Exception as exc:  # a run that raised is counted, not fatal
                intervals.append(("failed", speed.now() - t0, k0, len(speed.samples)))
                phase.errors += 1
                defect = workloads.classify_error(job, exc)
                if defect is None:
                    phase.problem(f"{job.label} raised {exc!r}")
                else:
                    phase.defects[defect] += 1
                continue
            t1, k1 = speed.now(), len(speed.samples)
            parsed, findings = self.verify_text(text)
            t2, k2 = speed.now(), len(speed.samples)
            intervals.append(("run", t1 - t0, k0, k1))
            intervals.append(("verify", t2 - t1, k1, k2))

            data = text.encode("utf-8")
            digest.update(data)
            bytes_total += len(data)
            counts = record_counts(parsed.records)
            msgs_total += counts["message"]
            self.check(job, report, findings, counts, phase)
            counts["run"] = self.tracer.run_id if self.tracer is not None else -1
            phase.runs.append(counts)
        speed.sample()

        scaled = {"run": [], "failed": [], "verify": []}
        host_run_s = 0.0
        for kind, seconds, first, end in intervals:
            scaled[kind].append(seconds * speed.scale(first, end))
            host_run_s += seconds if kind != "verify" else 0.0
        completed = len(scaled["run"])
        phase.run_times += scaled["run"]
        phase.pass_stats.append((msgs_total, bytes_total, digest.hexdigest()))
        phase.pass_rates.append((
            rate(completed, sum(scaled["run"]) + sum(scaled["failed"])),
            rate(msgs_total, sum(scaled["run"])),
            rate(bytes_total / 1e6, sum(scaled["verify"])),
            rate(completed, host_run_s),
        ))

    def check(self, job, report, findings, counts, phase: Phase) -> None:
        bad = [f.name for f in findings if not f.ok]
        if bad:
            phase.problem(f"{job.label}: re-audit fails {bad}")
        reported = {r["name"]: r["ok"] for r in report["assertions"]}
        if any(reported.get(f.name) != f.ok for f in findings):
            phase.problem(f"{job.label}: report invariants differ from the re-audit")
        phase.rows += len(report["assertions"])
        for row in report["assertions"]:
            if row["ok"]:
                continue
            phase.failed_rows += 1
            defect = workloads.classify_failed_row(job, row, counts["replenishment"])
            if defect is None:
                phase.problem(f"{job.label}: row {row['name']} failed ({row['detail']})")
            else:
                phase.defects[defect] += 1
        for attack in job.attacks:
            expected = workloads.EXPECTED_REJECTION_ROW[attack]
            if reported.get(expected) is not True:
                phase.problem(f"{job.label}: expected row {expected} missing or failing")

    def measure(self, seconds: float, min_passes: int) -> Phase:
        phase = Phase()
        t0 = time.perf_counter()
        while len(phase.pass_stats) < min_passes or time.perf_counter() - t0 < seconds:
            self.one_pass(self.jobs, phase)
        phase.wall_s = time.perf_counter() - t0
        if len(set(phase.pass_stats)) != 1:
            phase.problem(f"simulated statistics differ between passes: {phase.pass_stats}")
        return phase


def rate(amount, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def record_counts(records) -> Counter:
    """Transcript facts the checks and the trace cross-check need."""
    counts = Counter()
    for r in records:
        if r["kind"] == "message":
            counts["message"] += 1
            if r["type"] in ("enroll-certs", "replenish-certs"):
                certs = r["payload"]["env"]["_sealed"]["payload"]["certificates"]
                counts["wire_certs"] += len(certs)
        elif r["kind"] == "event":
            counts[r["event"]] += 1
    return counts


def setup(workload: str, seed: int) -> tuple:
    """Import, input generation and one warm-up run, SETUP_REPEATS times.

    Returns (median seconds, bench, warm-up problems)."""
    speed = SpeedRef()
    speed.on()
    times = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        k0, t0 = len(speed.samples), speed.now()
        api = import_trustsim()
        bench = Bench(api, workloads.WORKLOADS[workload](seed), speed)
        warm = Phase()
        bench.one_pass(bench.jobs[:1], warm)
        elapsed = speed.now() - t0
        times.append(elapsed * speed.scale(k0, len(speed.samples)))
    return statistics.median(times), bench, warm.problems


def end_to_end(phase: Phase, setup_s: float, speed: SpeedRef) -> tuple:
    """(gated metrics, extra printed figures)."""
    rates = list(zip(*phase.pass_rates))
    n = len(phase.run_times)
    completed = phase.attempted - phase.errors
    metrics = {
        "setup_s": setup_s,
        "runs_per_s": statistics.median(rates[0]),
        "msgs_per_s": statistics.median(rates[1]),
        "run_ms_p50": statistics.median(phase.run_times) * 1e3 if n else 0.0,
        "verify_mb_per_s": statistics.median(rates[2]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    kernel_ms = [t * 1e3 for t in speed.samples]
    p90 = statistics.quantiles(phase.run_times, n=10)[-1] if n >= P90_MIN_RUNS else None
    extra = {
        "run_ms_p90": (f"{p90 * 1e3:.4f} ms (n={n})" if p90 is not None
                       else f"not reported: {n} runs < {P90_MIN_RUNS}"),
        "host speed": (f"reference kernel median {statistics.median(kernel_ms):.2f} ms "
                       f"(range {min(kernel_ms):.2f}-{max(kernel_ms):.2f}, {len(kernel_ms)} samples; "
                       f"nominal {NOMINAL_KERNEL_S * 1e3:.0f} ms); unscaled runs_per_s "
                       f"{statistics.median(rates[3]):.4f}"),
        "error_ratio": f"{phase.errors / phase.attempted:.6f} ({phase.errors}/{phase.attempted} runs)",
        "assertion_fail_ratio": (f"{phase.failed_rows / max(phase.rows, 1):.6f} "
                                 f"({phase.failed_rows}/{phase.rows} rows over {completed} runs)"),
    }
    return metrics, extra


def cross_check(tracer: Tracer, phase: Phase, run_calls) -> list:
    """Trace counts that must equal what the transcripts record."""
    sums = Counter()
    for counts in phase.runs:
        run = counts["run"]
        sums["harness.send.calls"] += run_calls[run, "harness.send"]
        sums["messages+dropped"] += counts["message"] + counts["message-dropped"]
        sums["attestation.verify.calls"] += run_calls[run, "attestation.verify"]
        sums["attestation-verdict events"] += counts["attestation-verdict"]
        sums["privacy_ca.certs_on_record"] += tracer.run_counts[run]["privacy_ca.certs_on_record"]
        sums["certs in enroll/replenish-certs"] += counts["wire_certs"]
    pairs = (("harness.send.calls", "messages+dropped"),
             ("attestation.verify.calls", "attestation-verdict events"),
             ("privacy_ca.certs_on_record", "certs in enroll/replenish-certs"))
    lines = []
    for traced, recorded in pairs:
        ok = sums[traced] == sums[recorded]
        lines.append((ok, f"{traced} {sums[traced]} == {recorded} {sums[recorded]}"))
    return lines


def per_layer(tracer: Tracer, phase: Phase, calls, self_s) -> dict:
    passes = len(phase.pass_stats)
    c = {k: v / passes for k, v in calls.items()}
    s = {k: v / passes for k, v in self_s.items()}
    n = {k: v / passes for k, v in tracer.counts.items()}
    issued = tracer.counts["privacy_ca.certs_issued"]
    metrics = {}
    for span in ("crypto.sign", "crypto.verify", "crypto.keygen", "anchor.quote",
                 "anchor.slot_ops", "boot.boot", "attestation.verify", "harness.send",
                 "harness.query", "audit.audit", "flows.attest",
                 "prepaid.service_request"):
        metrics[f"{span}.calls"] = c.get(span, 0)
        metrics[f"{span}.self_s"] = s.get(span, 0.0)
    for span in ("crypto.canonical_bytes", "privacy_ca.certify", "harness.finalize",
                 "harness.serialize", "harness.parse", "pos.purchase", "facility.access",
                 "domain.admission", "scenarios.runner", "scenarios.run_scenario",
                 "bench.run", "bench.verify"):
        metrics[f"{span}.self_s"] = s.get(span, 0.0)
    for check in tracer.check_names:
        metrics[f"audit.{check}.self_s"] = s.get(f"audit.{check}", 0.0)
    for span in ("flows.replenish", "flows.enroll", "prepaid.top_up"):
        metrics[f"{span}.calls"] = c.get(span, 0)
    for key in ("crypto.hash.calls", "anchor.aik_created", "anchor.slot_denied",
                "attestation.rejected", "privacy_ca.certs_issued", "prepaid.grants",
                "prepaid.denials"):
        metrics[key] = n.get(key, 0)
    metrics["privacy_ca.cert_use_ratio"] = len(tracer.presented_certs) / issued if issued else 0.0
    return metrics


def emit(workload: str, phase: Phase, metrics: dict, section: list, extra: dict,
         declared_metrics: list) -> None:
    units = {m["name"]: m["unit"] for m in declared_metrics}
    mismatch = set(units) ^ set(metrics)
    if mismatch:
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(mismatch)}")
    msgs, nbytes, sha = phase.pass_stats[0]
    print(f"workload {workload}: {len(phase.pass_stats)} passes of "
          f"{phase.attempted // len(phase.pass_stats)} runs in {phase.wall_s:.1f} s")
    for name in units:
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    for name, text in extra.items():
        print(f"  {name}: {text}")
    print(f"  simulated per pass: msgs_total={msgs} transcript_bytes={nbytes} sha256={sha}"
          f" (identical in all {len(phase.pass_stats)} passes: {len(set(phase.pass_stats)) == 1})")
    for defect, count in sorted(phase.defects.items()):
        print(f"  known defect {defect}: {count}  -- {workloads.DEFECTS[defect]}")
    for line in section:
        print(f"  {line}")
    for text in phase.problems:
        print(f"  PROBLEM: {text}")
    result = {
        "correct": not phase.problems,
        "attempted": phase.attempted,
        "failed": phase.errors,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (SRC / "trustsim" / "__init__.py").is_file():
        raise BenchError(f"no trustsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    setup_s, bench, warm_problems = setup(args.workload, args.seed)
    if not args.trace:
        phase = bench.measure(args.seconds, min_passes=2)
        bench.speed.off()
        phase.problems[:0] = warm_problems
        metrics, extra = end_to_end(phase, setup_s, bench.speed)
        emit(args.workload, phase, metrics, [], extra, declared["end_to_end"])
        return 0

    untraced = bench.measure(args.seconds / 2, min_passes=1)
    untraced_rps = statistics.median(r[0] for r in untraced.pass_rates)
    tracer = bench.trace()
    missed = tracer.missed_bindings()
    first_sample = len(bench.speed.samples)
    phase = bench.measure(args.seconds / 2, min_passes=1)
    bench.speed.off()
    phase.problems[:0] = warm_problems + untraced.problems
    if missed:
        phase.problem(f"unwrapped bindings left: {missed}")
    if untraced.pass_stats[0] != phase.pass_stats[0]:
        phase.problem("tracing changed the simulated statistics")
    calls, self_s, run_calls = tracer.self_times()
    span_scale = bench.speed.scale(first_sample, len(bench.speed.samples))
    self_s = {name: seconds * span_scale for name, seconds in self_s.items()}
    tracer.write(SPANS_DIR / f"spans-{args.workload}.tsv")

    metrics = per_layer(tracer, phase, calls, self_s)
    traced_rps = statistics.median(r[0] for r in phase.pass_rates)
    metrics["trace.untraced_runs_per_s"] = untraced_rps
    metrics["trace.traced_runs_per_s"] = traced_rps
    metrics["trace.overhead_runs_per_s"] = untraced_rps - traced_rps
    section = []
    for ok, line in cross_check(tracer, phase, run_calls):
        section.append(f"cross-check {'ok' if ok else 'MISMATCH'}: {line}")
        if not ok:
            phase.problem(f"trace cross-check failed: {line}")
    total = sum(self_s.values())
    section.append(f"self-time shares of {total / len(phase.pass_stats):.3f} s traced per pass:")
    for name, value in sorted(self_s.items(), key=lambda kv: -kv[1]):
        section.append(f"  {value / total:7.2%}  {name}  ({calls[name] // len(phase.pass_stats)} calls/pass)")
    emit(args.workload, phase, metrics, section, {}, declared["per_layer"])
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(2)
