#!/usr/bin/env bash
# Benchmark smoke runs of the CI tests job, run from the repository root:
# each workload for 2 s at seed 1, and each also traced, so their trace
# cross-checks (among them harness.send.calls = messages + dropped) count
# towards "correct". Every run must report
# "correct" true and no failed run (none that raised).
set -euo pipefail

# smoke WORKLOAD TRACE OUT: one run, its output kept in OUT
smoke() {
  python perfbench/run.py --workload "$1" --seed 1 --seconds 2 --trace "$2" | tee "$3"
  tail -n 1 "$3" | python -c 'import json, sys; r = json.load(sys.stdin); sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)'
}

smoke catalog-sweep 0 smoke.txt
smoke catalog-sweep 1 smoke-trace.txt
smoke long-session 0 smoke-long.txt
smoke long-session 1 smoke-long-trace.txt
smoke prepaid-metering 0 smoke-prepaid.txt
smoke prepaid-metering 1 smoke-prepaid-trace.txt
