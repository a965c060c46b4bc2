#!/usr/bin/env bash
# Console-script checks of the trustsim CLI, run by both CI jobs from the
# repository root with the package installed:
#   1. every catalog scenario, clean and with each attack it supports, runs
#      and re-verifies against its own report (--expect);
#   2. facility-entry whose zone leaves the camera and MMS on runs and
#      re-verifies the same way, and so does a 600-login one-time-aik-auth,
#      whose multi-MB transcript spans many chunks of the line codec;
#   3. a seed outside 64 bits, a zone named "outside" and a zone that
#      overrides a feature the device lacks ("wifi") are config errors
#      (exit 2, "config error:");
#   4. a transcript whose header line is not a JSON object is a parse error
#      (exit 2, "parse error:").
set -euo pipefail

# one "NAME" line per scenario, then one "NAME ATTACK" line per attack it supports
runs=$(trustsim list --json | python -c 'import json, sys
for s in json.load(sys.stdin):
    print(s["name"])
    for a in s["attacks"]:
        print(s["name"], a)')
while read -r name attack; do
  trustsim run "$name" --seed 1 ${attack:+--attack "$attack"} --out runs/ci
  stem="$name${attack:+-$attack}-seed1"
  trustsim verify "runs/ci/$stem.transcript.jsonl" --expect "runs/ci/$stem.report.json"
done <<< "$runs"

trustsim run facility-entry --seed 1 --variant 'zones={"zone-b":{"calls":"disabled"}}' \
  --out runs/ci/zone-camera-on
stem=runs/ci/zone-camera-on/facility-entry-seed1
trustsim verify "$stem.transcript.jsonl" --expect "$stem.report.json"

trustsim run one-time-aik-auth --seed 1 --variant auth_count=600 --out runs/ci/long
stem=runs/ci/long/one-time-aik-auth-seed1
trustsim verify "$stem.transcript.jsonl" --expect "$stem.report.json"

# expect_error PREFIX COMMAND...: COMMAND must exit 2 with stderr starting PREFIX
expect_error() {
  local prefix=$1 code=0 err
  shift
  err=$("$@" 2>&1 >/dev/null) || code=$?
  echo "exit $code: $err"
  [ "$code" -eq 2 ] && [[ "$err" == "$prefix"* ]]
}

expect_error "config error:" trustsim run pos-fig4 --seed -1
expect_error "config error:" trustsim run facility-entry --variant 'zones={"outside":{}}' \
  --out runs/ci
expect_error "config error:" trustsim run facility-entry \
  --variant 'zones={"zone-lab":{"wifi":"disabled"}}' --out runs/ci
printf '[1]\n{"kind":"snapshot"}\n' > runs/ci/header-not-an-object.transcript.jsonl
expect_error "parse error:" trustsim verify runs/ci/header-not-an-object.transcript.jsonl
