#!/usr/bin/env bash
# Console-script checks of the trustsim CLI, run by both CI jobs from the
# repository root with the package installed:
#   1. every catalog scenario, clean and with each attack it supports, runs
#      and re-verifies against its own report (--expect);
#   2. facility-entry whose zone leaves the camera and MMS on runs and
#      re-verifies the same way, and so do facility-entry with a zone named
#      "zone-é", whose transcript holds the name as raw UTF-8, a 600-login
#      one-time-aik-auth, whose multi-MB transcript spans many of the line
#      decoder's gate windows, and pos-sep-duties and prepaid-happy at the
#      largest seed, whose header holds a 20-digit integer, the first with a
#      billing package;
#   3. a seed outside 64 bits, a zone named "outside", a zone that overrides
#      a feature the device lacks ("wifi"), a variant nested too deep for
#      JSON, a voucher value outside 64 bits, one that takes the balance past
#      64 bits, a script file that is not UTF-8
#      and an --out whose transcript path is a directory are config errors
#      (exit 2, "config error:");
#   4. a transcript whose header line is not a JSON object, one with a
#      record value nested 200,000 deep, one with a float in a record and
#      one with 2**64 in a record are parse errors (exit 2, "parse error:"),
#      and an --expect file nested 100,000 deep is one too ("parse error in
#      expectations:").
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

trustsim run facility-entry --seed 1 --variant 'zones={"zone-é":{"camera":"disabled"}}' \
  --out runs/ci/zone-non-ascii
stem=runs/ci/zone-non-ascii/facility-entry-seed1
grep -q 'zone-é' "$stem.transcript.jsonl"
trustsim verify "$stem.transcript.jsonl" --expect "$stem.report.json"

trustsim run one-time-aik-auth --seed 1 --variant auth_count=600 --out runs/ci/long
stem=runs/ci/long/one-time-aik-auth-seed1
trustsim verify "$stem.transcript.jsonl" --expect "$stem.report.json"

for name in pos-sep-duties prepaid-happy; do
  trustsim run "$name" --seed 18446744073709551615 --out runs/ci/max-seed
  stem="runs/ci/max-seed/$name-seed18446744073709551615"
  trustsim verify "$stem.transcript.jsonl" --expect "$stem.report.json"
done

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
expect_error "config error:" trustsim run pos-fig4 \
  --variant "good=$(python -c 'print("[" * 5000 + "]" * 5000)')" --out runs/ci
expect_error "config error:" trustsim run prepaid-happy \
  --variant 'vouchers=[100000000000000000000000]' --out runs/ci
expect_error "config error:" trustsim run prepaid-happy \
  --variant 'vouchers=[18446744073709551615]' --out runs/ci
printf '{"schema":"trustsim-script/1","base":"pos-fig4\xff"}' > runs/ci/not-utf-8.json
expect_error "config error:" trustsim run runs/ci/not-utf-8.json --out runs/ci
mkdir -p runs/ci/taken/pos-fig4-seed1.transcript.jsonl
expect_error "config error:" trustsim run pos-fig4 --seed 1 --out runs/ci/taken
printf '[1]\n{"kind":"snapshot"}\n' > runs/ci/header-not-an-object.transcript.jsonl
expect_error "parse error:" trustsim verify runs/ci/header-not-an-object.transcript.jsonl
python -c 'import sys
header, rest = open(sys.argv[1]).read().split("\n", 1)
deep = "[" * 200000 + "]" * 200000
open(sys.argv[2], "w").write(f"{header}\n{{\"deep\":{deep},{rest[1:]}")' \
  runs/ci/pos-fig4-seed1.transcript.jsonl runs/ci/nested-too-deep.transcript.jsonl
expect_error "parse error:" trustsim verify runs/ci/nested-too-deep.transcript.jsonl
for number in 1.5 18446744073709551616; do
  python -c 'import sys
header, rest = open(sys.argv[1]).read().split("\n", 1)
open(sys.argv[2], "w").write(f"{header}\n{{\"v\":{sys.argv[3]},{rest[1:]}")' \
    runs/ci/pos-fig4-seed1.transcript.jsonl "runs/ci/number-$number.transcript.jsonl" "$number"
  expect_error "parse error:" trustsim verify "runs/ci/number-$number.transcript.jsonl"
done
python -c 'print("[" * 100000 + "]" * 100000)' > runs/ci/nested-too-deep.json
expect_error "parse error in expectations:" trustsim verify \
  runs/ci/pos-fig4-seed1.transcript.jsonl --expect runs/ci/nested-too-deep.json
