"""Command-line entry point: run scenarios, verify transcripts, list the catalog.

Exit codes: 0 all expected assertions hold (attack runs pass when the
protocol rejected the injection), 1 assertion or verification mismatch,
2 configuration/parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import zip_longest
from pathlib import Path

from .harness import Transcript
from .scenarios import CATALOG, ScriptError, load_script_file, run_validated, validate_run
from .scenarios import report as report_of

OUT_ENV = "TRUSTSIM_OUT"


def _parse_variant(item: str) -> tuple:
    if "=" not in item:
        raise ScriptError(f"variant must look like key=value: {item!r}")
    key, raw = item.split("=", 1)
    try:
        value = json.loads(raw)
    except (ValueError, RecursionError):  # not JSON: the raw string
        value = raw
    return key, value


def cmd_run(args) -> int:
    out_dir = Path(args.out or os.environ.get(OUT_ENV, "runs"))
    try:
        if args.scenario.endswith(".json") or os.sep in args.scenario:
            script, config, attacks = load_script_file(args.scenario)
            attacks = tuple(attacks) + tuple(args.attack)
            variants = dict(config)
        else:
            script = args.scenario
            attacks = tuple(args.attack)
            variants = {}
        variants.update(dict(_parse_variant(v) for v in args.variant))
        script, variants = validate_run(script, args.seed, attacks, variants)  # before --out
        try:  # before the run, so that an unusable --out costs none
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise ScriptError(f"cannot make output directory {out_dir}: {err}") from None
        transcript, report = run_validated(script, args.seed, attacks, variants)
    except ScriptError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    stem = report["scenario"]
    if attacks:
        stem += "-" + "-".join(attacks)
    stem += f"-seed{args.seed}"
    transcript_path = out_dir / f"{stem}.transcript.jsonl"
    report_path = out_dir / f"{stem}.report.json"
    try:
        for path, text in ((transcript_path, transcript.to_text()),
                           (report_path, json.dumps(report, indent=2, sort_keys=True) + "\n")):
            path.write_text(text, encoding="utf-8")
    except OSError as err:
        print(f"config error: cannot write {path}: {err}", file=sys.stderr)
        return 2

    _print_rows(report)
    print(f"transcript: {transcript_path}")
    print(f"report:     {report_path}")
    if not report["ok"]:
        print("RESULT: FAIL")
        return 1
    print("RESULT: OK")
    return 0


def _print_rows(report: dict) -> None:
    for row in report["assertions"]:
        mark = "PASS" if row["ok"] else "FAIL"
        detail = f"  ({row['detail']})" if row["detail"] else ""
        print(f"[{mark}] {row['name']}{detail}")


def cmd_verify(args) -> int:
    try:
        transcript = Transcript.parse(Path(args.transcript).read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2

    report = report_of(transcript)
    _print_rows(report)
    ok = report["ok"]

    if args.expect:
        try:
            expected = json.loads(Path(args.expect).read_text(encoding="utf-8"))
            if not (isinstance(expected, dict)
                    and isinstance(expected.get("assertions", []), list)):
                raise ValueError("not a report: an object with a list of assertions")
        except (OSError, ValueError, RecursionError) as err:
            print(f"parse error in expectations: {err}", file=sys.stderr)
            return 2
        # the header keys, then every row (name, ok and detail), in order
        mismatches = [
            f"{key}: transcript has {report[key]!r}, expected {expected.get(key)!r}"
            for key in ("scenario", "seed", "attacks", "variants")
            if expected.get(key) != report[key]
        ]
        if not expected.get("ok", False):
            mismatches.append("expected report itself is failing")
        rows = zip_longest(expected.get("assertions", []), report["assertions"])
        mismatches += [f"row {i}: transcript gives {got!r}, expected {want!r}"
                       for i, (want, got) in enumerate(rows) if want != got]
        for line in mismatches:
            print(f"[FAIL] expectation: {line}")
        ok = ok and not mismatches

    print("RESULT: OK" if ok else "RESULT: FAIL")
    return 0 if ok else 1


def cmd_list(args) -> int:
    if args.json:
        print(json.dumps([s.to_dict() for s in CATALOG.values()], indent=2,
                         sort_keys=True))
        return 0
    for script in CATALOG.values():
        print(f"{script.name}")
        print(f"    {script.description}")
        variants = ", ".join(f"{k}={v!r}" for k, v in script.defaults.items())
        print(f"    variants: {variants}")
        print(f"    attacks:  {', '.join(script.attacks)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trustsim",
        description="Deterministic trusted-computing protocol simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a catalog scenario or a script file")
    run.add_argument("scenario", help="catalog name or path to a JSON script")
    run.add_argument("--seed", type=int, default=42, help="64-bit run seed")
    run.add_argument("--out", default=None,
                     help=f"output directory (default ${OUT_ENV} or ./runs)")
    run.add_argument("--attack", action="append", default=[],
                     help="inject a named attack (repeatable)")
    run.add_argument("--variant", action="append", default=[],
                     help="config override key=value (repeatable)")
    run.set_defaults(func=cmd_run)

    verify = sub.add_parser("verify", help="re-derive a transcript file's report")
    verify.add_argument("transcript", help="path to a .transcript.jsonl file")
    verify.add_argument("--expect", default=None,
                        help="report file the transcript must satisfy")
    verify.set_defaults(func=cmd_verify)

    lst = sub.add_parser("list", help="list the scenario catalog")
    lst.add_argument("--json", action="store_true", help="machine-readable form")
    lst.set_defaults(func=cmd_list)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
