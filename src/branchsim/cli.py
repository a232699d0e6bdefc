"""Command-line interface: run scenarios, list examples, self-verify.

Exit codes: 0 success, 1 I/O failure, 2 parse error, 3 validation error,
4 verification check failure.  Diagnostics go to stderr; reports and
listings go to stdout unless --out redirects them.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

from .errors import BranchsimError, ParseError, ValidationError
from .machine import run
from .report import build_report, emit_report
from .scenario import (
    BUILTIN_DESCRIPTIONS,
    builtin_scenario,
    builtin_scenarios,
    emit_scenario,
    parse_scenario,
)
from .verify import DEFAULT_SEED, run_checks

EXIT_OK = 0
EXIT_IO = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_VERIFY = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branchsim",
        description="Deterministic state-vector engine for coherent "
        "branching machines (control, memory, system, policy registers).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario and emit a report")
    source = run_p.add_mutually_exclusive_group(required=True)
    source.add_argument("--scenario", metavar="PATH", help="scenario JSON file")
    source.add_argument("--example", metavar="NAME", help="built-in scenario name")
    run_p.add_argument("--out", metavar="PATH", help="write the report here")
    run_p.add_argument("--seed", type=int, metavar="INT",
                       help="override the measurement seed")

    ex_p = sub.add_parser("examples", help="list the built-in scenarios")
    ex_p.add_argument("--emit", metavar="NAME",
                      help="write one scenario document to stdout")

    ver_p = sub.add_parser("verify", help="run the golden and property suites")
    ver_p.add_argument("--seed", type=int, default=DEFAULT_SEED, metavar="INT")
    ver_p.add_argument("--only", metavar="SUITE",
                       help="run one suite: golden, oracle, or properties")
    return parser


# Built once, not per call: building the parser costs more than parsing.
_PARSER = build_parser()


def _cmd_run(args, stdout, stderr) -> int:
    if args.seed is not None and args.seed < 0:  # checked even with no measure
        raise ValidationError(f"seed must be a non-negative integer, got {args.seed}")
    if args.scenario is not None:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            scenario = parse_scenario(fh.read())
    else:
        scenario = builtin_scenario(args.example)
    state = run(scenario)
    report = build_report(scenario, state, seed_override=args.seed)
    sink = open(args.out, "w", encoding="utf-8") if args.out else nullcontext(stdout)
    with sink as out:
        emit_report(report, out)
        out.write("\n")
    return EXIT_OK


def _cmd_examples(args, stdout, stderr) -> int:
    if args.emit is not None:
        print(emit_scenario(builtin_scenario(args.emit)), file=stdout)
        return EXIT_OK
    width = max(len(s.name) for s in builtin_scenarios())
    for scenario in builtin_scenarios():
        print(f"{scenario.name:<{width}}  {BUILTIN_DESCRIPTIONS[scenario.name]}",
              file=stdout)
    return EXIT_OK


def _cmd_verify(args, stdout, stderr) -> int:
    results = run_checks(only=args.only, seed=args.seed)
    for res in results:
        verdict = "PASS" if res.passed else "FAIL"
        print(f"{res.name}: {verdict} (deviation {res.deviation:.6e}, "
              f"tolerance {res.tolerance:.6e})", file=stdout)
    failures = [r for r in results if not r.passed]
    if failures:
        for res in failures:
            print(f"verify failed: {res.name} deviated by {res.deviation:.6e}",
                  file=stderr)
        return EXIT_VERIFY
    return EXIT_OK


def main(argv: list[str] | None = None, stdout=None, stderr=None) -> int:
    stdout = sys.stdout if stdout is None else stdout
    stderr = sys.stderr if stderr is None else stderr
    args = _PARSER.parse_args(argv)
    handler = {"run": _cmd_run, "examples": _cmd_examples, "verify": _cmd_verify}[
        args.command
    ]
    try:
        return handler(args, stdout, stderr)
    except OSError as exc:
        print(f"error: {exc}", file=stderr)
        return EXIT_IO
    except (ParseError, UnicodeDecodeError) as exc:  # a scenario file not in UTF-8
        print(f"parse error: {exc}", file=stderr)
        return EXIT_PARSE
    except BranchsimError as exc:
        print(f"validation error: {exc}", file=stderr)
        return EXIT_VALIDATION


def entrypoint() -> None:
    raise SystemExit(main())
