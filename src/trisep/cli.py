"""Command line interface: prove | check | oracle.

Verdicts print as SZS status lines (Unsatisfiable, Satisfiable, GaveUp) with
the trace document between SZS output markers. Exit codes: 0 a verdict was
reached, 1 gave up, 2 input error, 3 a trace failed verification (check: the
given trace; prove: the machine section of the document it prints, read
back, reported as SZS status Error instead of the verdict).
"""

from __future__ import annotations

import argparse
import sys

from .engine import EngineConfig, prove
from .errors import ParseError, TrisepError
from .oracle import (OracleError, VerificationResult, is_unsatisfiable_bruteforce,
                     propositional_shadow, verify_trace)
from .logic import ClauseSet, is_ground
from .problems import load_problem_file
from .render import SZS_BY_VERDICT, parse_trace_document, render_trace


def _seconds(text: str) -> float:
    """--timeout: seconds, neither negative nor NaN (no comparison with NaN
    holds, so a NaN budget would end every loop at once)."""
    try:
        if float(text) >= 0:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a number of seconds >= 0, got {text!r}")


def _cmd_prove(args) -> int:
    problem = load_problem_file(args.problem, args.format).clauses
    config = EngineConfig(max_rounds=args.max_rounds, fallback_enabled=args.fallback == "on",
                          time_budget=args.timeout)
    outcome, trace = prove(problem, config)
    note = f"max-rounds={args.max_rounds} fallback={args.fallback} timeout={args.timeout}"
    document = render_trace(trace, problem=args.problem, config_note=note, verified=True)
    # certify the document as printed: its machine section, read back
    try:
        result = verify_trace(problem, parse_trace_document(document))
    except ParseError as exc:
        result = VerificationResult(False, f"the rendered trace does not parse: {exc}")
    if not result:
        print(f"% SZS status Error for {args.problem}")
        print(f"% verification failed: {result.diagnostic}")
        return 3
    if args.trace:  # written before the verdict, so an unwritable path prints none
        with open(args.trace, "w", encoding="utf-8") as handle:
            handle.write(document)
    print(f"% SZS status {SZS_BY_VERDICT[outcome.verdict]} for {args.problem}")
    if not args.quiet:
        print(f"% SZS output start for {args.problem}")
        sys.stdout.write(document)
        print(f"% SZS output end for {args.problem}")
    return 0 if outcome.verdict in ("unsatisfiable", "satisfiable") else 1


def _cmd_check(args) -> int:
    problem = load_problem_file(args.problem, args.format).clauses
    with open(args.trace, "r", encoding="utf-8-sig") as handle:  # a leading BOM is dropped
        trace = parse_trace_document(handle.read())
    result = verify_trace(problem, trace)
    if result:
        print(f"verified: {len(trace.rounds)} round(s), verdict {trace.verdict}")
        return 0
    print(f"verification failed: {result.diagnostic}")
    return 3


def _cmd_oracle(args) -> int:
    problem = load_problem_file(args.problem, args.format).clauses
    if not problem.is_propositional:
        if not all(is_ground(c.literals) for c in problem.clauses):
            print("oracle needs a propositional or ground problem", file=sys.stderr)
            return 2
        problem = ClauseSet(propositional_shadow(problem.clauses))
    unsat = is_unsatisfiable_bruteforce(problem)
    status = "Unsatisfiable" if unsat else "Satisfiable"
    print(f"% SZS status {status} for {args.problem}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trisep",
        description="contradiction-separation theorem prover over clause sets")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("problem", help="path to the problem file")
        p.add_argument("--format", choices=["dimacs", "tptp-cnf", "auto"], default="auto")

    p_prove = sub.add_parser("prove", help="decide a clause set and emit a trace")
    common(p_prove)
    p_prove.add_argument("--max-rounds", type=int, default=40,
                         help="round cap of the main loop on first-order input; propositional "
                              "input runs conflict-driven learning and ignores it")
    p_prove.add_argument("--fallback", choices=["on", "off"], default="on",
                         help="on first-order input, whether a stalled round or the round cap "
                              "hands the run to saturation; propositional input always runs "
                              "conflict-driven learning and ignores it")
    p_prove.add_argument("--timeout", type=_seconds, default=10.0,
                         help="time budget in seconds")
    p_prove.add_argument("--trace", default=None, help="write the trace document here")
    p_prove.add_argument("--quiet", action="store_true")
    p_prove.set_defaults(func=_cmd_prove)

    p_check = sub.add_parser("check", help="verify a previously written trace")
    common(p_check)
    p_check.add_argument("--trace", required=True, help="trace document to verify")
    p_check.set_defaults(func=_cmd_check)

    p_oracle = sub.add_parser("oracle", help="brute-force truth-table verdict")
    common(p_oracle)
    p_oracle.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ParseError, OracleError, TrisepError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
