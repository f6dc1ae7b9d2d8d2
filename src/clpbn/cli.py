"""Command-line front end.

One subcommand per invocation: validate a program, run a query, draw
samples, export the ground network, compile a relational schema, fit or
score parameters, compare structures, check query/ground agreement, or
start an interactive query loop.

Exit codes: 0 success, 1 query failure or inconsistent evidence,
2 validation errors, 3 usage errors. Results go to stdout, diagnostics
to stderr. JSON output is emitted with sorted keys so the same input
(and seed) always produces the same bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Optional

from . import inference, learn, prm
from .engine import DEFAULT_DEPTH_LIMIT, Answer, Engine
from .errors import (
    ClpbnError,
    ClpbnSyntaxError,
    GroundingError,
    InvalidProgramError,
    LearnError,
    MalformedCptError,
    PrmError,
)
from .fixtures import fixture_names, fixture_text
from .parser import parse_term, term_to_text
from .program import NORMALIZATION_TOLERANCE, Program, parse_program

_VALIDATION_ERRORS = (
    ClpbnSyntaxError,
    InvalidProgramError,
    MalformedCptError,
    PrmError,
    LearnError,
    GroundingError,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; our contract reserves 2 for
    validation problems, so usage errors leave with 3 instead."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _read_text(path: str) -> str:
    p = Path(path)
    if not p.exists():
        if path in fixture_names():
            return fixture_text(path)
        raise InvalidProgramError(f"cannot read {path}: no such file")
    try:
        return p.read_text(encoding="utf-8")
    except OSError as e:
        raise InvalidProgramError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise InvalidProgramError(f"cannot read {path}: not UTF-8 text ({e.reason})") from None


def _load_program(path: str, tolerance: float, report: bool = True) -> Program:
    program = parse_program(_read_text(path))
    diags = program.validate(tolerance)
    errors = [d for d in diags if d.severity == "error"]
    if report:
        for d in diags:
            print(d.format(), file=sys.stderr)
    if errors:
        raise InvalidProgramError(
            f"{path}: {len(errors)} validation error"
            + ("s" if len(errors) != 1 else "")
        )
    return program


def _facts(args) -> list:
    return [parse_term(t) for t in (args.fact or [])]


def _dump(doc, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, sort_keys=True))
    else:
        print(json.dumps(doc, sort_keys=True, indent=2))


def _seed_value(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return value


def _int_at_least(minimum: int):
    """argparse type for an integer flag with a lower bound."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}")
        return value

    return parse


def _finite_at_least_zero(text: str) -> float:
    """argparse type for a float flag that must be finite and not negative."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError("must be a finite number at least 0")
    return value


# --- answer printing (shared by query and repl) --------------------------------


def _answer_marginals(answer: Answer) -> dict[str, inference.Marginal]:
    return {
        name: inference.marginal(answer.network, nid)
        for name, nid in sorted(answer.query_nodes.items())
    }


def _print_answer_text(answer: Answer) -> None:
    marginals = _answer_marginals(answer)
    for name in sorted(answer.bindings):
        if name in marginals:
            continue
        bound = term_to_text(answer.bindings[name])
        if bound != name:
            print(f"{name} = {bound}")
    for name, m in marginals.items():
        pairs = ", ".join(
            f"{term_to_text(v)}: {p:.6g}" for v, p in zip(m.domain, m.probs)
        )
        print(f"{name} = {{{pairs}}}")


def _answer_json(answer: Answer) -> dict:
    marginals = _answer_marginals(answer)
    return {
        "bindings": {
            name: term_to_text(t)
            for name, t in answer.bindings.items()
            if name not in marginals
        },
        "marginals": {name: m.to_json() for name, m in marginals.items()},
    }


# --- subcommands ---------------------------------------------------------------


def _cmd_check(args) -> int:
    program = parse_program(_read_text(args.program))
    diags = program.validate(args.tolerance)
    errors = sum(1 for d in diags if d.severity == "error")
    warnings = sum(1 for d in diags if d.severity == "warning")
    if args.format == "json":
        doc = {
            "diagnostics": [d.to_json() for d in diags],
            "errors": errors,
            "warnings": warnings,
        }
        print(json.dumps(doc, sort_keys=True))
    else:
        for d in diags:
            print(d.format())
        print(f"{errors} error(s), {warnings} warning(s)")
    return 2 if errors else 0


def _cmd_query(args) -> int:
    program = _load_program(args.program, args.tolerance)
    engine = Engine(program, depth_limit=args.depth)
    answers = list(engine.solve_text(args.query, limit=args.limit))
    if args.format == "json":
        doc = {"answers": [_answer_json(a) for a in answers]}
        print(json.dumps(doc, sort_keys=True))
    else:
        if not answers:
            print("no.")
        for i, a in enumerate(answers):
            if i:
                print()
            _print_answer_text(a)
    return 0 if answers else 1


def _cmd_sample(args) -> int:
    program = _load_program(args.program, args.tolerance)
    net = inference.ground_program(
        program,
        population=_facts(args),
        drivers=args.driver,
        depth_limit=args.depth,
    )
    sys.stdout.write(inference.sample_csv(net, args.n, args.seed))
    return 0


def _cmd_ground(args) -> int:
    program = _load_program(args.program, args.tolerance)
    net = inference.ground_program(
        program,
        population=_facts(args),
        drivers=args.driver,
        depth_limit=args.depth,
    )
    _dump(net.to_json(), args.format)
    return 0


def _cmd_compile_prm(args) -> int:
    text = prm.compile_prm(_read_text(args.schema), _read_text(args.skeleton))
    if args.format == "json":
        print(json.dumps({"program": text}, sort_keys=True))
    else:
        sys.stdout.write(text)
    return 0


def _cmd_fit(args) -> int:
    program = _load_program(args.program, args.tolerance)
    samples = learn.SampleSet.from_csv(_read_text(args.samples))
    fitted = learn.fit_cpts(
        program, population=_facts(args), samples=samples, alpha=args.alpha
    )
    text = fitted.to_text()
    if args.format == "json":
        print(json.dumps({"program": text}, sort_keys=True))
    else:
        sys.stdout.write(text)
    return 0


def _cmd_score(args) -> int:
    program = _load_program(args.program, args.tolerance)
    samples = learn.SampleSet.from_csv(_read_text(args.samples))
    bic = learn.bic_score(
        program, population=_facts(args), samples=samples, alpha=args.alpha
    )
    if args.format == "json":
        print(json.dumps({"bic": bic, "rows": len(samples)}, sort_keys=True))
    else:
        print(f"bic {bic}")
    return 0


def _cmd_compare(args) -> int:
    learned = _load_program(args.learned, args.tolerance)
    truth = _load_program(args.truth, args.tolerance)
    report = learn.compare_structures(learned, truth, population=_facts(args))
    if args.format == "json":
        print(json.dumps(report.to_json(), sort_keys=True))
    else:
        for key, value in report.to_json().items():
            print(f"{key} {value:.6g}")
    return 0


def _cmd_agree(args) -> int:
    program = _load_program(args.program, args.tolerance)
    report = inference.agreement_sweep(
        program,
        drivers=args.driver,
        population=_facts(args),
        tolerance=args.agree_tolerance,
    )
    if args.format == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        print(f"comparisons {report['comparisons']}")
        print(f"max_abs_diff {report['max_abs_diff']}")
        for f in report["failures"]:
            print(f"failure {f}")
        print("agree" if report["agree"] else "disagree")
    return 0 if report["agree"] else 1


def _cmd_repl(args) -> int:
    program = _load_program(args.program, args.tolerance)
    engine = Engine(program, depth_limit=args.depth)
    interactive = sys.stdin.isatty()
    while True:
        if interactive:
            sys.stdout.write("?- ")
            sys.stdout.flush()
        line = sys.stdin.readline()
        if not line:
            break
        text = line.strip()
        if not text:
            continue
        if text in ("halt.", "quit.", "halt", "quit"):
            break
        try:
            answers = list(engine.solve_text(text, limit=args.limit))
            if not answers:
                print("no.")
                continue
            for i, a in enumerate(answers):
                if i:
                    print()
                _print_answer_text(a)
        except ClpbnError as e:
            print(f"error: {e}", file=sys.stderr)
    return 0


# --- argument grammar ------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default text)",
    )
    p.add_argument(
        "--tolerance", type=_finite_at_least_zero, default=NORMALIZATION_TOLERANCE,
        help="normalization warning threshold (default 1e-6)",
    )


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--depth", type=_int_at_least(1), default=DEFAULT_DEPTH_LIMIT,
        help="recursion depth limit: nested clause calls on one branch (default 10000)",
    )


def _add_ground_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--driver", action="append", metavar="GOAL",
        help="driver goal enumerating derivations; repeatable "
        "(default: one fresh-variable goal per constrained predicate)",
    )
    p.add_argument(
        "--fact", action="append", metavar="TERM",
        help="extra ground fact appended to the program; repeatable",
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="clpbn",
        description="Logic programs with probability distributions on "
        "Skolem terms: validate, query, sample, ground, compile, fit, "
        "score, compare, agree, repl.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("check", help="validate a program and print diagnostics")
    p.add_argument("program", help="program path (or bundled fixture name)")
    _add_common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("query", help="solve a query and print marginals")
    p.add_argument("program")
    p.add_argument("-q", "--query", required=True, help='goal text, e.g. "grade(r2, G)."')
    p.add_argument(
        "--limit", type=_int_at_least(1), default=1,
        help="answers to produce (default 1)",
    )
    _add_common(p)
    _add_engine_flags(p)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("sample", help="draw seeded samples from the ground network as CSV")
    p.add_argument("program")
    p.add_argument("-n", type=_int_at_least(0), required=True, help="number of rows")
    p.add_argument("--seed", type=_seed_value, required=True, help="RNG seed (u64)")
    _add_common(p)
    _add_engine_flags(p)
    _add_ground_flags(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("ground", help="export the full ground network as JSON")
    p.add_argument("program")
    _add_common(p)
    _add_engine_flags(p)
    _add_ground_flags(p)
    p.set_defaults(func=_cmd_ground)

    p = sub.add_parser("compile-prm", help="compile a relational schema and skeleton to a program")
    p.add_argument("--schema", required=True, help="schema JSON path")
    p.add_argument("--skeleton", required=True, help="skeleton JSON path")
    _add_common(p)
    p.set_defaults(func=_cmd_compile_prm)

    p = sub.add_parser("fit", help="fit CPTs from a sample CSV and print the fitted program")
    p.add_argument("program")
    p.add_argument("--samples", required=True, help="sample CSV path")
    p.add_argument(
        "--alpha", type=_finite_at_least_zero, default=1.0, help="smoothing constant (default 1)"
    )
    p.add_argument("--fact", action="append", metavar="TERM")
    _add_common(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("score", help="BIC score of a program on a sample CSV")
    p.add_argument("program")
    p.add_argument("--samples", required=True, help="sample CSV path")
    p.add_argument(
        "--alpha", type=_finite_at_least_zero, default=0.0, help="smoothing constant (default 0)"
    )
    p.add_argument("--fact", action="append", metavar="TERM")
    _add_common(p)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("compare", help="structure metrics between two programs")
    p.add_argument("learned")
    p.add_argument("truth")
    p.add_argument("--fact", action="append", metavar="TERM")
    _add_common(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("agree", help="check query marginals against the ground network")
    p.add_argument("program")
    p.add_argument(
        "--agree-tolerance", type=_finite_at_least_zero, default=1e-9,
        help="max allowed marginal difference (default 1e-9)",
    )
    _add_common(p)
    _add_ground_flags(p)
    p.set_defaults(func=_cmd_agree)

    p = sub.add_parser("repl", help="interactive query loop")
    p.add_argument("program")
    p.add_argument("--limit", type=_int_at_least(1), default=1)
    _add_common(p)
    _add_engine_flags(p)
    p.set_defaults(func=_cmd_repl)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _VALIDATION_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ClpbnError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
