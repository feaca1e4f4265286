"""Command line front end: generate, factors, check, christoffel, harness.

Exit codes: 0 consistent / all assertions pass, 1 violated, 2 indeterminate,
64 usage errors, 65 malformed specs or inputs.  ``--json`` output has a
pinned key order so golden files stay byte-stable across runs.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import checks, words
from .errors import SturmlexError
from .factors import FactorTable

EXIT_CONSISTENT = 0
EXIT_VIOLATED = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 64
EXIT_BAD_INPUT = 65

_NEGATIVE = {
    checks.VIOLATED,
    checks.NOT_STURMIAN,
    checks.ULTIMATELY_PERIODIC,
    checks.NON_RECURRENT,
}
_POSITIVE = {
    checks.CONSISTENT,
    checks.STURMIAN_CONSISTENT,
    checks.APPARENTLY_APERIODIC,
    checks.RECURRENT_CONSISTENT,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    """argparse type for an integer >= ``low``; anything else is a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


_NON_NEGATIVE_INT = _int_at_least(0)
_POSITIVE_INT = _int_at_least(1)

# Single checks by --what.  The lambdas look the check up on ``checks`` at
# call time, so a replaced module attribute (e.g. a tracing wrapper) is used.
_CHECKS = {
    "nfop": lambda table, args: checks.check_nfop(table, args.variant),
    "balance": lambda table, args: checks.check_balance(table),
    "hamming2": lambda table, args: checks.check_hamming2(table),
    "ones": lambda table, args: checks.check_ones_monotone(table),
    "complexity": lambda table, args: checks.periodicity_certificate(table),
}

_SPEC_HELP = (
    "word spec: fib | morphic:0->01,1->0;seed=0 | periodic:01 | "
    "ultper:0|1 | std:1,1,2,3 | mech:2/5@0 | literal:0100101"
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sturmlex", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("generate", help="print a prefix of the specified word")
    p.add_argument("--spec", required=True, help=_SPEC_HELP)
    p.add_argument("--len", dest="length", type=_NON_NEGATIVE_INT, required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("factors", help="print complexities, optionally the table")
    p.add_argument("--spec", required=True, help=_SPEC_HELP)
    p.add_argument("--len", dest="length", type=_POSITIVE_INT, required=True)
    p.add_argument("--max-n", dest="max_n", type=_POSITIVE_INT, required=True)
    p.add_argument("--dump", action="store_true", help="also print n/factor/count lines")
    p.set_defaults(func=cmd_factors)

    p = sub.add_parser("check", help="run one property check or the full battery")
    p.add_argument("--spec", required=True, help=_SPEC_HELP)
    p.add_argument("--what", required=True, choices=[*_CHECKS, "sturmian"])
    p.add_argument("--max-n", dest="max_n", type=_POSITIVE_INT, required=True)
    p.add_argument("--prefix-len", dest="prefix_len", type=_POSITIVE_INT, default=None)
    p.add_argument("--variant", type=int, choices=[1, 2, 3], default=3,
                   help="shape variant for nfop (default 3)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("christoffel", help="print a Christoffel pair, optionally verify")
    p.add_argument("--p", type=_POSITIVE_INT, required=True, help="number of ones")
    p.add_argument("--q", type=_POSITIVE_INT, required=True,
                   help="number of zeros (length is p+q)")
    p.add_argument("--verify", action="store_true",
                   help="check the factor structure against a word's table")
    p.add_argument("--spec", default=None,
                   help="word to verify against (default mech:p/(p+q)@0)")
    p.add_argument("--prefix-len", dest="prefix_len", type=_POSITIVE_INT, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_christoffel)

    p = sub.add_parser("harness", help="run the cross-check harness over a corpus file")
    p.add_argument("--corpus", required=True, help="file with one spec per line, # comments")
    p.add_argument("--max-n", dest="max_n", type=_POSITIVE_INT, required=True)
    p.add_argument("--prefix-len", dest="prefix_len", type=_POSITIVE_INT, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_harness)

    return parser


def cmd_generate(args) -> int:
    spec = words.parse_spec(args.spec)
    print(words.generate_prefix(spec, args.length))
    return EXIT_CONSISTENT


def cmd_factors(args) -> int:
    spec = words.parse_spec(args.spec)
    prefix = words.generate_prefix(spec, args.length)
    table = FactorTable(prefix, args.max_n)
    for n in range(1, args.max_n + 1):
        print(f"{n}\t{table.complexity(n)}")
    if args.dump:
        sys.stdout.write(table.dump())
    return EXIT_CONSISTENT


def _exit_for(verdict: checks.Verdict) -> int:
    if verdict.status in _NEGATIVE:
        return EXIT_VIOLATED
    if verdict.status in _POSITIVE:
        return EXIT_CONSISTENT
    return EXIT_INDETERMINATE


def _format_verdict(v: checks.Verdict) -> str:
    parts = [f"{v.check}:", v.status]
    if v.up_to is not None:
        parts.append(str(v.up_to))
    if v.n is not None:
        parts.append(f"n={v.n}")
    if v.witness:
        parts.append("witness=(" + ",".join(v.witness) + ")")
    if v.reason:
        parts.append(f"[{v.reason}]")
    return " ".join(parts)


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def cmd_check(args) -> int:
    spec = words.parse_spec(args.spec)
    if args.what == "sturmian":
        report = checks.sturmian_verdict(
            spec, prefix_len=args.prefix_len, max_len=args.max_n
        )
        verdicts = list(report.verdicts) + [report.combined]
        decisive = report.combined
        prefix_length = report.prefix_length
    else:
        table = checks.saturated_table(spec, args.max_n, args.prefix_len)
        decisive = _CHECKS[args.what](table, args)
        verdicts = [decisive]
        prefix_length = len(table.word)
    if args.json:
        _emit_json([v.to_json() for v in verdicts])
    else:
        # The window may have grown past --prefix-len until it saturated.
        print(f"prefix: {prefix_length} letters")
        for v in verdicts:
            print(_format_verdict(v))
    return _exit_for(decisive)


def cmd_christoffel(args) -> int:
    from . import christoffel

    pair = christoffel.christoffel_pair(args.p, args.q)
    # Without --verify the report lists the pair and no items.
    report = christoffel.ChristoffelReport(args.p, args.q, pair, items=())
    if args.verify:
        spec_text = args.spec or f"mech:{args.p}/{args.p + args.q}@0"
        spec = words.parse_spec(spec_text)
        table = checks.saturated_table(spec, args.p + args.q, args.prefix_len)
        report = christoffel.verify_christoffel_properties(args.p, args.q, table)
    if args.json:
        payload = report.to_json()
        payload["conjugates"] = christoffel.conjugates(pair.lower)
        _emit_json(payload)
    else:
        print(f"lower\t{pair.lower}")
        print(f"upper\t{pair.upper}")
        print(f"core\t{pair.core or '-'}")
        for c in christoffel.conjugates(pair.lower):
            print(f"conjugate\t{c}")
        for item in report.items:
            status = "pass" if item.passed else "fail"
            print(f"verify\t{item.name}\t{status}\t{item.detail}")
    return EXIT_CONSISTENT if report.all_passed else EXIT_VIOLATED


def load_corpus(path: str) -> list[tuple[str, words.WordSpec]]:
    """Parse a corpus file: one spec per line, blank lines and # comments."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise SturmlexError(f"cannot read corpus file {path}: {exc}") from exc
    texts = [line for line in lines if line and not line.startswith("#")]
    if not texts:
        raise SturmlexError(f"corpus file {path} holds no specs")
    return [(text, words.parse_spec(text)) for text in texts]


def cmd_harness(args) -> int:
    entries = load_corpus(args.corpus)
    labels = [text for text, _ in entries]
    specs = [spec for _, spec in entries]
    report = checks.equivalence_harness(
        specs, args.max_n, prefix_len=args.prefix_len, labels=labels
    )
    if args.json:
        _emit_json(report.to_json())
    else:
        for o in report.outcomes:
            detail = o.detail or "-"
            print(f"{o.spec_text}\t{o.assertion}\t{o.result}\t{detail}")
    return EXIT_CONSISTENT if report.all_passed else EXIT_VIOLATED


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except SturmlexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
