"""Command line front end: generate, factors, check, christoffel, harness.

Exit codes: 0 consistent / all assertions pass, 1 violated, 2 indeterminate
(or stdout closed before the output ended), 64 usage errors, 65 malformed
specs or inputs.  ``--json`` output has a pinned key order so golden files
stay byte-stable across runs.
"""

from __future__ import annotations

import os
import sys
from collections import namedtuple
from types import SimpleNamespace

from . import words
from .errors import SturmlexError
from .factors import FactorTable

EXIT_CONSISTENT = 0
EXIT_VIOLATED = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 64
EXIT_BAD_INPUT = 65

# Single checks by --what, by their names on ``checks``: looked up at call
# time, so a replaced module attribute (a tracing wrapper) is the one called.
_CHECKS = {"nfop": "check_nfop", "balance": "check_balance", "hamming2": "check_hamming2",
           "ones": "check_ones_monotone", "complexity": "periodicity_certificate"}


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
        sys.stdout.writelines(table.dump())
    return EXIT_CONSISTENT


def _exit_for(checks, verdict: checks.Verdict) -> int:
    if verdict.status in (checks.VIOLATED, checks.NOT_STURMIAN,
                          checks.ULTIMATELY_PERIODIC, checks.NON_RECURRENT):
        return EXIT_VIOLATED
    if verdict.status in (checks.CONSISTENT, checks.STURMIAN_CONSISTENT,
                          checks.APPARENTLY_APERIODIC, checks.RECURRENT_CONSISTENT):
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
    import json

    print(json.dumps(payload, indent=2))


def cmd_check(args) -> int:
    from . import checks

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
        check = getattr(checks, _CHECKS[args.what])
        decisive = check(table, args.variant) if args.what == "nfop" else check(table)
        verdicts = [decisive]
        prefix_length = len(table.word)
    if args.json:
        _emit_json([v.to_json() for v in verdicts])
    else:
        # A literal's window may have grown past --prefix-len until it saturated.
        print(f"prefix: {prefix_length} letters")
        for v in verdicts:
            print(_format_verdict(v))
    return _exit_for(checks, decisive)


def cmd_christoffel(args) -> int:
    from . import christoffel

    pair = christoffel.christoffel_pair(args.p, args.q)
    # Without --verify the report lists the pair and no items.
    report = christoffel.ChristoffelReport(args.p, args.q, pair, items=())
    if args.verify:
        from . import checks

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
    from . import checks

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


# One option.  ``kind`` is str, int (at least ``low`` when that is set) or
# bool, a flag that takes no value; ``choices`` are the values allowed.
_Option = namedtuple("_Option", "flag dest kind low required default choices help",
                     defaults=(str, None, False, None, (), ""))
_SPEC = _Option("--spec", "spec", required=True, help="word spec: fib | morphic:0->01,1->0;seed=0"
                " | periodic:01 | ultper:0|1 | std:1,1,2,3 | mech:2/5@0 | literal:0100101")
_MAX_N = _Option("--max-n", "max_n", int, 1, required=True, help="longest factor length")
_PREFIX_LEN = _Option("--prefix-len", "prefix_len", int, 1, help="first window length")
_JSON = _Option("--json", "json", bool, default=False, help="print JSON")

# Each command's function, help line and options, in usage order.
COMMANDS = {
    "generate": (cmd_generate, "print a prefix of the specified word", (
        _SPEC, _Option("--len", "length", int, 0, required=True))),
    "factors": (cmd_factors, "print complexities, optionally the table", (
        _SPEC, _Option("--len", "length", int, 1, required=True), _MAX_N,
        _Option("--dump", "dump", bool, default=False, help="also print n/factor/count lines"))),
    "check": (cmd_check, "run one property check or the full battery", (
        _SPEC, _Option("--what", "what", required=True, choices=(*_CHECKS, "sturmian")),
        _MAX_N, _PREFIX_LEN,
        _Option("--variant", "variant", int, default=3, choices=(1, 2, 3),
                help="shape variant for nfop (default 3); read only with --what nfop"),
        _JSON)),
    "christoffel": (cmd_christoffel, "print a Christoffel pair, optionally verify", (
        _Option("--p", "p", int, 1, required=True, help="number of ones"),
        _Option("--q", "q", int, 1, required=True, help="number of zeros (length is p+q)"),
        _Option("--verify", "verify", bool, default=False,
                help="check the factor structure against a word's table"),
        _Option("--spec", "spec", help="word to verify against (default mech:p/(p+q)@0);"
                " read only with --verify"),
        _PREFIX_LEN._replace(help="first window length; read only with --verify"),
        _JSON)),
    "harness": (cmd_harness, "run the cross-check harness over a corpus file", (
        _Option("--corpus", "corpus", required=True, help="file with one spec per line, # comments"),
        _MAX_N, _PREFIX_LEN, _JSON)),
}


class UsageError(Exception):
    """A bad command line: the command whose usage to print (None: the program's), and why."""


def _form(o: _Option) -> str:
    value = "{" + ",".join(map(str, o.choices)) + "}" if o.choices else o.dest.upper()
    return o.flag if o.kind is bool else f"{o.flag} {value}"


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: sturmlex [-h] {" + ",".join(COMMANDS) + "} ..."
    forms = (_form(o) if o.required else f"[{_form(o)}]" for o in COMMANDS[command][2])
    return f"usage: sturmlex {command} [-h] " + " ".join(forms)


def _read(arg: str, flags) -> tuple[str | None, str | None]:
    """(the flag ``arg`` names, "" for an unknown option or None for a value;
    the value given after ``=``).  A long flag may be cut to a prefix that
    starts no other flag."""
    head, eq, inline = arg.partition("=")
    long = head.startswith("--") and head != "--"
    hits = [head] if head in flags else [f for f in flags if long and f.startswith(head)]
    if len(hits) == 1:
        return hits[0], inline if eq else None
    number = arg[1:].replace(".", "", 1).isdecimal() and arg[-1] != "."
    if arg[:1] != "-" or arg == "-" or " " in arg or number:
        return None, None  # a value, such as a negative number or a text with a space
    return "", None


def _value(o: _Option, text: str):
    """``text`` read as the value of ``o``; a ValueError says why it is not one."""
    try:
        value = int(text) if o.kind is int else text
    except ValueError:
        raise ValueError(f"argument {o.flag}: invalid int value: {text!r}") from None
    if o.low is not None and value < o.low:
        raise ValueError(f"argument {o.flag}: must be >= {o.low}, got {value}")
    if o.choices and value not in o.choices:
        choices = ", ".join(map(repr, o.choices))
        raise ValueError(f"argument {o.flag}: invalid choice: {value!r} (choose from {choices})")
    return value


def parse_args(argv: list[str]) -> tuple[str | None, SimpleNamespace | None]:
    """(command, its options), read left to right with the last one given
    winning; the options are None when help is asked for.  Raises UsageError."""
    command, flags, extras, i = None, dict.fromkeys(("-h", "--help")), [], 0
    try:
        while i < len(argv):
            arg, i = argv[i], i + 1
            flag, text = _read(arg, flags)
            o = flags.get(flag)
            if flag is None and command is None:
                if arg not in COMMANDS:
                    choices = ", ".join(map(repr, COMMANDS))
                    raise ValueError(f"argument command: invalid choice: {arg!r} (choose from {choices})")
                command, options = arg, COMMANDS[arg][2]
                flags |= {o.flag: o for o in options}
                values = {o.dest: o.default for o in options}
            elif not flag:
                extras.append(arg)
            elif o is None:
                return command, None
            elif o.kind is bool:
                if text is not None:
                    raise ValueError(f"argument {flag}: ignored explicit argument {text!r}")
                values[o.dest] = True
            else:
                if text is None:
                    if i == len(argv) or _read(argv[i], flags)[0] is not None:
                        raise ValueError(f"argument {flag}: expected one argument")
                    text, i = argv[i], i + 1
                values[o.dest] = _value(o, text)
    except ValueError as exc:
        raise UsageError(command, str(exc)) from None
    if command is None:
        raise UsageError(None, "the following arguments are required: command")
    missing = ", ".join(o.flag for o in options if o.required and values[o.dest] is None)
    if missing:
        raise UsageError(command, f"the following arguments are required: {missing}")
    if extras:
        raise UsageError(None, f"unrecognized arguments: {' '.join(extras)}")
    return command, SimpleNamespace(**values)


def main(argv=None) -> int:
    try:
        command, args = parse_args(sys.argv[1:] if argv is None else list(argv))
    except UsageError as exc:
        command, message = exc.args
        prog = "sturmlex" if command is None else f"sturmlex {command}"
        sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
        return EXIT_USAGE
    if args is None:  # help: the usage line, then each command or option and what it does
        rows = ([(_usage(c)[7:], COMMANDS[c][1]) for c in COMMANDS] if command is None
                else [(_form(o), o.help) for o in COMMANDS[command][2]])
        print(_usage(command), "", *(f"  {f}\n      {h}".rstrip() for f, h in rows), sep="\n")
        return EXIT_CONSISTENT
    try:
        code = COMMANDS[command][0](args)
        sys.stdout.flush()  # a reader that closed the pipe early shows here, not at exit
        return code
    except SturmlexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except BrokenPipeError:  # what the reader read decides nothing; the rest goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INDETERMINATE
