"""Command line surface: output text, JSON stability, exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from sturmlex import checks, factors, words
from sturmlex.cli import COMMANDS, main, parse_args

from conftest import FIB32, _env, prefix, run_module

JSON_KEYS = ["check", "status", "upTo", "witness", "saturatedLengths", "n", "reason"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_fibonacci_prefix(self, capsys):
        code, out, _ = run(capsys, "generate", "--spec", "fib", "--len", "32")
        assert code == 0
        assert out == FIB32 + "\n"

    def test_literal_too_short_is_a_spec_error(self, capsys):
        code, _, err = run(capsys, "generate", "--spec", "literal:01", "--len", "5")
        assert code == 65
        assert "error" in err

    def test_length_beyond_budget_is_an_input_error(self, capsys):
        code, out, err = run(
            capsys, "generate", "--spec", "fib", "--len", str(words.PREFIX_BUDGET + 1)
        )
        assert (code, out) == (65, "")
        assert err.startswith("error: ")

    def test_linear_morphic_word_at_budget(self):
        # The fixed point 01^w grows by one letter per expanded letter; each
        # letter is expanded once, so the full budget takes well under a second.
        proc = run_module(
            "generate", "--spec", "morphic:0->01,1->1;seed=0",
            "--len", str(words.PREFIX_BUDGET), timeout=30,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "0" + "1" * (words.PREFIX_BUDGET - 1) + "\n"


class TestFactors:
    def test_complexities(self, capsys):
        code, out, _ = run(
            capsys, "factors", "--spec", "fib", "--len", "1000", "--max-n", "4"
        )
        assert code == 0
        assert out == "1\t2\n2\t3\n3\t4\n4\t5\n"

    def test_dump(self, capsys):
        code, out, _ = run(
            capsys,
            "factors", "--spec", "periodic:01", "--len", "8", "--max-n", "2", "--dump",
        )
        assert code == 0
        assert out.endswith("1\t0\t4\n1\t1\t4\n2\t01\t4\n2\t10\t3\n")

    def test_length_beyond_budget_is_an_input_error(self, capsys):
        code, out, err = run(
            capsys,
            "factors", "--spec", "fib", "--len", str(words.PREFIX_BUDGET + 1),
            "--max-n", "2",
        )
        assert (code, out) == (65, "")
        assert err.startswith("error: ")


class TestCheck:
    def test_ordered_fibonacci(self, capsys):
        code, out, _ = run(
            capsys, "check", "--spec", "fib", "--what", "nfop", "--max-n", "40"
        )
        assert code == 0
        assert "ConsistentUpTo 40" in out

    @pytest.mark.parametrize(
        "spec,what,used",
        [
            # The language holds all 241 factors; the prefix is the target.
            ("std:1,9,1,9", "nfop", 1024),
            ("std:1,9,1,9", "sturmian", 1024),
            # A literal is read whole, whatever --prefix-len.
            ("literal:" + prefix("fib", 3000), "sturmian", 3000),
        ],
    )
    def test_text_names_the_window_used(self, capsys, spec, what, used):
        code, out, _ = run(
            capsys, "check", "--spec", spec, "--what", what,
            "--max-n", "240", "--prefix-len", "1024",
        )
        assert code == 0
        assert len(checks.saturated_table(words.parse_spec(spec), 240, 1024).word) == used
        assert out.splitlines()[0] == f"prefix: {used} letters"

    @pytest.mark.parametrize(
        "spec", ["morphic:0->01,1->0,2->2;seed=0", "morphic:0->01,1->0,2->210;seed=0"])
    def test_a_rule_the_word_never_reaches_changes_no_verdict(self, capsys, spec):
        argv = ["check", "--what", "sturmian", "--json", "--max-n", "240"]
        code, out, _ = run(capsys, *argv, "--spec", spec)
        assert (code, out) == run(capsys, *argv, "--spec", "fib")[:2]

    def test_a_literal_is_judged_by_its_last_letters_too(self, capsys):
        # Both 00 and 11 occur, the 11 only in the tail.  A window cut at
        # 4096 letters, where the half-window rule held, printed
        # SturmianConsistentUpTo 10.
        spec = "literal:" + prefix("fib", 8188) + "1111"
        code, out, _ = run(capsys, "check", "--spec", spec, "--what", "sturmian", "--max-n", "10")
        lines = out.splitlines()
        assert code == 1 and lines[0] == "prefix: 8192 letters"
        assert "balance: Violated n=2 witness=(00,11)" in lines
        assert lines[-1] == "sturmian: NotSturmian n=2 witness=(00,11) [balance violated]"

    def test_a_sturmian_literal_is_judged_whole(self, capsys):
        # 200 letters of a Sturmian word.  A window cut at --prefix-len 64
        # printed "NotSturmian n=12 witness=(010101010100,100101010101)".
        spec = "literal:" + prefix("std:1,5,5,3", 200)
        code, out, _ = run(capsys, "check", "--spec", spec, "--what", "sturmian",
                           "--max-n", "12", "--prefix-len", "64")
        lines = out.splitlines()
        assert code == 0 and lines[0] == "prefix: 200 letters"
        assert lines[-1] == "sturmian: SturmianConsistentUpTo 12"

    def test_certified_window_decides_std_1_9_1_9(self, capsys):
        # The half-window rule kept 1024 letters, missed factors of lengths
        # 230..240 and printed NotSturmian.
        code, out, _ = run(
            capsys, "check", "--spec", "std:1,9,1,9", "--what", "sturmian",
            "--max-n", "240", "--prefix-len", "1024", "--json",
        )
        combined = json.loads(out)[-1]
        assert code == 0
        assert combined["check"] == "sturmian"
        assert (combined["status"], combined["upTo"]) == (checks.STURMIAN_CONSISTENT, 240)

    def test_long_mechanical_period_is_certified(self, capsys):
        # p(n) = min(n + 1, p + q) at every size: the 41 factors of length 40
        # are all read by 2^22 letters.  The half-window rule, taken past
        # PREFIX_BUDGET, printed "Violated n=3 witness=(010,101)".
        code, out, _ = run(
            capsys, "check", "--spec", "mech:2499999/5000000@0", "--what", "nfop",
            "--max-n", "40",
        )
        assert code == 0
        assert out.splitlines()[-1] == "nfop: ConsistentUpTo 40"

    @pytest.mark.parametrize(
        "what,line",
        [
            ("sturmian", "sturmian: SturmianConsistentUpTo 40"),
            ("complexity", "complexity: ApparentlyAperiodicUpTo 40"),
        ],
    )
    def test_long_mechanical_period_is_decided(self, capsys, what, line):
        # (0^4999999 1)^w has the n + 1 factors of a Sturmian word up to
        # its period, which its standard word gives at once.  2^22 letters
        # of it held one factor per length: the window printed Indeterminate,
        # and under the half-window rule "NotSturmian n=1 [complexity 1 <= 1]".
        code, out, _ = run(
            capsys, "check", "--spec", "mech:1/5000000@0", "--what", what, "--max-n", "40",
        )
        assert code == 0
        assert out.splitlines()[-1] == line

    @pytest.mark.parametrize(
        "spec,max_n",
        [
            ("morphic:0->0010,1->11;seed=0", "100"),
            ("morphic:0->001,1->1;seed=0", "40"),
            ("morphic:0->011001,1->1;seed=0", "40"),
        ],
    )
    def test_non_primitive_morphic_known_recurrent(self, capsys, spec, max_n):
        # Not primitive (1 never reaches 0), but s(0) holds 0 again, so the
        # fixed point is recurrent; the window's heuristic named a long run
        # of 1s as a factor that occurs once.
        code, out, _ = run(
            capsys, "check", "--spec", spec, "--what", "sturmian", "--max-n", max_n,
        )
        assert code == 1
        line = f"recurrence: RecurrentConsistent {max_n} [a-priori recurrent]"
        assert line in out.splitlines()

    def test_non_recurrent_morphic_names_its_seed(self, capsys):
        code, out, _ = run(
            capsys, "check", "--spec", "morphic:0->01,1->1;seed=0", "--what", "sturmian",
            "--max-n", "40",
        )
        assert code == 1
        line = "recurrence: NonRecurrentWitness n=1 witness=(0) [a-priori non-recurrent]"
        assert line in out.splitlines()

    def test_periodic_not_sturmian(self, capsys):
        code, out, _ = run(
            capsys, "check", "--spec", "periodic:01", "--what", "sturmian",
            "--max-n", "10",
        )
        assert code == 1
        assert "witness=(010,101)" in out
        assert "n=3" in out

    def test_complexity_excess_exit(self, capsys):
        code, out, _ = run(
            capsys, "check", "--spec", "literal:012", "--what", "sturmian",
            "--max-n", "1",
        )
        assert code == 1
        assert out.splitlines()[-1] == "sturmian: NotSturmian n=1 [complexity 3 > 2]"

    def test_balance_violation_exit(self, capsys):
        code, out, _ = run(
            capsys, "check", "--spec", "morphic:0->01,1->10;seed=0",
            "--what", "balance", "--max-n", "10",
        )
        assert code == 1
        assert "witness=(00,11)" in out

    def test_complexity_certificate_exit(self, capsys):
        code, out, _ = run(
            capsys, "check", "--spec", "periodic:01", "--what", "complexity",
            "--max-n", "10",
        )
        assert code == 1
        assert "UltimatelyPeriodic" in out

    def test_indeterminate_exit(self, capsys):
        code, out, _ = run(
            capsys, "check", "--spec", "literal:01011", "--what", "nfop",
            "--max-n", "5",
        )
        assert code == 2
        assert "Indeterminate" in out

    @pytest.mark.parametrize("what", ["nfop", "sturmian"])
    def test_literal_shorter_than_max_n_is_an_input_error(self, capsys, what):
        code, out, err = run(
            capsys, "check", "--spec", "literal:0100", "--what", what, "--max-n", "5",
        )
        assert (code, out) == (65, "")
        assert err == "error: need 1 <= max_len <= 4, got 5\n"

    def test_variant_flag(self, capsys):
        code, out, _ = run(
            capsys, "check", "--spec", "periodic:012", "--what", "nfop",
            "--max-n", "8", "--variant", "1",
        )
        assert code == 1
        assert "witness=(01,12)" in out

    def test_variant_three_on_ternary_is_an_input_error(self, capsys):
        code, out, err = run(
            capsys, "check", "--spec", "literal:0120120120", "--what", "nfop",
            "--max-n", "3", "--variant", "3",
        )
        assert (code, out) == (65, "")
        assert err == "error: variant 3 needs letters within 01, table has '012'\n"

    def test_json_schema_and_stability(self, capsys):
        argv = ["check", "--spec", "fib", "--what", "nfop", "--max-n", "6", "--json"]
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
        payload = json.loads(first[1])
        assert isinstance(payload, list) and len(payload) == 1
        assert list(payload[0].keys()) == JSON_KEYS
        assert payload[0]["status"] == "ConsistentUpTo"
        assert payload[0]["upTo"] == 6

    def test_sturmian_json_lists_all_checks(self, capsys):
        code, out, _ = run(
            capsys, "check", "--spec", "fib", "--what", "sturmian",
            "--max-n", "8", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert [v["check"] for v in payload] == [
            "nfop", "balance", "complexity", "hamming2", "ones",
            "recurrence", "sturmian",
        ]
        for v in payload:
            assert list(v.keys()) == JSON_KEYS


    def test_max_n_beyond_budget_is_an_input_error(self, capsys):
        # A one-letter prefix request does not shrink the window below max_n.
        code, out, err = run(
            capsys, "check", "--spec", "fib", "--what", "nfop",
            "--prefix-len", "1", "--max-n", str(checks.PREFIX_BUDGET + 1),
        )
        assert (code, out) == (65, "")
        assert "exceeds budget" in err


class TestChristoffel:
    def test_plain_listing(self, capsys):
        code, out, _ = run(capsys, "christoffel", "--p", "2", "--q", "3")
        assert code == 0
        assert out.splitlines()[:3] == ["lower\t00101", "upper\t10100", "core\t010"]
        assert out.count("conjugate\t") == 5

    def test_verify_against_sturmian_host(self, capsys):
        code, out, _ = run(
            capsys, "christoffel", "--p", "1", "--q", "1",
            "--verify", "--spec", "fib",
        )
        assert code == 0
        assert out.count("\tpass\t") == 5

    def test_verify_default_rational_host_fails_singular_items(self, capsys):
        # the matched rational word is periodic, so the two singular-word
        # items cannot hold there
        code, out, _ = run(capsys, "christoffel", "--p", "1", "--q", "1", "--verify")
        assert code == 1
        assert out.count("\tpass\t") == 3
        assert out.count("\tfail\t") == 2

    def test_not_coprime(self, capsys):
        code, _, err = run(capsys, "christoffel", "--p", "2", "--q", "4")
        assert code == 65
        assert "gcd(2, 4)" in err

    def test_length_bound(self, capsys):
        # The p+q rotations hold (p+q)^2 letters: 2048^2 is PREFIX_BUDGET.
        code, out, _ = run(capsys, "christoffel", "--p", "1", "--q", "2047", "--json")
        assert code == 0
        assert len(json.loads(out)["conjugates"]) == 2048
        code, out, err = run(capsys, "christoffel", "--p", "1", "--q", "2048")
        assert (code, out) == (65, "")
        assert "p+q = 2049" in err and "exceeds budget" in err


class TestHarness:
    def test_corpus_file(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("# comment\n\nfib\nstd:2,1,2,1\nmech:2/5@0\n")
        code, out, _ = run(
            capsys, "harness", "--corpus", str(corpus), "--max-n", "12"
        )
        assert code == 0
        assert "std:2,1,2,1\tsturmian-generator-nfop\tpass" in out

    def test_json_output(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("periodic:01\n")
        code, out, _ = run(
            capsys, "harness", "--corpus", str(corpus), "--max-n", "10", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["allPassed"] is True
        assert {e["spec"] for e in payload["entries"]} == {"periodic:01"}

    def test_empty_corpus(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("# nothing here\n")
        code, _, err = run(capsys, "harness", "--corpus", str(corpus), "--max-n", "8")
        assert code == 65

    def test_non_binary_corpus(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("periodic:012\n")
        code, out, err = run(
            capsys, "harness", "--corpus", str(corpus), "--max-n", "1"
        )
        assert (code, err) == (0, "")
        assert "periodic:012\tnfop=>balance\tskip" in out

    def test_missing_corpus_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "harness", "--corpus", str(tmp_path / "nope.txt"), "--max-n", "8"
        )
        assert code == 65

    def test_unreadable_corpus_is_an_input_error(self, capsys, tmp_path):
        undecodable = tmp_path / "corpus.txt"
        undecodable.write_bytes(b"\xff\xfe")
        for path in (tmp_path, undecodable):
            code, _, err = run(capsys, "harness", "--corpus", str(path), "--max-n", "4")
            assert code == 65
            # One error line; an uncaught exception would fail the test instead.
            assert err.startswith("error: cannot read corpus file")
            assert err.count("\n") == 1


CHECK_FIB = ["check", "--spec", "fib", "--what", "nfop", "--max-n"]

# Each usage error and the last line it writes to stderr, after its usage line.
USAGE_ERRORS = [
    ([], "sturmlex: error: the following arguments are required: command"),
    (["nope"], "sturmlex: error: argument command: invalid choice: 'nope' "
     "(choose from 'generate', 'factors', 'check', 'christoffel', 'harness')"),
    (["check"], "sturmlex check: error: the following arguments are required: "
     "--spec, --what, --max-n"),
    (["christoffel", "--p", "2"],
     "sturmlex christoffel: error: the following arguments are required: --q"),
    (CHECK_FIB, "sturmlex check: error: argument --max-n: expected one argument"),
    ([*CHECK_FIB, "--json", "4"],
     "sturmlex check: error: argument --max-n: expected one argument"),
    ([*CHECK_FIB, "x"], "sturmlex check: error: argument --max-n: invalid int value: 'x'"),
    ([*CHECK_FIB, "4", "--variant", "1.0"],
     "sturmlex check: error: argument --variant: invalid int value: '1.0'"),
    ([*CHECK_FIB, "0"], "sturmlex check: error: argument --max-n: must be >= 1, got 0"),
    (["generate", "--spec", "fib", "--len", "-1"],
     "sturmlex generate: error: argument --len: must be >= 0, got -1"),
    ([*CHECK_FIB, "4", "--variant", "4"],
     "sturmlex check: error: argument --variant: invalid choice: 4 (choose from 1, 2, 3)"),
    (["check", "--spec", "fib", "--what", "nope", "--max-n", "4"],
     "sturmlex check: error: argument --what: invalid choice: 'nope' (choose from "
     "'nfop', 'balance', 'hamming2', 'ones', 'complexity', 'sturmian')"),
    ([*CHECK_FIB, "4", "--bogus"], "sturmlex: error: unrecognized arguments: --bogus"),
    ([*CHECK_FIB, "4", "extra"], "sturmlex: error: unrecognized arguments: extra"),
    ([*CHECK_FIB, "4", "extra", "--bogus=3", "-j"],
     "sturmlex: error: unrecognized arguments: extra --bogus=3 -j"),
    ([*CHECK_FIB, "4", "--json=1"],
     "sturmlex check: error: argument --json: ignored explicit argument '1'"),
    ([*CHECK_FIB, "4", "--"], "sturmlex: error: unrecognized arguments: --"),
    # Errors are reported in the order the arguments are read.
    (["check", "--spec", "fib", "--max-n", "0", "--what", "nope"],
     "sturmlex check: error: argument --max-n: must be >= 1, got 0"),
    (["check", "--bogus", "--spec", "fib"],
     "sturmlex check: error: the following arguments are required: --what, --max-n"),
]


class TestUsageErrors:
    @pytest.mark.parametrize("argv,last_line", USAGE_ERRORS)
    def test_usage_error(self, capsys, argv, last_line):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (64, "")
        assert err.startswith("usage: sturmlex")
        assert err.splitlines()[-1] == last_line

    @pytest.mark.parametrize("spec,message", [
        ("bogus:1", "unknown spec kind 'bogus'"),
        ("morphic:00->01,1->0;seed=0", "rule key '00' is not a letter"),
        ("morphic:0->01,1->0;seed=2", "no rule for the seed letter"),
        ("mech:1-2@0", "bad slope '1-2'"),
        ("morphic:0-01;seed=0", "bad rule '0-01', want letter->image"),
    ])
    def test_bad_spec(self, capsys, spec, message):
        code, _, err = run(
            capsys, "check", "--spec", spec, "--what", "nfop", "--max-n", "5"
        )
        assert (code, err) == (65, f"error: {message}\n")


CORPUS = str(Path(__file__).parent / "golden" / "corpus.txt")

# A valid command line per subcommand that sets every numeric argument.
FULL_ARGV = {
    "generate": ["generate", "--spec", "fib", "--len", "8"],
    "factors": ["factors", "--spec", "fib", "--len", "8", "--max-n", "2"],
    "check": ["check", "--spec", "fib", "--what", "nfop", "--max-n", "4",
              "--prefix-len", "64", "--variant", "3"],
    "christoffel": ["christoffel", "--p", "2", "--q", "3", "--prefix-len", "64"],
    "harness": ["harness", "--corpus", CORPUS, "--max-n", "4", "--prefix-len", "64"],
}

NUMERIC_FLAGS = ("--len", "--max-n", "--prefix-len", "--variant", "--p", "--q")


def out_of_range_cases():
    for command, argv in FULL_ARGV.items():
        for flag in argv:
            if flag in NUMERIC_FLAGS:
                # 0 is a valid length for generate only.
                zero_ok = (command, flag) == ("generate", "--len")
                for value in ["-1"] if zero_ok else ["0", "-1"]:
                    yield command, flag, value


class TestNumericArguments:
    @pytest.mark.parametrize("command,flag,value", list(out_of_range_cases()))
    def test_out_of_range_is_a_usage_error(self, capsys, command, flag, value):
        argv = list(FULL_ARGV[command])
        parse_args(argv)  # the unchanged line is valid
        argv[argv.index(flag) + 1] = value
        code, out, err = run(capsys, *argv)
        assert code == 64
        assert out == ""
        assert err.startswith("usage:") and f"argument {flag}:" in err


# Each row: a plain command line, then spellings of it that must print the same.
SAME_AS_PLAIN = [
    (["check", "--spec", "fib", "--what", "nfop", "--max-n", "10", "--json"], [
        ["check", "--spec=fib", "--what=nfop", "--max-n=10", "--json"],
        ["check", "--sp", "fib", "--wh", "nfop", "--max", "10", "--j"],
        ["check", "--json", "--max-n", "10", "--what", "nfop", "--spec", "fib"],
        ["check", "--spec", "periodic:01", "--what", "balance", "--max-n", "3",
         "--spec", "fib", "--what", "nfop", "--max-n", "10", "--json", "--json"],
        ["check", "--spec", "fib", "--what", "nfop", "--max-n", "1_0", "--json"],
    ]),
    # An exact flag wins over the longer one it abbreviates.
    (["christoffel", "--p", "2", "--q", "3", "--verify", "--prefix-len", "64"], [
        ["christoffel", "--p=2", "--q=3", "--ver", "--pr", "64"],
        ["christoffel", "--p", "5", "--p", "2", "--q", "3", "--verify", "--prefix-len=64"],
    ]),
]


class TestArgumentForms:
    @pytest.mark.parametrize("plain,other", [
        (plain, other) for plain, others in SAME_AS_PLAIN for other in others
    ])
    def test_same_output_as_the_plain_form(self, capsys, plain, other):
        assert run(capsys, *other) == run(capsys, *plain)

    @pytest.mark.parametrize("command", [None, *COMMANDS])
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_names_every_option(self, capsys, command, flag):
        argv = [flag] if command is None else [command, flag]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: sturmlex")
        for name in COMMANDS if command is None else [command]:
            assert name in out
            for option in COMMANDS[name][2]:
                assert option.flag in out

    def test_help_says_which_options_need_another(self, capsys):
        _, out, _ = run(capsys, "check", "--help")
        assert "read only with --what nfop" in out
        _, out, _ = run(capsys, "christoffel", "--help")
        assert out.count("read only with --verify") == 2


class TestTableBudget:
    @pytest.mark.parametrize("command", ["factors", "check", "harness"])
    def test_a_table_past_the_cap_is_an_input_error(self, capsys, monkeypatch, command):
        monkeypatch.setattr(factors, "TABLE_BUDGET", 3)
        code, out, err = run(capsys, *FULL_ARGV[command])
        assert (code, out) == (65, "")
        assert err.startswith("error: length-") and "take more than 3 bytes" in err

    def test_fib_finishes_up_to_3975(self, capsys):
        # fib's 3977 windows and 3975 short suffixes at 3976 are charged
        # 3976 + 245 bytes each, just past TABLE_BUDGET; at 3975 they fit.
        # fib's complexity comes in closed form, so the window's own count
        # meets the cap.
        code, out, err = run(capsys, "check", "--spec", "fib", "--what", "sturmian",
                             "--max-n", "3976")
        assert (code, out) == (65, "")
        assert err == "error: length-3976 table entries take more than 33554432 bytes\n"
        assert (3977 + 3975) * (3976 + 245) > factors.TABLE_BUDGET
        assert (3976 + 3974) * (3975 + 245) <= factors.TABLE_BUDGET


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = run_module("generate", "--spec", "fib", "--len", "32")
        assert proc.returncode == 0
        assert proc.stdout.strip() == FIB32

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--spec", "mech:144/377@0", "--what", "sturmian", "--json",
             "--max-n", "2000"),
            ("factors", "--spec", "fib", "--len", "8192", "--max-n", "200", "--dump"),
        ],
        ids=["check", "factors"],
    )
    def test_a_reader_that_closes_the_pipe_early(self, argv):
        # As `... | head -3`: the output is far longer than a pipe's buffer.
        proc = subprocess.Popen([sys.executable, "-m", "sturmlex", *argv], env=_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        lines = [proc.stdout.readline() for _ in range(3)]
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2
        assert all(lines) and err == ""
