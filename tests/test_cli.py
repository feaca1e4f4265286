"""Command line surface: output text, JSON stability, exit codes."""

import json
from pathlib import Path

import pytest

from sturmlex import checks, words
from sturmlex.cli import build_parser, main

from conftest import FIB32, run_module

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

    @pytest.mark.parametrize("what", ["nfop", "sturmian"])
    def test_text_names_the_window_used(self, capsys, what):
        code, out, _ = run(
            capsys, "check", "--spec", "fib", "--what", what,
            "--max-n", "40", "--prefix-len", "100",
        )
        assert code == 0
        used = len(checks.saturated_table(words.parse_spec("fib"), 40, 100).word)
        assert used > 100
        assert out.splitlines()[0] == f"prefix: {used} letters"

    def test_periodic_not_sturmian(self, capsys):
        code, out, _ = run(
            capsys, "check", "--spec", "periodic:01", "--what", "sturmian",
            "--max-n", "10",
        )
        assert code == 1
        assert "witness=(010,101)" in out
        assert "n=3" in out

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

    def test_variant_flag(self, capsys):
        code, out, _ = run(
            capsys, "check", "--spec", "periodic:012", "--what", "nfop",
            "--max-n", "8", "--variant", "1",
        )
        assert code == 1
        assert "witness=(01,12)" in out

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


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 64

    def test_unknown_choice(self, capsys):
        code, _, err = run(
            capsys, "check", "--spec", "fib", "--what", "nope", "--max-n", "5"
        )
        assert code == 64
        assert "invalid choice" in err

    def test_bad_spec(self, capsys):
        code, _, err = run(
            capsys, "check", "--spec", "bogus:1", "--what", "nfop", "--max-n", "5"
        )
        assert code == 65


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
        build_parser().parse_args(argv)  # the unchanged line is valid
        argv[argv.index(flag) + 1] = value
        code, out, err = run(capsys, *argv)
        assert code == 64
        assert out == ""
        assert err.startswith("usage:") and f"argument {flag}:" in err


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = run_module("generate", "--spec", "fib", "--len", "32")
        assert proc.returncode == 0
        assert proc.stdout.strip() == FIB32
