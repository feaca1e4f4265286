"""Byte-for-byte goldens of the CLI's ``--json`` output and exit codes.

Each case runs ``sturmlex`` in process and compares stdout with
``tests/golden/<name>.json``; the golden files pin the output of the
verdicts, not just their schema, so a refactor of the check or generator
layers that changes any verdict, witness or window shows up here.  The
``factors --dump`` goldens, ``tests/golden/<name>.txt``, pin a table built
from its word alone, every factor and count of it.
"""

from pathlib import Path

import pytest

from sturmlex.cli import main

from conftest import DENSE_LITERAL, FIB32, TM_SPEC

GOLDEN = Path(__file__).parent / "golden"

STURMIAN_SPECS = {
    "fib": "fib",
    "std-1-9-1-9": "std:1,9,1,9",
    "thue-morse": TM_SPEC,
    "mech-3-8": "mech:3/8@0",
    "periodic-0010110": "periodic:0010110",
    "ultper-0110-01": "ultper:0110|01",
    "ternary-morphic": "morphic:0->012,1->02,2->1;seed=0",
    # 80 letters; the seam between the copies breaks the Fibonacci structure.
    "literal-short": "literal:" + FIB32 + FIB32 + FIB32[:16],
}

CASES = [
    (f"sturmian-{name}", ["check", "--spec", spec, "--what", "sturmian", "--json",
                          "--max-n", "40"])
    for name, spec in STURMIAN_SPECS.items()
] + [
    (f"{what}-thue-morse", ["check", "--spec", TM_SPEC, "--what", what, "--json",
                            "--max-n", "16"])
    for what in ("nfop", "hamming2", "ones", "balance", "complexity")
] + [
    ("nfop-variant1-periodic-012", ["check", "--spec", "periodic:012", "--what", "nfop",
                                    "--variant", "1", "--json", "--max-n", "8"]),
    ("harness-corpus", ["harness", "--corpus", str(GOLDEN / "corpus.txt"), "--json",
                        "--max-n", "20"]),
    # Fails of nfop=>balance and nfop=>aperiodic, nfop Violated and non-binary skips.
    ("harness-fails", ["harness", "--corpus", str(GOLDEN / "corpus-fails.txt"), "--json",
                       "--max-n", "2"]),
    # The harness-tall benchmark words at its size: certified tables of
    # their windows alone.
    ("harness-sturmian", ["harness", "--corpus", str(GOLDEN / "corpus-sturmian.txt"),
                          "--json", "--max-n", "240", "--prefix-len", "1024"]),
    # A random literal read in rounds of 1024, 2048, 4096 and 6000 letters,
    # the last capped at its end: the half-window rule on every round.
    ("sturmian-dense-literal", ["check", "--spec", "literal:" + DENSE_LITERAL, "--what",
                                "sturmian", "--json", "--max-n", "16", "--prefix-len", "1024"]),
    # A ternary word whose table keeps every pair for the pair judge.
    ("sturmian-fib-02", ["check", "--spec", "morphic:0->02,2->0;seed=0", "--what",
                         "sturmian", "--json", "--max-n", "240", "--prefix-len", "1024"]),
    # A balanced periodic word whose pairs past the period all misfit, each
    # judged once on its 2000-letter prefixes.
    ("sturmian-mech-144-377", ["check", "--spec", "mech:144/377@0", "--what", "sturmian",
                               "--json", "--max-n", "2000"]),
    # Directives with a huge entry: the standard words cut their powers, and
    # the default prefix of s(m)^d repeats one block; both Sturmian.
    ("sturmian-std-3-2000000-1", ["check", "--spec", "std:3,2000000,1", "--what", "sturmian",
                                  "--json", "--max-n", "240"]),
    ("sturmian-std-huge-entry", ["check", "--spec", "std:99999999999999999999999", "--what",
                                 "sturmian", "--json", "--max-n", "40"]),
    ("christoffel-5-8-plain", ["christoffel", "--p", "5", "--q", "8", "--json"]),
    ("christoffel-5-8", ["christoffel", "--p", "5", "--q", "8", "--verify", "--json"]),
    ("christoffel-5-8-fib", ["christoffel", "--p", "5", "--q", "8", "--verify",
                             "--spec", "fib", "--json"]),
]

EXIT_CODES = {
    "sturmian-fib": 0,
    "sturmian-std-1-9-1-9": 0,
    "sturmian-thue-morse": 1,
    "sturmian-mech-3-8": 1,
    "sturmian-periodic-0010110": 1,
    "sturmian-ultper-0110-01": 1,
    "sturmian-ternary-morphic": 1,
    "sturmian-literal-short": 1,
    "nfop-thue-morse": 1,
    "hamming2-thue-morse": 1,
    "ones-thue-morse": 1,
    "balance-thue-morse": 1,
    "complexity-thue-morse": 0,
    "nfop-variant1-periodic-012": 1,
    "harness-corpus": 0,
    "harness-fails": 1,
    "harness-sturmian": 0,
    "sturmian-dense-literal": 1,
    "sturmian-fib-02": 0,
    "sturmian-mech-144-377": 1,
    "sturmian-std-3-2000000-1": 0,
    "sturmian-std-huge-entry": 0,
    "christoffel-5-8-plain": 0,
    "christoffel-5-8": 1,
    "christoffel-5-8-fib": 0,
}


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_cli_json_matches_golden(capsys, name, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert code == EXIT_CODES[name]


# A literal whose table has windows past its half, and fib's, whose windows
# all fit in its half.
FACTORS_CASES = [
    ("factors-dense-literal", ["factors", "--spec", "literal:" + DENSE_LITERAL[:1024],
                               "--len", "1024", "--max-n", "8", "--dump"]),
    ("factors-fib", ["factors", "--spec", "fib", "--len", "1024", "--max-n", "20", "--dump"]),
]


@pytest.mark.parametrize("name,argv", FACTORS_CASES, ids=[name for name, _ in FACTORS_CASES])
def test_factors_dump_matches_golden(capsys, name, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
