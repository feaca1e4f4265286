"""The package namespace and what a command line call imports.

``import sturmlex`` loads no submodule; each public name loads its module on
first use.  A ``check`` call imports neither the Christoffel code nor the
standard library modules that only other commands need.
"""

import os
import subprocess
import sys

import pytest

import sturmlex as sx

from conftest import SRC

# The public names of the package, pinned.
EXPORTED = [
    "APPARENTLY_APERIODIC", "BOTH_EXTENSIONS", "CONSISTENT", "INDETERMINATE",
    "NON_RECURRENT", "NOT_STURMIAN", "PREFIX_BUDGET", "PREFIX_CASE",
    "RECURRENT_CONSISTENT", "STURMIAN_CONSISTENT", "ULTIMATELY_PERIODIC",
    "VIOLATED", "WINDOW_INDETERMINATE", "HarnessOutcome", "HarnessReport",
    "ImbalanceWitness", "SturmianReport", "Verdict", "check_balance",
    "check_hamming2", "check_nfop", "check_ones_monotone", "classify_imbalance",
    "equivalence_harness", "find_extension_exclusion", "minimal_imbalance",
    "periodicity_certificate", "recurrence_heuristic", "saturated_table",
    "sturmian_verdict",
    "ChristoffelPair", "ChristoffelReport", "SingularWord", "christoffel_pair",
    "conjugates", "lower_christoffel", "singular_word", "upper_christoffel",
    "verify_christoffel_properties", "FactorTable",
    "is_unbordered", "FIBONACCI_RULES", "KnownFlags", "Literal",
    "MechanicalRational", "Morphic", "Periodic", "StandardSequence",
    "UltimatelyPeriodic", "WordSpec", "generate_prefix", "parse_spec",
]

# Loaded only by the commands or specs that need them.
LAZY = ("dataclasses", "inspect", "fractions", "sturmlex.christoffel")

CHECK_ARGV = ["check", "--spec", "fib", "--what", "sturmian", "--json", "--max-n", "40"]


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a fresh interpreter that imports the package from SRC."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=60, env=env
    )


class TestNamespace:
    def test_names_are_pinned(self):
        assert sorted(sx.__all__) == sorted(EXPORTED)
        assert set(EXPORTED) <= set(dir(sx))
        assert sx.__version__ == "0.1.0"

    @pytest.mark.parametrize("name", EXPORTED)
    def test_name_resolves_both_ways(self, name):
        value = getattr(sx, name)
        namespace = {}
        exec(f"from sturmlex import {name}", namespace)
        assert namespace[name] is value

    def test_names_come_from_their_modules(self):
        assert sx.Verdict is sx.checks.Verdict
        assert sx.PREFIX_BUDGET == sx.words.PREFIX_BUDGET
        assert sx.FactorTable is sx.factors.FactorTable
        assert sx.conjugates is sx.christoffel.conjugates

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            sx.no_such_name
        with pytest.raises(ImportError):
            exec("from sturmlex import no_such_name", {})

    # Names whose facts now have one carrier: the nfop Verdict holds the
    # witness, and FactorTable.frontier holds saturation.
    @pytest.mark.parametrize(
        "name", ["NfopViolation", "SaturationEntry", "find_nfop_violation"]
    )
    def test_removed_name_stays_gone(self, name):
        assert name not in dir(sx)
        with pytest.raises(AttributeError):
            getattr(sx, name)
        for module in (sx.checks, sx.factors):
            assert not hasattr(module, name)

    def test_submodules_resolve(self):
        for name in ("checks", "words", "cli", "christoffel", "factors", "errors"):
            assert getattr(sx, name).__name__ == f"sturmlex.{name}"

    def test_submodule_attributes_are_read_at_call_time(self, monkeypatch):
        # A replaced module attribute (the benchmark tracer's wrappers) is what
        # the CLI calls.
        calls = []
        real = sx.christoffel.verify_christoffel_properties

        def spy(*args):
            calls.append(args[:2])
            return real(*args)

        monkeypatch.setattr(sx.christoffel, "verify_christoffel_properties", spy)
        sx.cli.main(["christoffel", "--p", "2", "--q", "3", "--verify", "--json"])
        assert calls == [(2, 3)]

    def test_star_import(self):
        namespace = {}
        exec("from sturmlex import *", namespace)
        assert set(EXPORTED) <= set(namespace)


class TestImportHygiene:
    def test_check_call_loads_no_lazy_module(self):
        code = (
            "import sys, io, contextlib\n"
            "import sturmlex.cli as cli\n"
            f"lazy = {LAZY!r}\n"
            "after_import = [m for m in lazy if m in sys.modules]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cli.main({CHECK_ARGV!r})\n"
            "after_check = [m for m in lazy if m in sys.modules]\n"
            "print(after_import, after_check, code)\n"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]", "[]", "0"]

    def test_bare_package_import_loads_no_submodule(self):
        proc = run_python(
            "-c",
            "import sys, sturmlex\n"
            "print(sorted(m for m in sys.modules if m.startswith('sturmlex')))"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['sturmlex']"

    def test_lazy_paths_still_run(self):
        # The periodic word mech:2/5@0 has no singular factor, so the
        # Christoffel verification reports failed items and exits 1.
        code = (
            "import io, contextlib\n"
            "import sturmlex.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [\n"
            "        cli.main(['check', '--spec', 'mech:2/5@0', '--what', 'balance',\n"
            "                  '--max-n', '8']),\n"
            "        cli.main(['christoffel', '--p', '2', '--q', '3', '--verify']),\n"
            "    ]\n"
            "print(codes)\n"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 1]"

    def test_module_invocation_loads_no_lazy_module(self):
        # -X importtime lists on stderr every module the process imports.
        proc = run_python("-X", "importtime", "-m", "sturmlex", *CHECK_ARGV)
        assert proc.returncode == 0, proc.stderr
        imported = {
            line.rpartition("|")[2].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }
        assert {"sturmlex.cli", "sturmlex.checks", "argparse"} <= imported
        assert imported.isdisjoint(LAZY)
