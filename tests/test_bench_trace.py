"""The benchmark's tracer must still find every function it wraps.

``perfbench/spans.py`` records per-layer spans by replacing module
attributes of the live package; a renamed or removed function would make
``perfbench/run.py --trace 1`` fail, and a call that bypasses the module
attribute would drop its spans silently.
"""

import importlib.util
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import sturmlex as sx
import sturmlex.cli  # noqa: F401  (the tracer wraps sx.cli)

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_sees_every_layer():
    tracer = load_spans().Tracer()
    tracer.install(sx)
    try:
        wrapped = [(module, attr) for module, attr, _ in tracer._undo]
        for module, attr in wrapped:
            assert getattr(module, attr).__name__ == "traced", attr
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            for what in ("nfop", "balance", "hamming2", "ones", "complexity"):
                sx.cli.main(["check", "--spec", "fib", "--what", what, "--max-n", "6"])
            sx.cli.main(["christoffel", "--p", "2", "--q", "3", "--verify"])
            sx.cli.main(["factors", "--spec", "fib", "--len", "64", "--max-n", "4"])
        cli_names = {span.name for span in tracer.spans}
        sx.checks.sturmian_verdict(sx.parse_spec("fib"), max_len=6)
        sx.checks.equivalence_harness([sx.parse_spec("fib")], 6)
        # fib is balanced, so only an unbalanced table runs the exclusion search.
        sx.checks.equivalence_harness([sx.parse_spec("periodic:0011")], 2)
    finally:
        tracer.uninstall()
    for module, attr in wrapped:
        assert getattr(module, attr).__name__ != "traced", attr
    assert cli_names == {
        "cli.main", "words.parse", "words.generate", "factors.index", "checks.window",
        "checks.nfop", "checks.balance", "checks.hamming2", "checks.ones",
        "checks.complexity", "christoffel.verify",
    }
    library_names = {span.name for span in tracer.spans} - cli_names
    assert library_names == {"checks.recurrence", "checks.extension", "checks.combine"}
