"""Span recorder for the traced benchmark run.

Spans are recorded by replacing the public functions that the sturmlex
pipeline looks up on its module attributes at call time, so calls made
inside ``saturated_table``, ``sturmian_verdict``, ``equivalence_harness`` and
``cli.main`` are captured without any change to the package.  Spans stay in
memory; :func:`layer_metrics` turns them into per-layer numbers at the end.
"""

from __future__ import annotations

import time
from collections import defaultdict

LAYERS = ("words", "factors", "checks", "christoffel", "cli")


# Size functions: (letters, distinct factors) of a wrapped call's result.
def _prefix_size(prefix: str) -> tuple[int, int]:
    return len(prefix), 0


def _table_size(table) -> tuple[int, int]:
    distinct = sum(table.complexity(n) for n in range(1, table.max_len + 1))
    return len(table.word), distinct


def _window_size(table) -> tuple[int, int]:
    return len(table.word), 0


class Span:
    __slots__ = ("name", "start", "end", "parent", "letters", "distinct")

    def __init__(self, name: str, parent: int | None):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.letters = self.distinct = 0


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, size=None) -> None:
        original = getattr(module, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if size is not None:
                span.letters, span.distinct = size(result)
            return result

        setattr(module, attr, traced)
        self._undo.append((module, attr, original))

    def install(self, sx) -> None:
        """Wrap every layer boundary of the pipeline in package ``sx``."""
        words, checks, cli, christoffel = sx.words, sx.checks, sx.cli, sx.christoffel
        self.wrap(words, "parse_spec", "words.parse")
        self.wrap(words, "generate_prefix", "words.generate", _prefix_size)
        self.wrap(checks, "generate_prefix", "words.generate", _prefix_size)
        self.wrap(checks, "FactorTable", "factors.index", _table_size)
        self.wrap(cli, "FactorTable", "factors.index", _table_size)
        self.wrap(checks, "saturated_table", "checks.window", _window_size)
        for attr, name in (
            ("check_nfop", "checks.nfop"),
            ("check_balance", "checks.balance"),
            ("check_hamming2", "checks.hamming2"),
            ("check_ones_monotone", "checks.ones"),
            ("periodicity_certificate", "checks.complexity"),
            ("recurrence_heuristic", "checks.recurrence"),
            ("find_extension_exclusion", "checks.extension"),
            ("sturmian_verdict", "checks.combine"),
            ("equivalence_harness", "checks.combine"),
        ):
            self.wrap(checks, attr, name)
        self.wrap(christoffel, "verify_christoffel_properties", "christoffel.verify")
        self.wrap(cli, "main", "cli.main")

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-layer metrics per traced pass, plus self time per layer."""
    duration = [s.end - s.start for s in spans]
    covered = [0.0] * len(spans)
    for s, d in zip(spans, duration):
        if s.parent is not None:
            covered[s.parent] += d
    total = defaultdict(float)  # inclusive seconds per span name
    own = defaultdict(float)  # self seconds per span name
    calls = defaultdict(int)
    letters = defaultdict(int)
    distinct = defaultdict(int)
    window_builds = window_indexed = 0
    for i, s in enumerate(spans):
        total[s.name] += duration[i]
        own[s.name] += duration[i] - covered[i]
        calls[s.name] += 1
        letters[s.name] += s.letters
        distinct[s.name] += s.distinct
        if s.name == "factors.index" and s.parent is not None:
            if spans[s.parent].name == "checks.window":
                window_builds += 1
                window_indexed += s.letters

    def per_pass(x):
        return x / passes

    m = {
        "words.parse_s": per_pass(total["words.parse"]),
        "words.generate_s": per_pass(total["words.generate"]),
        "words.generate_calls": per_pass(calls["words.generate"]),
        "words.letters_generated": per_pass(letters["words.generate"]),
        "factors.index_s": per_pass(total["factors.index"]),
        "factors.index_calls": per_pass(calls["factors.index"]),
        "factors.letters_indexed": per_pass(letters["factors.index"]),
        "factors.distinct_factors": per_pass(distinct["factors.index"]),
        "checks.window_s": per_pass(total["checks.window"]),
        "checks.window_builds": (
            window_builds / calls["checks.window"] if calls["checks.window"] else 0.0
        ),
        "checks.window_useful_frac": (
            letters["checks.window"] / window_indexed if window_indexed else 0.0
        ),
    }
    for check in ("nfop", "balance", "hamming2", "ones", "complexity", "recurrence",
                  "extension"):
        m[f"checks.{check}_s"] = per_pass(total[f"checks.{check}"])
    m["checks.nfop_calls"] = per_pass(calls["checks.nfop"])
    m["checks.combine_s"] = per_pass(own["checks.combine"])
    m["christoffel.verify_s"] = per_pass(total["christoffel.verify"])
    m["cli.self_s"] = per_pass(own["cli.main"])

    layer_self = defaultdict(float)
    for name, seconds in own.items():
        layer_self[name.split(".")[0]] += seconds
    for layer in LAYERS:
        m[f"layer.{layer}_self_s"] = per_pass(layer_self[layer])
    return m
