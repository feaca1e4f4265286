"""Prefix generators and finite-window deciders for binary word order structure.

The public names below load their submodule on first use (PEP 562), so
``import sturmlex`` runs none of them, and a command line call imports only
the modules its command needs.
"""

import sys

__version__ = "0.1.0"

_EXPORTS = {
    "checks": (
        "APPARENTLY_APERIODIC", "BOTH_EXTENSIONS", "CONSISTENT", "INDETERMINATE",
        "NON_RECURRENT", "NOT_STURMIAN", "PREFIX_CASE", "RECURRENT_CONSISTENT",
        "STURMIAN_CONSISTENT", "ULTIMATELY_PERIODIC", "VIOLATED",
        "WINDOW_INDETERMINATE", "HarnessOutcome", "HarnessReport",
        "ImbalanceWitness", "SturmianReport", "Verdict", "check_balance",
        "check_hamming2", "check_nfop", "check_ones_monotone", "classify_imbalance",
        "equivalence_harness", "find_extension_exclusion", "minimal_imbalance",
        "periodicity_certificate", "recurrence_heuristic", "saturated_table",
        "sturmian_verdict",
    ),
    "christoffel": (
        "ChristoffelPair", "ChristoffelReport", "SingularWord", "christoffel_pair",
        "conjugates", "lower_christoffel", "singular_word",
        "verify_christoffel_properties",
    ),
    "factors": ("FactorTable", "is_unbordered"),
    "words": (
        "FIBONACCI_RULES", "KnownFlags", "Literal", "MechanicalRational", "Morphic",
        "PREFIX_BUDGET", "Periodic", "StandardSequence", "UltimatelyPeriodic",
        "WordSpec", "generate_prefix", "parse_spec",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("checks", "christoffel", "cli", "errors", "factors", "words")

__all__ = list(_HOME)


def __getattr__(name: str):
    home = name if name in _SUBMODULES else _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{home}")
    module = sys.modules[f"{__name__}.{home}"]
    if home == name:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
