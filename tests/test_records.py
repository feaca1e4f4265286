"""The package's value types are immutable records with pinned semantics.

Each result and spec type compares by class and fields, hashes to match,
refuses assignment, fills its defaults, validates on construction and on
``replace``, and prints a repr whose text the tests pin exactly.
"""

from fractions import Fraction
from itertools import combinations

import pytest

from sturmlex import checks, christoffel, words
from sturmlex.errors import MalformedSpec

from conftest import FIB32


def _pair():
    return christoffel.ChristoffelPair("00101", "10100", "010")


def _item():
    return christoffel.PropertyCheck("pair-conjugate", True, "10100 among the rotations")


def _verdict():
    return checks.Verdict("nfop", checks.CONSISTENT, up_to=5, saturated_lengths=(1, 2))


def _outcome():
    return checks.HarnessOutcome("fib", "nfop=>balance", "pass")


# One builder per record type (two for the types with optional fields), each
# with its repr as printed when the types were dataclasses.
SAMPLES = [
    (lambda: words.KnownFlags(recurrent=True, aperiodic=None),
     "KnownFlags(recurrent=True, aperiodic=None, once=None, sturmian=None)"),
    (lambda: words.Literal("0100"), "Literal(word='0100')"),
    (lambda: words.Periodic("01"), "Periodic(seed='01')"),
    (lambda: words.UltimatelyPeriodic("0", "1"),
     "UltimatelyPeriodic(preperiod='0', seed='1')"),
    (lambda: words.Morphic({"0": "01", "1": "0"}, "0"),
     "Morphic(rules=mappingproxy({'0': '01', '1': '0'}), seed='0')"),
    (lambda: words.StandardSequence([1, 2]), "StandardSequence(directive=(1, 2))"),
    (lambda: words.MechanicalRational(2, 3),
     "MechanicalRational(p=2, q=3, rho=Fraction(0, 1))"),
    (lambda: words.MechanicalRational(3, 5, Fraction(1, 2)),
     "MechanicalRational(p=3, q=5, rho=Fraction(1, 2))"),
    (_pair, "ChristoffelPair(lower='00101', upper='10100', core='010')"),
    (lambda: christoffel.SingularWord("00100", "0", "min"),
     "SingularWord(word='00100', letter='0', extremal_kind='min')"),
    (_item, "PropertyCheck(name='pair-conjugate', passed=True, "
            "detail='10100 among the rotations')"),
    (lambda: christoffel.ChristoffelReport(2, 3, _pair(), items=(_item(),)),
     "ChristoffelReport(p=2, q=3, pair=ChristoffelPair(lower='00101', "
     "upper='10100', core='010'), items=(PropertyCheck(name='pair-conjugate', "
     "passed=True, detail='10100 among the rotations'),))"),
    (_verdict, "Verdict(check='nfop', status='ConsistentUpTo', up_to=5, "
               "witness=None, n=None, reason=None, saturated_lengths=(1, 2))"),
    (lambda: checks.Verdict("balance", checks.VIOLATED, witness=("000", "111"),
                            n=3, reason="r"),
     "Verdict(check='balance', status='Violated', up_to=None, "
     "witness=('000', '111'), n=3, reason='r', saturated_lengths=())"),
    (lambda: checks.Verdict("nfop", checks.VIOLATED, witness=("010100", "100101"),
                            n=6, reason="not a transposition"),
     "Verdict(check='nfop', status='Violated', up_to=None, "
     "witness=('010100', '100101'), n=6, reason='not a transposition', "
     "saturated_lengths=())"),
    (lambda: checks.ImbalanceWitness("0", ("000", "101")),
     "ImbalanceWitness(u='0', pair=('000', '101'), case=None, "
     "prefix_letter=None, occurrences=None, extremal_kind=None)"),
    (lambda: checks.ImbalanceWitness("", ("00", "11"), checks.PREFIX_CASE, "0", 4, "min"),
     "ImbalanceWitness(u='', pair=('00', '11'), case='PrefixCase', "
     "prefix_letter='0', occurrences=4, extremal_kind='min')"),
    (lambda: checks.SturmianReport("fib", 4096, 5, (_verdict(),), _verdict()),
     "SturmianReport(spec_text='fib', prefix_length=4096, max_len=5, "
     "verdicts=(Verdict(check='nfop', status='ConsistentUpTo', up_to=5, "
     "witness=None, n=None, reason=None, saturated_lengths=(1, 2)),), "
     "combined=Verdict(check='nfop', status='ConsistentUpTo', up_to=5, "
     "witness=None, n=None, reason=None, saturated_lengths=(1, 2)))"),
    (_outcome, "HarnessOutcome(spec_text='fib', assertion='nfop=>balance', "
               "result='pass', detail=None)"),
    (lambda: checks.HarnessReport((_outcome(),)),
     "HarnessReport(outcomes=(HarnessOutcome(spec_text='fib', "
     "assertion='nfop=>balance', result='pass', detail=None),))"),
]
BUILDERS = [build for build, _ in SAMPLES]
NAMES = [text.partition("(")[0] for _, text in SAMPLES]

RECORD_TYPES = {
    words.KnownFlags, words.Literal, words.Periodic, words.UltimatelyPeriodic,
    words.Morphic, words.StandardSequence, words.MechanicalRational,
    christoffel.ChristoffelPair, christoffel.SingularWord, christoffel.PropertyCheck,
    christoffel.ChristoffelReport, checks.Verdict, checks.ImbalanceWitness,
    checks.SturmianReport, checks.HarnessOutcome, checks.HarnessReport,
}


def test_samples_cover_every_record_type():
    assert len(RECORD_TYPES) == 16
    assert {type(build()) for build in BUILDERS} == RECORD_TYPES


@pytest.mark.parametrize("build, text", SAMPLES, ids=NAMES)
def test_repr_is_pinned(build, text):
    assert repr(build()) == text


@pytest.mark.parametrize("build", BUILDERS, ids=NAMES)
def test_equal_within_a_type_and_hash_matches(build):
    a, b = build(), build()
    assert a == b and not a != b
    if isinstance(a, words.Morphic):
        # Its rules are a mapping, so a Morphic spec is unhashable.
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def test_a_changed_field_breaks_equality():
    assert checks.Verdict("nfop", "s") != checks.Verdict("nfop", "s", n=1)
    assert words.Morphic({"0": "01", "1": "0"}, "0") != words.Morphic(
        {"0": "01", "1": "10"}, "0")
    assert words.MechanicalRational(1, 2) != words.MechanicalRational(1, 2, Fraction(1, 3))
    assert christoffel.SingularWord("00100", "0", "min") != christoffel.SingularWord(
        "00100", "0", "max")
    assert checks.HarnessOutcome("s", "a", "pass") != checks.HarnessOutcome("s", "a", "skip")


def test_equality_is_type_sensitive():
    assert words.Periodic("01") != words.Literal("01")
    assert words.Literal("01") != words.Periodic("01")
    assert words.Periodic("01") == words.Periodic("01")
    for build_a, build_b in combinations(BUILDERS, 2):
        a, b = build_a(), build_b()
        if type(a) is not type(b):
            assert a != b
    assert christoffel.SingularWord("00100", "0", "min") != ("00100", "0", "min")


@pytest.mark.parametrize("build", BUILDERS, ids=NAMES)
def test_assignment_raises(build):
    record = build()
    first = record._fields[0]
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, first, getattr(record, first))
    with pytest.raises(AttributeError):
        record.unknown = 1
    with pytest.raises(AttributeError):
        delattr(record, first)
    assert repr(record) == before


def test_defaults_and_keyword_construction():
    v = checks.Verdict("nfop", checks.VIOLATED)
    assert (v.up_to, v.witness, v.n, v.reason, v.saturated_lengths) == (
        None, None, None, None, ())
    assert checks.Verdict(status=checks.VIOLATED, check="nfop") == v
    assert words.MechanicalRational(1, 2).rho == Fraction(0)
    assert words.MechanicalRational(q=2, p=1) == words.MechanicalRational(1, 2, 0)
    assert checks.HarnessOutcome("s", "a", "pass").detail is None
    w = checks.ImbalanceWitness("0", ("000", "101"))
    assert (w.case, w.prefix_letter, w.occurrences, w.extremal_kind) == (None,) * 4


def test_construction_normalises_fields():
    rules = {"0": "01", "1": "0"}
    spec = words.Morphic(rules, "0")
    rules["1"] = "1"
    assert spec.rules == {"0": "01", "1": "0"}
    assert words.StandardSequence([1, 2]).directive == (1, 2)
    assert isinstance(words.MechanicalRational(1, 2, 0).rho, Fraction)


def test_morphic_rules_refuse_item_assignment():
    # A rule changed after validation could make the seed's image "0", whose
    # fixed point never grows.
    spec = words.parse_spec("fib")
    with pytest.raises(TypeError):
        spec.rules["0"] = "0"
    with pytest.raises(TypeError):
        del spec.rules["1"]
    assert words.generate_prefix(spec, 32) == FIB32


@pytest.mark.parametrize(
    "args, kwargs",
    [
        (("nfop",), {}),  # missing status
        (("nfop", "s", None, None, None, None, (), "extra"), {}),
        (("nfop", "s"), {"check": "again"}),
        (("nfop", "s"), {"unknown": 1}),
    ],
)
def test_bad_construction_is_a_type_error(args, kwargs):
    with pytest.raises(TypeError):
        checks.Verdict(*args, **kwargs)


@pytest.mark.parametrize(
    "build",
    [
        lambda: words.Literal(""),
        lambda: words.Literal("0a"),
        lambda: words.Periodic(""),
        lambda: words.UltimatelyPeriodic("x", "1"),
        lambda: words.Morphic({"0": "10", "1": "0"}, "0"),
        lambda: words.Morphic({"0": "01"}, "0"),
        lambda: words.StandardSequence(()),
        lambda: words.StandardSequence((0,)),
        lambda: words.MechanicalRational(2, 4),
        lambda: words.MechanicalRational(1, 0),
        lambda: words.MechanicalRational(1, 2, Fraction(3, 2)),
    ],
)
def test_validation_errors(build):
    with pytest.raises(MalformedSpec):
        build()


def test_replace_makes_a_validated_copy():
    v = checks.Verdict("nfop", checks.CONSISTENT, up_to=5)
    w = v.replace(status=checks.INDETERMINATE)
    assert w.status == checks.INDETERMINATE and w.up_to == 5
    assert v.status == checks.CONSISTENT
    assert words.Literal("01").replace(word="0") == words.Literal("0")
    with pytest.raises(MalformedSpec):
        words.Literal("01").replace(word="2x")
    with pytest.raises(MalformedSpec):
        words.MechanicalRational(1, 2).replace(q=4, p=2)
    with pytest.raises(TypeError):
        v.replace(unknown=1)
