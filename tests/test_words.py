"""Generator behavior and the word-spec mini-language."""

import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import sturmlex as sx
from sturmlex.errors import BudgetExceeded, LiteralTooShort, MalformedSpec

import naive
from conftest import FIB32, TM_SPEC, prefix


class TestExactComplexities:
    """``spec.complexities(n)`` against the factors of a 2^16-letter prefix."""

    SPECS = [
        "fib",
        TM_SPEC,
        "morphic:0->012,1->02,2->1;seed=0",
        "morphic:0->001,1->0;seed=0",
        "std:1",
        "std:2,1",
        "std:3",
        "std:1,9,1,9",
        "std:1,2,3",
        "periodic:0010110",
        "periodic:0101",
        "ultper:0110|01",
        "ultper:|1",
        "mech:3/8@0",
        "mech:2/7@1/3",
        "mech:5/13@1/2",
    ]

    @pytest.mark.parametrize("text", SPECS)
    def test_equals_the_factors_of_a_long_prefix(self, text):
        spec = sx.parse_spec(text)
        w = sx.generate_prefix(spec, 1 << 16)
        exact = spec.complexities(40)
        assert exact[0] == 1
        assert exact[1:] == sx.FactorTable(w, 40).p[1:]
        assert exact[40] == len(naive.distinct_factors(w, 40))

    def test_fibonacci_at_240(self):
        w = prefix("fib", 1 << 16)
        assert sx.parse_spec("fib").complexities(240)[1:] == sx.FactorTable(w, 240).p[1:]

    @pytest.mark.parametrize(
        "text",
        [
            "morphic:0->01,1->1;seed=0",  # not primitive
            "morphic:0->010,1->11;seed=0",  # not primitive
            "mech:1/10000000@0",  # its period alone exceeds PREFIX_BUDGET
            "literal:0110",
        ],
    )
    def test_unknown(self, text):
        assert sx.parse_spec(text).complexities(40) is None


class TestGeneratePrefix:
    def test_fibonacci_display(self):
        assert prefix("fib", 32) == FIB32

    def test_fib_alias_matches_explicit_morphism(self):
        assert prefix("fib", 100) == prefix("morphic:0->01,1->0;seed=0", 100)

    def test_periodic_repetition(self):
        assert prefix("periodic:01", 5) == "01010"
        assert prefix("periodic:011", 9) == "011" * 3

    def test_standard_matches_morphic_fibonacci(self):
        assert prefix("std:1,1,1,1,1,1", 13) == prefix("fib", 13)

    def test_standard_directive_cycles(self):
        # a cycling directive and its doubled form describe the same word
        assert prefix("std:2,1", 800) == prefix("std:2,1,2,1", 800)
        assert prefix("std:1", 800) == prefix("fib", 800)

    def test_mechanical_hand_evaluated(self):
        # floors of k/3 for k = 0..6 are 0,0,0,1,1,1,2
        assert prefix("mech:1/3@0", 6) == "001001"
        assert sx.generate_prefix(sx.MechanicalRational(1, 2), 6) == "001001"

    def test_mechanical_against_fraction_arithmetic(self):
        a, r = Fraction(2, 5), Fraction(1, 3)
        expect = "".join(
            str(int((i + 1) * a + r) - int(i * a + r)) for i in range(40)
        )
        assert prefix("mech:2/5@1/3", 40) == expect

    def test_mechanical_zero_slope(self):
        assert prefix("mech:0/1@0", 8) == "00000000"

    def test_thue_morse_prefix(self):
        assert prefix(TM_SPEC, 16) == "0110100110010110"

    def test_literal_is_a_window_only(self):
        assert prefix("literal:0100101", 4) == "0100"
        with pytest.raises(LiteralTooShort):
            prefix("literal:0100101", 8)

    def test_ultimately_periodic(self):
        assert prefix("ultper:0|1", 6) == "011111"
        assert prefix("ultper:|01", 5) == "01010"

    def test_zero_length(self):
        for text in ("fib", "periodic:01", "std:1,2", "mech:1/2@0", "literal:0"):
            assert prefix(text, 0) == ""

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            sx.generate_prefix(sx.parse_spec("fib"), -1)

    def test_length_beyond_budget_rejected(self):
        with pytest.raises(BudgetExceeded):
            sx.generate_prefix(sx.parse_spec("fib"), sx.PREFIX_BUDGET + 1)


SPEC_TEXTS = [
    "fib",
    "periodic:01",
    "periodic:0011",
    "ultper:0|1",
    "std:2,1,2,1",
    "std:1,2,3",
    "mech:2/5@0",
    "mech:3/8@1/2",
    TM_SPEC,
]


class TestPrefixMonotonicity:
    @pytest.mark.parametrize("text", SPEC_TEXTS)
    def test_shorter_prefix_is_a_prefix(self, text):
        spec = sx.parse_spec(text)
        long = sx.generate_prefix(spec, 300)
        for m in (0, 1, 2, 17, 100, 299):
            assert long.startswith(sx.generate_prefix(spec, m))

    @given(m=st.integers(0, 200), n=st.integers(0, 200))
    @settings(max_examples=60, deadline=None)
    def test_monotone_for_random_length_pairs(self, m, n):
        if m > n:
            m, n = n, m
        spec = sx.StandardSequence((1, 2))
        assert sx.generate_prefix(spec, n).startswith(sx.generate_prefix(spec, m))


class TestMechanicalInvariants:
    @pytest.mark.parametrize(
        "p,q", [(1, 1), (1, 2), (2, 3), (3, 5), (3, 4), (5, 7), (7, 12)]
    )
    def test_ones_per_period(self, p, q):
        w = sx.generate_prefix(sx.MechanicalRational(p, q), p + q)
        assert w.count("1") == p

    def test_rational_word_is_periodic(self):
        w = prefix("mech:2/5@0", 50)
        assert w == w[:5] * 10

    def test_period_is_lower_christoffel_word(self):
        pairs = [
            (p, q) for p in range(1, 21) for q in range(1, 21) if math.gcd(p, q) == 1
        ]
        for p, q in pairs:
            assert sx.MechanicalRational(p, q).period == sx.lower_christoffel(p, q)

    def test_prefix_around_one_period(self):
        # A prefix computes at most one period and tiles it: check the
        # closed form just short of, at, and past the period length.
        intercepts = [Fraction(0), Fraction(1, 2), Fraction(2, 7), Fraction(29, 30)]
        for den in range(1, 31):
            for num in range(den):
                if math.gcd(num, den) != 1:
                    continue
                for rho in intercepts:
                    spec = sx.MechanicalRational(num, den - num, rho)
                    for n in (den - 1, den, den + 1, 3 * den + 2):
                        expect = naive.mechanical_prefix(Fraction(num, den), rho, n)
                        assert sx.generate_prefix(spec, n) == expect, (spec, n)

    def test_short_prefix_of_a_long_period_stays_small(self):
        spec = sx.parse_spec("mech:1/1000000@0")
        tracemalloc.start()
        try:
            assert spec.prefix(10) == "0" * 10
            assert spec.flags == sx.KnownFlags(recurrent=True, aperiodic=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestMalformedSpecs:
    @pytest.mark.parametrize(
        "text",
        [
            "bogus:xx",
            "fibber",
            "periodic:",
            "periodic:01a",
            "ultper:01",  # missing separator
            "std:0,1",  # zero entry
            "std:1,x",
            "std:",
            "morphic:0->10,1->0;seed=0",  # image of seed does not start with it
            "morphic:0->01;seed=0,1->0",  # rules after the seed marker
            "morphic:0->01,1->0",  # missing seed
            "morphic:0->01,0->0;seed=0",  # duplicate rule
            "morphic:0->01;seed=0",  # image letter 1 has no rule
            "mech:2/4@0",  # slope not in lowest terms
            "mech:5/3@0",  # slope above 1
            "mech:1/2",  # missing intercept
            "mech:1/2@1",  # intercept outside [0, 1)
            "mech:1/2@x",
            "literal:",
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(MalformedSpec):
            sx.parse_spec(text)

    def test_morphic_object_validation(self):
        with pytest.raises(MalformedSpec):
            sx.Morphic({"0": "0", "1": "0"}, "0")  # seed image not longer
        with pytest.raises(MalformedSpec):
            sx.Morphic({"0": "01", "1": ""}, "0")  # empty image
        with pytest.raises(MalformedSpec):
            sx.StandardSequence(())
        with pytest.raises(MalformedSpec):
            sx.MechanicalRational(2, 4)


class TestKnownFlags:
    @pytest.mark.parametrize(
        "text,recurrent,aperiodic",
        [
            ("periodic:01", True, False),
            ("ultper:0|1", False, False),
            ("ultper:0|10", True, False),  # preperiod absorbs into the period
            ("ultper:|01", True, False),
            # preperiods at least as long as the period
            ("ultper:0101|01", True, False),
            ("ultper:1101|01", False, False),
            ("ultper:000|0", True, False),
            ("ultper:10|0", False, False),
            ("std:1,1", True, True),
            ("mech:2/5@0", True, False),
            ("fib", True, None),  # primitive substitution
            (TM_SPEC, True, None),
            ("literal:0101", None, None),
        ],
    )
    def test_flag_table(self, text, recurrent, aperiodic):
        flags = sx.parse_spec(text).flags
        assert (flags.recurrent, flags.aperiodic) == (recurrent, aperiodic)

    def test_non_primitive_morphic_stays_unknown(self):
        # 1 never reaches 0 under 0->01, 1->1
        flags = sx.Morphic({"0": "01", "1": "1"}, "0").flags
        assert (flags.recurrent, flags.aperiodic) == (None, None)


class TestSpecRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "periodic:01",
            "ultper:0|1",
            "std:2,1,2,1",
            "mech:2/5@0",
            "mech:3/8@1/2",
            "literal:0100101",
            TM_SPEC,
        ],
    )
    def test_format_inverts_parse(self, text):
        assert str(sx.parse_spec(text)) == text

    def test_parse_inverts_format(self):
        for text in SPEC_TEXTS:
            spec = sx.parse_spec(text)
            assert sx.parse_spec(str(spec)) == spec


class TestDifferentialGenerators:
    """Structural generators against letter-by-letter oracles."""

    @given(
        den=st.integers(1, 30),
        num=st.integers(0, 29),
        rho_num=st.integers(0, 40),
        rho_den=st.integers(1, 41),
        n=st.integers(0, 200),
    )
    @settings(max_examples=150, deadline=None)
    def test_mechanical_floor_formula(self, den, num, rho_num, rho_den, n):
        num %= den
        assume(math.gcd(num, den) == 1)
        rho = Fraction(rho_num % rho_den, rho_den)
        spec = sx.MechanicalRational(num, den - num, rho)
        assert sx.generate_prefix(spec, n) == naive.mechanical_prefix(
            Fraction(num, den), rho, n
        )

    @given(
        images=st.lists(
            st.text(alphabet="012", min_size=1, max_size=4), min_size=3, max_size=3
        ),
        n=st.integers(0, 300),
    )
    @settings(max_examples=150, deadline=None)
    # One-letter images for the other letters: the word grows by few letters
    # per expanded letter, so the prefix needs many rounds.
    @example(images=["1", "1", "2"], n=300)
    @example(images=["1", "2", "0"], n=300)
    @example(images=["2", "2", "1"], n=257)
    def test_morphic_letterwise_substitution(self, images, n):
        rules = dict(zip("012", images))
        rules["0"] = "0" + rules["0"]  # prolongable on the seed 0
        spec = sx.Morphic(rules, "0")
        assert sx.generate_prefix(spec, n) == naive.morphic_prefix(rules, "0", n)
