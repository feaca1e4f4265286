"""Generator behavior and the word-spec mini-language."""

import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import sturmlex as sx
from sturmlex import checks, words
from sturmlex.errors import BudgetExceeded, LiteralTooShort, MalformedSpec

import naive
from conftest import FIB32, TM_SPEC, counted, peak_rss, prefix


# The generators of the Sturmian monoid (Lothaire, ch. 2): 0 <-> 1, (01, 0) and (10, 0).
STURMIAN_GENERATORS = ({"0": "1", "1": "0"}, {"0": "01", "1": "0"}, {"0": "10", "1": "0"})


def composed(generators) -> tuple[str, str]:
    """The images of 0 and 1 under the composition of ``generators``."""
    images = ("0", "1")
    for g in generators:
        images = tuple("".join(g[c] for c in image) for image in images)
    return images


class TestExactComplexities:
    """A spec's p, counted from its whole ``language(n)`` (``counted``) and
    read from its saturated table, against the factors of a 2^16-letter prefix."""

    SPECS = [
        "fib",
        TM_SPEC,
        "morphic:0->012,1->02,2->1;seed=0",
        "morphic:0->001,1->0;seed=0",
        "morphic:0->010,1->11;seed=0",
        # In the Sturmian monoid, but not primitive: 01^w and 10^w have p(m) = 2.
        "morphic:0->01,1->1;seed=0",
        "morphic:0->0,1->10;seed=1",
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
        exact = counted(spec, 40)
        assert exact == sx.FactorTable(w, 40).p
        assert exact == checks.saturated_table(spec, 40).p
        assert exact[40] == len(naive.distinct_factors(w, 40))

    # Every coprime slope p/(p+q) with period below 40: the count of its
    # language, min(m + 1, p + q), against the factors of a prefix in which
    # every length-60 factor starts, generated by the naive floor formula.
    @pytest.mark.parametrize("rho", [Fraction(0), Fraction(1, 3), Fraction(5, 7)])
    def test_mechanical_sweep(self, rho):
        slopes = [(p, q) for q in range(1, 40) for p in range(40 - q) if math.gcd(p, q) == 1]
        for p, q in slopes:
            w = naive.mechanical_prefix(Fraction(p, p + q), rho, p + q + 59)
            exact = checks.saturated_table(sx.MechanicalRational(p, q, rho), 60).p
            assert exact == sx.FactorTable(w, 60).p, (p, q, rho)
            assert exact[1:] == [min(m + 1, p + q) for m in range(1, 61)]

    def test_fibonacci_at_240(self):
        w = prefix("fib", 1 << 16)
        spec = sx.parse_spec("fib")
        assert counted(spec, 240) == checks.saturated_table(spec, 240).p == sx.FactorTable(w, 240).p

    @pytest.mark.parametrize("text", ["literal:0110"])
    def test_unknown(self, text):
        # A finite window fixes no language beyond itself.
        assert not hasattr(sx.parse_spec(text), "language")

    def test_mechanical_past_the_prefix_budget(self):
        # Its period alone exceeds PREFIX_BUDGET; its standard word has its factors.
        spec = sx.parse_spec("mech:1/10000000@0")
        assert counted(spec, 40) == checks.saturated_table(spec, 40).p == [0, *range(2, 42)]

    @pytest.mark.parametrize(
        "spec,n",
        [
            # One period and a letter more pass PREFIX_BUDGET.
            (lambda: sx.Periodic("01" * 2**21), 2),
            (lambda: sx.UltimatelyPeriodic("0" * 2**22, "1"), 2),
            # Not Sturmian, and one level of the fold reads 3000 boundaries
            # of 2 * 3999 letters each.
            (lambda: sx.Morphic({"0": "0" + "1" * 3000, "1": "0"}, "0"), 4000),
        ],
        ids=["periodic", "ultper", "morphic"],
    )
    def test_past_the_prefix_budget(self, spec, n):
        with pytest.raises(BudgetExceeded):
            checks.saturated_table(spec(), n)

    def test_thue_morse_closed_form(self):
        # Brlek (1989); de Luca and Varricchio (1989): for n = 2^r + q + 1 >= 3
        # with 0 <= q < 2^r, p(n) = 6 * 2^(r-1) + 4q if q <= 2^(r-1), else
        # 8 * 2^(r-1) + 2q.
        def closed(n):
            if n < 3:
                return [1, 2, 4][n]
            r = (n - 1).bit_length() - 1
            q, half = n - 1 - 2**r, 2 ** (r - 1)
            return 6 * half + 4 * q if q <= half else 8 * half + 2 * q

        exact = checks.saturated_table(sx.parse_spec(TM_SPEC), 300).p
        assert exact[1:] == [closed(n) for n in range(1, 301)]

    @given(letters=st.sampled_from(["01", "012"]), n=st.integers(1, 30), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_never_below_a_long_prefix(self, letters, n, data):
        # Every factor of a prefix is a factor of the word, over rules on 2-3
        # letters with images of 1-4 letters.  The prefix's factors are
        # counted from a set of slices.
        image = st.text(alphabet=letters, min_size=1, max_size=4)
        rules = {a: data.draw(image) for a in letters}
        seed = data.draw(st.sampled_from(letters))
        rules[seed] = seed + data.draw(st.text(alphabet=letters, min_size=1, max_size=3))
        spec = sx.Morphic(rules, seed)
        exact, w = checks.saturated_table(spec, n).p, spec.prefix(1 << 15)
        windows = {w[i : i + n] for i in range(len(w))}  # short ones at the end
        for m in range(1, n + 1):
            assert len({v[:m] for v in windows if len(v) >= m}) <= exact[m], (rules, seed)

    # Prolongable substitutions on 01 with images of 1-6 letters, drawn at
    # random or composed from the Sturmian generators 0 <-> 1, (01, 0) and
    # (10, 0) (random images are seldom Sturmian), and std: directives:
    # wherever the spec is Sturmian a priori, the count of its whole
    # language is m + 1.  The two examples are in the Sturmian monoid but
    # not primitive, so not flagged, and their p stalls at 2.
    @given(
        spec=st.one_of(
            st.tuples(
                st.sampled_from("01"),
                st.one_of(
                    st.tuples(*[st.text("01", min_size=1, max_size=6)] * 2),
                    st.lists(st.sampled_from(STURMIAN_GENERATORS), min_size=1, max_size=8)
                    .map(composed),
                ),
            )
            .filter(lambda t: 1 < len(t[1][int(t[0])]) and t[1][int(t[0])].startswith(t[0]))
            .filter(lambda t: max(map(len, t[1])) <= 6)
            .map(lambda t: f"morphic:0->{t[1][0]},1->{t[1][1]};seed={t[0]}"),
            st.lists(st.integers(1, 9), min_size=1, max_size=4).map(
                lambda d: "std:" + ",".join(map(str, d))),
        ),
        n=st.integers(1, 60),
    )
    @example(spec="morphic:0->01,1->1;seed=0", n=60)
    @example(spec="morphic:0->0,1->10;seed=1", n=60)
    @settings(max_examples=200, deadline=None)
    def test_the_sturmian_flag_holds_in_the_count(self, spec, n):
        spec = sx.parse_spec(spec)
        exact = counted(spec, n)
        if spec.flags.sturmian:
            assert exact == [0, *range(2, n + 2)], spec
        elif str(spec) in ("morphic:0->01,1->1;seed=0", "morphic:0->0,1->10;seed=1"):
            assert spec.flags.sturmian is None and exact == [0, *[2] * n]

    def test_a_long_image_is_decided_at_once(self):
        start = time.perf_counter()
        spec = sx.Morphic({"0": "0" * (2**20 - 1) + "1", "1": "0"}, "0")
        assert spec.flags.sturmian
        assert checks.saturated_table(spec, 240).p == [0, *range(2, 242)]
        assert not words._is_sturmian({"0": "0" * 2**19 + "1" * 2**19, "1": "0"})
        took = time.perf_counter() - start
        assert took < 2, f"took {took:.1f} s"


def peeled_by_copies(rules):
    """``words._is_sturmian`` as it stripped one copy of the shorter image at a time."""
    if sorted(rules) != ["0", "1"]:
        return False
    b, a = sorted(rules.values(), key=len)
    while len(a) > 1:
        i, j = 0, len(a)
        while a.startswith(b, i):
            i += len(b)
        while a.endswith(b, i, j):
            j -= len(b)
        if i == j or j - i == len(a):
            return False
        b, a = sorted((b, a[i:j]), key=len)
    return a != b


class TestLongImages:
    """Substitutions whose images hold up to 2^20 letters: lengths are
    predicted before any power is built, a prefix translates only the
    letters it needs, and the Sturmian test compares blocks of copies."""

    # Each family's count of its language says the same at every small m,
    # and the Sturmian test says it at 2^20.
    @pytest.mark.parametrize(
        "family",
        [
            lambda m: {"0": "0" * m + "1", "1": "0"},
            lambda m: {"0": "0" * m + "1" * m, "1": "0"},
            lambda m: {"0": "0" * m + "1", "1": "10"},
            lambda m: {"0": "01" * m + "0", "1": "01"},
            lambda m: {"0": "0" * m + "10", "1": "0" * m + "1"},
        ],
    )
    def test_long_images_agree_with_the_count(self, family):
        answers = {words._is_sturmian(family(m)) for m in (2**20 - 1, 2**20)}
        sturmian = [0, *range(2, 42)]
        counts = {counted(sx.Morphic(family(m), "0"), 40) == sturmian for m in range(2, 7)}
        assert answers == counts and len(counts) == 1

    @given(
        b=st.text(alphabet="01", min_size=1, max_size=3),
        copies=st.tuples(st.integers(0, 40), st.integers(0, 40)),
        core=st.text(alphabet="01", max_size=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_sturmian_test_against_one_copy_at_a_time(self, b, copies, core):
        a = b * copies[0] + core + b * copies[1]
        for rules in ({"0": a, "1": b}, {"0": b, "1": a}):
            if a:
                assert words._is_sturmian(rules) == peeled_by_copies(rules)
        # The runs of copies at each end of a, the front one first.
        front = next(k for k in itertools.count() if not a.startswith(b * (k + 1)))
        back = next(k for k in itertools.count() if not a[front * len(b):].endswith(b * (k + 1)))
        assert words._copies(a, b) == front * len(b)
        assert words._copies(a[front * len(b) :][::-1], b[::-1]) == back * len(b)

    def test_powers_are_measured_before_they_are_built(self):
        # s^2(0) would hold about 9e8 letters, past PREFIX_BUDGET; the fold
        # cuts the run of 0 at 40 copies.  With 41 zeros, a 2^21-letter
        # prefix of the fixed point has the same counts.
        spec = sx.parse_spec("morphic:0->" + "0" * 30000 + "1,1->10;seed=0")
        tracemalloc.start()
        try:
            assert counted(spec, 40) == [0, 2, 4, *range(7, 119, 3)]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_prefix_past_the_first_long_image(self):
        # x = s(x) is 0^k 1 followed by s(0^(k-1) 1): (0^k 1)^(k-1) 10.
        k, n = 100000, 300000
        spec = sx.parse_spec(f"morphic:0->{'0' * k}1,1->10;seed=0")
        assert sx.generate_prefix(spec, n) == ("0" * k + "1") * 2 + "0" * (n - 2 * k - 2)

    @given(
        letters=st.sampled_from(["01", "012"]),
        data=st.data(),
        n=st.integers(0, 1500),
    )
    @example(letters="01", data=None, n=1000)
    @settings(max_examples=100, deadline=None)
    def test_prefix_against_iteration(self, letters, data, n):
        if data is None:
            rules, seed = {"0": "0" * 300 + "1", "1": "10"}, "0"
        else:
            short = st.text(alphabet=letters, min_size=1, max_size=3)
            rules = {a: data.draw(short) for a in letters}
            rules[data.draw(st.sampled_from(letters))] = data.draw(
                st.text(alphabet=letters, min_size=20, max_size=300)
            )
            seed = data.draw(st.sampled_from(letters))
            if not rules[seed].startswith(seed) or len(rules[seed]) < 2:
                rules[seed] = seed + rules[seed]
        assert sx.Morphic(rules, seed).prefix(n) == naive.morphic_prefix(rules, seed, n)

    # The child's peak RSS (measured 32-34 MB for the checks while they read
    # PREFIX_BUDGET letters, and 17 MB for the generation, with Python 3.11
    # on Linux); building s^2(0) before checking its length peaked at 873 MB at
    # k=30000, and at k=100000 the check and the generation (which
    # translated 10^5 letters of 10^5 each) ran out of memory.
    @pytest.mark.parametrize(
        "k,argv",
        [
            (30000, ("check", "--what", "sturmian", "--max-n", "40")),
            (100000, ("check", "--what", "sturmian", "--max-n", "40")),
            (100000, ("generate", "--len", "300000")),
        ],
    )
    def test_long_images_stay_small(self, k, argv):
        pytest.importorskip("resource")
        spec = f"morphic:0->{'0' * k}1,1->10;seed=0"
        code, peak = peak_rss("-m", "sturmlex", *argv, "--spec", spec, timeout=60)
        # The fold finds 00 and 11, though 11 first occurs past PREFIX_BUDGET.
        assert code == (1 if argv[0] == "check" else 0)
        assert peak < 40, f"peak RSS {peak:.0f} MB"


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
        # Both against the floor reference, for every coprime p, q >= 1 with
        # p + q <= 60.
        for length in range(2, 61):
            for p in (p for p in range(1, length) if math.gcd(p, length) == 1):
                lower = naive.mechanical_prefix(Fraction(p, length), Fraction(0), length)
                assert sx.lower_christoffel(p, length - p) == lower, (p, length)
                assert sx.MechanicalRational(p, length - p).period == lower, (p, length)

    def test_prefix_around_one_period(self):
        # A prefix computes at most one period and tiles it: check the
        # closed form just short of, at, and past the period length, for
        # every coprime p, q with p + q <= 60 and intercept a/b with b <= 7
        # or 29/30.
        intercepts = {Fraction(a, b) for b in range(1, 8) for a in range(b)}
        for den in range(1, 61):
            for num in (num for num in range(den) if math.gcd(num, den) == 1):
                for rho in sorted(intercepts | {Fraction(29, 30)}):
                    spec = sx.MechanicalRational(num, den - num, rho)
                    expect = naive.mechanical_prefix(Fraction(num, den), rho, 3 * den + 2)
                    for n in (1, den - 1, den, den + 1, 3 * den + 1, 3 * den + 2):
                        assert sx.generate_prefix(spec, n) == expect[:n], (spec, n)

    def test_random_long_periods_against_the_floor_reference(self):
        # Prefixes of periods up to 10^7, and letters sampled across the
        # first period's end of periods up to 10^5.
        rng = random.Random(20261020)
        for top, cases in ((10**7, 40), (10**5, 6)):
            for _ in range(cases):
                length, p = rng.randrange(2, top + 1), 0
                while math.gcd(p, length) != 1:
                    p = rng.randrange(length)
                b = rng.randrange(1, 1000)
                a, rho = Fraction(p, length), Fraction(rng.randrange(b), b)
                spec = sx.MechanicalRational(p, length - p, rho)
                if top > 10**5:
                    n = rng.randrange(1, 3000)
                    assert sx.generate_prefix(spec, n) == naive.mechanical_prefix(a, rho, n), spec
                    continue
                w = sx.generate_prefix(spec, 2 * length + 1)
                for i in [*rng.sample(range(len(w)), 300), length - 1, length]:
                    assert w[i] == naive.mechanical_letter(a, rho, i), (spec, i)

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

    @pytest.mark.parametrize(
        "text,letter",
        [
            ("literal:01\u0663", "\u0663"),  # an Arabic-Indic digit 3
            ("periodic:\uff130", "\uff13"),  # a fullwidth digit 3
            ("literal:0a\u0663", "a"),
            ("literal:" + "01" * 2**19 + "x", "x"),  # the bad letter comes last
            ("morphic:0->0" + "1" * 2**20 + "x,1->0;seed=0", "x"),
        ],
    )
    def test_the_first_letter_not_a_digit_is_named(self, text, letter):
        with pytest.raises(MalformedSpec, match=f"contains {letter!r}; letters are the digits 0-9$"):
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

    @pytest.mark.parametrize(
        "rules,message",
        [
            ({"0": "032"}, "image letter 3 of rule 0"),  # 2 and 3 lack rules, 3 first
            ({"0": "01", "1": "0" * 5000 + "98"}, "image letter 9 of rule 1"),
            ({"0": "01", "1": "17", "7": "5"}, "image letter 5 of rule 7"),
        ],
    )
    def test_the_first_letter_without_a_rule_is_named(self, rules, message):
        with pytest.raises(MalformedSpec, match=f"^{message} has no rule$"):
            sx.Morphic(rules, "0")


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
            # not primitive, but the seed 0 recurs in its own image
            ("morphic:0->0010,1->11;seed=0", True, None),
            ("morphic:0->001,1->1;seed=0", True, None),
            ("morphic:0->011001,1->1;seed=0", True, None),
            ("morphic:0->012,1->1,2->20;seed=0", True, None),  # 0 recurs through 2
            ("literal:0101", None, None),
        ],
    )
    def test_flag_table(self, text, recurrent, aperiodic):
        flags = sx.parse_spec(text).flags
        assert (flags.recurrent, flags.aperiodic) == (recurrent, aperiodic)

    # The fixed point reads only the rules of the letters its seed reaches.
    @pytest.mark.parametrize(
        "text,sturmian",
        [
            ("morphic:0->01,1->0,2->2;seed=0", True),  # the Fibonacci word
            ("morphic:0->01,1->0,2->210;seed=0", True),
            ("morphic:0->02,2->0;seed=0", None),  # the Fibonacci word on 02
            ("morphic:0->012,1->02,2->1;seed=0", None),
            ("morphic:0->01,1->1,2->0;seed=0", None),  # 01^w, not primitive
        ],
    )
    def test_sturmian_on_the_letters_the_seed_reaches(self, text, sturmian):
        assert sx.parse_spec(text).flags.sturmian is sturmian

    def test_non_primitive_morphic_is_not_recurrent(self):
        # 1 never reaches 0 under 0->01, 1->1, so 01^w has its 0 once.
        flags = sx.Morphic({"0": "01", "1": "1"}, "0").flags
        assert (flags.recurrent, flags.aperiodic) == (False, None)

    # Substitutions on 2-3 letters, prolongable on 0, images of 1-4 letters.
    @given(data=st.data(), k=st.integers(2, 3))
    @settings(max_examples=300, deadline=None)
    def test_recurrence_against_a_long_prefix(self, data, k):
        letters = "012"[:k]
        rules = {c: data.draw(st.text(alphabet=letters, min_size=1, max_size=4)) for c in letters}
        rules["0"] = "0" + data.draw(st.text(alphabet=letters, min_size=1, max_size=3))
        # The seed comes back, if ever, inside s^(k-1) of a letter of s(0)[1:],
        # inside s^k(0): at most 4^3 = 64 letters.
        w = naive.morphic_prefix(rules, "0", 64)
        recurrent = sx.Morphic(rules, "0").flags.recurrent
        assert recurrent == (w.find("0", 1) > 0), (rules, w)


    @pytest.mark.parametrize(
        "text,once",
        [
            ("ultper:0|1", 1),
            ("ultper:1101|01", 2),
            ("ultper:10|0", 1),
            ("ultper:0110|01", 3),
            ("ultper:" + "0" * 43 + "1|0", 44),
            ("morphic:0->01,1->1;seed=0", 1),
            # recurrent, or unknown: no prefix is named
            ("ultper:0101|01", None),
            ("fib", None),
            ("literal:0101", None),
        ],
    )
    def test_once(self, text, once):
        assert sx.parse_spec(text).flags.once == once

    # ultper: on 2-3 letters, preperiod 1-12 and period 1-8 letters, and
    # morphic: whose seed no letter of s(seed)[1:] reaches.
    @given(
        spec=st.one_of(
            st.sampled_from(["01", "012"]).flatmap(lambda a: st.tuples(
                st.text(a, min_size=1, max_size=12), st.text(a, min_size=1, max_size=8)))
            .map(lambda t: sx.UltimatelyPeriodic(*t)),
            st.sampled_from(["01", "012"]).flatmap(lambda a: st.fixed_dictionaries({
                "0": st.text(a[1:], min_size=1, max_size=3).map("0".__add__),
                **{c: st.sampled_from([a[1:], a]).flatmap(
                    lambda b: st.text(b, min_size=1, max_size=3)) for c in a[1:]},
            })).map(lambda rules: sx.Morphic(rules, "0")),
        ).filter(lambda spec: spec.flags.recurrent is False)
    )
    @settings(max_examples=300, deadline=None)
    def test_once_against_a_long_prefix(self, spec):
        # The prefix of `once` letters occurs only at position 0 of 1000
        # letters (of ultper: more than 45 preperiods and periods), and the
        # one a letter shorter occurs again.
        w = sx.generate_prefix(spec, 1000)
        once = spec.flags.once
        assert w.find(w[:once], 1) < 0, (spec, once)
        assert w.find(w[: once - 1], 1) > 0, (spec, once)


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
