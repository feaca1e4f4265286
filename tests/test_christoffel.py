"""Christoffel word construction and factor-level verification."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sturmlex as sx
from sturmlex.errors import NotCoprime, SingularAmbiguous, SingularNotFound

from conftest import prefix


def coprime_pairs(max_total):
    return [
        (p, s - p)
        for s in range(2, max_total + 1)
        for p in range(1, s)
        if math.gcd(p, s - p) == 1
    ]


class TestLowerChristoffel:
    @pytest.mark.parametrize(
        "p,q,expected", [(1, 1, "01"), (2, 3, "00101"), (1, 2, "001")]
    )
    def test_known_words(self, p, q, expected):
        assert sx.lower_christoffel(p, q) == expected

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            sx.lower_christoffel(2, 4)

    def test_positive_parameters(self):
        with pytest.raises(ValueError):
            sx.lower_christoffel(0, 1)

    @pytest.mark.parametrize("p,q", coprime_pairs(20))
    def test_shape_and_borders(self, p, q):
        w = sx.lower_christoffel(p, q)
        assert len(w) == p + q
        assert w.count("1") == p
        assert w[0] == "0" and w[-1] == "1"
        assert sx.is_unbordered(w)

    @pytest.mark.parametrize("p,q", coprime_pairs(20))
    def test_occurs_in_matching_rational_word(self, p, q):
        w = prefix(f"mech:{p}/{p + q}@0", 10 * (p + q))
        assert sx.lower_christoffel(p, q) in w


class TestConjugates:
    def test_two_rotations(self):
        assert sx.conjugates("01") == ["01", "10"]

    def test_five_rotations_sorted(self):
        assert sx.conjugates("00101") == [
            "00101", "01001", "01010", "10010", "10100",
        ]

    def test_power_collapses(self):
        assert sx.conjugates("0000") == ["0000"]

    def test_empty_word(self):
        with pytest.raises(ValueError):
            sx.conjugates("")

    def test_pair_are_the_least_and_greatest(self):
        # singular_word relies on this to name the extremal kind.
        for p in range(1, 40):
            for q in range(1, 40):
                if math.gcd(p, q) == 1:
                    pair = sx.christoffel_pair(p, q)
                    rotations = sx.conjugates(pair.lower)
                    assert (rotations[0], rotations[-1]) == (pair.lower, pair.upper)

    @pytest.mark.parametrize("p,q", coprime_pairs(20))
    def test_christoffel_words_are_primitive(self, p, q):
        assert len(sx.conjugates(sx.lower_christoffel(p, q))) == p + q


class TestChristoffelPair:
    def test_upper_is_derived_unbordered_conjugate(self):
        pair = sx.christoffel_pair(2, 3)
        assert pair.lower == "00101"
        assert pair.upper == "10100"
        assert pair.core == "010"

    @pytest.mark.parametrize("p,q", coprime_pairs(16))
    def test_pair_flanks_the_same_core(self, p, q):
        pair = sx.christoffel_pair(p, q)
        assert pair.lower == "0" + pair.core + "1"
        assert pair.upper == "1" + pair.core + "0"
        assert sx.is_unbordered(pair.upper)

    @pytest.mark.parametrize("p,q", coprime_pairs(40))
    def test_pair_are_the_only_unbordered_conjugates(self, p, q):
        pair = sx.christoffel_pair(p, q)
        unbordered = [c for c in sx.conjugates(pair.lower) if sx.is_unbordered(c)]
        assert unbordered == sorted((pair.lower, pair.upper))


class TestSingularWord:
    def test_half_slope_table(self):
        # (01)^w lacks two conjugates of 001 but carries the singular 101
        table = sx.FactorTable(prefix("mech:1/2@0", 4096), 5)
        s = sx.singular_word(1, 2, table)
        assert (s.word, s.letter, s.extremal_kind) == ("101", "1", "max")

    def test_fibonacci_length_two(self, fib_table):
        s = sx.singular_word(1, 1, fib_table)
        assert (s.word, s.letter, s.extremal_kind) == ("00", "0", "min")

    def test_fibonacci_length_three(self, fib_table):
        s = sx.singular_word(1, 2, fib_table)
        assert (s.word, s.letter, s.extremal_kind) == ("101", "1", "max")

    def test_thue_morse_ambiguous(self, tm_table):
        with pytest.raises(SingularAmbiguous):
            sx.singular_word(1, 1, tm_table)

    def test_matched_rational_table_has_no_singular(self):
        table = sx.FactorTable(prefix("mech:2/5@0", 4096), 5)
        with pytest.raises(SingularNotFound):
            sx.singular_word(2, 3, table)

    def test_wrong_core(self):
        with pytest.raises(SingularNotFound, match="000 does not have the shape x1x"):
            sx.singular_word(2, 1, sx.FactorTable("000", 3))

    def test_lone_factor_counts_as_least(self):
        s = sx.singular_word(1, 1, sx.FactorTable("111", 2))
        assert (s.word, s.extremal_kind) == ("11", "min")

    # Slices of Sturmian words carry a singular word at many lengths.
    HOSTS = [prefix(text, 300) for text in ("fib", "std:2,1", "std:1,3", "mech:3/7@0")]

    @given(
        word=st.one_of(
            st.text("01", min_size=2, max_size=40),
            st.tuples(st.sampled_from(HOSTS), st.integers(0, 200), st.integers(2, 100))
            .map(lambda h: h[0][h[1] : h[1] + h[2]]),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_singular_is_the_extremal_factor_of_its_kind(self, word):
        table = sx.FactorTable(word, min(len(word), 8))
        for p, q in coprime_pairs(table.max_len):
            try:
                s = sx.singular_word(p, q, table)
            except (SingularNotFound, SingularAmbiguous):
                continue
            assert s.word == table.extremal(p + q)[0 if s.extremal_kind == "min" else 1]

    def test_singular_is_one_letter_from_each_unbordered_conjugate(self, fib_table):
        # x u x differs from 0u1 and from 1u0 in exactly one position each
        for p, q in [(1, 1), (1, 2), (2, 3), (3, 5)]:
            s = sx.singular_word(p, q, fib_table)
            pair = sx.christoffel_pair(p, q)
            distances = {
                c: sum(1 for a, b in zip(s.word, c) if a != b)
                for c in sx.conjugates(pair.lower)
            }
            assert distances[pair.lower] == 1
            assert distances[pair.upper] == 1
            assert all(
                d >= 2 for c, d in distances.items()
                if c not in (pair.lower, pair.upper)
            )


class TestVerifyProperties:
    def test_fibonacci_length_two(self, fib_table):
        report = sx.verify_christoffel_properties(1, 1, fib_table)
        assert report.all_passed
        assert fib_table.complexity(2) == 3

    @pytest.mark.parametrize("p,q", [(1, 2), (2, 3), (3, 5), (5, 8)])
    def test_fibonacci_christoffel_lengths(self, p, q, fib_table):
        assert sx.verify_christoffel_properties(p, q, fib_table).all_passed

    def test_standard_word_host(self):
        # the std:2,2 word has convergents 1/3, 2/7, 5/17, so its table
        # carries the Christoffel structure at lengths 2, 3, 7 and 17
        table = sx.FactorTable(prefix("std:2,2", 20000), 18)
        for p, q in [(1, 1), (1, 2), (2, 5), (5, 12)]:
            assert sx.verify_christoffel_properties(p, q, table).all_passed

    @staticmethod
    def standard_lengths(directive, most):
        """(n, p) for each standard word s(m) and semi-standard word
        s(m-1)^k s(m-2), 1 <= k <= d(m), of ``directive`` with n <= most
        letters, p of them ones, 0 < p < n (k = d(m) gives s(m))."""
        prev, cur, m = "1", "0", 1
        while len(cur) <= most:
            d = directive[(m - 1) % len(directive)]
            for w in (cur * k + prev for k in range(1, d + 1)):
                if len(w) <= most and 0 < w.count("1") < len(w):
                    yield len(w), w.count("1")
            prev, cur, m = cur, cur * d + prev, m + 1

    def test_standard_lengths_carry_a_singular_word(self):
        """At a length n of a standard or semi-standard word with p ones, the
        length-n factors of its ``std:`` word are the n conjugates of the
        Christoffel word of slope p/n and one lex-extremal singular word.

        A semi-standard word s(m-1)^k s(m-2) is the standard word of the
        directive with k in place of d(m), and a standard word is conjugate
        to the Christoffel word with its numbers of letters (Lothaire,
        *Algebraic Combinatorics on Words*, ch. 2; Berstel, Lauve,
        Reutenauer and Saliola, *Combinatorics on Words: Christoffel Words
        and Repetitions in Words*, 2008).  Wen and Wen (*European J.
        Combin.* 15, 1994) prove the factor structure at the Fibonacci
        word's lengths.  No statement cited here covers every directive and
        every semi-standard length, so past those this test is a measured
        referee: all 2060 cases passed when it was written.  It shares no
        code with tests/naive.py, and a table that misses a factor, is
        wrongly called saturated or breaks the order fails it."""
        rng, cases = random.Random(11), 0
        for _ in range(150):
            directive = [rng.randint(1, 6) for _ in range(rng.randint(1, 4))]
            spec = sx.StandardSequence(tuple(directive))
            for n, p in self.standard_lengths(directive, 200):
                report = sx.verify_christoffel_properties(p, n - p, sx.saturated_table(spec, n))
                assert report.all_passed, (str(spec), n, report.to_json())
                cases += 1
        assert cases == 2060

    def test_thue_morse_fails_singular_items(self, tm_table):
        report = sx.verify_christoffel_properties(1, 1, tm_table)
        outcome = {item.name: item.passed for item in report.items}
        assert outcome["singular-extremal"] is False
        assert outcome["factor-set"] is False
        assert not report.all_passed

    @pytest.mark.parametrize("p,q", coprime_pairs(20))
    def test_matched_rational_tables_carry_the_conjugacy_class(self, p, q):
        # periodic rational words contain the whole conjugacy class and
        # nothing else at the Christoffel length: the first three items hold,
        # the two singular-word items cannot
        table = sx.FactorTable(prefix(f"mech:{p}/{p + q}@0", 10000), p + q)
        report = sx.verify_christoffel_properties(p, q, table)
        outcome = {item.name: item.passed for item in report.items}
        assert outcome["unbordered-pair"]
        assert outcome["pair-conjugate"]
        assert outcome["conjugates-present"]
        assert not outcome["singular-extremal"]
        assert not outcome["factor-set"]
        assert table.complexity(p + q) == p + q

    def test_table_too_short(self):
        with pytest.raises(ValueError):
            sx.verify_christoffel_properties(3, 5, sx.FactorTable("010010", 4))

    def test_json_shape(self, fib_table):
        payload = sx.verify_christoffel_properties(1, 1, fib_table).to_json()
        assert payload["check"] == "christoffel"
        assert payload["lower"] == "01" and payload["upper"] == "10"
        assert [i["name"] for i in payload["items"]] == [
            "unbordered-pair",
            "pair-conjugate",
            "conjugates-present",
            "singular-extremal",
            "factor-set",
        ]
