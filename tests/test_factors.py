"""Factor index construction and queries, checked against brute force."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sturmlex as sx
from sturmlex import factors
from sturmlex.errors import BudgetExceeded, MalformedSpec, NotAFactor, WindowTooLarge

import naive
from conftest import prefix


class TestBuild:
    def test_fibonacci_length_three(self, fib_table):
        assert fib_table.factors(3) == ("001", "010", "100", "101")
        assert fib_table.complexity(3) == 4

    def test_short_fibonacci_window_agrees(self):
        t = sx.FactorTable(prefix("fib", 32), 3)
        assert t.factors(3) == ("001", "010", "100", "101")

    def test_constant_word(self):
        t = sx.FactorTable("00000", 2)
        assert t.factors(2) == ("00",)
        assert t.complexity(2) == 1

    def test_small_window(self):
        t = sx.FactorTable("0110", 2)
        assert t.factors(2) == ("01", "10", "11")
        assert t.complexity(2) == 3

    def test_counts_include_overlaps(self):
        t = sx.FactorTable("0000", 2)
        assert t.count("00") == 3

    def test_window_bounds(self):
        with pytest.raises(WindowTooLarge):
            sx.FactorTable("0110", 5)
        with pytest.raises(WindowTooLarge):
            sx.FactorTable("0110", 0)
        with pytest.raises(WindowTooLarge):
            sx.FactorTable("", 1)

    @pytest.mark.parametrize("word", ["0a1", "01A"])
    def test_letters_are_digits(self, word):
        with pytest.raises(MalformedSpec):
            sx.FactorTable(word, 1)

    def test_complexity_one_counts_letters(self):
        assert sx.FactorTable("0120", 1).complexity(1) == 3

    # int(v, 16) would read each of these as a digit code: " 01" and "0_1"
    # as 001, "\u0663" (an Arabic-Indic three) as 3 and "0a" as 0x0a.
    @pytest.mark.parametrize("v", ["0a", " 01", "0_1", "\u0663"])
    def test_non_digit_queries_are_no_factors(self, v):
        t = sx.FactorTable("00123" * 4, 3)
        assert t.is_factor("001") and t.is_factor("3")
        assert not t.is_factor(v)
        for query in (t.count, t.first_occurrence, t.successor):
            with pytest.raises(NotAFactor):
                query(v)


class TestFactorBudget:
    """FACTOR_BUDGET caps the distinct factors summed over a table's lengths."""

    WORD = prefix("fib", 64)

    def held(self):
        t = sx.FactorTable(self.WORD, 8)
        return sum(t.complexity(n) for n in range(1, 9))

    def test_table_at_the_cap_builds(self, monkeypatch):
        monkeypatch.setattr(factors, "FACTOR_BUDGET", self.held())
        assert sx.FactorTable(self.WORD, 8).complexity(1) == 2

    def test_one_factor_over_the_cap_raises(self, monkeypatch):
        monkeypatch.setattr(factors, "FACTOR_BUDGET", self.held() - 1)
        with pytest.raises(BudgetExceeded):
            sx.FactorTable(self.WORD, 8)

    def test_longest_length_alone_is_checked(self, monkeypatch):
        monkeypatch.setattr(factors, "FACTOR_BUDGET", 8)
        with pytest.raises(BudgetExceeded, match="lengths 8..8"):
            sx.FactorTable(self.WORD, 8)


class TestSuccessor:
    def test_fibonacci_successors(self, fib_table):
        assert fib_table.successor("001") == "010"
        assert fib_table.successor("101") is None

    def test_two_element_list(self):
        t = sx.FactorTable("0110", 2)
        assert t.successor("01") == "10"

    def test_not_a_factor(self, fib_table):
        with pytest.raises(NotAFactor):
            fib_table.successor("000")

    def test_chain_visits_every_factor_once(self, fib_table):
        for n in (1, 5, 9):
            v = fib_table.extremal(n)[0]
            seen = []
            while v is not None:
                seen.append(v)
                v = fib_table.successor(v)
            assert tuple(seen) == fib_table.factors(n)


class TestExtremal:
    def test_fibonacci(self, fib_table):
        assert fib_table.extremal(3) == ("001", "101")
        assert fib_table.extremal(1) == ("0", "1")

    def test_periodic(self, per01_table):
        assert per01_table.extremal(2) == ("01", "10")


class TestLeftSpecial:
    def test_fibonacci_unique(self, fib_table):
        assert fib_table.left_special(3) == ["010"]

    def test_periodic_has_none(self, per01_table):
        assert per01_table.left_special(2) == []

    def test_thue_morse_two_letters(self):
        t = sx.FactorTable("0110100110010110", 2)
        assert t.left_special(1) == ["0", "1"]

    def test_fibonacci_left_specials_nest(self, fib_table):
        previous = ""
        for n in range(1, 20):
            special = fib_table.left_special(n)
            assert len(special) == 1
            assert special[0].startswith(previous)
            previous = special[0]

    def test_out_of_range(self, fib_table):
        with pytest.raises(ValueError):
            fib_table.left_special(fib_table.max_len)
        with pytest.raises(ValueError):
            fib_table.left_special(0)


class TestUnbordered:
    def test_fibonacci(self, fib_table):
        assert fib_table.unbordered_factors(3) == ["001", "100"]
        assert fib_table.unbordered_factors(2) == ["01", "10"]

    def test_square_letter_is_bordered(self, fib_table):
        assert "00" not in fib_table.unbordered_factors(2)

    def test_every_report_is_borderless(self, tm_table):
        for n in range(1, 9):
            for v in tm_table.unbordered_factors(n):
                assert all(v[:b] != v[-b:] for b in range(1, len(v)))


class TestSaturation:
    def test_long_fibonacci_saturates(self, fib_table):
        assert fib_table.saturated(10)
        assert fib_table.saturated_lengths() == tuple(range(1, 41))

    def test_single_window_does_not(self):
        t = sx.FactorTable("01", 2)
        assert not t.saturated(2)

    def test_late_first_occurrence(self):
        t = sx.FactorTable("0001", 1)
        assert not t.saturated(1)
        assert (t.frontier, t.saturated_lengths()) == (0, ())

    def test_frontier_is_the_report(self):
        t = sx.FactorTable("0101010101", 3)
        assert t.frontier == 3
        assert t.saturated_lengths() == (1, 2, 3)
        for n in (1, 2, 3):
            assert t.saturated(n) == (n <= t.frontier)


class TestDump:
    def test_golden(self):
        t = sx.FactorTable("0110", 2)
        assert t.dump() == (
            "1\t0\t2\n"
            "1\t1\t2\n"
            "2\t01\t1\n"
            "2\t10\t1\n"
            "2\t11\t1\n"
        )

    def test_lengths_ascend_then_lex(self, tm_table):
        rows = [line.split("\t") for line in tm_table.dump().splitlines()]
        keys = [(int(n), v) for n, v, _ in rows]
        assert keys == sorted(keys)


class TestAgainstBruteForce:
    def test_seeded_random_words(self):
        rng = random.Random(20260810)
        for _ in range(40):
            length = rng.randint(8, 120)
            w = "".join(rng.choice("01") for _ in range(length))
            max_len = min(10, length)
            t = sx.FactorTable(w, max_len)
            for n in range(1, max_len + 1):
                fs = naive.distinct_factors(w, n)
                assert list(t.factors(n)) == fs
                assert t.saturated(n) == naive.saturated(w, n)
                for v in fs:
                    assert t.count(v) == naive.occurrences(w, v)
                    assert t.first_occurrence(v) == w.find(v)
                    assert t.successor(v) == naive.successor(w, v)

    @staticmethod
    def agrees(w, max_len, lengths=None):
        t = sx.FactorTable(w, max_len)
        # Every factor lies in a longest window, so saturating max_len
        # saturates every shorter length.
        if t.saturated(max_len):
            assert len(t.saturated_lengths()) == max_len
        if lengths is None:
            saturated = [n for n in range(1, max_len + 1) if naive.saturated(w, n)]
            assert t.frontier == max(saturated, default=0)
        for n in lengths or range(1, max_len + 1):
            assert list(t.factors(n)) == naive.distinct_factors(w, n)
            assert t.saturated(n) == naive.saturated(w, n)
            for v in t.factors(n):
                assert t.is_factor(v)
                assert t.count(v) == naive.occurrences(w, v)
                assert t.first_occurrence(v) == w.find(v)
                assert t.successor(v) == naive.successor(w, v)

    @given(
        data=st.data(),
        alphabet=st.sampled_from(["0", "01", "012", "0123456789"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_ternary_words(self, data, alphabet):
        # max_len may equal len(w): the longest length then has a single
        # window, and every shorter length gains one window at the tail.
        w = data.draw(st.text(alphabet=alphabet, min_size=1, max_size=60))
        self.agrees(w, data.draw(st.integers(1, len(w))))

    @pytest.mark.parametrize(
        "w,max_len",
        [
            ("0123456789" * 3 + "9876543210", 12),
            ("0" * 40 + "1" + "0" * 30 + "10", 20),
            ("0" * 25 + "9", 26),
            ("0" * 30, 30),
            ("3141592653589793238462643383279", 31),
        ],
        ids=["ten-digits", "leading-zero-runs", "zeros-then-nine", "all-zero", "pi"],
    )
    def test_edge_words(self, w, max_len):
        self.agrees(w, max_len)

    def test_lengths_past_the_int_digit_limit(self):
        # Python limits int(s) to 4300 decimal digits; base 16 has no limit.
        w = "0" * 10 + "01" * 2200
        self.agrees(w, 4400, lengths=(1, 2, 4300, 4301, 4399, 4400))

    def test_long_random_word_builds_quickly(self):
        # The index is near-linear in len(w) * max_len; a quadratic pass over
        # the ~1e5 distinct factors per length would blow far past the bound.
        rng = random.Random(20261018)
        w = "".join(rng.choice("01") for _ in range(100_000))
        start = time.perf_counter()
        t = sx.FactorTable(w, 20)
        took = time.perf_counter() - start
        assert t.complexity(20) == len(naive.distinct_factors(w, 20))
        assert took < 30, f"indexing took {took:.1f} s"
