"""Factor index construction and queries, checked against brute force."""

import random
import threading
import time
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sturmlex as sx
from sturmlex import checks, factors
from sturmlex.errors import BudgetExceeded, MalformedSpec, NotAFactor, WindowTooLarge

import naive
from conftest import (
    TM_SPEC,
    assert_same_text,
    left_special,
    literals,
    neighbour_pairs,
    peak_rss,
    prefix,
)


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

    def test_repr_names_width_and_frontier(self, fib_table):
        assert repr(fib_table) == "FactorTable(|word|=10000, max_len=40, width=2, frontier=40)"
        assert repr(sx.FactorTable("0120", 2)) == (
            "FactorTable(|word|=4, max_len=2, width=4, frontier=0)"
        )

    def test_window_bounds(self):
        with pytest.raises(WindowTooLarge):
            sx.FactorTable("0110", 5)
        with pytest.raises(WindowTooLarge):
            sx.FactorTable("0110", 0)
        with pytest.raises(WindowTooLarge):
            sx.FactorTable("", 1)

    # The error names the least letter that is no ASCII digit.
    @pytest.mark.parametrize(
        "word, bad",
        [("0a1", "a"), ("01A", "A"), ("0z1a", "a"), ("\u06630", "\u0663")],
        ids=["0a1", "01A", "0z1a", "arabic-indic-3"],
    )
    def test_letters_are_digits(self, word, bad):
        with pytest.raises(MalformedSpec, match=f"^word contains {bad!r};"):
            sx.FactorTable(word, 1)

    @pytest.mark.parametrize("size", [30, 200])
    def test_a_certified_table_keeps_its_windows_alone(self, size, monkeypatch):
        # fib's 21 length-20 factors fit in 200 letters, not in 30: a table
        # of its language keeps its 21 windows alone either way, and its p,
        # counted from them or given, is that of the 200 letters.
        word, spec = prefix("fib", size), sx.parse_spec("fib")
        codes, w = factors._language_codes(spec.language(20), 20)
        ref, full = sx.FactorTable(word, 20), sx.FactorTable(prefix("fib", 200), 20)
        built, init = [], factors.FactorTable.__init__
        for exact in (None, [*range(1, 22)]):
            t = sx.FactorTable(word, 20, exact, (codes, len(codes), w))
            assert len(t.codes) == t.p[20] == 21 and set(t.lengths) == {20}
            assert t.p == full.p and t.frontier == 20
            assert ("lcps" in vars(t)) == (exact is None)
            assert all(t.factors(n) == full.factors(n) for n in range(1, 21))
            # Its windows, a set, count no occurrence: the table builds its
            # word's counting table on its first occurrence read and reuses it.
            with monkeypatch.context() as m:
                m.setattr(factors.FactorTable, "__init__",
                          lambda s, *a, **k: built.append(a) or init(s, *a, **k))
                assert_same_text("".join(t.dump()), "".join(ref.dump()))
                assert t.count("0") == naive.occurrences(word, "0") and t.counts == ref.counts
            assert built.pop() == (word, 20) and not built

    def test_complexity_one_counts_letters(self):
        assert sx.FactorTable("0120", 1).complexity(1) == 3

    # int(v, 16) would read each of these as a digit code: " 01" and "0_1"
    # as 001, "\u0663" (an Arabic-Indic three) as 3 and "0a" as 0x0a.
    @pytest.mark.parametrize("v", ["0a", " 01", "0_1", "\u0663"])
    def test_non_digit_queries_are_no_factors(self, v):
        t = sx.FactorTable("00123" * 4, 3)
        assert t.is_factor("001") and t.is_factor("3")
        assert not t.is_factor(v)
        for query in (t.count, t.successor):
            with pytest.raises(NotAFactor):
                query(v)

    # A binary table's codes are base 4, its pad 3: a query with a letter
    # past 1 is no factor, and "13" does not begin the padded suffix "1".
    @pytest.mark.parametrize("v", ["2", "3", "13"])
    def test_letters_past_a_binary_alphabet_are_no_factors(self, v):
        t = sx.FactorTable("0110100110010111", 4)
        assert t.width == 2 and t.is_factor("1") and t.is_factor("111")
        assert not t.is_factor(v)
        with pytest.raises(NotAFactor):
            t.count(v)

    # A wider table's codes are base 16, its pad f: no entry begins with a
    # digit past its greatest letter.
    @pytest.mark.parametrize("v", ["3", "9", "29"])
    def test_digits_past_a_wider_alphabet_are_no_factors(self, v):
        t = sx.FactorTable("0120" * 5, 3)
        assert t.width == 4 and t.is_factor("2") and t.is_factor("200")
        assert not t.is_factor(v)
        with pytest.raises(NotAFactor):
            t.count(v)


class TestTableBudget:
    """TABLE_BUDGET caps a table's entries, its distinct longest windows and
    its short suffixes, at n + 245 bytes each, while the windows are counted."""

    WORD = prefix("fib", 64)
    # 9 distinct windows of 8 letters and 7 short suffixes.
    HELD = (9 + 7) * (8 + 245)

    def test_table_at_the_cap_builds(self, monkeypatch):
        monkeypatch.setattr(factors, "TABLE_BUDGET", self.HELD)
        assert sx.FactorTable(self.WORD, 8).complexity(8) == 9

    def test_one_entry_over_the_cap_raises(self, monkeypatch):
        monkeypatch.setattr(factors, "TABLE_BUDGET", self.HELD - 1)
        message = f"length-8 table entries take more than {self.HELD - 1} bytes"
        with pytest.raises(BudgetExceeded, match=message):
            sx.FactorTable(self.WORD, 8)

    def test_short_suffixes_are_entries(self, monkeypatch):
        # One distinct window, but 1 + 7 entries.
        monkeypatch.setattr(factors, "TABLE_BUDGET", 8 * (8 + 245))
        assert sx.FactorTable("0" * 64, 8).complexity(8) == 1
        monkeypatch.setattr(factors, "TABLE_BUDGET", 8 * (8 + 245) - 1)
        with pytest.raises(BudgetExceeded):
            sx.FactorTable("0" * 64, 8)

    def test_counting_stops_at_the_first_window_past_the_cap(self, monkeypatch):
        monkeypatch.setattr(factors, "TABLE_BUDGET", self.HELD - 1)
        windows = Counter()
        with pytest.raises(BudgetExceeded):
            factors._add_windows(windows, self.WORD, 8, 0, factors._width(self.WORD))
        # The cap is this small, so the chunks are single windows: counting
        # stopped at the ninth distinct one.
        assert len(windows) == 9
        newest = factors.decode(next(reversed(windows)), 8, factors._width(self.WORD))
        assert windows.total() == self.WORD.find(newest) + 1

    def test_counting_stops_at_the_first_chunk_past_the_cap(self, monkeypatch):
        # Chunks of 4 windows, and room for 16 * 4 entries: 57 windows.
        monkeypatch.setattr(factors, "TABLE_BUDGET", 16 * 4 * (8 + 245))
        word = format(random.Random(20261018).getrandbits(1000), "01000b")
        windows = Counter()
        with pytest.raises(BudgetExceeded):
            factors._add_windows(windows, word, 8, 0, factors._width(word))
        assert len(windows) > 57 and windows.total() % 4 == 0
        assert len(naive.distinct_factors(word[: windows.total() + 3], 8)) <= 57


class TestWindowCodes:
    """Window codes come from one int per block of 256 starts; they agree
    with reading each window, and each padded short suffix, on its own, at
    the width of the word's letters and (a binary word) at 4 bits too."""

    WORD = format(random.Random(20261018).getrandbits(1200), "01200b")
    DIGITS = "".join(random.Random(7).choice("0123456789") for _ in range(700))

    @pytest.mark.parametrize(
        "word,n,start,stop",
        [
            (WORD, 7, 3, 700),
            (WORD, 7, 256, 512),
            (WORD, 300, 10, 601),
            (WORD, 1, 0, 1200),
            (WORD, 1200, 0, 1),
            (DIGITS, 11, 255, 690),
            (DIGITS[:50], 5, 0, 46),
            (DIGITS[:50], 50, 0, 1),
        ],
        ids=["off-blocks", "one-block", "n-past-a-block", "n=1", "n=len", "digits",
             "short-word", "short-word-n=len"],
    )
    def test_codes_read_each_window(self, word, n, start, stop):
        for w in {factors._width(word), 4}:
            want = [int(word[i : i + n], 1 << w) for i in range(start, stop)]
            assert list(factors._codes(word, n, start, stop, w)) == want

    @pytest.mark.parametrize("n,counted", [(1, 0), (7, 300), (300, 257), (1200, 0)])
    def test_counts_in_first_occurrence_order(self, n, counted):
        # Counting resumes from the windows of the first ``counted`` starts.
        word, w = self.WORD, factors._width(self.WORD)
        codes = [int(word[i : i + n], 1 << w) for i in range(len(word) - n + 1)]
        windows = Counter(codes[:counted])
        assert factors._add_windows(windows, word, n, counted, w) == len(codes)
        assert list(windows.items()) == list(Counter(codes).items())

    @pytest.mark.parametrize(
        "word,n",
        [(WORD, 1), (WORD, 8), (WORD, 300), (WORD, 1200), ("0120", 9)],
        ids=["n=1", "n=8", "n=300", "n=len", "word-shorter-than-n"],
    )
    def test_short_codes_are_padded_suffixes(self, word, n):
        for w in {factors._width(word), 4}:
            pad = {2: "3", 4: "f"}[w]
            suffixes = (word[-m:] for m in range(min(n - 1, len(word)), 0, -1))
            want = [int(v.ljust(n, pad), 1 << w) for v in suffixes]
            assert list(factors._short_codes(word, n, w)) == want


class TestWidths:
    """A binary word is read 2 bits a letter; relabelled 1 -> 2 it is read 4
    bits a letter.  Both tables describe the same factors, up to the label."""

    RELABEL = str.maketrans("1", "2")

    @given(w=literals(1, 300, alphabets=("01",)), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_binary_and_relabelled_tables_agree(self, w, data):
        assume("1" in w)
        n = data.draw(st.integers(1, min(len(w), 40)))
        t, u = sx.FactorTable(w, n), sx.FactorTable(w.translate(self.RELABEL), n)
        assert (t.width, u.width) == (2, 4)
        for attr in ("lengths", "lcps", "p", "frontier"):
            assert getattr(t, attr) == getattr(u, attr)
        assert neighbour_pairs(t) == neighbour_pairs(u)
        assert [t.counts.get(c, 1) for c in t.codes] == [u.counts.get(c, 1) for c in u.codes]
        for m in range(1, n + 1):
            assert tuple(v.translate(self.RELABEL) for v in t.factors(m)) == u.factors(m)
        nfop = sx.check_nfop(t, 1)
        if nfop.witness is not None:
            nfop = nfop.replace(witness=tuple(v.translate(self.RELABEL) for v in nfop.witness))
        assert nfop == sx.check_nfop(u, 1)


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
    # Left-special factors are read off the factor lists of lengths n and n + 1.
    def test_fibonacci_unique(self, fib_table):
        assert left_special(fib_table, 3) == ["010"]

    def test_periodic_has_none(self, per01_table):
        assert left_special(per01_table, 2) == []

    def test_thue_morse_two_letters(self):
        t = sx.FactorTable("0110100110010110", 2)
        assert left_special(t, 1) == ["0", "1"]

    def test_fibonacci_left_specials_nest(self, fib_table):
        previous = ""
        for n in range(1, 20):
            special = left_special(fib_table, n)
            assert len(special) == 1
            assert special[0].startswith(previous)
            previous = special[0]

    def test_out_of_range(self, fib_table):
        with pytest.raises(ValueError):
            left_special(fib_table, fib_table.max_len)
        with pytest.raises(ValueError):
            left_special(fib_table, 0)


class TestUnbordered:
    @staticmethod
    def unbordered(t, n):
        return [v for v in t.factors(n) if sx.is_unbordered(v)]

    def test_fibonacci(self, fib_table):
        assert self.unbordered(fib_table, 3) == ["001", "100"]
        assert self.unbordered(fib_table, 2) == ["01", "10"]

    def test_square_letter_is_bordered(self, fib_table):
        assert "00" not in self.unbordered(fib_table, 2)

    def test_every_report_is_borderless(self, tm_table):
        for n in range(1, 9):
            for v in self.unbordered(tm_table, n):
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


def oracle_frontier(w, max_len):
    """The largest m <= max_len with lengths 1..m saturated, by the oracle."""
    m = 0
    while m < max_len and naive.saturated(w, m + 1):
        m += 1
    return m


class TestHeuristicFrontier:
    """The half-window frontier of literal windows against the oracle.  The
    table reads the half's windows as the first keys of the window counts,
    which come in order of first occurrence, as many as the read counted
    at the half's edge; the words cover odd lengths, halves too short for
    any window, three letters, windows resumed over doublings and counting
    in chunks of a few windows."""

    @given(chunked=st.booleans(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_frontier_matches_the_oracle(self, chunked, data):
        w = data.draw(literals(1, 64 if chunked else 600))
        max_len = data.draw(st.integers(1, min(len(w), 40)))
        with pytest.MonkeyPatch.context() as mp:
            if chunked:
                # Chunks of at most 4 windows, and room for all len(w) entries.
                chunk = -(-len(w) // 16)
                mp.setattr(factors, "TABLE_BUDGET", 16 * chunk * (max_len + 245))
            assert sx.FactorTable(w, max_len).frontier == oracle_frontier(w, max_len)
            if max_len < len(w):
                prefix_len = data.draw(st.integers(max_len, len(w) - 1))
                t = checks.saturated_table(sx.Literal(w), max_len, prefix_len)
                assert t.frontier == oracle_frontier(t.word, max_len)

    @pytest.mark.parametrize("length", [4095, 4096, 8193])
    def test_dense_literal_frontier(self, length):
        w = format(random.Random(length).getrandbits(length), f"0{length}b")
        assert sx.FactorTable(w, 16).frontier == oracle_frontier(w, 16)


class TestDump:
    def test_golden(self):
        t = sx.FactorTable("0110", 2)
        # One string per length.
        assert list(t.dump()) == [
            "1\t0\t2\n1\t1\t2\n",
            "2\t01\t1\n2\t10\t1\n2\t11\t1\n",
        ]

    def test_lengths_ascend_then_lex(self, tm_table):
        rows = [line.split("\t") for line in "".join(tm_table.dump()).splitlines()]
        keys = [(int(n), v) for n, v, _ in rows]
        assert keys == sorted(keys)

    @staticmethod
    def agrees(t):
        # Lengths ascending, factors in lex order within a length.
        w = t.word
        assert_same_text("".join(t.dump()), "".join(
            f"{n}\t{v}\t{naive.occurrences(w, v)}\n"
            for n in range(1, t.max_len + 1)
            for v in naive.distinct_factors(w, n)
        ))

    @given(
        word=st.sampled_from(["01", "012", "0123456789"]).flatmap(
            lambda letters: st.text(letters, min_size=1, max_size=60)
        ),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, word, data):
        self.agrees(sx.FactorTable(word, data.draw(st.integers(1, len(word)))))

    @pytest.mark.parametrize(
        "text,max_len",
        [
            ("fib", 40),
            ("std:1,9,1,9", 30),
            (TM_SPEC, 12),
            ("ultper:0110|01", 20),
            ("mech:2/7@1/3", 20),
        ],
    )
    def test_certified_tables_match_brute_force(self, text, max_len):
        # The language read kept the p(max_len) distinct windows, a set
        # with no counts; the dump counts the word's windows.
        t = checks.saturated_table(sx.parse_spec(text), max_len, 256)
        probe = set(t._windows)
        assert isinstance(t._windows, set) and len(probe) == t.p[max_len]
        self.agrees(t)
        # They are counted apart: the language's windows stay as built.
        assert t._windows == probe and t.counts is not t._windows


class TestCountsShared:
    def test_a_full_count_is_the_windows(self):
        # A literal's probe counts every window, and so does a table built alone.
        for t in (
            checks.saturated_table(sx.Literal(prefix("fib", 500)), 8, 400),
            sx.FactorTable(prefix("fib", 500), 8),
        ):
            assert t.counts is t._windows
            assert t.count("0") == naive.occurrences(t.word, "0")

    def test_a_certified_probe_is_counted_anew(self):
        # The language read kept a set of the distinct windows, with no counts.
        t = checks.saturated_table(sx.parse_spec("fib"), 40, 256)
        probe = set(t._windows)
        assert isinstance(t._windows, set) and len(probe) == 41
        assert t.count("0") == naive.occurrences(t.word, "0")
        want = {c: naive.occurrences(t.word, factors.decode(c, 40, 2)) for c in t.codes}
        assert t.counts == Counter(want)
        list(t.dump())
        assert t._windows == probe and t.counts is not t._windows

    def test_first_reads_in_parallel(self):
        # Threads that read the counts first, all at once, each see the
        # word's counts: none of them adds the windows left to another's.
        # From Python 3.12 on, cached_property takes no lock.
        t = checks.saturated_table(sx.parse_spec("fib"), 40, 200_000)
        vs = ["0", "1", "0010", "01001"]
        barrier, got = threading.Barrier(len(vs), timeout=60), {}

        def read(v):
            barrier.wait()
            got[v] = t.count(v)

        threads = [threading.Thread(target=read, args=(v,)) for v in vs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert got == {v: naive.occurrences(t.word, v) for v in vs}


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
                assert t.successor(v) == naive.successor(w, v)
        # Each neighbouring pair of saturated factors comes from one tuple.
        width = t.width
        pairs = Counter(
            tuple(factors.decode(t.codes[e] >> width * (max_len - n), n, width) for e in (a, b))
            for lo, a, b in neighbour_pairs(t)
            for n in range(lo, t.frontier + 1)
        )
        lists = [naive.distinct_factors(w, n) for n in range(1, t.frontier + 1)]
        assert pairs == Counter(pair for fs in lists for pair in zip(fs, fs[1:]))

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


class TestBoundedMemory:
    """The index holds about one entry per length on a certified Sturmian
    window (two on one that keeps its short suffixes), so long factors cost
    memory linear in max_len and the window."""

    # The child's peak RSS (measured 15 MB with Python 3.11 on Linux, of
    # which about 14 MB is the bare interpreter; 17 MB while windows were
    # sliced as strings); a per-length factor index peaked at 216 MB here.
    def test_long_sturmian_verdict(self):
        pytest.importorskip("resource")
        job = "import sturmlex as sx; sx.sturmian_verdict(sx.parse_spec('fib'), max_len=1000)"
        code, peak = peak_rss("-c", job, timeout=60)
        assert code == 0
        assert peak < 64, f"peak RSS {peak:.0f} MB"

    # The 3000 + 1 windows of fib at 3000, charged with 2999 short suffixes,
    # are within TABLE_BUDGET, and the certified table indexes the windows
    # alone (measured 18 MB with Python 3.11 on Linux; 21 MB while it kept
    # the suffixes, 26 MB while binary codes took 4 bits a letter, 43 MB
    # while windows were sliced as strings); a per-length index reached
    # 4.8 GB here, and a cap on the factors summed over all lengths made it
    # exit 65.
    def test_fib_at_3000_stays_small(self):
        pytest.importorskip("resource")
        argv = ("-m", "sturmlex", "check", "--spec", "fib", "--what", "sturmian")
        code, peak = peak_rss(*argv, "--max-n", "3000", timeout=30)
        assert code == 0
        assert peak < 128, f"peak RSS {peak:.0f} MB"

    # 3975 is the longest length fib finishes under TABLE_BUDGET (measured
    # 20.5 MB with Python 3.11 on Linux; 25 MB while certified tables kept
    # their short suffixes and fib's complexity was counted from its images,
    # 33 MB while binary codes took 4 bits a letter): windows are codes from
    # the start, never strings, which peaked at 64 MB here.
    def test_fib_at_3975_stays_small(self):
        pytest.importorskip("resource")
        argv = ("-m", "sturmlex", "check", "--spec", "fib", "--what", "sturmian")
        code, peak = peak_rss(*argv, "--max-n", "3975", timeout=30)
        assert code == 0
        assert peak < 28, f"peak RSS {peak:.0f} MB"

    # The distinct 1024-letter windows of a random word pass TABLE_BUDGET
    # after about 25000 of its 2^16 windows, and counting stops there
    # (measured 32 MB with Python 3.11 on Linux, 44 MB while windows were
    # sliced as strings); counting them all before checking a cap peaked at
    # 132 MB.
    def test_table_budget_exit_while_counting(self):
        pytest.importorskip("resource")
        word = format(random.Random(20261018).getrandbits(1 << 16), "065536b")
        argv = ("-m", "sturmlex", "check", "--spec", "literal:" + word, "--what", "sturmian")
        code, peak = peak_rss(*argv, "--max-n", "1024", timeout=30)
        assert code == 65
        assert peak < 64, f"peak RSS {peak:.0f} MB"

    # The table of this morphic word counts the windows of its language
    # under TABLE_BUDGET too, and stops at the cap (measured 29 MB
    # with Python 3.11 on Linux); collecting them all before any table
    # counted peaked at 233 MB.
    def test_exact_complexity_stops_at_the_cap(self):
        pytest.importorskip("resource")
        rules = ",".join(f"{a}->{a}{(a + 1) % 10}" for a in range(10))
        argv = ("-m", "sturmlex", "check", "--spec", f"morphic:{rules};seed=0")
        code, peak = peak_rss(*argv, "--what", "sturmian", "--max-n", "2000", timeout=30)
        assert code == 65
        assert peak < 64, f"peak RSS {peak:.0f} MB"

    # A check of a random 2^21-letter literal, generated in the child: an
    # argv of 2 MB is past the kernel's limit on one argument.
    LITERAL_CHECK = (
        "import random, sys; from sturmlex.cli import main; "
        "word = format(random.Random(20261018).getrandbits(1 << 21), '02097152b'); "
        "sys.exit(main(['check', '--spec', 'literal:' + word, '--what', 'sturmian', "
        "'--max-n', sys.argv[1]]))"
    )

    # Short windows are bounded too: each distinct window costs far more than
    # its letters.  Both exit 65 once about 125000 windows are counted
    # (measured 35 MB with Python 3.11 on Linux, 38 MB while windows were
    # sliced as strings); a cap on window letters alone let N=24 reach
    # 122 MB and N=18 count all 2^18 windows at 97 MB.
    @pytest.mark.parametrize("max_n", ["18", "24"])
    def test_short_windows_of_a_long_literal(self, max_n):
        pytest.importorskip("resource")
        code, peak = peak_rss("-c", self.LITERAL_CHECK, max_n, timeout=60)
        assert code == 65
        assert peak < 64, f"peak RSS {peak:.0f} MB"

    # A mech: prefix is one byte per letter of its period, each from one
    # residue (measured 31 MB with Python 3.11 on Linux); a list of the
    # period's floors as Python ints peaked at 240 MB here.
    def test_long_mechanical_period_generates_small(self):
        pytest.importorskip("resource")
        argv = ("-m", "sturmlex", "generate", "--spec", "mech:2499999/5000000@0")
        code, peak = peak_rss(*argv, "--len", "4194304", timeout=60)
        assert code == 0
        assert peak < 64, f"peak RSS {peak:.0f} MB"

    # The dump is written one length at a time (measured 17 MB with Python
    # 3.11 on Linux); joining all 74 MB of its lines first peaked at 239 MB.
    def test_factor_dump_streams(self):
        pytest.importorskip("resource")
        argv = ("-m", "sturmlex", "factors", "--spec", "fib", "--len", "8192")
        code, peak = peak_rss(*argv, "--max-n", "600", "--dump", timeout=60)
        assert code == 0
        assert peak < 64, f"peak RSS {peak:.0f} MB"
