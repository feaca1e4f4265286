"""Single-property checks, composite verdicts, and the cross-check harness."""

import functools
import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import sturmlex as sx
from sturmlex import checks, factors
from sturmlex.errors import BudgetExceeded, NonBinaryAlphabet, NotImbalanced, WindowTooLarge

import naive
from conftest import DENSE_LITERAL, TM_SPEC, assert_same_text, literals, neighbour_pairs, prefix


# Not primitive (1 never reaches 0): its window follows the half-window rule.
NON_PRIMITIVE = "morphic:0->010,1->11;seed=0"


@pytest.fixture(scope="module")
def ternary_table():
    return sx.FactorTable(prefix("periodic:012", 4096), 12)


class TestCheckBalance:
    def test_thue_morse_empty_core(self, tm_table):
        v = sx.check_balance(tm_table)
        assert v.status == checks.VIOLATED
        assert v.witness == ("00", "11")
        assert v.n == 2

    def test_shifted_fibonacci(self, zerozero_fib_table):
        v = sx.check_balance(zerozero_fib_table)
        assert v.status == checks.VIOLATED
        assert v.witness == ("000", "101")

    def test_fibonacci_consistent(self, fib_table):
        v = sx.check_balance(fib_table)
        assert v.status == checks.CONSISTENT
        assert v.up_to == 38

    def test_agrees_with_naive_oracle(self, tm_table, zerozero_fib_table, fib_table):
        for t in (tm_table, zerozero_fib_table, fib_table):
            status, pair = naive.balance_verdict(t.word, t.max_len)
            v = sx.check_balance(t)
            assert v.status == status
            assert v.witness == pair

    def test_non_binary_rejected(self, ternary_table):
        with pytest.raises(NonBinaryAlphabet):
            sx.check_balance(ternary_table)

    def test_witness_is_minimal(self, zerozero_fib_table):
        w = sx.minimal_imbalance(zerozero_fib_table)
        for shorter in range(len(w.u)):
            for u in ([""] if shorter == 0 else zerozero_fib_table.factors(shorter)):
                both = zerozero_fib_table.is_factor(
                    f"0{u}0"
                ) and zerozero_fib_table.is_factor(f"1{u}1")
                assert not both


class TestClassifyImbalance:
    def test_thue_morse_both_extensions(self, tm_table):
        w = sx.classify_imbalance(tm_table)
        assert w.case == checks.BOTH_EXTENSIONS
        assert w.u == ""

    def test_shifted_fibonacci_prefix_case(self, zerozero_fib_table):
        w = sx.classify_imbalance(zerozero_fib_table)
        assert w.case == checks.PREFIX_CASE
        assert w.prefix_letter == "0"
        assert w.extremal_kind == "min"
        assert w.occurrences == 1
        assert zerozero_fib_table.word.startswith("0" + w.u + "0")

    def test_prefix_case_means_every_prefix_extremal(self, zerozero_fib_table):
        t = zerozero_fib_table
        for n in range(1, t.max_len + 1):
            assert t.word[:n] == t.extremal(n)[0]

    @classmethod
    def begins_with_xux(cls, t) -> bool:
        """Whether the table's word begins with xux, u its minimal imbalance
        and x its first letter; and then, unless 10u0 and 01u1 both occur,
        that every prefix of the window is extremal of the matching kind (the
        theorem in classify_imbalance), asked of the per-length referee."""
        u, x = checks._least_core(t, "0", "1"), t.word[0]
        if u is None or not t.word.startswith(x + u + x):
            return False
        both = len(u) + 3 <= t.max_len and t.is_factor(f"10{u}0") and t.is_factor(f"01{u}1")
        assert both or cls.extremal_by_length(t, "min" if x == "0" else "max"), t
        return True

    @given(
        x=st.sampled_from("01"),
        u=st.text("01", max_size=20),
        tail=st.text("01", max_size=40),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_longer_words_beginning_with_xux_are_classified(self, x, u, tail, data):
        # xux begins the word and yuy, y the other letter, follows, so u is
        # mostly its minimal imbalance, unless a shorter one occurs.
        y = "1" if x == "0" else "0"
        w = (x + u + x + tail + y + u + y)[:40]
        t = sx.FactorTable(w, data.draw(st.integers(min(len(u) + 2, len(w)), len(w))))
        assume(self.begins_with_xux(t))
        assert sx.classify_imbalance(t).case in (checks.BOTH_EXTENSIONS, checks.PREFIX_CASE)

    @staticmethod
    def extremal_by_length(t, kind) -> bool:
        """The referee: every prefix of the window is the least ("min") or
        greatest ("max") factor of its length, asked length by length."""
        pick = 0 if kind == "min" else 1
        return all(t.word[:n] == t.extremal(n)[pick] for n in range(1, t.max_len + 1))

    def test_prefix_case_on_every_short_binary_word(self):
        # Every binary word of 1-10 letters at every max_len: 7102 of the
        # 18434 tables begin with xux, and none of them is WindowIndeterminate.
        tables, cases = 0, Counter()
        for size in range(1, 11):
            for bits in itertools.product("01", repeat=size):
                w = "".join(bits)
                for t in map(functools.partial(sx.FactorTable, w), range(1, size + 1)):
                    tables += 1
                    if self.begins_with_xux(t):
                        cases[sx.classify_imbalance(t).case] += 1
        assert tables == 18434
        assert cases == {checks.BOTH_EXTENSIONS: 3084, checks.PREFIX_CASE: 4018}

    @pytest.mark.parametrize("text,head,both,prefix_case", [
        ("fib", "00", 0, 238),
        ("std:1,9,1,9", "11", 0, 239),
        ("mech:5/13@1/2", "1", 0, 236),
        ("periodic:0010110", "", 238, 1),
        ("morphic:0->0010,1->11;seed=0", "", 238, 1),
        ("mech:5/13@0", "0", 0, 238),
        ("mech:5/13@12/13", "1", 0, 239),
    ])
    def test_prefix_case_on_saturated_tables(self, text, head, both, prefix_case):
        # Certified tables keep no short suffixes; half-window ones do.  A
        # head of one or two letters makes a Sturmian word imbalanced; the
        # last two rotations are the least and the greatest of their word,
        # so a head of 0 and of 1 keeps their prefixes extremal.
        spec, cases = sx.parse_spec(text), Counter()
        for max_len in range(2, 241):
            t = checks.saturated_table(spec, max_len)
            t = sx.FactorTable(head + t.word, max_len) if head else t
            if self.begins_with_xux(t):
                cases[sx.classify_imbalance(t).case] += 1
        assert cases == Counter({checks.BOTH_EXTENSIONS: both, checks.PREFIX_CASE: prefix_case})

    def test_prefix_case_asks_no_length_for_its_extremes(
        self, monkeypatch, zerozero_fib_table, tm_table
    ):
        def refuse(self, n):
            raise AssertionError("classify_imbalance asked extremal")

        monkeypatch.setattr(sx.FactorTable, "extremal", refuse)
        assert sx.classify_imbalance(zerozero_fib_table).case == checks.PREFIX_CASE
        assert sx.classify_imbalance(tm_table).case == checks.BOTH_EXTENSIONS

    def test_balanced_table_raises(self):
        t = sx.FactorTable("0" + prefix("periodic:01", 255), 12)
        with pytest.raises(NotImbalanced):
            sx.classify_imbalance(t)

    def test_window_too_small_to_classify(self):
        # 00 and 11 occur, the word starts 01, and the table is too short to
        # see the three-letter context
        t = sx.FactorTable("010011", 2)
        assert sx.classify_imbalance(t).case == checks.WINDOW_INDETERMINATE

    def test_same_word_with_wider_window_resolves(self):
        t = sx.FactorTable("010011", 3)
        assert sx.classify_imbalance(t).case == checks.BOTH_EXTENSIONS

    # Random words are mostly BothExtensions; a letter or two before a
    # Sturmian prefix (as 00 + fib above) reaches the prefix case.
    @given(
        w=st.one_of(
            st.text("01", min_size=2, max_size=40),
            st.builds(
                lambda head, spec, n: head + prefix(spec, n),
                st.text("01", min_size=1, max_size=2),
                st.sampled_from(["fib", "std:2,1", "std:1,3"]),
                st.integers(1, 38),
            ),
        ),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, w, data):
        max_len = data.draw(st.integers(1, len(w)))
        t, want = sx.FactorTable(w, max_len), naive.classify_imbalance(w, max_len)
        if want is None:
            with pytest.raises(NotImbalanced):
                sx.classify_imbalance(t)
        else:
            got = sx.classify_imbalance(t)
            assert (got.case, got.prefix_letter, got.occurrences, got.extremal_kind) == want


class TestImbalanceLemmas:
    """The facts that classify_imbalance's proof rests on, on every binary
    word of 1-10 letters at every max_len, by brute force alone."""

    @staticmethod
    def shortest_imbalances():
        """(w, max_len, us) for each table, us every shortest u with 0u0 and
        1u1 both among the factors of up to max_len letters (none if balanced)."""
        for size in range(1, 11):
            for bits in itertools.product("01", repeat=size):
                w = "".join(bits)
                for max_len in range(1, size + 1):
                    us = []
                    for m in range(max_len - 1):
                        us = [u for u in naive.distinct_factors(w, m) if f"0{u}0" in w and f"1{u}1" in w]
                        if us:
                            break
                    yield w, max_len, us

    def test_the_shortest_imbalance_is_one_palindrome(self):
        imbalanced = 0
        for w, max_len, us in self.shortest_imbalances():
            if us:
                imbalanced += 1
                assert len(us) == 1 and us[0] == us[0][::-1], (w, max_len, us)
        assert imbalanced == 12812

    def test_a_window_beginning_with_xux_holds_xyuy(self):
        # 01u1 for x = 0, 10u0 for x = 1, once |u| + 3 letters fit.
        seen = 0
        for w, max_len, us in self.shortest_imbalances():
            x = w[0]
            if us and w.startswith(x + us[0] + x) and len(us[0]) + 3 <= max_len:
                seen += 1
                y = "1" if x == "0" else "0"
                assert x + y + us[0] + y in w, (w, max_len)
        assert seen == 6214


class TestCheckNfop:
    def test_fibonacci_consistent(self, fib_table):
        v = sx.check_nfop(fib_table, 3)
        assert v.status == checks.CONSISTENT
        assert v.up_to == 40

    def test_thue_morse_violation(self, tm_table):
        v = sx.check_nfop(tm_table, 3)
        assert (v.status, v.n, v.witness) == (checks.VIOLATED, 3, ("011", "100"))
        assert v.reason == "differ in 3 positions"

    def test_periodic_violation(self, per01_table):
        v = sx.check_nfop(per01_table, 3)
        assert (v.status, v.n, v.witness) == (checks.VIOLATED, 3, ("010", "101"))

    def test_ternary_violates_variant_one(self, ternary_table):
        v = sx.check_nfop(ternary_table, 1)
        assert v.status == checks.VIOLATED
        assert (v.n, v.witness) == (2, ("01", "12"))

    def test_variant_three_needs_binary(self, ternary_table):
        with pytest.raises(NonBinaryAlphabet, match="variant 3 needs letters"):
            sx.check_nfop(ternary_table, 3)

    def test_bad_variant(self, fib_table):
        with pytest.raises(ValueError):
            sx.check_nfop(fib_table, 4)

    def test_unsaturated_lengths_give_indeterminate(self):
        v = sx.check_nfop(sx.FactorTable("01", 2))
        assert v.status == checks.INDETERMINATE
        assert "unsaturated" in v.reason

    def test_matches_naive_oracle_on_fixed_words(
        self, tm_table, per01_table, zerozero_fib_table
    ):
        for t in (tm_table, per01_table, zerozero_fib_table):
            got = sx.check_nfop(t, 3)
            status, n, pair = naive.nfop_verdict(t.word, t.max_len, 3)
            assert (got.status, got.n, got.witness) == (status, n, pair)

    def test_structured_witness(self, tm_table):
        hit = sx.check_nfop(tm_table, 3)
        assert (hit.n, hit.witness, hit.reason) == (3, ("011", "100"), "differ in 3 positions")
        clean = sx.check_nfop(sx.FactorTable(prefix("fib", 4096), 12))
        assert (clean.n, clean.witness, clean.reason) == (None, None, None)

    @pytest.mark.parametrize("text,max_len,variant", [
        (TM_SPEC, 12, 3),
        ("mech:2/5@0", 12, 3),
        ("periodic:012", 12, 1),
    ])
    def test_reason_is_the_witness_shape(self, text, max_len, variant):
        # The verdict alone carries the witness: a sorted adjacent pair of
        # n-letter factors, with the oracle's reason for that pair.
        t = sx.FactorTable(prefix(text, 4096), max_len)
        hit = sx.check_nfop(t, variant)
        v, vp = hit.witness
        assert hit.status == checks.VIOLATED
        assert len(v) == len(vp) == hit.n and v < vp
        fs = list(t.factors(hit.n))
        assert fs.index(vp) == fs.index(v) + 1
        assert hit.reason == naive.nfop_reason(v, vp, variant)


class TestCheckHamming2:
    def test_fibonacci(self, fib_table):
        assert sx.check_hamming2(fib_table).status == checks.CONSISTENT

    def test_zero_one_tail(self, ult01_table):
        v = sx.check_hamming2(ult01_table)
        assert v.status == checks.CONSISTENT
        # adjacent factors 01^(n-1) and 1^n really differ in one position
        for n in range(1, 31):
            fs = ult01_table.factors(n)
            assert len(fs) <= 2
            if len(fs) == 2:
                assert naive.hamming(fs[0], fs[1]) == 1

    def test_periodic_violation(self, per01_table):
        v = sx.check_hamming2(per01_table)
        assert (v.status, v.n, v.witness) == (checks.VIOLATED, 3, ("010", "101"))

    def test_non_binary_rejected(self, ternary_table):
        with pytest.raises(NonBinaryAlphabet):
            sx.check_hamming2(ternary_table)


class TestCheckOnesMonotone:
    def test_fibonacci(self, fib_table):
        assert sx.check_ones_monotone(fib_table).status == checks.CONSISTENT

    def test_shifted_fibonacci(self, zerozero_fib_table):
        v = sx.check_ones_monotone(zerozero_fib_table)
        assert v.status == checks.CONSISTENT
        assert v.up_to == 30

    def test_thue_morse_descent(self, tm_table):
        v = sx.check_ones_monotone(tm_table)
        assert (v.status, v.n, v.witness) == (checks.VIOLATED, 3, ("011", "100"))


class TestPeriodicityCertificate:
    def test_periodic(self, per01_table):
        v = sx.periodicity_certificate(per01_table)
        assert (v.status, v.n) == (checks.ULTIMATELY_PERIODIC, 2)

    def test_fibonacci(self, fib_table):
        v = sx.periodicity_certificate(fib_table)
        assert (v.status, v.up_to) == (checks.APPARENTLY_APERIODIC, 40)
        for n in range(1, 41):
            assert fib_table.complexity(n) == n + 1

    def test_constant_word(self):
        v = sx.periodicity_certificate(sx.FactorTable("0" * 64, 5))
        assert (v.status, v.n) == (checks.ULTIMATELY_PERIODIC, 1)

    @pytest.mark.parametrize(
        "text,max_len,top",
        # (0^999 1)^w has one factor per length in 256 letters, not n + 1;
        # std:1,9,1,9 has its first 49 lengths there.
        [("mech:1/1000@0", 40, 0), ("std:1,9,1,9", 60, 49)],
    )
    def test_unsaturated_lengths_are_indeterminate(self, monkeypatch, text, max_len, top):
        # With no saturated length at or below which p(n) <= n, the lengths
        # above the frontier decide nothing, as in the pair checks.
        monkeypatch.setattr(checks, "PREFIX_BUDGET", 256)
        t = checks.saturated_table(sx.parse_spec(text), max_len, 64)
        assert t.frontier == top
        v = sx.periodicity_certificate(t)
        skipped = ",".join(map(str, range(top + 1, max_len + 1)))
        assert (v.status, v.up_to, v.reason) == (
            checks.INDETERMINATE, None, f"unsaturated lengths {skipped}")
        assert v == checks._adjacent_faults(t, ("nfop",))[0].replace(check="complexity")


class TestRecurrenceHeuristic:
    FINITE = "a finite word is a prefix of a recurrent word"

    def test_bare_tables_are_indeterminate(self, ult01_table, per01_table, zerozero_fib_table):
        # No spec, no flags: a window alone decides nothing about recurrence.
        for t in (ult01_table, per01_table, zerozero_fib_table):
            v = sx.recurrence_heuristic(t)
            assert (v.status, v.witness, v.reason) == (checks.INDETERMINATE, None, self.FINITE)
            assert v.saturated_lengths == t.saturated_lengths()

    def test_a_priori_recurrent(self, zerozero_fib_table):
        v = sx.recurrence_heuristic(zerozero_fib_table, sx.KnownFlags(True, None))
        assert (v.status, v.up_to, v.reason) == (
            checks.RECURRENT_CONSISTENT, 30, "a-priori recurrent")

    @pytest.mark.parametrize("once", [1, 3, 30, 31, None])
    def test_a_priori_non_recurrent_names_the_prefix(self, zerozero_fib_table, once):
        # Named only when it is given and has at most max_len (30) letters.
        v = sx.recurrence_heuristic(zerozero_fib_table, sx.KnownFlags(False, True, once))
        assert (v.status, v.reason) == (checks.NON_RECURRENT, "a-priori non-recurrent")
        named = once is not None and once <= 30
        want = ((zerozero_fib_table.word[:once],), once) if named else (None, None)
        assert (v.witness, v.n) == want

    @pytest.mark.parametrize(
        "text,max_len,want",
        [
            ("ultper:0110|01", 40, ("011",)),
            ("ultper:0|1", 10, ("0",)),
            ("morphic:0->01,1->1;seed=0", 12, ("0",)),
            # Its shortest prefix that occurs once has 44 letters.
            ("ultper:" + "0" * 43 + "1|0", 40, None),
            ("ultper:" + "0" * 43 + "1|0", 44, ("0" * 43 + "1",)),
        ],
    )
    def test_verdict_reads_the_spec(self, text, max_len, want):
        v = sx.sturmian_verdict(sx.parse_spec(text), max_len=max_len).verdict("recurrence")
        assert (v.status, v.witness) == (checks.NON_RECURRENT, want)

    def test_every_short_literal_is_indeterminate(self):
        # Every binary word of 1-12 letters, at every max-n, on the table that
        # sturmian_verdict builds: a literal never gets a witness, as w is a
        # prefix of the recurrent word w^w.
        seen = Counter()
        for size in range(1, 13):
            for bits in itertools.product("01", repeat=size):
                spec = sx.Literal("".join(bits))
                for max_len in range(1, size + 1):
                    t = checks.saturated_table(spec, max_len)
                    v = sx.recurrence_heuristic(t, spec.flags)
                    seen[v.status, v.witness, v.reason] += 1
        assert seen == {(checks.INDETERMINATE, None, self.FINITE): 90114}


def count_slices(monkeypatch) -> tuple[Counter, list[int]]:
    """(starts, sizes), filled in as windows are read: how often each window
    start is sliced, and the length of each word read."""
    sliced, sizes = Counter(), []

    def slicing(windows, word, n, start, full, w, edges=(), _original=factors._add_windows):
        sizes.append(len(word))
        stop = _original(windows, word, n, start, full, w, edges)
        sliced.update(range(start, stop))
        return stop

    monkeypatch.setattr(factors, "_add_windows", slicing)
    return sliced, sizes


class TestSaturatedTable:
    def test_default_policy(self):
        t = checks.saturated_table(sx.parse_spec("fib"), 40)
        assert len(t.word) == checks.default_prefix_length(40) == 4096
        assert len(t.saturated_lengths()) == 40

    @pytest.mark.parametrize(
        "text,max_len,prefix_len",
        [
            ("std:1,9,1,9", 240, 1024),  # certified by its exact complexity
            (NON_PRIMITIVE, 8, 16),  # half-window heuristic
        ],
    )
    def test_doubles_until_saturated(self, text, max_len, prefix_len):
        t = checks.saturated_table(sx.parse_spec(text), max_len, prefix_len)
        assert len(t.word) > prefix_len
        assert len(t.saturated_lengths()) == max_len

    def test_literal_capped_at_its_length(self):
        t = checks.saturated_table(sx.Literal("01" * 8), 4)
        assert t.word == "01" * 8

    def test_budget_request_rejected(self):
        with pytest.raises(BudgetExceeded):
            checks.saturated_table(sx.parse_spec("fib"), 8, prefix_len=checks.PREFIX_BUDGET + 1)

    @pytest.mark.parametrize("max_len", [0, -1])
    @pytest.mark.parametrize(
        "text", ["literal:0100101", "periodic:01", "ultper:0|1", "fib", "std:1,2", "mech:3/8@0"]
    )
    @pytest.mark.parametrize(
        "entry",
        [
            checks.saturated_table,
            lambda spec, n: sx.sturmian_verdict(spec, max_len=n),
            lambda spec, n: sx.equivalence_harness([spec], n),
        ],
        ids=["saturated_table", "sturmian_verdict", "equivalence_harness"],
    )
    def test_nonpositive_max_len_is_too_large_a_window(self, monkeypatch, entry, text, max_len):
        # Refused before any prefix is generated or counted.
        spec = sx.parse_spec(text)
        monkeypatch.setattr(type(spec), "complexities", lambda *args: pytest.fail("counted"))
        monkeypatch.setattr(checks, "generate_prefix", lambda *args: pytest.fail("generated"))
        with pytest.raises(WindowTooLarge, match=f"need max_len >= 1, got {max_len}"):
            entry(spec, max_len)

    def test_max_len_beyond_budget_rejected(self):
        # The window must hold max_len letters, so a short prefix_len is no way
        # round the budget.
        with pytest.raises(BudgetExceeded):
            checks.saturated_table(
                sx.parse_spec("fib"), checks.PREFIX_BUDGET + 1, prefix_len=1
            )

    def test_a_prefix_gaining_a_letter_counts_anew(self, monkeypatch):
        # The windows of 1024 and 2048 letters are binary, 2 bits a letter;
        # that of 4096 holds a 2, 4 bits a letter, so the probe re-keys the
        # windows it has counted rather than mix the widths or read their
        # starts again.
        rng = random.Random(20261019)
        word = format(rng.getrandbits(3000), "03000b") + "2"
        word += "".join(rng.choice("012") for _ in range(3000))
        spec = sx.Literal(word)
        sliced, sizes = count_slices(monkeypatch)
        t = checks.saturated_table(spec, 16, 1024)
        assert sizes == [1024, 2048, 4096, len(word)]
        assert sliced == Counter(range(len(word) - 16 + 1))
        monkeypatch.undo()
        ref = sx.FactorTable(t.word, 16)
        assert t.word == word and t.width == ref.width == 4
        assert (t.codes, t.frontier, t.counts) == (ref.codes, ref.frontier, ref.counts)
        assert list(t.counts) == list(ref.counts)  # in order of first occurrence
        assert checks._battery(t) == checks._battery(ref)
        recurrence = [checks.recurrence_heuristic(x, spec.flags) for x in (t, ref)]
        assert recurrence[0] == recurrence[1]

    @pytest.mark.parametrize(
        "text,max_len,prefix_len",
        [("literal:" + DENSE_LITERAL, 16, 1024), ("std:3,2000000,1", 240, None)],
        ids=["dense-literal", "std-3-2000000-1"],
    )
    def test_each_letter_is_checked_once(self, monkeypatch, text, max_len, prefix_len):
        # Each candidate checks its new letters alone, and the table takes
        # its width from the probe, with no check of its own.
        checked = []

        def checking(word, _original=factors._width):
            checked.append(len(word))
            return _original(word)

        monkeypatch.setattr(factors, "_width", checking)
        _, sizes = count_slices(monkeypatch)
        t = checks.saturated_table(sx.parse_spec(text), max_len, prefix_len)
        assert len(sizes) > 2 and sizes[-1] == len(t.word)
        assert checked == [b - a for a, b in zip([0, *sizes], sizes)]

    def test_a_width_of_4_outlives_binary_letters(self):
        # The first candidate holds a 2, the later ones add only 0s and 1s:
        # the probe keeps 4 bits a letter.
        bits = format(random.Random(20261019).getrandbits(3000), "03000b")
        t = checks.saturated_table(sx.Literal("2" + bits), 16, 1024)
        ref = sx.FactorTable(t.word, 16)
        assert len(t.word) > 2048 and t.width == ref.width == 4
        assert (t.codes, t.frontier, t.counts) == (ref.codes, ref.frontier, ref.counts)

    # The starts up to the window that completes each count of p(240) = 241
    # windows, on the harness-tall specs at prefix_len 1024.
    COMPLETING = {"fib": 377, "std:2,1": 571, "std:1,9,1,9": 2269, "std:3": 469, "std:1,2,3": 266}

    def test_a_count_stops_at_its_certificate(self, monkeypatch):
        # A certified probe reads chunks of at most the windows still
        # missing, and at least 64, so it reads fewer than 64 starts past
        # the window that completes its count; a jump over a repeated
        # stretch never passes that window, which occurs nowhere before.
        sliced, _ = count_slices(monkeypatch)
        for text, needed in self.COMPLETING.items():
            sliced.clear()
            t = checks.saturated_table(sx.parse_spec(text), 240, 1024)
            newest = max(map(t.word.find, naive.distinct_factors(t.word, 240)))
            assert newest + 1 == needed
            assert sliced == Counter(range(len(sliced)))
            assert needed <= len(sliced) < needed + 64
            # It stopped early; the counts are the word's all the same.
            assert len(sliced) < len(t.word) - 240 + 1
            want = {c: naive.occurrences(t.word, factors.decode(c, 240, 2)) for c in t.codes}
            assert t.counts == Counter(want)

    def test_certified_probes_jump_over_repeats(self, monkeypatch):
        # A chunk that adds no window is followed by a jump over the stretch
        # that repeats letters before it: the five probes read 1979 starts,
        # 497 of them for std:1,9,1,9, where reading every start up to the
        # count read 4187, 2321 for std:1,9,1,9.
        read = []

        def reading(word, n, start, stop, w, _original=factors._codes):
            read.append(stop - start)
            return _original(word, n, start, stop, w)

        monkeypatch.setattr(factors, "_codes", reading)
        sizes = [len(checks.saturated_table(sx.parse_spec(text), 240, 1024).word)
                 for text in self.COMPLETING]
        assert sizes == [1024, 1024, 4096, 1024, 1024]
        assert sum(read) < 2200

    @pytest.mark.parametrize("pre", ["0" * 2000 + "1", prefix("fib", 2001)], ids=["zeros", "fib"])
    def test_a_certified_probe_gaining_a_letter_rekeys_its_set(self, monkeypatch, pre):
        # The 1024-letter window is binary, 2 bits a letter; the 2048-letter
        # one holds a 2, 4 bits a letter, and every factor.
        spec = sx.UltimatelyPeriodic(pre, "2")
        exact = spec.complexities(16)
        # The exact complexity is counted first, apart from the window's.
        monkeypatch.setattr(sx.UltimatelyPeriodic, "complexities", lambda self, n: exact)
        sliced, sizes = count_slices(monkeypatch)
        t = checks.saturated_table(spec, 16, 1024)
        assert sizes == [1024, 2048] and sliced == Counter(range(len(sliced)))
        monkeypatch.undo()
        ref = sx.FactorTable(t.word, 16, exact=exact)
        assert isinstance(t._windows, set) and t.width == ref.width == 4
        assert (t.codes, t.lcps, t.p, t.frontier) == (ref.codes, ref.lcps, ref.p, ref.frontier)
        assert t.frontier == 16
        want = {c: naive.occurrences(t.word, factors.decode(c, 16, 4)) for c in t.codes}
        assert t.counts == Counter(want)
        report = sx.sturmian_verdict(spec, prefix_len=1024, max_len=16).to_json()
        monkeypatch.setattr(checks, "saturated_table", lambda *args: ref)
        assert sx.sturmian_verdict(spec, prefix_len=1024, max_len=16).to_json() == report

    # (spec, max_len, prefix_len); std:1,9,1,9 at 240/1024 and the
    # non-primitive morphic word at 8/16 double before they saturate, the
    # first by its exact complexity, the second by the half-window rule.
    WINDOWS = [
        ("fib", 10, 32),
        ("fib", 40, None),
        ("std:1,9,1,9", 240, 1024),
        (TM_SPEC, 12, 16),
        ("periodic:0010110", 20, 8),
        ("morphic:0->012,1->02,2->1;seed=0", 30, 64),
        (NON_PRIMITIVE, 8, 16),
        ("literal:" + "0110" * 10, 8, 4),
        ("literal:" + "0110" * 10, 30, None),
    ]

    @pytest.mark.parametrize("text,max_len,prefix_len", WINDOWS)
    def test_same_window_as_full_tables(self, text, max_len, prefix_len):
        spec = sx.parse_spec(text)
        target = max(prefix_len or checks.default_prefix_length(max_len), max_len)
        cap = len(spec.word) if isinstance(spec, sx.Literal) else checks.PREFIX_BUDGET
        # The reference indexes every candidate window in full.  A kind that
        # knows its language stops at the first window with every
        # length-max_len factor of a 2^16-letter prefix; the others stop at
        # the first whose newest factor fits in the first half.
        certified = spec.complexities(max_len) is not None
        if certified:
            full = len(naive.distinct_factors(sx.generate_prefix(spec, 1 << 16), max_len))
        while True:
            length = min(target, cap)
            ref = sx.FactorTable(sx.generate_prefix(spec, length), max_len)
            done = ref.complexity(max_len) == full if certified else ref.saturated(max_len)
            if length >= cap or done:
                break
            target *= 2
        t = checks.saturated_table(spec, max_len, prefix_len)
        assert t.word == ref.word
        assert t.frontier == (max_len if certified else ref.frontier)
        assert_same_text("".join(t.dump()), "".join(ref.dump()))

    @pytest.mark.parametrize("text,max_len,prefix_len", WINDOWS)
    def test_one_index_per_window(self, monkeypatch, text, max_len, prefix_len):
        builds = []

        def build(word, *args):
            builds.append(len(word))
            return factors.FactorTable(word, *args)

        spec = sx.parse_spec(text)
        # The eventually periodic kinds count windows for their exact
        # complexity too; that count is taken first, apart from the window's.
        exact = spec.complexities(max_len)
        monkeypatch.setattr(type(spec), "complexities", lambda self, n: exact)
        monkeypatch.setattr(checks, "FactorTable", build)
        sliced, sizes = count_slices(monkeypatch)
        t = checks.saturated_table(spec, max_len, prefix_len)
        assert builds == [len(t.word)]
        # Over all candidate windows, each window start is sliced at most
        # once and the sliced starts are 0..k.  The half-window rule slices
        # every start of the kept window; a count stops once it has them all.
        assert sliced == Counter(range(len(sliced)))
        starts = len(t.word) - max_len + 1
        if exact is None:
            assert len(sliced) == starts
        if (text, max_len) == ("fib", 40):
            assert len(sliced) < starts
        assert sizes[-1] == len(t.word)
        if (text, max_len) in (("std:1,9,1,9", 240), (NON_PRIMITIVE, 8)):
            assert len(sizes) > 1

    @given(
        w=st.text(alphabet="012", min_size=2, max_size=80),
        spec=st.sampled_from(["fib", TM_SPEC, "std:1,9,1,9", "ultper:0110|01"]),
        size=st.integers(2, 200),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_saturation_is_monotone(self, w, spec, size, data):
        # The window probe decides on the longest length alone, and a table
        # keeps only its frontier, because saturated(n) implies saturated(n-1).
        for word in (w, prefix(spec, size)):
            for n in range(2, data.draw(st.integers(1, len(word))) + 1):
                assert not naive.saturated(word, n) or naive.saturated(word, n - 1)


class TestProbeHalfCount:
    """The half-window probe's count at each candidate's half edge, against
    the oracle: it is the number of distinct windows in the first half, and
    they are every window exactly when the candidate is saturated.  The
    words cover doubled rounds, a capped last round whose edge lies inside
    an earlier round, halves too short for any window and a word that gains
    a 2 late, whose windows so far are re-keyed."""

    DENSE = format(random.Random(29).getrandbits(6000), "06000b")

    @staticmethod
    def rounds(word: str, max_len: int, prefix_len: int) -> list[int]:
        """The length of each candidate the probe read, after checking each."""
        read = []

        def reading(windows, word, n, start, full, w, edges=(), _original=factors._add_windows):
            stop = _original(windows, word, n, start, full, w, edges)
            read.append((word, edges[max(0, len(word) // 2 - n + 1)], len(windows)))
            return stop

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(factors, "_add_windows", reading)
            t = checks.saturated_table(sx.Literal(word), max_len, prefix_len)
        assert [len(v) for v, _, _ in read] == [
            min(prefix_len << k, len(word)) for k in range(len(read))
        ]
        for k, (v, early, total) in enumerate(read):
            assert early == len(naive.distinct_factors(v[: len(v) // 2], max_len))
            assert total == len(naive.distinct_factors(v, max_len))
            assert (early == total) == naive.saturated(v, max_len)
            # The probe stops at the first saturated candidate, or at the end.
            stops = naive.saturated(v, max_len) or len(v) == len(word)
            assert stops == (k == len(read) - 1)
        assert t.word == read[-1][0]
        return [len(v) for v, _, _ in read]

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_counts_match_the_oracle(self, data):
        w = data.draw(literals(2, 400))
        max_len = data.draw(st.integers(1, min(len(w) - 1, 30)))
        self.rounds(w, max_len, data.draw(st.integers(max_len, len(w) - 1)))

    def test_a_capped_edge_inside_a_doubled_round(self):
        # The last round's edge, 3000 - 16 + 1, lies in the 4096-letter
        # round's read, which starts at its own edge, 2048 - 16 + 1.
        assert self.rounds(self.DENSE, 16, 1024) == [1024, 2048, 4096, 6000]

    def test_a_capped_edge_inside_the_first_round(self):
        # Both edges, 512 - 16 + 1 and 750 - 16 + 1, lie in the first read.
        assert self.rounds(self.DENSE[:1500], 16, 1024) == [1024, 1500]

    def test_halves_too_short_for_any_window(self):
        # Both halves, of 15 and 20 letters, hold no 30-letter window.
        assert self.rounds(self.DENSE[:40], 30, 30) == [30, 40]

    def test_a_word_gaining_a_2_late(self):
        # The 4096-letter round is the first with a 2, read 4 bits a letter.
        rng = random.Random(29)
        word = self.DENSE[:3000] + "2" + "".join(rng.choice("012") for _ in range(3000))
        assert self.rounds(word, 16, 1024) == [1024, 2048, 4096, 6001]


@functools.lru_cache(maxsize=None)
def long_prefix(text):
    return sx.generate_prefix(sx.parse_spec(text), 1 << 16)


class TestCertifiedSaturation:
    """Windows of the kinds that know their exact complexity."""

    CERTIFIED = [
        "fib",
        TM_SPEC,
        "morphic:0->012,1->02,2->1;seed=0",
        "morphic:0->001,1->0;seed=0",
        "std:1,9,1,9",
        "std:2,1",
        "std:1,2,3",
        "periodic:0010110",
        "ultper:0110|01",
        "mech:2/7@1/3",
        "mech:5/13@1/2",
    ]

    @given(
        text=st.sampled_from(CERTIFIED),
        max_len=st.integers(1, 60),
        cap=st.sampled_from([None, 256]),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_certified_lengths_hold_every_factor(self, text, max_len, cap, data):
        prefix_len = data.draw(st.integers(max_len, 256))
        with pytest.MonkeyPatch.context() as mp:
            if cap is not None:
                # A cap stops growth, so the frontier can fall short of max_len.
                mp.setattr(checks, "PREFIX_BUDGET", cap)
            t = checks.saturated_table(sx.parse_spec(text), max_len, prefix_len)
        w = long_prefix(text)
        for n in {t.frontier, data.draw(st.integers(0, t.frontier))} - {0}:
            assert t.factors(n) == tuple(naive.distinct_factors(w, n))
        # The frontier is the longest length the window has complete.
        if t.frontier < max_len:
            n = t.frontier + 1
            assert len(t.factors(n)) < len(naive.distinct_factors(w, n))

    @given(
        spec=st.one_of(
            st.lists(st.integers(1, 9), min_size=1, max_size=4).map(
                lambda d: sx.StandardSequence(tuple(d))),
            st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(0, 5)).filter(
                lambda t: math.gcd(t[0], t[1]) == 1).map(
                lambda t: sx.MechanicalRational(t[0], t[1], Fraction(t[2], 6))),
            st.text("012", min_size=1, max_size=9).map(sx.Periodic),
            st.tuples(st.text("01", max_size=9), st.text("01", min_size=1, max_size=6)).map(
                lambda t: sx.UltimatelyPeriodic(*t)),
            # Primitive substitutions on 01, Sturmian and not, and one on 012.
            st.tuples(st.text("01", min_size=1, max_size=4), st.text("01", min_size=1, max_size=4))
            .map(lambda ab: {"0": "0" + ab[0], "1": ab[1]})
            .filter(sx.words._is_primitive)
            .map(lambda rules: sx.Morphic(rules, "0")),
            st.just(sx.parse_spec("morphic:0->012,1->02,2->1;seed=0")),
        ),
        max_len=st.integers(1, 40),
        cap=st.sampled_from([None, 256]),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_windows_only_tables_read_as_full_ones(self, spec, max_len, cap, data):
        # A certified table indexes its windows alone; one that keeps its
        # short suffixes, given the same frontier, answers every reader alike.
        prefix_len = data.draw(st.integers(max_len, 256))
        exact = spec.complexities(max_len)
        with pytest.MonkeyPatch.context() as mp:
            if cap is not None:
                # A cap can stop the window before it holds every factor.
                mp.setattr(checks, "PREFIX_BUDGET", cap)
            t = checks.saturated_table(spec, max_len, prefix_len)
        ref = sx.FactorTable(t.word, max_len)
        certified = len(t._windows) == exact[max_len]
        assert len(t.codes) == (t.p[max_len] if certified else len(ref.codes))
        assert t.p == ref.p
        top = t.frontier
        assert top == next((n for n in range(max_len, 0, -1) if t.p[n] == exact[n]), 0)
        for n in {1, max_len, data.draw(st.integers(1, max_len))}:
            assert t.factors(n) == ref.factors(n)
            assert [*map(t.count, t.factors(n))] == [*map(ref.count, ref.factors(n))]
        assert_same_text("".join(t.dump()), "".join(ref.dump()))
        # The readers of the frontier, against the oracle at the same one.
        def text(k, n):
            return factors.decode(t.codes[k] >> t.width * (max_len - n), n, t.width)

        pairs = [
            (n, text(a, n), text(b, n))
            for lo, a, b in neighbour_pairs(t)
            for n in range(lo, top + 1)
        ]
        fs = [naive.distinct_factors(t.word, n) for n in range(1, top + 1)]
        assert sorted(pairs) == [(n, *p) for n, f in enumerate(fs, 1) for p in zip(f, f[1:])]
        battery, recurrence = oracle_battery(t.word, max_len, top, spec)
        assert checks._battery(t) == battery
        assert checks.recurrence_heuristic(t, spec.flags) == recurrence
        for heads in (("0", "1"), ("10", "01")):
            assert checks._least_core(t, *heads) == checks._least_core(ref, *heads)

    @staticmethod
    def read_every_start(windows, word, n, start, full, w, edges=(), _original=factors._add_windows):
        """A certified probe's read without chunks or jumps: each start in
        turn, sliced, until the set holds ``full`` windows.  A read without
        ``full``, of a spec's own pieces for its exact complexity, is passed on."""
        if full is None:
            return _original(windows, word, n, start, full, w, edges)
        assert isinstance(windows, set) and not edges
        while start < len(word) - n + 1 and len(windows) < full:
            windows.add(int(word[start : start + n], 1 << w))
            start += 1
        return start

    @given(
        spec=st.one_of(
            st.lists(st.integers(1, 60), min_size=1, max_size=4).map(
                lambda d: sx.StandardSequence(tuple(d))),
            st.tuples(st.integers(0, 300), st.integers(1, 300), st.integers(0, 5)).filter(
                lambda t: math.gcd(t[0], t[1]) == 1).map(
                lambda t: sx.MechanicalRational(t[0], t[1], Fraction(t[2], 6))),
            st.text("012", min_size=1, max_size=40).map(sx.Periodic),
            st.tuples(st.text("01", max_size=40), st.text("01", min_size=1, max_size=20)).map(
                lambda t: sx.UltimatelyPeriodic(*t)),
            st.sampled_from([TM_SPEC, "morphic:0->012,1->02,2->1;seed=0"]).map(sx.parse_spec),
        ),
        max_len=st.integers(1, 240),
        prefix_len=st.integers(1, 2048),
        cap=st.sampled_from([None, 256, 4096]),
    )
    @example(spec=sx.parse_spec("fib"), max_len=240, prefix_len=1024, cap=None)
    @example(spec=sx.parse_spec("std:2,1"), max_len=240, prefix_len=1024, cap=None)
    @example(spec=sx.parse_spec("std:1,9,1,9"), max_len=240, prefix_len=1024, cap=None)
    @example(spec=sx.parse_spec("std:3"), max_len=240, prefix_len=1024, cap=None)
    @example(spec=sx.parse_spec("std:1,2,3"), max_len=240, prefix_len=1024, cap=None)
    @example(spec=sx.parse_spec("std:3,2000000,1"), max_len=240, prefix_len=1024, cap=1 << 16)
    # A chunk that adds no window ends right before a new one.
    @example(spec=sx.parse_spec(TM_SPEC), max_len=132, prefix_len=2032, cap=None)
    @example(spec=sx.parse_spec("std:58,8,41,42"), max_len=196, prefix_len=960, cap=None)
    @settings(max_examples=100, deadline=None)
    def test_jumps_read_as_every_start(self, spec, max_len, prefix_len, cap):
        # A probe that jumps over repeated stretches keeps the window, the
        # distinct windows and every verdict of one that reads every start.
        with pytest.MonkeyPatch.context() as mp:
            if cap is not None:
                mp.setattr(checks, "PREFIX_BUDGET", cap)
                prefix_len = min(prefix_len, cap)
            t = checks.saturated_table(spec, max_len, prefix_len)
            mp.setattr(factors, "_add_windows", self.read_every_start)
            ref = checks.saturated_table(spec, max_len, prefix_len)
        assert (t.word, t._windows, t.frontier) == (ref.word, ref._windows, ref.frontier)
        assert checks._battery(t) == checks._battery(ref)
        recurrence = [checks.recurrence_heuristic(x, spec.flags) for x in (t, ref)]
        assert recurrence[0] == recurrence[1]

    def test_capped_window_certifies_the_lengths_it_has(self, monkeypatch):
        monkeypatch.setattr(checks, "PREFIX_BUDGET", 256)
        spec = sx.parse_spec("std:1,9,1,9")
        t = checks.saturated_table(spec, 60, 64)
        assert len(t.word) == 256
        assert t.frontier == max(n for n in range(1, 61) if len(t.factors(n)) == n + 1)
        assert 0 < t.frontier < 60
        r = sx.sturmian_verdict(spec, prefix_len=64, max_len=60)
        assert r.combined.status == checks.INDETERMINATE
        # The harness demands no agreement of verdicts cut short by the cap.
        report = sx.equivalence_harness([spec], 60, prefix_len=64)
        byname = {o.assertion: o for o in report.outcomes}
        agreement = byname["recurrent-aperiodic-agreement"]
        assert (agreement.result, agreement.detail) == ("skip", "indeterminate")

    @given(
        directive=st.lists(st.integers(1, 9), min_size=1, max_size=4),
        max_len=st.integers(1, 120),
        prefix_len=st.integers(1, 512),
    )
    @settings(max_examples=60, deadline=None)
    def test_std_has_n_plus_1_factors_at_saturated_lengths(
        self, directive, max_len, prefix_len
    ):
        spec = sx.StandardSequence(tuple(directive))
        t = checks.saturated_table(spec, max_len, prefix_len)
        assert t.frontier == max_len
        assert [t.complexity(n) for n in t.saturated_lengths()] == [
            n + 1 for n in t.saturated_lengths()
        ]

    @pytest.mark.parametrize(
        "text,max_len",
        [("fib", 40), ("std:1,9,1,9", 240), (TM_SPEC, 30), ("ultper:0110|01", 20)],
    )
    def test_counts_on_demand_are_exact(self, text, max_len):
        # The window stops slicing once it has every factor; the counts of
        # the rest of it are taken on first use.
        t = checks.saturated_table(sx.parse_spec(text), max_len)
        assert "counts" not in vars(t)
        ref = sx.FactorTable(t.word, max_len)
        assert_same_text("".join(t.dump()), "".join(ref.dump()))

    def test_harness_tall_specs_pass(self):
        # std:1,9,1,9 failed two assertions here under the half-window rule.
        specs = [sx.parse_spec(s) for s in ("fib", "std:2,1", "std:1,9,1,9", "std:3", "std:1,2,3")]
        report = sx.equivalence_harness(specs, 240, prefix_len=1024)
        assert report.failures() == []

    def test_checks_read_the_complexities_once(self, monkeypatch):
        def per_length(self, n):
            raise AssertionError("complexity(n) called per length")

        monkeypatch.setattr(factors.FactorTable, "complexity", per_length)
        r = sx.sturmian_verdict(sx.parse_spec("fib"), max_len=40)
        assert r.combined.status == checks.STURMIAN_CONSISTENT


class TestRotationOrder:
    """Certified ``mech:`` tables against the rotation-order oracle, which
    sorts the points the factors code instead of reading a window."""

    @given(
        slope=st.tuples(st.integers(0, 79), st.integers(1, 80)).filter(
            lambda t: t[0] < t[1] and math.gcd(*t) == 1),
        intercept=st.integers(1, 7),
        max_len=st.integers(1, 50),
    )
    @settings(max_examples=100, deadline=None)
    def test_factors_in_rotation_order(self, slope, intercept, max_len):
        (p, period), rho = slope, Fraction(intercept, 8)
        t = checks.saturated_table(sx.MechanicalRational(p, period - p, rho), max_len)
        for n in range(1, max_len + 1):
            want = naive.rotation_factors(p, period, rho.numerator, rho.denominator, n)
            assert all(map(str.__lt__, want, want[1:]))
            if n <= t.frontier:
                assert list(t.factors(n)) == want


class TestSturmianVerdict:
    def test_fibonacci(self):
        r = sx.sturmian_verdict(sx.parse_spec("fib"), max_len=40)
        assert r.combined.status == checks.STURMIAN_CONSISTENT
        assert r.combined.up_to == 40
        assert r.verdict("nfop").status == checks.CONSISTENT
        assert r.verdict("balance").status == checks.CONSISTENT
        assert r.verdict("complexity").status == checks.APPARENTLY_APERIODIC
        assert r.verdict("recurrence").status == checks.RECURRENT_CONSISTENT

    def test_periodic(self):
        r = sx.sturmian_verdict(sx.parse_spec("periodic:01"), max_len=10)
        assert r.combined.status == checks.NOT_STURMIAN
        assert (r.combined.n, r.combined.witness) == (3, ("010", "101"))
        assert r.verdict("complexity").status == checks.ULTIMATELY_PERIODIC

    def test_thue_morse(self):
        r = sx.sturmian_verdict(sx.parse_spec(TM_SPEC), max_len=12)
        assert r.combined.status == checks.NOT_STURMIAN
        assert r.verdict("balance").witness == ("00", "11")
        assert r.verdict("nfop").witness == ("011", "100")

    def test_ternary_word(self):
        r = sx.sturmian_verdict(sx.parse_spec("periodic:012"), max_len=8)
        assert r.combined.status == checks.NOT_STURMIAN
        assert r.verdict("balance").status == checks.INDETERMINATE
        assert r.verdict("nfop").status == checks.VIOLATED

    def test_complexity_excess_refutes_without_saturation(self):
        # Window counts never overshoot the word's complexity, so p(1) = 3
        # refutes although no length is saturated and no check is violated.
        r = sx.sturmian_verdict(sx.parse_spec("literal:012"), max_len=1)
        assert r.combined.status == checks.NOT_STURMIAN
        assert (r.combined.n, r.combined.reason) == (1, "complexity 3 > 2")
        assert r.combined.saturated_lengths == ()
        assert checks.VIOLATED not in {v.status for v in r.verdicts}

    def test_non_binary_nfop_is_variant_one(self):
        # The step 0 -> 2 and the swap 02 -> 20 fit variant 1, not variant 2.
        r = sx.sturmian_verdict(sx.parse_spec("periodic:02"), max_len=2)
        assert r.verdict("nfop").status == checks.CONSISTENT

    def test_json_shape(self):
        r = sx.sturmian_verdict(sx.parse_spec("fib"), max_len=8)
        with pytest.raises(KeyError):
            r.verdict("nope")
        payload = r.to_json()
        assert payload["spec"] == "morphic:0->01,1->0;seed=0"
        assert [c["check"] for c in payload["checks"]] == [
            "nfop", "balance", "complexity", "hamming2", "ones", "recurrence",
        ]
        assert list(payload["combined"]) == [
            "check", "status", "upTo", "witness", "saturatedLengths", "n", "reason",
        ]


class TestEquivalenceHarness:
    def test_sturmian_corpus_passes(self):
        specs = [
            sx.parse_spec(s)
            for s in ("fib", "std:2,1,2,1", "std:1,2,3,1,2,3", "mech:2/5@0")
        ]
        report = sx.equivalence_harness(specs, 16)
        assert report.all_passed, report.failures()

    def test_periodic_word_allowed(self):
        # ordering fails but the ones condition holds: fine, the word is not
        # flagged aperiodic, so no agreement is demanded
        report = sx.equivalence_harness([sx.parse_spec("periodic:01")], 16)
        assert report.all_passed
        byname = {o.assertion: o for o in report.outcomes}
        assert byname["recurrent-aperiodic-agreement"].result == "skip"
        assert byname["nfop=>balance"].result == "skip"

    def test_non_recurrent_word_allowed(self):
        report = sx.equivalence_harness([sx.parse_spec("ultper:0|1")], 16)
        assert report.all_passed

    def test_binary_table_judges_five_assertions(self):
        # Every assertion runs on a binary Sturmian table, and the ordering is
        # judged once: no second variant is compared with the first.
        report = sx.equivalence_harness([sx.parse_spec("std:2,1")], 8)
        assert [(o.assertion, o.result) for o in report.outcomes] == [
            ("nfop=>balance", "pass"),
            ("nfop=>extension-exclusion", "pass"),
            ("nfop=>aperiodic", "pass"),
            ("sturmian-generator-nfop", "pass"),
            ("recurrent-aperiodic-agreement", "pass"),
        ]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            sx.equivalence_harness([], 10)
        with pytest.raises(ValueError, match="same length"):
            sx.equivalence_harness([sx.parse_spec("fib")], 8, labels=["a", "b"])

    def test_non_binary_table_skips_the_binary_implications(self):
        # nfop variant 1 holds on {0,1,2} at length 1, but balance, the
        # extension exclusion and the certificate speak of binary words only.
        report = sx.equivalence_harness([sx.parse_spec("periodic:012")], 1)
        assert len(report.outcomes) == 5
        assert report.all_passed
        byname = {o.assertion: o for o in report.outcomes}
        for assertion in ("nfop=>balance", "nfop=>extension-exclusion", "nfop=>aperiodic"):
            assert (byname[assertion].result, byname[assertion].detail) == (
                "skip", "non-binary table",
            )

    @pytest.mark.parametrize("text", ["std:1", "std:2,1", "std:1,9,1,9"])
    def test_agreement_detail_matches_sturmian_verdict(self, text):
        # std:1 is the Fibonacci word; the morphic "fib" spec is not flagged
        # aperiodic a priori, so the harness skips this entry for it.
        spec = sx.parse_spec(text)
        report = sx.equivalence_harness([spec], 10, prefix_len=256)
        byname = {o.assertion: o for o in report.outcomes}
        r = sx.sturmian_verdict(spec, 256, 10)
        expected = " ".join(
            f"{c}={r.verdict(c).status}" for c in ("nfop", "hamming2", "ones")
        )
        assert byname["recurrent-aperiodic-agreement"].detail == expected


CHECK_FUNCTIONS = (
    "_adjacent_faults",
    "check_nfop",
    "check_balance",
    "check_hamming2",
    "check_ones_monotone",
    "periodicity_certificate",
    "recurrence_heuristic",
    "find_extension_exclusion",
)


@pytest.fixture
def check_calls(monkeypatch):
    """Count calls of each check made through its module attribute."""
    calls = Counter()
    for name in CHECK_FUNCTIONS:
        original = getattr(checks, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(checks, name, counted)
    return calls


class TestEachCheckOncePerTable:
    """Every verdict read once per table, the harness reading no recurrence
    verdict; nfop, hamming2 and ones share one pair walk
    (``_adjacent_faults``) instead of calling their public wrappers."""

    def test_sturmian_verdict(self, check_calls):
        sx.sturmian_verdict(sx.parse_spec("fib"), max_len=8)
        assert check_calls == Counter(
            _adjacent_faults=1,
            check_balance=1,
            periodicity_certificate=1,
            recurrence_heuristic=1,
        )

    def test_harness_on_a_binary_table(self, check_calls):
        sx.equivalence_harness([sx.parse_spec("std:2,1")], 8)
        # the table is balanced, so the exclusion search cannot find a u
        assert check_calls == Counter(_adjacent_faults=1, check_balance=1, periodicity_certificate=1)

    def test_harness_searches_an_unbalanced_table(self, check_calls):
        # 00 and 11 both occur, and the only pair 01 -> 10 fits nfop
        report = sx.equivalence_harness([sx.parse_spec("periodic:0011")], 2)
        assert [o.result for o in report.outcomes[:2]] == ["fail", "pass"]
        assert check_calls == Counter(
            _adjacent_faults=1,
            check_balance=1,
            periodicity_certificate=1,
            find_extension_exclusion=1,
        )

    def test_harness_on_a_non_binary_table(self, check_calls):
        sx.equivalence_harness([sx.parse_spec("periodic:012")], 1)
        assert check_calls == Counter(_adjacent_faults=1, periodicity_certificate=1)


class TestNoOccurrenceCounts:
    """No verdict reads a window's occurrence counts: the spec's flags, not
    the window, decide recurrence.  The benchmark's words, at its sizes."""

    VERDICT_MIX = (
        "fib", "std:2,1", "std:1,9,1,9", "std:3", "std:1,2,3", TM_SPEC, "mech:3/8@0",
        "mech:5/13@1/2", "periodic:0010110", "ultper:0110|01",
        "morphic:0->012,1->02,2->1;seed=0",
    )

    @pytest.fixture(autouse=True)
    def no_counts(self, monkeypatch):
        # No verdict builds the counting table either, from which a
        # certified table reads its occurrences.
        def counts(table):
            raise AssertionError("FactorTable.counts read")

        def recounted(table):
            raise AssertionError("counting table built")

        monkeypatch.setattr(factors.FactorTable, "counts", property(counts))
        monkeypatch.setattr(factors.FactorTable, "_recounted", property(recounted))

    @pytest.mark.parametrize("text", VERDICT_MIX)
    def test_sturmian_verdict(self, text):
        sx.sturmian_verdict(sx.parse_spec(text), max_len=200)

    def test_dense_literal(self):
        word = format(random.Random(1).getrandbits(8192), "08192b")
        report = sx.sturmian_verdict(sx.Literal(word), max_len=16, prefix_len=8192)
        assert report.verdict("recurrence").status == checks.INDETERMINATE

    def test_harness_tall(self):
        specs = [sx.parse_spec(s) for s in ("fib", "std:2,1", "std:1,9,1,9", "std:3", "std:1,2,3")]
        sx.equivalence_harness(specs, 240, prefix_len=1024)


class TestBinarySkip:
    """On a binary table the walk passes over a final 0 -> 1 step or a
    01 -> 10 swap without its pair judge (``_first_faults``), and judges
    each other pair once."""

    @pytest.fixture
    def judged(self, monkeypatch):
        calls = []
        real = checks._first_faults

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(checks, "_first_faults", counted)
        return calls

    @pytest.mark.parametrize("text", ["fib", "std:2,1", "std:3", "std:1,2,3"])
    def test_sturmian_pairs_are_all_skipped(self, judged, text):
        spec = sx.parse_spec(text)
        table = checks.saturated_table(spec, 240, 1024)
        assert checks._battery(table)[0].status == checks.CONSISTENT
        assert len(table.starts()) == 241
        assert judged == []

    def test_an_uncut_walk_copies_no_code(self):
        # The table keeps its short suffixes and its frontier is max_len, so
        # the walk's heads are its starts' codes taken by reference.  Shifted
        # by 0, each was copied: the walk's peak was 2.5 MB with Python 3.11,
        # 1.4 MB without the copies.
        t = sx.FactorTable(prefix("fib", 16384), 2000)
        assert t.frontier == 2000 and len(t.starts()) < len(t.codes)
        tracemalloc.start()
        try:
            walk = checks._adjacent_faults(t, ("nfop", "hamming2", "ones"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [v.status for v in walk] == [checks.CONSISTENT] * 3
        assert peak < 1.8e6, f"peak {peak / 1e6:.2f} MB"

    def test_thue_morse_pairs_are_judged(self, judged, tm_table):
        assert sx.check_nfop(tm_table).status == checks.VIOLATED
        assert judged

    def test_each_misfit_pair_is_judged_once(self, judged):
        # Balanced and periodic: ones never faults, so the walk never stops
        # early and every pair that misfits past the period reaches the judge.
        table = checks.saturated_table(sx.parse_spec("mech:5/13@1/2"), 200)
        nfop, _, _, hamming, ones = checks._battery(table)
        assert (nfop.status, hamming.status, ones.status) == (
            checks.VIOLATED, checks.VIOLATED, checks.CONSISTENT)
        assert 0 < len(judged) <= len(table.starts()) - 1


def shape_fits(c, cp, cut):
    """The shape test that the fitting difference replaced: whether 2-bit
    binary codes c < cp, their last ``cut`` letters cut off, XOR to a final
    0 -> 1 step, or to a 01 -> 10 swap with 01 in the left code."""
    x = (c ^ cp) >> 2 * cut
    s = x.bit_length() - 3
    return x == 1 or x == 0b101 << s and (c >> 2 * cut + s) & 0xF == 1


@st.composite
def certified_tables(draw):
    """The saturated table of a std:, mech: or fib spec, certified by its count."""
    mech = st.tuples(st.integers(1, 20), st.integers(1, 20), st.integers(0, 6), st.integers(1, 7))
    spec = draw(
        st.one_of(
            st.just(sx.parse_spec("fib")),
            st.lists(st.integers(1, 5), min_size=1, max_size=4).map(sx.StandardSequence),
            mech.filter(lambda m: math.gcd(m[0], m[1]) == 1 and m[2] < m[3]).map(
                lambda m: sx.MechanicalRational(m[0], m[1], Fraction(m[2], m[3]))
            ),
        )
    )
    max_len = draw(st.integers(1, 40))
    t = checks.saturated_table(spec, max_len, draw(st.integers(max_len, 512)))
    assert len(t._windows) == spec.complexities(max_len)[max_len]
    return t


def assert_walk_as_oracle(t, top=None):
    """One walk's three pair verdicts, and nfop variant 1's, against the
    oracle's, saturated up to ``top`` (or by the half-window rule)."""
    w, size = t.word, t.max_len
    want = [
        (naive.nfop_verdict(w, size, 3, top), lambda v, vp: naive.nfop_reason(v, vp, 3)),
        (naive.hamming2_verdict(w, size, top), naive.hamming_reason),
        (naive.ones_verdict(w, size, top), naive.ones_reason),
        (naive.nfop_verdict(w, size, 1, top), lambda v, vp: naive.nfop_reason(v, vp, 1)),
    ]
    walk = (*checks._adjacent_faults(t, ("nfop", "hamming2", "ones")), sx.check_nfop(t, 1))
    for got, ((status, n, pair), reason) in zip(walk, want):
        assert (got.status, got.n, got.witness) == (status, n, pair)
        if pair is not None:
            assert got.reason == reason(*pair)


class TestFittingDifference:
    """A binary pair is passed over when cp - c, both cut to the frontier
    top, is the fitting difference of its lcp (``checks._fitting_steps``)."""

    def test_same_pairs_as_the_shape_test(self):
        # Every binary pair v < vp of up to 8 letters, at every cut that
        # keeps their first mismatch lo.
        steps = {top: checks._fitting_steps(top) for top in range(1, 9)}
        fits = Counter()
        for n in range(1, 9):
            words = ["".join(p) for p in itertools.product("01", repeat=n)]
            for v, vp in itertools.combinations(words, 2):
                c, cp = int(v, 4), int(vp, 4)
                lo = next(k for k in range(n) if v[k] != vp[k]) + 1
                for top in range(lo, n + 1):
                    cut = n - top
                    fit = (cp >> 2 * cut) - (c >> 2 * cut) == steps[top][lo - 1]
                    assert fit == shape_fits(c, cp, cut), (v, vp, top)
                    fits[fit] += 1
                    # A fitting pair fits every pair check at each length lo..top.
                    for m in range(lo, top + 1) if fit else ():
                        a, b = v[:m], vp[:m]
                        assert naive.nfop_pair_ok(a, b, 2) and naive.hamming(a, b) <= 2
                        assert a.count("1") <= b.count("1")
        assert fits[True] and fits[False]

    @given(t=certified_tables())
    @settings(max_examples=100, deadline=None)
    def test_certified_tables_against_the_oracle(self, t):
        assert_walk_as_oracle(t, t.frontier)

    @given(w=literals(20, 300, alphabets=("01",)), max_len=st.integers(2, 12))
    @settings(max_examples=100, deadline=None)
    def test_half_window_tables_against_the_oracle(self, w, max_len):
        # Random literals keep their short suffixes, and most stop short of max_len.
        t = sx.FactorTable(w, max_len)
        assume(t.frontier < max_len)
        assert len(t.codes) > len(t._windows)
        assert_walk_as_oracle(t)


class TestCrossCheckInvariants:
    """Properties that tie the checks together on known words."""

    def test_violation_witnesses_really_occur(self, tm_table, per01_table, ult01_table):
        for t in (tm_table, per01_table, ult01_table):
            for verdict in (sx.check_nfop(t), sx.check_balance(t)):
                if verdict.status == checks.VIOLATED:
                    for piece in verdict.witness:
                        assert piece in t.word

    def test_variants_agree_on_binary_tables(
        self, fib_table, tm_table, per01_table, ult01_table, zerozero_fib_table
    ):
        # Over 0 and 1 the first mismatch of v < v' is 0 against 1, which are
        # consecutive, so the three variants accept the same pairs.
        for t in (fib_table, tm_table, per01_table, ult01_table, zerozero_fib_table):
            v1, v2, v3 = (sx.check_nfop(t, k) for k in (1, 2, 3))
            assert v1 == v2 == v3, (t.word, t.max_len)

    def test_variants_agree_on_every_short_binary_word(self):
        # The same theorem, exhaustively: every binary word of 1-10 letters at
        # every max_len, whole verdicts (status, n, witness and reason).
        tables = 0
        for size in range(1, 11):
            for letters in itertools.product("01", repeat=size):
                for max_len in range(1, size + 1):
                    t = sx.FactorTable("".join(letters), max_len)
                    v1, v2, v3 = (sx.check_nfop(t, k) for k in (1, 2, 3))
                    assert v1 == v2 == v3, (t.word, t.max_len)
                    tables += 1
        assert tables == 18434

    def test_consistent_pairs_are_two_close_and_monotone(self, fib_table):
        for n in range(1, 41):
            fs = fib_table.factors(n)
            for v, vp in zip(fs, fs[1:]):
                assert naive.hamming(v, vp) <= 2
                assert v.count("1") <= vp.count("1")

    def test_exclusion_holds_on_ordered_tables(self, fib_table):
        assert sx.find_extension_exclusion(fib_table) is None

    def test_exclusion_witness_on_thue_morse(self, tm_table):
        assert sx.find_extension_exclusion(tm_table) == ""

    def test_shape_pairs_are_adjacent_on_fibonacci(self, fib_table):
        # whenever both members of an allowed shape occur, they sit next to
        # each other in the sorted list
        checked = 0
        for n in range(2, 21):
            for v in fib_table.factors(n):
                partners = []
                if v.endswith("0"):
                    partners.append(v[:-1] + "1")
                for i in range(n - 1):
                    if v[i : i + 2] == "01":
                        partners.append(v[:i] + "10" + v[i + 2 :])
                for w in partners:
                    if fib_table.is_factor(w):
                        assert fib_table.successor(v) == w
                        checked += 1
        assert checked > 0


@st.composite
def tables(draw, alphabet="01"):
    """A random word, or a repeated random seed (so that some lengths
    saturate and violations are definitive), with a random length bound."""
    w = draw(
        st.one_of(
            st.text(alphabet=alphabet, min_size=1, max_size=80),
            st.builds(
                lambda seed, k: seed * k,
                st.text(alphabet=alphabet, min_size=1, max_size=8),
                st.integers(2, 30),
            ),
        )
    )
    return sx.FactorTable(w, draw(st.integers(1, min(len(w), 10))))


@st.composite
def mismatched_pairs(draw):
    """Equal-length words with 0-5 differing positions, ends favoured, or
    with two neighbouring letters swapped."""
    alphabet = draw(st.sampled_from(["01", "012", "0123456789"]))
    # Up to 300 letters, so each word's code spans many machine words.
    v = draw(st.text(alphabet=alphabet, min_size=1, max_size=300))
    last = len(v) - 1
    if last and draw(st.booleans()):
        i = draw(st.integers(0, last - 1))
        return v, v[:i] + v[i + 1] + v[i] + v[i + 2 :]
    spots = st.one_of(st.just(0), st.just(last), st.integers(0, last))
    vp = list(v)
    for i in draw(st.lists(spots, unique=True, max_size=min(5, len(v)))):
        vp[i] = draw(st.sampled_from([c for c in alphabet if c != v[i]]))
    return v, "".join(vp)


class TestPairReasons:
    """The pair judge gives each check's first failing length and reason,
    or None, exactly as the oracle finds them over every cut length."""

    # Shapes at the edge of the walk's binary skip, which the judge must
    # decide right on its own: a final step and a 01 -> 10 swap (skipped on
    # binary tables), a 12 -> 21 swap, and 03 -> 12, whose 4-bit codes XOR
    # to a swap's 0x11.
    @example(pair=("0110", "0111"))
    @example(pair=("0011", "0101"))
    @example(pair=("2120", "2210"))
    @example(pair=("1031", "1121"))
    @given(pair=mismatched_pairs())
    @settings(max_examples=400, deadline=None)
    def test_against_listing_every_mismatch(self, pair):
        # The walk pairs distinct neighbours of a sorted list.
        v, vp = sorted(pair)
        assume(v != vp)
        lo = next(k for k in range(len(v)) if v[k] != vp[k]) + 1

        def first(reason):
            cuts = ((n, reason(v[:n], vp[:n])) for n in range(lo, len(v) + 1))
            return next(((n, why) for n, why in cuts if why), None)

        for variant in (1, 2, 3):
            assert checks._first_faults(v, vp, variant) == {
                "nfop": first(lambda a, b: naive.nfop_reason(a, b, variant)),
                "hamming2": first(naive.hamming_reason),
                "ones": first(naive.ones_reason),
            }


class TestDifferentialRandomBinary:
    """Checks against the brute-force oracle on random binary words."""

    @given(t=tables())
    # 000 -> 011 at n=3: its codes XOR to a swap's 0x11, but the left code
    # holds 00 there, so the walk judges it (adjacent mismatches, no swap).
    @example(t=sx.FactorTable("011000000000", 3))
    # 0100 -> 1001 neighbour up to the frontier 3, where they are a swap,
    # and bridge the short suffixes 010 and 0; their third mismatch is at 4.
    @example(t=sx.FactorTable("0010010010", 4))
    @settings(max_examples=150, deadline=None)
    def test_adjacent_pair_checks(self, t):
        cases = [
            (
                sx.check_hamming2(t),
                naive.hamming2_verdict(t.word, t.max_len),
                naive.hamming_reason,
            ),
            (
                sx.check_ones_monotone(t),
                naive.ones_verdict(t.word, t.max_len),
                naive.ones_reason,
            ),
        ] + [
            (
                sx.check_nfop(t, k),
                naive.nfop_verdict(t.word, t.max_len, k),
                lambda v, vp, k=k: naive.nfop_reason(v, vp, k),
            )
            for k in (1, 2, 3)
        ]
        for got, (status, n, pair), reason in cases:
            assert (got.status, got.n, got.witness) == (status, n, pair)
            if pair is not None:
                assert got.reason == reason(*pair)
        # The battery seeks all three faults in one walk.
        walk = checks._adjacent_faults(t, ("nfop", "hamming2", "ones"))
        assert walk == (cases[4][0], cases[0][0], cases[1][0])

    @given(t=tables())
    # Witnesses at the longest searchable length: u=0000 (balance) and u=000
    # (extension exclusion), each with m = max_len = 6.
    @example(t=sx.FactorTable("000000100001", 6))
    @example(t=sx.FactorTable("01000100000", 6))
    # Both witnesses are u=1: the candidates reach up to the next head.
    @example(t=sx.FactorTable("0111010", 6))
    # From length 3 on no factor begins 0 or 10: empty candidate ranges.
    @example(t=sx.FactorTable("1111101", 4))
    # Sturmian: every length is scanned and both searches find nothing.
    @example(t=sx.FactorTable(prefix("fib", 256), 10))
    @settings(max_examples=150, deadline=None)
    def test_core_searches(self, t):
        hit = naive.minimal_imbalance(t.word, t.max_len)
        got = sx.minimal_imbalance(t)
        assert (None if got is None else (got.u, got.pair)) == hit
        want = naive.extension_exclusion(t.word, t.max_len)
        assert sx.find_extension_exclusion(t) == want


class TestDifferentialNonBinary:
    """nfop variants 1 and 2 against the oracle on words over 3 and 10 letters."""

    @given(t=st.sampled_from(["012", "0123456789"]).flatmap(tables))
    # 03 -> 12 has the XOR of a 01 -> 10 swap but is no transposition.
    @example(t=sx.FactorTable("03120" * 12, 6))
    @settings(max_examples=150, deadline=None)
    def test_nfop_variants(self, t):
        for k in (1, 2):
            got = sx.check_nfop(t, k)
            status, n, pair = naive.nfop_verdict(t.word, t.max_len, k)
            assert (got.status, got.n, got.witness) == (status, n, pair)
            if pair is not None:
                assert got.reason == naive.nfop_reason(*pair, k)
        # The battery judges a non-binary table by variant 1.
        assert checks._battery(t)[0] == sx.check_nfop(t, 1)


@st.composite
def long_tables(draw):
    """A word over 01, 012 or 0123456789, random or a repeated seed, with a
    length bound up to the word's length, so that the index holds short
    suffixes of every length, which sit between neighbours."""
    alphabet = draw(st.sampled_from(["01", "012", "0123456789"]))
    w = draw(
        st.one_of(
            st.text(alphabet=alphabet, min_size=1, max_size=40),
            st.builds(
                lambda seed, k: seed * k,
                st.text(alphabet=alphabet, min_size=1, max_size=6),
                st.integers(2, 10),
            ),
        )
    )
    return sx.FactorTable(w, draw(st.integers(1, len(w))))


def oracle_battery(w, max_len, top=None, spec=None):
    """The verdicts of ``checks._battery`` on a literal word, from the oracle,
    and apart from them that of ``checks.recurrence_heuristic`` under the
    flags of ``spec`` (none for a bare table).  The saturated lengths are
    1..top when ``top`` is given, else those of the half-window rule."""
    if top is None:
        sat = tuple(n for n in range(1, max_len + 1) if naive.saturated(w, n))
    else:
        sat = tuple(range(1, top + 1))
    binary = set(w) <= set("01")

    def verdict(check, status, **fields):
        return checks.Verdict(check, status, saturated_lengths=sat, **fields)

    def unsaturated(check):
        skipped = ",".join(str(n) for n in range(len(sat) + 1, max_len + 1))
        return verdict(check, checks.INDETERMINATE, reason=f"unsaturated lengths {skipped}")

    def walk(check, outcome, reason):
        status, n, pair = outcome
        if status == checks.VIOLATED:
            return verdict(check, status, witness=pair, n=n, reason=reason(*pair))
        if status == checks.INDETERMINATE:
            return unsaturated(check)
        return verdict(check, status, up_to=max_len)

    variant = 3 if binary else 1
    nfop = walk(
        "nfop",
        naive.nfop_verdict(w, max_len, variant, top),
        lambda v, vp: naive.nfop_reason(v, vp, variant),
    )
    if binary:
        hit = naive.minimal_imbalance(w, max_len)
        balance = (
            verdict("balance", checks.VIOLATED, witness=hit[1], n=len(hit[1][0]))
            if hit
            else verdict("balance", checks.CONSISTENT, up_to=max(max_len - 2, 0))
        )
        hamming = walk("hamming2", naive.hamming2_verdict(w, max_len, top), naive.hamming_reason)
        ones = walk("ones", naive.ones_verdict(w, max_len, top), naive.ones_reason)
    else:
        balance, hamming, ones = (
            verdict(c, checks.INDETERMINATE, reason="alphabet is not binary")
            for c in ("balance", "hamming2", "ones")
        )
    n = naive.periodicity_length(w, max_len, top)
    if n is None and len(sat) < max_len:
        complexity = unsaturated("complexity")
    elif n is None:
        complexity = verdict("complexity", checks.APPARENTLY_APERIODIC, up_to=max_len)
    else:
        p = len(naive.distinct_factors(w, n))
        why = f"complexity {p} <= {n}"
        complexity = verdict("complexity", checks.ULTIMATELY_PERIODIC, n=n, reason=why)
    # The flags decide the status; the witness is the shortest prefix that
    # a long prefix of the word holds once.
    flags = spec.flags if spec is not None else sx.KnownFlags(None, None)
    if flags.recurrent is None:
        why = "a finite word is a prefix of a recurrent word"
        recurrence = verdict("recurrence", checks.INDETERMINATE, reason=why)
    elif flags.recurrent:
        why = "a-priori recurrent"
        recurrence = verdict("recurrence", checks.RECURRENT_CONSISTENT, up_to=max_len, reason=why)
    else:
        v = naive.shortest_unique_prefix(prefix(str(spec), 4096))
        found = {"witness": (v,), "n": len(v)} if len(v) <= max_len else {}
        why = "a-priori non-recurrent"
        recurrence = verdict("recurrence", checks.NON_RECURRENT, reason=why, **found)
    battery = nfop, balance, complexity, hamming, ones
    return battery, recurrence


class TestBatteryAgainstOracle:
    """All six verdicts and the extension-exclusion search, on tables whose
    length bound reaches the word's length."""

    # Short suffixes between neighbours: 0110 at max_len 4 keeps only its
    # single window, and every other length gains tails.
    @example(t=sx.FactorTable("0110", 4))
    @example(t=sx.FactorTable("0100101001001", 13))
    @example(t=sx.FactorTable("0120" * 5, 20))
    @example(t=sx.FactorTable("9081726354" * 2, 11))
    # 01 -> 10 bridges the short suffix 0 and is skipped as a swap.
    @example(t=sx.FactorTable("101010", 2))
    @example(t=sx.FactorTable("011000000000", 3))
    # A ternary word whose extension exclusion is the empty core: 100 and 011.
    @example(t=sx.FactorTable("1000112", 4))
    @given(t=long_tables())
    @settings(max_examples=200, deadline=None)
    def test_battery_and_exclusion(self, t):
        battery, recurrence = oracle_battery(t.word, t.max_len)
        assert checks._battery(t) == battery
        assert checks.recurrence_heuristic(t) == recurrence
        want = naive.extension_exclusion(t.word, t.max_len)
        assert sx.find_extension_exclusion(t) == want

    @given(
        case=st.integers(2, 60).flatmap(lambda period: st.tuples(
            st.integers(1, period - 1).filter(lambda p: math.gcd(p, period) == 1),
            st.just(period),
            st.integers(1, 3 * period),
        )),
        rho=st.integers(0, 5).map(lambda k: Fraction(k, 6)),
    )
    @example(case=(3, 8, 200), rho=Fraction(0))
    @example(case=(5, 13, 200), rho=Fraction(1, 2))
    @settings(max_examples=60, deadline=None)
    def test_mechanical_words(self, case, rho):
        # mech:p/period@rho is periodic and balanced: its pairs past the
        # period misfit, and each is judged once on its longest prefixes.
        p, period, max_len = case
        t = checks.saturated_table(sx.MechanicalRational(p, period - p, rho), max_len, max_len)
        assert t.frontier == max_len
        battery, _ = oracle_battery(t.word, max_len, t.frontier)
        nfop, _, _, hamming, ones = checks._battery(t)
        assert (nfop, hamming, ones) == tuple(battery[i] for i in (0, 3, 4))
        # Variant 1 judges the misfit pairs in its own walk, as variant 3 does.
        assert sx.check_nfop(t, 1) == battery[0]
