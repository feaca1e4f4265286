"""Single-property checks, composite verdicts, and the cross-check harness."""

from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import sturmlex as sx
from sturmlex import checks, factors
from sturmlex.errors import (
    AlphabetTooLarge,
    BudgetExceeded,
    NonBinaryAlphabet,
    NotImbalanced,
)

import naive
from conftest import TM_SPEC, prefix


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
        with pytest.raises(AlphabetTooLarge):
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


class TestRecurrenceHeuristic:
    def test_zero_one_tail(self, ult01_table):
        v = sx.recurrence_heuristic(ult01_table)
        assert (v.status, v.witness) == (checks.NON_RECURRENT, ("0",))

    def test_periodic(self, per01_table):
        assert sx.recurrence_heuristic(per01_table).status == checks.RECURRENT_CONSISTENT

    def test_shifted_fibonacci(self, zerozero_fib_table):
        v = sx.recurrence_heuristic(zerozero_fib_table)
        assert (v.status, v.witness) == (checks.NON_RECURRENT, ("000",))

    def test_a_priori_flag_overrides(self, zerozero_fib_table):
        v = sx.recurrence_heuristic(zerozero_fib_table, known=True)
        assert v.status == checks.RECURRENT_CONSISTENT
        assert v.reason == "a-priori recurrent"


class TestSaturatedTable:
    def test_default_policy(self):
        t = checks.saturated_table(sx.parse_spec("fib"), 40)
        assert len(t.word) == checks.default_prefix_length(40) == 4096
        assert len(t.saturated_lengths()) == 40

    def test_doubles_until_saturated(self):
        t = checks.saturated_table(sx.parse_spec("fib"), 10, prefix_len=32)
        assert len(t.word) > 32
        assert len(t.saturated_lengths()) == 10

    def test_literal_capped_at_its_length(self):
        t = checks.saturated_table(sx.Literal("01" * 8), 4)
        assert t.word == "01" * 8

    def test_budget_request_rejected(self):
        with pytest.raises(BudgetExceeded):
            checks.saturated_table(sx.parse_spec("fib"), 8, prefix_len=checks.PREFIX_BUDGET + 1)

    def test_max_len_beyond_budget_rejected(self):
        # The window must hold max_len letters, so a short prefix_len is no way
        # round the budget.
        with pytest.raises(BudgetExceeded):
            checks.saturated_table(
                sx.parse_spec("fib"), checks.PREFIX_BUDGET + 1, prefix_len=1
            )

    # (spec, max_len, prefix_len); fib at 10/32 and std:1,9,1,9 at 240/1024
    # double before they saturate.
    WINDOWS = [
        ("fib", 10, 32),
        ("fib", 40, None),
        ("std:1,9,1,9", 240, 1024),
        (TM_SPEC, 12, 16),
        ("periodic:0010110", 20, 8),
        ("morphic:0->012,1->02,2->1;seed=0", 30, 64),
        ("literal:" + "0110" * 10, 8, 4),
        ("literal:" + "0110" * 10, 30, None),
    ]

    @pytest.mark.parametrize("text,max_len,prefix_len", WINDOWS)
    def test_same_window_as_full_tables(self, text, max_len, prefix_len):
        spec = sx.parse_spec(text)
        target = max(prefix_len or checks.default_prefix_length(max_len), max_len)
        cap = len(spec.word) if isinstance(spec, sx.Literal) else checks.PREFIX_BUDGET
        # The reference indexes every candidate window in full.
        while True:
            length = min(target, cap)
            ref = sx.FactorTable(sx.generate_prefix(spec, length), max_len)
            if length >= cap or ref.saturated(max_len):
                break
            target *= 2
        t = checks.saturated_table(spec, max_len, prefix_len)
        assert t.word == ref.word
        assert t.frontier == ref.frontier
        assert t.dump() == ref.dump()

    @pytest.mark.parametrize("text,max_len,prefix_len", WINDOWS)
    def test_one_index_per_window(self, monkeypatch, text, max_len, prefix_len):
        builds, sliced = [], Counter()

        def build(word, *args):
            builds.append(len(word))
            return factors.FactorTable(word, *args)

        def slicing(word, n, _original=factors.window_counts):
            sliced[len(word)] += 1
            return _original(word, n)

        monkeypatch.setattr(checks, "FactorTable", build)
        monkeypatch.setattr(checks, "window_counts", slicing)
        monkeypatch.setattr(factors, "window_counts", slicing)
        t = checks.saturated_table(sx.parse_spec(text), max_len, prefix_len)
        assert builds == [len(t.word)]
        # Every candidate window's longest length is sliced once, the kept
        # window's included.
        assert set(sliced.values()) == {1}
        assert len(t.word) in sliced
        if (text, max_len) == ("fib", 10):
            assert len(sliced) > 1

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

    def test_non_binary_nfop_is_variant_one(self):
        # The step 0 -> 2 and the swap 02 -> 20 fit variant 1, not variant 2.
        r = sx.sturmian_verdict(sx.parse_spec("periodic:02"), max_len=2)
        assert r.verdict("nfop").status == checks.CONSISTENT

    def test_json_shape(self):
        r = sx.sturmian_verdict(sx.parse_spec("fib"), max_len=8)
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

    def test_variant_agreement_runs_on_binary(self, tm_table):
        report = sx.equivalence_harness([sx.parse_spec(TM_SPEC)], 10)
        byname = {o.assertion: o for o in report.outcomes}
        assert byname["variant-agreement"].result == "pass"

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            sx.equivalence_harness([], 10)

    def test_non_binary_table_skips_the_binary_implications(self):
        # nfop variant 1 holds on {0,1,2} at length 1, but balance, the
        # extension exclusion and the certificate speak of binary words only.
        report = sx.equivalence_harness([sx.parse_spec("periodic:012")], 1)
        assert len(report.outcomes) == 6
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

    def test_variant_disagreement_is_reported(self, monkeypatch):
        # Skew the variant-1 verdict ("nfop1") that the battery's walk yields.
        real = checks._adjacent_faults

        def skewed(table, sought, variant=3):
            verdicts = real(table, sought, variant)
            return tuple(
                v.replace(status=checks.INDETERMINATE) if key == "nfop1" else v
                for key, v in zip(sought, verdicts)
            )

        monkeypatch.setattr(checks, "_adjacent_faults", skewed)
        report = sx.equivalence_harness([sx.parse_spec("std:2,1")], 8)
        entry = {o.assertion: o for o in report.outcomes}["variant-agreement"]
        assert entry.result == "fail"
        assert entry.detail.startswith("[('Indeterminate', None, None), ")
        assert entry.detail.count("ConsistentUpTo") == 2


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
    """Every verdict once per table; nfop, hamming2 and ones (and, in the
    harness, nfop variant 1) share one pair walk (``_adjacent_faults``)
    instead of calling their public wrappers."""

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
        # the battery's walk also judges nfop variant 1 for variant-agreement;
        # the table is balanced, so the exclusion search cannot find a u
        assert check_calls == Counter(
            _adjacent_faults=1,
            check_balance=1,
            periodicity_certificate=1,
            recurrence_heuristic=1,
        )

    def test_harness_searches_an_unbalanced_table(self, check_calls):
        # 00 and 11 both occur, and the only pair 01 -> 10 fits nfop
        report = sx.equivalence_harness([sx.parse_spec("periodic:0011")], 2)
        assert [o.result for o in report.outcomes[:2]] == ["fail", "pass"]
        assert check_calls == Counter(
            _adjacent_faults=1,
            check_balance=1,
            periodicity_certificate=1,
            recurrence_heuristic=1,
            find_extension_exclusion=1,
        )

    def test_harness_on_a_non_binary_table(self, check_calls):
        sx.equivalence_harness([sx.parse_spec("periodic:012")], 1)
        assert check_calls == Counter(
            _adjacent_faults=1, periodicity_certificate=1, recurrence_heuristic=1
        )


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
        for t in (fib_table, tm_table, per01_table, ult01_table, zerozero_fib_table):
            outcomes = [
                (v.status, v.n, v.witness)
                for v in (sx.check_nfop(t, k) for k in (1, 2, 3))
            ]
            assert outcomes[0] == outcomes[1] == outcomes[2]

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
    # Up to 300 letters, so each word's base-16 integer spans many machine words.
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
    """The pair predicate gives the oracle's reason string, or None, exactly."""

    # Shapes the walk's fast path passes before the exact test, which must
    # judge them right on its own: a final step, a 01 -> 10 swap, a 12 -> 21
    # swap, and 03 -> 12, whose codes XOR to a swap's 0x11.
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
        c, cp = int(v, 16), int(vp, 16)
        for variant in (1, 2, 3):
            want = naive.nfop_reason(v, vp, variant)
            assert checks._nfop_shape(c, cp, variant) == want


class TestDifferentialRandomBinary:
    """Checks against the brute-force oracle on random binary words."""

    @given(t=tables())
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
        # The battery seeks all four faults in one walk.
        sought = ("nfop", "hamming2", "ones", "nfop1")
        walk = checks._adjacent_faults(t, sought)
        assert walk == (cases[4][0], cases[0][0], cases[1][0], cases[2][0])

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
        # One walk judges two variants independently.
        walk = checks._adjacent_faults(t, ("nfop", "nfop1"), 2)
        assert walk == (sx.check_nfop(t, 2), sx.check_nfop(t, 1))
