"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Criteria 3 and 8 are asserted exactly as stated even though their rational
mechanical-word entries cannot hold: a rational-slope word is periodic, so
the ordering property must break just past its period and its factor set at
the period length is exactly the conjugacy class of the period (no singular
factor, complexity p+q).  Those two tests therefore fail by design rather
than being weakened; the true behavior of the same inputs is pinned in
test_checks.py and test_christoffel.py.
"""

import math
import random

import sturmlex as sx
from sturmlex import checks

import naive
from conftest import FIB32, prefix, run_module


def _report(criterion: int, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"ACCEPTANCE {criterion:02d}: {tag}{suffix}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_fibonacci_generation():
    proc = run_module("generate", "--spec", "fib", "--len", "32")
    ok = proc.returncode == 0 and proc.stdout.strip() == FIB32
    _report(1, ok, f"stdout={proc.stdout.strip()!r}")


def test_criterion_02_fibonacci_complexity():
    table = sx.FactorTable(prefix("fib", 100_000), 50)
    saturated = table.saturated_lengths()
    bad = [n for n in saturated if table.complexity(n) != n + 1]
    ok = saturated == tuple(range(1, 51)) and not bad
    _report(2, ok, f"saturated {len(saturated)}/50 lengths, complexity mismatches {bad}")


def test_criterion_03_ordering_consistent_corpus():
    specs = [
        "fib",
        "std:2,1,2,1,2,1",
        "std:1,2,3,1,2,3",
        "std:3,1,4,1,5",
        "mech:2/5@0",
        "mech:3/8@0",
    ]
    outcomes = {}
    for text in specs:
        table = checks.saturated_table(sx.parse_spec(text), 40)
        v = sx.check_nfop(table, 3)
        outcomes[text] = v
    bad = {
        text: f"{v.status} n={v.n} witness={v.witness}"
        for text, v in outcomes.items()
        if not (v.status == checks.CONSISTENT and v.up_to == 40)
    }
    _report(3, not bad, f"violations: {bad or 'none'}")


def test_criterion_04_converse_witnesses(tm_table, per01_table):
    tm_nfop = sx.check_nfop(tm_table, 3)
    tm_balance = sx.minimal_imbalance(tm_table)
    per_nfop = sx.check_nfop(per01_table, 3)
    ok = (
        (tm_nfop.status, tm_nfop.n, tm_nfop.witness)
        == (checks.VIOLATED, 3, ("011", "100"))
        and tm_balance is not None
        and tm_balance.u == ""
        and tm_balance.pair == ("00", "11")
        and (per_nfop.status, per_nfop.n, per_nfop.witness)
        == (checks.VIOLATED, 3, ("010", "101"))
    )
    _report(
        4,
        ok,
        f"tm nfop=({tm_nfop.n},{tm_nfop.witness}) balance u={tm_balance.u!r} "
        f"per01 nfop=({per_nfop.n},{per_nfop.witness})",
    )


def test_criterion_05_counterexample_suite(per01_table, ult01_table, zerozero_fib_table):
    problems = []

    ones_per = sx.check_ones_monotone(per01_table)
    if not (ones_per.status == checks.CONSISTENT and ones_per.up_to == 30):
        problems.append(f"(01)^w ones {ones_per.status}")
    if sx.sturmian_verdict(sx.parse_spec("periodic:01"), max_len=10).combined.status != checks.NOT_STURMIAN:
        problems.append("(01)^w judged Sturmian")

    ones_00 = sx.check_ones_monotone(zerozero_fib_table)
    if not (ones_00.status == checks.CONSISTENT and ones_00.up_to == 30):
        problems.append(f"00fib ones {ones_00.status}")
    if sx.check_balance(zerozero_fib_table).status != checks.VIOLATED:
        problems.append("00fib not refuted")

    h_ult = sx.check_hamming2(ult01_table)
    ones_ult = sx.check_ones_monotone(ult01_table)
    nfop_ult = sx.check_nfop(ult01_table, 3)
    if not (h_ult.status == checks.CONSISTENT and h_ult.up_to == 30):
        problems.append(f"01^w hamming2 {h_ult.status}")
    if not (ones_ult.status == checks.CONSISTENT and ones_ult.up_to == 30):
        problems.append(f"01^w ones {ones_ult.status}")
    if (nfop_ult.status, nfop_ult.n, nfop_ult.witness) != (
        checks.VIOLATED,
        2,
        ("01", "11"),
    ):
        problems.append(f"01^w nfop {nfop_ult.status} n={nfop_ult.n} {nfop_ult.witness}")

    _report(5, not problems, "; ".join(problems) or "all three counterexamples behave")


def test_criterion_06_imbalance_classification(tm_table, zerozero_fib_table):
    w00 = sx.classify_imbalance(zerozero_fib_table)
    prefixes_minimal = all(
        zerozero_fib_table.word[:n] == zerozero_fib_table.extremal(n)[0]
        for n in range(1, zerozero_fib_table.max_len + 1)
    )
    wtm = sx.classify_imbalance(tm_table)
    ok = (
        w00.case == checks.PREFIX_CASE
        and w00.prefix_letter == "0"
        and "0" + w00.u + "0" == "000"
        and zerozero_fib_table.word.startswith("000")
        and w00.occurrences == 1
        and w00.extremal_kind == "min"
        and prefixes_minimal
        and wtm.case == checks.BOTH_EXTENSIONS
    )
    _report(6, ok, f"00fib case={w00.case} xux=000 count={w00.occurrences}; tm case={wtm.case}")


def test_criterion_07_variant_equivalence(
    fib_table, tm_table, per01_table, ult01_table, zerozero_fib_table
):
    corpus = {
        "fib": fib_table,
        "tm": tm_table,
        "per01": per01_table,
        "ult01": ult01_table,
        "00fib": zerozero_fib_table,
        "std:2,1,2,1": checks.saturated_table(sx.parse_spec("std:2,1,2,1"), 16),
        "mech:2/5@0": checks.saturated_table(sx.parse_spec("mech:2/5@0"), 16),
    }
    disagreements = []
    for name, table in corpus.items():
        triples = [
            (v.status, v.n, v.witness)
            for v in (sx.check_nfop(table, k) for k in (1, 2, 3))
        ]
        if not triples[0] == triples[1] == triples[2]:
            disagreements.append(f"{name}: {triples}")
    ternary = sx.check_nfop(
        checks.saturated_table(sx.parse_spec("periodic:012"), 8), 1
    )
    if ternary.status != checks.VIOLATED:
        disagreements.append(f"periodic:012 variant 1 gave {ternary.status}")
    _report(7, not disagreements, "; ".join(disagreements) or "variants agree everywhere")


def test_criterion_08_christoffel_property_harness():
    pairs = [
        (p, s - p)
        for s in range(2, 21)
        for p in range(1, s)
        if math.gcd(p, s - p) == 1
    ]
    failures = {}
    for p, q in pairs:
        table = sx.FactorTable(prefix(f"mech:{p}/{p + q}@0", 10_000), p + q)
        report = sx.verify_christoffel_properties(p, q, table)
        if not report.all_passed:
            failures[(p, q)] = [i.name for i in report.items if not i.passed]
    failing_items = sorted({name for items in failures.values() for name in items})
    _report(
        8,
        not failures,
        f"{len(pairs) - len(failures)}/{len(pairs)} pairs pass all five; "
        f"failing items {failing_items or 'none'}",
    )


def test_criterion_09_oracle_equivalence():
    rng = random.Random(90210)
    mismatches = []
    for trial in range(100):
        length = rng.randint(12, 200)
        w = "".join(rng.choice("01") for _ in range(length))
        fs = {n: naive.distinct_factors(w, n) for n in range(1, 13)}
        sat = {n: naive.saturated(w, n) for n in range(1, 13)}

        full = sx.FactorTable(w, 12)
        for n in range(1, 13):
            if list(full.factors(n)) != fs[n]:
                mismatches.append(f"trial {trial}: factors at n={n}")
            if full.saturated(n) != sat[n]:
                mismatches.append(f"trial {trial}: saturation at n={n}")
            for i, v in enumerate(fs[n]):
                expect = fs[n][i + 1] if i + 1 < len(fs[n]) else None
                if full.successor(v) != expect:
                    mismatches.append(f"trial {trial}: successor of {v}")
                if full.count(v) != naive.occurrences(w, v):
                    mismatches.append(f"trial {trial}: count of {v}")

        for max_len in range(1, 13):
            table = full if max_len == 12 else sx.FactorTable(w, max_len)

            got = sx.check_balance(table)
            want_status, want_pair = naive.balance_verdict(w, max_len)
            if (got.status, got.witness) != (want_status, want_pair):
                mismatches.append(f"trial {trial}: balance at N={max_len}")

            got = sx.check_nfop(table, 3)
            skipped = False
            want = None
            for n in range(1, max_len + 1):
                if not sat[n]:
                    skipped = True
                    continue
                for v, vp in zip(fs[n], fs[n][1:]):
                    if not naive.nfop_pair_ok(v, vp, 3):
                        want = (checks.VIOLATED, n, (v, vp))
                        break
                if want:
                    break
            if want is None:
                want = (
                    (checks.INDETERMINATE, None, None)
                    if skipped
                    else (checks.CONSISTENT, None, None)
                )
            if (got.status, got.n, got.witness) != want:
                mismatches.append(f"trial {trial}: nfop at N={max_len}")
    _report(9, not mismatches, "; ".join(mismatches[:5]) or "100 prefixes, exact agreement")


def test_criterion_10_adjacency_characterization():
    specs = ["fib", "std:2,1,2,1,2,1", "std:1,2,3,1,2,3", "std:3,1,4,1,5"]
    problems = []
    checked = 0
    for text in specs:
        table = checks.saturated_table(sx.parse_spec(text), 20)
        verdict = sx.check_nfop(table, 3)
        if verdict.status != checks.CONSISTENT:
            problems.append(f"{text}: nfop {verdict.status}")
            continue
        for n in range(2, 21):
            for v in table.factors(n):
                partners = []
                if v.endswith("0"):
                    partners.append(v[:-1] + "1")
                for i in range(n - 1):
                    if v[i : i + 2] == "01":
                        partners.append(v[:i] + "10" + v[i + 2 :])
                for partner in partners:
                    if table.is_factor(partner):
                        checked += 1
                        if table.successor(v) != partner:
                            problems.append(f"{text}: {v} vs {partner} not adjacent")
    ok = not problems and checked > 0
    _report(10, ok, "; ".join(problems[:5]) or f"{checked} shape pairs, all adjacent")
