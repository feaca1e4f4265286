"""Finite-window deciders for the order structure of binary words.

Every decision here is three-valued.  A violation found among saturated
factor lists is definitive for the underlying infinite word, because factors
of a prefix are factors of the word; consistency claims are always scoped
("up to n"); windows too sparse to decide come back Indeterminate instead of
guessing.  Violation tie-breaking is smallest length first, then lex-least
left element, so witnesses are stable across runs.

The central property checked by :func:`check_nfop` ("nfop" throughout the
package and its CLI) says: every pair of lexicographically consecutive
equal-length factors is either an adjacent ascending transposition
(v = x ab y, v' = x ba y with a < b) or a final-letter step (v = x a,
v' = x b).  Variant 1 allows any a < b, variant 2 requires b = a + 1, and
variant 3 is the binary form with the 01/10 swap.  One walk over adjacent
pairs, on integer factor codes, decides it together with hamming2 and ones.
"""

from __future__ import annotations

from bisect import bisect_left

from .errors import (
    AlphabetTooLarge,
    BudgetExceeded,
    NonBinaryAlphabet,
    NotImbalanced,
)
from .factors import FactorTable, decode, newest_fits, window_counts
from .words import PREFIX_BUDGET, Literal, Record, WordSpec, generate_prefix

# Verdict statuses.
CONSISTENT = "ConsistentUpTo"
VIOLATED = "Violated"
INDETERMINATE = "Indeterminate"
ULTIMATELY_PERIODIC = "UltimatelyPeriodic"
APPARENTLY_APERIODIC = "ApparentlyAperiodicUpTo"
RECURRENT_CONSISTENT = "RecurrentConsistent"
NON_RECURRENT = "NonRecurrentWitness"
STURMIAN_CONSISTENT = "SturmianConsistentUpTo"
NOT_STURMIAN = "NotSturmian"

# Imbalance witness cases.
BOTH_EXTENSIONS = "BothExtensions"
PREFIX_CASE = "PrefixCase"
WINDOW_INDETERMINATE = "WindowIndeterminate"


class Verdict(Record):
    """Outcome of one finite-window check."""

    check: str
    status: str
    up_to: int | None = None
    witness: tuple[str, ...] | None = None
    n: int | None = None
    reason: str | None = None
    saturated_lengths: tuple[int, ...] = ()

    def to_json(self) -> dict:
        """JSON object with pinned key order, safe for golden files."""
        return {
            "check": self.check,
            "status": self.status,
            "upTo": self.up_to,
            "witness": list(self.witness) if self.witness is not None else None,
            "saturatedLengths": list(self.saturated_lengths),
            "n": self.n,
            "reason": self.reason,
        }


class ImbalanceWitness(Record):
    """Shortest u with 0u0 and 1u1 both present, and how it sits in the word."""

    u: str
    pair: tuple[str, str]
    case: str | None = None
    prefix_letter: str | None = None
    occurrences: int | None = None
    extremal_kind: str | None = None


def _stamped(table: FactorTable, check: str, status: str, **fields) -> Verdict:
    """A verdict stamped with the table's saturated lengths."""
    return Verdict(check, status, saturated_lengths=table.saturated_lengths(), **fields)


def _require_binary(table: FactorTable, check: str) -> None:
    if not table.is_binary:
        raise NonBinaryAlphabet(
            f"{check} needs letters within 01, table has {table.alphabet!r}"
        )


def _least_core(table: FactorTable, lo_head: str, hi_head: str) -> str | None:
    """Shortest (then lex-least) u with lo_head+u+0 and hi_head+u+1 both present.

    Both heads have the same length and lo_head ends in 0.  The candidates
    lo_head+u+0 are the codes from lo_head's up to the next head's, in lex
    order of u; each partner hi_head+u+1 is looked up by bisection.
    """
    h = len(lo_head)
    lo, hi = int(lo_head, 16), int(hi_head, 16)
    for m in range(h + 1, table.max_len + 1):
        codes = table.level(m)[0]
        shift = 4 * (m - h)
        # lo_head+u+0 plus delta is hi_head+u+1.
        delta = ((hi - lo) << shift) + 1
        start = bisect_left(codes, lo << shift)
        for c in codes[start : bisect_left(codes, (lo + 1) << shift, start)]:
            if c & 15:
                continue
            i = bisect_left(codes, c + delta)
            if i < len(codes) and codes[i] == c + delta:
                return decode(c, m)[h:-1]
    return None


def minimal_imbalance(table: FactorTable) -> ImbalanceWitness | None:
    """Shortest (then lex-least) u such that 0u0 and 1u1 both occur."""
    _require_binary(table, "balance")
    u = _least_core(table, "0", "1")
    if u is None:
        return None
    return ImbalanceWitness(u=u, pair=(f"0{u}0", f"1{u}1"))


def check_balance(table: FactorTable) -> Verdict:
    """Look for the minimal same-length factor pair (0u0, 1u1).

    Finding one refutes balance outright (both members really occur), so a
    Violated verdict here never carries a saturation caveat.
    """
    _require_binary(table, "balance")
    witness = minimal_imbalance(table)
    if witness is not None:
        pair = witness.pair
        return _stamped(table, "balance", VIOLATED, witness=pair, n=len(pair[0]))
    return _stamped(table, "balance", CONSISTENT, up_to=max(table.max_len - 2, 0))


def classify_imbalance(table: FactorTable) -> ImbalanceWitness:
    """Classify the minimal imbalance witness of an imbalanced table.

    BothExtensions when 10u0 and 01u1 both occur.  Otherwise the prefix
    case is confirmed only if some xux begins the indexed word and every
    prefix of the window is lex-extremal of the matching kind; if neither
    consequence can be confirmed inside the window the case is
    WindowIndeterminate.
    """
    witness = minimal_imbalance(table)
    if witness is None:
        raise NotImbalanced("no u with 0u0 and 1u1 both present")
    u = witness.u
    if len(u) + 3 <= table.max_len:
        if table.is_factor(f"10{u}0") and table.is_factor(f"01{u}1"):
            return witness.replace(case=BOTH_EXTENSIONS)
    for x, kind in (("0", "min"), ("1", "max")):
        xux = x + u + x
        if table.word.startswith(xux):
            if _prefixes_extremal(table, kind):
                return witness.replace(
                    case=PREFIX_CASE,
                    prefix_letter=x,
                    occurrences=table.count(xux),
                    extremal_kind=kind,
                )
            break
    return witness.replace(case=WINDOW_INDETERMINATE)


def _prefixes_extremal(table: FactorTable, kind: str) -> bool:
    pick = 0 if kind == "min" else 1
    for n in range(1, table.max_len + 1):
        if table.word[:n] != table.extremal(n)[pick]:
            return False
    return True


def _adjacent_faults(
    table: FactorTable, sought: tuple[str, ...], variant: int = 3
) -> tuple[Verdict, ...]:
    """The verdicts of the sought pair checks, in order, from one walk.

    ``sought`` names checks among "nfop" (of ``variant``), "nfop1" (nfop of
    variant 1, reported as "nfop"), "hamming2" and "ones" (binary only).
    The walk reads the table's sorted factor codes of each saturated length
    (base 16, one nibble per digit letter).  A pair whose codes differ by a
    step to the next final letter (XOR 1) or by a 01 -> 10 swap fits every
    nfop variant, differs in two letters at most and keeps the 1-count, so it
    passes outright; any other pair gets the exact tests, still on codes.
    The first fault of a check (shortest length, then lex-least pair),
    formatted as text, is its witness, and the walk stops once every sought
    check has one.  A check with no fault is Indeterminate when lengths past
    the saturation frontier were skipped.
    """
    pending = set(sought)
    faults: dict[str, dict] = {}

    def fault(key, c, cp, n, why):
        pending.remove(key)
        witness = (decode(c, n), decode(cp, n))
        faults[key] = {"status": VIOLATED, "witness": witness, "n": n, "reason": why}

    for n in range(1, table.frontier + 1):
        if not pending:
            break
        codes = table.level(n)[0]
        for c, cp in zip(codes, codes[1:]):
            x = c ^ cp
            if x == 1:
                continue
            # The swap: x is 0x11 on a nibble boundary and c holds 01 there.
            s = x.bit_length() - 5
            if s >= 0 and not s & 3 and x == 0x11 << s and (c >> s) & 0xFF == 1:
                continue
            if "nfop" in pending and (why := _nfop_shape(c, cp, variant)):
                fault("nfop", c, cp, n, why)
            if "nfop1" in pending and (why := _nfop_shape(c, cp, 1)):
                fault("nfop1", c, cp, n, why)
            # Binary codes: each differing letter is one bit of x, each 1 one bit.
            if "hamming2" in pending and x.bit_count() > 2:
                fault("hamming2", c, cp, n, _differ_reason(x))
            if "ones" in pending and (a := c.bit_count()) > (b := cp.bit_count()):
                fault("ones", c, cp, n, f"1-count drops from {a} to {b}")
    if table.frontier < table.max_len:
        skipped = range(table.frontier + 1, table.max_len + 1)
        why = "unsaturated lengths " + ",".join(map(str, skipped))
        rest = {"status": INDETERMINATE, "reason": why}
    else:
        rest = {"status": CONSISTENT, "up_to": table.max_len}
    return tuple(
        _stamped(table, "nfop" if key == "nfop1" else key, **faults.get(key, rest))
        for key in sought
    )


def _differ_reason(x: int) -> str:
    """The reason for a pair whose codes XOR to ``x``: its nonzero nibbles."""
    d = sum(1 for k in range(0, x.bit_length(), 4) if x >> k & 15)
    return f"differ in {d} positions"


def _nfop_shape(c: int, cp: int, variant: int) -> str | None:
    """Why the adjacent pair of codes c < cp fits no allowed shape, or None if it fits.

    c ^ cp is nonzero exactly in the nibbles of the letters that differ; its
    top nonzero nibble is the first mismatch, and the next one the second.
    """
    x = c ^ cp
    k = (x.bit_length() - 1) // 4
    rest = x & ((1 << 4 * k) - 1)
    if not rest:
        if k:
            return "single mismatch not at the last position"
        if variant != 1 and cp - c != 1:
            return "last letters are not consecutive"
        return None
    j = (rest.bit_length() - 1) // 4
    if rest & ((1 << 4 * j) - 1):
        return _differ_reason(x)
    if j != k - 1:
        return "mismatch positions are not adjacent"
    a, b = c >> 4 * k & 15, c >> 4 * j & 15
    if cp >> 4 * k & 15 != b or cp >> 4 * j & 15 != a:
        return "adjacent mismatches are not a transposition"
    # c < cp, so at the first mismatch a is below cp's letter there, b.
    if variant != 1 and b - a != 1:
        return "transposed letters are not consecutive"
    return None


def check_nfop(table: FactorTable, variant: int = 3) -> Verdict:
    """Test every adjacent same-length factor pair against the allowed shapes.

    Unsaturated lengths are skipped; if any were, no violation means Indeterminate.
    """
    if variant not in (1, 2, 3):
        raise ValueError(f"variant must be 1, 2 or 3, got {variant}")
    if variant == 3 and not table.is_binary:
        raise AlphabetTooLarge(
            f"variant 3 needs letters within 01, table has {table.alphabet!r}"
        )
    return _adjacent_faults(table, ("nfop",), variant)[0]


def check_hamming2(table: FactorTable) -> Verdict:
    """Adjacent same-length factors must differ in at most two positions."""
    _require_binary(table, "hamming2")
    return _adjacent_faults(table, ("hamming2",))[0]


def check_ones_monotone(table: FactorTable) -> Verdict:
    """1-counts must be non-decreasing along each sorted factor list.

    Checking adjacent pairs suffices: any descent between comparable factors
    implies a descent between some adjacent pair.
    """
    _require_binary(table, "ones")
    return _adjacent_faults(table, ("ones",))[0]


def periodicity_certificate(table: FactorTable) -> Verdict:
    """Complexity p(n) <= n at a saturated n certifies ultimate periodicity.

    The certificate is only as good as the saturation heuristic: an
    undersampled window can undercount factors, which is why unsaturated
    lengths are never used.
    """
    for n in range(1, table.frontier + 1):
        p = table.complexity(n)
        if p <= n:
            why = f"complexity {p} <= {n}"
            return _stamped(table, "complexity", ULTIMATELY_PERIODIC, n=n, reason=why)
    return _stamped(table, "complexity", APPARENTLY_APERIODIC, up_to=table.max_len)


def recurrence_heuristic(table: FactorTable, known: bool | None = None) -> Verdict:
    """Hunt for a factor occurring exactly once, well before the window end.

    A unioccurrent factor that ends inside the first half strongly suggests
    the word is not recurrent.  An a-priori flag from the generating spec,
    when available, overrides the heuristic.
    """
    if known is not True:
        witness = _unioccurrent_early_factor(table)
        if known is False or witness is not None:
            return _stamped(
                table,
                "recurrence",
                NON_RECURRENT,
                witness=(witness,) if witness is not None else None,
                n=len(witness) if witness is not None else None,
                reason="a-priori non-recurrent" if known is False else None,
            )
    why = "a-priori recurrent" if known else None
    return _stamped(
        table, "recurrence", RECURRENT_CONSISTENT, up_to=table.max_len, reason=why
    )


def _unioccurrent_early_factor(table: FactorTable) -> str | None:
    half = len(table.word) // 2
    for n in range(1, table.max_len + 1):
        codes, counts, firsts = table.level(n)
        for c, k, p in zip(codes, counts, firsts):
            if k == 1 and p + n <= half:
                return decode(c, n)
    return None


def find_extension_exclusion(table: FactorTable) -> str | None:
    """Shortest (then lex-least) u with both 10u0 and 01u1 present."""
    return _least_core(table, "10", "01")


def default_prefix_length(max_len: int) -> int:
    """Default window for checks: covers small jobs, scales with the bound."""
    return max(4096, 64 * max_len)


def saturated_table(
    spec: WordSpec, max_len: int, prefix_len: int | None = None
) -> FactorTable:
    """Generate a prefix and index it, doubling until all lengths saturate.

    Each candidate window is probed on its longest length alone, and only
    the window kept is indexed, reusing the probe's windows.  Doubling stops
    at PREFIX_BUDGET (or at the end of a literal), in which case the table
    simply comes back with unsaturated lengths and downstream checks degrade
    to Indeterminate.
    """
    target = prefix_len if prefix_len is not None else default_prefix_length(max_len)
    target = max(target, max_len)
    if target > PREFIX_BUDGET:
        raise BudgetExceeded(f"prefix length {target} exceeds budget {PREFIX_BUDGET}")
    cap = PREFIX_BUDGET
    if isinstance(spec, Literal):
        cap = min(cap, len(spec.word))
    while True:
        length = min(target, cap)
        word = generate_prefix(spec, length)
        windows = window_counts(word, max_len)
        # Each shorter factor lies in a length-max_len window, so saturating
        # max_len saturates every length: the probe needs only that length.
        if length >= cap or newest_fits(word, windows):
            return FactorTable(word, max_len, windows)
        target *= 2


class SturmianReport(Record):
    """All single-property verdicts for one word plus the combined judgment."""

    spec_text: str
    prefix_length: int
    max_len: int
    verdicts: tuple[Verdict, ...]
    combined: Verdict

    def verdict(self, check: str) -> Verdict:
        for v in self.verdicts:
            if v.check == check:
                return v
        raise KeyError(check)

    def to_json(self) -> dict:
        return {
            "spec": self.spec_text,
            "prefixLength": self.prefix_length,
            "maxN": self.max_len,
            "checks": [v.to_json() for v in self.verdicts],
            "combined": self.combined.to_json(),
        }


def _battery(spec: WordSpec, table: FactorTable) -> tuple[Verdict, ...]:
    """The six single-property verdicts in report order, then nfop variant 1.

    nfop is variant 3 on a binary table and variant 1 otherwise; the checks
    that need a binary alphabet come back Indeterminate on any other.  On a
    binary table the same walk judges variant 1: it faults exactly where
    variant 3 does, so seeking it costs one shape test.
    """
    if table.is_binary:
        sought = ("nfop", "hamming2", "ones", "nfop1")
        nfop, hamming, ones, nfop_1 = _adjacent_faults(table, sought)
        balance = check_balance(table)
    else:
        (nfop,) = _adjacent_faults(table, ("nfop",), 1)
        nfop_1 = nfop
        balance, hamming, ones = (
            _stamped(table, c, INDETERMINATE, reason="alphabet is not binary")
            for c in ("balance", "hamming2", "ones")
        )
    complexity = periodicity_certificate(table)
    recurrence = recurrence_heuristic(table, known=spec.flags.recurrent)
    return nfop, balance, complexity, hamming, ones, recurrence, nfop_1


def sturmian_verdict(
    spec: WordSpec, prefix_len: int | None = None, max_len: int = 40
) -> SturmianReport:
    """Run every check on one word and combine them.

    The combined judgment is SturmianConsistentUpTo(max_len) when the
    ordering check is consistent and the observed complexity is n+1 at every
    saturated length; it is NotSturmian on any definitive violation; it is
    Indeterminate otherwise.
    """
    table = saturated_table(spec, max_len, prefix_len)
    verdicts = _battery(spec, table)[:6]
    return SturmianReport(
        spec_text=str(spec),
        prefix_length=len(table.word),
        max_len=max_len,
        verdicts=verdicts,
        combined=_combined_judgment(table, *verdicts[:5]),
    )


def _combined_judgment(table, nfop, balance, complexity, hamming, ones) -> Verdict:
    for v in (nfop, balance, hamming, ones):
        if v.status == VIOLATED:
            why = f"{v.check} violated"
            return _stamped(
                table, "sturmian", NOT_STURMIAN, witness=v.witness, n=v.n, reason=why
            )
    if complexity.status == ULTIMATELY_PERIODIC:
        return _stamped(
            table, "sturmian", NOT_STURMIAN, n=complexity.n, reason=complexity.reason
        )
    for n in range(1, table.max_len + 1):
        # Window counts never overshoot the word's true complexity, so an
        # excess over n+1 refutes regardless of saturation.
        if (p := table.complexity(n)) > n + 1:
            why = f"complexity {p} > {n + 1}"
            return _stamped(table, "sturmian", NOT_STURMIAN, n=n, reason=why)
    saturated = range(1, table.frontier + 1)
    if nfop.status == CONSISTENT and all(table.complexity(n) == n + 1 for n in saturated):
        return _stamped(table, "sturmian", STURMIAN_CONSISTENT, up_to=table.max_len)
    why = "window could not certify all lengths"
    return _stamped(table, "sturmian", INDETERMINATE, reason=why)


class HarnessOutcome(Record):
    spec_text: str
    assertion: str
    result: str  # "pass" | "fail" | "skip"
    detail: str | None = None


class HarnessReport(Record):
    outcomes: tuple[HarnessOutcome, ...]

    @property
    def all_passed(self) -> bool:
        return all(o.result != "fail" for o in self.outcomes)

    def failures(self) -> list[HarnessOutcome]:
        return [o for o in self.outcomes if o.result == "fail"]

    def to_json(self) -> dict:
        return {
            "allPassed": self.all_passed,
            "entries": [
                {
                    "spec": o.spec_text,
                    "assertion": o.assertion,
                    "result": o.result,
                    "detail": o.detail,
                }
                for o in self.outcomes
            ],
        }


def equivalence_harness(
    corpus: list[WordSpec],
    max_len: int,
    prefix_len: int | None = None,
    labels: list[str] | None = None,
) -> HarnessReport:
    """Assert the cross-check implications that must hold at window scale.

    Per word: (a) an ordering-consistent binary table must be
    balance-consistent, contain no u with 10u0 and 01u1 both present, and
    look aperiodic (skipped on non-binary tables); (b) specs known a priori
    to describe Sturmian words never produce an ordering violation; (c) words
    flagged recurrent and aperiodic must get agreeing verdicts from the
    ordering, hamming2 and ones checks; (d) the three ordering variants agree
    on binary tables, variant 1 judged in the battery's own pair walk.
    Failures are report entries, never exceptions.
    """
    if not corpus:
        raise ValueError("corpus must be nonempty")
    if labels is None:
        labels = [str(spec) for spec in corpus]
    elif len(labels) != len(corpus):
        raise ValueError("labels and corpus must have the same length")
    outcomes = [
        HarnessOutcome(label, *entry)
        for label, spec in zip(labels, corpus)
        for entry in _assertions(spec, saturated_table(spec, max_len, prefix_len))
    ]
    return HarnessReport(tuple(outcomes))


def _judged(assertion: str, ok: bool, detail: str) -> tuple[str, str, str | None]:
    """A pass without detail, or a fail with ``detail``."""
    return (assertion, "pass", None) if ok else (assertion, "fail", detail)


def _assertions(spec: WordSpec, table: FactorTable):
    """(assertion, result, detail) of each harness assertion on one word."""
    flagged = spec.flags.recurrent is True and spec.flags.aperiodic is True
    binary = table.is_binary
    nfop, balance, cert, hamming, ones, _, nfop_1 = _battery(spec, table)

    if nfop.status == CONSISTENT and binary:
        balanced = balance.status == CONSISTENT
        yield _judged("nfop=>balance", balanced, str(balance.witness))
        # 10u0 and 01u1 contain 0u0 and 1u1, so a balanced table has no such u.
        excl = None if balanced else find_extension_exclusion(table)
        yield _judged("nfop=>extension-exclusion", excl is None, f"u={excl!r}")
        ok = cert.status == APPARENTLY_APERIODIC
        yield _judged("nfop=>aperiodic", ok, cert.reason)
    else:
        detail = f"nfop {nfop.status}" if nfop.status != CONSISTENT else "non-binary table"
        for assertion in ("nfop=>balance", "nfop=>extension-exclusion", "nfop=>aperiodic"):
            yield assertion, "skip", detail

    if flagged:
        ok = nfop.status != VIOLATED
        yield _judged("sturmian-generator-nfop", ok, str(nfop.witness))
    else:
        yield "sturmian-generator-nfop", "skip", "not a Sturmian generator"

    agreement = "recurrent-aperiodic-agreement"
    statuses = {nfop.status, hamming.status, ones.status}
    if not (binary and flagged):
        yield agreement, "skip", "not flagged recurrent and aperiodic"
    elif INDETERMINATE in statuses:
        yield agreement, "skip", "indeterminate"
    else:
        detail = f"nfop={nfop.status} hamming2={hamming.status} ones={ones.status}"
        yield agreement, "pass" if len(statuses) == 1 else "fail", detail

    if binary:
        # nfop is variant 3 here, and variant 2 differs from it only by
        # the binary precondition, so it stands for both.
        triples = [(v.status, v.witness, v.n) for v in (nfop_1, nfop, nfop)]
        yield _judged("variant-agreement", triples[0] == triples[1], str(triples))
    else:
        yield "variant-agreement", "skip", "non-binary table"
