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

from dataclasses import dataclass, replace

from .errors import (
    AlphabetTooLarge,
    BudgetExceeded,
    NonBinaryAlphabet,
    NotImbalanced,
)
from .factors import FactorTable
from .words import (
    PREFIX_BUDGET,
    Literal,
    StandardSequence,
    WordSpec,
    format_spec,
    generate_prefix,
    known_flags,
)

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


@dataclass(frozen=True)
class Verdict:
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


@dataclass(frozen=True)
class NfopViolation:
    """An adjacent factor pair that fits none of the allowed shapes."""

    n: int
    pair: tuple[str, str]
    variant: int
    reason: str


@dataclass(frozen=True)
class ImbalanceWitness:
    """Shortest u with 0u0 and 1u1 both present, and how it sits in the word."""

    u: str
    pair: tuple[str, str]
    case: str | None = None
    prefix_letter: str | None = None
    occurrences: int | None = None
    extremal_kind: str | None = None


def _require_binary(table: FactorTable, check: str) -> None:
    if not table.is_binary:
        raise NonBinaryAlphabet(
            f"{check} needs letters within 01, table has {table.alphabet!r}"
        )


def _least_core(table: FactorTable, lo_head: str, hi_head: str) -> str | None:
    """Shortest (then lex-least) u with lo_head+u+0 and hi_head+u+1 both present.

    Both heads have the same length, and every candidate u is itself a factor.
    """
    extra = len(lo_head) + 1
    for m in range(extra, table.max_len + 1):
        candidates = ("",) if m == extra else table.factors(m - extra)
        for u in candidates:
            if table.is_factor(f"{lo_head}{u}0") and table.is_factor(f"{hi_head}{u}1"):
                return u
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
    sat = table.saturated_lengths()
    witness = minimal_imbalance(table)
    if witness is not None:
        return Verdict(
            "balance",
            VIOLATED,
            witness=witness.pair,
            n=len(witness.pair[0]),
            saturated_lengths=sat,
        )
    return Verdict(
        "balance",
        CONSISTENT,
        up_to=max(table.max_len - 2, 0),
        saturated_lengths=sat,
    )


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
            return replace(witness, case=BOTH_EXTENSIONS)
    for x, kind in (("0", "min"), ("1", "max")):
        xux = x + u + x
        if table.word.startswith(xux):
            if _prefixes_extremal(table, kind):
                return replace(
                    witness,
                    case=PREFIX_CASE,
                    prefix_letter=x,
                    occurrences=table.count(xux),
                    extremal_kind=kind,
                )
            break
    return replace(witness, case=WINDOW_INDETERMINATE)


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

    ``sought`` names checks among "nfop" (of ``variant``), "hamming2" and
    "ones" (binary only).  Each factor of a saturated length is read once as
    a base-16 code, one nibble per digit letter.  A pair whose codes differ
    by a step to the next final letter (XOR 1) or by a 01 -> 10 swap fits
    every nfop variant, differs in two letters at most and keeps the
    1-count, so it passes outright; any other pair gets the exact tests.
    The first fault of a check (shortest length, then lex-least pair) is its
    witness, and the walk stops once every sought check has one.  A check
    with no fault is Indeterminate when unsaturated lengths were skipped.
    """
    sat = table.saturated_lengths()
    pending = set(sought)
    found: dict[str, Verdict] = {}

    def fault(check, v, vp, n, why):
        pending.remove(check)
        found[check] = Verdict(
            check, VIOLATED, witness=(v, vp), n=n, reason=why, saturated_lengths=sat
        )

    for n in sat:
        fs = table.factors(n)
        codes = [int(v, 16) for v in fs]
        for v, vp, c, cp in zip(fs, fs[1:], codes, codes[1:]):
            x = c ^ cp
            if x == 1:
                continue
            # The swap: x is 0x11 on a nibble boundary and c holds 01 there.
            s = x.bit_length() - 5
            if s >= 0 and not s & 3 and x == 0x11 << s and (c >> s) & 0xFF == 1:
                continue
            if "nfop" in pending and (why := _nfop_shape(v, vp, variant)):
                fault("nfop", v, vp, n, why)
            # Binary codes: each differing letter is one bit of x, each 1 one bit.
            if "hamming2" in pending and x.bit_count() > 2:
                fault("hamming2", v, vp, n, _differ_reason(v, vp))
            if "ones" in pending and (a := c.bit_count()) > (b := cp.bit_count()):
                fault("ones", v, vp, n, f"1-count drops from {a} to {b}")
            if not pending:
                return tuple(found[check] for check in sought)
    skipped = [n for n in range(1, table.max_len + 1) if not table.saturated(n)]
    if skipped:
        why = "unsaturated lengths " + ",".join(str(n) for n in skipped)
        rest = {"status": INDETERMINATE, "reason": why}
    else:
        rest = {"status": CONSISTENT, "up_to": table.max_len}
    return tuple(
        found.get(check) or Verdict(check, saturated_lengths=sat, **rest)
        for check in sought
    )


def _first_mismatches(v: str, vp: str) -> list[int]:
    """The first (at most three) positions where equal-length v and vp differ.

    Read in base 16, each digit letter is one nibble, so the XOR of the words
    is nonzero exactly where they differ; its top nonzero nibble is leftmost.
    """
    x = int(v, 16) ^ int(vp, 16)
    found: list[int] = []
    while x and len(found) < 3:
        k = (x.bit_length() - 1) // 4
        found.append(len(v) - 1 - k)
        x &= (1 << 4 * k) - 1
    return found


def _differ_reason(v: str, vp: str) -> str:
    d = sum(1 for a, b in zip(v, vp) if a != b)
    return f"differ in {d} positions"


def _nfop_shape(v: str, vp: str, variant: int) -> str | None:
    """Why the adjacent pair (v, vp) fits no allowed shape, or None if it fits."""
    diffs = _first_mismatches(v, vp)
    if len(diffs) == 1:
        i = diffs[0]
        if i != len(v) - 1:
            return "single mismatch not at the last position"
        if variant != 1 and ord(vp[i]) - ord(v[i]) != 1:
            return "last letters are not consecutive"
        return None
    if len(diffs) == 2:
        i, j = diffs
        if j != i + 1:
            return "mismatch positions are not adjacent"
        a, b = v[i], v[j]
        if vp[i] != b or vp[j] != a:
            return "adjacent mismatches are not a transposition"
        if not a < b:
            return "transposed letters are not ascending"
        if variant != 1 and ord(b) - ord(a) != 1:
            return "transposed letters are not consecutive"
        return None
    return _differ_reason(v, vp)


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


def find_nfop_violation(table: FactorTable, variant: int = 3) -> NfopViolation | None:
    """Structured witness behind a Violated :func:`check_nfop` verdict."""
    verdict = check_nfop(table, variant)
    if verdict.status != VIOLATED:
        return None
    return NfopViolation(verdict.n, verdict.witness, variant, verdict.reason)


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
    sat = table.saturated_lengths()
    for n in sat:
        p = table.complexity(n)
        if p <= n:
            return Verdict(
                "complexity",
                ULTIMATELY_PERIODIC,
                n=n,
                reason=f"complexity {p} <= {n}",
                saturated_lengths=sat,
            )
    return Verdict(
        "complexity", APPARENTLY_APERIODIC, up_to=table.max_len, saturated_lengths=sat
    )


def recurrence_heuristic(table: FactorTable, known: bool | None = None) -> Verdict:
    """Hunt for a factor occurring exactly once, well before the window end.

    A unioccurrent factor that ends inside the first half strongly suggests
    the word is not recurrent.  An a-priori flag from the generating spec,
    when available, overrides the heuristic.
    """
    sat = table.saturated_lengths()
    if known is True:
        return Verdict(
            "recurrence",
            RECURRENT_CONSISTENT,
            up_to=table.max_len,
            reason="a-priori recurrent",
            saturated_lengths=sat,
        )
    witness = _unioccurrent_early_factor(table)
    if known is False:
        return Verdict(
            "recurrence",
            NON_RECURRENT,
            witness=(witness,) if witness is not None else None,
            n=len(witness) if witness is not None else None,
            reason="a-priori non-recurrent",
            saturated_lengths=sat,
        )
    if witness is not None:
        return Verdict(
            "recurrence",
            NON_RECURRENT,
            witness=(witness,),
            n=len(witness),
            saturated_lengths=sat,
        )
    return Verdict(
        "recurrence", RECURRENT_CONSISTENT, up_to=table.max_len, saturated_lengths=sat
    )


def _unioccurrent_early_factor(table: FactorTable) -> str | None:
    half = len(table.word) // 2
    for n in range(1, table.max_len + 1):
        for v in table.factors(n):
            if table.count(v) == 1 and table.first_occurrence(v) + n <= half:
                return v
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

    Doubling stops at PREFIX_BUDGET (or at the end of a literal), in which
    case the table simply comes back with unsaturated lengths and downstream
    checks degrade to Indeterminate.
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
        table = FactorTable(generate_prefix(spec, length), max_len)
        # Each shorter factor lies in a length-max_len window: this saturates all.
        if length >= cap or table.saturated(max_len):
            return table
        target *= 2


@dataclass(frozen=True)
class SturmianReport:
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
    """The six single-property verdicts of one table, in report order.

    nfop is variant 3 on a binary table and variant 1 otherwise; the checks
    that need a binary alphabet come back Indeterminate on any other.
    """
    if table.is_binary:
        nfop, hamming, ones = _adjacent_faults(table, ("nfop", "hamming2", "ones"))
        balance = check_balance(table)
    else:
        (nfop,) = _adjacent_faults(table, ("nfop",), 1)
        why, sat = "alphabet is not binary", table.saturated_lengths()
        balance, hamming, ones = (
            Verdict(c, INDETERMINATE, reason=why, saturated_lengths=sat)
            for c in ("balance", "hamming2", "ones")
        )
    complexity = periodicity_certificate(table)
    recurrence = recurrence_heuristic(table, known=known_flags(spec).recurrent)
    return nfop, balance, complexity, hamming, ones, recurrence


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
    verdicts = _battery(spec, table)
    return SturmianReport(
        spec_text=format_spec(spec),
        prefix_length=len(table.word),
        max_len=max_len,
        verdicts=verdicts,
        combined=_combined_judgment(table, *verdicts[:5]),
    )


def _combined_judgment(table, nfop, balance, complexity, hamming, ones) -> Verdict:
    sat = table.saturated_lengths()
    for v in (nfop, balance, hamming, ones):
        if v.status == VIOLATED:
            return Verdict(
                "sturmian",
                NOT_STURMIAN,
                witness=v.witness,
                n=v.n,
                reason=f"{v.check} violated",
                saturated_lengths=sat,
            )
    if complexity.status == ULTIMATELY_PERIODIC:
        return Verdict(
            "sturmian",
            NOT_STURMIAN,
            n=complexity.n,
            reason=complexity.reason,
            saturated_lengths=sat,
        )
    for n in range(1, table.max_len + 1):
        # Window counts never overshoot the word's true complexity, so an
        # excess over n+1 refutes regardless of saturation.
        if table.complexity(n) > n + 1:
            return Verdict(
                "sturmian",
                NOT_STURMIAN,
                n=n,
                reason=f"complexity {table.complexity(n)} > {n + 1}",
                saturated_lengths=sat,
            )
    if nfop.status == CONSISTENT and all(table.complexity(n) == n + 1 for n in sat):
        return Verdict(
            "sturmian", STURMIAN_CONSISTENT, up_to=table.max_len, saturated_lengths=sat
        )
    return Verdict(
        "sturmian",
        INDETERMINATE,
        reason="window could not certify all lengths",
        saturated_lengths=sat,
    )


@dataclass(frozen=True)
class HarnessOutcome:
    spec_text: str
    assertion: str
    result: str  # "pass" | "fail" | "skip"
    detail: str | None = None


@dataclass(frozen=True)
class HarnessReport:
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
    on binary tables.  Failures are report entries, never exceptions.
    """
    if not corpus:
        raise ValueError("corpus must be nonempty")
    if labels is None:
        labels = [format_spec(spec) for spec in corpus]
    elif len(labels) != len(corpus):
        raise ValueError("labels and corpus must have the same length")
    outcomes: list[HarnessOutcome] = []

    def record(label, assertion, result, detail=None):
        outcomes.append(HarnessOutcome(label, assertion, result, detail))

    def judge(label, assertion, ok, fail_detail):
        record(label, assertion, "pass" if ok else "fail", None if ok else fail_detail)

    for label, spec in zip(labels, corpus):
        table = saturated_table(spec, max_len, prefix_len)
        flags = known_flags(spec)
        flagged = flags.recurrent is True and flags.aperiodic is True
        binary = table.is_binary
        nfop, balance, cert, hamming, ones, _ = _battery(spec, table)

        if nfop.status == CONSISTENT and binary:
            ok = balance.status == CONSISTENT
            judge(label, "nfop=>balance", ok, str(balance.witness))
            excl = find_extension_exclusion(table)
            judge(label, "nfop=>extension-exclusion", excl is None, f"u={excl!r}")
            ok = cert.status == APPARENTLY_APERIODIC
            judge(label, "nfop=>aperiodic", ok, cert.reason)
        else:
            detail = "non-binary table"
            if nfop.status != CONSISTENT:
                detail = f"nfop {nfop.status}"
            record(label, "nfop=>balance", "skip", detail)
            record(label, "nfop=>extension-exclusion", "skip", detail)
            record(label, "nfop=>aperiodic", "skip", detail)

        if isinstance(spec, StandardSequence) or flagged:
            ok = nfop.status != VIOLATED
            judge(label, "sturmian-generator-nfop", ok, str(nfop.witness))
        else:
            record(label, "sturmian-generator-nfop", "skip", "not a Sturmian generator")

        if binary and flagged:
            statuses = {nfop.status, hamming.status, ones.status}
            if INDETERMINATE in statuses:
                record(label, "recurrent-aperiodic-agreement", "skip", "indeterminate")
            else:
                record(
                    label,
                    "recurrent-aperiodic-agreement",
                    "pass" if len(statuses) == 1 else "fail",
                    f"nfop={nfop.status} hamming2={hamming.status} ones={ones.status}",
                )
        else:
            record(
                label,
                "recurrent-aperiodic-agreement",
                "skip",
                "not flagged recurrent and aperiodic",
            )

        if binary:
            # nfop is variant 3 here, and variant 2 differs from it only by
            # the binary precondition, so it stands for both; 1 runs anew.
            triples = [
                (v.status, v.witness, v.n) for v in (check_nfop(table, 1), nfop, nfop)
            ]
            judge(label, "variant-agreement", triples[0] == triples[1], str(triples))
        else:
            record(label, "variant-agreement", "skip", "non-binary table")

    return HarnessReport(tuple(outcomes))
