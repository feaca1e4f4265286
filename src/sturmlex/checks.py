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

from functools import lru_cache
from itertools import accumulate, chain, compress, count, repeat
from operator import ne, rshift, sub

from .errors import BudgetExceeded, NonBinaryAlphabet, NotImbalanced, WindowTooLarge
from .factors import FactorTable, _language_codes, _probe, decode
from .words import PREFIX_BUDGET, KnownFlags, Literal, Record, WordSpec, generate_prefix

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
        letters = "".join(table.factors(1))
        raise NonBinaryAlphabet(f"{check} needs letters within 01, table has {letters!r}")


def _least_core(table: FactorTable, lo_head: str, hi_head: str) -> str | None:
    """Shortest (then lex-least) u with lo_head+u+0 and hi_head+u+1 both present.

    Both heads have length h and lo_head ends in 0.  On a binary table a
    lo_head tail (an entry cut after its head) below a hi_head tail first
    differs from it by 0 against 1, so the LCP of the least lo_head tail and
    the greatest hi_head tail with a letter there is the shortest u, and the
    only one of its length.  Other alphabets are scanned length by length.
    """
    h, n = len(lo_head), table.max_len - len(lo_head)
    if n < 1:
        return None
    if not table.is_binary:
        for m in range(n):
            for u in table.factors(m) if m else ("",):
                if table.is_factor(f"{lo_head}{u}0") and table.is_factor(f"{hi_head}{u}1"):
                    return u
        return None
    codes, lengths = table.codes, table.lengths
    i, j, shift = table._range(lo_head)
    if i == j or lengths[i] == h:
        return None
    cut = (1 << shift) - 1
    tail = codes[i] & cut
    lo, hi, _ = table._range(hi_head)
    for k in reversed(range(lo, hi)):
        if codes[k] & cut <= tail:
            return None
        q = n - ((((codes[k] & cut) ^ tail).bit_length() + 1) >> 1)
        if q < lengths[k] - h:
            return decode(tail >> 2 * (n - q), q, 2)
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
    Violated verdict never carries a saturation caveat; finding none claims
    balance up to max_len - 2 only when every length is saturated."""
    witness = minimal_imbalance(table)
    if witness is not None:
        pair = witness.pair
        return _stamped(table, "balance", VIOLATED, witness=pair, n=len(pair[0]))
    if table.frontier < table.max_len:
        return _stamped(table, "balance", **_faultless(table, CONSISTENT))
    return _stamped(table, "balance", CONSISTENT, up_to=max(table.max_len - 2, 0))


def classify_imbalance(table: FactorTable) -> ImbalanceWitness:
    """Classify the minimal imbalance witness of an imbalanced table.

    BothExtensions when 10u0 and 01u1 both occur.  Otherwise PrefixCase if
    xux begins the indexed word, x its first letter, and then every prefix
    of the window is lex-least (x = 0) or lex-greatest (x = 1); else the
    case is WindowIndeterminate.

    The proof is for x = 0; exchanging the letters reverses the order, and
    the shortest u is unique, so x = 1 follows.  F is the set of factors of
    up to max_len letters, w the word.  It uses Lothaire, *Algebraic
    Combinatorics on Words*, Prop. 2.1.3 and its proof: a shortest u is a
    palindrome, and two factors of one length whose 1-counts differ by 2
    contain 0z0 and 1z1, z at least 2 letters shorter.

    (a) Prefixes of up to |u| + 2 letters are extremal: a factor below one
    first differs from it at some j <= |u|, and gives 0u'0 and 1u'1,
    u' = u[:j-1], shorter than u.
    (b) If a longer prefix fails, 10u0 is in F.  Take the least failing
    length m >= |u| + 3: q = w[:m-1] is the least factor of its length,
    w[m-1] = 1, and q0 occurs at some p >= 1.  If w[p-1] = 1, 10u0 is in
    F.  If w[p-1] = 0, 0q[:-1] is a factor below q unless q = 0^(m-1);
    then u = 0^|u|, and the run of zeros that holds q0 follows a 1, since
    w's first run is one zero too short, so again 10u0 is in F.
    (c) 01u1 is in F whenever |u| + 3 <= max_len.  The leftmost 1u1 starts
    at some r >= 1.  If w[r-1] = 1: for u = 1^k, 1u1 also occurs at r-1;
    for u ending in 0, 11u[:-1] and 0u differ by two 1s, which gives a
    shorter imbalance; for u = 1^a0..., 1^(a+2) and 01^a0 give the shorter
    imbalance 1^a.  Each contradicts the choice of r or of u.
    So a prefix that is not extremal, m <= max_len letters long, puts both
    10u0 and 01u1 in F, and the BothExtensions test has returned first.
    """
    witness = minimal_imbalance(table)
    if witness is None:
        raise NotImbalanced("no u with 0u0 and 1u1 both present")
    u = witness.u
    if len(u) + 3 <= table.max_len:
        if table.is_factor(f"10{u}0") and table.is_factor(f"01{u}1"):
            return witness.replace(case=BOTH_EXTENSIONS)
    x = table.word[0]
    if table.word.startswith(f"{x}{u}{x}"):
        return witness.replace(
            case=PREFIX_CASE,
            prefix_letter=x,
            occurrences=table.count(f"{x}{u}{x}"),
            extremal_kind="min" if x == "0" else "max",
        )
    return witness.replace(case=WINDOW_INDETERMINATE)


def _adjacent_faults(
    table: FactorTable, sought: tuple[str, ...], variant: int = 3
) -> tuple[Verdict, ...]:
    """The verdicts of the sought pair checks, in order, from one walk.

    ``sought`` names checks among "nfop" (of ``variant``), "hamming2" and
    "ones" (binary only).
    The walk pairs consecutive :meth:`FactorTable.starts` a < b, whose
    prefixes neighbour at lengths lo..top (the frontier), lo the lcp of b
    plus one, where they first mismatch.  Each pair is judged once, on its
    top-letter prefixes (:func:`_first_faults`).  A check's first fault
    (shortest, then lex-least pair) is its witness; pairs go by ascending lo
    until none can beat one.  A check with no fault is Indeterminate if
    lengths were skipped.

    On a binary table most pairs pass one exact test (:func:`_fitting_steps`)
    and read no lcp.  The 2-bit codes c < cp of two top-letter prefixes
    differ by base-4 digits in {-1, 0, 1}, which write a number one way
    only, so cp - c fits exactly when it is the step of its bit length: 1,
    a final 0 -> 1 step, or 3 << 2j, 01 against 10 at top-j-1 and top-j and
    no other mismatch.  Cut to n letters, lo <= n <= top, either is a swap or
    a final step, which fits nfop of every variant, differs in at most two
    letters and keeps the 1-count from falling.
    """
    size, codes, top, w = table.max_len, table.codes, table.frontier, table.width
    # key -> (n, a, verdict fields) of its first fault so far
    best = dict.fromkeys(sought, (size + 1, 0, _faultless(table, CONSISTENT)))
    starts = table.starts()
    odd, cut = range(1, len(starts)), w * (size - top)
    if table.is_binary:
        # Shifting by 0 would copy every code: uncut, the heads are the starts' codes.
        heads = [*map(codes.__getitem__, starts)]
        if cut:
            heads = [*map(rshift, heads, repeat(cut))]
        diffs = [*map(sub, heads[1:], heads)]
        fits = map(_fitting_steps(top).__getitem__, map(int.bit_length, diffs))
        odd = compress(count(1), map(ne, diffs, fits))
    # No pair that starts past every check's first fault so far can beat one.
    reach = size + 1
    for lo, a, b in sorted((table.lcps[starts[k]] + 1, starts[k - 1], starts[k]) for k in odd):
        if lo > reach:
            break
        v, vp = decode(codes[a] >> cut, top, w), decode(codes[b] >> cut, top, w)
        faults = _first_faults(v, vp, variant)
        for key in sought:
            if (fault := faults[key]) and (fault[0], a) < best[key][:2]:
                n, why = fault
                best[key] = n, a, dict(status=VIOLATED, witness=(v[:n], vp[:n]), n=n, reason=why)
                reach = max(best[k][0] for k in sought)
    return tuple(_stamped(table, key, **best[key][2]) for key in sought)


def _faultless(table: FactorTable, status: str) -> dict:
    """Verdict fields of a check that found no fault: ``status`` up to
    max_len when every length is saturated, else Indeterminate."""
    size, top = table.max_len, table.frontier
    if top == size:
        return {"status": status, "up_to": size}
    skipped = ",".join(map(str, range(top + 1, size + 1)))
    return {"status": INDETERMINATE, "reason": "unsaturated lengths " + skipped}


@lru_cache(maxsize=8)
def _fitting_steps(top: int) -> tuple[int, ...]:
    """By bit length 0..2 top, the one fitting cp - c of top-letter codes c < cp
    (1 at 1, a final step; 3 << 2j at 2j + 2, j <= top - 2, a 01 -> 10 swap),
    else 0.  Kept for the last few frontiers, as a run's tables mostly share one."""
    return (0, 1, *chain.from_iterable((3 << 2 * j, 0) for j in range(top - 1)), 0)


def _first_faults(v: str, vp: str, variant: int) -> dict[str, tuple[int, str] | None]:
    """(n, reason) of each pair check's first fault on the cuts v[:n] <
    vp[:n], lo <= n <= len(v), keyed as in :func:`_adjacent_faults`, or None.

    Only the mismatches change a check's answer as n grows, so they are
    listed once, as the lengths at which they enter, lo first.  nfop fails
    at lo if the letters there are no final step (variants 2 and 3 need
    them consecutive), at lo + 1 unless the first two mismatches swap two
    neighbouring letters (whose consecutiveness lo has judged), else where
    the third enters, as hamming2 does.  The 1-count falls where the
    running sum of the mismatches' 1-count changes first turns negative.
    """
    ends = [*compress(count(1), map(ne, v, vp))]
    lo, hamming = ends[0], (ends[2], "differ in 3 positions") if len(ends) > 2 else None
    if lo == len(v):
        later = None
    elif ends[1:2] != [lo + 1]:
        later = lo + 1, "single mismatch not at the last position"
    elif (v[lo - 1], v[lo]) != (vp[lo], vp[lo - 1]):
        later = lo + 1, "adjacent mismatches are not a transposition"
    else:
        later = hamming
    steps = accumulate((vp[e - 1] == "1") - (v[e - 1] == "1") for e in ends)
    drop = next((e for e, s in zip(ends, steps) if s < 0), None)
    ones = drop and (drop, f"1-count drops from {v[:drop].count('1')} to {vp[:drop].count('1')}")
    step = variant == 1 or ord(vp[lo - 1]) - ord(v[lo - 1]) == 1
    nfop = later if step else (lo, "last letters are not consecutive")
    return {"nfop": nfop, "hamming2": hamming, "ones": ones}


def check_nfop(table: FactorTable, variant: int = 3) -> Verdict:
    """Test every adjacent same-length factor pair against the allowed shapes.

    Unsaturated lengths are skipped; if any were, no violation means Indeterminate.
    """
    if variant not in (1, 2, 3):
        raise ValueError(f"variant must be 1, 2 or 3, got {variant}")
    if variant == 3:
        _require_binary(table, "variant 3")
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

    An undersampled window can undercount factors, which is why unsaturated
    lengths are never used, and why no such n is ApparentlyAperiodicUpTo
    max_len only when every length is saturated; where saturation rests on
    the half-window heuristic, so does the certificate.
    """
    p = table.p
    for n in range(1, table.frontier + 1):
        if p[n] <= n:
            why = f"complexity {p[n]} <= {n}"
            return _stamped(table, "complexity", ULTIMATELY_PERIODIC, n=n, reason=why)
    return _stamped(table, "complexity", **_faultless(table, APPARENTLY_APERIODIC))


def recurrence_heuristic(table: FactorTable, known: KnownFlags | None = None) -> Verdict:
    """The recurrence verdict from the spec's a-priori flags ``known``.

    No window decides it.  A word of unknown recurrence (``literal:``, or a
    bare table, ``known`` None) is Indeterminate, as a finite word w is a
    prefix of the recurrent word w^w.  A word known not to be names its
    shortest prefix that occurs nowhere else (``known.once`` letters, if
    given) when that is at most max_len letters long.
    """
    if known is None or known.recurrent is None:
        why = "a finite word is a prefix of a recurrent word"
        return _stamped(table, "recurrence", INDETERMINATE, reason=why)
    if known.recurrent:
        why = "a-priori recurrent"
        return _stamped(table, "recurrence", RECURRENT_CONSISTENT, up_to=table.max_len, reason=why)
    m = known.once
    found = {"witness": (table.word[:m],), "n": m} if m and m <= table.max_len else {}
    return _stamped(table, "recurrence", NON_RECURRENT, reason="a-priori non-recurrent", **found)


def find_extension_exclusion(table: FactorTable) -> str | None:
    """Shortest (then lex-least) u with both 10u0 and 01u1 present."""
    return _least_core(table, "10", "01")


def default_prefix_length(max_len: int) -> int:
    """Default window for checks: covers small jobs, scales with the bound."""
    return max(4096, 64 * max_len)


def saturated_table(
    spec: WordSpec, max_len: int, prefix_len: int | None = None
) -> FactorTable:
    """Index a prefix of ``prefix_len`` letters (at least max_len, by
    default :func:`default_prefix_length`) at every length up to max_len.

    An infinite spec's language (``spec.language``), read once, certifies
    every length, and p counts its windows, except that a spec Sturmian a
    priori (``spec.flags.sturmian``) stops at max_len + 1 and has p(m) = m + 1.
    A ``literal:`` doubles its window (:func:`factors._probe`) up to its end
    until the newest window fits in the first half; lengths past the
    frontier stay unsaturated, and the checks degrade to Indeterminate."""
    if max_len < 1:
        raise WindowTooLarge(f"need max_len >= 1, got {max_len}")
    target = prefix_len if prefix_len is not None else default_prefix_length(max_len)
    target = max(target, max_len)
    if target > PREFIX_BUDGET:
        raise BudgetExceeded(f"prefix length {target} exceeds budget {PREFIX_BUDGET}")
    if isinstance(spec, Literal):
        word, probe = _probe(spec.word[:PREFIX_BUDGET], max_len, target)
        return FactorTable(word, max_len, probe=probe)
    exact = [*range(1, max_len + 2)] if spec.flags.sturmian else None
    codes, w = _language_codes(spec.language(max_len), max_len, exact and exact[max_len])
    return FactorTable(generate_prefix(spec, target), max_len, exact, (codes, len(codes), w))


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


def _battery(table: FactorTable) -> tuple[Verdict, ...]:
    """The five verdicts before recurrence, in report order.

    nfop is variant 3 on a binary table and variant 1 otherwise; the checks
    that need a binary alphabet come back Indeterminate on any other.
    """
    if table.is_binary:
        nfop, hamming, ones = _adjacent_faults(table, ("nfop", "hamming2", "ones"))
        balance = check_balance(table)
    else:
        (nfop,) = _adjacent_faults(table, ("nfop",), 1)
        balance, hamming, ones = (
            _stamped(table, c, INDETERMINATE, reason="alphabet is not binary")
            for c in ("balance", "hamming2", "ones")
        )
    return nfop, balance, periodicity_certificate(table), hamming, ones


def sturmian_verdict(
    spec: WordSpec, prefix_len: int | None = None, max_len: int = 40
) -> SturmianReport:
    """Run every check on one word and combine all but the recurrence verdict.

    The combined judgment is SturmianConsistentUpTo(max_len) when the
    ordering check is consistent and the observed complexity is n+1 at every
    saturated length; it is NotSturmian on any definitive violation; it is
    Indeterminate otherwise.
    """
    table = saturated_table(spec, max_len, prefix_len)
    verdicts = _battery(table)
    return SturmianReport(
        spec_text=str(spec),
        prefix_length=len(table.word),
        max_len=max_len,
        verdicts=(*verdicts, recurrence_heuristic(table, spec.flags)),
        combined=_combined_judgment(table, *verdicts),
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
    p = table.p
    for n in range(1, table.max_len + 1):
        # Window counts never overshoot the word's true complexity, so an
        # excess over n+1 refutes regardless of saturation.
        if p[n] > n + 1:
            why = f"complexity {p[n]} > {n + 1}"
            return _stamped(table, "sturmian", NOT_STURMIAN, n=n, reason=why)
    if nfop.status == CONSISTENT:
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
    ordering, hamming2 and ones checks.  Failures are report entries, never
    exceptions.
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
    flags = spec.flags
    flagged = flags.recurrent is True and flags.aperiodic is True
    binary = table.is_binary
    nfop, balance, cert, hamming, ones = _battery(table)

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
