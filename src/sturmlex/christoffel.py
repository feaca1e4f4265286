"""Christoffel words of rational slope and their factor-level structure.

The lower Christoffel word of slope p/(p+q) is produced by one exact integer
formula; the upper word is derived as the only other unbordered conjugate
rather than constructed independently, so a single construction carries all
the validation weight.  Slope convention: p counts the ones, p+q is the
length.
"""

from __future__ import annotations

import math

from .errors import BudgetExceeded, NotCoprime, SingularAmbiguous, SingularNotFound
from .factors import FactorTable, is_unbordered
from .words import PREFIX_BUDGET, Record


def lower_christoffel(p: int, q: int) -> str:
    """Word of length p+q with exactly p ones, starting 0 and ending 1.

    Letter i is floor((i+1)p/(p+q)) - floor(ip/(p+q)).
    """
    if p < 1 or q < 1:
        raise ValueError("p and q must both be >= 1")
    if math.gcd(p, q) != 1:
        raise NotCoprime(f"gcd({p}, {q}) must be 1")
    total = p + q
    return "".join(str((i + 1) * p // total - i * p // total) for i in range(total))


def conjugates(w: str) -> list[str]:
    """All rotations of ``w``, deduplicated and sorted lexicographically."""
    if not w:
        raise ValueError("word must be nonempty")
    return sorted({w[i:] + w[:i] for i in range(len(w))})


def upper_christoffel(p: int, q: int) -> str:
    """The unbordered conjugate of the lower word, other than itself."""
    # The p+q rotations searched hold (p+q)^2 letters.
    if (p + q) ** 2 > PREFIX_BUDGET:
        raise BudgetExceeded(f"p+q = {p + q}: (p+q)^2 exceeds budget {PREFIX_BUDGET}")
    lower = lower_christoffel(p, q)
    others = [c for c in conjugates(lower) if c != lower and is_unbordered(c)]
    if len(others) != 1:
        raise RuntimeError(
            f"expected exactly one other unbordered conjugate of {lower}, got {others}"
        )
    return others[0]


class ChristoffelPair(Record):
    """The two unbordered words 0u1 and 1u0 of one conjugacy class."""

    lower: str
    upper: str
    core: str

    @property
    def length(self) -> int:
        return len(self.lower)


def christoffel_pair(p: int, q: int) -> ChristoffelPair:
    # The upper word first: it checks the length bound before any word is built.
    upper = upper_christoffel(p, q)
    lower = lower_christoffel(p, q)
    core = lower[1:-1]
    if upper != "1" + core + "0":
        raise RuntimeError(f"derived upper word {upper} does not flank core {core!r}")
    return ChristoffelPair(lower=lower, upper=upper, core=core)


class SingularWord(Record):
    """The non-conjugate factor xux at a Christoffel length."""

    word: str
    letter: str
    extremal_kind: str  # "min" | "max"


def singular_word(p: int, q: int, table: FactorTable) -> SingularWord:
    """The unique length-(p+q) table factor that is not a conjugate.

    The factor must have the shape x u x around the Christoffel core u and
    must be lex-extremal at its length; anything else means the table does
    not match the slope.
    """
    pair = christoffel_pair(p, q)
    length = pair.length
    conj = set(conjugates(pair.lower))
    extra = [v for v in table.factors(length) if v not in conj]
    if not extra:
        raise SingularNotFound(
            f"every length-{length} factor is a conjugate of {pair.lower}"
        )
    if len(extra) > 1:
        raise SingularAmbiguous(
            f"{len(extra)} non-conjugate factors at length {length}: {extra}"
        )
    v = extra[0]
    if v[-1] != v[0] or v[1:-1] != pair.core:
        raise SingularNotFound(f"{v} does not have the shape x{pair.core}x")
    lo, hi = table.extremal(length)
    if v == lo:
        kind = "min"
    elif v == hi:
        kind = "max"
    else:
        raise SingularNotFound(f"{v} is not extremal at length {length}")
    return SingularWord(word=v, letter=v[0], extremal_kind=kind)


class PropertyCheck(Record):
    name: str
    passed: bool
    detail: str


class ChristoffelReport(Record):
    """Outcome of the five factor-structure assertions at one length."""

    p: int
    q: int
    pair: ChristoffelPair
    items: tuple[PropertyCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(item.passed for item in self.items)

    def to_json(self) -> dict:
        return {
            "check": "christoffel",
            "p": self.p,
            "q": self.q,
            "lower": self.pair.lower,
            "upper": self.pair.upper,
            "items": [
                {"name": i.name, "passed": i.passed, "detail": i.detail}
                for i in self.items
            ],
        }


def verify_christoffel_properties(
    p: int, q: int, table: FactorTable
) -> ChristoffelReport:
    """Check the expected factor structure at length p+q against a table.

    Items: (i) the unbordered factors at that length are exactly the pair
    0u1, 1u0; (ii) the pair are conjugates; (iii) every conjugate occurs;
    (iv) exactly one of 0u0, 1u1 occurs and is lex-extremal; (v) the factor
    set is the conjugates plus that one singular word, so the complexity is
    p+q+1.  Failures are report entries, never exceptions.
    """
    pair = christoffel_pair(p, q)
    length = pair.length
    if length > table.max_len:
        raise ValueError(
            f"table indexes lengths up to {table.max_len}, need {length}"
        )
    conj = conjugates(pair.lower)
    factors = table.factors(length)
    items = []

    unbordered = table.unbordered_factors(length)
    expected_pair = sorted((pair.lower, pair.upper))
    items.append(
        PropertyCheck(
            "unbordered-pair",
            unbordered == expected_pair,
            f"unbordered factors {unbordered}, expected {expected_pair}",
        )
    )

    items.append(
        PropertyCheck(
            "pair-conjugate",
            pair.upper in conj,
            f"{pair.upper} among the rotations of {pair.lower}",
        )
    )

    missing = [c for c in conj if not table.is_factor(c)]
    items.append(
        PropertyCheck(
            "conjugates-present",
            not missing,
            f"missing conjugates {missing}" if missing else f"all {len(conj)} present",
        )
    )

    lo_sing, hi_sing = "0" + pair.core + "0", "1" + pair.core + "1"
    present = [v for v in (lo_sing, hi_sing) if table.is_factor(v)]
    extremal_ok = False
    if len(present) == 1:
        extremal_ok = present[0] in table.extremal(length)
    items.append(
        PropertyCheck(
            "singular-extremal",
            len(present) == 1 and extremal_ok,
            f"singular candidates present: {present or 'none'}",
        )
    )

    if len(present) == 1:
        expected_set = sorted(set(conj) | {present[0]})
        ok = list(factors) == expected_set
        detail = f"complexity {len(factors)}, expected {length + 1}"
    else:
        ok = False
        detail = (
            f"complexity {len(factors)}, expected {length + 1}; "
            "no unique singular word"
        )
    items.append(PropertyCheck("factor-set", ok, detail))

    return ChristoffelReport(p=p, q=q, pair=pair, items=tuple(items))
