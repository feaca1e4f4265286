"""Per-length factor index of a finite word prefix.

The index keeps, for every length n up to a bound, the distinct length-n
factors as sorted integer codes, with their occurrence counts and first
occurrence positions in parallel lists.  A factor's code is the factor read
in base 16, one nibble per digit letter, so the numeric order of codes is the
lexicographic order of factors.  Factor strings are formatted from the codes
on the first ``factors(n)`` call and cached.  Length n is called *saturated*
when every length-n factor first occurs entirely inside the first half of the
prefix; only a saturated list is treated downstream as the word's complete
length-n factor set, everything else stays advisory.  A length-n factor
first occurs at the start of a length-(n+1) occurrence or at the very end, so
the saturated lengths are 1..frontier, and a table stores only the frontier.

The index is built in one pass over the prefix: only the longest windows
are sliced from the word, and each shorter length is derived from the next
longer one by dropping the last nibble, which keeps the codes sorted, summing
the counts of equal codes and keeping their smallest first occurrence, plus
the single window that ends the prefix, placed by bisection.  The distinct
factors a table holds, summed over its lengths, are capped at FACTOR_BUDGET.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import repeat

from .errors import BudgetExceeded, NotAFactor, WindowTooLarge
from .words import _check_word

#: Cap on the distinct factors one table holds, summed over its lengths.
#: A code is a 4n-bit int, so the bytes per factor grow with its length:
#: tracemalloc on ``fib`` tables at default windows gives 72 at max_len 40,
#: 123 at 200 and 229 at 500.  The cap bounds a table near 330 MB only for
#: short factors and does not bound memory for long ones (ROADMAP item 2).
#: Only PREFIX_BUDGET bounds the windows of the longest length.
FACTOR_BUDGET = 1 << 22


def is_unbordered(v: str) -> bool:
    """True when no proper nonempty prefix of ``v`` is also a suffix."""
    return not any(v[:b] == v[-b:] for b in range(1, len(v)))


def decode(code: int, n: int) -> str:
    """The length-n factor whose base-16 code is ``code``."""
    return format(code, f"0{n}x")


def window_counts(word: str, n: int) -> Counter[str]:
    """Occurrence counts of the length-n windows of ``word``.

    The keys come in order of first occurrence, so the last one is the
    newest factor.
    """
    size = len(word)
    starts, ends = range(size - n + 1), range(n, size + 1)
    return Counter(map(word.__getitem__, map(slice, starts, ends)))


def newest_fits(word: str, windows: Counter[str]) -> bool:
    """Whether the windows' length is saturated in ``word``.

    ``windows`` are the counts of :func:`window_counts`; the length is
    saturated when its newest factor fits entirely inside the first half.
    """
    newest = next(reversed(windows))
    return word.find(newest) + len(newest) <= len(word) // 2


def _shorter(
    codes: tuple[int, ...], counts: tuple[int, ...], firsts: tuple[int, ...],
    word: str, n: int,
) -> tuple[list[int], list[int], list[int]]:
    """Codes, counts and first occurrences of the length-n factors, from length n+1.

    Every occurrence of a length-n factor is the start of a length-(n+1)
    occurrence, except the one tail window, which starts at len(word)-n.
    """
    short: list[int] = []
    short_counts: list[int] = []
    short_firsts: list[int] = []
    prev = -1
    for c, k, p in zip(codes, counts, firsts):
        c >>= 4
        if c == prev:
            short_counts[-1] += k
            if p < short_firsts[-1]:
                short_firsts[-1] = p
        else:
            short.append(c)
            short_counts.append(k)
            short_firsts.append(p)
            prev = c
    tail_start = len(word) - n
    tail = int(word[tail_start:], 16)
    i = bisect_left(short, tail)
    if i < len(short) and short[i] == tail:
        # Every other start is at most len(word)-n-1, so an earlier one wins.
        short_counts[i] += 1
    else:
        short.insert(i, tail)
        short_counts.insert(i, 1)
        short_firsts.insert(i, tail_start)
    return short, short_counts, short_firsts


class FactorTable:
    """Sorted factor lists of every length 1..max_len of a word prefix.

    ``windows``, when given, are the :func:`window_counts` of ``word`` at
    ``max_len``, so a caller that already sliced them for a saturation
    probe need not slice them again.  ``frontier`` is the longest saturated
    length, or 0 if there is none.  Immutable after construction; all
    queries are read-only.
    """

    def __init__(self, word: str, max_len: int, windows: Counter[str] | None = None):
        if not 1 <= max_len <= len(word):
            raise WindowTooLarge(
                f"need 1 <= max_len <= {len(word)}, got {max_len}"
            )
        self.word = word
        self.max_len = max_len
        self.alphabet = "".join(sorted(set(word)))
        _check_word(self.alphabet, "word")
        if windows is None:
            windows = window_counts(word, max_len)
        # The keys come in order of first occurrence, so each first
        # occurrence is found by searching on from the previous one.
        firsts = []
        p = -1
        for v in windows:
            p = word.find(v, p + 1)
            firsts.append(p)
        codes = list(map(int, windows, repeat(16)))
        counts = list(windows.values())
        order = sorted(range(len(codes)), key=codes.__getitem__)
        level = (
            [codes[i] for i in order],
            [counts[i] for i in order],
            [firsts[i] for i in order],
        )
        self._levels: dict[int, tuple[tuple[int, ...], ...]] = {}
        self._strings: dict[int, tuple[str, ...]] = {}
        self.frontier = 0
        half = len(word) // 2
        held = 0
        for n in range(max_len, 0, -1):
            if n < max_len:
                level = _shorter(*level, word, n)
            held += len(level[0])
            if held > FACTOR_BUDGET:
                raise BudgetExceeded(
                    f"more than {FACTOR_BUDGET} distinct factors of lengths "
                    f"{n}..{max_len}"
                )
            level = self._levels[n] = tuple(map(tuple, level))
            # The newest factor must fit entirely inside the first half.
            if not self.frontier and max(level[2]) + n <= half:
                self.frontier = n

    def _require(self, n: int) -> None:
        if not 1 <= n <= self.max_len:
            raise ValueError(f"length {n} outside the indexed range 1..{self.max_len}")

    def _index(self, v: str) -> int | None:
        """Position of ``v`` in its length's sorted lists, or None if absent."""
        self._require(len(v))
        # int() would also read letters a-f, whitespace, underscores and
        # non-ASCII digits, none of which occurs in a factor.
        if not (v.isascii() and v.isdigit()):
            return None
        codes = self._levels[len(v)][0]
        c = int(v, 16)
        i = bisect_left(codes, c)
        return i if i < len(codes) and codes[i] == c else None

    def _found(self, v: str) -> int:
        i = self._index(v)
        if i is None:
            raise NotAFactor(v)
        return i

    @property
    def is_binary(self) -> bool:
        return set(self.alphabet) <= {"0", "1"}

    def level(self, n: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """(codes, counts, first occurrences) of the length-n factors.

        Parallel tuples in lex order of the factors; a code is the factor
        read in base 16 (see :func:`decode`).
        """
        self._require(n)
        return self._levels[n]

    def factors(self, n: int) -> tuple[str, ...]:
        """Distinct length-n factors, lexicographically ascending."""
        self._require(n)
        fs = self._strings.get(n)
        if fs is None:
            fs = self._strings[n] = tuple(decode(c, n) for c in self._levels[n][0])
        return fs

    def complexity(self, n: int) -> int:
        """Number of distinct length-n factors."""
        self._require(n)
        return len(self._levels[n][0])

    def is_factor(self, v: str) -> bool:
        return self._index(v) is not None

    def count(self, v: str) -> int:
        """Number of occurrences of ``v`` in the prefix (overlaps included)."""
        i = self._found(v)
        return self._levels[len(v)][1][i]

    def first_occurrence(self, v: str) -> int:
        i = self._found(v)
        return self._levels[len(v)][2][i]

    def successor(self, v: str) -> str | None:
        """Next factor of the same length in lex order, or None if maximal."""
        r = self._found(v) + 1
        codes = self._levels[len(v)][0]
        return decode(codes[r], len(v)) if r < len(codes) else None

    def extremal(self, n: int) -> tuple[str, str]:
        """(lex-minimal, lex-maximal) factor of length n."""
        self._require(n)
        codes = self._levels[n][0]
        return decode(codes[0], n), decode(codes[-1], n)

    def left_special(self, n: int) -> list[str]:
        """Length-n factors with at least two distinct left extensions.

        On a binary table these are exactly the v with both 0v and 1v
        present.
        """
        self._require(n + 1)
        return [
            v
            for v in self.factors(n)
            if sum(self.is_factor(x + v) for x in self.alphabet) >= 2
        ]

    def unbordered_factors(self, n: int) -> list[str]:
        """Length-n factors with no proper nonempty border."""
        return [v for v in self.factors(n) if is_unbordered(v)]

    def saturated(self, n: int) -> bool:
        self._require(n)
        return n <= self.frontier

    def saturated_lengths(self) -> tuple[int, ...]:
        return tuple(range(1, self.frontier + 1))

    def dump(self) -> str:
        """One line per factor: ``<n>\\t<factor>\\t<count>``, lengths then lex."""
        lines = []
        for n in range(1, self.max_len + 1):
            for v, k in zip(self.factors(n), self._levels[n][1]):
                lines.append(f"{n}\t{v}\t{k}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"FactorTable(|word|={len(self.word)}, max_len={self.max_len}, "
            f"alphabet={self.alphabet!r})"
        )
