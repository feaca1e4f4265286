"""Per-length factor index of a finite word prefix.

The index keeps, for every length n up to a bound, the sorted list of
distinct length-n factors together with occurrence counts and first
occurrence positions.  Length n is called *saturated* when every length-n
factor first occurs entirely inside the first half of the prefix; only a
saturated list is treated downstream as the word's complete length-n factor
set, everything else stays advisory.

The index is built in one pass over the prefix: only the longest windows
are sliced from the word, and each shorter length is derived from the next
longer one by dropping the last letter, summing counts and keeping the
smallest first occurrence, plus the single window that ends the prefix.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass

from .errors import NotAFactor, WindowTooLarge
from .words import _check_word


def is_unbordered(v: str) -> bool:
    """True when no proper nonempty prefix of ``v`` is also a suffix."""
    return not any(v[:b] == v[-b:] for b in range(1, len(v)))


def _truncated(
    count: dict[str, int], first: dict[str, int], word: str, n: int
) -> tuple[dict[str, int], dict[str, int]]:
    """Counts and first occurrences of the length-n factors, from length n+1.

    Every occurrence of a length-n factor is the start of a length-(n+1)
    occurrence, except the one tail window, which starts at len(word)-n.
    """
    shorter: dict[str, int] = {}
    shorter_first: dict[str, int] = {}
    for v, c in count.items():
        u = v[:-1]
        p = first[v]
        if u in shorter:
            shorter[u] += c
            if p < shorter_first[u]:
                shorter_first[u] = p
        else:
            shorter[u] = c
            shorter_first[u] = p
    tail_start = len(word) - n
    tail = word[tail_start:]
    shorter[tail] = shorter.get(tail, 0) + 1
    # Every other start is at most len(word)-n-1, so an earlier one wins.
    shorter_first.setdefault(tail, tail_start)
    return shorter, shorter_first


@dataclass(frozen=True)
class SaturationEntry:
    n: int
    saturated: bool
    last_new_position: int


class FactorTable:
    """Sorted factor lists of every length 1..max_len of a word prefix.

    Immutable after construction; all queries are read-only.
    """

    def __init__(self, word: str, max_len: int):
        if not 1 <= max_len <= len(word):
            raise WindowTooLarge(
                f"need 1 <= max_len <= {len(word)}, got {max_len}"
            )
        self.word = word
        self.max_len = max_len
        self.alphabet = "".join(sorted(set(word)))
        _check_word(self.alphabet, "word")
        self._factors: dict[int, tuple[str, ...]] = {}
        self._count: dict[int, dict[str, int]] = {}
        self._first: dict[int, dict[str, int]] = {}
        self._saturated: dict[int, bool] = {}
        self._last_new: dict[int, int] = {}
        size = len(word)
        half = size // 2
        starts = range(size - max_len, -1, -1)
        count = Counter(word[i : i + max_len] for i in starts)
        # Starts descend, so the smallest start of each window is stored last.
        first = dict(zip((word[i : i + max_len] for i in starts), starts))
        # Re-key with the counter's strings: one copy of each window, not two.
        first = {v: first[v] for v in count}
        for n in range(max_len, 0, -1):
            if n < max_len:
                count, first = _truncated(count, first, word, n)
            last_new = max(first.values())
            self._factors[n] = tuple(sorted(count))
            self._count[n] = count
            self._first[n] = first
            self._last_new[n] = last_new
            # The newest factor must fit entirely inside the first half.
            self._saturated[n] = last_new + n <= half

    def _require(self, n: int) -> None:
        if not 1 <= n <= self.max_len:
            raise ValueError(f"length {n} outside the indexed range 1..{self.max_len}")

    @property
    def is_binary(self) -> bool:
        return set(self.alphabet) <= {"0", "1"}

    def factors(self, n: int) -> tuple[str, ...]:
        """Distinct length-n factors, lexicographically ascending."""
        self._require(n)
        return self._factors[n]

    def complexity(self, n: int) -> int:
        """Number of distinct length-n factors."""
        self._require(n)
        return len(self._factors[n])

    def is_factor(self, v: str) -> bool:
        self._require(len(v))
        return v in self._count[len(v)]

    def count(self, v: str) -> int:
        """Number of occurrences of ``v`` in the prefix (overlaps included)."""
        self._require(len(v))
        c = self._count[len(v)].get(v)
        if c is None:
            raise NotAFactor(v)
        return c

    def first_occurrence(self, v: str) -> int:
        self._require(len(v))
        pos = self._first[len(v)].get(v)
        if pos is None:
            raise NotAFactor(v)
        return pos

    def successor(self, v: str) -> str | None:
        """Next factor of the same length in lex order, or None if maximal."""
        n = len(v)
        self._require(n)
        if v not in self._count[n]:
            raise NotAFactor(v)
        fs = self._factors[n]
        r = bisect_right(fs, v)
        return fs[r] if r < len(fs) else None

    def extremal(self, n: int) -> tuple[str, str]:
        """(lex-minimal, lex-maximal) factor of length n."""
        self._require(n)
        fs = self._factors[n]
        return fs[0], fs[-1]

    def left_special(self, n: int) -> list[str]:
        """Length-n factors with at least two distinct left extensions.

        On a binary table these are exactly the v with both 0v and 1v
        present.
        """
        self._require(n)
        self._require(n + 1)
        longer = self._count[n + 1]
        out = []
        for v in self._factors[n]:
            extensions = sum(1 for x in self.alphabet if x + v in longer)
            if extensions >= 2:
                out.append(v)
        return out

    def unbordered_factors(self, n: int) -> list[str]:
        """Length-n factors with no proper nonempty border."""
        self._require(n)
        return [v for v in self._factors[n] if is_unbordered(v)]

    def saturated(self, n: int) -> bool:
        self._require(n)
        return self._saturated[n]

    def last_new_position(self, n: int) -> int:
        """Start of the final first occurrence among length-n factors."""
        self._require(n)
        return self._last_new[n]

    def saturation(self) -> tuple[SaturationEntry, ...]:
        return tuple(
            SaturationEntry(n, self._saturated[n], self._last_new[n])
            for n in range(1, self.max_len + 1)
        )

    def saturated_lengths(self) -> tuple[int, ...]:
        return tuple(n for n in range(1, self.max_len + 1) if self._saturated[n])

    def dump(self) -> str:
        """One line per factor: ``<n>\\t<factor>\\t<count>``, lengths then lex."""
        lines = []
        for n in range(1, self.max_len + 1):
            counts = self._count[n]
            for v in self._factors[n]:
                lines.append(f"{n}\t{v}\t{counts[v]}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"FactorTable(|word|={len(self.word)}, max_len={self.max_len}, "
            f"alphabet={self.alphabet!r})"
        )
