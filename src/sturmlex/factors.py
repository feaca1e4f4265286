"""Per-length factor index of a finite word prefix.

The index keeps, for every length n up to a bound, the sorted list of
distinct length-n factors together with occurrence counts and first
occurrence positions.  Length n is called *saturated* when every length-n
factor first occurs entirely inside the first half of the prefix; only a
saturated list is treated downstream as the word's complete length-n factor
set, everything else stays advisory.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass

from .errors import NotAFactor, WindowTooLarge


def is_unbordered(v: str) -> bool:
    """True when no proper nonempty prefix of ``v`` is also a suffix."""
    return not any(v[:b] == v[-b:] for b in range(1, len(v)))


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
        self._factors: dict[int, tuple[str, ...]] = {}
        self._count: dict[int, Counter] = {}
        self._first: dict[int, dict[str, int]] = {}
        self._saturated: dict[int, bool] = {}
        self._last_new: dict[int, int] = {}
        half = len(word) // 2
        for n in range(1, max_len + 1):
            counts = Counter(word[i : i + n] for i in range(len(word) - n + 1))
            fs = tuple(sorted(counts))
            first = {v: word.find(v) for v in fs}
            last_new = max(first.values())
            self._factors[n] = fs
            self._count[n] = counts
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
