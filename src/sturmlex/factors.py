"""Factor index of a finite word prefix: one sorted list of longest windows.

Every factor of length n <= max_len is the n-letter prefix of an *entry*:
a distinct window of length max_len, or a short suffix ``word[-m:]`` (m <
max_len), which reaches only the lengths n <= m.  An entry's code is its
text read as one digit of w bits per letter, a short suffix padded with
the digit 2^w - 1, so that numeric order is lexicographic order and a
short suffix sorts after every entry it is a prefix of.  The width w is 2
(base 4, pad 3) when the letters are within 01, else 4 (base 16, pad f);
codes of two widths never mix.  A window is a code from the moment it is
read: a shift of one int read for a block of starts.  The table keeps
the entries sorted, with their lengths and the common-prefix length (LCP)
of each entry with the one before it; occurrence counts stay with the
windows, keyed by code.  The sorted length-n factors are the runs of
entries of length >= n whose n-letter prefixes agree, so p(n) is the
number of entries with lcp < n <= length, one histogram for all n, and a
factor's count sums the counts of the codes it begins (a short suffix
occurs once).

Length n is *saturated* when the table holds every length-n factor of the
infinite word, and then so is every shorter length: a table stores only
the frontier, the longest.  When the word's exact complexity is known, a
count certifies it: the prefix has as many length-n factors as the word.
Such a count needs only the distinct windows, a set of codes, read up to
the one that completes it, jumping over each stretch that repeats letters
before it, as its windows are earlier ones.  A *certified* table, whose
windows number exact[max_len], has every factor as a prefix of a window,
so its entries are its windows alone and its p is the certificate itself;
its occurrences are read from a table of its word that counts every window
and keeps its short suffixes.  Otherwise it is the half-window heuristic: every length-n factor
first occurs inside the first half of the prefix.  The windows are counted
in order of first occurrence, and the read notes how many it has at the
half's edge, the first start whose window ends past the half: those that
fit in the half are the first that many, max_len is saturated when they
are all of them, and sorted first they are a run of the table's one sort.
One probe reads the windows of either kind, and one rule sets the frontier:
the last length before the count differs from the exact or the half's count.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from functools import cached_property
from itertools import accumulate, chain, compress, count, repeat
from operator import and_, lt, rshift, sub, xor

from .errors import BudgetExceeded, NotAFactor, WindowTooLarge
from .words import _check_word

#: Cap in bytes on a table's entries, each its letters plus a fixed overhead,
#: so that short windows are bounded as well as long ones (see FactorTable.counts).
TABLE_BUDGET = 1 << 25

# The least chunk a count that stops at ``full`` reads: a chunk of fewer
# windows would not pay for the int() read of its block.
_CHUNK_FLOOR = 64


def is_unbordered(v: str) -> bool:
    """True when no proper nonempty prefix of ``v`` is also a suffix."""
    return not any(v[:b] == v[-b:] for b in range(1, len(v)))


def _width(word: str) -> int:
    """Bits per letter in the codes of ``word``: 2 when its letters are within
    01, else 4.  One pass leaves the letters past 01: any not a digit is an
    error, and MalformedSpec names the least such letter."""
    rest = word.encode("ascii", "replace").translate(None, b"01")
    if rest and not rest.isdigit():
        _check_word("".join(sorted(set(word))), "word")
    return 4 if rest else 2


def decode(code: int, n: int, w: int) -> str:
    """The length-n factor whose code at width ``w`` is ``code``."""
    if w == 2:
        # Each letter is the low bit of its two.
        return format(code, f"0{2 * n}b")[1::2]
    return format(code, f"0{n}x") if n else ""


def _codes(word: str, n: int, start: int, stop: int, w: int):
    """The width-w codes of the length-n windows of ``word`` at start..stop-1, in order."""
    def block(a: int):
        # One int per block of (at most 256) starts, and each window a shift
        # of it: shifting one int of the whole word would be quadratic.
        b = min(a + 256, stop)
        x, shifts = int(word[a : b + n - 1], 1 << w), range(w * (b - a - 1), -1, -w)
        return map(and_, map(rshift, repeat(x), shifts), repeat((1 << w * n) - 1))

    return chain.from_iterable(map(block, range(start, stop, 256)))


def _short_codes(word: str, n: int, w: int):
    """Width-w codes of the suffixes of ``word`` shorter than n, padded, longest first."""
    tail = word[max(0, len(word) - n + 1) :]
    return _codes(tail + format((1 << w) - 1, "x") * (n - 1), n, 0, len(tail), w)


def _add_windows(windows, word: str, n: int, start: int, full, w: int, edges=()) -> int:
    """Add the width-w codes of the length-n windows of ``word`` from
    ``start`` on to ``windows``, a Counter or a set of codes, in the chunks
    and under the cap of :attr:`FactorTable.counts`, and return the start
    after the last window read.

    With ``full``, ``windows`` is a set, and reading stops once the distinct
    windows reach ``full``: each chunk holds at most the windows still
    missing, ``full`` less the distinct ones so far, but no fewer than 64,
    so it ends fewer than 64 windows past the one that completes the count.
    A chunk that adds none is followed by a jump over windows that repeat
    earlier ones (:func:`_past_repeat`).  ``edges``, a dict keyed by starts,
    ends a chunk at each key, and each key the read reaches is set to the
    number of distinct windows read before it.
    """
    # An entry peaks at its n letters and at most 245 bytes more while a table
    # is built, and holds less once it is (tracemalloc, Python 3.11, with 4-bit
    # codes: 219 B more and 140 B held at n=18 on a random 2^21-letter
    # literal; -6 B more and 677 B held at n=1024 on a 2^16-letter one, whose
    # codes took n/2 bytes).  Binary codes take n/4 bytes under the same charge.
    entry = n + 245
    end, most = len(word) - n + 1, max(1, TABLE_BUDGET // (16 * entry))
    for edge in [*sorted(e for e in edges if start <= e < end), end]:
        while start < edge and (full is None or len(windows) < full):
            step = most if full is None else min(most, max(full - len(windows), _CHUNK_FLOOR))
            stop = min(start + step, edge)
            before = len(windows)
            windows.update(_codes(word, n, start, stop, w))
            start = stop
            if full is not None and len(windows) == before and start < edge:
                start = _past_repeat(word, n, start, edge)
            if (len(windows) + n - 1) * entry > TABLE_BUDGET:
                raise BudgetExceeded(
                    f"length-{n} table entries take more than {TABLE_BUDGET} bytes"
                )
        if start in edges:
            edges[start] = len(windows)
    return start


def _probe(prefix, max_len: int, target: int, cap: int, exact) -> tuple:
    """(word, (windows, early, width)): the first candidate ``prefix(length)``,
    length = target, 2 target, ... up to ``cap``, saturated at max_len (else
    the one at the cap), its windows at max_len, how many fit in its first
    half and its width.  A doubled candidate checks its new letters alone
    (:func:`_width`) and reads the windows that start in them; one that
    gained a letter past 1 re-keys those so far, in order, from base 4 to
    base 16.  Given ``exact``, the windows are a set read up to exact[max_len],
    and all count as fitting; else they are counted in order of first
    occurrence, noting the count at each half edge."""
    full = None if exact is None else exact[max_len]
    halves = (min(target << k, cap) // 2 for k in range(cap.bit_length() + 1))
    edges = {} if full is not None else dict.fromkeys(max(0, h - max_len + 1) for h in halves)
    width, start, seen, windows = 2, 0, 0, Counter() if full is None else set()
    while True:
        length = min(target, cap)
        word = prefix(length)
        # A candidate whose new letters are all 0 and 1 keeps an earlier width 4.
        if (w := max(width, _width(word[seen:]))) != width:
            keys = [int(decode(c, max_len, 2), 16) for c in windows]
            width = w
            windows = Counter(dict(zip(keys, windows.values()))) if full is None else set(keys)
        start, seen = _add_windows(windows, word, max_len, start, full, width, edges), length
        # At the cap there is no test: a literal may hold no window at all.
        early = len(windows) if full is not None else edges[max(0, length // 2 - max_len + 1)]
        if length >= cap or len(windows) == (early if full is None else full):
            return word, (windows, early, width)
        target *= 2


def _past_repeat(word: str, n: int, i: int, end: int) -> int:
    """The start past the windows, from i up to ``end``, of the longest
    stretch ``word[i:i+m]`` that also begins at some j < i (i if the window at
    i occurs nowhere before): each is the window i - j starts earlier.  The
    stretch grows by doubling from n letters, then bisects the last doubling."""
    j = word.find(word[i : i + n], 0, i + n - 1)
    if j < 0:
        return i
    lo, hi = n, end + n - i  # word[i:i+lo] == word[j:j+lo]; hi letters hold the window at end
    while hi - lo > 1:
        mid = min(2 * lo, (lo + hi) // 2)
        lo, hi = (mid, hi) if word[i + lo : i + mid] == word[j + lo : j + mid] else (lo, mid)
    return i + lo - n + 1


def prefix_counts(pieces, n: int) -> list[int]:
    """[1, p(1), ..., p(n)], p(m) the number of distinct m-letter prefixes
    among the length-n windows of the digit words ``pieces`` (a collection,
    read at the width of all their letters).  Their distinct windows count
    against TABLE_BUDGET as a table's entries do."""
    codes, w = set(), max(map(_width, pieces), default=2)
    for piece in pieces:
        _add_windows(codes, piece, n, 0, None, w)
    return [1, *_histogram(sorted(codes), 0, n, w)[1][1:]]


def _lcps(codes, n: int, w: int) -> list[int]:
    """The LCPs of sorted n-letter width-w entry codes.

    The first code is compared with the pad followed by zeros, which differs
    from every entry in its first letter.  An LCP never exceeds either
    entry's length: a short suffix has a pad where the other entry still has
    a letter.
    """
    before, r = chain((((1 << w) - 1) << w * (n - 1),), codes), w - 1
    return [n - (x.bit_length() + r) // w for x in map(xor, codes, before)]


def _histogram(codes, shorts: int, n: int, w: int) -> tuple[list[int], list[int]]:
    """The LCPs and [p(0), ..., p(n)] of sorted n-letter width-w entry codes,
    the ``shorts`` short suffixes among them of the lengths 1..shorts."""
    lcps = _lcps(codes, n, w)
    starts, ends = Counter(lcps), chain((0,), repeat(1, shorts), repeat(0))
    return lcps, [*accumulate(map(sub, map(starts.get, range(n), repeat(0)), ends), initial=0)]


class FactorTable:
    """Sorted entries standing for the factors of lengths 1..max_len of a prefix.

    ``word`` is digit-only, else MalformedSpec names its least other letter.
    ``exact``, when given, is the word's exact [p(0), ..., p(max_len)].
    ``probe``, when given, is the result of the saturation probe that kept
    ``word`` (:func:`_probe`), so that its letters and windows are not read
    twice: (windows, early, width), the windows at max_len, counted or, from
    a probe that stops once it has every distinct window, a set of codes, as
    a certified table needs no counts, how many fit in the first half, and
    their width; else the table reads its word as the probe of one
    candidate.  The frontier is max_len on a certified table and on one whose
    windows all fit in its first half; else it is one less than the first n
    at which the count differs from its reference, ``exact`` or the first
    half's own counts, or max_len when none does.  ``width`` is 2 on a
    binary table, else 4; the table keeps no list of its letters.
    ``codes``, ``lengths`` and ``lcps`` are parallel entry tuples in code
    order (the windows alone on a certified table), ``p[n]`` is the number
    of length-n factors (on a certified table its certificate: exact[n] for
    n >= 1, and p[0] = 0), ``frontier`` the longest saturated length, or 0.
    Occurrences (``count``, ``dump()``, ``counts``) are read from a table
    whose windows are counted and whose entries keep the short suffixes:
    this one, or else ``FactorTable(word, max_len)``, built on first read.
    Only the caches are written after construction; the probe's windows
    stay as given.
    """

    def __init__(self, word: str, max_len: int, exact: list[int] | None = None, probe=None):
        if not 1 <= max_len <= len(word):
            raise WindowTooLarge(f"need 1 <= max_len <= {len(word)}, got {max_len}")
        self.word, self.max_len = word, max_len
        if probe is None:
            _, probe = _probe(lambda _: word, max_len, len(word), len(word), None)
        windows, early, w = probe
        self._windows, self.width = windows, w
        ref = exact
        if exact is not None and len(windows) == exact[max_len]:
            # Certified: every factor begins a window, so the windows alone are
            # the entries (no short suffix), and p, the certificate, needs no reference.
            self.codes, self.lengths = tuple(sorted(windows)), (max_len,) * len(windows)
            self.lcps = tuple(_lcps(self.codes, max_len, w))
            self.p, ref = [0, *exact[1 : max_len + 1]], None
        else:
            # One sort, of which the half's windows, the first `early` keys,
            # sorted first are one run; the short suffixes land by bisection.
            keys, shorts = [*windows], [*_short_codes(word, max_len, w)]
            inner = sorted(keys[:early])
            codes = sorted(inner + keys[early:] + shorts)
            lengths = [max_len] * len(codes)
            for m, c in zip(range(max_len - 1, 0, -1), shorts):
                lengths[bisect_left(codes, c)] = m
            self.codes, self.lengths = tuple(codes), tuple(lengths)
            lcps, self.p = _histogram(codes, max_len - 1, max_len, w)
            self.lcps = tuple(lcps)
            if exact is None and early < len(keys):
                ends = [*_short_codes(word[: len(word) // 2], max_len, w)]
                _, ref = _histogram(sorted(inner + ends), len(ends), max_len, w)
        # A count never exceeds its reference, and a length that reaches it
        # is saturated, and so is every shorter one.
        short = (n - 1 for n in range(1, max_len + 1) if self.p[n] != ref[n])
        self.frontier = next(short, max_len) if ref else max_len

    @cached_property
    def _recounted(self) -> FactorTable | None:
        """None on a table that counted every window and keeps its max_len - 1
        short suffixes as entries, else the table of its word that does."""
        shorts = len(self.codes) - len(self._windows)
        own = shorts == self.max_len - 1 and isinstance(self._windows, Counter)
        return None if own else FactorTable(self.word, self.max_len)

    @property
    def counts(self) -> Counter[int]:
        """Every window's occurrences, keyed by code in order of first
        occurrence, as the counting table's probe read them in chunks: it
        raises BudgetExceeded once the entries of a table at max_len, the
        distinct windows and max_len - 1 short suffixes, take more than
        TABLE_BUDGET bytes, so no table past the cap is ever built."""
        return (self._recounted or self)._windows

    def _require(self, n: int) -> None:
        if not 1 <= n <= self.max_len:
            raise ValueError(f"length {n} outside the indexed range 1..{self.max_len}")

    def _range(self, v: str, need: bool = False) -> tuple[int, int, int]:
        """(i, j, shift): entries i..j-1 begin with ``v``; shift cuts them to it."""
        self._require(len(v))
        shift = self.width * (self.max_len - len(v))
        i = j = 0
        # int() would also read letters a-f, whitespace, underscores and
        # non-ASCII digits, none of which occurs in a factor, and on a binary
        # table a digit past 1 may be the pad.
        if v.isascii() and v.isdigit() and (self.width == 4 or max(v) <= "1"):
            c = int(v, 1 << self.width) << shift
            i = bisect_left(self.codes, c)
            j = bisect_left(self.codes, c + (1 << shift), i)
        if need and i == j:
            raise NotAFactor(v)
        return i, j, shift

    @property
    def is_binary(self) -> bool:
        return self.width == 2

    def factors(self, n: int) -> tuple[str, ...]:
        """Distinct length-n factors, lexicographically ascending."""
        self._require(n)
        w, entries = self.width, zip(self.codes, self.lengths, self.lcps)
        shift = w * (self.max_len - n)
        return tuple(decode(c >> shift, n, w) for c, m, lcp in entries if lcp < n <= m)

    def complexity(self, n: int) -> int:
        """Number of distinct length-n factors."""
        self._require(n)
        return self.p[n]

    def is_factor(self, v: str) -> bool:
        i, j, _ = self._range(v)
        return i < j

    def count(self, v: str) -> int:
        """Number of occurrences of ``v`` in the prefix (overlaps included)."""
        t = self._recounted or self
        i, j, _ = t._range(v, need=True)
        return sum(map(t._windows.get, t.codes[i:j], repeat(1)))

    def successor(self, v: str) -> str | None:
        """Next factor of the same length in lex order, or None if maximal."""
        _, j, shift = self._range(v, need=True)
        after = (c for c, m in zip(self.codes[j:], self.lengths[j:]) if m >= len(v))
        return next((decode(c >> shift, len(v), self.width) for c in after), None)

    def extremal(self, n: int) -> tuple[str, str]:
        """(lex-minimal, lex-maximal) factor of length n."""
        self._require(n)
        first = (c for c, m in zip(self.codes, self.lengths) if m >= n)
        last = (c for c, m in zip(reversed(self.codes), reversed(self.lengths)) if m >= n)
        w = self.width
        shift = w * (self.max_len - n)
        return decode(next(first) >> shift, n, w), decode(next(last) >> shift, n, w)

    def starts(self) -> list[int]:
        """The entries that start a new factor at a saturated length, in order:
        those whose lcp is below the frontier and their length.  No short
        suffix v shorter than the frontier is one: v and one more letter
        occur in the prefix, as length |v| + 1 is saturated (under the
        heuristic, as v first occurs in the first half), so the entry right
        before v begins with v.  So each start reaches the frontier and
        neighbours the one before it from its lcp + 1 on."""
        lcps, starts = self.lcps, compress(count(), map(lt, self.lcps, repeat(self.frontier)))
        if len(self.codes) == len(self._windows):
            return [*starts]
        return [b for b in starts if lcps[b] < self.lengths[b]]

    def saturated(self, n: int) -> bool:
        self._require(n)
        return n <= self.frontier

    def saturated_lengths(self) -> tuple[int, ...]:
        return self._saturated

    @cached_property
    def _saturated(self) -> tuple[int, ...]:
        return tuple(range(1, self.frontier + 1))

    def dump(self):
        """One line per factor, ``<n>\\t<factor>\\t<count>``, lengths then lex,
        yielded as one string per length."""
        # A length-n factor is a run of entries: one with lcp < n <= length,
        # then those whose lcp reaches n.  Its text is the first entry's cut
        # to n letters, and its count is the run's sum.
        t = self._recounted or self
        w, size, lengths = t.width, t.max_len, t.lengths
        texts = [decode(c >> w * (size - m), m, w) for c, m in zip(t.codes, lengths)]
        entry_counts = [*map(t._windows.get, t.codes, repeat(1))]
        for n in range(1, size + 1):
            heads, counts = [], []
            for v, m, k, lcp in zip(texts, lengths, entry_counts, t.lcps):
                if lcp >= n:
                    counts[-1] += k
                elif m >= n:
                    heads.append(v)
                    counts.append(k)
            yield "".join(f"{n}\t{v[:n]}\t{k}\n" for v, k in zip(heads, counts))

    def __repr__(self) -> str:
        return (
            f"FactorTable(|word|={len(self.word)}, max_len={self.max_len}, "
            f"width={self.width}, frontier={self.frontier})"
        )
