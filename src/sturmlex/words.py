"""Finite descriptions of infinite words over the ordered alphabet {0,...,9}.

Words are plain Python strings of digit characters, so comparing equal-length
factors with ``<`` is exactly the lexicographic order induced by the letter
order 0 < 1 < ... < 9.  Each spec class below describes an infinite word (or,
for :class:`Literal`, a finite window of one) and can produce any prefix of it
deterministically.  Each also knows what its kind implies a priori
(``spec.flags``, a :class:`KnownFlags`), and ``str(spec)`` is its text in the
mini-language that :func:`parse_spec` reads.  Irrational slopes are never
represented with floats: they enter only through :class:`StandardSequence`
directives, which are integer exact, while :class:`MechanicalRational` covers
the rational-slope codings in exact integer arithmetic.
"""

from __future__ import annotations

import math
import types
from bisect import bisect_left
from itertools import cycle, groupby

from .errors import BudgetExceeded, LiteralTooShort, MalformedSpec

ALPHABET = "0123456789"

#: Hard cap on generated prefix lengths (letters).
PREFIX_BUDGET = 1 << 22

#: Substitution fixed by the Fibonacci word.
FIBONACCI_RULES = {"0": "01", "1": "0"}


class Record:
    """Base of the package's immutable value types.

    A subclass's annotated names are its fields, in order; a class
    attribute of the same name is that field's default.  Records are built
    from the fields by position or keyword, then ``__post_init__`` validates
    and may normalise a field with ``object.__setattr__``.  Two records are
    equal when they have the same class and equal fields, and the repr is
    ``Name(field=value, ...)``.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._field_set = frozenset(cls._fields)
        cls._defaults = {n: cls.__dict__[n] for n in cls._fields if n in cls.__dict__}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        given = dict(zip(cls._fields, args))
        if len(args) > len(cls._fields) or given.keys() & kwargs:
            raise TypeError(f"{cls.__name__} got too many or repeated fields")
        values = {**cls._defaults, **given, **kwargs}
        if values.keys() != cls._field_set:
            raise TypeError(f"{cls.__name__} takes {cls._fields}, got {tuple(values)}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def replace(self, **changes):
        """A copy with ``changes`` to some fields, validated like a new record."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _check_word(s: str, what: str, allow_empty: bool = False) -> None:
    if not allow_empty and not s:
        raise MalformedSpec(f"{what} must be nonempty")
    # One bytes pass; a non-ASCII letter becomes "?", which is no digit.
    if s.encode("ascii", "replace").translate(None, b"0123456789"):
        c = next(c for c in s if c not in ALPHABET)
        raise MalformedSpec(f"{what} contains {c!r}; letters are the digits 0-9")


class KnownFlags(Record):
    """A-priori recurrence/aperiodicity knowledge; ``None`` means unknown.
    ``once``, set when ``recurrent`` is False, is the length of the word's
    shortest prefix that occurs nowhere else.  ``sturmian`` is True when
    the word is known to be Sturmian, so p(m) = m + 1 at every m (Morse
    and Hedlund; Lothaire, Algebraic Combinatorics on Words, ch. 2)."""

    recurrent: bool | None
    aperiodic: bool | None
    once: int | None = None
    sturmian: bool | None = None


class _EventuallyPeriodic:
    """Base of the kinds that are ``preperiod`` followed by ``period`` forever.

    Subclasses supply ``preperiod``; the periodic kinds name their period
    ``seed``, and ``prefix`` tiles at most one period of letters.
    """

    @property
    def period(self) -> str:
        return self.seed

    def _head(self, m: int) -> str:
        """The first min(m, period length) letters of the period."""
        return self.period[:m]

    def prefix(self, n: int) -> str:
        pre = self.preperiod
        if n <= len(pre):
            return pre[:n]
        head = self._head(n - len(pre))
        return (pre + head * (n // len(head) + 1))[:n]

    def language(self, n: int) -> list[str]:
        """[the prefix of |preperiod| + |period| + n - 1 letters]: every
        length-n factor starts, up to whole periods, in its first |preperiod| + |period|."""
        return [generate_prefix(self, len(self.preperiod) + len(self.period) + n - 1)]

    @property
    def flags(self) -> KnownFlags:
        # Never aperiodic; recurrent exactly when the word is purely
        # periodic, that is when shifting by the period fixes the preperiod.
        # Else x[:k+d] occurs once, and an occurrence at i >= k+d gives one
        # at i-d >= k, so a prefix that recurs does so at a start below k+d.
        k, d = len(self.preperiod), len(self.period)
        w = self.prefix(2 * (k + d))
        if w[:k] == w[d : k + d]:
            return KnownFlags(recurrent=True, aperiodic=False)
        alone = lambda m: w.find(w[:m], 1, k + d + m - 1) < 0  # no start in 1..k+d-1
        once = bisect_left(range(1, k + d), True, key=alone) + 1
        return KnownFlags(recurrent=False, aperiodic=False, once=once)


class Literal(Record):
    """A finite window given verbatim.  No tail is implied beyond it."""

    word: str
    flags = KnownFlags(recurrent=None, aperiodic=None)

    def __post_init__(self):
        _check_word(self.word, "literal word")

    def __str__(self) -> str:
        return f"literal:{self.word}"

    def prefix(self, n: int) -> str:
        if n > len(self.word):
            raise LiteralTooShort(
                f"literal holds {len(self.word)} letters, {n} requested"
            )
        return self.word[:n]


class Periodic(Record, _EventuallyPeriodic):
    """The purely periodic word seed^w."""

    seed: str
    preperiod = ""

    def __post_init__(self):
        _check_word(self.seed, "periodic seed")

    def __str__(self) -> str:
        return f"periodic:{self.seed}"


class UltimatelyPeriodic(Record, _EventuallyPeriodic):
    """preperiod followed by seed^w."""

    preperiod: str
    seed: str

    def __post_init__(self):
        _check_word(self.preperiod, "preperiod", allow_empty=True)
        _check_word(self.seed, "periodic seed")

    def __str__(self) -> str:
        return f"ultper:{self.preperiod}|{self.seed}"


class Morphic(Record):
    """Fixed point of a substitution prolongable on its seed letter.

    ``rules[seed]`` must start with ``seed`` and be longer than one letter,
    and every letter reachable through the images must itself have a rule, so
    iterating the substitution on the seed converges to an infinite word.
    The validated rules are kept as a read-only copy.
    """

    rules: dict[str, str]  # a types.MappingProxyType once built
    seed: str

    def __post_init__(self):
        rules = types.MappingProxyType(dict(self.rules))
        object.__setattr__(self, "rules", rules)
        if len(self.seed) != 1 or self.seed not in ALPHABET:
            raise MalformedSpec("seed must be a single letter 0-9")
        for a, img in rules.items():
            if len(a) != 1 or a not in ALPHABET:
                raise MalformedSpec(f"rule key {a!r} is not a letter")
            _check_word(img, f"image of {a}")
        if self.seed not in rules:
            raise MalformedSpec("no rule for the seed letter")
        # One C-level scan per letter without a rule; the error names the first in image order.
        missing = [c for c in ALPHABET if c not in rules]
        for a, img in rules.items():
            if lacking := [c for c in missing if c in img]:
                c = min(lacking, key=img.index)
                raise MalformedSpec(f"image letter {c} of rule {a} has no rule")
        img0 = rules[self.seed]
        if not img0.startswith(self.seed) or len(img0) < 2:
            raise MalformedSpec(
                "substitution is not prolongable on the seed "
                "(its image must start with the seed and be longer)"
            )

    @property
    def flags(self) -> KnownFlags:
        # x is recurrent iff a letter of s(a)[1:] reaches the seed a through images: each
        # prefix begins some s^k(a), which recurs at s^k of a later a; else a occurs once.
        # x is Sturmian if s is a primitive Sturmian morphism (_is_sturmian): x is
        # balanced, as a limit of Sturmian words, and aperiodic, as its incidence
        # matrix is primitive with determinant +-1 (Lothaire, ch. 2).  A prolongable rule
        # on 01 is primitive iff 1 is in s(0) and 0 in s(1); (01, 1) fixes 01^w, p(m) = 2.
        # x is a fixed point of s restricted to the letters the seed reaches, so a
        # rule on a letter x lacks does not hide the fact.
        rules = self.rules
        recurrent = self.seed in _closure(rules, rules[self.seed][1:])
        reached = {c: rules[c] for c in _closure(rules, self.seed)}
        sturmian = _is_sturmian(reached) and "1" in reached["0"] and "0" in reached["1"] or None
        return KnownFlags(recurrent, None, None if recurrent else 1, sturmian)

    def __str__(self) -> str:
        rules = ",".join(f"{a}->{img}" for a, img in sorted(self.rules.items()))
        return f"morphic:{rules};seed={self.seed}"

    def language(self, n: int):
        """Pieces whose length-n windows are the length-n factors of x, each
        yielded as found, by a fold (Pansiot, ICALP 1984).  With k =
        max(n-1, 1), level j holds the first and last k letters of s^j(c), c
        any letter of x.  Level j+1 reads each s(c) left to right and at each
        boundary takes the piece (last k letters so far) + (first k of the
        next letter), a factor of x.  A length-n factor of x (n >= 2) lies in
        some s^j(seed), so in the piece at the last boundary it crosses at
        some level.  The state fixes the next state and pieces, so the first
        repeated state ends the union.  A run of one letter changes nothing
        past k+1 copies and is cut there; each level's 2k letters per
        boundary count first against PREFIX_BUDGET."""
        rules, k = self.rules, max(n - 1, 1)
        images = {c: "".join(d * min(len([*r]), k + 1) for d, r in groupby(rules[c]))
                  for c in _closure(rules, self.seed)}
        cost = 2 * k * (sum(map(len, images.values())) - len(images))
        state, seen, pieces = {c: (c, c) for c in images}, set(), set()
        while (key := tuple(state.values())) not in seen:
            seen.add(key)
            if len(seen) * cost > PREFIX_BUDGET:
                raise BudgetExceeded(f"the fold for length-{n} factors passes {PREFIX_BUDGET} letters")
            nxt = {}
            for c, image in images.items():
                head, tail = state[image[0]]
                for first, last in map(state.get, image[1:]):
                    if len(piece := tail + first) >= n and piece not in pieces:
                        pieces.add(piece)
                        yield piece
                    head, tail = (head + first)[:k], (tail + last)[-k:]
                nxt[c] = head, tail
            state = nxt

    def prefix(self, n: int) -> str:
        # The fixed point x is s(x0) s(x1) s(x2) ..., and s(x0) starts with
        # x0 and is longer, so every letter is known before its image is
        # needed.  Each chunk is the image of the letters of the one before
        # it, starting with the letters of s(seed) after the seed, and only
        # of those whose images the n - size missing letters need.
        images = str.maketrans(dict(self.rules))
        sizes = {a: len(w) for a, w in self.rules.items()}
        longest, chunks = max(sizes.values()), [self.seed.translate(images)]
        size, i, start = len(chunks[0]), 0, 1
        while size < n:
            piece = chunks[i][start : start + n - size]  # images are nonempty
            if len(piece) * longest > n - size:
                grown = lambda t: sum(piece.count(a, 0, t) * k for a, k in sizes.items())
                piece = piece[: bisect_left(range(len(piece) + 1), n - size, key=grown)]
            image = piece.translate(images)
            chunks.append(image)
            size += len(image)
            i, start = i + 1, 0
        return "".join(chunks)[:n]


class StandardSequence(Record):
    """Limit of the standard recursion driven by a cycling directive.

    With s(-1) = 1, s(0) = 0 and s(m) = s(m-1)^d(m) s(m-2), the words s(m)
    extend one another, and their limit is the word described here.  The
    directive repeats cyclically, so every spec of this kind describes an
    aperiodic, uniformly recurrent word; ``std:1,...`` reproduces the
    Fibonacci word.
    """

    directive: tuple[int, ...]
    flags = KnownFlags(recurrent=True, aperiodic=True, sturmian=True)

    def __post_init__(self):
        entries = tuple(self.directive)
        object.__setattr__(self, "directive", entries)
        if not entries:
            raise MalformedSpec("directive must be nonempty")
        for d in entries:
            if not isinstance(d, int) or d < 1:
                raise MalformedSpec("directive entries must be integers >= 1")

    def __str__(self) -> str:
        return "std:" + ",".join(str(d) for d in self.directive)

    def language(self, n: int) -> list[str]:
        return Periodic(_standard(cycle(self.directive), n)).language(n)

    def prefix(self, n: int) -> str:
        return _standard(cycle(self.directive), n)[:n]


class MechanicalRational(Record, _EventuallyPeriodic):
    """Lower coding of the rotation with rational slope p/(p+q).

    Letter i is floor((i+1)a + rho) - floor(ia + rho) with a = p/L, L = p+q.
    As ip is an integer, floor(ia + rho) = floor((ip + r)/L), r = floor(rho L),
    so letter i is 1 exactly when (ip + r) mod L >= q.  Shifting i by L fixes
    that residue, so the word repeats its first L letters, its ``period``, and
    is purely periodic.  With rho = 0 and p, q >= 1 that period is the lower
    Christoffel word of slope p/L.
    """

    p: int
    q: int
    rho: Fraction = 0  # a fractions.Fraction once built
    preperiod = ""
    flags = KnownFlags(recurrent=True, aperiodic=False)

    def __post_init__(self):
        from fractions import Fraction

        rho = Fraction(self.rho)
        object.__setattr__(self, "rho", rho)
        if self.p < 0 or self.q < 1:
            raise MalformedSpec("need numerator p >= 0 and q >= 1")
        if math.gcd(self.p, self.q) != 1:
            raise MalformedSpec(f"p={self.p} and q={self.q} must be coprime")
        if not 0 <= rho < 1:
            raise MalformedSpec("intercept must lie in [0, 1)")

    def __str__(self) -> str:
        rho = self.rho
        rho_text = "0" if rho == 0 else f"{rho.numerator}/{rho.denominator}"
        return f"mech:{self.p}/{self.p + self.q}@{rho_text}"

    @property
    def period(self) -> str:
        return self._head(self.p + self.q)

    def language(self, n: int) -> list[str]:
        """See :func:`_standard`, whatever rho: with p/L = [0; a1, ..., ak],
        the directive a1 - 1, a2, ..., ak is Euclid's quotients of q by p."""
        entries, a, b = [], self.q, self.p
        while b:
            entries.append(a // b)
            a, b = b, a % b
        return Periodic(_standard(entries, n)).language(n)

    def _head(self, m: int) -> str:
        # Letter i is (ip + r) mod L >= q, one byte each; steps of p + L add p mod L.
        length, step = self.p + self.q, 2 * self.p + self.q
        r = self.rho.numerator * length // self.rho.denominator
        residues = map(length.__rmod__, range(r, r + min(m, length) * step, step))
        bits = bytes(map(self.q.__le__, residues))
        return bits.translate(bytes.maketrans(b"\0\1", b"01")).decode()


WordSpec = (
    Literal
    | Periodic
    | UltimatelyPeriodic
    | Morphic
    | StandardSequence
    | MechanicalRational
)


def generate_prefix(spec: WordSpec, n: int) -> str:
    """First ``n`` letters of the word described by ``spec``."""
    if n < 0:
        raise ValueError("prefix length must be >= 0")
    if n > PREFIX_BUDGET:
        raise BudgetExceeded(f"prefix length {n} exceeds budget {PREFIX_BUDGET}")
    return spec.prefix(n)


def _standard(entries, n: int) -> str:
    """The first s(m-1)^j s(m-2), 1 <= j <= d, of more than n letters, else
    s(m) = s(m-1)^d s(m-2) at the last d of ``entries`` (s(-1) = 1, s(0) = 0).
    Its powers have the length-n factors of the Sturmian or rational
    mechanical word of those entries (Lothaire, ch. 2; Mignosi, TCS 82,
    1991): that word's slope lies between this word's and that of its Farey
    neighbour s(m-1), where no fraction of denominator n or less lies.
    Its first n letters are the limit's."""
    prev, cur = "1", "0"
    for d in entries:
        if len(cur) > n:
            break
        power = cur * min(d, (n - len(prev)) // len(cur) + 1)
        power += prev  # in place, so the power is not held twice
        prev, cur = cur, power
    return cur


def _closure(rules: dict[str, str], letters: str) -> set[str]:
    """``letters`` and every letter their images reach, each found by a C-level scan."""
    reach = {c for c in ALPHABET if c in letters}
    while new := {c for b in reach for c in ALPHABET if c in rules[b]} - reach:
        reach |= new
    return reach


def _copies(a: str, b: str) -> int:
    """Letters in the run of copies of ``b`` that begins ``a``: b times the
    greatest k with a.startswith(b * k), bisected."""
    k = bisect_left(range(len(a) // len(b) + 1), True, key=lambda k: not a.startswith(b * k))
    return len(b) * (k - 1)


def _is_sturmian(rules: dict[str, str]) -> bool:
    """Whether the substitution on 01 is Sturmian.

    Sturmian morphisms are the monoid generated by the exchange 0 <-> 1,
    (01, 0) and (10, 0) (Mignosi and Seebold 1993; Lothaire, Algebraic
    Combinatorics on Words, ch. 2), so they are peeled off the right: the
    shorter image b is stripped from the front of the longer one a, then
    from its back, every copy at once as Euclid's algorithm divides, by a
    bisection of C-level comparisons (:func:`_copies`).  The substitution
    is Sturmian exactly when that ends at two distinct letters.
    """
    if sorted(rules) != ["0", "1"]:
        return False
    b, a = sorted(rules.values(), key=len)
    while len(a) > 1:
        i = _copies(a, b)
        j = len(a) - _copies(a[i:][::-1], b[::-1])
        if i == j or j - i == len(a):
            return False
        b, a = sorted((b, a[i:j]), key=len)
    return a != b


def parse_spec(text: str) -> WordSpec:
    """Parse the word-spec mini-language.

    Forms: ``fib``, ``morphic:0->01,1->0;seed=0``, ``periodic:01``,
    ``ultper:0|1`` (preperiod|seed), ``std:1,1,2,3``, ``mech:2/5@0``
    (slope as numerator/denominator, intercept after ``@`` as ``a/b``
    or ``0``), ``literal:0100101``.  ``str(spec)`` writes a spec back in
    this form (``fib`` comes back as its ``morphic:`` rules).
    """
    t = text.strip()
    if t == "fib":
        return Morphic(dict(FIBONACCI_RULES), "0")
    kind, sep, rest = t.partition(":")
    if not sep or not rest:
        raise MalformedSpec(f"unrecognized word spec {text!r}")
    if kind == "periodic":
        return Periodic(rest)
    if kind == "literal":
        return Literal(rest)
    if kind == "ultper":
        pre, sep2, seed = rest.partition("|")
        if not sep2:
            raise MalformedSpec("ultper wants preperiod|seed")
        return UltimatelyPeriodic(pre, seed)
    if kind == "std":
        try:
            entries = tuple(int(x) for x in rest.split(","))
        except ValueError as exc:
            raise MalformedSpec(f"bad directive {rest!r}") from exc
        return StandardSequence(entries)
    if kind == "morphic":
        rules_text, sep2, seed_text = rest.partition(";")
        if not sep2 or not seed_text.startswith("seed="):
            raise MalformedSpec("morphic wants rules;seed=<letter>")
        return Morphic(_parse_rules(rules_text), seed_text[len("seed="):])
    if kind == "mech":
        slope_text, sep2, rho_text = rest.partition("@")
        if not sep2:
            raise MalformedSpec("mech wants p/q@rho")
        try:
            num_text, den_text = slope_text.split("/")
            num, den = int(num_text), int(den_text)
        except ValueError as exc:
            raise MalformedSpec(f"bad slope {slope_text!r}") from exc
        if den < 1 or not 0 <= num < den:
            raise MalformedSpec("slope must satisfy 0 <= p/q < 1")
        return MechanicalRational(num, den - num, _parse_rational(rho_text))
    raise MalformedSpec(f"unknown spec kind {kind!r}")


def _parse_rules(text: str) -> dict[str, str]:
    rules: dict[str, str] = {}
    for part in text.split(","):
        a, sep, img = part.partition("->")
        if not sep:
            raise MalformedSpec(f"bad rule {part!r}, want letter->image")
        a = a.strip()
        if a in rules:
            raise MalformedSpec(f"duplicate rule for {a!r}")
        rules[a] = img.strip()
    return rules


def _parse_rational(text: str) -> Fraction:
    from fractions import Fraction

    t = text.strip()
    try:
        if "/" in t:
            a, b = t.split("/")
            return Fraction(int(a), int(b))
        return Fraction(int(t))
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedSpec(f"bad rational {text!r}") from exc
