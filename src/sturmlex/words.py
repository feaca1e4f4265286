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
the rational-slope codings in exact fraction arithmetic.
"""

from __future__ import annotations

import math

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
        cls._defaults = {n: cls.__dict__[n] for n in cls._fields if n in cls.__dict__}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        given = dict(zip(cls._fields, args))
        if len(args) > len(cls._fields) or given.keys() & kwargs:
            raise TypeError(f"{cls.__name__} got too many or repeated fields")
        values = {**cls._defaults, **given, **kwargs}
        if values.keys() != set(cls._fields):
            raise TypeError(f"{cls.__name__} takes {cls._fields}, got {tuple(values)}")
        for name in cls._fields:
            object.__setattr__(self, name, values[name])
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
    for c in s:
        if c not in ALPHABET:
            raise MalformedSpec(f"{what} contains {c!r}; letters are the digits 0-9")


class KnownFlags(Record):
    """A-priori recurrence/aperiodicity knowledge; ``None`` means unknown."""

    recurrent: bool | None
    aperiodic: bool | None


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

    @property
    def flags(self) -> KnownFlags:
        # Never aperiodic; recurrent exactly when the word is purely
        # periodic, that is when shifting by the period fixes the preperiod.
        k, d = len(self.preperiod), len(self.period)
        w = self.prefix(k + d)
        return KnownFlags(recurrent=w[:k] == w[d:], aperiodic=False)


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
    """

    rules: dict[str, str]
    seed: str

    def __post_init__(self):
        rules = dict(self.rules)
        object.__setattr__(self, "rules", rules)
        if len(self.seed) != 1 or self.seed not in ALPHABET:
            raise MalformedSpec("seed must be a single letter 0-9")
        for a, img in rules.items():
            if len(a) != 1 or a not in ALPHABET:
                raise MalformedSpec(f"rule key {a!r} is not a letter")
            _check_word(img, f"image of {a}")
        if self.seed not in rules:
            raise MalformedSpec("no rule for the seed letter")
        for a, img in rules.items():
            for c in img:
                if c not in rules:
                    raise MalformedSpec(f"image letter {c} of rule {a} has no rule")
        img0 = rules[self.seed]
        if not img0.startswith(self.seed) or len(img0) < 2:
            raise MalformedSpec(
                "substitution is not prolongable on the seed "
                "(its image must start with the seed and be longer)"
            )

    @property
    def flags(self) -> KnownFlags:
        # A primitive substitution has a uniformly recurrent fixed point.
        primitive = _is_primitive(self.rules)
        return KnownFlags(recurrent=True if primitive else None, aperiodic=None)

    def __str__(self) -> str:
        rules = ",".join(f"{a}->{img}" for a, img in sorted(self.rules.items()))
        return f"morphic:{rules};seed={self.seed}"

    def prefix(self, n: int) -> str:
        images = str.maketrans(self.rules)
        w = self.seed
        while len(w) < n:
            # Images are nonempty, so the first n letters of the image depend
            # only on the first n letters of w; cutting there bounds the work.
            w = w[:n].translate(images)
        return w[:n]


class StandardSequence(Record):
    """Limit of the standard recursion driven by a cycling directive.

    With s(-1) = 1, s(0) = 0 and s(m) = s(m-1)^d(m) s(m-2), the words s(m)
    extend one another, and their limit is the word described here.  The
    directive repeats cyclically, so every spec of this kind describes an
    aperiodic, uniformly recurrent word; ``std:1,...`` reproduces the
    Fibonacci word.
    """

    directive: tuple[int, ...]
    flags = KnownFlags(recurrent=True, aperiodic=True)

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

    def prefix(self, n: int) -> str:
        prev, cur = "1", "0"
        i = 0
        while len(cur) < n:
            d = self.directive[i % len(self.directive)]
            reps = min(d, n // len(cur) + 1)
            if reps < d:
                nxt = cur * reps  # already past n letters, tail never needed
            else:
                nxt = cur * d + prev
            prev, cur = cur, nxt
            i += 1
        return cur[:n]


class MechanicalRational(Record, _EventuallyPeriodic):
    """Lower coding of the rotation with rational slope p/(p+q).

    Letter i is floor((i+1)a + rho) - floor(ia + rho) with a = p/(p+q),
    evaluated in exact rational arithmetic.  Shifting i by p+q adds the
    integer p to both floors, so the word repeats its first p+q letters,
    its ``period``, and is purely periodic.  With rho = 0 and p, q >= 1
    that period is the lower Christoffel word of slope p/(p+q).
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

    def _head(self, m: int) -> str:
        length = self.p + self.q
        num, den = self.rho.numerator, self.rho.denominator
        common = length * den
        base = num * length
        floors = [(i * self.p * den + base) // common for i in range(min(m, length) + 1)]
        return "".join("0" if a == b else "1" for a, b in zip(floors, floors[1:]))


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


def _is_primitive(rules: dict[str, str]) -> bool:
    """Some power of the substitution sends every letter to every letter."""
    letters = sorted(rules)
    s = len(letters)
    reach = {a: frozenset(rules[a]) for a in letters}
    power = dict(reach)
    # Wielandt: a primitive incidence matrix is positive by power (s-1)^2 + 1.
    for _ in range((s - 1) ** 2 + 1):
        if all(len(power[a]) == s for a in letters):
            return True
        power = {a: frozenset().union(*(reach[b] for b in power[a])) for a in letters}
    return False


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
