"""Exception types shared across the package."""


class SturmlexError(Exception):
    """Base class for every error raised by this package."""


class MalformedSpec(SturmlexError, ValueError):
    """A word spec (object or mini-language string) is invalid."""


class LiteralTooShort(SturmlexError, ValueError):
    """A literal spec cannot supply the requested prefix length."""


class WindowTooLarge(SturmlexError, ValueError):
    """The factor length bound does not fit the indexed prefix."""


class NotAFactor(SturmlexError, KeyError):
    """The queried word does not occur in the indexed prefix."""


class NonBinaryAlphabet(SturmlexError, ValueError):
    """A binary-only check was applied to a table over a larger alphabet."""


class NotImbalanced(SturmlexError, ValueError):
    """Imbalance classification was requested on a balanced table."""


class NotCoprime(SturmlexError, ValueError):
    """Christoffel parameters must be coprime."""


class SingularNotFound(SturmlexError, LookupError):
    """No factor of singular shape exists at the requested length."""


class SingularAmbiguous(SturmlexError, LookupError):
    """More than one non-conjugate factor at the requested length."""


class BudgetExceeded(SturmlexError, ValueError):
    """The requested prefix length exceeds the generation budget."""
