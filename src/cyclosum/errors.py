"""Exception types raised across the package."""


class CyclosumError(Exception):
    """Base class for all errors raised by this package."""


class NotPrime(CyclosumError):
    """A value that must be prime (or a prime power, where stated) is not."""


class NotOddPrime(CyclosumError):
    """A value that must be an odd prime is not."""


class NotCoprime(CyclosumError):
    """Two values that must be coprime share a factor."""


class DoesNotDivide(CyclosumError):
    """A required divisibility relation fails."""


class SizeCapExceeded(CyclosumError):
    """The requested field would exceed the configured size cap."""


class OverrideNotIrreducible(CyclosumError):
    """A user-supplied modulus polynomial is not irreducible."""


class DivisionByZero(CyclosumError, ZeroDivisionError):
    """Inversion or division by the zero field element."""


class NotAMember(CyclosumError):
    """A certificate was requested for a weight outside the weight set."""


class EnumerationCapExceeded(CyclosumError):
    """A requested enumeration is above the configured weight cap."""


class HypothesisFails(CyclosumError):
    """The hypothesis of a closed-form result does not hold for the input."""


class PreconditionViolated(CyclosumError):
    """An operation was called outside its stated preconditions."""


class InvalidInput(CyclosumError):
    """A value given on the command line cannot be parsed."""


class InternalMismatch(CyclosumError):
    """Two internally redundant computations disagree; always a bug."""
