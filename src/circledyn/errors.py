"""Exception and warning types shared across circledyn."""


class CircledynError(Exception):
    """Base class for all circledyn errors."""


class DomainError(CircledynError, ValueError):
    """Argument outside the domain of the map being evaluated."""


class PrecisionError(CircledynError, ArithmeticError):
    """Requested output accuracy cannot be met within the iteration budget."""


class NotALiftError(CircledynError, ValueError):
    """Expression does not commute with the unit translation (not a lifting)."""


class HasFixedPointError(CircledynError, ValueError):
    """A sign change of f(x) - x was detected; f is not fixed-point free."""


class RangeError(CircledynError, ValueError):
    """Numeric parameter outside its admissible range."""


class RationalRotationError(CircledynError, ValueError):
    """Rotation estimate is consistent with a small-denominator rational."""

    def __init__(self, p: int, q: int):
        self.p = p
        self.q = q
        super().__init__(f"rotation number consistent with {p}/{q}")

    def __reduce__(self):
        return type(self), (self.p, self.q)


class NotPrimitiveError(CircledynError, ValueError):
    """Word lies in the k-th power subgroup; the circle construction needs g outside it."""


class MissingFieldError(CircledynError, ValueError, KeyError):
    """A serialized expression node lacks a parameter.  Also a KeyError, as
    a missing parameter was before it named the node."""

    __str__ = Exception.__str__     # not KeyError's, which quotes the message


class BudgetExceededError(CircledynError, RuntimeError):
    """Word-ball enumeration would exceed the configured budget."""


class MissingFaceError(CircledynError, KeyError):
    """A face tuple required by the coboundary formula is not tabulated."""


class NonIntegerCocycleError(CircledynError, ArithmeticError):
    """Deck transformation of composed lifts failed to be a constant integer."""


class NonIsolatedFixedPointsWarning(UserWarning):
    """An interval of fixed points (plateau) was detected."""


class OrbitTieWarning(UserWarning):
    """Numerically coincident orbit points were merged by index order."""


class EulerRangeWarning(UserWarning):
    """A computed Euler cocycle value fell outside the expected {0, 1} range."""
