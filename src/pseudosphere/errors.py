"""Exception types shared across the package."""


class PseudosphereError(Exception):
    """Base class for every error raised by this package."""


class ContextMismatchError(PseudosphereError):
    """Two series living in different variable contexts were combined."""


class UnknownVariableError(PseudosphereError):
    """A variable name is not declared in the relevant context."""


class CompositionError(PseudosphereError):
    """A substitution was attempted at a non-admissible point.

    Substituting a series with a nonzero constant term would destroy
    truncation-order control, so it is rejected.
    """


class NonUnitError(PseudosphereError):
    """Inversion or division by a series with zero constant term."""


class InsufficientOrderError(PseudosphereError):
    """An operation would produce a series of negative certified order."""


class SingularJacobianError(PseudosphereError):
    """The constant Jacobian of an implicit system is not invertible."""


class RankConditionError(PseudosphereError):
    """A fundamental solution fails the rank condition at the origin."""


class UnsupportedDimensionError(PseudosphereError):
    """The CR dimension must be at least 2."""


class NormalizationError(PseudosphereError, ValueError):
    """A defining function does not have the normalized linear part -wb,
    or a real graph is not real-valued or not of order two at the origin."""


class RealityError(PseudosphereError):
    """The reality identities fail for a defining function.

    Carries the index of the failing identity (1 or 2) and the first
    offending monomial, rendered as text.
    """

    def __init__(self, message, identity=None, monomial=None):
        super().__init__(message)
        self.identity = identity
        self.monomial = monomial


class LeviDegenerateError(PseudosphereError):
    """The Levi determinant vanishes at the origin."""


class NonInvertibleMapError(PseudosphereError):
    """A point transformation has a singular linear part at the origin."""


class NotGraphableError(PseudosphereError):
    """The image hypersurface cannot be graphed over the canonical axes."""


class ParseError(PseudosphereError):
    """Syntax error in an input expression; carries the 0-based position."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position
