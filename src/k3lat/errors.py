"""Domain errors shared across the package."""


class K3LatError(Exception):
    """Base class for all domain errors."""


class NotTwoElementary(K3LatError):
    pass


class OddLattice(K3LatError):
    pass


class NotIntegral(K3LatError):
    pass


class NotInDual(K3LatError):
    pass


class NotUnimodular(K3LatError):
    pass


class NotGraph(K3LatError):
    pass


class NotIsometry(K3LatError):
    pass


class NotIsotropic(K3LatError):
    pass


class DegenerateForm(K3LatError):
    pass


class BoundExceeded(K3LatError):
    pass


class NotDefinite(K3LatError):
    pass


class NotRealizable(K3LatError):
    pass


class OutOfFamily(K3LatError):
    pass


class UnsupportedInvariant(K3LatError):
    pass


class NonIntegerExponents(K3LatError):
    pass


class InsufficientPrecision(K3LatError):
    pass


class InvalidInput(K3LatError, ValueError):
    """An argument outside the domain of the function it was passed to."""


class ParseError(K3LatError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position
