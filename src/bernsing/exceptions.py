"""Exception types shared across the package."""


class InvalidDegree(ValueError):
    """Degree n is not a finite integer >= 1, or too small for the
    requested singularity location."""


class MissingDerivative(ValueError):
    """An operation needs d1/d2 but the function does not provide them."""


class MissingExponent(ValueError):
    """An operation needs a nominal smoothness exponent (alpha0)."""


class Degenerate(ValueError):
    """Every candidate evaluation point of a sup was inadmissible."""
