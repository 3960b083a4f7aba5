"""Exception types shared across the package."""


class DgaError(Exception):
    """Base class for all errors raised by this package."""


class UnknownGenerator(DgaError):
    pass


class PresentationMismatch(DgaError):
    pass


class DegreeMismatch(DgaError):
    pass


class DimensionMismatch(DgaError):
    pass


class NotACocycle(DgaError):
    pass


class WeightsMissing(DgaError):
    pass


class ZeroLambda(DgaError):
    pass


class InvalidDecomposition(DgaError):
    pass


class InvalidFiltration(DgaError):
    pass


class HomotopyEndpointMismatch(DgaError):
    pass


class LemmaViolation(DgaError):
    """A hypothesis of the correction lemma fails: d(w) reaches a generator
    that carries no bar, or has a linear term; the decomposition is bad."""


class PreconditionViolated(DgaError):
    pass


class UnsolvableSystem(DgaError):
    """A multiplicative system has no rational solution."""


class NonRationalRoot(UnsolvableSystem):
    """The exponent lattice forces a non-integral prime valuation."""


class UnsupportedShape(DgaError):
    """A constraint system falls outside the monomial-plus-linear shape the
    structured solver handles; carries the offending equation in args."""


class ClassificationIncomplete(DgaError):
    """Raised when a complete homotopy classification is required but some
    pair of representatives could not be decided."""


class Obstructed(DgaError):
    """A homotopy extension failed; ``.value`` holds the nonzero obstruction."""

    def __init__(self, value):
        super().__init__("homotopy extension is obstructed")
        self.value = value
