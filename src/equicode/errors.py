"""Exception hierarchy shared by all equicode modules."""


class EquicodeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidMatrix(EquicodeError):
    """Matrix input is malformed (non-finite, non-symmetric, wrong backend)."""


class DegenerateInput(EquicodeError):
    """Input is degenerate for the requested operation (e.g. zero matrix)."""


class NotRealizable(EquicodeError):
    """Matrix is not PSD, or its float rank misses its exact rank: no embedding realizes it."""


class NotUnitDiagonal(EquicodeError):
    """Gram matrix diagonal is not within tolerance of 1."""


class DimensionMismatch(EquicodeError):
    """Vector or matrix dimensions do not agree."""


class InvalidIndex(EquicodeError):
    """Vertex or vector index out of range."""


class InvalidParams(EquicodeError):
    """Scalar parameters outside their admissible domain."""


class ZeroProjection(EquicodeError):
    """Projection of a vector onto the orthogonal complement is numerically zero."""


class NotAClique(EquicodeError):
    """Vertex set is not a clique of the single required edge value."""


class SingularGram(EquicodeError):
    """Clique Gram matrix is singular for the given (gamma, t)."""


class TooLarge(EquicodeError):
    """Requested construction exceeds the desk-scale size cap."""


class TooSmall(EquicodeError):
    """Graph is too small for the requested Ramsey extraction."""


class RandomizedFailure(EquicodeError):
    """Randomized construction failed for every retried seed."""

    def __init__(self, message, worst_cross=None):
        super().__init__(message)
        self.worst_cross = worst_cross


class NotAnLCode(EquicodeError):
    """Code does not validate against the required angle set."""


class NotEquiangular(EquicodeError):
    """Code inner products are not all of the form +/- alpha."""


class WrongStructure(EquicodeError):
    """Code or graph lacks the structure required by a certificate."""


class ExcludedAngle(EquicodeError):
    """Angle value explicitly excluded by the certificate's hypothesis."""


class NotFinite(EquicodeError):
    """Angle set contains an interval where a finite point set is required."""


class NoClique(EquicodeError):
    """No positive clique of the requested size exists."""


class InternalError(EquicodeError):
    """A construction failed its own certification; indicates a bug."""
